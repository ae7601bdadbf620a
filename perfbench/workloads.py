"""Request lists of the three workloads, generated from the workload seed.

A request is one call sequence into cyclemax plus a check of its output
against ``reference``.  The seed moves rates by up to +-2 % (never across a
regime boundary; critical rates stay exact), draws the table weights, the
network routing and loads, and the simulators' RNG seeds.  It never changes
which calls a request makes or how large its inputs are, so the work per
request, and with it every timing, is the same from seed to seed up to
Monte-Carlo path lengths.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import reference as ref

KS = (10**3, 10**5, 10**7)
GUMBEL_X = (-1.0, 0.0, 1.0, 2.0)
GUMBEL_K = 10**4
LEVELS = 10**4
TAIL_KNOTS = 400  # n_max of the program's interpolated tail function


@dataclass
class Request:
    name: str
    run: Callable[[int], Any]  # draw index (simulator seeds) -> output
    check: Callable[[Any], str | None]  # output -> None, or what is wrong
    defer: bool = False  # check after the timed loop (cli)


@dataclass
class Chain:
    """A generated birth-death chain, described independently of cyclemax."""

    label: str
    weights: str  # ones | servers | factorial | table | callable
    lam: float
    mu: float = 1.0
    s: int = 1
    cap: int | None = None
    table: np.ndarray | None = None
    log_fn: Callable | None = None
    _laws: dict = field(default_factory=dict, repr=False)

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    @property
    def beta(self) -> float:
        return {"ones": 1.0, "servers": 1.0 / self.s, "factorial": 0.0}.get(self.weights, 1.0)

    @property
    def q(self) -> float:
        return self.beta * self.rho

    @property
    def regime(self) -> str:
        if self.q < 1.0:
            return "sub"
        return "critical" if self.q == 1.0 else "super"

    def spec(self, cm):
        if self.weights == "ones":
            return cm.mm1(self.lam, self.mu, cap=self.cap)
        if self.weights == "servers":
            return cm.mms(self.s, self.lam, self.mu, cap=self.cap)
        if self.weights == "factorial":
            return cm.mminf(self.lam, self.mu, cap=self.cap)
        if self.weights == "table":
            seq = cm.TableSequence(self.table, 1.0)
        else:
            seq = cm.CallableSequence(self.log_fn)
        return cm.BirthDeathSpec(seq, seq, self.lam, self.mu, cap=self.cap, label=self.label)

    def log_w(self, n_max: int) -> np.ndarray:
        return ref.log_weights(self.weights, n_max, s=self.s, table=self.table, log_fn=self.log_fn)

    def law(self, n_max: int) -> ref.ExactLaw:
        if n_max not in self._laws:
            self._laws[n_max] = ref.ExactLaw(self.log_w(n_max), self.rho, self.cap)
        return self._laws[n_max]

    def verdict(self) -> str:
        if self.cap is not None or self.regime == "sub":
            return "PositiveRecurrent"
        return "NullRecurrent" if self.regime == "critical" else "Transient"


def _jitter(rng):
    return lambda x: x * (1.0 + rng.uniform(-0.02, 0.02))


def _sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# sweep


def sweep_chains(seed: int) -> list[Chain]:
    rng = np.random.default_rng([seed, 1])
    j = _jitter(rng)
    chains = [Chain(f"mm1 rho={r}", "ones", j(r)) for r in (0.3, 0.5, 0.7, 0.9, 0.95)]
    chains += [Chain("mm1 critical", "ones", 1.0)]
    chains += [Chain(f"mm1 rho={r}", "ones", j(r)) for r in (1.25, 2.0)]
    chains += [Chain(f"mms s={s}", "servers", j(0.7 * s), s=s) for s in (2, 3, 8)]
    chains += [Chain("mms s=2 critical", "servers", 2.0, s=2)]
    chains += [Chain("mms s=3 transient", "servers", j(4.5), s=3)]
    chains += [Chain(f"mminf lam={lam}", "factorial", j(lam)) for lam in (1.0, 5.0, 20.0)]
    chains += [Chain("mm1 cap=50", "ones", j(0.9), cap=50)]
    chains += [Chain("mms s=3 cap=40", "servers", j(4.5), s=3, cap=40)]
    # tables: +-5 % weight noise keeps psi(n) rho^n strictly decreasing
    for size, rho in ((10**3, 0.8), (10**5, 0.5)):
        table = np.exp(rng.uniform(-0.05, 0.05, size))
        chains.append(Chain(f"table {size}", "table", j(rho), table=table))
    power = j(1.5)
    chains.append(Chain("callable (1+n)^a", "callable", j(0.5),
                        log_fn=lambda n, a=power: a * np.log1p(np.asarray(n, dtype=float))))
    return chains


def _tail_knots(chain: Chain) -> tuple[np.ndarray, int]:
    """Linear knots of psihat(n) rho^n up to TAIL_KNOTS and the start y0 of
    their strictly decreasing run."""
    g = chain.law(LEVELS).log_g[: TAIL_KNOTS + 1]
    rising = np.nonzero(np.diff(g) >= 0.0)[0]
    return np.exp(g), int(rising[-1]) + 1 if len(rising) else 0


def _tail_at(knots, y0, y):
    if y <= y0:
        return y0 - y + knots[y0]
    n = min(int(math.floor(y)), len(knots) - 2)
    t = y - n
    return (1.0 - t) * knots[n] + t * knots[n + 1]


def chain_request(cm, chain: Chain) -> Request:
    spec = chain.spec(cm)
    top = LEVELS if chain.cap is None else chain.cap
    levels = np.arange(1, top + 1)
    uncapped = chain.cap is None
    do_tail = uncapped
    do_norming = uncapped and chain.regime == "sub"
    do_gumbel = do_norming

    def run(p):
        out = {"verdict": cm.classify(spec).verdict.value}
        dist = cm.CycleMaxDistribution(spec)
        out["cdf"] = dist.cdf(levels)
        out["failure_rate"] = dist.failure_rate(levels)
        out["blocking_prob"] = dist.blocking_prob(levels)
        if do_tail:
            out["tail"] = cm.tail_asymptotics(spec)
        if do_norming:
            kind = cm.default_norming_kind(spec)
            out["norming"] = cm.norming_constants(spec, kind, KS)
        if uncapped:
            out["compact"] = cm.compactness_diagnostic(spec)
        if do_gumbel:
            out["gumbel"] = [cm.gumbel_bounds(spec, x, GUMBEL_K) for x in GUMBEL_X]
        return out

    def check(out):
        if out["verdict"] != chain.verdict():
            return f"verdict {out['verdict']}, expected {chain.verdict()}"
        law = chain.law(LEVELS)
        gap = float(np.max(np.abs(out["cdf"] - law.cdf(levels))))
        if gap > 1e-9:
            return f"cdf off the S-recursion by {gap:.2e}"
        for key in ("failure_rate", "blocking_prob"):
            g = ref.rel_gap(out[key], getattr(law, key)(levels))
            if g > 1e-8:
                return f"{key} off the S-recursion by {g:.2e} (relative)"
        if do_tail:
            err = _check_tail(chain, out["tail"])
            if err:
                return err
        if do_norming:
            err = _check_norming(chain, out["norming"])
            if err:
                return err
        if uncapped:
            expected = {"sub": "Compact", "critical": "Undetermined", "super": "Compact"}[chain.regime]
            if chain.weights == "factorial":
                expected = "NotCompact"
            if out["compact"].verdict != expected:
                return f"compactness {out['compact'].verdict}, expected {expected}"
        if do_gumbel and chain.weights != "callable":
            knots, y0 = _tail_knots(chain)
            for b in out["gumbel"]:
                if abs(b.upper - math.exp(-math.exp(-b.x))) > 1e-15:
                    return f"gumbel upper {b.upper} at x={b.x}"
                target = math.exp(-b.x) / ((1.0 - chain.q) * GUMBEL_K)
                if abs(_tail_at(knots, y0, b.y_upper) / target - 1.0) > 1e-6:
                    return f"gumbel threshold {b.y_upper} does not invert the tail at x={b.x}"
        return None

    return Request(chain.label, run, check)


def _check_tail(chain: Chain, ta) -> str | None:
    regime = ta.regime.value
    if chain.weights == "callable":
        return None if regime == "NoLimit" else f"tail regime {regime}, expected NoLimit"
    expected = {"sub": "Subcritical", "critical": "Critical", "super": "Supercritical"}[chain.regime]
    if regime != expected:
        return f"tail regime {regime}, expected {expected}"
    if chain.regime == "sub":
        want = 1.0 - chain.q
        got = ta.limit_constant
    elif chain.regime == "critical":
        want = chain.s**chain.s / math.factorial(chain.s)  # psihat(n) rho^n beyond s
        got = ta.limit_constant
    elif chain.weights == "ones":
        want = (chain.rho - 1.0) / chain.rho  # escape fixed point with 1 - p_finite = 1 - 1/rho
        got = ta.fixed_point_constant
    else:
        return None
    if abs(got / want - 1.0) > 1e-6:
        return f"tail constant {got}, expected {want}"
    return None


def _check_norming(chain: Chain, nc) -> str | None:
    rho = chain.rho
    for k, a, b in nc.rows():
        if chain.weights == "factorial":
            # b_k solves the Stirling tail (2 pi)^-1/2 (rho e)^b b^(-b-1/2) = 1/k
            resid = b * (1.0 + math.log(rho)) - (b + 0.5) * math.log(b) - 0.5 * math.log(2 * math.pi)
            if abs(resid + math.log(k)) > 1e-6:
                return f"Stirling b_k={b} misses 1/k={1 / k}"
        elif chain.weights == "callable":
            knots, y0 = _tail_knots(chain)
            if abs(_tail_at(knots, y0, b) * k - 1.0) > 1e-6:
                return f"numeric b_k={b} does not invert the tail at k={k}"
        else:
            want_b = math.log(k) / math.log(1.0 / chain.q)
            if abs(b / want_b - 1.0) > 1e-12 or abs(a * math.log(1.0 / chain.q) - 1.0) > 1e-12:
                return f"geometric (a_k, b_k)=({a}, {b}), closed form b_k={want_b}"
    return None


@dataclass(eq=False)
class Network:
    mu0: float
    stations: list  # (kind, mu, s)
    routing: np.ndarray

    @property
    def J(self) -> int:
        return len(self.stations)

    def spec(self, cm):
        return cm.NetworkSpec(
            mu0=self.mu0,
            stations=tuple(cm.Station(k, m, s=s) for k, m, s in self.stations),
            routing=self.routing,
        )

    @functools.cache
    def stationary(self, n_max: int) -> np.ndarray:
        return ref.product_form_levels(self.mu0, self.stations, self.routing, n_max)

    @functools.cache
    def level_law(self, n_max: int) -> ref.ExactLaw:
        """Cycle-maximum law of the induced chain from the product form."""
        levels = self.stationary(n_max)
        keep = int(np.argmax(levels < 1e-280)) or len(levels)
        return ref.ExactLaw(np.log(levels[:keep]), 1.0)


def random_network(rng, J: int, mu0: float = 0.25) -> Network:
    """Open network whose stations all route outside with probability 0.3-0.6;
    per-server loads are drawn in [0.3, 0.7]."""
    routing = np.zeros((J + 1, J + 1))
    routing[0, 1:] = rng.dirichlet(np.ones(J))
    for i in range(1, J + 1):
        out = rng.uniform(0.3, 0.6)
        routing[i, 0] = out
        routing[i, 1:] = (1.0 - out) * rng.dirichlet(np.ones(J))
    throughput = ref.traffic(routing)
    stations = []
    for i in range(J):
        kind = ("ss", "ms", "is")[i % 3]
        s = 2 + i % 2 if kind == "ms" else None
        servers = {"ss": 1, "ms": s, "is": 1}[kind]
        load = rng.uniform(0.3, 0.7) * servers
        stations.append((kind, float(mu0 * throughput[i] / load), s))
    return Network(mu0, stations, routing)


def network_request(cm, net: Network, n_max: int, lattice: bool) -> Request:
    spec = net.spec(cm)
    levels = np.arange(1, n_max + 1)

    def run(p):
        reduction = cm.norton_reduce(spec, n_max)
        out = {"cdf": cm.CycleMaxDistribution(reduction.induced).cdf(levels),
               "stationary": cm.stationary_distribution(reduction.induced, 50)}
        if lattice:
            out["lattice"] = cm.lattice_constants(spec, 20)[0]
            out["convolution"] = cm.aggregate_constants(spec, 20)[0]
        return out

    def check(out):
        law = net.level_law(200)
        g = ref.rel_gap(out["stationary"], net.stationary(50))
        if g > 1e-8:
            return f"induced stationary law off the product form by {g:.2e}"
        top = min(n_max, law.n_max)
        gap = float(np.max(np.abs(out["cdf"][:top] - law.cdf(levels[:top]))))
        if gap > 1e-9:
            return f"induced cycle-max law off the product-form recursion by {gap:.2e}"
        if lattice:
            g = ref.rel_gap(out["convolution"], out["lattice"])
            if g > 1e-10:
                return f"convolution constants off the lattice oracle by {g:.2e}"
        return None

    return Request(f"network J={net.J} n_max={n_max}", run, check)


# (J, n_max, lattice oracle): sizes picked so the six reductions cost about
# the same, which keeps p90 on a plateau instead of between two requests
SWEEP_NETWORKS = ((2, 2000, True), (3, 500, True), (3, 2000, False),
                  (6, 500, False), (7, 500, False), (8, 500, False))


def sweep(cm, seed: int) -> list[Request]:
    requests = [chain_request(cm, c) for c in sweep_chains(seed)]
    rng = np.random.default_rng([seed, 2])
    nets = [network_request(cm, random_network(rng, J), n, lat) for J, n, lat in SWEEP_NETWORKS]
    # interleave so network reductions are spread over the pass
    stride = len(requests) // len(nets)
    for i, r in enumerate(nets):
        requests.insert(i * (stride + 1) + stride, r)
    return requests


def edge_probes(cm) -> list[tuple[str, Callable]]:
    """Bounded-cost bad inputs; each should raise CycleMaxError or ValueError."""

    def nan_fn(n):
        return np.full(np.shape(n), np.nan)

    nan_seq = cm.CallableSequence(nan_fn)
    return [
        ("cdf at a non-integer level", lambda: cm.CycleMaxDistribution(cm.mm1(0.5, 1.0)).cdf(2.5)),
        ("classify NaN-valued weights",
         lambda: cm.classify(cm.BirthDeathSpec(nan_seq, nan_seq, 0.5, 1.0))),
        ("classify mminf(1e6, 1)", lambda: cm.classify(cm.mminf(1e6, 1.0))),
    ]


def run_edge_probes(cm) -> list[tuple[str, str]]:
    """(probe, outcome) for every probe that did not raise as it should."""
    bad = []
    for name, call in edge_probes(cm):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call()
                bad.append((name, "returned"))
            except (cm.CycleMaxError, ValueError):
                pass
            except Exception as exc:  # anything else is the defect being counted
                bad.append((name, f"{type(exc).__name__}: {exc}"))
    return bad


# ---------------------------------------------------------------------------
# montecarlo


def _mixed_network(mu0: float) -> Network:
    routing = np.array([
        [0.0, 0.5, 0.3, 0.2],
        [0.2, 0.1, 0.4, 0.3],
        [0.5, 0.2, 0.1, 0.2],
        [0.6, 0.2, 0.1, 0.1],
    ])
    return Network(mu0, [("ss", 1.0, None), ("ms", 1.0, 2), ("is", 0.5, None)], routing)


def _cycles_request(cm, seed, idx, chain: Chain, cycles: int, horizon: int) -> Request:
    spec = chain.spec(cm)

    def run(p):
        cfg = cm.SimConfig(seed=_sub_seed(seed, p, idx), cycles=cycles, escape_horizon=horizon)
        return cm.simulate_cycles(spec, cfg)

    def check(out):
        if out.cycles != cycles:
            return f"{out.cycles} cycles, asked for {cycles}"
        gap = ref.dkw_gap(out.maxima, cycles, chain.law(horizon - 1).cdf(np.arange(horizon)))
        eps = ref.dkw_epsilon(cycles)
        return None if gap <= eps else f"DKW gap {gap:.4f} > {eps:.4f}"

    return Request(f"simulate_cycles {chain.label} x{cycles}", run, check)


def _maxima_request(cm, seed, idx, chain: Chain, k: int, reps: int, mode: str) -> Request:
    spec = chain.spec(cm)
    n_ref = 600

    def run(p):
        cfg = cm.SimConfig(seed=_sub_seed(seed, p, idx))
        return cm.sample_maxima(spec, k, reps, cfg, mode=mode)

    def check(out):
        if len(out) != reps:
            return f"{len(out)} maxima, asked for {reps}"
        law = chain.law(n_ref).max_of_k_cdf(np.arange(n_ref + 1), k)
        gap = ref.dkw_gap(out, reps, law)
        eps = ref.dkw_epsilon(reps)
        return None if gap <= eps else f"DKW gap {gap:.4f} > {eps:.4f}"

    return Request(f"sample_maxima {mode} {chain.label} k={k}", run, check)


def _network_cycles_request(cm, seed, idx, net: Network, cycles: int) -> Request:
    spec = net.spec(cm)

    def run(p):
        return cm.simulate_network_cycles(spec, cm.SimConfig(seed=_sub_seed(seed, p, idx), cycles=cycles))

    def check(out):
        if out.cycles != cycles:
            return f"{out.cycles} cycles, asked for {cycles}"
        law = net.level_law(200)
        gap = ref.dkw_gap(out.maxima, cycles, law.cdf(np.arange(law.n_max + 1)))
        eps = ref.dkw_epsilon(cycles)
        return None if gap <= eps else f"DKW gap {gap:.4f} > {eps:.4f} against the induced law"

    return Request(f"simulate_network_cycles J=3 x{cycles}", run, check)


def montecarlo(cm, seed: int) -> list[Request]:
    rng = np.random.default_rng([seed, 3])
    j = _jitter(rng)
    reqs = []

    def add(make, *a, draws=seed):
        reqs.append(make(cm, draws, len(reqs), *a))

    # 23 requests, so p50 lands inside a request (mm1 at 0.6 or mminf(1),
    # of like cost) rather than between two of unlike cost
    for r in (0.3, 0.5, 0.6, 0.7, 0.9):
        add(_cycles_request, Chain(f"mm1 rho={r}", "ones", j(r)), 10**5, 1000)
    add(_cycles_request, Chain("mms s=2", "servers", j(1.4), s=2), 10**5, 1000)
    add(_cycles_request, Chain("mms s=3", "servers", j(2.1), s=3), 10**5, 1000)
    add(_cycles_request, Chain("mminf lam=1", "factorial", j(1.0)), 10**5, 1000)
    add(_cycles_request, Chain("mminf lam=2", "factorial", j(2.0)), 10**5, 1000)
    # A straggler's cost is set by the longest cycle of its draw and moves by
    # 20-50 % from draw to draw.  So stragglers keep fixed rates and the same
    # per-pass draws whatever the seed, and p90 and wall_s compare like with
    # like across seeds.  Horizon 600 puts the transient one at about the
    # cost of rho=0.95, so p90 lands between two requests of like cost.
    add(_cycles_request, Chain("mm1 rho=0.95", "ones", 0.95), 10**5, 1000, draws=0)
    add(_cycles_request, Chain("mm1 critical", "ones", 1.0), 2 * 10**4, 200, draws=0)
    add(_cycles_request, Chain("mm1 rho=1.5", "ones", 1.5), 2 * 10**4, 600, draws=0)
    add(_maxima_request, Chain("mm1 rho=0.5", "ones", j(0.5)), 10**3, 200, "jump")
    for chain in (Chain("mm1 rho=0.5", "ones", j(0.5)), Chain("mms s=3", "servers", j(2.1), s=3),
                  Chain("mminf lam=2", "factorial", j(2.0))):
        for k in KS:
            add(_maxima_request, chain, k, 10**5, "inversion")
    add(_network_cycles_request, _mixed_network(j(0.25)), 5 * 10**4)
    return reqs


# ---------------------------------------------------------------------------
# cli


def _spec_json(label, lam, mu, preset, s=None):
    seq = {"kind": "preset", "name": preset}
    if s is not None:
        seq["s"] = s
    return {"label": label, "lambda": lam, "mu": mu, "cap": None, "psi": seq, "phi": dict(seq)}


def _strip_seconds(text: str) -> str:
    """verify prints each check's wall time; drop that column."""
    return re.sub(r" +\d+\.\d\ds  ", "  ", text)


class CliRunner:
    """Spawns ``python -m cyclemax.cli`` (or a demo) once per request.

    With tracing on, the child runs through ``clishim.py``, which records
    the same spans inside the child and writes them to a file that is merged
    into the parent's tracer as the request's spans.
    """

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.tracer = None
        self.child_seq = 0
        self.spawn_ms: list[float] = []
        self.import_ms: list[float] = []

    def spawn(self, argv):
        if self.tracer is None:
            cmd = [sys.executable] + (argv[1:] if argv[0] == "--demo" else ["-m", "cyclemax.cli", *argv])
            proc = subprocess.run(cmd, capture_output=True, cwd=self.root, timeout=120)
            return proc.returncode, proc.stdout.decode()
        self.child_seq += 1
        out_path = os.path.join(self.work, f"child-{self.child_seq}.json")
        env = dict(os.environ, PERFBENCH_TRACE_OUT=out_path)
        shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clishim.py")
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, shim, *argv], capture_output=True,
                              env=env, cwd=self.root, timeout=120)
        t1 = time.monotonic()
        with open(out_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(out_path)
        self.spawn_ms.append(1000.0 * ((t1 - t0) - (child["t_exit"] - child["t_enter"])))
        self.import_ms.append(child["import_ms"])
        base = len(self.tracer.spans)
        for s in child["spans"]:
            s[3] = s[3] + base if s[3] >= 0 else -1
            s[4] = self.tracer.request
            self.tracer.spans.append(s)
        return proc.returncode, proc.stdout.decode()


def _in_process(argv, root) -> tuple[int, str]:
    """The same command run inside this process."""
    import cyclemax.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if argv[0] == "--demo":
            runpy.run_path(os.path.join(root, argv[1]), run_name="__main__")
            code = 0
        else:
            code = cyclemax.cli.main(list(argv))
    return code, buf.getvalue()


def cli(seed: int, runner: CliRunner) -> list[Request]:
    rng = np.random.default_rng([seed, 4])
    j = _jitter(rng)
    files = {
        "mm1": _spec_json("mm1", j(0.5), 1.0, "mm1"),
        "mms": _spec_json("mms3", j(2.1), 1.0, "mms", s=3),
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = os.path.join(runner.work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    net = _mixed_network(j(0.25))
    paths["net"] = os.path.join(runner.work, "net.json")
    with open(paths["net"], "w", encoding="utf-8") as fh:
        json.dump({
            "mu0": net.mu0,
            "stations": [{"kind": k, "mu": m, **({"s": s} if s else {})} for k, m, s in net.stations],
            "routing": net.routing.tolist(),
        }, fh)
    sim_seed = str(_sub_seed(seed, 5) % 10**6)
    commands = [
        ["classify", "--spec", paths["mm1"]],
        ["cdf", "--spec", paths["mm1"], "--nmax", "200"],
        ["tail", "--spec", paths["mm1"]],
        ["extremes", "--spec", paths["mms"], "--table", "norming"],
        ["extremes", "--spec", paths["mm1"], "--table", "envelope"],
        ["extremes", "--spec", paths["mms"], "--table", "compactness", "--format", "json"],
        ["simulate", "--spec", paths["mm1"], "--seed", sim_seed],
        ["simulate", "--spec", paths["mm1"], "--k", "1000,100000", "--reps", "200", "--seed", sim_seed],
        ["network-reduce", "--in", paths["net"], "--nmax", "2000"],
        ["verify", "--suite", "full"],
    ]
    commands += [["--demo", f"demos/{name}"] for name in sorted(os.listdir(os.path.join(runner.root, "demos")))
                 if name.endswith(".py")]
    expected: dict[int, tuple[int, str]] = {}

    def make(idx, argv):
        def run(p):
            return runner.spawn(argv)

        def check(out):
            code, text = out
            if argv[0] == "verify":
                if code != 0 or "(0 blocking failures)" not in text:
                    return f"verify exit {code}: {text.strip().splitlines()[-1:]}"
                text = _strip_seconds(text)
            if idx not in expected:
                want_code, want = _in_process(argv, runner.root)
                expected[idx] = (want_code, _strip_seconds(want) if argv[0] == "verify" else want)
            if (code, text) != expected[idx]:
                return f"exit {code} / output differs from the same call made in-process"
            return None

        name = " ".join(os.path.basename(a) if os.path.isabs(a) else a for a in argv)
        return Request(name, run, check, defer=True)

    return [make(i, argv) for i, argv in enumerate(commands)]
