"""Self-contained acceptance checks runnable from tests or the CLI.

Each check pins its own oracle values and tolerances and returns
``(passed, detail)`` rather than raising; ``run_criterion`` times it and
wraps it in a CriterionResult named after the function, so the CLI can
print a table and the test suite can assert.  A check whose outcome is a
documented impossibility is listed in ``EXPECTED_FAILURES``; runners treat
its failure as non-blocking exactly like a strict xfail.

Suites: "full" reproduces the pinned scales; "fast" cuts the Monte-Carlo
volume for quick smoke runs while keeping every deterministic check intact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bdp import BirthDeathSpec, mm1, mminf, mms, stationary_distribution
from .distribution import (
    CycleMaxDistribution,
    TailRegime,
    _as_dist,
    duality_check,
    tail_asymptotics,
)
from .extremes import NormingKind, compactness_diagnostic, gumbel_bounds, norming_constants
from .networks import (
    NetworkSpec,
    Station,
    aggregate_constants,
    harrison_closed_form,
    lattice_constants,
    log_aggregate_constants,
    network_beta,
    norton_reduce,
    simulate_network_cycles,
    station_loads,
)
from .simulate import SimConfig, _sorted_median, empirical_cdf, sample_maxima, simulate_cycles

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    expected_failure: bool = False

    @property
    def blocking(self) -> bool:
        return not self.passed and not self.expected_failure


def _exact_cdf_specs():
    return [
        mm1(0.3, 1.0),
        mm1(0.5, 1.0),
        mm1(0.9, 1.0),
        mms(2, 1.4, 1.0),
        mms(3, 2.1, 1.0),
        mminf(1.0, 1.0),
        mminf(2.0, 1.0),
    ]


def exact_cdf_oracle(suite: str = "full", seed: int = 47) -> tuple[bool, str]:
    """Empirical cycle-max CDFs against the exact series, 3 sigma pointwise."""
    # a 3 sigma envelope does not widen with the cycle count, so thinning the
    # sample would only move the failure threshold; run full strength always
    cycles = 100_000
    levels = np.arange(1, 21)
    worst = 0.0
    worst_at = ""
    ok = True
    for i, spec in enumerate(_exact_cdf_specs()):
        dist = _as_dist(spec)
        exact = dist.cdf(levels)
        sample = simulate_cycles(spec, SimConfig(seed=seed + i, cycles=cycles))
        emp = empirical_cdf(sample.maxima, levels)
        sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-300) / cycles)
        ratio = float(np.max(np.abs(emp - exact) / np.maximum(3.0 * sigma, 1e-12)))
        if ratio > worst:
            worst, worst_at = ratio, spec.label
        ok = ok and np.all(np.abs(emp - exact) <= 3.0 * sigma + 1e-12)
    detail = f"max |emp-exact|/3sigma = {worst:.3f} (worst: {worst_at}, {cycles} cycles)"
    return ok, detail


def duality_identity(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    """Failure law of the swapped-rate chain equals the blocking law, exactly."""
    gaps = [duality_check(lam, mu, n_max=100) for lam, mu in ((1, 2), (1, 10), (3, 4))]
    worst = max(gaps)
    return worst < 1e-12, f"max gap over pairs = {worst:.3e}"


def _survival_ratio_recursion_gap(spec: BirthDeathSpec, n_hi: int) -> float:
    """Max relative error of u(n) = S(n) psihat(n) rho^n vs its exact recursion.

    u satisfies u(n+1) = u(n) * rho * psi(n+1)/psi(n) + 1 with u(0) = 1,
    which stays order-1 even when psihat(n) rho^n under- or overflows.
    """
    dist = _as_dist(spec)
    n = np.arange(n_hi + 1)
    direct = np.exp(np.asarray(dist.log_cumulative(n)) + np.asarray(spec.log_psi_rho(n)))
    log_psi = np.asarray(spec.psi.log_value(n), dtype=float)
    step = np.exp(np.diff(log_psi) + math.log(spec.rho))
    rec = np.empty(n_hi + 1)
    rec[0] = 1.0
    for k in range(n_hi):
        rec[k + 1] = rec[k] * step[k] + 1.0
    return float(np.max(np.abs(direct / rec - 1.0)))


def multi_server_limit(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    """(s/rho)^n (1-F(n)) tends to (s^s/s!)(1-rho/s); recursion oracle everywhere."""
    spec = mms(3, 1.5, 1.0)
    dist = _as_dist(spec)
    n = 60
    value = math.exp(dist.log_survival(n) + n * math.log(3.0 / 1.5))
    target = (27.0 / 6.0) * (1.0 - 1.5 / 3.0)
    gap = abs(value - target)
    rec_worst = 0.0
    for probe in _exact_cdf_specs() + [mm1(1.0, 1.0), mms(2, 2.0, 1.0), mm1(2.0, 1.0)]:
        rec_worst = max(rec_worst, _survival_ratio_recursion_gap(probe, 200))
    ok = gap < 1e-6 and rec_worst < 1e-10
    detail = f"limit gap {gap:.2e} (tol 1e-6); recursion rel err {rec_worst:.2e} (tol 1e-10)"
    return ok, detail


def critical_tail_limit(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    """n(1-F(n)) approaches 1 for the critical single server, s^s/s! for s servers."""
    d1 = CycleMaxDistribution(mm1(1.0, 1.0))
    v1 = 100 * math.exp(d1.log_survival(100))
    d2 = CycleMaxDistribution(mms(2, 2.0, 1.0))
    target2 = 4.0 / 2.0
    v2 = 200 * math.exp(d2.log_survival(200))
    ok = abs(v1 - 1.0) < 0.02 and abs(v2 - target2) < 0.05 * target2
    detail = f"n(1-F): single {v1:.4f} (tol 0.02 about 1), s=2 {v2:.4f} (tol 0.1 about 2)"
    return ok, detail


# Converged value of psihat(n) rho^n (1 - P(Y<=n | Y finite)) for lam=2, mu=1,
# frozen from the Cauchy sequence below and from independent brute-force
# hitting-probability evaluation.
ESCAPE_PRODUCT_ORACLE = 0.5


def transient_escape_constant(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    spec = mm1(2.0, 1.0)
    dist = _as_dist(spec)
    n = np.arange(1, 81)
    # psihat(n) rho^n * (1 - P(Y <= n | Y finite)), cancellation-free
    seq = np.exp(spec.log_psi_rho(n) + dist._log_conditional_survival(n))
    diffs = np.abs(np.diff(seq))
    cauchy_by_60 = bool(np.all(diffs[58:] < 1e-8))
    converged = float(seq[-1])
    ta = tail_asymptotics(spec)
    ok = (
        cauchy_by_60
        and abs(converged - ESCAPE_PRODUCT_ORACLE) < 1e-8
        and ta.regime is TailRegime.SUPERCRITICAL
        and abs(ta.limit_constant - ESCAPE_PRODUCT_ORACLE) < 1e-9
        and abs(ta.fixed_point_constant - ESCAPE_PRODUCT_ORACLE) < 1e-9
    )
    detail = (
        f"converged {converged:.12f} vs oracle {ESCAPE_PRODUCT_ORACLE}; "
        f"limit constant {ta.limit_constant:.12f}, "
        f"fixed point {ta.fixed_point_constant:.12f}"
    )
    return ok, detail


def gumbel_envelope(suite: str = "full", seed: int = 42) -> tuple[bool, str]:
    """Simulated P(Y^(k) <= threshold(x)) inside the double-exponential envelope.

    Thresholds come from the calibrated tail inversion (gumbel_bounds); the
    naive a_k x + b_k rule without the 1 - beta*rho calibration lands outside
    the stated envelope for this chain at every finite k, see the ledger.
    """
    spec = mm1(0.5, 1.0)
    k = 10_000
    reps = 4_000 if suite == "full" else 800
    xs = (-1.0, 0.0, 1.0, 2.0)
    sample = sample_maxima(spec, k, reps, SimConfig(seed=seed), mode="inversion")
    ok = True
    margins = []
    for x in xs:
        bounds = gumbel_bounds(spec, x, k)
        threshold = math.floor(bounds.y_upper)
        p_hat = float(np.mean(sample <= threshold))
        lo = math.exp(-2.0 * math.exp(-x)) - 0.04
        hi = math.exp(-math.exp(-x)) + 0.04
        margins.append(min(p_hat - lo, hi - p_hat))
        ok = ok and lo <= p_hat <= hi
    detail = f"min envelope margin {min(margins):.4f} over x in {xs} ({reps} reps)"
    return ok, detail


def compactness_dichotomy(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    ok = True
    details = []
    for spec in (mms(2, 1.4, 1.0), mms(3, 2.1, 1.0)):
        report = compactness_diagnostic(spec, delta=2.0)
        inside = report.r_min > 0.001 and report.r_max < 0.999
        ok = ok and report.verdict == "Compact" and inside
        details.append(f"{spec.label}: R in [{report.r_min:.3f}, {report.r_max:.3f}]")
    for rho in (1.0, 2.0):
        report = compactness_diagnostic(mminf(rho, 1.0))
        pairs = dict(zip(report.grid, report.hazard_ratios))
        crossed = any(n <= 30.0 and r > 10.0 for n, r in pairs.items())
        ok = ok and report.verdict == "NotCompact" and crossed
        details.append(f"mminf rho={rho}: hazard ratio at 30 = {pairs.get(30.0, float('nan')):.1f}")
    return ok, "; ".join(details)


def normaliser_median_bands(suite: str = "full", seed: int = 7) -> tuple[bool, str]:
    """Median of Y^(k)/b_k sits in the stated bands at k = 1e5."""
    reps = 500
    spec_geo = mm1(0.5, 1.0)
    spec_inf = mminf(1.0, 1.0)
    b_geo = norming_constants(spec_geo, NormingKind.GEOMETRIC, [10**5]).b[0]
    b_inf = norming_constants(spec_inf, NormingKind.STIRLING_FACTORIAL, [10**5]).b[0]
    med_geo = _sorted_median(np.sort(sample_maxima(spec_geo, 10**5, reps, SimConfig(seed=seed)) / b_geo))
    med_inf = _sorted_median(np.sort(sample_maxima(spec_inf, 10**5, reps, SimConfig(seed=seed + 1)) / b_inf))
    ok = 0.8 <= med_geo <= 1.2 and 0.7 <= med_inf <= 1.3
    detail = f"medians at k=1e5: geometric {med_geo:.4f} in [0.8,1.2], stirling {med_inf:.4f} in [0.7,1.3]"
    return ok, detail


def normaliser_median_monotonicity(suite: str = "full", seed: int = 7) -> tuple[bool, str]:
    """Documented expected failure: the geometric chain's median ratio is
    farther from 1 at k = 1e5 than at k = 1e3.

    With b_k = log_2 k the integer median sits at ceil-like offsets whose
    relative gap does not shrink monotonically in k; the infinite-server
    chain does improve.  Kept as a non-blocking check so the discrepancy
    stays visible.
    """
    reps = 500
    rows = []
    for name, spec, kind, shift in (
        ("geometric", mm1(0.5, 1.0), NormingKind.GEOMETRIC, 0),
        ("stirling", mminf(1.0, 1.0), NormingKind.STIRLING_FACTORIAL, 1),
    ):
        gaps = []
        for j, k in enumerate((10**3, 10**5)):
            b_k = norming_constants(spec, kind, [k]).b[0]
            med = _sorted_median(np.sort(sample_maxima(spec, k, reps, SimConfig(seed=seed + shift + 10 * j)) / b_k))
            gaps.append(abs(med - 1.0))
        rows.append((name, gaps[0], gaps[1]))
    ok = all(g5 <= g3 for _, g3, g5 in rows)
    detail = "; ".join(f"{n}: |med-1| {g3:.4f} at 1e3 -> {g5:.4f} at 1e5" for n, g3, g5 in rows)
    return ok, detail


def _mixed_network() -> NetworkSpec:
    return NetworkSpec(
        mu0=0.25,
        stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
        routing=[
            [0.0, 0.5, 0.3, 0.2],
            [0.2, 0.1, 0.4, 0.3],
            [0.5, 0.2, 0.1, 0.2],
            [0.6, 0.2, 0.1, 0.1],
        ],
    )


def _all_is_network() -> NetworkSpec:
    return NetworkSpec(
        mu0=0.7,
        stations=(Station("is", 2.0), Station("is", 1.0), Station("is", 2.0 / 3.0)),
        routing=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    )


def _distinct_ss_network() -> NetworkSpec:
    return NetworkSpec(
        mu0=0.1,
        stations=(Station("ss", 5.0), Station("ss", 2.0), Station("ss", 1.25)),
        routing=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    )


def network_constants(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    details = []
    net = _mixed_network()
    conv, _ = aggregate_constants(net, 12)
    brute, _ = lattice_constants(net, 12)
    lattice_err = float(np.max(np.abs(conv / brute - 1.0)))
    details.append(f"lattice rel err {lattice_err:.2e}")

    ss_net = _distinct_ss_network()
    loads = station_loads(ss_net)
    conv_ss, _ = aggregate_constants(ss_net, 30)
    closed = np.array([harrison_closed_form(loads, n) for n in range(31)])
    harrison_err = float(np.max(np.abs(conv_ss / closed - 1.0)))
    details.append(f"harrison rel err {harrison_err:.2e}")

    is_net = _all_is_network()
    total_load = float(np.sum(station_loads(is_net)))
    conv_is, _ = aggregate_constants(is_net, 30)
    closed_is = np.array([total_load**n / math.factorial(n) for n in range(31)])
    is_err = float(np.max(np.abs(conv_is / closed_is - 1.0)))
    details.append(f"all-is rel err {is_err:.2e}")

    ok = lattice_err < 1e-12 and harrison_err < 1e-10 and is_err < 1e-12
    return ok, "; ".join(details)


def norton_consistency(suite: str = "full", seed: int = 6) -> tuple[bool, str]:
    """Induced stationary levels match the product form; simulated network
    cycle maxima match the induced CDF within sampling error."""
    net = _mixed_network()
    # the envelope must cover the small reduction bias on top of sampling
    # noise, so the cycle count stays at full strength in both suites
    cycles = 50_000
    reduction = norton_reduce(net, n_max=400)
    beta_rho = reduction.beta_net * net.mu0

    pi_induced = stationary_distribution(reduction.induced, 20)
    log_phi, _ = log_aggregate_constants(net, 400)
    log_levels = log_phi + np.arange(401) * math.log(net.mu0)
    shift = log_levels.max()
    weights = np.exp(log_levels - shift)
    pi_net = weights[:21] / weights.sum()
    stat_err = float(np.max(np.abs(pi_induced / pi_net - 1.0)))

    dist = _as_dist(reduction.induced)
    sample = simulate_network_cycles(net, SimConfig(seed=seed, cycles=cycles))
    levels = np.arange(1, 16)
    exact = dist.cdf(levels)
    emp = empirical_cdf(sample.maxima, levels)
    sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-300) / cycles)
    sim_ok = bool(np.all(np.abs(emp - exact) <= 3.0 * sigma + 1e-12))
    sim_worst = float(np.max(np.abs(emp - exact)))

    ok = beta_rho < 1.0 and stat_err < 1e-10 and sim_ok
    detail = (
        f"beta*mu0 {beta_rho:.3f}; stationary rel err {stat_err:.2e}; "
        f"sim sup gap {sim_worst:.4f} over n<=15 at {cycles} cycles"
    )
    return ok, detail


def network_slope(suite: str = "full", seed: int = 0) -> tuple[bool, str]:
    net = _mixed_network()
    beta, mult = network_beta(net)
    log_psi, _ = log_aggregate_constants(net, 201)
    ratio = math.exp(log_psi[201] - log_psi[200]) / beta
    distinct_ok = mult == 1 and abs(ratio - 1.0) < 1e-3

    twin = NetworkSpec(
        mu0=0.2,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=[[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]],
    )
    beta2, mult2 = network_beta(twin)
    log_psi2, _ = log_aggregate_constants(twin, 401)
    n = np.arange(380, 402)
    scaled = log_psi2[n] - (mult2 - 1) * np.log(n) - n * math.log(beta2)
    ratios = np.exp(np.diff(scaled))
    twin_ok = mult2 == 2 and bool(np.all(np.abs(ratios - 1.0) < 1e-2))

    ok = distinct_ok and twin_ok
    detail = (
        f"distinct: Psi(201)/(beta Psi(200)) - 1 = {ratio - 1.0:.2e}; "
        f"|B|=2: scaled successive ratios within {float(np.max(np.abs(ratios - 1.0))):.2e}"
    )
    return ok, detail


CRITERIA = (
    ("1", exact_cdf_oracle),
    ("2", duality_identity),
    ("3", multi_server_limit),
    ("4", critical_tail_limit),
    ("5", transient_escape_constant),
    ("6", gumbel_envelope),
    ("7", compactness_dichotomy),
    ("8a", normaliser_median_bands),
    ("8b", normaliser_median_monotonicity),
    ("9", network_constants),
    ("10", norton_consistency),
    ("11", network_slope),
)
# checks whose failure is a documented finding, reported as XFAIL
EXPECTED_FAILURES = frozenset({"8b"})


def run_criterion(tag: str, suite: str = "full", seed: int | None = None) -> CriterionResult:
    """Run and time one check; seed None keeps the check's pinned default."""
    for t, fn in CRITERIA:
        if t == tag:
            start = time.perf_counter()
            passed, detail = fn(suite=suite) if seed is None else fn(suite=suite, seed=seed)
            return CriterionResult(
                name=fn.__name__.replace("_", "-"),
                passed=bool(passed),
                detail=detail,
                seconds=time.perf_counter() - start,
                expected_failure=t in EXPECTED_FAILURES,
            )
    raise KeyError(f"no criterion {tag!r}")


def run_all(suite: str = "full", seed: int | None = None) -> list[CriterionResult]:
    return [run_criterion(tag, suite=suite, seed=seed) for tag, _ in CRITERIA]
