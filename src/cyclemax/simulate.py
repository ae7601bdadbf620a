"""Regenerative Monte-Carlo for cycle maxima.

A busy cycle starts with the jump 0 -> 1 and ends on the return to 0.  The
maximum over the cycle depends only on the embedded up/down decisions, so
holding times are never sampled.  Every call draws from one generator seeded
by ``SimConfig.seed``, so equal seeds give equal results.  Late passes with
few live cycles draw blocks of uniforms for many jumps at once, and a cycle
that finishes inside its block leaves the rest of it unused; which uniforms a
cycle uses is set out in ``_simulate_batch``.  A call expected to take more
than _MAX_JUMPS jumps raises before its first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdp import BirthDeathSpec
from .distribution import CycleMaxDistribution, _as_dist
from .errors import EscapedCycleError, NotApplicableError
from .extremes import as_limit_constant

__all__ = [
    "ESCAPED",
    "SimConfig",
    "CycleSample",
    "simulate_cycle",
    "simulate_cycles",
    "sample_maxima",
    "ConvergenceRow",
    "verify_as_convergence",
    "empirical_cdf",
    "ks_two_sample",
]

# Most cells (jumps x live cycles) in one block of uniforms: with the int32
# path of a block in the constant run that is about 1 MiB.  Half or twice as
# many cells ran critical mm1 and mm1(0.95) 3-12 % slower.
_BLOCK_CELLS = 1 << 16
# Most live cycles a block serves; with more, a single-jump pass costs less
# per jump (about 12 ns: mm1(1.5) ran 17 % slower with blocks up to 8192).
_BLOCK_LIVE = 1 << 11
# Most live cycles stepped one by one in Python in a level-dependent run, at
# about 100 ns a jump; a vectorised pass costs about 10 us, so over fewer
# cycles it costs more per jump.
_TAIL_CYCLES = 128
# Rows of the first Python-stepped block of a batch; each later one has twice
# as many, within _BLOCK_CELLS, so a short cycle draws little it does not use.
_TAIL_ROWS = 64
# Most cycles one jump-mode batch simulates at once.
_JUMP_CHUNK = 1 << 17
# Most levels an inversion table may hold (8 MiB of float64).
_INVERSION_LEVELS = 1 << 20
# Most jumps a call may expect to simulate: 10-400 ns a jump on a 2-vCPU
# host, so about 40 s at most.  That cost holds however few cycles are live,
# since those are stepped in blocks or in Python, so one cycle is charged
# for its own jumps only.
_MAX_JUMPS = 1e8


class _Escaped:
    """Sentinel for a cycle that hit the escape horizon instead of returning."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ESCAPED"


ESCAPED = _Escaped()


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    cycles: int = 10_000
    escape_horizon: int = 1_000

    def __post_init__(self):
        if not 0 <= int(self.seed) < 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        if self.escape_horizon < 10:
            raise ValueError("escape_horizon must be at least 10")


@dataclass(frozen=True)
class CycleSample:
    """Recorded maxima of finished cycles plus the count that escaped.

    A cycle finishes when it returns to 0, or when it reaches a cap below
    the escape horizon, which is then its maximum.
    """

    maxima: np.ndarray
    escaped: int

    @property
    def cycles(self) -> int:
        return len(self.maxima) + self.escaped

    @property
    def escaped_fraction(self) -> float:
        return self.escaped / self.cycles


def _up_probabilities(spec: BirthDeathSpec, top: int) -> np.ndarray:
    """P(step up | leave n) for n = 1..top-1.

    phi cancels between the birth and death rate at the same state, so only
    the psi ratio and the intensity ratio enter.
    """
    n = np.arange(1, top)
    log_psi_ratio = np.asarray(spec.psi.log_ratio(n - 1), dtype=float)  # log psi(n)/psi(n-1)
    logit = math.log(spec.lam) - math.log(spec.mu) + log_psi_ratio
    return 1.0 / (1.0 + np.exp(-logit))


def _log_expected_jumps(spec: BirthDeathSpec, top: int) -> float:
    """log E_1[min(T_0, T_top)], the mean jump count of one cycle run to ``top``.

    With w(m) = psihat(m) rho^m and S(n) = sum_{i<=n} 1/w(i), a cycle visits
    level m on average (1 - S(m-1)/S(top-1)) w(m) / p_up(m) times, and
    w(m) / p_up(m) = w(m) + w(m-1).  The margin S(top-1) - S(m-1) is summed
    afresh from its positive terms, so a converging S costs no cancellation.
    """
    log_w = np.asarray(spec.log_psi_rho(np.arange(top)), dtype=float)
    margin = np.logaddexp.accumulate(-log_w[::-1])[::-1]  # log (S(top-1) - S(m-1))
    log_visits = margin[1:] + np.logaddexp(log_w[1:], log_w[:-1]) - margin[0]
    return float(np.logaddexp.reduce(log_visits))


@dataclass(frozen=True)
class _WalkTables:
    """What a walk from level 1 to ``top`` reads, read-only.

    ``p_at`` is P(step up | leave n) by level, 0 at level 0; ``p_list`` holds
    the same values for the Python-stepped walk where they vary; ``n_flat``
    is ``_flat_start``'s state and ``exit_time`` the gambler's-ruin exit
    times from n_flat..top-1 (None without a constant run).
    """

    log_jumps: float
    p_at: np.ndarray
    p_list: tuple | None
    n_flat: int | None
    exit_time: np.ndarray | None


def _walk_tables(spec: BirthDeathSpec, top: int) -> _WalkTables:
    """The tables for (spec, top), built on first use and kept on the spec."""
    tables = spec._walk_tables.get(top)
    if tables is not None:
        return tables
    p_up = _up_probabilities(spec, top)
    p_at = np.concatenate(([0.0], p_up))  # indexed by level
    n_flat = _flat_start(p_up, top) if p_up.size else None
    exit_time = None if n_flat is None else _exit_times(p_at[-1], n_flat, top)
    p_at.flags.writeable = False
    if exit_time is not None:
        exit_time.flags.writeable = False
    tables = spec._walk_tables[top] = _WalkTables(
        log_jumps=_log_expected_jumps(spec, top),
        p_at=p_at,
        p_list=tuple(p_at.tolist()) if n_flat != 1 else None,  # the tail runs where p_up varies
        n_flat=n_flat,
        exit_time=exit_time,
    )
    return tables


def _refuse_long_runs(spec: BirthDeathSpec, n_cycles: int, horizon: int) -> None:
    """Raise before the first draw when n_cycles cycles are expected to take
    more than _MAX_JUMPS jumps."""
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    log_per_cycle = _walk_tables(spec, top).log_jumps
    if math.log(n_cycles) + log_per_cycle > math.log(_MAX_JUMPS):
        raise NotApplicableError(
            f"a cycle to horizon {horizon} is expected to take "
            f"{math.exp(min(log_per_cycle, 700.0)):.3g} jumps; a call charged for "
            f"{n_cycles} cycles passes the budget of {_MAX_JUMPS:.3g} jumps"
        )


def simulate_cycle(spec: BirthDeathSpec, rng: np.random.Generator, escape_horizon: int = 1_000):
    """One busy cycle; returns the maximum level or ESCAPED at the horizon."""
    if escape_horizon < 10:
        raise ValueError("escape_horizon must be at least 10")
    _refuse_long_runs(spec, 1, escape_horizon)
    maxima, escaped = _simulate_batch(spec, 1, rng, escape_horizon)
    return ESCAPED if escaped else int(maxima[0])


def _flat_start(p_up: np.ndarray, top: int) -> int | None:
    """Lowest state n_flat with p_up constant on n_flat..top-1, or None.

    None when the run is too short for two jumps in one pass.  Equality is
    exact, so a pass that compares with the constant uses the very value a
    lookup by level would give.
    """
    varying = np.flatnonzero(p_up != p_up[-1])
    n_flat = int(varying[-1]) + 2 if varying.size else 1
    return None if n_flat > top - 3 else n_flat


def _run_cycles(
    n_cycles: int, top: int, advance, *rest, escapes: bool = True
) -> tuple[np.ndarray, int]:
    """Run n_cycles busy cycles from level 1; returns (recorded maxima, escaped).

    Each pass calls ``advance(level, peak, *rest)``, which moves every live
    cycle in place.  A cycle that returns to 0 records its peak.  One that
    reaches ``top`` counts as escaped, or, with ``escapes`` false (``top`` is
    a cap), records its peak, which is then ``top``.  Finished cycles are
    dropped from ``level``, ``peak`` and the arrays in ``rest`` (one entry
    per cycle each), so late stragglers do not drag full-width arrays along.
    Maxima come back in cycle order.
    """
    level = np.ones(n_cycles, dtype=np.int64)
    peak = np.ones(n_cycles, dtype=np.int64)
    out = np.zeros(n_cycles, dtype=np.int64)
    slot = np.arange(n_cycles)
    escaped = 0
    while level.size:
        advance(level, peak, *rest)
        live = (level - 1).view(np.uint64) < top - 1  # 0 < level < top
        if live.all():
            continue
        gone = np.flatnonzero(~live)
        if escapes:
            back = level[gone] == 0
            escaped += gone.size - int(np.count_nonzero(back))
            gone = gone[back]
        out[slot[gone]] = peak[gone]
        keep = np.flatnonzero(live)
        level, peak, slot = level.take(keep), peak.take(keep), slot.take(keep)
        rest = tuple(a.take(keep) for a in rest)
    return out[out > 0], escaped


def _exit_times(p: float, low: int, top: int) -> np.ndarray:
    """Expected jumps of a walk with up-step probability p to leave [low, top),
    from each level low..top-1.

    This is gambler's ruin on 0..n with n = top - low + 1, started at k: with
    r = (1 - p) / p, E_k = (k - n (1 - r^k) / (1 - r^n)) / (1 - 2p), and
    k (n - k) when r is within rounding of 1.  The ratio is taken in the form
    whose powers stay at or below 1, so no exponent overflows.
    """
    n = top - low + 1
    k = np.arange(1, n, dtype=float)
    p = min(max(p, 2.0**-60), 1.0 - 2.0**-53)  # keeps both logarithms finite
    log_r = math.log1p(-p) - math.log(p)
    if abs(n * log_r) < 1e-6:
        return k * (n - k)
    if log_r > 0.0:
        ratio = np.exp((k - n) * log_r) * np.expm1(-k * log_r) / math.expm1(-n * log_r)
    else:
        ratio = np.expm1(k * log_r) / math.expm1(n * log_r)
    return (k - n * ratio) / (1.0 - 2.0 * p)


def _walk(draws: list, level: int, peak: int, p_at: list, top: int) -> tuple[int, int]:
    """Step one cycle through ``draws`` until it leaves (0, top) or they run out."""
    for u in draws:
        if u < p_at[level]:
            level += 1
            if level > peak:
                peak = level
                if level == top:
                    break
        else:
            level -= 1
            if level == 0:
                break
    return level, peak


def _simulate_batch(
    spec: BirthDeathSpec, n_cycles: int, rng: np.random.Generator, horizon: int
) -> tuple[np.ndarray, int]:
    """Vectorised cycles; returns (recorded maxima, escaped count).

    Each pass makes one draw from ``rng`` for the live cycles, in cycle
    order, and the draw's shape says how it is used:
    - A 1-D draw, made by every pass not listed below, moves each live cycle
      one jump.  The up-step probability is looked up by level, or is the
      constant p_flat itself when every live cycle sits at or above the
      state n_flat from which it is constant.
    - A (B, live) draw with every live cycle at or above n_flat moves column
      j's cycle until it leaves [n_flat, top) or the column ends.  It is made
      when at most _BLOCK_LIVE cycles are live.  B is the largest expected
      exit time of the live levels (gambler's ruin under p_flat), within
      _BLOCK_CELLS cells, so short cycles draw short blocks.  Each column
      is cut at its own first exit, so one cycle near n_flat does not
      shorten every other cycle's block.
    - A (B, live) draw with a live cycle below n_flat (or no constant run)
      moves column j's cycle, stepped in Python, until it leaves (0, top) or
      the column ends.  It is made when at most _TAIL_CYCLES cycles are live;
      B starts at _TAIL_ROWS and doubles with each such draw of the batch.
    A cycle that reaches a cap below the horizon has its maximum and retires
    there.
    """
    capped = spec.cap is not None and spec.cap < horizon
    top = spec.cap if capped else horizon
    if top == 1:
        return np.ones(n_cycles, dtype=np.int64), 0
    tables = _walk_tables(spec, top)
    p_at, n_flat, p_list = tables.p_at, tables.n_flat, tables.p_list
    exit_time = tables.exit_time  # indexed by level - n_flat
    p_flat = p_at[-1]
    if n_flat is not None:
        width = top - n_flat  # the run's levels, counted from n_flat

    def block(state, peak):
        live = state.size
        rows = min(_BLOCK_CELLS // live, math.ceil(exit_time.take(state - n_flat).max()))
        # level - n_flat after t jumps, as int32: its start + 2 ups - t
        path = (rng.random((rows, live)) < p_flat).cumsum(axis=0, dtype=np.int32)
        path *= 2
        steps = np.arange(1, rows + 1, dtype=np.int32)[:, None]
        path -= steps
        path += (state - n_flat).astype(np.int32)
        cols = np.arange(live)
        out = path.view(np.uint32) >= width  # below n_flat, or at top
        cut = out.argmax(axis=0)  # each column's first exit, or its last row
        cut[~out[cut, cols]] = rows - 1
        state[:] = path[cut, cols] + n_flat
        path *= steps <= cut + 1  # past its exit a column reads 0, not above its start
        np.maximum(peak, path.max(axis=0) + n_flat, out=peak)

    tail_rows = _TAIL_ROWS

    def tail(state, peak):
        nonlocal tail_rows
        live = state.size
        rows = min(tail_rows, _BLOCK_CELLS // live)
        tail_rows *= 2  # a cycle still live has outlasted the last block
        draws = rng.random((rows, live))
        for j in range(live):
            state[j], peak[j] = _walk(draws[:, j].tolist(), int(state[j]), int(peak[j]), p_list, top)

    def advance(state, peak):
        live = state.size
        flat = n_flat == 1  # every live cycle is in the constant run
        if n_flat is not None and (n_flat > 1 or live <= _BLOCK_LIVE):
            flat = int(state.min()) >= n_flat
        if flat and live <= _BLOCK_LIVE:
            block(state, peak)
            return
        if live <= _TAIL_CYCLES:
            tail(state, peak)
            return
        up = rng.random(live) < (p_flat if flat else p_at.take(state))
        state += up
        state += up
        state -= 1
        np.maximum(peak, state, out=peak)

    return _run_cycles(n_cycles, top, advance, escapes=not capped)


def simulate_cycles(spec: BirthDeathSpec, cfg: SimConfig) -> CycleSample:
    """cfg.cycles independent busy cycles under cfg.seed; raises
    NotApplicableError before the first draw if they are expected to pass
    the jump budget."""
    _refuse_long_runs(spec, cfg.cycles, cfg.escape_horizon)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    maxima, escaped = _simulate_batch(spec, cfg.cycles, rng, cfg.escape_horizon)
    return CycleSample(maxima=maxima, escaped=escaped)


def empirical_cdf(maxima: np.ndarray, levels) -> np.ndarray:
    """Fraction of recorded maxima at or below each level."""
    maxima = np.sort(np.asarray(maxima))
    levels = np.asarray(levels)
    return np.searchsorted(maxima, levels, side="right") / len(maxima)


def _inversion_table(dist: CycleMaxDistribution, k: int, g_min: float) -> np.ndarray:
    """H(n) = -k log F(n) for n = 1.., extended until it falls to g_min.

    A draw G ~ Exp(1) maps to the smallest n with H(n) <= G, which realises
    the max of k cycles in one uniform; g_min is the least draw, so every
    draw finds its level in the table.  Survival enters through log1p of
    the exact log-scale CDF, so no near-one cancellation occurs.
    """
    cap = dist.spec.cap
    if cap is None and dist.log_p_finite < 0.0:
        raise NotApplicableError(
            "transient chain: the k-cycle maximum is infinite with positive probability"
        )
    n_hi = 64 if cap is None else cap
    while True:
        if n_hi > _INVERSION_LEVELS:
            raise NotApplicableError(
                f"the k = {k} record needs an inversion table beyond {_INVERSION_LEVELS} levels"
            )
        levels = np.arange(1, n_hi + 1)
        h = -k * np.log1p(-np.exp(-np.asarray(dist.log_cumulative(levels), dtype=float)))
        if cap is not None or h[-1] <= g_min:
            break
        n_hi *= 2
    if cap is not None:
        h[-1] = 0.0  # the cap is reached with the remaining mass
    return h


def sample_maxima(
    spec: BirthDeathSpec,
    k: int,
    reps: int,
    cfg: SimConfig | None = None,
    mode: str = "inversion",
) -> np.ndarray:
    """reps realisations of the maximum over k cycles.

    mode "inversion" samples from the exact law (fast path, any k); mode
    "jump" simulates every cycle and raises if one escapes, since the sample
    maximum is then unbounded, or if its reps*k cycles are expected to pass
    the jump budget.
    """
    cfg = cfg if cfg is not None else SimConfig()
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be positive")
    if mode == "inversion":
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        g = rng.standard_exponential(reps)
        dist = _as_dist(spec)
        h = _inversion_table(dist, k, float(np.min(g)))
        return 1 + np.searchsorted(-h, -g, side="left").astype(np.int64)
    if mode != "jump":
        raise ValueError(f"unknown mode {mode!r}")

    # Row r holds cycles r*k .. r*k + k - 1 of one stream.  A batch holds
    # whole rows, or part of one row when k exceeds _JUMP_CHUNK.
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    total = reps * k
    _refuse_long_runs(spec, total, cfg.escape_horizon)
    batch = (_JUMP_CHUNK // k) * k if k <= _JUMP_CHUNK else _JUMP_CHUNK
    best = np.zeros(reps, dtype=np.int64)
    for start in range(0, total, batch):
        n = min(batch, total - start)
        maxima, escaped = _simulate_batch(spec, n, rng, cfg.escape_horizon)
        if escaped:
            raise EscapedCycleError(
                f"{escaped} of {n} cycles escaped at horizon {cfg.escape_horizon}; "
                "sample maxima need a recurrent chain"
            )
        first = start // k
        cuts = np.arange(first, (start + n - 1) // k + 1) * k - start
        cuts[0] = 0
        rows = best[first : first + cuts.size]
        np.maximum(rows, np.maximum.reduceat(maxima, cuts), out=rows)
    return best


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    b_k: float
    mean_ratio: float
    median_ratio: float
    q05: float
    q95: float


def verify_as_convergence(
    spec: BirthDeathSpec,
    k_grid,
    reps: int = 500,
    cfg: SimConfig | None = None,
) -> list[ConvergenceRow]:
    """Summaries of Y^(k)/b_k per k; the band should tighten around 1."""
    cfg = cfg if cfg is not None else SimConfig()
    rows = []
    for i, k in enumerate(int(k) for k in k_grid):
        if spec.cap is not None:
            b_k = float(spec.cap)
        else:
            b_k = as_limit_constant(spec, k)
            if isinstance(b_k, tuple):
                raise NotApplicableError(
                    "normaliser is only bracketed for this spec; no single b_k"
                )
        sub = SimConfig(
            seed=cfg.seed + i,
            cycles=cfg.cycles,
            escape_horizon=cfg.escape_horizon,
        )
        ratios = sample_maxima(spec, k, reps, sub, mode="inversion") / b_k
        rows.append(
            ConvergenceRow(
                k=k,
                b_k=b_k,
                mean_ratio=float(np.mean(ratios)),
                median_ratio=float(np.median(ratios)),
                q05=float(np.quantile(ratios, 0.05)),
                q95=float(np.quantile(ratios, 0.95)),
            )
        )
    return rows


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic for integer-valued samples."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    values = np.union1d(a, b)
    fa = np.searchsorted(a, values, side="right") / len(a)
    fb = np.searchsorted(b, values, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))
