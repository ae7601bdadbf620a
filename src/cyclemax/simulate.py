"""Regenerative Monte-Carlo for cycle maxima.

A busy cycle starts with the jump 0 -> 1 and ends on the return to 0.  The
maximum over the cycle depends only on the embedded up/down decisions, so
holding times are never sampled.  Every call draws from one generator seeded
by ``SimConfig.seed``, so equal seeds give equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdp import BirthDeathSpec
from .distribution import CycleMaxDistribution
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

# Most cells (jumps x live cycles) in one multi-jump pass.  Each (d, live)
# array then stays within 32 KiB, and passes with more than half this many
# live cycles take one jump: there the cumulative sum costs more per jump
# than the single-jump step.
_BLOCK_CELLS = 1 << 12
# Most cycles one jump-mode batch simulates at once.
_JUMP_CHUNK = 1 << 17
# Most levels an inversion table may hold (8 MiB of float64).
_INVERSION_LEVELS = 1 << 20


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
    """Recorded maxima of returned cycles plus the count that escaped."""

    maxima: np.ndarray
    escaped: int

    @property
    def cycles(self) -> int:
        return len(self.maxima) + self.escaped

    @property
    def escaped_fraction(self) -> float:
        return self.escaped / self.cycles


def _up_probabilities(spec: BirthDeathSpec, horizon: int) -> np.ndarray:
    """P(step up | leave n) for n = 1..horizon-1; 0 at and beyond any cap.

    phi cancels between the birth and death rate at the same state, so only
    the psi ratio and the intensity ratio enter.
    """
    n = np.arange(1, horizon)
    log_psi_ratio = np.asarray(spec.psi.log_ratio(n - 1), dtype=float)  # log psi(n)/psi(n-1)
    logit = math.log(spec.lam) - math.log(spec.mu) + log_psi_ratio
    p = 1.0 / (1.0 + np.exp(-logit))
    if spec.cap is not None:
        p[n >= spec.cap] = 0.0
    return p


def simulate_cycle(spec: BirthDeathSpec, rng: np.random.Generator, escape_horizon: int = 1_000):
    """One busy cycle; returns the maximum level or ESCAPED at the horizon."""
    if escape_horizon < 10:
        raise ValueError("escape_horizon must be at least 10")
    maxima, escaped = _simulate_batch(spec, 1, rng, escape_horizon)
    return ESCAPED if escaped else int(maxima[0])


def _flat_start(p_up: np.ndarray, horizon: int) -> int | None:
    """Lowest state n_flat with p_up constant on n_flat..horizon-1, or None.

    None when the run is too short for two jumps in one pass, or when it
    cannot be entered because its up-step probability is 0 (a cap).
    Equality is exact, so a multi-jump pass compares with the very value a
    single pass would look up.
    """
    varying = np.flatnonzero(p_up != p_up[-1])
    n_flat = int(varying[-1]) + 2 if varying.size else 1
    if n_flat > horizon - 3 or p_up[-1] == 0.0:
        return None
    return n_flat


def _run_cycles(n_cycles: int, horizon: int, advance, *rest) -> tuple[np.ndarray, int]:
    """Run n_cycles busy cycles from level 1; returns (returned maxima, escaped).

    Each pass calls ``advance(level, peak, *rest)``, which moves every live
    cycle in place.  A cycle that returns to 0 records its peak; one that
    reaches ``horizon`` counts as escaped.  Finished cycles are dropped from
    ``level``, ``peak`` and the arrays in ``rest`` (whose first axis runs over
    the same cycles), so late stragglers do not drag full-width arrays along.
    Maxima come back in cycle order.
    """
    level = np.ones(n_cycles, dtype=np.int64)
    peak = np.ones(n_cycles, dtype=np.int64)
    out = np.zeros(n_cycles, dtype=np.int64)
    slot = np.arange(n_cycles)
    escaped = 0
    while level.size:
        advance(level, peak, *rest)
        live = (level > 0) & (level < horizon)
        if live.all():
            continue
        done = level == 0
        out[slot[done]] = peak[done]
        escaped += int((level >= horizon).sum())
        level, peak, slot = level[live], peak[live], slot[live]
        rest = tuple(a[live] for a in rest)
    return out[out > 0], escaped


def _simulate_batch(
    spec: BirthDeathSpec, n_cycles: int, rng: np.random.Generator, horizon: int
) -> tuple[np.ndarray, int]:
    """Vectorised cycles; returns (maxima of returned cycles, escaped count).

    All live cycles advance one jump per pass.  Once every live cycle sits
    above the state n_flat from which the up-step probability is constant,
    a pass takes d jumps at once, with d small enough that no cycle can
    return, escape or leave that run before its last jump.  No cycle
    retires in between, so the (d, live) draws are exactly the ones d
    single passes would make, in the same order.
    """
    p_up = _up_probabilities(spec, horizon)
    n_flat = _flat_start(p_up, horizon)
    p_flat = p_up[-1]

    def advance(state, peak):
        live = state.size
        jumps = 1
        if n_flat is not None and live <= _BLOCK_CELLS // 2:
            low = int(state.min())
            if low > n_flat:
                jumps = min(low - n_flat + 1, horizon - int(state.max()), _BLOCK_CELLS // live)
        if jumps > 1:
            path = np.where(rng.random((jumps, live)) < p_flat, 1, -1).cumsum(axis=0)
            np.maximum(peak, state + path.max(axis=0), out=peak)
            state += path[-1]
        else:
            state += np.where(rng.random(live) < p_up[state - 1], 1, -1)
            np.maximum(peak, state, out=peak)

    return _run_cycles(n_cycles, horizon, advance)


def simulate_cycles(spec: BirthDeathSpec, cfg: SimConfig) -> CycleSample:
    """cfg.cycles independent busy cycles under cfg.seed."""
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
    maximum is then unbounded.
    """
    cfg = cfg if cfg is not None else SimConfig()
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be positive")
    if mode == "inversion":
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        g = rng.standard_exponential(reps)
        dist = CycleMaxDistribution(spec)
        h = _inversion_table(dist, k, float(np.min(g)))
        return 1 + np.searchsorted(-h, -g, side="left").astype(np.int64)
    if mode != "jump":
        raise ValueError(f"unknown mode {mode!r}")

    # Row r holds cycles r*k .. r*k + k - 1 of one stream.  A batch holds
    # whole rows, or part of one row when k exceeds _JUMP_CHUNK.
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    total = reps * k
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
