"""Regenerative Monte-Carlo for cycle maxima.

A busy cycle starts with the jump 0 -> 1 and ends on the return to 0.  Its
maximum depends only on the embedded up/down decisions, so holding times
are never sampled.  The up-step probabilities are read off the spec's one
weight table.  Where psi's tail record is geometric, the up-step
probability is constant from n_flat, one level past the record's start
(n_flat = 1 for M/M/1, s for M/M/s), and there a cycle is a simple random
walk.  By the strong Markov property at a = n_flat - 1, a cycle of such a
chain stays below n_flat, by the law 1/S(n - 1), or makes 1 + Geom(P_ret)
excursions above a, whose highest peak follows the gambler's-ruin law: its
maximum is drawn from one uniform (``_run_maxima``).  A chain without a run
(M/M/inf, a polynomial table, a callable) is walked: a pass moves each live
cycle _BLOCK_MOVES moves from one uniform, read through an alias table of
the exact law of those moves from its level.  Both work in slices of
_SLICE cycles, so their temporaries reuse the allocator's pages.  Every
call draws from one generator seeded by ``SimConfig.seed``, so equal seeds
give equal results (``_simulate_batch`` sets out which uniforms a cycle
uses).  A call charged more than _MAX_JUMPS jumps raises before its first
draw: one jump a cycle with a run, else its expected jumps.  The record of
k cycles is also drawn by inversion of its exact law, one exponential per
record, located in the table by a bucketed search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bdp import BirthDeathSpec, _check_levels, _integer
from .distribution import CycleMaxDistribution, _as_dist
from .errors import EscapedCycleError, NotApplicableError

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

# Most live cycles stepped one by one in Python, at about 100 ns a jump,
# when a block pass moves each cycle _BLOCK_MOVES times:
# such a pass costs about 12 us, so over fewer cycles it costs more per jump
# (measured best of 6 to 32).  A table of fewer moves a pass hands
# proportionally more cycles to Python.
_TAIL_CYCLES = 8
# Moves a block pass makes per live cycle from one uniform.
_BLOCK_MOVES = 16
# Live cycles a block pass moves at once: 64 KiB of float64 uniforms, so each
# temporary of a slice stays below glibc's 128 KiB mmap threshold, and in L2,
# and a pass takes no fresh pages.
_SLICE = 1 << 13
# Rows (levels) of a walk's first block table; it doubles as levels are reached.
_BLOCK_ROWS = 16
# Most cells (rows x width) of an alias table: past it a block table halves
# its moves, and network cycles leave the event table for the per-event step.
_TABLE_CELLS = 1 << 20
# Most DP entries computed at once while a block table is built: 2 MiB an array.
_LAW_CELLS = 1 << 18
# Rows of the first Python-stepped block of a batch; each later one that
# follows a block some cycle used up has twice as many, within _TAIL_CELLS,
# so a short cycle draws little it does not use.
_TAIL_ROWS = 64
# Most uniforms (rows x live cycles) in one Python-stepped block: 512 KiB.
_TAIL_CELLS = 1 << 16
# Most cycles one jump-mode batch simulates at once.
_JUMP_CHUNK = 1 << 17
# Most buckets of the inversion search: about 200 a binade over the range
# of 10^5 exponential draws, so a geometric tail of ratio up to about 0.996
# puts at most one level in a bucket.
_BUCKETS = 1 << 12
# Most jumps a call may be charged: measured 4-140 ns a charged jump on a
# 2-vCPU host (4 ns in full passes, 70 ns for a few long cycles, 140 ns for
# a transient walk to 2^16 levels in 4-move blocks), so about 15 s at most.
# That cost holds however few cycles are live, since those are stepped in
# Python, so one cycle is charged for its own jumps only.  A cycle of a
# chain with a constant run is drawn whole, so it is charged as one jump.
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
        for name, least in (("seed", 0), ("cycles", 1), ("escape_horizon", 10)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if self.seed >= 1 << 64:
            raise ValueError("seed must fit in 64 unsigned bits")


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


def _log_expected_jumps(log_w: np.ndarray) -> float:
    """log of the mean jump count E_1[min(T_0, T_top)] of one cycle from
    level 1 of the birth-death walk of weights w(m) = e^log_w[m] (w(0) = 1)
    run to top = len(log_w).

    With S(n) = sum_{i<=n} 1/w(i), a cycle visits level m on average
    v(m) = (1 - S(m-1)/S(top-1)) w(m) / p_up(m) times, and
    w(m) / p_up(m) = w(m) + w(m-1).  The margin S(top-1) - S(m-1) is summed
    afresh from its positive terms, so a converging S costs no cancellation.
    """
    log_w = np.asarray(log_w, dtype=float)
    margin = np.logaddexp.accumulate(-log_w[::-1])[::-1]  # log (S(top-1) - S(m-1))
    log_visits = margin[1:] + np.logaddexp(log_w[1:], log_w[:-1]) - margin[0]
    return float(np.logaddexp.reduce(log_visits))


@dataclass(frozen=True)
class _BlockTable:
    """Alias tables of the law of ``moves`` moves from each level 1..rows.

    Row x holds the law from level x in ``width`` cells (a power of two),
    starting at flat index x * width (row 0 is never read), in the layout of
    ``_alias_rows``: a draw is read by ``_alias_entries`` with offset
    x * width.  The outcome arrays hold, by entry, the end level
    x + ``rise`` and the stepped maximum x + ``high``.  ``bound`` is float64
    and the outcome arrays int8.
    """

    moves: int
    rows: int
    width: int
    bound: np.ndarray
    rise: np.ndarray
    high: np.ndarray


@dataclass(eq=False)
class _WalkTables:
    """What a walk from level 1 to ``top`` reads.

    ``n_flat`` is where the constant run starts, from psi's tail record, or
    None; ``p_at`` is P(step up | leave n), 0 at level 0, read-only, on
    0..n_flat with a run and on 0..top-1 without; ``log_jumps`` is the log
    of a cycle's charge: 0 with a run, else its expected jumps.  With a run
    (a = n_flat - 1), ``reach`` holds P(Y >= j) = 1/S(j-1) for j = 1..n_flat,
    and ``q`` = 1 - P_ret = 1/(w(a) S(a)).  Without one,
    ``p_list`` holds p_at's head as Python floats for the Python-stepped
    walk, extended on demand, and ``blocks`` is the latest ``_BlockTable``
    (``_block_table`` grows it with the highest level reached).
    """

    log_jumps: float
    p_at: np.ndarray
    n_flat: int | None
    reach: np.ndarray | None = None
    q: float = 1.0
    p_list: list = field(default_factory=list)
    blocks: _BlockTable | None = None


def _walk_tables(spec: BirthDeathSpec, top: int) -> _WalkTables:
    """The tables for (spec, top), built on first use and kept on the spec.

    They read the spec's one weight table, w(n) = psihat(n) rho^n (phi
    cancels between the birth and death rate at a state), where
    p_up(n) = 1 / (1 + w(n-1)/w(n)).  A geometric tail record (degree 0, no
    factorial) makes p_up constant from n_flat, one level past its start,
    at 1 / (1 + mu / (lam ratio)); a run that would start at top - 1 or
    above is none.  A chain with a run reads levels 0..n_flat-1 only, where
    S(j) = sum_{i<=j} 1/w(i) is summed.  mminf, a record with a degree (a
    polynomial table, a reduction whose bottleneck loads tie) and a callable
    have no run: they read levels 0..top-1 and are stepped to the top.
    """
    tables = spec._walk_tables.get(top)
    if tables is not None:
        return tables
    _check_levels("escape horizon or cap", top)
    tail = spec.psi.tail
    geometric = tail is not None and not (tail.degree or tail.factorial)
    n_flat = tail.start + 1 if geometric and tail.start + 1 < top - 1 else None
    log_w = spec._law_tables.window(spec, 0, top if n_flat is None else n_flat)
    run_logit = [] if n_flat is None else [math.log(spec.lam) - math.log(spec.mu) + math.log(tail.ratio)]
    p_at = np.concatenate(([0.0], 1.0 / (1.0 + np.exp(-np.append(np.diff(log_w), run_logit)))))  # indexed by level
    p_at.flags.writeable = False
    if n_flat is None:
        tables = spec._walk_tables[top] = _WalkTables(_log_expected_jumps(log_w), p_at, None)
        return tables
    log_s = np.logaddexp.accumulate(-log_w)  # log S(j), j = 0..a
    tables = spec._walk_tables[top] = _WalkTables(0.0, p_at, n_flat, np.exp(-log_s), math.exp(-(log_w[-1] + log_s[-1])))
    return tables


def _refuse_long_runs(spec: BirthDeathSpec, n_cycles: int, horizon: int) -> None:
    """Raise before the first draw when n_cycles cycles are charged more than
    _MAX_JUMPS jumps: one a cycle with a run, else its expected jumps."""
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    _charge(_walk_tables(spec, top).log_jumps, n_cycles, horizon)


def _charge(log_per_cycle: float, n_cycles: int, horizon: int) -> None:
    """Raise when n_cycles cycles of e^log_per_cycle jumps each pass _MAX_JUMPS."""
    if math.log(n_cycles) + log_per_cycle > math.log(_MAX_JUMPS):
        raise NotApplicableError(
            f"a cycle to horizon {horizon} is charged "
            f"{math.exp(min(log_per_cycle, 700.0)):.3g} jumps on average; a call of "
            f"{n_cycles} cycles passes the budget of {_MAX_JUMPS:.3g} jumps"
        )


def simulate_cycle(spec: BirthDeathSpec, rng: np.random.Generator, escape_horizon: int = 1_000):
    """One busy cycle; returns the maximum level or ESCAPED at the horizon."""
    escape_horizon = _integer("escape_horizon", escape_horizon, 10)
    _refuse_long_runs(spec, 1, escape_horizon)
    maxima, escaped = _simulate_batch(spec, 1, rng, escape_horizon)
    return ESCAPED if escaped else int(maxima[0])


def _block_law(p_at: np.ndarray, levels: np.ndarray, d: int) -> np.ndarray:
    """The exact law of d moves from each of ``levels``, by a forward DP over
    ``p_at`` alone.

    Entry [r, m, g] is the probability that the moves from x = levels[r]
    reach the stepped maximum x + m and end g below it, at x + m - g.
    Level 0 and the top, p_at.size, are absorbing.
    """
    top = p_at.size
    reach = min(d, top - int(levels[0]))  # the most any maximum can rise
    m = np.arange(reach + 1)
    y = levels[:, None, None] + m[:, None] - np.arange(d + 1)  # the level at (m, g)
    stepped = (y > 0) & (y < top)
    p = np.where(stepped, p_at.take(np.clip(y, 0, top - 1)), 0.0)
    q = np.where(stepped, 1.0 - p, 0.0)
    stay = (y == 0) | (y == top)
    law = np.zeros((levels.size, reach + 1, d + 1))
    law[:, 0, 0] = 1.0
    for t in range(d):
        mw, gw = min(t, reach) + 1, t + 1  # what t moves reach
        now = law[:, :mw, :gw]
        law = np.zeros_like(law)
        law[:, :mw, :gw] = now * stay[:, :mw, :gw]
        law[:, :mw, 1 : gw + 1] += now * q[:, :mw, :gw]
        law[:, :mw, : gw - 1] += now[:, :, 1:] * p[:, :mw, 1:gw]
        top_up = min(mw, reach)  # a step up from the maximum raises it
        law[:, 1 : top_up + 1, 0] += now[:, :top_up, 0] * p[:, :top_up, 0]
    return law


def _alias_rows(prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias tables (Walker 1977; Vose 1991) of every row of ``prob``
    at once, in the one layout both simulators read: (bound, source).

    Cell c of a row keeps its own outcome with probability keep[c], else
    takes its alias's.  ``bound`` holds c + keep[c], flat, row after row, as
    ``_alias_entries`` reads it.  Entry 2 c + 1 of a row's outcomes is cell
    c's own and entry 2 c its alias's: ``source`` holds the cell each entry
    copies, so ``np.take_along_axis(outcomes, source, axis=1)`` lays them out.

    Cells are built by the sweep of Huebschle-Schneider and Sanders (2019).
    With w = width p / (row sum), a light cell (w < 1) takes as its alias the
    heavy cell (w >= 1) whose running excess, summed over heavy cells in
    order, is not yet used up where the light cell's deficit begins in the
    running deficit of the light cells.  A heavy cell whose excess runs out
    inside a light cell's deficit keeps 1 minus the overshoot and takes the
    next heavy cell as its alias.  Both searches come from one stable sort
    of each row's running sums, in which an excess that ends where a deficit
    begins comes first.
    """
    rows, width = prob.shape
    w = prob * (width / prob.sum(axis=1, keepdims=True))
    heavy = w >= 1.0
    heavy[np.arange(rows), w.argmax(axis=1)] = True  # rounding may leave a row without one
    deficit = np.where(heavy, 0.0, 1.0 - w)
    light_end = np.cumsum(deficit, axis=1)
    light_start = np.zeros_like(light_end)
    light_start[:, 1:] = light_end[:, :-1]  # exactly where the light cell before ends
    heavy_end = np.cumsum(np.where(heavy, np.maximum(w - 1.0, 0.0), 0.0), axis=1)
    keys = np.concatenate((np.where(heavy, heavy_end, np.inf), np.where(heavy, np.inf, light_start)), axis=1)
    order = np.argsort(keys, axis=1, kind="stable")
    where = np.empty_like(order)
    np.put_along_axis(where, order, np.broadcast_to(np.arange(2 * width), order.shape), axis=1)
    is_heavy = np.concatenate((heavy, np.zeros_like(heavy)), axis=1)
    heavies_before = np.cumsum(np.take_along_axis(is_heavy, order, axis=1), axis=1)
    ends = np.concatenate((np.full(w.shape, -np.inf), np.where(heavy, -np.inf, light_end)), axis=1)
    last_end = np.maximum.accumulate(np.take_along_axis(ends, order, axis=1), axis=1)
    rank = np.cumsum(heavy, axis=1) - 1
    to = np.where(heavy, rank + 1, np.take_along_axis(heavies_before, where[:, width:], axis=1))
    np.minimum(to, rank[:, -1:], out=to)  # the last heavy cell is its own alias
    alias = np.take_along_axis(np.argsort(~heavy, axis=1, kind="stable"), to, axis=1)
    overshoot = np.take_along_axis(last_end, where[:, :width], axis=1) - heavy_end
    keep = np.where(heavy, 1.0 - np.clip(overshoot, 0.0, 1.0), w)
    source = np.stack((alias, np.broadcast_to(np.arange(width), alias.shape)), axis=2)
    return (keep + np.arange(width)).ravel(), source.reshape(rows, 2 * width)


def _alias_entries(u: np.ndarray, offset: np.ndarray, width: int, bound: np.ndarray) -> np.ndarray:
    """The intp outcome entries of uniforms u on rows of ``_alias_rows``
    that start at ``offset``: u is scaled in place to v = u width, which
    picks cell offset + floor(v), and the entry is twice that cell, plus one
    when v lies below its bound.  ``take`` reads intp entries without a copy."""
    u *= width  # exact: the width is a power of two
    entry = u.astype(np.intp)
    entry += offset
    kept = u < bound.take(entry)
    entry += entry
    entry += kept  # the cell's own outcome, or its alias's
    return entry


def _build_blocks(p_at: np.ndarray, rows: int, moves: int) -> _BlockTable:
    """The block table of levels 1..rows, of ``moves`` moves, halved while
    the table would hold more than _TABLE_CELLS cells, down to one move."""
    d = moves
    while True:
        chunk = max(1, _LAW_CELLS // ((d + 1) * (d + 1)))
        width, parts = 1, []
        for lo in range(1, rows + 1, chunk):
            law = _block_law(p_at, np.arange(lo, min(lo + chunk, rows + 1)), d)
            law = law.reshape(law.shape[0], -1)
            seen = law > 0.0
            used = int(seen.sum(axis=1).max())
            width = max(width, 1 << (used - 1).bit_length())
            if d > 1 and (rows + 1) * width > _TABLE_CELLS:
                break
            code = np.argsort(~seen, axis=1, kind="stable")[:, :used].astype(np.int16)  # outcomes first
            parts.append((np.take_along_axis(law, code, axis=1), code))
        else:
            break
        d //= 2
    bound, pairs = [np.arange(1.0, width + 1)], [np.zeros(2 * width, dtype=np.int16)]  # level 0: never read
    for law, code in parts:
        pad = ((0, 0), (0, width - code.shape[1]))
        b, source = _alias_rows(np.pad(law, pad))
        bound.append(b)
        pairs.append(np.take_along_axis(np.pad(code, pad), source, axis=1).ravel())
    high, below = np.divmod(np.concatenate(pairs), d + 1)
    return _BlockTable(
        moves=d,
        rows=rows,
        width=width,
        bound=np.concatenate(bound),
        rise=(high - below).astype(np.int8),
        high=high.astype(np.int8),
    )


def _block_table(tables: _WalkTables, level: int) -> _BlockTable:
    """The cached block table of a walk, with a row for ``level``: when it
    has none, it is rebuilt with twice its rows, or up to ``level``, within
    the levels a cycle can stand on (below the top)."""
    held = tables.blocks
    if held is not None and held.rows >= level:
        return held
    rows = min(max(level, 2 * held.rows if held else _BLOCK_ROWS), tables.p_at.size - 1)
    tables.blocks = _build_blocks(tables.p_at, rows, held.moves if held else _BLOCK_MOVES)
    return tables.blocks


def _run_cycles(
    n_cycles: int, top: int, advance, *rest, escapes: bool = True
) -> tuple[np.ndarray, int]:
    """Run n_cycles busy cycles from level 1; returns (recorded maxima, escaped).

    Each pass calls ``advance(level, peak, *rest)``, which moves every live
    cycle in place.  A cycle that returns to 0 records its peak.  One that
    reaches ``top`` counts as escaped, or, with ``escapes`` false (``top`` is
    a cap), records its peak, which is then ``top``.  A pass in which some
    cycle finished retires it: an escaped cycle's peak is set to 0 in place,
    and the live cycles are kept in ``level``, ``peak``, the arrays in
    ``rest`` (one entry per cycle each) and a slot map, so late stragglers
    do not drag full-width arrays along.  Until then cycle i sits in slot i,
    so at the first retirement the full ``peak`` array becomes the output as
    it stands; later retirements write the peaks of the cycles that
    finished back to their slots.  The maxima, the nonzero entries of the
    output, come back in cycle order.  ``level``, ``peak`` and the slot map
    are int32, as every level is at most _MAX_LEVELS and a call runs fewer
    than _MAX_JUMPS cycles; the maxima come back int64.
    """
    level = np.ones(n_cycles, dtype=np.int32)
    peak = np.ones(n_cycles, dtype=np.int32)
    out = slot = None  # set at the first retirement
    escaped = 0
    while True:
        advance(level, peak, *rest)
        live = (level - 1).view(np.uint32) < top - 1  # 0 < level < top
        n_live = int(np.count_nonzero(live))
        if n_live == level.size:
            continue
        lost = int(np.count_nonzero(level)) - n_live if escapes else 0  # at the top
        if lost:
            escaped += lost
            peak[level >= top] = 0
        if out is None:
            out = peak
        else:
            gone = np.flatnonzero(~live)
            out[slot.take(gone)] = peak.take(gone)
        if not n_live:
            return (out[out > 0] if escaped else out).astype(np.int64), escaped
        keep = np.flatnonzero(live)
        slot = keep.astype(np.int32) if slot is None else slot.take(keep)
        level, peak = level.take(keep), peak.take(keep)
        rest = tuple(a.take(keep) for a in rest)


def _excursion_peaks(u: np.ndarray, cap: int, p: float, q: float = 1.0) -> np.ndarray:
    """The highest rise J, one per uniform in u and computed in place in u,
    of the excursions above a level a of cycles in a run of up-step
    probability p, each from a + 1 until it falls back to a or reaches
    a + cap; a cycle makes one, and after each another with probability 1 - q.

    By gambler's ruin one reaches a + j with probability h(j) =
    1 / sum_{i<j} r^i, r = (1 - p) / p, so the highest does with probability
    h / (h + q (1 - h)).  J, the largest j where that is at least v = 1 - u,
    is the largest with h(j) >= h* = v q / (u + v q) (h* = v at q = 1):
    floor(log1p(expm1(log r) / h*) / log r), or floor(1 / h*) at r = 1.
    Where the log1p argument is at most -1 the walk may never come back and
    J is unbounded.  J is capped at ``cap`` and is at least 1.
    """
    p = min(max(p, 2.0**-60), 1.0 - 2.0**-53)  # log r finite; changes no draw with u > 0
    log_r = math.log1p(-p) - math.log(p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # h* may underflow to 0 with q
        if q == 1.0:
            np.subtract(1.0, u, out=u)
        else:
            v = np.subtract(1.0, u)
            v *= q
            u += v
            np.divide(v, u, out=u)
        if log_r == 0.0:
            np.divide(1.0, u, out=u)
        else:
            np.divide(math.expm1(log_r), u, out=u)
            np.log1p(u, out=u)  # -inf or nan where J is unbounded
            u *= 1.0 / log_r
    np.floor(u, out=u)
    np.fmin(u, cap, out=u)  # also replaces nan by the cap
    np.maximum(u, 1.0, out=u)
    return u


def _walk(draws: list, level: int, peak: int, p_at: list, stop: int) -> tuple[int, int]:
    """Step one cycle through ``draws`` until it reaches 0 or ``stop``, or they run out."""
    for u in draws:
        if u < p_at[level]:
            level += 1
            if level > peak:
                peak = level
            if level == stop:
                break
        else:
            level -= 1
            if level == 0:
                break
    return level, peak


def _run_maxima(tables: _WalkTables, n_cycles: int, rng: np.random.Generator, top: int) -> np.ndarray:
    """The int64 maxima, capped at ``top``, of n_cycles cycles of a chain
    with a run, one uniform u each, drawn into the returned array (viewed as
    float64) and turned into maxima slice by slice.

    With a = n_flat - 1, t = P(Y >= n_flat) = 1/S(a).  From u >= t the
    maximum is the count of levels j <= a with P(Y >= j) above u, compared
    one by one.  From u < t, where that count is a (each P(Y >= j) is at
    least t), it is a + J for the highest of the cycle's excursions above a,
    from u / t (``_excursion_peaks``): by the strong Markov property at a,
    another follows each with P_ret = S(a-1)/S(a) = 1 - q, the chance to
    step up from a before falling to 0.  The draws from u >= t enter the
    inverse as 0, so on a recurrent run no lane meets a NaN or an infinity,
    and their J is then dropped.  M/M/1 (a = 0, t = q = 1) reads u alone.
    """
    a, t, p = tables.n_flat - 1, float(tables.reach[-1]), float(tables.p_at[-1])
    head = tables.reach[1:a].tolist()
    peak = np.empty(n_cycles, dtype=np.int64)
    u = peak.view(np.float64)
    rng.random(out=u)
    for lo in range(0, n_cycles, _SLICE):
        s_u = u[lo : lo + _SLICE]
        if not a:
            peak[lo : lo + _SLICE] = _excursion_peaks(s_u, top, p).astype(np.int64)
            continue
        # P(Y >= 1) = 1 lies above every u
        stepped = sum((s_u < h for h in head), 1)
        run = s_u < t
        s_u *= 1.0 / t if t >= 2.0**-1022 else 0.0  # u / t, read as 0 where t is not normal
        np.minimum(s_u, 1.0 - 2.0**-53, out=s_u)  # u / t < 1, also where it rounds up
        s_u *= run
        s_u = _excursion_peaks(s_u, top - a, p, tables.q)
        s_u *= run
        peak[lo : lo + _SLICE] = s_u.astype(np.int64)
        peak[lo : lo + _SLICE] += stepped
    return peak


def _simulate_batch(
    spec: BirthDeathSpec, n_cycles: int, rng: np.random.Generator, horizon: int
) -> tuple[np.ndarray, int]:
    """Vectorised cycles; returns (recorded maxima, escaped count).

    A chain with a constant run makes one draw of a uniform per cycle, in
    cycle order, that gives its maximum (``_run_maxima``).  A chain without
    one draws in passes, each for the live cycles in cycle order:
    - Most passes move each live cycle by _BLOCK_MOVES moves (fewer past
      _TABLE_CELLS), one 1-D draw for each slice of _SLICE live cycles, each
      uniform read through the alias table of the exact law of the moves
      from its cycle's level (``_block_table``); 0 and the top absorb.
    - A (B, live) draw, made when at most _TAIL_CYCLES cycles are live (more
      if the table makes fewer moves), moves column j's cycle, stepped in
      Python, until it reaches 0 or the top or the column ends.  B starts at
      _TAIL_ROWS and doubles after each draw in which a cycle used up its
      column.
    A cycle that reaches a cap below the horizon retires there.
    """
    capped = spec.cap is not None and spec.cap < horizon
    top = spec.cap if capped else horizon
    if top == 1:
        return np.ones(n_cycles, dtype=np.int64), 0
    tables = _walk_tables(spec, top)
    if tables.n_flat is not None:
        peak = _run_maxima(tables, n_cycles, rng, top)
        if capped:
            return peak, 0
        back = peak < top
        n_back = int(np.count_nonzero(back))
        return (peak if n_back == n_cycles else peak[back]), n_cycles - n_back
    p_at, p_list = tables.p_at, tables.p_list
    tail_rows = _TAIL_ROWS

    def tail(state, peak):
        nonlocal tail_rows
        live = state.size
        draws = rng.random((min(tail_rows, _TAIL_CELLS // live), live))
        reach = min(top, int(state.max()) + draws.shape[0])  # no walk reads a level past it
        if len(p_list) < reach:
            p_list.extend(p_at[len(p_list) : reach].tolist())
        for j in range(live):
            state[j], peak[j] = _walk(draws[:, j].tolist(), int(state[j]), int(peak[j]), p_list, top)
        if ((state > 0) & (state < top)).any():  # a cycle used up its column
            tail_rows *= 2

    def blocks(state, peak):
        table = _block_table(tables, int(state.max()))
        for lo in range(0, state.size, _SLICE):
            s_state, s_peak = state[lo : lo + _SLICE], peak[lo : lo + _SLICE]
            entry = _alias_entries(rng.random(s_state.size), s_state * table.width, table.width, table.bound)
            np.maximum(s_peak, s_state + table.high.take(entry), out=s_peak)
            s_state += table.rise.take(entry)

    def advance(state, peak):
        moves = tables.blocks.moves if tables.blocks else _BLOCK_MOVES
        (tail if state.size * moves <= _TAIL_CYCLES * _BLOCK_MOVES else blocks)(state, peak)

    return _run_cycles(n_cycles, top, advance, escapes=not capped)


def simulate_cycles(spec: BirthDeathSpec, cfg: SimConfig) -> CycleSample:
    """cfg.cycles independent busy cycles under cfg.seed; raises
    NotApplicableError before the first draw if they are expected to pass
    the jump budget."""
    _refuse_long_runs(spec, cfg.cycles, cfg.escape_horizon)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    maxima, escaped = _simulate_batch(spec, cfg.cycles, rng, cfg.escape_horizon)
    return CycleSample(maxima=maxima, escaped=escaped)


def empirical_cdf(maxima: np.ndarray, levels, cycles: int | None = None) -> np.ndarray:
    """Fraction of ``cycles`` cycles (default: the maxima) with a maximum at or
    below each level; ``CycleSample.cycles`` counts escapes above every level,
    so it may not be fewer than the maxima."""
    maxima = np.sort(np.asarray(maxima))
    if cycles is None:
        if not maxima.size:
            raise ValueError("the empirical cdf of an empty sample is undefined")
        cycles = maxima.size
    elif (cycles := _integer("cycles", cycles, 1)) < maxima.size:
        raise ValueError(f"{cycles} cycles cannot hold {maxima.size} maxima")
    return np.searchsorted(maxima, np.asarray(levels), side="right") / cycles


def _inversion_table(dist: CycleMaxDistribution, k: int, g_min: float) -> np.ndarray:
    """H(n) = -k log F(n) for n = 1.., extended until it falls to g_min.

    A draw G ~ Exp(1) maps to the smallest n with H(n) <= G, which realises
    the max of k cycles in one uniform; g_min is the least draw, so every
    draw finds its level in the table.  log F(n) = log(1 - 1/S(n)) is taken
    from log S(n) by expm1 where F(n) < 1/2 and by log1p from 1/2 on, so
    neither near-one nor near-zero F cancels.
    """
    cap = dist.spec.cap
    if cap is None and dist.log_p_finite < 0.0:
        raise NotApplicableError(
            "transient chain: the k-cycle maximum is infinite with positive probability"
        )
    n_hi = 64 if cap is None else cap
    while True:
        levels = np.arange(1, _check_levels(f"the k = {k} record's inversion table level", n_hi) + 1)
        log_s = np.asarray(dist.log_cumulative(levels), dtype=float)
        log_f = np.log(-np.expm1(-log_s))
        far = log_s >= math.log(2.0)
        log_f[far] = np.log1p(-np.exp(-log_s[far]))
        h = -k * log_f
        if cap is not None or h[-1] <= g_min:
            break
        n_hi *= 2
    if cap is not None:
        h[-1] = 0.0  # the cap is reached with the remaining mass
    return h


def _bucket_search(h: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The count of table values above each key, written to the int64 array
    out: for a non-increasing table h and keys g >= 0, the same values as
    np.searchsorted(-h, -g, "left").  out may share g's memory: the keys are
    searched in slices of _SLICE, and each slice is written once it is read.

    An indexed search (Chen and Asau, 1974).  The int64 bit pattern of a
    non-negative double rises with it, so its top bits split [min g, min(h[0],
    max g)] into at most _BUCKETS buckets, each a fixed share of a binade.
    One search of the bucket edges bounds each bucket's answer by the counts
    at its two edges.  Each key then takes its bucket's lower count and
    closes the gap, at most the widest bucket's, by a branch-free binary
    search: one pass when no two table values share a bucket, as on
    geometric tails.  Keys above the last bucket share its answer, which
    is 0 there.
    """
    lo = int(g.min().view(np.int64))
    hi = max(int(np.float64(min(h[0], g.max())).view(np.int64)), lo)
    shift = 0
    while (hi >> shift) - (lo >> shift) >= _BUCKETS:
        shift += 1
    base = lo >> shift
    n_buckets = (hi >> shift) - base + 1
    edges = ((base + np.arange(n_buckets + 1, dtype=np.int64)) << shift).view(np.float64)
    counts = np.searchsorted(-h, -edges, side="left")  # table values above each edge
    width = int((counts[:-1] - counts[1:]).max())
    first_steps = 1 << (width.bit_length() - 1) if width else 0
    padded = np.concatenate((h, np.full(first_steps, -1.0)))  # never above a key
    for lo in range(0, g.size, _SLICE):
        keys = g[lo : lo + _SLICE]
        at = keys.view(np.int64) >> shift
        at -= base
        at = counts[1:].take(at, mode="clip")  # keys above the last bucket share its answer
        steps = first_steps
        while steps > 1:
            at += (padded.take(at + (steps - 1)) > keys) * steps
            steps >>= 1
        if steps:  # the last pass, and the only one when no bucket holds two values
            at += padded.take(at) > keys
        out[lo : lo + _SLICE] = at
    return out


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
    k, reps = _integer("k", k, 1), _integer("reps", reps, 1)
    if mode == "inversion":
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        # drawn into the records, viewed as float64, and searched slice by slice
        best = np.empty(reps, dtype=np.int64)
        g = best.view(np.float64)
        rng.standard_exponential(out=g)
        h = _inversion_table(_as_dist(spec), k, float(g.min()))
        _bucket_search(h, g, best)
        best += 1
        return best
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
    """Summaries of Y^(k)/b_k per k, each at least 2; the band should tighten around 1."""
    from .extremes import as_limit_constant  # extremes is not needed to simulate

    cfg = cfg if cfg is not None else SimConfig()
    rows = []
    for i, k in enumerate([_integer("k", k, 2) for k in k_grid]):
        if spec.cap is not None:
            b_k = float(spec.cap)
        else:
            b_k = as_limit_constant(spec, k)
            if isinstance(b_k, tuple):
                raise NotApplicableError(
                    "normaliser is only bracketed for this spec; no single b_k"
                )
        sub = replace(cfg, seed=cfg.seed + i)
        ratios = sample_maxima(spec, k, reps, sub, mode="inversion") / b_k
        ordered = np.sort(ratios)
        rows.append(
            ConvergenceRow(
                k=k,
                b_k=b_k,
                mean_ratio=float(np.mean(ratios)),
                median_ratio=_sorted_median(ordered),
                q05=_sorted_quantile(ordered, 0.05),
                q95=_sorted_quantile(ordered, 0.95),
            )
        )
    return rows


# np.median and np.quantile import numpy.ma for their NaN check, 9-15 ms of a
# process that runs one command; these read a sorted sample to the same bits.
def _sorted_median(s: np.ndarray) -> float:
    """np.median of a non-empty sample from its sorted copy ``s``: the middle
    value, or the mean of the middle two."""
    h = s.size // 2
    return float(s[h]) if s.size % 2 else (float(s[h - 1]) + float(s[h])) / 2.0


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """np.quantile of a non-empty sample at q, by its default 'linear' rule,
    from its sorted copy ``s``: the values on either side of (n - 1) q,
    interpolated from the nearer one as numpy does."""
    at = (s.size - 1) * q
    i = math.floor(at)
    if i >= s.size - 1:
        return float(s[-1])
    a, b, t = float(s[i]), float(s[i + 1]), at - i
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic for integer-valued samples."""
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    if not (a.size and b.size):
        raise ValueError("the KS statistic of an empty sample is undefined")
    values = np.union1d(a, b)
    fa = np.searchsorted(a, values, side="right") / len(a)
    fb = np.searchsorted(b, values, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))
