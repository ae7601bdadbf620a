"""Regenerative Monte-Carlo for cycle maxima.

A busy cycle starts with the jump 0 -> 1 and ends on the return to 0.  The
maximum over the cycle depends only on the embedded up/down decisions, so
holding times are never sampled.  From a state n_flat on, the up-step
probability of most chains is constant (n_flat = 1 for M/M/1, s for M/M/s),
so there a cycle is a simple random walk, and each of its excursions above
n_flat - 1 is one move, whose maximum follows the gambler's-ruin law.  A
pass moves each live cycle _BLOCK_MOVES moves from one uniform, read through
an alias table of the exact law of those moves from its level, and draws
the highest of the excursions among them from one more.  It walks the live
cycles in slices of _SLICE, so its temporaries are small enough to reuse
the allocator's pages, and draws what one pass over them all would.  Every
call draws from one generator seeded by ``SimConfig.seed``, so equal seeds
give equal results; which uniforms a cycle uses is set out in
``_simulate_batch``.  A call charged more than _MAX_JUMPS jumps raises
before its first draw: it is charged its expected stepped jumps plus one
per excursion, not the jumps inside the excursions.  The record of k cycles
is also drawn by inversion of its exact law, one exponential per record,
located in the table by a bucketed search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bdp import BirthDeathSpec, _check_levels, _integer
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

# Most live cycles stepped one by one in Python below the constant run, at
# about 100 ns a jump, when a block pass moves each cycle _BLOCK_MOVES times:
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
# Python, so one cycle is charged for its own jumps only.  An excursion in
# the constant run is drawn whole, so it is charged as one jump.
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


def _up_probabilities(spec: BirthDeathSpec, top: int) -> np.ndarray:
    """P(step up | leave n) for n = 1..top-1.

    phi cancels between the birth and death rate at the same state, so only
    the psi ratio and the intensity ratio enter.
    """
    n = np.arange(1, top)
    log_psi_ratio = np.asarray(spec.psi.log_ratio(n - 1), dtype=float)  # log psi(n)/psi(n-1)
    logit = math.log(spec.lam) - math.log(spec.mu) + log_psi_ratio
    return 1.0 / (1.0 + np.exp(-logit))


def _log_expected_jumps(log_w: np.ndarray, n_flat: int | None = None) -> float:
    """log of the mean jump count E_1[min(T_0, T_top)] of one cycle from
    level 1 of the birth-death walk of weights w(m) = e^log_w[m] (w(0) = 1)
    run to top = len(log_w), or with ``n_flat`` its stepped jumps below
    n_flat plus its excursions above n_flat - 1.

    With S(n) = sum_{i<=n} 1/w(i), a cycle visits level m on average
    v(m) = (1 - S(m-1)/S(top-1)) w(m) / p_up(m) times, and
    w(m) / p_up(m) = w(m) + w(m-1).  It enters n_flat from n_flat - 1
    v(n_flat - 1) p_up(n_flat - 1) = (1 - S(n_flat-2)/S(top-1)) w(n_flat - 1)
    times, once when n_flat = 1.  The margin S(top-1) - S(m-1) is summed
    afresh from its positive terms, so a converging S costs no cancellation.
    """
    log_w = np.asarray(log_w, dtype=float)
    margin = np.logaddexp.accumulate(-log_w[::-1])[::-1]  # log (S(top-1) - S(m-1))
    log_visits = margin[1:] + np.logaddexp(log_w[1:], log_w[:-1]) - margin[0]
    if n_flat is None:
        return float(np.logaddexp.reduce(log_visits))
    log_entries = margin[n_flat - 1] + log_w[n_flat - 1] - margin[0]
    return float(np.logaddexp.reduce(log_visits[: n_flat - 1], initial=log_entries))


@dataclass(frozen=True)
class _BlockTable:
    """Alias tables of the law of ``moves`` moves from each level 1..rows.

    Row x holds the law from level x in ``width`` cells (a power of two),
    starting at flat index x * width (row 0 is never read), in the layout of
    ``_alias_rows``: a draw is read by ``_alias_entries`` with offset
    x * width.  The outcome arrays hold, by entry, the end level
    x + ``rise``, the stepped maximum x + ``high`` and, for a chain with a
    constant run, the count of whole ``excursions``.  ``bound`` is float64
    and the outcome arrays int8.
    """

    moves: int
    rows: int
    width: int
    bound: np.ndarray
    rise: np.ndarray
    high: np.ndarray
    excursions: np.ndarray | None


@dataclass(eq=False)
class _WalkTables:
    """What a walk from level 1 to ``top`` reads.

    ``log_jumps`` is the log of the jumps a cycle is charged, its stepped
    jumps and its excursions (``_log_expected_jumps`` with ``n_flat``);
    ``p_at`` is P(step up | leave n) by level, 0 at level 0, read-only;
    ``p_list`` holds its head as Python floats for the Python-stepped walk,
    extended on demand to the levels a block of draws can reach; ``n_flat``
    is ``_flat_start``'s state.  ``blocks`` is the latest ``_BlockTable`` or
    None (``_block_table`` grows it with the highest level reached).
    """

    log_jumps: float
    p_at: np.ndarray
    n_flat: int | None
    p_list: list = field(default_factory=list)
    blocks: _BlockTable | None = None


def _walk_tables(spec: BirthDeathSpec, top: int) -> _WalkTables:
    """The tables for (spec, top), built on first use and kept on the spec."""
    tables = spec._walk_tables.get(top)
    if tables is not None:
        return tables
    _check_levels("escape horizon or cap", top)
    p_up = _up_probabilities(spec, top)
    p_at = np.concatenate(([0.0], p_up))  # indexed by level
    n_flat = _flat_start(p_up, top) if p_up.size else None
    p_at.flags.writeable = False
    tables = spec._walk_tables[top] = _WalkTables(
        log_jumps=_log_expected_jumps(spec.log_psi_rho(np.arange(top)), n_flat),
        p_at=p_at,
        n_flat=n_flat,
    )
    return tables


def _refuse_long_runs(spec: BirthDeathSpec, n_cycles: int, horizon: int) -> None:
    """Raise before the first draw when n_cycles cycles are charged more than
    _MAX_JUMPS jumps: the stepped ones plus one per excursion drawn whole."""
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


def _flat_start(p_up: np.ndarray, top: int) -> int | None:
    """Lowest state n_flat with p_up constant on n_flat..top-1, or None.

    None when that is the level top - 1 alone, as it is for every chain whose
    p_up varies up to the top (mminf): such a chain is stepped at every level.
    Equality is exact, so the excursions drawn from n_flat follow the very
    walk that stepping by level would.
    """
    varying = np.flatnonzero(p_up != p_up[-1])
    n_flat = int(varying[-1]) + 2 if varying.size else 1
    return None if n_flat == top - 1 else n_flat


def _block_law(p_at: np.ndarray, n_flat: int | None, levels: np.ndarray, d: int) -> np.ndarray:
    """The exact law of d moves from each of ``levels``, by a forward DP over
    ``p_at`` alone.

    Entry [r, m, g, e] is the probability that the moves from x = levels[r]
    reach the stepped maximum x + m and end g below it, at x + m - g, after
    e excursions.  Level 0 is absorbing, and so is the top, p_at.size,
    without a constant run.  With one, levels stop at n_flat, and the move
    from there is a whole excursion back to n_flat - 1, counted in e:
    whether one of them reached the top is drawn later with their maximum.
    """
    top = p_at.size
    ceiling = top if n_flat is None else n_flat  # no move climbs above it
    ne = 1 if n_flat is None else (d + 1) // 2 + 1
    reach = min(d, ceiling - int(levels[0]))  # the most any maximum can rise
    m = np.arange(reach + 1)
    y = levels[:, None, None] + m[:, None] - np.arange(d + 1)  # the level at (m, g)
    stepped = (y > 0) & (y < ceiling)
    p = np.where(stepped, p_at.take(np.clip(y, 0, top - 1)), 0.0)
    q = np.where(stepped, 1.0 - p, 0.0)[..., None]
    p = p[..., None]
    stay = ((y == 0) | (y == top) if n_flat is None else y == 0)[..., None]
    flat = None if n_flat is None else (y == n_flat)[..., None]
    law = np.zeros((levels.size, reach + 1, d + 1, ne))
    law[:, 0, 0, 0] = 1.0
    for t in range(d):
        mw, gw, ew = min(t, reach) + 1, t + 1, min(ne, (t + 1) // 2 + 1)  # what t moves reach
        now = law[:, :mw, :gw, :ew]
        law = np.zeros_like(law)
        law[:, :mw, :gw, :ew] = now * stay[:, :mw, :gw]
        law[:, :mw, 1 : gw + 1, :ew] += now * q[:, :mw, :gw]
        if flat is not None:
            f = min(ew, ne - 1)
            law[:, :mw, 1 : gw + 1, 1 : f + 1] += now[..., :f] * flat[:, :mw, :gw]
        law[:, :mw, : gw - 1, :ew] += now[:, :, 1:] * p[:, :mw, 1:gw]
        top_up = min(mw, reach)  # a step up from the maximum raises it
        law[:, 1 : top_up + 1, 0, :ew] += now[:, :top_up, 0] * p[:, :top_up, 0]
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


def _build_blocks(p_at: np.ndarray, n_flat: int | None, rows: int, moves: int) -> _BlockTable:
    """The block table of levels 1..rows, of ``moves`` moves, halved while
    the table would hold more than _TABLE_CELLS cells, down to one move."""
    d = moves
    while True:
        ne = 1 if n_flat is None else (d + 1) // 2 + 1
        chunk = max(1, _LAW_CELLS // ((d + 1) * (d + 1) * ne))
        width, parts = 1, []
        for lo in range(1, rows + 1, chunk):
            law = _block_law(p_at, n_flat, np.arange(lo, min(lo + chunk, rows + 1)), d)
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
    code = np.concatenate(pairs)
    high, below = code // ((d + 1) * ne), code // ne % (d + 1)
    return _BlockTable(
        moves=d,
        rows=rows,
        width=width,
        bound=np.concatenate(bound),
        rise=(high - below).astype(np.int8),
        high=high.astype(np.int8),
        excursions=None if n_flat is None else (code % ne).astype(np.int8),
    )


def _block_table(tables: _WalkTables, level: int) -> _BlockTable:
    """The cached block table of a walk, with a row for ``level``: when it
    has none, it is rebuilt with twice its rows, or up to ``level``, within
    the levels a cycle can stand on (below the top, at most n_flat)."""
    held = tables.blocks
    if held is not None and held.rows >= level:
        return held
    limit = tables.n_flat or tables.p_at.size - 1
    rows = min(max(level, 2 * held.rows if held else _BLOCK_ROWS), limit)
    tables.blocks = _build_blocks(tables.p_at, tables.n_flat, rows, held.moves if held else _BLOCK_MOVES)
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


def _excursion_peaks(u: np.ndarray, low: int, top: int, p: float, count=None) -> np.ndarray:
    """The peaks low + J of walks from low + 1 with up-step probability p that
    stop on leaving (low, top), one per uniform in u, computed in place in u;
    with ``count``, the highest peak of count[i] such walks for u[i].

    By gambler's ruin such a walk reaches low + j before low with probability
    h(j) = 1 / sum_{i<j} r^i, r = (1 - p) / p, so J, the largest j with h(j)
    at least v = 1 - u, is floor(log1p(expm1(log r) / v) / log r), or
    floor(1 / v) at r = 1.  Where the log1p argument is at most -1 the walk
    may never come back and J is unbounded.  J is capped at top - low, where
    the walk leaves at the top.  The highest of E walks reaches low + j with
    probability 1 - (1 - h(j))^E, so for it v = 1 - u^(1/E), computed as
    -expm1(log(u) / E).
    """
    p = min(max(p, 2.0**-60), 1.0 - 2.0**-53)  # log r finite; changes no draw with u > 0
    log_r = math.log1p(-p) - math.log(p)
    if count is None:
        np.subtract(1.0, u, out=u)
    else:
        with np.errstate(divide="ignore"):
            np.log(u, out=u)  # -inf at u = 0, where v = 1
        u /= count
        np.expm1(u, out=u)
        np.negative(u, out=u)
    if log_r == 0.0:
        np.divide(1.0, u, out=u)
    else:
        np.divide(math.expm1(log_r), u, out=u)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(u, out=u)  # -inf or nan where J is unbounded
        u *= 1.0 / log_r
    np.floor(u, out=u)
    np.fmin(u, top - low, out=u)  # also replaces nan by the cap
    u += low
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


def _simulate_batch(
    spec: BirthDeathSpec, n_cycles: int, rng: np.random.Generator, horizon: int
) -> tuple[np.ndarray, int]:
    """Vectorised cycles; returns (recorded maxima, escaped count).

    Each pass draws from ``rng`` for the live cycles, in cycle order, and a
    draw's shape says how it is used:
    - With n_flat = 1 (M/M/1) each cycle is one excursion from level 1: one
      1-D draw, and its uniforms give the peaks (``_excursion_peaks``).
    - Otherwise every pass not listed below moves each live cycle by
      _BLOCK_MOVES moves at once (fewer past _TABLE_CELLS), one 1-D draw for
      each slice of _SLICE live cycles, each uniform read through the alias
      table of the exact law of the moves from its cycle's level
      (``_block_table``).  A move from n_flat is a whole excursion back to
      a = n_flat - 1.  After the last slice, each slice in which the block
      of some cycles holds E > 0 excursions draws one uniform for each such
      cycle in cycle order, from which their highest peak is drawn
      (``_excursion_peaks`` with count E).  So the stream is read as by one
      draw for all live cycles and then one for all cycles with excursions.
      A cycle whose highest excursion reaches the top ends the pass there
      with peak top; the others end where their block ends, with the higher
      of its stepped maximum and that peak.  0 is absorbing, and so is the
      top without a constant run.
    - A (B, live) draw, made when at most _TAIL_CYCLES cycles are live (more
      if the table makes fewer moves) and none is at n_flat, moves column
      j's cycle, stepped in Python, until it reaches 0 or n_flat (the top,
      without a constant run) or the column ends.  B starts at _TAIL_ROWS
      and doubles after each such draw in which some cycle used up its
      column.
    A cycle that reaches a cap below the horizon has its maximum and retires
    there.
    """
    capped = spec.cap is not None and spec.cap < horizon
    top = spec.cap if capped else horizon
    if top == 1:
        return np.ones(n_cycles, dtype=np.int64), 0
    tables = _walk_tables(spec, top)
    p_at, n_flat, p_list = tables.p_at, tables.n_flat, tables.p_list
    p_flat = float(p_at[-1])
    if n_flat == 1:
        # drawn into the maxima, viewed as float64, and computed slice by slice
        peak = np.empty(n_cycles, dtype=np.int64)
        u = peak.view(np.float64)
        rng.random(out=u)
        for lo in range(0, n_cycles, _SLICE):
            s_u = _excursion_peaks(u[lo : lo + _SLICE], 0, top, p_flat)
            np.maximum(s_u, 1.0, out=s_u)
            peak[lo : lo + _SLICE] = s_u.astype(np.int64)
        if capped:
            return peak, 0
        back = peak < top
        n_back = int(np.count_nonzero(back))
        return (peak if n_back == n_cycles else peak[back]), n_cycles - n_back
    stop = top if n_flat is None else n_flat  # where a Python-stepped walk stops
    tail_rows = _TAIL_ROWS

    def tail(state, peak):
        nonlocal tail_rows
        live = state.size
        draws = rng.random((min(tail_rows, _TAIL_CELLS // live), live))
        reach = min(stop, int(state.max()) + draws.shape[0])  # no walk reads a level past it
        if len(p_list) < reach:
            p_list.extend(p_at[len(p_list) : reach].tolist())
        for j in range(live):
            state[j], peak[j] = _walk(draws[:, j].tolist(), int(state[j]), int(peak[j]), p_list, stop)
        if ((state > 0) & (state < stop)).any():  # a cycle used up its column
            tail_rows *= 2

    def blocks(state, peak):
        table = _block_table(tables, int(state.max()))
        groups = []  # (positions, counts) of each slice's cycles with excursions
        for lo in range(0, state.size, _SLICE):
            s_state, s_peak = state[lo : lo + _SLICE], peak[lo : lo + _SLICE]
            entry = _alias_entries(rng.random(s_state.size), s_state * table.width, table.width, table.bound)
            np.maximum(s_peak, s_state + table.high.take(entry), out=s_peak)
            s_state += table.rise.take(entry)
            if table.excursions is not None:
                count = table.excursions.take(entry)
                at = np.flatnonzero(count > 0)
                if at.size:
                    groups.append((at + lo, count.take(at)))
        for at, count in groups:
            highest = _excursion_peaks(rng.random(at.size), n_flat - 1, top, p_flat, count)
            state[at[highest == top]] = top
            peak[at] = np.maximum(highest, peak.take(at), out=highest)

    def advance(state, peak):
        moves = tables.blocks.moves if tables.blocks else _BLOCK_MOVES
        few = state.size * moves <= _TAIL_CYCLES * _BLOCK_MOVES
        if few and (n_flat is None or not (state == n_flat).any()):
            tail(state, peak)
        else:
            blocks(state, peak)

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
    if not (a.size and b.size):
        raise ValueError("the KS statistic of an empty sample is undefined")
    values = np.union1d(a, b)
    fa = np.searchsorted(a, values, side="right") / len(a)
    fb = np.searchsorted(b, values, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))
