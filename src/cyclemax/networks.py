"""Open Kelly-Whittle networks reduced to birth-death form.

A network of J stations with routing over nodes 0..J (node 0 is the outside)
aggregates into a single birth-death chain for the total population: the
level-N weight is the closed-network normalising constant over all
configurations with N customers.  The reduction reproduces the stationary
level probabilities exactly.  Cycle-maximum laws are exact for J = 1 (the
total is then itself Markov) and approximate otherwise; the discrepancy is
small when every station routes to the outside and grows for feed-forward
topologies where the total's drift depends strongly on the configuration.

For separable stations the constants cost O(n_max (J + sum s)) time and
O(n_max) memory: the infinite-server stations merge into one Poisson weight
and every single- or multi-server station enters as a geometric filter.
Explicit weights take the lattice sum, limited to small networks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bdp import (
    BirthDeathSpec,
    FactorialInverseSequence,
    MultiServerSequence,
    OnesSequence,
    TableSequence,
    _check_levels,
    _integer,
    _linear,
    _load_json,
    _positive,
    _require_number,
    _save_json,
    log_factorial,
)
from .errors import (
    CoincidentLoadsError,
    NonSeparableError,
    NotIrreducibleError,
    SingularSystemError,
    SpecFormatError,
)
from .simulate import CycleSample, SimConfig, _alias_rows, _charge, _log_expected_jumps, _run_cycles

__all__ = [
    "Station",
    "NetworkSpec",
    "NortonReduction",
    "solve_traffic",
    "station_loads",
    "aggregate_constants",
    "log_aggregate_constants",
    "lattice_constants",
    "harrison_closed_form",
    "network_beta",
    "norton_reduce",
    "simulate_network_cycles",
    "network_from_dict",
    "network_to_dict",
    "load_network",
    "save_network",
]

_KINDS = ("ss", "ms", "is")

# loads closer than this (relatively) count as coincident
COINCIDENCE_GAP = 1e-9
# A pass moves every live network cycle by at most _PASS_EVENTS events and
# there is no Python tail for the last few, so a pass over a few live cycles
# costs about as much as one over 256: a call is charged for at least this
# many cycles against the jump budget.
_MIN_CHARGED_CYCLES = 256
# Most events a table pass moves each live network cycle by.  A pass retires
# the cycles that finished once, so more events a pass mean fewer
# retirements but more reads from the absorbing empty state: measured best
# of 1 to 8 on the mixed 3-station network.
_PASS_EVENTS = 4
# Most cells (states x width) of a network's event table: a call whose
# cycles climb past the totals that fit hands them to the per-event step.
_TABLE_CELLS = 1 << 20
# Totals the first event table of a network holds: the first rung of the
# ladder its totals climb by doubling.
_TABLE_TOTALS = 8
# Most cells whose alias tables are built at once: 128 KiB an array.
_BUILD_CELLS = 1 << 14


@dataclass(frozen=True)
class Station:
    """One service station: kind "ss" (single server), "ms" (s servers), "is"."""

    kind: str
    mu: float
    s: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecFormatError(f"station kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "mu", _positive("station rate", self.mu, SpecFormatError))
        if self.kind == "ms":
            object.__setattr__(self, "s", _integer("server count", self.s, 1, SpecFormatError))
        elif self.s is not None:
            raise SpecFormatError(f"station kind {self.kind!r} takes no server count")

    @property
    def servers(self) -> float:
        if self.kind == "ss":
            return 1.0
        if self.kind == "ms":
            return float(self.s)
        return math.inf

    def weight_sequence(self):
        """Station weight psi_i; service rate is mu_i * psi_i(n-1)/psi_i(n)."""
        if self.kind == "ss":
            return OnesSequence()
        if self.kind == "ms":
            return MultiServerSequence(self.s)
        return FactorialInverseSequence()


def _reachable(adj: np.ndarray, start: int) -> np.ndarray:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = np.nonzero(adj[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = list(nxt)
    return seen


def _check_routing(routing: np.ndarray) -> None:
    if routing.ndim != 2 or routing.shape[0] != routing.shape[1] or routing.shape[0] < 2:
        raise SpecFormatError("routing must be a square matrix over nodes 0..J with J >= 1")
    if not np.all(np.isfinite(routing)) or np.any(routing < 0):
        raise SpecFormatError("routing entries must be finite and non-negative")
    sums = routing.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        raise SpecFormatError("routing rows must sum to 1 within 1e-12")
    adj = routing > 0.0
    if not (_reachable(adj, 0).all() and _reachable(adj.T, 0).all()):
        raise NotIrreducibleError("routing graph is not irreducible over nodes 0..J")


@dataclass(frozen=True)
class NetworkSpec:
    """Open network: exogenous intensity mu0, stations 1..J, routing over 0..J.

    ``psi``/``phi`` optionally override the separable station weights with
    explicit functions on occupancy vectors (tuple of J ints -> positive
    float); those networks only admit the slow lattice-summation path.
    """

    mu0: float
    stations: tuple
    routing: tuple
    psi: object = None
    phi: object = None

    def __post_init__(self):
        object.__setattr__(self, "mu0", _positive("mu0", self.mu0, SpecFormatError))
        stations = tuple(self.stations)
        if not stations or not all(isinstance(st, Station) for st in stations):
            raise SpecFormatError("stations must be a non-empty sequence of Station")
        matrix = np.asarray(self.routing, dtype=float)
        _check_routing(matrix)
        if matrix.shape[0] != len(stations) + 1:
            raise SpecFormatError(
                f"routing is {matrix.shape[0]}x{matrix.shape[0]} but the network has "
                f"{len(stations)} stations; expected {len(stations) + 1} nodes"
            )
        if (self.psi is None) != (self.phi is None):
            raise SpecFormatError("explicit psi and phi must be given together")
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "routing", tuple(tuple(row) for row in matrix))

    @property
    def J(self) -> int:
        return len(self.stations)

    @property
    def routing_matrix(self) -> np.ndarray:
        return np.asarray(self.routing, dtype=float)

    @property
    def separable(self) -> bool:
        return self.psi is None

    @cached_property
    def _loads(self) -> np.ndarray:
        loads = solve_traffic(self.routing_matrix) / np.array([st.mu for st in self.stations])
        loads.flags.writeable = False
        return loads

    @cached_property
    def _event_table(self) -> "_EventTable":
        """The simulator's event table for this network, grown as cycles climb."""
        return _EventTable(self)


def solve_traffic(routing) -> np.ndarray:
    """Relative throughputs lambda_j = p_0j + sum_i lambda_i p_ij, j = 1..J."""
    matrix = np.asarray(routing, dtype=float)
    _check_routing(matrix)
    sub = matrix[1:, 1:]
    rhs = matrix[0, 1:]
    system = np.eye(sub.shape[0]) - sub.T
    try:
        lam = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError("traffic equations are singular") from None
    residual = float(np.max(np.abs(system @ lam - rhs)))
    if not np.all(np.isfinite(lam)) or residual > 1e-12 * max(1.0, float(np.max(np.abs(lam)))):
        raise SingularSystemError(f"traffic solve left residual {residual:.3e}")
    return lam


def station_loads(net: NetworkSpec) -> np.ndarray:
    """rho_j = lambda_j / mu_j from the traffic solution, solved once per
    network and returned read-only."""
    return net._loads


def _log_station_filter(la: np.ndarray, log_w: np.ndarray, t0: int, log_q: float) -> np.ndarray:
    """Log-scale convolution of la with one station's weight w, truncated to la.size.

    w(t) = w(t0) q^(t - t0) from t = t0 on, and log_w holds w(0..min(t0, la.size - 1)).
    The geometric part is the recurrence g(n) = q g(n - 1) + a(n), taken as
    n log q plus a left fold of log a(n) - n log q; the head terms t < t0 are
    added as shifted copies of la.
    """
    size = la.size
    out = np.full(size, -np.inf)
    if t0 < size:
        shift = np.arange(size - t0) * log_q
        out[t0:] = log_w[t0] + shift + np.logaddexp.accumulate(la[: size - t0] - shift)
    for t in range(min(t0, size)):
        np.logaddexp(out[t:], log_w[t] + la[: size - t], out=out[t:])
    return out


def log_aggregate_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log Psi(N) and log Phi(N) for N = 0..n_max.

    The infinite-server stations merge into one Poisson weight with the sum
    of their loads.  Each single- or multi-server station is then applied as
    a filter: its weight rho^t psi(t) is geometric with ratio q = rho / s from
    t = s - 1 on, so it costs one log-scale recurrence (Buzen's algorithm)
    plus s - 1 head terms.  Stations go in increasing q, so each fold runs at
    the growth rate of its own result and cancels no large logs.
    """
    n_max = _check_levels("n_max", n_max)
    if not net.separable:
        return _lattice_log_constants(net, n_max)
    loads = list(zip(net.stations, station_loads(net).tolist()))
    n = np.arange(n_max + 1)
    poisson = sum(r for st, r in loads if st.kind == "is")
    if poisson > 0.0:
        log_psi = n * math.log(poisson) - log_factorial(n)
    else:
        log_psi = np.where(n == 0, 0.0, -np.inf)
    queues = [(st, r) for st, r in loads if st.kind != "is"]
    for st, r in sorted(queues, key=lambda queue: queue[1] / queue[0].servers):
        s = int(st.servers)
        t = np.arange(min(s - 1, n_max) + 1)
        log_w = st.weight_sequence().log_value(t) + t * math.log(r)
        log_psi = _log_station_filter(log_psi, log_w, s - 1, math.log(r / s))
    # the standard kinds all have phi_i = psi_i, hence Phi = Psi
    return log_psi, log_psi.copy()


def aggregate_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Psi(N), Phi(N) on the linear scale; see log_aggregate_constants for long tails."""
    log_psi, log_phi = log_aggregate_constants(net, n_max)
    return _linear(log_psi), _linear(log_phi)


def _occupancies(n_max: int, parts: int) -> np.ndarray:
    """Occupancy vectors with totals 0..n_max as rows, ordered by total and
    lexicographically within a total.

    A vector with its slack n_max - total is a composition of n_max into
    parts + 1 parts, read off the places of ``parts`` bars among
    n_max + parts slots; itertools yields those in lexicographic order.
    """
    count = math.comb(n_max + parts, parts)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n_max + parts), parts))
    bars = np.fromiter(flat, dtype=np.int64, count=count * parts).reshape(count, parts)
    occ = np.diff(bars, axis=1, prepend=-1) - 1
    return occ[np.argsort(bars[:, -1], kind="stable")]  # the last bar is total + parts - 1


def _rank(occupancy: list, n_max: int) -> np.ndarray:
    """The row of each occupancy vector, given coordinate by coordinate as
    equal-shaped int arrays with totals up to n_max, in _occupancies order.

    That is the count of vectors of lower total, C(T - 1 + J, J), plus for
    each coordinate k < J - 1 the count of vectors of total T that agree
    before k and are lower at k.
    """
    parts = len(occupancy)
    # below[p, i]: vectors of p parts with total below i, C(i - 1 + p, p)
    below = np.zeros((parts + 1, n_max + 2), dtype=np.int64)
    below[0, 1:] = 1
    for p in range(parts):
        np.cumsum(below[p], out=below[p + 1])
    rest = sum(occupancy)
    row = below[parts].take(rest)
    for k, n_k in enumerate(occupancy[:-1]):
        tail = below[parts - 1 - k]
        row += tail.take(rest + 1) - tail.take(rest - n_k + 1)
        rest = rest - n_k
    return row


def _lattice_log_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    if net.J > 3 or n_max > 20:
        raise NonSeparableError(
            "explicit lattice summation supports J <= 3 and n_max <= 20; "
            "larger networks need separable stations"
        )
    occ = _occupancies(n_max, net.J)
    totals = occ.sum(axis=1)
    log_weight = occ @ np.log(station_loads(net))
    if net.separable:
        n = np.arange(n_max + 1)
        log_psi = sum(st.weight_sequence().log_value(n)[occ[:, j]] for j, st in enumerate(net.stations))
        log_psi = _log_group_sums(log_psi + log_weight, totals)
        return log_psi, log_psi.copy()
    points = [tuple(row) for row in occ.tolist()]
    psi = np.array([float(net.psi(x)) for x in points])
    phi = psi if net.phi is net.psi else np.array([float(net.phi(x)) for x in points])
    bad = np.flatnonzero(~((psi > 0) & (phi > 0) & np.isfinite(psi) & np.isfinite(phi)))
    if bad.size:
        i = bad[0]
        raise SpecFormatError(
            f"network weights must be finite and positive, got {float(psi[i])!r}, "
            f"{float(phi[i])!r} at {points[i]}"
        )
    return (
        _log_group_sums(np.log(psi) + log_weight, totals),
        _log_group_sums(np.log(phi) + log_weight, totals),
    )


def _log_group_sums(terms: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum of the terms of each total; totals are sorted and
    take every value from 0 to their maximum."""
    starts = np.flatnonzero(np.diff(totals, prepend=-1))
    peak = np.maximum.reduceat(terms, starts)
    return peak + np.log(np.add.reduceat(np.exp(terms - peak[totals]), starts))


def lattice_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Psi, Phi by explicit summation over the occupancy lattice (slow oracle path)."""
    log_psi, log_phi = _lattice_log_constants(net, _check_levels("n_max", n_max))
    return _linear(log_psi), _linear(log_phi)


def harrison_closed_form(rho, n: int) -> float:
    """Sum_j rho_j^(n+J-1) / prod_{i != j} (rho_j - rho_i) for distinct loads."""
    loads = np.asarray(rho, dtype=float)
    if loads.ndim != 1 or loads.size == 0 or np.any(loads <= 0) or not np.all(np.isfinite(loads)):
        raise ValueError("loads must be a non-empty vector of positive reals")
    n = _integer("n", n, 0)
    big = loads.size
    for i in range(big):
        for j in range(i + 1, big):
            if abs(loads[i] - loads[j]) <= COINCIDENCE_GAP * max(loads[i], loads[j]):
                raise CoincidentLoadsError(
                    f"loads {loads[i]!r} and {loads[j]!r} coincide within {COINCIDENCE_GAP}; "
                    "use the convolution path"
                )
    total = 0.0
    for j in range(big):
        denom = 1.0
        for i in range(big):
            if i != j:
                denom *= loads[j] - loads[i]
        total += loads[j] ** (n + big - 1) / denom
    return total


def network_beta(net: NetworkSpec) -> tuple[float, int]:
    """(beta_net, multiplicity): the aggregate tail slope max_i rho_i/s_i and its tie count.

    Infinite-server stations contribute slope 0; an all-infinite-server
    network returns (0.0, J) and its reduction is a pure infinite-server
    chain rather than a geometric one.
    """
    rho = station_loads(net)
    nu = np.array([r / st.servers for r, st in zip(rho, net.stations)])
    beta = float(np.max(nu))
    if beta == 0.0:
        return 0.0, net.J
    mult = int(np.sum(nu >= beta * (1.0 - COINCIDENCE_GAP)))
    return beta, mult


@dataclass(frozen=True)
class NortonReduction:
    """Aggregates and the induced birth-death chain for the total population.

    ``psi``/``phi`` hold Psi(N), Phi(N) on the linear scale with exact
    log-scale copies alongside; the induced chain has birth rate
    mu0*Psi(N)/Phi(N) and death rate Psi(N-1)/Phi(N), matching the
    network's stationary level probabilities exactly.
    """

    psi: np.ndarray
    phi: np.ndarray
    log_psi: np.ndarray
    log_phi: np.ndarray
    rho: tuple
    induced: BirthDeathSpec
    beta_net: float
    multiplicity: int


def norton_reduce(net: NetworkSpec, n_max: int = 500) -> NortonReduction:
    """Reduce the network to a birth-death spec on the total population."""
    log_psi, log_phi = log_aggregate_constants(net, n_max)
    rho = station_loads(net)
    beta, mult = network_beta(net)
    if beta == 0.0:
        # every station is infinite-server: Psi(N) = (sum rho)^N / N!
        induced = BirthDeathSpec(
            FactorialInverseSequence(),
            FactorialInverseSequence(),
            lam=net.mu0,
            mu=1.0 / float(np.sum(rho)),
            label="norton(all-is)",
        )
    else:
        induced = BirthDeathSpec(
            TableSequence.from_log(log_psi, tail_ratio=beta, poly_degree=mult - 1),
            TableSequence.from_log(log_phi, tail_ratio=beta, poly_degree=mult - 1),
            lam=net.mu0,
            mu=1.0,
            label=f"norton(J={net.J})",
        )
    return NortonReduction(
        psi=_linear(log_psi),
        phi=_linear(log_phi),
        log_psi=log_psi,
        log_phi=log_phi,
        rho=tuple(float(r) for r in rho),
        induced=induced,
        beta_net=beta,
        multiplicity=mult,
    )


class _EventTable:
    """Walker alias tables of the event law of each occupancy state of a
    separable network with a total up to ``totals``, kept on the network.

    State i is row i of ``_occupancies(totals + 1, J)``.  Its cells are the
    (J + 1)^2 events (actor a, destination d), a = 0 an arrival, weighted by
    rate times routing: mu0 r_0d, or mu_a min(n_a, s_a) r_ad; self-routing
    keeps the state.  Row 0, the empty state, absorbs instead: each of its
    cells keeps it (keep 1, next and after 0), so a cycle that returns to 0
    inside a pass of several events stays there.  A cycle holds the offset
    i * width of its state's cells (width a power of two, zero weight past
    the events) as an int32.  A draw u scaled to v = u width picks cell
    c = offset + floor(v), and keeps it when v lies below ``bound[c]``,
    floor(v) plus the cell's share of its own event, else takes its alias.
    Entry 2 c + 1 of ``next`` and ``after`` gives the offset and the total
    of the state that the cell's own event leads to, entry 2 c its alias's;
    ``bound`` is float64, ``next`` and ``after`` int32, as every offset and
    total lies far below 2^31 (at most _TABLE_CELLS and the horizon).
    ``grow`` appends rows up to the ``rung`` of the total it needs and
    leaves the rows held as they are.  ``log_events`` keeps the charge of a
    cycle by escape horizon (``_log_events_per_cycle``).  The rows and the
    per-event step past them (``_event_step``) read one event law: the actor
    rates of occupancy rows (``rates``), and each cell's occupancy move and
    change in the total (``moves``, ``rises``), zero on the padding.
    """

    def __init__(self, net: NetworkSpec):
        self.parts = net.J
        self.mu0 = net.mu0
        self.routing = net.routing_matrix
        self.mu = np.array([st.mu for st in net.stations])
        self.servers = np.array([st.servers for st in net.stations])
        size = net.J + 1
        self.width = 1 << (size * size - 1).bit_length()
        unit = np.eye(size, dtype=np.int32)[:, 1:]  # row k: one customer at node k, none outside
        self.moves = np.zeros((self.width, net.J), dtype=np.int32)  # cell a size + d: from a to d
        self.moves[: size * size] = (unit[None, :, :] - unit[:, None, :]).reshape(-1, net.J)
        self.rises = self.moves.sum(axis=1, dtype=np.int32)
        self.totals = -1
        self.bound = np.empty(0)
        self.next = np.empty(0, dtype=np.int32)
        self.after = np.empty(0, dtype=np.int32)
        self.log_events = {}

    def rates(self, occ: np.ndarray) -> np.ndarray:
        """The actor rates of each occupancy row: mu0, then mu_i min(n_i, s_i)."""
        rates = np.empty((len(occ), self.parts + 1))
        rates[:, 0] = self.mu0
        rates[:, 1:] = self.mu * np.minimum(occ, self.servers)
        return rates

    def rows(self, totals: int) -> int:
        """States with a total up to ``totals``."""
        return math.comb(totals + self.parts, self.parts)

    def rung(self, need: int, top: int) -> int:
        """The totals a table with a row for total ``need`` holds: the first
        of _TABLE_TOTALS, twice that, ... at or above ``need``, within top - 1
        and the most totals that fit in _TABLE_CELLS cells, which lie below
        ``need`` when its rows do not fit."""
        totals = _TABLE_TOTALS << max(0, (need - 1) // _TABLE_TOTALS).bit_length()
        most = min(totals, top - 1)
        fits = most if self.rows(most) * self.width <= _TABLE_CELLS else -1  # rows(-1) = 0 fits
        while fits < most:  # the most totals that fit, by bisection
            mid = (fits + most + 1) // 2
            fits, most = (mid, most) if self.rows(mid) * self.width <= _TABLE_CELLS else (fits, mid - 1)
        return fits

    def grow(self, need: int, top: int) -> bool:
        """Hold the states of totals up to ``need`` < top, as many as its
        rung; False when ``need`` does not fit."""
        if need <= self.totals:
            return True
        totals = self.rung(need, top)
        if totals < need:
            return False
        states = _occupancies(totals + 1, self.parts)
        sums = states.sum(axis=1)
        chunk = max(1, _BUILD_CELLS // self.width)
        parts = [(self.bound, self.next, self.after)]
        for lo in range(self.rows(self.totals), self.rows(totals), chunk):
            parts.append(self._build(states, sums, lo, min(lo + chunk, self.rows(totals))))
        self.bound, self.next, self.after = (np.concatenate(arrays) for arrays in zip(*parts))
        self.totals = totals
        return True

    def _build(self, states: np.ndarray, sums: np.ndarray, lo: int, hi: int) -> tuple:
        """(bound, next, after) of the rows of states lo..hi-1, flat; ``sums``
        holds the total of each state."""
        occ = states[lo:hi]
        weight = np.zeros((hi - lo, self.width))
        weight[:, : self.routing.size] = (self.rates(occ)[:, :, None] * self.routing).reshape(hi - lo, -1)
        moved = weight > 0.0  # events of no weight keep the state
        to = _rank([occ[:, [k]] + moved * self.moves[:, k] for k in range(self.parts)], int(sums[-1]))
        keep, alias = _alias_rows(weight)
        to = np.stack((np.take_along_axis(to, alias, axis=1), to), axis=2).ravel()
        if lo == 0:  # the empty state absorbs: each of its cells keeps it
            keep[0] = 1.0
            to[: 2 * self.width] = 0
        return (
            (keep + np.arange(self.width)).ravel(),
            (to * self.width).astype(np.int32),
            sums.take(to).astype(np.int32),
        )


def _log_events_per_cycle(net: NetworkSpec, horizon: int) -> float:
    """log of the mean events of a busy cycle run to ``horizon`` after its
    first arrival, (R - 1) / (1 - r_00) with R = (1 + sum v_i) (E + 1) / 2,
    v = solve_traffic(routing), r_00 the share of arrivals routed straight
    back outside and E the mean jumps of the total's birth-death walk of
    weights Psi(N) mu0^N from 1 to 0 or the horizon (``_log_expected_jumps``).

    The chain of every event, self-routing included, has stationary law
    pi(x) q(x), q(x) the total event rate of x, and station i serves at rate
    mu0 v_i, so by Kac it returns to empty in R events on average, with
    (E + 1) / 2 = Z = sum_N Psi(N) mu0^N where the horizon does not bind; a
    share r_00 of the returns is one arrival that leaves at once.  Where the
    horizon binds, as for every beta mu0 >= 1, the walk's count stands in.
    """
    log_psi, _ = log_aggregate_constants(net, horizon - 1)
    log_jumps = _log_expected_jumps(log_psi + np.arange(horizon) * math.log(net.mu0))
    log_z = log_jumps + math.log1p(math.exp(-log_jumps)) - math.log(2.0)  # log (E + 1) / 2
    routing = net.routing_matrix
    log_return = math.log1p(float(np.sum(solve_traffic(routing)))) + log_z
    return log_return + math.log(-math.expm1(-log_return)) - math.log1p(-routing[0, 0])


def _event_step(table: _EventTable, rng: np.random.Generator):
    """The per-event step: ``step(total, peak, occupancy)`` moves every live
    cycle, given by its total and its row of the (live, J) ``occupancy``, by
    one event drawn from two uniforms, the actor by the table's rates and its
    destination by the routing row, and adds the event's move and rise."""
    size = table.parts + 1
    # without its last column the routing cdf caps the destination at J: the
    # cdf rises along a row, so that column's comparison holds only when all do
    route_cdf = np.cumsum(table.routing, axis=1)[:, :-1]

    def step(total, peak, occupancy):
        cum = np.cumsum(table.rates(occupancy), axis=1)
        actor = (cum < (rng.random(total.size) * cum[:, -1])[:, None]).sum(axis=1)
        event = actor * size + (route_cdf.take(actor, axis=0) < rng.random((total.size, 1))).sum(axis=1)
        occupancy += table.moves.take(event, axis=0)
        total += table.rises.take(event)
        np.maximum(peak, total, out=peak)

    return step


def simulate_network_cycles(net: NetworkSpec, cfg: SimConfig) -> CycleSample:
    """Total-population busy cycles of the open network via its jump chain.

    Events pick an acting node with probability proportional to its rate
    (mu0 for arrivals, mu_i * min(n_i, s_i) for service) and route by the
    matrix row; self-routing leaves the state unchanged and is kept as a
    no-op event, which preserves the path law of the recorded maxima.

    A cycle is one int, its occupancy state's place in the network's event
    table (``_EventTable``), and its entry station is drawn from one uniform.
    A pass moves every live cycle by b events, each from one uniform read
    through the alias table of its state, then retires the cycles that
    finished; one that returns to 0 stays on the table's absorbing empty
    row until then.  b is _PASS_EVENTS, or fewer where the highest live
    total m nears its rung R (``_EventTable.rung``: _TABLE_TOTALS, twice
    that, ..., within the escape horizon and _TABLE_CELLS cells):
    b = min(_PASS_EVENTS, R - m + 1), so no event starts above R and only a
    pass's last event can reach the horizon.  b follows from the live
    totals alone, never from the totals the table holds, so equal seeds
    give equal results on a fresh network and on one an earlier call grew,
    and the table grows to R only when a pass needs a total it lacks.  When
    m passes the most totals whose rows fit, each live cycle is decoded to
    its occupancy vector and the rest of the call moves one event a pass
    (``_event_step``).

    The events follow the station rates, so a network with explicit
    ``psi``/``phi`` weights raises ``NonSeparableError`` before the first
    draw.  A call raises ``NotApplicableError`` before the first draw when
    its cycles are expected to pass the simulators' jump budget, counting
    every event as a jump, since each is a table read here: every network is
    charged the events of its total's birth-death walk to the escape horizon
    (``_log_events_per_cycle``), kept per horizon, for at least
    _MIN_CHARGED_CYCLES cycles.
    """
    if not net.separable:
        raise NonSeparableError("the network simulator follows station rates, not explicit weights")
    table = net._event_table
    top = cfg.escape_horizon
    if top not in table.log_events:
        table.log_events[top] = _log_events_per_cycle(net, top)
    _charge(table.log_events[top], max(cfg.cycles, _MIN_CHARGED_CYCLES), top)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    routing = net.routing_matrix
    entry_cdf = np.cumsum(routing[0, 1:] / routing[0, 1:].sum())
    j_count, width = net.J, table.width
    # the entry station j counts the cdf values below its uniform, at most
    # J - 1; its unit vector is state J - j.  Each pass draws into the same buffer.
    draws = rng.random(cfg.cycles)
    state = np.full(cfg.cycles, j_count, dtype=np.int32)
    for c in entry_cdf[:-1]:
        state -= c < draws
    state *= width
    occupancy = step = None  # the per-event step and its arrays, once the table is left

    def advance(total, peak, state):
        nonlocal occupancy, step
        if occupancy is None:
            m = int(total.max())  # b events, set by the live totals alone
            events = min(_PASS_EVENTS, table.rung(m, top) - m + 1)
            if events > 0:
                table.grow(m + events - 1, top)  # within the rung, so it fits
                for _ in range(events):
                    v = rng.random(out=draws[: state.size])
                    v *= width  # exact: the width is a power of two
                    cell = v.astype(np.intp)  # each read below would convert int32 cells to intp
                    cell += state
                    kept = v < table.bound.take(cell)
                    cell += cell
                    cell += kept  # the outcome entry: the cell's own, or its alias's
                    table.next.take(cell, out=state)
                    table.after.take(cell, out=total)
                    np.maximum(peak, total, out=peak)
                return
            occupancy = _occupancies(m, j_count)[state // width].astype(np.int32)
            step = _event_step(table, rng)
        elif state.size < len(occupancy):  # cycles finished: state holds the places of the rest
            occupancy = occupancy.take(state, axis=0)
        state[:] = np.arange(state.size)
        step(total, peak, occupancy)

    maxima, escaped = _run_cycles(cfg.cycles, top, advance, state)
    return CycleSample(maxima=maxima, escaped=escaped)


# ---------------------------------------------------------------------------
# file format


def network_from_dict(d: dict) -> NetworkSpec:
    if not isinstance(d, dict):
        raise SpecFormatError("network must be a JSON object")
    mu0 = _require_number(d, "mu0", "network")
    raw_stations = d.get("stations")
    if not isinstance(raw_stations, list) or not raw_stations:
        raise SpecFormatError("network: 'stations' must be a non-empty list")
    stations = []
    for i, entry in enumerate(raw_stations):
        if not isinstance(entry, dict):
            raise SpecFormatError(f"network: station {i} must be an object")
        mu = _require_number(entry, "mu", f"station {i}")
        stations.append(Station(kind=entry.get("kind"), mu=mu, s=entry.get("s")))
    routing = d.get("routing")
    if not isinstance(routing, list):
        raise SpecFormatError("network: 'routing' must be a matrix")
    try:
        matrix = np.asarray(routing, dtype=float)
    except (TypeError, ValueError):
        raise SpecFormatError("network: 'routing' must be a numeric matrix") from None
    return NetworkSpec(mu0=mu0, stations=tuple(stations), routing=matrix)


def network_to_dict(net: NetworkSpec) -> dict:
    if not net.separable:
        raise SpecFormatError("explicit-weight networks have no file representation")
    stations = []
    for st in net.stations:
        entry = {"kind": st.kind, "mu": st.mu}
        if st.s is not None:
            entry["s"] = st.s
        stations.append(entry)
    return {
        "mu0": net.mu0,
        "stations": stations,
        "routing": [list(row) for row in net.routing],
    }


def load_network(path) -> NetworkSpec:
    return network_from_dict(_load_json(path, "network"))


def save_network(net: NetworkSpec, path) -> None:
    _save_json(network_to_dict(net), path)
