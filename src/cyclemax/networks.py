"""Open Kelly-Whittle networks reduced to birth-death form.

A network of J stations with routing over nodes 0..J (node 0 is the outside)
aggregates into a single birth-death chain for the total population: the
level-N weight is the closed-network normalising constant over all
configurations with N customers.  The reduction reproduces the stationary
level probabilities exactly.  Cycle-maximum laws are exact for J = 1 (the
total is then itself Markov) and approximate otherwise; the discrepancy is
small when every station routes to the outside and grows for feed-forward
topologies where the total's drift depends strongly on the configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bdp import (
    BirthDeathSpec,
    FactorialInverseSequence,
    MultiServerSequence,
    OnesSequence,
    TableSequence,
    _load_json,
    _require_number,
    logsumexp,
)
from .errors import (
    CoincidentLoadsError,
    NonSeparableError,
    NotIrreducibleError,
    SingularSystemError,
    SpecFormatError,
)
from .simulate import CycleSample, SimConfig, _retire

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


@dataclass(frozen=True)
class Station:
    """One service station: kind "ss" (single server), "ms" (s servers), "is"."""

    kind: str
    mu: float
    s: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpecFormatError(f"station kind must be one of {_KINDS}, got {self.kind!r}")
        if not (isinstance(self.mu, (int, float)) and math.isfinite(self.mu) and self.mu > 0):
            raise SpecFormatError(f"station rate must be positive and finite, got {self.mu!r}")
        if self.kind == "ms":
            if not (isinstance(self.s, (int, np.integer)) and not isinstance(self.s, bool) and self.s >= 1):
                raise SpecFormatError("multi-server station needs a positive integer s")
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
        if not (isinstance(self.mu0, (int, float)) and math.isfinite(self.mu0) and self.mu0 > 0):
            raise SpecFormatError(f"mu0 must be positive and finite, got {self.mu0!r}")
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
    """rho_j = lambda_j / mu_j from the traffic solution."""
    lam = solve_traffic(net.routing_matrix)
    return lam / np.array([st.mu for st in net.stations])


def _log_convolve(la: np.ndarray, lb: np.ndarray, n_hi: int) -> np.ndarray:
    """Log-scale linear convolution, truncated to indices 0..n_hi.

    Each output coefficient is a max-shifted sum, so widely scaled
    station sequences combine without overflow or underflow.
    """
    out = np.empty(min(la.size + lb.size - 1, n_hi + 1))
    for k in range(out.size):
        lo = max(0, k - lb.size + 1)
        hi = min(k, la.size - 1)
        out[k] = logsumexp(la[lo : hi + 1] + lb[k - lo : k - hi - 1 if k > hi else None : -1])
    return out


def log_aggregate_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """log Psi(N) and log Phi(N) for N = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not net.separable:
        return _lattice_log_constants(net, n_max)
    rho = station_loads(net)
    n = np.arange(n_max + 1)
    log_psi = None
    for st, r in zip(net.stations, rho):
        seq = np.asarray(st.weight_sequence().log_value(n), dtype=float) + n * math.log(r)
        log_psi = seq if log_psi is None else _log_convolve(log_psi, seq, n_max)
    # the standard kinds all have phi_i = psi_i, hence Phi = Psi
    return log_psi, log_psi.copy()


def aggregate_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Psi(N), Phi(N) on the linear scale; see log_aggregate_constants for long tails."""
    log_psi, log_phi = log_aggregate_constants(net, n_max)
    return np.exp(log_psi), np.exp(log_phi)


def _compositions(total: int, parts: int):
    """All non-negative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _lattice_log_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    if net.J > 3 or n_max > 20:
        raise NonSeparableError(
            "explicit lattice summation supports J <= 3 and n_max <= 20; "
            "larger networks need separable stations"
        )
    rho = station_loads(net)
    log_rho = np.log(rho)
    psi_fn = net.psi
    phi_fn = net.phi
    if psi_fn is None:
        seqs = [st.weight_sequence() for st in net.stations]

        def psi_fn(occ):
            return math.exp(sum(float(s.log_value(k)) for s, k in zip(seqs, occ)))

        phi_fn = psi_fn
    log_psi = np.empty(n_max + 1)
    log_phi = np.empty(n_max + 1)
    for total in range(n_max + 1):
        terms_psi, terms_phi = [], []
        for occ in _compositions(total, net.J):
            weight = float(np.dot(occ, log_rho))
            p, q = float(psi_fn(occ)), float(phi_fn(occ))
            if p <= 0 or q <= 0:
                raise SpecFormatError(f"network weights must be positive, got {p!r}, {q!r} at {occ}")
            terms_psi.append(math.log(p) + weight)
            terms_phi.append(math.log(q) + weight)
        log_psi[total] = logsumexp(np.array(terms_psi))
        log_phi[total] = logsumexp(np.array(terms_phi))
    return log_psi, log_phi


def lattice_constants(net: NetworkSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Psi, Phi by explicit summation over the occupancy lattice (slow oracle path)."""
    log_psi, log_phi = _lattice_log_constants(net, n_max)
    return np.exp(log_psi), np.exp(log_phi)


def harrison_closed_form(rho, n: int) -> float:
    """Sum_j rho_j^(n+J-1) / prod_{i != j} (rho_j - rho_i) for distinct loads."""
    loads = np.asarray(rho, dtype=float)
    if loads.ndim != 1 or loads.size == 0 or np.any(loads <= 0) or not np.all(np.isfinite(loads)):
        raise ValueError("loads must be a non-empty vector of positive reals")
    if n < 0:
        raise ValueError("n must be non-negative")
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
        psi=np.exp(log_psi),
        phi=np.exp(log_phi),
        log_psi=log_psi,
        log_phi=log_phi,
        rho=tuple(float(r) for r in rho),
        induced=induced,
        beta_net=beta,
        multiplicity=mult,
    )


def simulate_network_cycles(net: NetworkSpec, cfg: SimConfig) -> CycleSample:
    """Total-population busy cycles of the open network via its jump chain.

    Events pick an acting node with probability proportional to its rate
    (mu0 for arrivals, mu_i * min(n_i, s_i) for service) and route by the
    matrix row; self-routing leaves the state unchanged and is kept as a
    no-op step, which preserves the path law of the recorded maxima.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    routing = net.routing_matrix
    routing_cdf = np.cumsum(routing, axis=1)
    mu_vec = np.array([st.mu for st in net.stations])
    s_vec = np.array([st.servers for st in net.stations])
    entry = routing[0, 1:] / routing[0, 1:].sum()
    entry_cdf = np.cumsum(entry)
    n_cycles, horizon = cfg.cycles, cfg.escape_horizon
    j_count = net.J

    state = np.zeros((n_cycles, j_count), dtype=np.int64)
    first = np.minimum((entry_cdf < rng.random((n_cycles, 1))).sum(axis=1), j_count - 1)
    state[np.arange(n_cycles), first] = 1
    total = np.ones(n_cycles, dtype=np.int64)
    peak = np.ones(n_cycles, dtype=np.int64)
    out = np.empty(n_cycles, dtype=np.int64)
    slot = np.arange(n_cycles)
    escaped = 0
    while state.shape[0]:
        alive = state.shape[0]
        rates = np.empty((alive, j_count + 1))
        rates[:, 0] = net.mu0
        rates[:, 1:] = mu_vec * np.minimum(state, s_vec)
        cum = np.cumsum(rates, axis=1)
        draw = rng.random(alive) * cum[:, -1]
        actor = (cum < draw[:, None]).sum(axis=1)
        dest = np.minimum(
            (routing_cdf[actor] < rng.random((alive, 1))).sum(axis=1), j_count
        )
        rows = np.arange(alive)
        leaving = actor >= 1
        state[rows[leaving], actor[leaving] - 1] -= 1
        entering = dest >= 1
        state[rows[entering], dest[entering] - 1] += 1
        total += entering.astype(np.int64) - leaving.astype(np.int64)
        np.maximum(peak, total, out=peak)
        gone, (total, peak, slot, state) = _retire(total, peak, slot, out, horizon, state)
        escaped += gone
    return CycleSample(maxima=out[out > 0], escaped=escaped)


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
        kind = entry.get("kind")
        if kind not in _KINDS:
            raise SpecFormatError(f"network: station {i} kind must be one of {_KINDS}")
        mu = _require_number(entry, "mu", f"station {i}")
        s = entry.get("s")
        if s is not None and (isinstance(s, bool) or not isinstance(s, int)):
            raise SpecFormatError(f"network: station {i} server count must be an integer")
        stations.append(Station(kind=kind, mu=mu, s=s))
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
            entry["s"] = int(st.s)
        stations.append(entry)
    return {
        "mu0": net.mu0,
        "stations": stations,
        "routing": [list(row) for row in net.routing],
    }


def load_network(path) -> NetworkSpec:
    return network_from_dict(_load_json(path, "network"))


def save_network(net: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")
