import decimal
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclemax import networks
from cyclemax import simulate as simulate_module
from cyclemax import (
    CycleMaxDistribution,
    NetworkSpec,
    SimConfig,
    Station,
    aggregate_constants,
    empirical_cdf,
    harrison_closed_form,
    lattice_constants,
    load_network,
    mm1,
    network_beta,
    network_from_dict,
    network_to_dict,
    norton_reduce,
    save_network,
    simulate_network_cycles,
    solve_traffic,
    station_loads,
    stationary_distribution,
)
from cyclemax.errors import (
    CoincidentLoadsError,
    NonSeparableError,
    NotApplicableError,
    NotIrreducibleError,
    SpecFormatError,
)


def tandem(mu0=0.3, mu=1.0):
    return NetworkSpec(
        mu0=mu0,
        stations=(Station("ss", mu), Station("ss", mu)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )


def mixed(mu0=0.25):
    # every station routes outside, loads 0.625 / 0.3875 / 0.775 at mu0 = 0.25
    return NetworkSpec(
        mu0=mu0,
        stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
        routing=(
            (0.0, 0.5, 0.3, 0.2),
            (0.2, 0.1, 0.4, 0.3),
            (0.5, 0.2, 0.1, 0.2),
            (0.6, 0.2, 0.1, 0.1),
        ),
    )


def twin():
    return NetworkSpec(
        mu0=0.4,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    )


def ring(rates, kinds=None):
    j = len(rates)
    kinds = kinds or ["ss"] * j
    routing = np.zeros((j + 1, j + 1))
    for i in range(j):
        routing[i, i + 1] = 1.0
    routing[j, 0] = 1.0
    return NetworkSpec(
        mu0=0.1,
        stations=tuple(Station(k, m) for k, m in zip(kinds, rates)),
        routing=tuple(map(tuple, routing)),
    )


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def exact_cycle_cdf(net, levels):
    # absorbing-chain solve on the population lattice: a cycle succeeds when
    # it drains to empty before the total ever exceeds the level
    routing = np.asarray(net.routing_matrix, dtype=float)
    j = net.J
    mus = np.array([st.mu for st in net.stations])
    servers = np.array([float(st.servers) for st in net.stations])
    entry = routing[0, 1:] / routing[0, 1:].sum()
    out = []
    for cap in levels:
        states = [s for total in range(1, cap + 1) for s in compositions(total, j)]
        index = {s: i for i, s in enumerate(states)}
        trans = np.zeros((len(states), len(states)))
        hit = np.zeros(len(states))
        for s, i in index.items():
            n = np.array(s, dtype=float)
            svc = mus * np.minimum(n, servers)
            rate = net.mu0 + svc.sum()
            for dest in range(j + 1):
                w = net.mu0 * routing[0, dest] / rate
                if w == 0.0:
                    continue
                if dest == 0:
                    trans[i, i] += w
                else:
                    t = list(s)
                    t[dest - 1] += 1
                    if sum(t) <= cap:
                        trans[i, index[tuple(t)]] += w
            for src in range(j):
                if svc[src] == 0.0:
                    continue
                for dest in range(j + 1):
                    w = svc[src] * routing[src + 1, dest] / rate
                    if w == 0.0:
                        continue
                    t = list(s)
                    t[src] -= 1
                    if dest >= 1:
                        t[dest - 1] += 1
                    if sum(t) == 0:
                        hit[i] += w
                    else:
                        trans[i, index[tuple(t)]] += w
        h = np.linalg.solve(np.eye(len(states)) - trans, hit)
        starts = [index[tuple(int(k == m) for k in range(j))] for m in range(j)]
        out.append(float(sum(entry[m] * h[starts[m]] for m in range(j) if entry[m] > 0)))
    return np.array(out)


def test_station_servers():
    assert Station("ss", 2.0).servers == 1
    assert Station("ms", 2.0, s=4).servers == 4
    assert math.isinf(Station("is", 2.0).servers)
    with pytest.raises(SpecFormatError):
        Station("queue", 1.0)
    with pytest.raises(SpecFormatError):
        Station("ms", 1.0)
    with pytest.raises(SpecFormatError):
        Station("is", 1.0, s=2)


def test_routing_validation():
    ok = (Station("ss", 1.0), Station("ss", 1.0))
    with pytest.raises(SpecFormatError):
        NetworkSpec(0.3, ok, ((0.0, 0.5, 0.4), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
    with pytest.raises(SpecFormatError):
        NetworkSpec(0.3, ok, ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(NotIrreducibleError):
        NetworkSpec(
            0.3,
            (Station("ss", 1.0),) * 3,
            (
                (0.0, 1.0, 0.0, 0.0),
                (1.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, 1.0),
                (0.0, 0.0, 1.0, 0.0),
            ),
        )


def test_traffic_solutions():
    assert np.allclose(solve_traffic(tandem().routing_matrix), [1.0, 1.0])
    # single station feeding half its output back to itself
    lam = solve_traffic(((0.0, 1.0), (0.5, 0.5)))
    assert np.allclose(lam, [2.0])
    assert np.allclose(station_loads(ring([5.0, 2.0, 1.25])), [0.2, 0.5, 0.8])


def test_aggregate_single_station_is_geometric():
    net = NetworkSpec(0.3, (Station("ss", 2.0),), ((0.0, 1.0), (1.0, 0.0)))
    psi, _ = aggregate_constants(net, 8)
    assert np.allclose(psi, 0.5 ** np.arange(9), rtol=1e-12)


def test_aggregate_two_distinct_stations():
    net = ring([5.0, 1.25])
    psi, phi = aggregate_constants(net, 10)
    # Psi(N) = sum_k rho1^k rho2^(N-k) for single-server stations
    for n in range(11):
        direct = sum(0.2**k * 0.8 ** (n - k) for k in range(n + 1))
        assert psi[n] == pytest.approx(direct, rel=1e-12)
    assert np.allclose(psi, phi)


def test_lattice_matches_convolution():
    pa, pb = aggregate_constants(mixed(), 12)
    ga, gb = lattice_constants(mixed(), 12)
    assert np.allclose(pa, ga, rtol=1e-12)
    assert np.allclose(pb, gb, rtol=1e-12)


def test_lattice_guards():
    big = ring([5.0, 4.0, 3.0, 2.0])
    with pytest.raises(NonSeparableError):
        lattice_constants(big, 10)
    with pytest.raises(NonSeparableError):
        lattice_constants(tandem(), 25)


def test_harrison_closed_form_agrees():
    net = ring([5.0, 2.0, 1.25])
    psi, _ = aggregate_constants(net, 15)
    rho = station_loads(net)
    for n in range(16):
        assert harrison_closed_form(rho, n) == pytest.approx(psi[n], rel=1e-10)
    with pytest.raises(CoincidentLoadsError):
        harrison_closed_form([0.5, 0.5], 4)


def test_all_infinite_server_product_form():
    net = ring([2.0, 1.0, 2.0 / 3.0], kinds=["is"] * 3)
    psi, _ = aggregate_constants(net, 150)
    total = 0.5 + 1.0 + 1.5
    for n in range(151):
        assert psi[n] == pytest.approx(total**n / math.factorial(n), rel=1e-13)
    assert network_beta(net) == (0.0, 3)


def test_network_beta_multiplicity():
    beta, mult = network_beta(ring([5.0, 2.0, 1.25]))
    assert beta == pytest.approx(0.8)
    assert mult == 1
    beta2, mult2 = network_beta(twin())
    assert beta2 == pytest.approx(0.5)
    assert mult2 == 2


def test_reduction_of_a_tied_bottleneck_needs_a_level_past_zero():
    with pytest.raises(ValueError, match="n_max for a bottleneck of multiplicity 2 must be an integer of at least 1"):
        norton_reduce(tandem(0.5, 1.0), 0)
    assert norton_reduce(tandem(0.5, 1.0), 1).induced.psi.poly_degree == 1
    # a lone bottleneck (ring loads 0.2, 0.5 and 0.8) and an all-infinite-server
    # pool need no second level
    assert norton_reduce(ring([5.0, 2.0, 1.25]), 0).induced.psi.poly_degree == 0
    assert norton_reduce(ring([1.0, 2.0], ["is", "is"]), 0).induced.label == "norton(all-is)"


def test_reduction_matches_stationary_law():
    red = norton_reduce(mixed(), n_max=120)
    induced = red.induced
    assert induced.lam == 0.25
    assert induced.mu == 1.0
    pi = stationary_distribution(induced, 40)
    raw = red.log_psi[:41] + np.arange(41) * math.log(0.25)
    expect = np.exp(raw - raw.max())
    expect /= expect.sum() / pi.sum()
    assert np.allclose(pi[:30], expect[:30], rtol=1e-10)


def test_reduction_exact_for_single_station():
    net = NetworkSpec(0.3, (Station("ss", 1.0),), ((0.0, 1.0), (1.0, 0.0)))
    induced = norton_reduce(net, n_max=80).induced
    d_net = CycleMaxDistribution(induced)
    d_ref = CycleMaxDistribution(mm1(0.3, 1.0))
    for n in range(1, 40):
        assert d_net.cdf(n) == pytest.approx(d_ref.cdf(n), rel=1e-12)
    exact = exact_cycle_cdf(net, range(1, 8))
    got = np.array([d_net.cdf(n) for n in range(1, 8)])
    assert np.allclose(got, exact, atol=1e-12)


def test_reduction_is_scale_invariant():
    a = CycleMaxDistribution(norton_reduce(tandem(0.3, 1.0), n_max=60).induced)
    b = CycleMaxDistribution(norton_reduce(tandem(0.6, 2.0), n_max=60).induced)
    for n in range(1, 30):
        assert a.cdf(n) == pytest.approx(b.cdf(n), rel=1e-12)


def test_simulator_matches_lattice_solve_tandem():
    net = tandem()
    sample = simulate_network_cycles(net, SimConfig(seed=14, cycles=20_000))
    assert sample.escaped == 0
    levels = np.arange(1, 9)
    exact = exact_cycle_cdf(net, levels)
    emp = empirical_cdf(sample.maxima, levels)
    for f, e in zip(exact, emp):
        sigma = math.sqrt(f * (1 - f) / sample.cycles)
        assert abs(e - f) <= 3 * sigma + 1e-12


def test_simulator_matches_lattice_solve_mixed():
    net = mixed()
    sample = simulate_network_cycles(net, SimConfig(seed=15, cycles=20_000))
    levels = np.arange(1, 7)
    exact = exact_cycle_cdf(net, levels)
    emp = empirical_cdf(sample.maxima, levels)
    for f, e in zip(exact, emp):
        sigma = math.sqrt(f * (1 - f) / sample.cycles)
        assert abs(e - f) <= 3 * sigma + 1e-12


def test_reduction_gap_depends_on_topology():
    # the reduced chain reproduces stationary totals, not the path law of the
    # maximum: feed-forward routing leaves a visible gap, exit-rich routing
    # leaves a negligible one
    t = tandem(0.3)
    d_t = CycleMaxDistribution(norton_reduce(t, n_max=80).induced)
    gap_tandem = abs(d_t.cdf(1) - exact_cycle_cdf(t, [1])[0])
    assert gap_tandem > 0.02

    m = mixed()
    d_m = CycleMaxDistribution(norton_reduce(m, n_max=120).induced)
    levels = range(1, 8)
    gap_mixed = max(abs(d_m.cdf(n) - x) for n, x in zip(levels, exact_cycle_cdf(m, levels)))
    assert gap_mixed < 1e-3


def test_network_json_round_trip(tmp_path):
    path = tmp_path / "net.json"
    save_network(mixed(), path)
    back = load_network(path)
    assert back.mu0 == 0.25
    assert [st.kind for st in back.stations] == ["ss", "ms", "is"]
    assert np.allclose(back.routing_matrix, mixed().routing_matrix)
    again = network_from_dict(network_to_dict(back))
    assert np.allclose(station_loads(again), station_loads(mixed()))


def test_network_dict_rejects_bad_entries():
    with pytest.raises(SpecFormatError):
        network_from_dict({"mu0": 0.3, "stations": [{"kind": "queue", "mu": 1.0}], "routing": [[0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(SpecFormatError):
        network_from_dict({"mu0": 0.3, "stations": [{"kind": "ss", "mu": float("nan")}], "routing": [[0.0, 1.0], [1.0, 0.0]]})


def test_network_file_errors_are_spec_format_errors(tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"mu0": NaN, "stations": [{"kind": "ss", "mu": 1.0}], "routing": [[0, 1], [1, 0]]}')
    with pytest.raises(SpecFormatError, match="not permitted in network files"):
        load_network(bad)
    broken = tmp_path / "broken.json"
    broken.write_text('{"mu0": 0.3,')
    with pytest.raises(SpecFormatError):
        load_network(broken)
    with pytest.raises(SpecFormatError, match="missing field 'mu0'"):
        network_from_dict({"stations": [{"kind": "ss", "mu": 1.0}], "routing": [[0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(SpecFormatError, match="station 0: missing field 'mu'"):
        network_from_dict({"mu0": 0.3, "stations": [{"kind": "ss"}], "routing": [[0.0, 1.0], [1.0, 0.0]]})


def test_network_simulation_reproducible():
    a = simulate_network_cycles(twin(), SimConfig(seed=2, cycles=400))
    b = simulate_network_cycles(twin(), SimConfig(seed=2, cycles=400))
    assert np.array_equal(a.maxima, b.maxima)


def _one_jump_per_pass(net, cfg):
    """Reference network loop: one event per live cycle per pass."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    routing = net.routing_matrix
    routing_cdf = np.cumsum(routing, axis=1)
    mu_vec = np.array([st.mu for st in net.stations])
    s_vec = np.array([st.servers for st in net.stations])
    entry_cdf = np.cumsum(routing[0, 1:] / routing[0, 1:].sum())
    n, j = cfg.cycles, net.J
    state = np.zeros((n, j), dtype=np.int64)
    first = np.minimum((entry_cdf < rng.random((n, 1))).sum(axis=1), j - 1)
    state[np.arange(n), first] = 1
    total = np.ones(n, dtype=np.int64)
    peak = total.copy()
    out = np.empty(n, dtype=np.int64)
    slot = np.arange(n)
    escaped = 0
    while total.size:
        alive = total.size
        rates = np.column_stack([np.full(alive, net.mu0), mu_vec * np.minimum(state, s_vec)])
        cum = np.cumsum(rates, axis=1)
        actor = (cum < (rng.random(alive) * cum[:, -1])[:, None]).sum(axis=1)
        dest = np.minimum((routing_cdf[actor] < rng.random((alive, 1))).sum(axis=1), j)
        rows = np.arange(alive)
        leaving, entering = actor >= 1, dest >= 1
        state[rows[leaving], actor[leaving] - 1] -= 1
        state[rows[entering], dest[entering] - 1] += 1
        total = total + entering - leaving
        peak = np.maximum(peak, total)
        done, gone = total == 0, total >= cfg.escape_horizon
        out[slot[done]] = peak[done]
        out[slot[gone]] = -1
        escaped += int(gone.sum())
        live = ~(done | gone)
        total, peak, slot, state = total[live], peak[live], slot[live], state[live]
    return out[out > 0], escaped


def heavy_mixed():
    # the mixed routing under heavier traffic, so some cycles reach 12
    stations = (Station("ss", 2.0), Station("ms", 1.0, s=2), Station("is", 0.5))
    return NetworkSpec(mu0=1.0, stations=stations, routing=mixed().routing)


def assert_lattice_law(net, sample, levels, horizon=None):
    # P(max <= n) over all cycles and, given the horizon, the escapes, whose
    # maxima lie at or above it, against the absorbing-chain solve at 3 sigma
    levels = list(levels)
    emp = empirical_cdf(sample.maxima, levels, sample.cycles)
    want = exact_cycle_cdf(net, levels + ([horizon - 1] if horizon else []))
    if horizon:
        emp = np.append(emp, sample.escaped_fraction)
        want[-1] = 1.0 - want[-1]
    sigma = np.sqrt(want * (1.0 - want) / sample.cycles)
    assert np.all(np.abs(emp - want) <= 3.0 * sigma + 1e-12), (emp, want)


@pytest.mark.parametrize("horizon, escapes", [(1_000, False), (12, True)])
def test_network_simulation_matches_the_lattice_law(horizon, escapes):
    net = heavy_mixed()
    sample = simulate_network_cycles(net, SimConfig(seed=23, cycles=20_000, escape_horizon=horizon))
    assert sample.cycles == 20_000
    assert (sample.escaped > 0) == escapes
    assert_lattice_law(net, sample, range(1, 12), horizon if escapes else None)


def _five_stations():
    rng = np.random.default_rng(5)
    kinds = [Station("ss", 1.5), Station("ms", 0.8, s=2), Station("is", 0.6), Station("ms", 1.0, s=3)]
    stations = tuple(kinds[i] for i in rng.integers(0, 4, size=5))
    routing = rng.uniform(size=(6, 6))
    routing[1:, 0] += 0.5  # every station routes outside
    routing /= routing.sum(axis=1, keepdims=True)
    return NetworkSpec(mu0=0.5, stations=stations, routing=routing)


@pytest.mark.parametrize(
    "net, horizon",
    [
        (NetworkSpec(mu0=0.6, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (0.8, 0.2))), 12),
        (_five_stations(), 10),
    ],
    ids=["one-station", "five-stations"],
)
def test_network_simulation_matches_the_lattice_law_on_other_shapes(net, horizon):
    sample = simulate_network_cycles(net, SimConfig(seed=29, cycles=20_000, escape_horizon=horizon))
    assert sample.cycles == 20_000 and sample.escaped > 0
    assert_lattice_law(net, sample, range(1, horizon), horizon)


@pytest.mark.parametrize("cells", [16, 35 * 16], ids=["at-entry", "mid-call"])
def test_network_simulation_hands_off_past_the_cell_cap(monkeypatch, cells):
    # a cap below the first total's 4 states of 16 cells hands off before the
    # first pass; 35 x 16 cells hold the totals up to 4, and cycles climb past
    monkeypatch.setattr(simulate_module, "_TABLE_CELLS", cells)
    net = heavy_mixed()
    sample = simulate_network_cycles(net, SimConfig(seed=37, cycles=20_000, escape_horizon=12))
    assert net._event_table.totals == (-1 if cells == 16 else 4)
    assert sample.cycles == 20_000 and sample.escaped > 0
    assert_lattice_law(net, sample, range(1, 12), 12)


@pytest.mark.parametrize(
    "net, horizon, escapes",
    [(heavy_mixed(), 1_000, False), (heavy_mixed(), 12, True), (_five_stations(), 12, False)],
    ids=["mixed", "mixed-escapes", "five-stations"],
)
def test_per_event_step_equals_one_jump_per_pass(monkeypatch, net, horizon, escapes):
    # with no room for a table the whole call runs the per-event step after
    # the entry draw, and so draws as the reference loop does
    monkeypatch.setattr(simulate_module, "_TABLE_CELLS", 0)
    cfg = SimConfig(seed=23, cycles=2_000, escape_horizon=horizon)
    maxima, escaped = _one_jump_per_pass(net, cfg)
    sample = simulate_network_cycles(net, cfg)
    assert np.array_equal(sample.maxima, maxima)
    assert sample.escaped == escaped and (escaped > 0) == escapes


def test_occupancy_rank_inverts_the_enumeration():
    def cube(n_max, parts):  # the enumeration through the (n_max + 1)^parts cube
        grid = np.indices((n_max + 1,) * parts).reshape(parts, -1).T
        totals = grid.sum(axis=1)
        order = np.argsort(totals, kind="stable")
        return grid[order[totals[order] <= n_max]]

    for parts in range(1, 6):
        for n_max in (0, 1, 2, 7):
            occ = networks._occupancies(n_max, parts)
            assert np.array_equal(occ, cube(n_max, parts))
            assert np.array_equal(networks._rank(list(occ.T), n_max), np.arange(len(occ)))


def _occupancies_by_bars(n_max, parts):
    """The occupancy vectors read off the places of ``parts`` bars among
    n_max + parts slots, which itertools yields in lexicographic order, then
    sorted stably by total: the enumeration the masked build replaced."""
    count = math.comb(n_max + parts, parts)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n_max + parts), parts))
    bars = np.fromiter(flat, dtype=np.int64, count=count * parts).reshape(count, parts)
    occ = np.diff(bars, axis=1, prepend=-1) - 1
    return occ[np.argsort(bars[:, -1], kind="stable")]  # the last bar is total + parts - 1


def test_occupancies_are_the_enumeration_by_bars():
    # every size up to 12 totals, and the larger ones the tests and the benchmark build
    sizes = [(n_max, parts) for parts in range(1, 9) for n_max in range(13)]
    sizes += [(16, 5), (17, 3), (20, 3), (30, 3), (33, 3), (65, 3), (72, 3), (100, 2), (129, 2), (200, 2), (33, 1)]
    for n_max, parts in sizes:
        occ = networks._occupancies(n_max, parts)
        assert occ.dtype == np.int64 and np.array_equal(occ, _occupancies_by_bars(n_max, parts)), (n_max, parts)


@pytest.mark.parametrize(
    "net",
    [NetworkSpec(mu0=0.6, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (0.8, 0.2))), heavy_mixed(),
     _five_stations()],
    ids=["one-station", "mixed", "five-stations"],
)
def test_event_table_rows_rebuild_their_event_law(net):
    table = net._event_table
    assert table.grow(5, 1_000) and table.totals == 8
    states = [tuple(row) for row in networks._occupancies(table.totals + 1, net.J).tolist()]
    index = {state: i for i, state in enumerate(states)}
    routing = net.routing_matrix
    width = table.width
    assert table.bound.size == table.rows(table.totals) * width
    assert np.array_equal(table.after, [sum(states[i]) for i in table.next // width])
    for i, state in enumerate(states[: table.rows(table.totals)]):
        want = np.zeros(len(states))
        want[0] = i == 0  # the empty state absorbs: row 0 puts all its mass on itself
        for actor in range(net.J + 1 if i else 0):
            if actor == 0:
                rate = net.mu0
            else:
                st = net.stations[actor - 1]
                rate = st.mu * min(state[actor - 1], st.servers)
            for dest in range(net.J + 1):
                nxt = list(state)
                if rate * routing[actor, dest] > 0.0:
                    if actor:
                        nxt[actor - 1] -= 1
                    if dest:
                        nxt[dest - 1] += 1
                want[index[tuple(nxt)]] += rate * routing[actor, dest]
        want /= want.sum()
        keep = table.bound[i * width : (i + 1) * width] - np.arange(width)
        assert np.all((keep >= 0.0) & (keep <= 1.0))
        pairs = table.next[2 * i * width : 2 * (i + 1) * width].reshape(width, 2) // width
        got = np.zeros(len(states))
        np.add.at(got, pairs[:, 1], keep / width)
        np.add.at(got, pairs[:, 0], (1.0 - keep) / width)
        assert np.max(np.abs(got - want)) <= 1e-15


def test_event_table_growth_keeps_the_rows_held():
    table = heavy_mixed()._event_table
    assert table.grow(1, 1_000) and table.totals == 8
    held = [a.copy() for a in (table.bound, table.next, table.after)]
    assert table.grow(9, 1_000) and table.totals == 16
    assert table.grow(17, 30) and table.totals == 29  # within the horizon
    assert table.bound.size == table.rows(29) * table.width
    assert table.next.size == table.after.size == 2 * table.bound.size
    for old, new in zip(held, (table.bound, table.next, table.after)):
        assert np.array_equal(new[: old.size], old)
    assert table.next.max() < table.rows(30) * table.width and table.after.max() == 30


def test_event_table_growth_memory_is_bounded():
    # the alias rows are built a few cells at a time: growing the mixed
    # network's table from 16 to 32 totals adds 2.4 MiB and peaked at 14.6 MiB
    # when each chunk held 2^16 cells
    table = mixed()._event_table
    assert table.grow(9, 1_000) and table.totals == 16
    tracemalloc.start()
    try:
        assert table.grow(17, 1_000) and table.totals == 32
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("horizon, hands_off", [(30, False), (100, True)], ids=["table", "hand-off"])
def test_warm_and_fresh_tables_draw_alike(monkeypatch, horizon, hands_off):
    # the events of a pass follow from the live totals alone, never from the
    # totals an earlier call left in the table, so a network whose table was
    # grown past 32 totals draws as a fresh one does
    warm = mixed(1.0)
    simulate_network_cycles(warm, SimConfig(seed=1, cycles=300, escape_horizon=100))
    assert warm._event_table.totals > 32
    steps = []
    event_step = networks._event_step
    monkeypatch.setattr(networks, "_event_step", lambda *args: steps.append(args) or event_step(*args))
    cfg = SimConfig(seed=43, cycles=1_000, escape_horizon=horizon)
    fresh = simulate_network_cycles(mixed(1.0), cfg)
    assert len(steps) == hands_off
    again = simulate_network_cycles(warm, cfg)
    assert np.array_equal(fresh.maxima, again.maxima) and fresh.escaped == again.escaped
    assert len(steps) == 2 * hands_off


def test_blocks_stop_at_the_horizon():
    # one single server at load 1.25 with self-routing: its total is exactly
    # its induced chain.  A pass moves fewer than four events where the
    # highest total is within four of the horizon, and a fifth of the cycles
    # escape there.
    net = NetworkSpec(mu0=1.0, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (0.8, 0.2)))
    cfg = SimConfig(seed=47, cycles=20_000, escape_horizon=12)
    sample = simulate_network_cycles(net, cfg)
    levels = np.arange(1, 12)
    exact = CycleMaxDistribution(norton_reduce(net, 12).induced).cdf(levels)
    exact = np.append(exact, 1.0 - exact[-1])  # escapes: the maximum reaches 12
    emp = np.append(empirical_cdf(sample.maxima, levels, sample.cycles), sample.escaped_fraction)
    sigma = np.sqrt(exact * (1.0 - exact) / sample.cycles)
    assert 0.15 < sample.escaped_fraction < 0.25
    assert np.all(np.abs(emp - exact) <= 3.0 * sigma + 1e-12)


class _Reads(np.ndarray):
    """An event table's ``bound`` that tells ``on_read`` the cells each pass reads."""

    on_read = None

    def take(self, cell, *args, **kwargs):
        _Reads.on_read(cell)
        return np.asarray(self).take(cell, *args, **kwargs)


def _event_counts(monkeypatch, net, cfg):
    # the events of each cycle: its table reads from a state other than the
    # empty one (cells from the table width on), and one a pass after the
    # hand-off to the per-event step.  Each cycle carries its index through
    # the driver, so the reads of a pass, in the order of the live cycles,
    # are charged to their cycles.
    events = np.zeros(cfg.cycles, dtype=np.int64)
    live = [None]
    width = net._event_table.width

    def on_read(cell):
        events[live[0]] += cell >= width

    def counted(n_cycles, top, advance, *rest):
        def counting(level, peak, *arrays):
            *arrays, live[0] = arrays
            before = events.sum()
            advance(level, peak, *arrays)
            if events.sum() == before:  # no table read: the per-event step
                events[live[0]] += 1

        return run_cycles(n_cycles, top, counting, *rest, np.arange(n_cycles))

    def bound(table):
        return table.__dict__["bound"].view(_Reads)

    def set_bound(table, value):
        table.__dict__["bound"] = np.asarray(value)

    run_cycles = simulate_module._run_cycles
    monkeypatch.setattr(simulate_module, "_run_cycles", counted)
    monkeypatch.setattr(networks._EventTable, "bound", property(bound, set_bound), raising=False)
    monkeypatch.setattr(_Reads, "on_read", staticmethod(on_read))
    sample = simulate_network_cycles(net, cfg)
    return sample, events


_SELF_ROUTED = NetworkSpec(mu0=0.6, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (0.8, 0.2)))


@pytest.mark.parametrize(
    "net",
    [tandem(0.5), mixed(), _SELF_ROUTED, _five_stations()],
    ids=["tandem", "mixed", "one-station", "five-stations"],
)
def test_kac_charge_matches_the_simulated_event_count(monkeypatch, net):
    # the horizon does not bind: the charge is Kac's ((1 + sum v_i) Z - 1) / (1 - r_00);
    # the five-station network routes a share r_00 of its arrivals straight outside
    cfg = SimConfig(seed=41, cycles=20_000)
    sample, events = _event_counts(monkeypatch, net, cfg)
    assert sample.escaped == 0
    mean, sd = events.mean(), events.std()
    want = math.exp(networks._log_events_per_cycle(net, cfg.escape_horizon))
    assert abs(mean - want) <= 3.0 * sd / math.sqrt(cfg.cycles)


def test_long_network_cycles_are_refused_before_the_first_draw(monkeypatch):
    # a tandem of two infinite-server stations at load 20 each: a busy cycle
    # holds about 3 e^40 events
    net = NetworkSpec(mu0=20.0, stations=(Station("is", 1.0), Station("is", 1.0)),
                      routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)))
    monkeypatch.setattr(np.random, "default_rng", None)  # no generator may be built
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="budget"):
        simulate_network_cycles(net, SimConfig(seed=1, cycles=10))
    assert time.perf_counter() - start < 1.0
    assert networks._log_events_per_cycle(net, 1_000) == pytest.approx(math.log(3.0) + 40.0, rel=1e-12)


@pytest.mark.parametrize(
    "net, horizon",
    [(tandem(0.99), 100), (tandem(1.0), 100), (tandem(1.5), 20), (tandem(1.5), 200), (mixed(1.0), 100)],
    ids=["tandem-0.99", "tandem-1", "tandem-1.5-h20", "tandem-1.5-h200", "mixed-1"],
)
def test_charge_follows_the_simulated_event_count_where_the_horizon_binds(monkeypatch, net, horizon):
    # the walk of the total to the horizon, scaled by events per arrival,
    # where Kac's sum overcharges or does not converge
    cfg = SimConfig(seed=41, cycles=4_000, escape_horizon=horizon)
    _, events = _event_counts(monkeypatch, net, cfg)
    charge = math.exp(networks._log_events_per_cycle(net, horizon))
    assert 0.8 <= charge / events.mean() <= 1.25


def test_overloaded_networks_are_charged_to_the_horizon(monkeypatch):
    # beta mu0 >= 1: Kac's sum does not converge, the walk to the horizon does
    net = tandem(1.5)
    assert network_beta(net)[0] * net.mu0 >= 1.0
    sample = simulate_network_cycles(net, SimConfig(seed=3, cycles=200, escape_horizon=20))
    assert sample.cycles == 200 and sample.escaped > 0
    monkeypatch.setattr(np.random, "default_rng", None)  # no generator may be built
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="budget"):
        simulate_network_cycles(net, SimConfig(seed=1, cycles=1_000, escape_horizon=10**5))
    assert time.perf_counter() - start < 1.0


def test_long_one_station_cycles_are_refused_before_the_first_draw():
    # the total of one infinite-server station at load 20 is mminf(20, 1)
    net = NetworkSpec(mu0=20.0, stations=(Station("is", 1.0),), routing=((0.0, 1.0), (1.0, 0.0)))
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="budget"):
        simulate_network_cycles(net, SimConfig(seed=1, cycles=100, escape_horizon=200))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("stations", [(Station("ss", 1.0),), mixed().stations], ids=["one", "three"])
def test_explicit_weight_networks_are_not_simulated(monkeypatch, stations):
    # the simulator follows station rates; explicit weights would be ignored
    routing = ((0.0, 1.0), (0.8, 0.2)) if len(stations) == 1 else mixed().routing
    net = NetworkSpec(0.6, stations, routing, psi=lambda occ: 1.0, phi=lambda occ: 1.0)
    monkeypatch.setattr(np.random, "default_rng", None)  # no generator may be built
    with pytest.raises(NonSeparableError, match="explicit weights"):
        simulate_network_cycles(net, SimConfig(seed=1, cycles=100))


@pytest.mark.parametrize(
    "net, cfg",
    [
        (NetworkSpec(mu0=0.6, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (0.8, 0.2))),
         SimConfig(seed=31, cycles=3_000)),
        (NetworkSpec(mu0=2.0, stations=(Station("is", 1.0),), routing=((0.0, 1.0), (0.5, 0.5))),
         SimConfig(seed=32, cycles=3_000)),
        (NetworkSpec(mu0=1.5, stations=(Station("ms", 1.0, s=2),), routing=((0.0, 1.0), (1.0, 0.0))),
         SimConfig(seed=33, cycles=3_000, escape_horizon=50)),
    ],
    ids=["ss", "is", "ms"],
)
def test_one_station_budget_leaves_the_draws_unchanged(monkeypatch, net, cfg):
    # the charge draws nothing: the call equals one without it, and the total
    # of one station, its induced chain, has the induced chain's law
    sample = simulate_network_cycles(net, cfg)
    charged = []
    monkeypatch.setattr(simulate_module, "_charge", lambda *args: charged.append(args))
    free = simulate_network_cycles(net, cfg)
    assert len(charged) == 1 and charged[0][1] == cfg.cycles
    assert np.array_equal(sample.maxima, free.maxima) and sample.escaped == free.escaped == 0
    levels = np.arange(1, 13)
    exact = CycleMaxDistribution(norton_reduce(net, cfg.escape_horizon).induced).cdf(levels)
    sigma = np.sqrt(exact * (1.0 - exact) / cfg.cycles)
    assert np.all(np.abs(empirical_cdf(sample.maxima, levels) - exact) <= 3.0 * sigma + 1e-12)


def per_index_log_convolve(la, lb, n_hi):
    # the per-coefficient convolution loop, kept as the reference of the aggregation
    out = np.empty(min(la.size + lb.size - 1, n_hi + 1))
    for k in range(out.size):
        lo = max(0, k - lb.size + 1)
        hi = min(k, la.size - 1)
        terms = la[lo : hi + 1] + lb[k - lo : k - hi - 1 if k > hi else None : -1]
        peak = terms.max()
        out[k] = peak + math.log(float(np.sum(np.exp(terms - peak))))
    return out


def per_index_fold(net, n_max):
    # log Psi as a left fold of the per-index convolution over the station sequences
    n = np.arange(n_max + 1)
    out = None
    for st, r in zip(net.stations, station_loads(net)):
        seq = np.asarray(st.weight_sequence().log_value(n), dtype=float) + n * math.log(r)
        out = seq if out is None else per_index_log_convolve(out, seq, n_max)
    return out


def loaded(*stations):
    """A ring of stations given as (kind, load, servers); each is visited once."""
    net = ring([1.0 / load for _, load, _ in stations])
    kinds = tuple(Station(kind, st.mu, s=s) for (kind, _, s), st in zip(stations, net.stations))
    return NetworkSpec(mu0=net.mu0, stations=kinds, routing=net.routing)


def random_network(rng, J):
    # every station routes outside with probability 0.3-0.6; per-server loads in [0.3, 0.7]
    routing = np.zeros((J + 1, J + 1))
    routing[0, 1:] = rng.dirichlet(np.ones(J))
    for i in range(1, J + 1):
        out = rng.uniform(0.3, 0.6)
        routing[i, 0] = out
        routing[i, 1:] = (1.0 - out) * rng.dirichlet(np.ones(J))
    throughput = solve_traffic(routing)
    stations = []
    for i in range(J):
        kind = ("ss", "ms", "is")[i % 3]
        s = 2 + i % 2 if kind == "ms" else None
        load = rng.uniform(0.3, 0.7) * (s or 1)
        stations.append(Station(kind, float(throughput[i] / load), s=s))
    return NetworkSpec(mu0=0.25, stations=tuple(stations), routing=routing)


def test_log_aggregate_constants_matches_per_index_fold():
    rng = np.random.default_rng(11)
    cases = [(random_network(rng, J), n_max) for J, n_max in ((2, 2000), (3, 500), (6, 500), (8, 500))]
    cases += [
        (loaded(("ss", 0.6, None), ("ss", 0.6, None)), 2000),  # coincident loads
        (loaded(("ss", 1.8, None), ("ms", 3.0, 2), ("ss", 0.5, None)), 2000),  # loads above 1 per server
        (loaded(("is", 0.7, None), ("ss", 1.8, None)), 2000),
        (loaded(("is", 700.0, None), ("ss", 1.8, None)), 2000),  # a large infinite-server load
        (loaded(("ms", 5.0, 8), ("is", 2.0, None), ("ss", 0.9, None)), 300),
        (loaded(("ms", 30.0, 400), ("is", 3.0, None)), 300),  # s > n_max + 1: all head terms
        (loaded(("ms", 0.6, 2), ("ss", 0.01, None), ("ss", 0.999, None)), 2000),  # widely spread loads
        (mixed(), 0),
        (mixed(), 1),
        (mixed(), 2000),
    ]
    for net, n_max in cases:
        got, got_phi = networks.log_aggregate_constants(net, n_max)
        want = per_index_fold(net, n_max)
        assert got.shape == want.shape == (n_max + 1,)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))
        assert np.array_equal(got, got_phi)


def decimal_log_constants(net, n_max):
    # 60-digit convolution of the station weights rho^t psi(t), from their float loads
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        psi = [decimal.Decimal(1)] + [decimal.Decimal(0)] * n_max
        for st, r in zip(net.stations, station_loads(net)):
            w = [decimal.Decimal(1)]
            for t in range(1, n_max + 1):
                w.append(w[-1] * decimal.Decimal(float(r)) / decimal.Decimal(min(t, st.servers)))
            psi = [sum(psi[i] * w[k - i] for i in range(k + 1)) for k in range(n_max + 1)]
        return np.array([float(v.ln()) for v in psi])


def test_log_aggregate_constants_match_a_decimal_reference():
    # rounding in float64 grows with the magnitude of the logs it combines; 1e-13
    # relative to max(|log Psi|, 1) is about 450 ulps, far above it and far below
    # any error in the method
    rng = np.random.default_rng(17)
    for net, n_max in (
        (mixed(), 300),
        (random_network(rng, 4), 300),
        (loaded(("ss", 1.0, None), ("ss", 0.01, None)), 300),
        (loaded(("ss", 1.3, None), ("ms", 2.6, 2)), 300),
        (loaded(("ms", 0.6, 400), ("is", 40.0, None)), 300),
        (loaded(("ss", 1.8, None), ("ss", 1.5, None), ("is", 700.0, None)), 200),
    ):
        want = decimal_log_constants(net, n_max)
        got, _ = networks.log_aggregate_constants(net, n_max)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


def per_point_lattice(net, n_max):
    # the scalar lattice summation the array oracle replaced, kept as its reference
    log_rho = np.log(station_loads(net))
    psi_fn, phi_fn = net.psi, net.phi
    if psi_fn is None:
        seqs = [st.weight_sequence() for st in net.stations]

        def psi_fn(occ):
            return math.exp(sum(float(s.log_value(k)) for s, k in zip(seqs, occ)))

        phi_fn = psi_fn
    log_psi, log_phi = np.empty(n_max + 1), np.empty(n_max + 1)
    for total in range(n_max + 1):
        points = list(compositions(total, net.J))
        weight = np.array([float(np.dot(occ, log_rho)) for occ in points])
        terms_psi = np.log([float(psi_fn(occ)) for occ in points]) + weight
        terms_phi = np.log([float(phi_fn(occ)) for occ in points]) + weight
        log_psi[total] = np.logaddexp.reduce(terms_psi)
        log_phi[total] = np.logaddexp.reduce(terms_phi)
    return log_psi, log_phi


def explicit(psi, phi):
    base = mixed()
    return NetworkSpec(mu0=base.mu0, stations=base.stations, routing=base.routing, psi=psi, phi=phi)


def test_lattice_oracle_matches_per_point_loop():
    def psi(occ):
        return 1.0 / (1.0 + occ[0] * occ[1]) + math.exp(-sum(occ))

    def phi(occ):
        return 1.0 + 0.1 * occ[2]

    for net in (mixed(), ring([5.0, 2.0]), explicit(psi, phi), explicit(psi, psi)):
        for n_max in (0, 1, 7, 20):
            got = networks._lattice_log_constants(net, n_max)
            want = per_point_lattice(net, n_max)
            for g, w in zip(got, want):
                assert np.allclose(g, w, rtol=0.0, atol=1e-13)


def test_lattice_oracle_calls_each_weight_once_per_point():
    calls = []

    def psi(occ):
        calls.append(occ)
        return 1.0 + occ[0]

    networks._lattice_log_constants(explicit(psi, psi), 20)
    assert len(calls) == math.comb(20 + 3, 3)
    assert len(set(calls)) == len(calls) and all(type(k) is int for k in calls[-1])


def test_lattice_oracle_rejects_a_zero_weight():
    def psi(occ):
        return 0.0 if occ == (1, 0, 2) else 1.0

    with pytest.raises(SpecFormatError, match=r"\(1, 0, 2\)"):
        lattice_constants(explicit(psi, lambda occ: 1.0), 5)
    with pytest.raises(SpecFormatError, match=r"\(0, 0, 0\)"):
        lattice_constants(explicit(lambda occ: 1.0, lambda occ: math.inf), 3)


def test_log_aggregate_constants_memory_is_bounded():
    rng = np.random.default_rng(5)
    routing = np.zeros((4, 4))
    routing[0, 1:] = rng.dirichlet(np.ones(3))
    for i in range(1, 4):
        routing[i, 0] = 0.4
        routing[i, 1:] = 0.6 * rng.dirichlet(np.ones(3))
    net = NetworkSpec(
        mu0=0.25,
        stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
        routing=tuple(map(tuple, routing)),
    )
    station_loads(net)
    tracemalloc.start()
    try:
        networks.log_aggregate_constants(net, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_station_loads_are_solved_once_and_read_only(monkeypatch):
    solves = []
    real = networks.solve_traffic

    def counting(routing):
        solves.append(1)
        return real(routing)

    monkeypatch.setattr(networks, "solve_traffic", counting)
    net = mixed()
    red = norton_reduce(net, 60)
    assert len(solves) == 1
    loads = station_loads(net)
    assert loads is station_loads(net)
    assert red.rho == tuple(float(r) for r in loads)
    with pytest.raises(ValueError):
        loads[0] = 1.0


def test_reduction_past_the_float_range_warns_nothing():
    net = ring([0.5, 0.4])  # loads 2 and 2.5: log Psi(1000) is about 916
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        red = norton_reduce(net, 1000)
        psi, _ = aggregate_constants(net, 1000)
    assert red.log_psi[-1] > 900 and np.all(np.isfinite(red.log_psi))
    assert np.isinf(red.psi[-1]) and np.isinf(psi[-1]) and np.isfinite(red.psi[300])
    assert math.isinf(red.induced.psi.values[-1])
    with pytest.raises(SpecFormatError, match="overflow"):
        red.induced.psi.to_json()
