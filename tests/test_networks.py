import math

import numpy as np
import pytest

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
    NotIrreducibleError,
    SpecFormatError,
)


def tandem(mu0=0.3, mu=1.0):
    return NetworkSpec(
        mu0=mu0,
        stations=(Station("ss", mu), Station("ss", mu)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )


def mixed():
    # every station routes outside, loads 0.625 / 0.3875 / 0.775
    return NetworkSpec(
        mu0=0.25,
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
    psi, _ = aggregate_constants(net, 12)
    total = 0.5 + 1.0 + 1.5
    for n in range(13):
        assert psi[n] == pytest.approx(total**n / math.factorial(n), rel=1e-12)
    assert network_beta(net) == (0.0, 3)


def test_network_beta_multiplicity():
    beta, mult = network_beta(ring([5.0, 2.0, 1.25]))
    assert beta == pytest.approx(0.8)
    assert mult == 1
    beta2, mult2 = network_beta(twin())
    assert beta2 == pytest.approx(0.5)
    assert mult2 == 2


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


@pytest.mark.parametrize("horizon, escapes", [(1_000, False), (12, True)])
def test_network_simulation_equals_one_jump_per_pass(horizon, escapes):
    # the mixed routing under heavier traffic, so some cycles reach 12
    stations = (Station("ss", 2.0), Station("ms", 1.0, s=2), Station("is", 0.5))
    net = NetworkSpec(mu0=1.0, stations=stations, routing=mixed().routing)
    cfg = SimConfig(seed=23, cycles=2_000, escape_horizon=horizon)
    maxima, escaped = _one_jump_per_pass(net, cfg)
    sample = simulate_network_cycles(net, cfg)
    assert np.array_equal(sample.maxima, maxima)
    assert sample.escaped == escaped
    assert (escaped > 0) == escapes
