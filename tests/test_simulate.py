import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclemax.simulate as simulate_module
from cyclemax import (
    BirthDeathSpec,
    CallableSequence,
    CycleMaxDistribution,
    NetworkSpec,
    OnesSequence,
    SimConfig,
    Station,
    TableSequence,
    empirical_cdf,
    ks_two_sample,
    mm1,
    mminf,
    mms,
    sample_maxima,
    simulate_cycle,
    simulate_cycles,
    simulate_network_cycles,
    verify_as_convergence,
)
from cyclemax.bdp import _MAX_LEVELS
from cyclemax.errors import EscapedCycleError, NotApplicableError
from cyclemax.distribution import _LawTables, _as_dist
from cyclemax.simulate import (
    ESCAPED,
    _bucket_search,
    _inversion_table,
    _run_cycles,
    _simulate_batch,
)


# (spec, escape horizon, whether 1,000 cycles under seed 31 see an escape)
_CHAINS = [
    (mm1(0.95, 1.0), 1_000, False),
    (mm1(1.0, 1.0), 200, True),
    (mm1(1.5, 1.0), 600, True),
    (mms(3, 2.0, 1.0), 1_000, False),
    (mminf(2.0, 1.0), 1_000, False),
    (mm1(0.9, 1.0, cap=5), 1_000, False),
    # psi(n) = 2 n^2 from n = 1 at rho = 1.2: the up-step probability varies at
    # every level, and a cycle escapes with probability about 0.64
    (BirthDeathSpec(TableSequence([1.0, 2.0], 1.0, poly_degree=2), TableSequence([1.0], 1.0), 1.2, 1.0),
     200, True),
    # up-step odds 3, 2/3, 2, 1/4 below 5 and 0.7 from 5 on
    (BirthDeathSpec(TableSequence([1.0, 3.0, 2.0, 4.0, 1.0], 0.7), TableSequence([1.0], 0.5), 1.0, 1.0),
     1_000, False),
    # a head of 19 levels below the run, each compared with a cycle's draw
    (mms(20, 15.0, 1.0), 1_000, False),
]
_CHAIN_IDS = ["mm1-0.95", "mm1-critical", "mm1-transient", "mms3", "mminf", "mm1-capped", "table-transient",
              "table", "mms20"]


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=-1)
    with pytest.raises(ValueError):
        SimConfig(cycles=0)
    with pytest.raises(ValueError):
        SimConfig(escape_horizon=5)
    with pytest.raises(ValueError):
        SimConfig(seed=2**64)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("cycles", 2.5), ("escape_horizon", 100.5), ("seed", True), ("cycles", True),
     ("escape_horizon", 100.0)],
)
def test_config_rejects_values_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{field: value})
    SimConfig(**{field: np.int64(100)})  # numpy integers pass


def test_empirical_cdf_counts_escapes_and_refuses_an_empty_sample():
    assert np.allclose(empirical_cdf(np.array([1, 2]), [1, 2, 3], cycles=4), [0.25, 0.5, 0.5])
    assert np.array_equal(empirical_cdf(np.array([], dtype=int), [1, 2], cycles=3), [0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        empirical_cdf(np.array([], dtype=int), [1, 2])
    with pytest.raises(ValueError, match="cycles must be an integer"):
        empirical_cdf(np.array([1, 2]), [1], cycles=2.5)
    with pytest.raises(ValueError, match="1 cycles cannot hold 2 maxima"):
        empirical_cdf(np.array([1, 2]), [2], cycles=1)


def test_single_cycle_maximum_is_positive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = simulate_cycle(mm1(0.5, 1.0), rng)
        assert m >= 1


def test_single_cycle_needs_a_horizon_of_ten():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="at least 10"):
        simulate_cycle(mm1(0.5, 1.0), rng, escape_horizon=9)
    assert simulate_cycle(mm1(0.5, 1.0), rng, escape_horizon=10) >= 1


class Recording:
    """Generator wrapper that keeps a copy of every array of uniforms it
    hands out (the simulator may overwrite its draws)."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        self.draws.append(u.copy())
        return u


def _excursion_top(p, v, cap):
    """J of a walk from 1 under up-step probability p, stopped at 0 or cap:
    the largest j <= cap whose ruin probability 1 / sum_{i<j} r^i of reaching
    j before 0 is at least v, found by summing the powers of r."""
    r = (1.0 - p) / p
    j, total, term = 1, 1.0, 1.0
    while j < cap:
        term *= r
        if 1.0 / (total + term) < v:
            break
        total += term
        j += 1
    return j


def _run_maximum(p_at, n_flat, u, top):
    """The maximum of one cycle of a chain whose up-step probability is
    p_at[n_flat] from n_flat on, from its uniform u, in closed form with
    S(j) = sum_{i<=j} 1/w(i) summed from the odds of p_at, 1/w(i) =
    prod_{k<=i} (1 - p_at[k]) / p_at[k].  With a = n_flat - 1 a cycle
    reaches n_flat with probability t = 1/S(a).  From u >= t its maximum is
    the count of j <= a with 1/S(j-1) above u.  From u < t it is a + J, where
    J is that of ``_excursion_top`` at h* = v q / (x + v q), x = u / t,
    v = 1 - x and q = 1 - S(a-1)/S(a); h* = v when q = 1 (M/M/1)."""
    a = n_flat - 1
    s, inv_w = [1.0], 1.0
    for k in range(1, a + 1):
        inv_w *= (1.0 - p_at[k]) / p_at[k]
        s.append(s[-1] + inv_w)
    t = 1.0 / s[a]
    if u >= t:
        return sum(1.0 / s[j - 1] > u for j in range(1, a + 1))
    q = inv_w / s[a]
    x = u / t
    v = 1.0 - x
    return a + _excursion_top(p_at[n_flat], v if q == 1.0 else v * q / (x + v * q), top - a)


def _block_outcome(table, level, u):
    """(rise, high) of one cycle's block from ``level``, read from the block
    table with its uniform u: cell floor(u width) of the row, kept when
    u width lies below its bound, else its alias."""
    scaled = u * table.width
    cell = level * table.width + int(scaled)
    entry = 2 * cell + (scaled < table.bound[cell])
    return int(table.rise[entry]), int(table.high[entry])


def _rate_up_probabilities(spec, top, n_flat):
    """P(step up | leave n) on 0..top-1 from the birth and death rates, 0 at
    level 0: independent of the weight table the simulator reads.  From the
    tables' n_flat on it must be constant, to 1e-15 per unit of the log
    weights the rates exponentiate, each of which carries its own rounding."""
    p = [0.0] + [b / (b + d) for b, d in ((spec.birth_rate(n), spec.death_rate(n)) for n in range(1, top))]
    if n_flat is not None:
        n = np.arange(n_flat, top)
        scale = 1.0 + sum(np.abs(w.log_value(m)) for w, m in ((spec.psi, n), (spec.psi, n - 1), (spec.phi, n)))
        assert np.all(np.abs(np.array(p[n_flat:]) - p[n_flat]) <= 1e-15 * scale)
    return p


def _replay(spec, cycles, horizon, draws):
    """Reference: the (maxima, escaped) that ``draws`` give when each
    cycle is moved alone in a Python loop, with up-step probabilities from
    the rates (``_rate_up_probabilities``) and n_flat from the walk tables.

    Each draw is for the live cycles in cycle order.  With a constant run
    the one 1-D draw gives each cycle its maximum (``_run_maximum``).
    Otherwise a run of 1-D draws, one per slice of _SLICE live cycles, moves
    each cycle by one block, its uniform decoded through the block table
    (``_block_outcome``).  A 2-D (B, live) draw moves column j's cycle until
    it reaches 0 or the top, or until the column ends.  A cycle that reaches
    a cap below the horizon has its maximum and ends there.
    """
    capped = spec.cap is not None and spec.cap < horizon
    top = spec.cap if capped else horizon
    level, peak = [1] * cycles, [1] * cycles
    if top == 1:
        assert not draws
        return np.array(peak, dtype=np.int64), 0
    tables = simulate_module._walk_tables(spec, top)
    n_flat = tables.n_flat
    p_at = _rate_up_probabilities(spec, top, n_flat)
    live = list(range(cycles))
    draws = iter(draws)
    for u in draws:
        if u.ndim == 2:
            assert n_flat is None and u.shape[1] == len(live)
            for j, i in enumerate(live):
                for x in u[:, j].tolist():
                    level[i] += 1 if x < p_at[level[i]] else -1
                    peak[i] = max(peak[i], level[i])
                    if level[i] in (0, top):
                        break
        elif n_flat is not None:
            assert u.shape == (cycles,) and len(live) == cycles
            for i in live:
                peak[i] = _run_maximum(p_at, n_flat, float(u[i]), top)
                level[i] = top if peak[i] == top else 0
        else:
            size = simulate_module._SLICE
            slices = [live[lo : lo + size] for lo in range(0, len(live), size)]
            table = simulate_module._block_table(tables, max(level[i] for i in live))
            for k, cycles_here in enumerate(slices):
                u = u if k == 0 else next(draws)
                assert u.shape == (len(cycles_here),)
                for i, w in zip(cycles_here, u.tolist()):
                    rise, high = _block_outcome(table, level[i], w)
                    peak[i] = max(peak[i], level[i] + high)
                    level[i] += rise
        live = [i for i in live if 0 < level[i] < top]
    assert not live, "the draws ran out before every cycle finished"
    escaped = 0 if capped else sum(lv == top for lv in level)
    maxima = [pk for pk, lv in zip(peak, level) if lv == 0 or capped]
    return np.array(maxima, dtype=np.int64), escaped


@pytest.mark.parametrize("spec, horizon", [c[:2] for c in _CHAINS], ids=_CHAIN_IDS)
def test_single_cycles_equal_the_scalar_loop(spec, horizon):
    # successive calls share the generator, so each call's own draws must
    # give its result
    rng = Recording(np.random.default_rng(7))
    for _ in range(200):
        before = len(rng.draws)
        got = simulate_cycle(spec, rng, horizon)
        maxima, escaped = _replay(spec, 1, horizon, rng.draws[before:])
        assert got == (ESCAPED if escaped else int(maxima[0]))
        assert got is ESCAPED or isinstance(got, int)


def test_simulation_is_reproducible():
    cfg = SimConfig(seed=5, cycles=500)
    a = simulate_cycles(mm1(0.7, 1.0), cfg)
    b = simulate_cycles(mm1(0.7, 1.0), cfg)
    assert np.array_equal(a.maxima, b.maxima)
    c = simulate_cycles(mm1(0.7, 1.0), SimConfig(seed=6, cycles=500))
    assert not np.array_equal(a.maxima, c.maxima)


def test_empirical_cdf_matches_exact_law():
    spec = mms(2, 1.4, 1.0)
    sample = simulate_cycles(spec, SimConfig(seed=9, cycles=20_000))
    dist = CycleMaxDistribution(spec)
    levels = np.arange(1, 11)
    emp = empirical_cdf(sample.maxima, levels)
    for lev, e in zip(levels, emp):
        f = dist.cdf(int(lev))
        sigma = math.sqrt(f * (1 - f) / sample.cycles)
        assert abs(e - f) <= 3 * sigma + 1e-12


def test_escape_fraction_matches_transience():
    sample = simulate_cycles(mm1(2.0, 1.0), SimConfig(seed=3, cycles=10_000, escape_horizon=400))
    assert abs(sample.escaped_fraction - 0.5) < 0.02
    assert sample.cycles == 10_000
    assert sample.maxima.size + sample.escaped == 10_000


def test_empirical_cdf_by_hand():
    maxima = np.array([1, 1, 2, 5])
    got = empirical_cdf(maxima, [1, 2, 3, 5])
    assert np.allclose(got, [0.5, 0.75, 0.75, 1.0])


def test_ks_statistic_extremes():
    a = np.array([1.0, 2.0, 3.0])
    assert ks_two_sample(a, a.copy()) == 0.0
    assert ks_two_sample(a, a + 10.0) == 1.0
    for empty in ((np.array([]), a), (a, np.array([]))):
        with pytest.raises(ValueError, match="empty"):
            ks_two_sample(*empty)


def test_inversion_sampler_follows_k_max_law():
    k = 100
    reps = 4000
    draws = sample_maxima(mm1(0.5, 1.0), k, reps, SimConfig(seed=21))
    again = sample_maxima(mm1(0.5, 1.0), k, reps, SimConfig(seed=21))
    assert np.array_equal(draws, again)
    for n in (8, 10, 12):
        f = (1.0 - 1.0 / (2.0 ** (n + 1) - 1.0)) ** k
        e = float(np.mean(draws <= n))
        sigma = math.sqrt(f * (1 - f) / reps)
        assert abs(e - f) <= 3 * sigma + 1e-12


def test_capped_chain_samples_respect_cap():
    draws = sample_maxima(mm1(0.9, 1.0, cap=5), 50, 2000, SimConfig(seed=13))
    assert draws.max() == 5
    assert draws.min() >= 1
    # remaining mass parks on the cap
    f4 = (CycleMaxDistribution(mm1(0.9, 1.0, cap=5)).cdf(4)) ** 50
    assert abs(float(np.mean(draws == 5)) - (1 - f4)) < 0.035


def test_jump_mode_agrees_with_inversion():
    spec = mm1(0.6, 1.0)
    inv = sample_maxima(spec, 40, 400, SimConfig(seed=17), mode="inversion")
    jump = sample_maxima(spec, 40, 400, SimConfig(seed=18), mode="jump")
    # 1% critical value for the two-sample statistic
    crit = 1.628 * math.sqrt(2.0 / 400.0)
    assert ks_two_sample(inv.astype(float), jump.astype(float)) < crit


def test_jump_mode_refuses_escaping_chains():
    with pytest.raises(EscapedCycleError):
        sample_maxima(mm1(2.0, 1.0), 20, 10, SimConfig(seed=1), mode="jump")


def test_jump_mode_is_reproducible():
    spec = mm1(0.5, 1.0)
    one = sample_maxima(spec, 25, 60, SimConfig(seed=8), mode="jump")
    again = sample_maxima(spec, 25, 60, SimConfig(seed=8), mode="jump")
    assert np.array_equal(one, again)
    other = sample_maxima(spec, 25, 60, SimConfig(seed=9), mode="jump")
    assert not np.array_equal(one, other)


@pytest.mark.parametrize("chunk", [24, 100])
def test_jump_mode_in_small_batches_agrees_with_inversion(monkeypatch, chunk):
    # k = 40 > 24 splits rows across batches; 100 holds two whole rows
    monkeypatch.setattr(simulate_module, "_JUMP_CHUNK", chunk)
    spec = mm1(0.6, 1.0)
    inv = sample_maxima(spec, 40, 400, SimConfig(seed=17), mode="inversion")
    jump = sample_maxima(spec, 40, 400, SimConfig(seed=18), mode="jump")
    crit = 1.628 * math.sqrt(2.0 / 400.0)
    assert ks_two_sample(inv.astype(float), jump.astype(float)) < crit


def test_jump_mode_raises_on_escape_in_a_later_batch(monkeypatch):
    batches = []

    def counted(*args):
        result = _simulate_batch(*args)
        batches.append(result[1])
        return result

    monkeypatch.setattr(simulate_module, "_JUMP_CHUNK", 16)
    monkeypatch.setattr(simulate_module, "_simulate_batch", counted)
    # about one cycle in 1023 reaches the horizon 10 at rho = 0.5
    with pytest.raises(EscapedCycleError):
        sample_maxima(mm1(0.5, 1.0), 8, 500, SimConfig(seed=1, escape_horizon=10), mode="jump")
    assert len(batches) > 1 and batches[0] == 0 and batches[-1] > 0


def _recorded_batch(spec, cycles, seed, horizon):
    """_simulate_batch under the generator ``simulate_cycles`` makes from seed,
    with the maxima and escapes its draws give under the replay reference."""
    rng = Recording(np.random.default_rng(np.random.SeedSequence([seed])))
    got = _simulate_batch(spec, cycles, rng, horizon)
    return got, _replay(spec, cycles, horizon, rng.draws)


@pytest.mark.parametrize("spec, horizon, escapes", _CHAINS, ids=_CHAIN_IDS)
def test_simulation_equals_one_jump_per_pass(spec, horizon, escapes):
    cfg = SimConfig(seed=31, cycles=1_000, escape_horizon=horizon)
    got, (maxima, escaped) = _recorded_batch(spec, cfg.cycles, cfg.seed, horizon)
    sample = simulate_cycles(spec, cfg)
    assert np.array_equal(sample.maxima, maxima) and np.array_equal(got[0], maxima)
    assert sample.escaped == got[1] == escaped
    assert (escaped > 0) == escapes


_SLICED = {
    "mms3": (mms(3, 2.0, 1.0), 1_000),
    "mminf": (mminf(2.0, 1.0), 1_000),
    "mms3-capped": (mms(3, 2.4, 1.0, cap=12), 1_000),
    "table": _CHAINS[_CHAIN_IDS.index("table")][:2],
}


@pytest.mark.parametrize("size", [3, 64])
@pytest.mark.parametrize("name", sorted(_SLICED))
def test_block_passes_in_slices_draw_what_one_slice_draws(monkeypatch, name, size):
    # 300 cycles fit one slice by default; in slices of 3 or 64 each block
    # draw holds at most that many uniforms, and the stream, so every
    # maximum, is the same.  A chain with a run draws once, whatever the
    # slice, and turns the draw into maxima slice by slice
    spec, horizon = _SLICED[name]
    whole = _simulate_batch(spec, 300, np.random.default_rng(np.random.SeedSequence([31])), horizon)
    monkeypatch.setattr(simulate_module, "_SLICE", size)
    rng = Recording(np.random.default_rng(np.random.SeedSequence([31])))
    got = _simulate_batch(spec, 300, rng, horizon)
    maxima, escaped = _replay(spec, 300, horizon, rng.draws)
    assert np.array_equal(got[0], whole[0]) and got[1] == whole[1] == escaped == 0
    assert np.array_equal(got[0], maxima)
    flat = [u.size for u in rng.draws if u.ndim == 1]
    if name == "mminf":
        assert max(flat) <= size and len(flat) > 300 // size
    else:
        assert [u.shape for u in rng.draws] == [(300,)]


def test_capped_overloaded_chain_retires_at_the_cap():
    # overloaded below its cap: a cycle that bounced at the cap would need
    # about 1.5^40 jumps to return
    spec = mms(3, 4.5, 1.0, cap=40)
    cfg = SimConfig(seed=1, cycles=10)

    class Bounded(Recording):
        def random(self, size=None, out=None):
            assert len(self.draws) < 10_000, "the cycles did not finish"
            return super().random(size, out=out)

    rng = Bounded(np.random.default_rng(np.random.SeedSequence([cfg.seed])))
    got = _simulate_batch(spec, cfg.cycles, rng, cfg.escape_horizon)
    sample = simulate_cycles(spec, cfg)
    maxima, escaped = _replay(spec, cfg.cycles, cfg.escape_horizon, rng.draws)
    assert np.array_equal(got[0], maxima) and np.array_equal(sample.maxima, maxima)
    assert got[1] == sample.escaped == escaped == 0
    assert maxima.max() == 40


def test_cycles_start_at_a_cap_of_one_and_draw_nothing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    assert [simulate_cycle(mm1(2.0, 1.0, cap=1), rng) for _ in range(3)] == [1, 1, 1]
    assert rng.bit_generator.state == before
    maxima, escaped = _replay(mm1(2.0, 1.0, cap=1), 3, 1_000, [])
    assert maxima.tolist() == [1, 1, 1] and escaped == 0


def _jump_mode_reference(spec, k, reps, cfg, chunk, batches):
    """Row maxima of the replayed batches of reps * k cycles, after checking
    that they hold whole rows, or chunk cycles when k > chunk."""
    total = reps * k
    batch = (chunk // k) * k if k <= chunk else chunk
    assert [n for n, _ in batches] == [min(batch, total - start) for start in range(0, total, batch)]
    maxima = []
    for n, draws in batches:
        got, escaped = _replay(spec, n, cfg.escape_horizon, draws)
        assert escaped == 0
        maxima.append(got)
    return np.concatenate(maxima).reshape(reps, k).max(axis=1)


@pytest.mark.parametrize("chunk", [16, 100, None])
@pytest.mark.parametrize("spec", [mm1(0.6, 1.0), mms(3, 2.1, 1.0)], ids=["mm1", "mms3"])
def test_jump_mode_equals_one_jump_per_pass(monkeypatch, spec, chunk):
    # k = 40 > 16 splits rows across batches; 100 holds two whole rows; the
    # default holds them all
    if chunk is not None:
        monkeypatch.setattr(simulate_module, "_JUMP_CHUNK", chunk)
    batches = []

    def recorded(spec, n_cycles, rng, horizon):
        rng = Recording(rng)
        batches.append((n_cycles, rng.draws))
        return _simulate_batch(spec, n_cycles, rng, horizon)

    monkeypatch.setattr(simulate_module, "_simulate_batch", recorded)
    cfg = SimConfig(seed=18)
    got = sample_maxima(spec, 40, 60, cfg, mode="jump")
    want = _jump_mode_reference(spec, 40, 60, cfg, simulate_module._JUMP_CHUNK, batches)
    assert np.array_equal(got, want)


_PRESETS = {
    "mm1": lambda rho, cap: mm1(rho, 1.0, cap=cap),
    "mms2": lambda rho, cap: mms(2, 2.0 * rho, 1.0, cap=cap),
    "mms3": lambda rho, cap: mms(3, 3.0 * rho, 1.0, cap=cap),
    "mminf": lambda rho, cap: mminf(3.0 * rho, 1.0, cap=cap),
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(0.2, 1.6),
    preset=st.sampled_from(sorted(_PRESETS)),
    cap=st.none() | st.integers(2, 12),
    horizon=st.integers(10, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulation_equals_one_jump_per_pass_on_generated_chains(rho, preset, cap, horizon, seed):
    spec = _PRESETS[preset](rho, cap)
    cfg = SimConfig(seed=seed, cycles=300, escape_horizon=horizon)
    got, (maxima, escaped) = _recorded_batch(spec, cfg.cycles, cfg.seed, horizon)
    sample = simulate_cycles(spec, cfg)
    assert np.array_equal(sample.maxima, maxima) and np.array_equal(got[0], maxima)
    assert sample.escaped == got[1] == escaped


def test_constant_rate_cycles_take_one_draw(monkeypatch):
    draws = []

    def recorded(seed, _make=np.random.default_rng):
        rng = Recording(_make(seed))
        draws.append(rng.draws)
        return rng

    cfg = SimConfig(seed=31, cycles=1_000, escape_horizon=200)
    runs = (mms(2, 1.4, 1.0), mms(3, 4.5, 1.0), mms(3, 2.1, 1.0).dual(), _CHAINS[_CHAIN_IDS.index("table")][0])
    for spec in (mm1(0.3, 1.0), mm1(1.0, 1.0), mm1(1.5, 1.0), mm1(0.9, 1.0, cap=5)) + runs:
        want = simulate_cycles(spec, cfg)
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", recorded)
            got = simulate_cycles(spec, cfg)
        assert [u.shape for u in draws[-1]] == [(1_000,)]  # every cycle ends in the first pass
        assert np.array_equal(got.maxima, want.maxima) and got.escaped == want.escaped
    # one transient M/M/s cycle, whether it stays below s, returns from its
    # excursions above s - 1 or escapes, is one uniform, whose closed form
    # gives its maximum
    spec = mms(3, 4.5, 1.0)
    seen = set()
    for seed in range(20):
        rng = Recording(np.random.default_rng(seed))
        got = simulate_cycle(spec, rng, 1_000)
        assert [u.shape for u in rng.draws] == [(1,)]
        maxima, escaped = _replay(spec, 1, 1_000, rng.draws)
        assert got == (ESCAPED if escaped else int(maxima[0]))
        seen.add("escaped" if got is ESCAPED else "below" if got < 3 else "run")
    assert seen == {"escaped", "below", "run"}


_LAW_CHAINS = [
    (mm1(1.0, 1.0), 200),
    (mm1(0.95, 1.0), 1_000),
    (mm1(1.5, 1.0), 600),
    (mms(2, 2.0, 1.0), 200),  # its constant run starts at 2, so excursions end at 1
    (mm1(1.3, 1.0, cap=60), 1_000),
    (mms(3, 4.5, 1.0), 1_000),
    _CHAINS[_CHAIN_IDS.index("table")][:2],
]


@pytest.mark.parametrize(
    "spec, horizon",
    _LAW_CHAINS,
    ids=["mm1-critical", "mm1-0.95", "mm1-transient", "mms2-critical", "mm1-capped", "mms3-transient", "table"],
)
def test_block_passes_follow_the_exact_law(spec, horizon):
    cycles = 20_000
    sample = simulate_cycles(spec, SimConfig(seed=47, cycles=cycles, escape_horizon=horizon))
    assert sample.cycles == cycles
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    dist = CycleMaxDistribution(spec)
    f_all = dist.cdf(np.arange(1, top))
    # the levels where the cdf first reaches each quantile, and the last level
    # below the horizon or cap, whose cdf counts every escape or capped cycle
    levels = {int(np.searchsorted(f_all, q)) + 1 for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99) if q <= f_all[-1]}
    levels = np.array(sorted(levels | {top - 1}))
    f = dist.cdf(levels)
    emp = np.searchsorted(np.sort(sample.maxima), levels, side="right") / cycles  # escapes lie above
    sigma = np.sqrt(f * (1 - f) / cycles)
    assert np.all(np.abs(emp - f) <= 3 * sigma + 1e-12)


def test_one_level_dependent_cycle_takes_a_handful_of_draws():
    # one mminf(8, 1) cycle to horizon 1000 is expected to take about 5,960
    # jumps, each a pass of its own without the scalar tail
    spec = mminf(8.0, 1.0)
    assert 5_900 < math.exp(simulate_module._log_expected_jumps(spec.log_psi_rho(np.arange(1_000)))) < 6_000
    for seed in range(5):
        rng = Recording(np.random.default_rng(seed))
        assert simulate_cycle(spec, rng, 1_000) >= 1
        assert 1 <= len(rng.draws) <= 12


_TABLE = _CHAINS[_CHAIN_IDS.index("table")][0]
_TRANSIENT_TABLE = _CHAINS[_CHAIN_IDS.index("table-transient")][0]


def _stepped_tables(spec, top):
    """The walk tables of (spec, top), or, for a chain with a constant run,
    tables that step its whole walk to the top as a chain without one does,
    with up-step probabilities from the rates: block tables serve only
    chains without a run, but their law holds on any walk."""
    tables = simulate_module._walk_tables(spec, top)
    if tables.n_flat is None:
        return tables
    return simulate_module._WalkTables(0.0, np.array(_rate_up_probabilities(spec, top, None)), None)


# (spec, top, start levels to check): chains without a constant run, walks
# that step through one (from 3), with a cap on either, and the table's walk,
# whose up-step odds vary below 5
_BLOCK_CHAINS = [
    (mminf(2.0, 1.0), 1_000, [1, 2, 3, 5, 17, 40]),
    (mms(3, 2.1, 1.0), 1_000, [1, 2, 3]),
    (mminf(2.0, 1.0, cap=12), 12, list(range(1, 12))),
    (mms(3, 4.5, 1.0, cap=40), 40, [1, 2, 3]),
    (_TABLE, 1_000, [1, 2, 3, 4, 5]),
]
_BLOCK_IDS = ["mminf2", "mms3", "mminf2-capped", "mms3-capped", "table"]


def _path_sum(p_at, x, d):
    """The law of d moves from x as a sum over all 2^d up/down patterns: a
    pattern's probability is the product of its moves', where a forced move
    (staying at 0 or at the top) has probability 1 for bit 0 and 0 for bit
    1.  Returns {(rise, high): probability}."""
    top = p_at.size
    bits = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1 == 1
    level = np.full(1 << d, x)
    high = level.copy()
    prob = np.ones(1 << d)
    for b in bits.T:
        stays = (level == 0) | (level == top)
        p = p_at[np.clip(level, 0, top - 1)]
        prob *= np.where(stays, ~b, np.where(b, p, 1.0 - p))
        level = np.where(stays, level, np.where(b, level + 1, level - 1))
        high = np.maximum(high, level)
    law = {}
    for key, pr in zip(zip((level - x).tolist(), (high - x).tolist()), prob.tolist()):
        if pr:
            law[key] = law.get(key, 0.0) + pr
    return law


def _dp_outcomes(p_at, x, d):
    law = simulate_module._block_law(p_at, np.array([x]), d)[0]
    return {(m - g, m): pr for (m, g), pr in np.ndenumerate(law) if pr}


@pytest.mark.parametrize("d", [16, 1])
@pytest.mark.parametrize("spec, top, levels", _BLOCK_CHAINS, ids=_BLOCK_IDS)
def test_block_law_equals_a_path_sum(spec, top, levels, d):
    tables = _stepped_tables(spec, top)
    for x in levels:
        want = _path_sum(tables.p_at, x, d)
        got = _dp_outcomes(tables.p_at, x, d)
        assert set(got) == set(want)
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-14
    # every row of a batch is computed as it would be alone
    law = simulate_module._block_law(tables.p_at, np.array(levels), d)
    for row, x in zip(law, levels):
        alone = simulate_module._block_law(tables.p_at, np.array([x]), d)[0]
        assert np.array_equal(row[: alone.shape[0]], alone) and not row[alone.shape[0] :].any()


def _table_outcomes(table, x):
    """{(rise, high): probability} that row x of a block table gives a
    uniform: cell c with probability keep / width and its alias with
    probability (1 - keep) / width, keep = bound - (c - x width)."""
    law = {}
    for c in range(x * table.width, (x + 1) * table.width):
        keep = table.bound[c] - (c - x * table.width)
        for entry, pr in ((2 * c + 1, keep), (2 * c, 1.0 - keep)):
            key = (int(table.rise[entry]), int(table.high[entry]))
            law[key] = law.get(key, 0.0) + pr / table.width
    return law


@pytest.mark.parametrize("spec, top, levels", _BLOCK_CHAINS, ids=_BLOCK_IDS)
def test_block_tables_rebuild_the_block_law(spec, top, levels):
    tables = _stepped_tables(spec, top)
    table = simulate_module._block_table(tables, max(levels))
    assert table.moves == simulate_module._BLOCK_MOVES and table.rows >= max(levels)
    assert table.width & (table.width - 1) == 0
    keep = table.bound - np.tile(np.arange(table.width), table.rows + 1)
    assert np.all((keep >= 0.0) & (keep <= 1.0))
    for x in sorted(set(levels) | set(range(1, min(table.rows, 20) + 1))):
        want = _dp_outcomes(tables.p_at, x, table.moves)
        got = _table_outcomes(table, x)
        assert max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)) <= 1e-15


def test_block_tables_grow_with_the_highest_level(monkeypatch):
    tables = simulate_module._walk_tables(mminf(2.0, 1.0), 1_000)
    first = simulate_module._block_table(tables, 1)
    assert first.rows == simulate_module._BLOCK_ROWS
    assert simulate_module._block_table(tables, first.rows) is first
    grown = simulate_module._block_table(tables, first.rows + 1)
    assert grown.rows == 2 * first.rows and tables.blocks is grown
    assert (grown.moves, grown.width) == (first.moves, first.width)
    # the rows it had are unchanged, so a draw moves a cycle as before
    cells = (first.rows + 1) * first.width
    assert np.array_equal(grown.bound[:cells], first.bound)
    for name in ("rise", "high"):
        assert np.array_equal(getattr(grown, name)[: 2 * cells], getattr(first, name))
    # a level past twice the rows is reached at once; the table stops below the top
    assert simulate_module._block_table(tables, 100).rows == 100
    assert simulate_module._block_table(tables, 999).rows == 999
    # a chain with a run draws its cycles whole and builds no block table
    run = mms(3, 2.1, 1.0)
    simulate_cycles(run, SimConfig(seed=1, cycles=1_000))
    assert run._walk_tables[1_000].blocks is None
    # past the cell cap the moves halve, down to one
    for cap, moves in ((1_000, 8), (300, 4), (10, 1)):
        monkeypatch.setattr(simulate_module, "_TABLE_CELLS", cap)
        small = simulate_module._build_blocks(tables.p_at, 16, simulate_module._BLOCK_MOVES)
        assert small.moves == moves
        assert (small.rows + 1) * small.width <= cap or moves == 1
        for x in (1, 2, 16):
            want = _dp_outcomes(tables.p_at, x, moves)
            got = _table_outcomes(small, x)
            assert max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)) <= 1e-15


def test_block_tables_follow_the_levels_reached_not_the_horizon():
    # at horizon 2^20 the cycles of mminf(2) stay below a few tens
    spec = mminf(2.0, 1.0)
    sample = simulate_cycles(spec, SimConfig(seed=3, cycles=10**4, escape_horizon=1 << 20))
    assert sample.cycles == 10**4 and sample.escaped == 0
    table = spec._walk_tables[1 << 20].blocks
    assert table.moves == simulate_module._BLOCK_MOVES and table.rows <= 32


def _decode(u, offset, width, bound):
    """One uniform's outcome entry, decoded in Python: cell offset +
    floor(u width) of its row, its own outcome (entry 2 cell + 1) when
    u width lies below the cell's bound, else its alias's (entry 2 cell)."""
    v = u * width
    cell = offset + math.floor(v)
    return 2 * cell + (1 if v < bound[cell] else 0)


def _alias_table(kind):
    """(bound, width, int32 rows, offsets) of a block or an event table; a
    chain passes its levels times the width, a network its held offsets."""
    if kind == "block":
        table = simulate_module._block_table(_stepped_tables(mms(3, 2.1, 1.0), 1_000), 3)
        rows = np.arange(1, table.rows + 1, dtype=np.int32)
        return table.bound, table.width, rows, lambda at: at * table.width
    table = NetworkSpec(mu0=_MIXED.mu0, stations=_MIXED.stations, routing=_MIXED.routing)._event_table
    assert table.grow(3, 1_000)
    rows = np.arange(table.rows(table.totals), dtype=np.int32)
    return table.bound, table.width, rows, lambda at: at * np.int32(table.width)


@pytest.mark.parametrize("kind", ["block", "event"])
def test_alias_entries_equal_a_python_decode(kind):
    bound, width, rows, offsets = _alias_table(kind)
    keep = bound - np.tile(np.arange(width), bound.size // width)
    # for each cell of each row: u width on the cell's left edge, at its
    # bound and just below it, within the cell, and a few uniforms
    row, u = [], []
    for x in rows.tolist():
        for c in range(width):
            b = float(bound[int(offsets(np.int32(x))) + c])
            for v in (float(c), b, math.nextafter(b, -math.inf)):
                if c <= v < c + 1:
                    row.append(x)
                    u.append(v / width)
    rng = np.random.default_rng(5)
    row += rng.choice(rows, 1_000).tolist()
    u += rng.random(1_000).tolist()
    at = np.array(row, dtype=np.int32)
    draws = np.array(u)
    entries = simulate_module._alias_entries(draws.copy(), offsets(at), width, bound)
    assert entries.dtype == np.intp
    want = [_decode(w, int(o), width, bound) for w, o in zip(u, offsets(at).tolist())]
    assert entries.tolist() == want
    # a cell that keeps nothing gives its alias on its left edge, one that
    # keeps everything its own outcome
    cell = offsets(at) + (draws * width).astype(np.intp)
    edge = draws * width == np.floor(draws * width)
    for k, own in ((0.0, 0), (1.0, 1)):
        hit = edge & (keep[cell] == k)
        assert hit.any() and np.all(entries[hit] == 2 * cell[hit] + own)


_DKW_CHAINS = [
    (mminf(1.0, 1.0), 20_000), (mminf(2.0, 1.0), 20_000), (mminf(8.0, 1.0), 4_000),
    (mms(2, 1.4, 1.0), 20_000), (mms(3, 2.1, 1.0), 20_000), (mms(8, 5.6, 1.0), 10_000),
    (_TABLE, 20_000), (mms(3, 4.5, 1.0, cap=40), 20_000),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "spec, cycles", _DKW_CHAINS, ids=["mminf1", "mminf2", "mminf8", "mms2", "mms3", "mms8", "table", "mms3-capped"]
)
def test_block_passes_stay_in_the_dkw_band(spec, cycles, seed):
    # Dvoretzky-Kiefer-Wolfowitz: the sup gap between the empirical and the
    # exact cdf passes sqrt(log(2 / alpha) / (2 n)) with probability at most
    # alpha = 1e-6
    top = min(spec.cap, 1_000) if spec.cap is not None else 1_000
    sample = simulate_cycles(spec, SimConfig(seed=seed, cycles=cycles))
    assert sample.cycles == cycles
    levels = np.arange(1, top)
    exact = CycleMaxDistribution(spec).cdf(levels)
    emp = np.searchsorted(np.sort(sample.maxima), levels, side="right") / cycles  # escapes lie above
    assert np.max(np.abs(emp - exact)) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cycles))


def test_transient_chain_without_a_run_escapes_at_its_exact_rate():
    spec, horizon = _TRANSIENT_TABLE, 200
    assert simulate_module._walk_tables(spec, horizon).n_flat is None
    cycles = 20_000
    sample = simulate_cycles(spec, SimConfig(seed=12, cycles=cycles, escape_horizon=horizon))
    want = 1.0 - CycleMaxDistribution(spec).cdf(horizon - 1)
    assert abs(sample.escaped_fraction - want) <= 3.0 * math.sqrt(want * (1.0 - want) / cycles)


_CRITICAL_TABLE = TableSequence([1.0, 1.0], tail_ratio=0.1)
# (spec, where its tail record starts the constant run at horizon 1,000)
_RUNS = {
    "table": (_TABLE, 5),
    "dual-mms3": (mms(3, 2.1, 1.0).dual(), 3),
    "dual-mms2": (mms(2, 1.4, 1.0).dual(), 2),
    "critical-table": (BirthDeathSpec(_CRITICAL_TABLE, _CRITICAL_TABLE, 10.0, 1.0), 2),
    "mminf": (mminf(2.0, 1.0), None),
    "table-degree-2": (_TRANSIENT_TABLE, None),
    "callable": (BirthDeathSpec(CallableSequence(lambda n: -0.5 * n, tail_ratio=math.exp(-0.5)),
                                OnesSequence(), 1.0, 1.0), None),
}


@pytest.mark.parametrize("name", _RUNS)
def test_the_constant_run_starts_one_past_the_tail_record(name):
    # a geometric record (degree 0, no factorial) starts the run one level past
    # its start, whatever the rounding of the weights; mminf, a record of
    # degree 2 and a callable, even a geometric one, have none
    spec, n_flat = _RUNS[name]
    tables = simulate_module._walk_tables(spec, 1_000)
    assert tables.n_flat == n_flat
    assert tables.p_at.size == (1_000 if n_flat is None else n_flat + 1)
    _rate_up_probabilities(spec, 1_000, n_flat)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["table", "dual-mms3", "dual-mms2", "critical-table"])
def test_declared_runs_follow_the_exact_law(name, seed):
    # the draws of these chains moved when their runs came to be read from the
    # record; they escape at 1 - F(top - 1) (3 sigma) and stay in the DKW band
    # of alpha = 1e-6
    spec, cycles, top = _RUNS[name][0], 20_000, 1_000
    sample = simulate_cycles(spec, SimConfig(seed=seed, cycles=cycles, escape_horizon=top))
    assert sample.cycles == cycles
    exact = CycleMaxDistribution(spec).cdf(np.arange(1, top))
    want = 1.0 - exact[-1]
    assert abs(sample.escaped_fraction - want) <= 3.0 * math.sqrt(want * (1.0 - want) / cycles)
    emp = np.searchsorted(np.sort(sample.maxima), np.arange(1, top), side="right") / cycles
    assert np.max(np.abs(emp - exact)) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cycles))


# chains with a constant run: M/M/s below, near and above its critical load,
# a dual, a capped one and a declared table
_RUN_CHAINS = {
    "mms2": mms(2, 1.4, 1.0),
    "mms3": mms(3, 2.1, 1.0),
    "mms8": mms(8, 5.6, 1.0),
    "mms3-transient": mms(3, 4.5, 1.0),
    "dual-mms3": mms(3, 2.1, 1.0).dual(),
    "mms2-capped": mms(2, 1.4, 1.0, cap=30),
    "table": _TABLE,
    "mms2-near-critical": mms(2, 1.999, 1.0),
}


@pytest.mark.parametrize("name", _RUN_CHAINS)
def test_run_maxima_imply_the_exact_survival(name):
    # the sampler gives P(Y >= n) = 1/S(n - 1) up to n_flat, and past it
    # t h / (1 - P_ret (1 - h)) with h = h(n - a), the chance that one
    # excursion above a = n_flat - 1 reaches n: each is the exact law
    spec = _RUN_CHAINS[name]
    top = min(spec.cap, 1_000) if spec.cap is not None else 1_000
    tables = simulate_module._walk_tables(spec, top)
    a, t, q = tables.n_flat - 1, tables.reach[-1], tables.q
    log_r = math.log1p(-tables.p_at[-1]) - math.log(tables.p_at[-1])
    n = np.arange(1, min(200, top + 1))
    j = np.maximum(n - a, 1)
    h = 1.0 / j if log_r == 0.0 else math.expm1(log_r) / np.expm1(j * log_r)
    implied = np.where(n <= a + 1, tables.reach[np.minimum(n, a + 1) - 1], t * h / (h + q * (1.0 - h)))
    want = CycleMaxDistribution(spec).survival(n - 1)
    assert np.max(np.abs(implied / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("name", _RUN_CHAINS)
def test_run_maxima_stay_in_the_dkw_band(name):
    # Dvoretzky-Kiefer-Wolfowitz at alpha = 1e-6 on 2e5 cycles, escapes and
    # capped cycles above every level below the top
    spec, cycles = _RUN_CHAINS[name], 200_000
    top = min(spec.cap, 1_000) if spec.cap is not None else 1_000
    sample = simulate_cycles(spec, SimConfig(seed=61, cycles=cycles))
    levels = np.arange(1, top)
    exact = CycleMaxDistribution(spec).cdf(levels)
    emp = np.searchsorted(np.sort(sample.maxima), levels, side="right") / cycles
    assert np.max(np.abs(emp - exact)) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * cycles))


class _Log1pLanes:
    """numpy, whose log1p counts the lanes it meets and those of them that
    are NaN, infinite or at most -1."""

    def __init__(self):
        self.lanes = self.bad = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log1p(self, x, out=None):
        self.lanes += x.size
        self.bad += int(np.count_nonzero(~(np.isfinite(x) & (x > -1.0))))
        return np.log1p(x, out=out)


@pytest.mark.parametrize(
    "spec, recurrent",
    [(mm1(0.7, 1.0), True), (mms(2, 1.4, 1.0), True), (mms(3, 2.1, 1.0), True), (mms(8, 5.6, 1.0), True),
     (mms(2, 1.999, 1.0), True), (mms(20, 15.0, 1.0), True), (_TABLE, True),
     (mms(3, 2.1, 1.0).dual(), False), (mms(3, 4.5, 1.0), False), (mm1(1.5, 1.0), False)],
    ids=["mm1-0.7", "mms2", "mms3", "mms8", "mms2-near-critical", "mms20", "table", "dual-mms3",
         "mms3-transient", "mm1-transient"],
)
def test_run_maxima_meet_no_nan_below_an_escape(monkeypatch, spec, recurrent):
    # log1p slows by 3-4x on lanes that are NaN or infinite: on a recurrent
    # run no lane meets one, and on a transient run only a cycle that
    # escapes does, where J is unbounded
    count = _Log1pLanes()
    monkeypatch.setattr(simulate_module, "np", count)
    maxima, escaped = _simulate_batch(spec, 10**5, np.random.default_rng(67), 1_000)
    assert count.lanes == 10**5 and len(maxima) + escaped == 10**5
    assert count.bad == 0 if recurrent else 0 < count.bad <= escaped


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.int64)).tobytes())
    return h.hexdigest()


def _cycles_digest(sample):
    return _digest(sample.maxima, [sample.escaped])


# Draws without chain block passes: M/M/1 (each cycle one excursion), capped
# M/M/1, jump mode on M/M/1, network cycles (up to four events a pass) and
# inversion
_PINNED = {
    "mm1": (lambda: _cycles_digest(simulate_cycles(mm1(0.7, 1.0), SimConfig(seed=3, cycles=5000))),
            "6b8ee62bbdc56710f86de70723c1694847681a588b00b459dc49df79e2fddc05"),
    "mm1-transient": (
        lambda: _cycles_digest(simulate_cycles(mm1(1.5, 1.0), SimConfig(seed=4, cycles=5000, escape_horizon=300))),
        "82ca0373a6a2360c5e169a05f796533e6ac6b8bbfa4584102d3ca56559ddc2b8"),
    "mm1-capped": (lambda: _cycles_digest(simulate_cycles(mm1(1.3, 1.0, cap=20), SimConfig(seed=5, cycles=5000))),
                   "ff6849287bfdf7594308605300221e8536fbb31eef356e2a4f4b7c66e37defb9"),
    "jump": (lambda: _digest(sample_maxima(mm1(0.5, 1.0), 10, 300, SimConfig(seed=6), mode="jump")),
             "cd1e7d628db54cc55d6425875bad96c418d4f562bc41f1da505966b6e9cebb8f"),
    "network": (
        lambda: _cycles_digest(simulate_network_cycles(
            NetworkSpec(mu0=0.25, stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
                        routing=((0.0, 0.5, 0.3, 0.2), (0.2, 0.1, 0.4, 0.3), (0.5, 0.2, 0.1, 0.2),
                                 (0.6, 0.2, 0.1, 0.1))),
            SimConfig(seed=7, cycles=3000))),
        "015666c101bf8c98093cc82facd3de756d0882a32c3ccb06297920ac51c320f1"),
    "inversion-mms3": (lambda: _digest(sample_maxima(mms(3, 2.1, 1.0), 100, 1000, SimConfig(seed=8))),
                       "f89670a498a16b8fd4ef40ff1047964fddc78ed12d74c400bf3260093cfa96c5"),
    "inversion-mminf": (lambda: _digest(sample_maxima(mminf(2.0, 1.0), 100, 1000, SimConfig(seed=9))),
                        "740d023c73524b59174555fb3405b6b593c9dab6fb71e73eae5311d989505694"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_draws_without_blocks_are_pinned(name):
    run, want = _PINNED[name]
    assert run() == want


_RUIN_WALKS = [(0.3, 3, 40), (0.5, 1, 25), (0.7, 2, 30), (0.5, 3, 40)]


@pytest.mark.parametrize(
    "p, low, top, count",
    [pytest.param(*walk, None, id="-".join(map(str, walk))) for walk in _RUIN_WALKS]
    + [pytest.param(*walk, e, id="-".join(map(str, walk)) + f"-E{e}") for walk in _RUIN_WALKS for e in (1, 3)],
)
def test_excursion_maxima_solve_the_ruin_equations(p, low, top, count):
    # h(k) = P_k(reach m before low - 1) solves h(k) = p h(k + 1) + (1 - p) h(k - 1)
    # on low..m-1 with h(low - 1) = 0 and h(m) = 1; an excursion from low
    # peaks at m or above with probability h(low), and at top it escapes.
    # A cycle that makes 1 + Geom(1 - q) of them, E = 1/q on average, stays
    # below m with probability q (1 - h) / (h + q (1 - h)): one excursion
    # with probability q, and each further one stays below with 1 - h.
    q = 1.0 if count is None else 1.0 / count
    reach = [1.0]
    for m in range(low + 1, top + 1):
        size = m - low
        a = np.eye(size) - p * np.eye(size, k=1) - (1 - p) * np.eye(size, k=-1)
        b = np.zeros(size)
        b[-1] = p
        reach.append(np.linalg.solve(a, b)[0])
    for m, h in zip(range(low, top + 1), reach):
        if count is None:
            # a draw reaches m exactly when its 1 - u (a multiple of 2^-53 near
            # 1 - 1e-6 h and 1 + 1e-6 h here) is at most h
            u = 1.0 - h * np.array([1.0 - 1e-6, 1.0 + 1e-6])
            u = u[u >= 0.0]  # a uniform lies in [0, 1)
            reaches, far = 1.0 - u <= h, np.abs(1.0 - u - h) > 1e-9 * h
        else:
            # the highest of them reaches m exactly when u is at least the
            # chance that all stay below m, q (1 - h) / (h + q (1 - h))
            edge = q * (1.0 - h) / (h + q * (1.0 - h))
            u = edge * np.array([1.0 - 1e-6, 1.0 + 1e-6])
            u = u[u < 1.0]
            reaches, far = u >= edge, np.abs(u - edge) > 1e-9 * edge
        peaks = low - 1 + simulate_module._excursion_peaks(u, top - low + 1, p, q)
        assert np.all((peaks >= low) & (peaks <= top))
        assert np.array_equal((peaks >= m)[far], reaches[far])
    # the least 1 - u a draw can give escapes: the walk's peak is capped at top;
    # the least u gives the least peak
    assert low - 1 + simulate_module._excursion_peaks(np.array([1.0 - 2.0**-53]), top - low + 1, p, q)[0] == top
    assert low - 1 + simulate_module._excursion_peaks(np.array([0.0]), top - low + 1, p, q)[0] == low


@pytest.mark.parametrize(
    "rho", [1e-6, 0.05, 1 - 1e-12, 1 + 1e-12, 3.0, 1e6], ids=["1e-6", "0.05", "below-1", "above-1", "3", "1e6"]
)
def test_block_sizer_is_total(rho):
    # RuntimeWarnings are errors here, so an overflow, a division by zero or
    # an invalid logarithm in the excursion sampler fails
    sample = simulate_cycles(mm1(rho, 1.0), SimConfig(seed=5, cycles=300, escape_horizon=2_000))
    assert sample.cycles == 300
    u = np.concatenate((np.linspace(0.0, 1.0, 1_001)[:-1], [1.0 - 2.0**-53]))
    peaks = simulate_module._excursion_peaks(u, 2_000, rho / (1 + rho))
    assert np.all((peaks >= 1) & (peaks <= 2_000)) and np.all(np.diff(peaks) >= 0)


@pytest.mark.parametrize("s", [2, 3, 8])
def test_multi_server_up_probability_is_flat_from_s(s):
    spec = mms(s, 0.8 * s, 1.0)
    n_flat = simulate_module._walk_tables(spec, 1_000).n_flat
    assert n_flat == s
    _rate_up_probabilities(spec, 1_000, n_flat)  # constant from s on


def test_inversion_sampler_reaches_deep_critical_records():
    # H(n) falls like k/n, so the least of ten draws needs a deep table
    draws = sample_maxima(mm1(1.0, 1.0), 1000, 10, SimConfig(seed=0))
    assert draws.shape == (10,) and draws.min() >= 1


def test_inversion_sampler_refuses_transient_chains():
    with pytest.raises(NotApplicableError, match="transient"):
        sample_maxima(mm1(2.0, 1.0), 10, 10, SimConfig(seed=0))


def test_inversion_table_has_a_ceiling():
    with pytest.raises(NotApplicableError, match="inversion table"):
        sample_maxima(mm1(1.0, 1.0), 10**7, 1000, SimConfig(seed=0))


def test_convergence_table_centres_on_one():
    rows = verify_as_convergence(mm1(0.5, 1.0), [10**3, 10**4], reps=300, cfg=SimConfig(seed=4))
    assert [r.k for r in rows] == [10**3, 10**4]
    assert rows[0].b_k < rows[1].b_k
    for r in rows:
        assert 0.9 < r.mean_ratio < 1.15
        assert r.q05 < r.median_ratio < r.q95


@pytest.mark.parametrize("size", [1, 2, 3, 4, 199, 200, 399, 400, 401])
def test_sorted_order_statistics_are_numpy_median_and_quantile(size):
    # integer maxima over irrational b_k, as the convergence table reads them,
    # so the sample ties as maxima do, and random reals; to the bit
    rng = np.random.default_rng(size)
    for sample in (rng.integers(5, 15, size) / math.log(1e3, 2), rng.standard_normal(size) * 1e3):
        ordered = np.sort(sample)
        assert simulate_module._sorted_median(ordered) == np.median(sample)
        for q in (0.0, 0.05, 0.25, 0.5, 0.95, 0.999, 1.0):
            assert simulate_module._sorted_quantile(ordered, q) == np.quantile(sample, q), q


def test_convergence_table_needs_a_normaliser():
    with pytest.raises(NotApplicableError):
        verify_as_convergence(mm1(1.0, 1.0), [100], reps=10, cfg=SimConfig(seed=2))


def _jump_counts(spec, cycles, horizon, seed):
    # one jump per pass, with up-step odds from the rates; returns the mean
    # jump count of a cycle and its standard error
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    p_up = np.array(_rate_up_probabilities(spec, top, None))
    rng = np.random.default_rng(seed)
    state = np.ones(cycles, dtype=np.int64)
    jumps = np.zeros(cycles)
    live = np.arange(cycles)
    while live.size:
        at = state[live]
        up = rng.random(live.size) < p_up[at]
        jumps[live] += 1.0
        state[live] = at + np.where(up, 1, -1)
        live = live[(state[live] > 0) & (state[live] < top)]
    return jumps.mean(), jumps.std(ddof=1) / math.sqrt(cycles)


@pytest.mark.parametrize(
    "spec, horizon",
    [(mm1(0.95, 1.0), 1_000), (mms(3, 2.1, 1.0), 1_000), (mminf(2.0, 1.0), 1_000),
     (mms(3, 4.5, 1.0, cap=40), 1_000), (mm1(1.0, 1.0), 200)],
    ids=["mm1-0.95", "mms3", "mminf", "mms3-capped", "mm1-critical"],
)
def test_expected_jumps_match_a_simulated_mean(spec, horizon):
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    want = math.exp(simulate_module._log_expected_jumps(spec.log_psi_rho(np.arange(top))))
    mean, err = _jump_counts(spec, 20_000, horizon, 41)
    assert abs(mean - want) <= 3.0 * err


def test_long_cycles_are_refused_before_the_first_draw():
    spec = mminf(20.0, 1.0)  # a busy cycle lasts about e^20 / 20 jumps
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="budget"):
        simulate_cycles(spec, SimConfig(seed=109, cycles=3_000, escape_horizon=200))
    with pytest.raises(NotApplicableError, match="budget"):
        simulate_cycle(spec, np.random.default_rng(1), 200)
    with pytest.raises(NotApplicableError, match="budget"):
        sample_maxima(spec, 10, 10, SimConfig(escape_horizon=200), mode="jump")
    assert time.perf_counter() - start < 1.0


def test_jump_budget_counts_every_cycle_of_a_call(monkeypatch):
    spec = mm1(0.5, 1.0)  # each cycle is one excursion, drawn whole: charged 1 jump
    simulate_cycles(spec, SimConfig(seed=1, cycles=1_000))
    sample_maxima(spec, 10, 100, SimConfig(seed=1), mode="jump")
    monkeypatch.setattr(simulate_module, "_MAX_JUMPS", 999.0)
    with pytest.raises(NotApplicableError):
        simulate_cycles(spec, SimConfig(seed=1, cycles=1_000))
    with pytest.raises(NotApplicableError):
        sample_maxima(spec, 10, 100, SimConfig(seed=1), mode="jump")
    assert simulate_cycle(spec, np.random.default_rng(1)) >= 1  # one cycle's charge fits
    monkeypatch.setattr(simulate_module, "_MAX_JUMPS", 0.5)
    with pytest.raises(NotApplicableError):
        simulate_cycle(spec, np.random.default_rng(1))
    sample_maxima(spec, 10, 100, SimConfig(seed=1))  # inversion draws no jumps


def test_excursions_are_charged_one_jump_each():
    # 5e3 jumps a cycle, but each cycle is one excursion drawn from one uniform
    spec = mm1(1.5, 1.0)
    assert math.exp(simulate_module._log_expected_jumps(spec.log_psi_rho(np.arange(3_000)))) > 4_000
    start = time.perf_counter()
    sample = simulate_cycles(spec, SimConfig(seed=3, cycles=10**5, escape_horizon=3_000))
    assert time.perf_counter() - start < 1.0
    assert sample.cycles == 10**5 and 0.3 < sample.escaped_fraction < 0.37  # 1/3 escape


@pytest.mark.parametrize(
    "spec, horizon",
    [(mm1(0.95, 1.0), 1_000), (mms(3, 2.1, 1.0), 1_000), (mms(2, 1.9, 1.0), 1_000),
     (mminf(2.0, 1.0), 1_000), (mms(3, 4.5, 1.0, cap=40), 1_000), _CHAINS[_CHAIN_IDS.index("table")][:2],
     _CHAINS[_CHAIN_IDS.index("mms20")][:2]],
    ids=["mm1-0.95", "mms3", "mms2", "mminf", "mms3-capped", "table", "mms20"],
)
def test_charged_jumps_match_a_simulated_count(spec, horizon):
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    tables = simulate_module._walk_tables(spec, top)
    want = math.exp(tables.log_jumps)
    if tables.n_flat is None:
        mean, err = _jump_counts(spec, 20_000, horizon, 43)
        assert abs(mean - want) <= 3.0 * err + 1e-12 * want
    else:  # a cycle with a constant run is one uniform, and is charged one jump
        rng = Recording(np.random.default_rng(43))
        _simulate_batch(spec, 20_000, rng, horizon)
        assert sum(u.size for u in rng.draws) / 20_000 == want == 1.0


def test_walk_tables_are_built_once_per_spec_and_top(monkeypatch):
    builds, growths, windows = [], [], []
    jumps, grow, window = simulate_module._log_expected_jumps, _LawTables.grow, _LawTables.window

    def counted(*args):
        builds.append(args)
        return jumps(*args)

    def growing(tables, spec, n):
        before = len(tables.log_w)
        grow(tables, spec, n)
        if len(tables.log_w) > before:
            growths.append((before, len(tables.log_w)))

    def read(tables, spec, lo, hi):
        windows.append((lo, hi))
        return window(tables, spec, lo, hi)

    monkeypatch.setattr(simulate_module, "_log_expected_jumps", counted)
    monkeypatch.setattr(_LawTables, "grow", growing)
    monkeypatch.setattr(_LawTables, "window", read)

    def calls(spec, rng):
        for _ in range(20):
            simulate_cycle(spec, rng)
        simulate_cycles(spec, SimConfig(seed=5, cycles=100))
        sample_maxima(spec, 10, 10, SimConfig(seed=5), mode="jump")

    # a varying head below a constant run: the tables read its levels 0..2
    # of the spec's one weight table, grown once, and charge no expected jumps
    spec = mms(3, 2.1, 1.0)
    rng = np.random.default_rng(5)
    calls(spec, rng)
    assert builds == [] and windows == [(0, 3)] and growths == [(0, 64)]
    tables = spec._walk_tables[1_000]
    assert tables.n_flat == 3 and tables.p_list is not None and tables.p_at.size == 4
    assert tables.reach.size == 3 and not tables.p_at.flags.writeable
    simulate_cycle(spec, rng, 200)  # another horizon builds its own tables, from the weights held
    assert windows == [(0, 3)] * 2 and set(spec._walk_tables) == {200, 1_000} and growths == [(0, 64)]
    # without a run: one build, charged on levels 0..999 of the weights, grown once
    spec = mminf(2.0, 1.0)
    calls(spec, rng)
    log_w = spec._law_tables.log_w
    assert len(builds) == 1 and growths[1:] == [(0, 1_000)] and windows[2:] == [(0, 1_000)]
    assert np.shares_memory(builds[0][0], log_w)
    simulate_cycle(spec, rng, 200)
    assert len(builds) == 2 and set(spec._walk_tables) == {200, 1_000}
    assert growths[1:] == [(0, 1_000)] and np.shares_memory(builds[1][0], log_w)


@pytest.mark.parametrize("k", [10, 10**3, 10**7])
@pytest.mark.parametrize(
    "spec",
    [mm1(0.5, 1.0), mm1(0.97, 1.0), mms(3, 2.1, 1.0), mminf(2.0, 1.0), mm1(0.9, 1.0, cap=5)],
    ids=["mm1-0.5", "mm1-0.97", "mms3", "mminf", "mm1-capped"],
)
def test_bucket_search_equals_a_sorted_search(spec, k):
    g = np.random.default_rng(k).standard_exponential(10**5)
    h = _inversion_table(_as_dist(spec), k, float(g.min()))
    assert np.all(np.diff(h) <= 0.0)
    expected = np.searchsorted(-h, -g, side="left")
    # the answers overwrite the keys, slice by slice, as in sample_maxima
    out = g.view(np.int64)
    assert _bucket_search(h, g, out) is out
    assert np.array_equal(out, expected)


def test_bucket_search_on_wide_buckets():
    # H(n) ~ k/n on a critical chain: far more levels than buckets fall in
    # the range of the draws, so buckets hold many levels and the search
    # inside them runs its binary passes
    spec = mm1(1.0, 1.0)
    g = np.random.default_rng(8).standard_exponential(10**3)
    h = _inversion_table(_as_dist(spec), 100, float(g.min()))
    assert np.all(np.diff(h) <= 0.0)
    assert np.count_nonzero((h >= g.min()) & (h <= g.max())) > 2 * simulate_module._BUCKETS
    keys = np.concatenate((g, h[(h >= g.min()) & (h <= g.max())]))  # ties with the table too
    found = _bucket_search(h, keys, np.empty(keys.size, dtype=np.int64))
    assert np.array_equal(found, np.searchsorted(-h, -keys, side="left"))


@pytest.mark.parametrize(
    "h, g",
    [([0.5, 0.25, 0.0], [1.0, 2.0, 3.0]),  # every key above the table
     ([4.0, 2.0, 2.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 2.0 + 1e-15, 3.0, 5.0]),  # ties, a zero key
     ([7.0, 7.0, 7.0, 0.5], [0.5, 6.0, 7.0, 8.0]),
     ([1.0, 1.0 - 1e-7, 1.0 - 2e-7, 0.5], [0.25, 1.0 - 1.5e-7, 1.0, 0.75])],  # keys below the table
    ids=["above", "ties", "flat-head", "below"],
)
def test_bucket_search_on_hand_made_tables(h, g):
    h, g = np.array(h), np.array(g)
    found = _bucket_search(h, g, np.empty(g.size, dtype=np.int64))
    assert np.array_equal(found, np.searchsorted(-h, -g, side="left"))


def _scripted_advance(paths, passes):
    # pass t moves cycle i, carried in rest with twice its index, to paths[i][t]
    width = max(map(len, paths))
    table = np.array([p + p[-1:] * (width - len(p)) for p in paths])

    def advance(level, peak, ids, twice):
        assert np.array_equal(twice, 2 * ids)
        passes.append(ids.size)
        level[:] = table[ids, len(passes) - 1]
        np.maximum(peak, level, out=peak)

    return advance


def _reference_cycles(paths, top, escapes):
    maxima, escaped = [], 0
    for path in paths:
        if path[-1] == 0 or not escapes:
            maxima.append(max([1] + path))
        else:
            escaped += 1
    return maxima, escaped


@pytest.mark.parametrize("escapes", [True, False], ids=["escapes", "cap"])
@pytest.mark.parametrize("mix", [0.0, 0.2], ids=["all-return", "mixed"])
def test_run_cycles_ends_a_one_pass_run(escapes, mix):
    top, rng = 9, np.random.default_rng(5)
    at_top = rng.random(500) < mix
    ends = np.where(at_top, top, 0)
    peaks = np.where(at_top, top, rng.integers(1, top, 500))

    def advance(level, peak):
        level[:] = ends
        np.maximum(peak, peaks, out=peak)

    maxima, escaped = _run_cycles(500, top, advance, escapes=escapes)
    want = _reference_cycles([[int(p), int(e)] for p, e in zip(peaks, ends)], top, escapes)
    assert maxima.tolist() == want[0] and escaped == want[1]
    assert maxima.dtype == np.int64


@pytest.mark.parametrize("escapes", [True, False], ids=["escapes", "cap"])
def test_run_cycles_follows_scripted_passes(escapes):
    top, rng = 12, np.random.default_rng(6)
    paths = []
    for _ in range(300):
        path = rng.integers(1, top, rng.integers(0, 8)).tolist()
        paths.append(path + [0 if rng.random() < 0.7 else top])
    passes = []
    ids = np.arange(300)
    maxima, escaped = _run_cycles(300, top, _scripted_advance(paths, passes), ids, 2 * ids,
                                  escapes=escapes)
    want = _reference_cycles(paths, top, escapes)
    assert maxima.tolist() == want[0] and escaped == want[1]
    # each pass moves exactly the cycles whose paths have not ended
    assert passes == [sum(len(p) > t for p in paths) for t in range(len(passes))]
    assert len(passes) == max(map(len, paths))


@pytest.mark.parametrize("escapes", [True, False], ids=["escapes", "cap"])
def test_run_cycles_retires_in_cycle_order(escapes):
    # pass 1 ends cycle 1 at the top and returns cycle 2; pass 2 ends cycle 3
    # at the top and returns cycles 0 and 5, after the first retirement has
    # made the full peak array the output; later passes return the rest.
    # The peaks are not in cycle order, so neither may the slots be.
    top = 9
    paths = [[5, 0], [9], [0], [3, 9], [7, 2, 0], [2, 0], [8, 4, 6, 0]]
    passes = []
    ids = np.arange(len(paths))
    maxima, escaped = _run_cycles(len(paths), top, _scripted_advance(paths, passes), ids, 2 * ids,
                                  escapes=escapes)
    assert passes == [7, 5, 2, 1]
    if escapes:
        assert maxima.tolist() == [5, 1, 7, 2, 8] and escaped == 2
    else:
        assert maxima.tolist() == [5, 9, 1, 9, 7, 2, 8] and escaped == 0
    assert maxima.dtype == np.int64


def test_run_cycles_holds_levels_and_peaks_at_int32():
    dtypes = []

    def advance(level, peak):
        dtypes.append((level.dtype, peak.dtype))
        if len(dtypes) == 1:  # even cycles return, odd ones climb to 2
            level[::2], level[1::2] = 0, 2
            np.maximum(peak, level, out=peak)
        else:
            level[:] = 0

    maxima, escaped = _run_cycles(6, 5, advance)
    assert dtypes == [(np.int32, np.int32)] * 2
    assert maxima.dtype == np.int64 and maxima.tolist() == [1, 2] * 3 and escaped == 0


_MIXED = NetworkSpec(
    mu0=0.25,
    stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
    routing=((0.0, 0.5, 0.3, 0.2), (0.2, 0.1, 0.4, 0.3), (0.5, 0.2, 0.1, 0.2), (0.6, 0.2, 0.1, 0.1)),
)


@pytest.mark.parametrize(
    "run",
    [
        lambda: simulate_cycles(mm1(0.7, 1.0), SimConfig(seed=1, cycles=1000)).maxima,
        lambda: simulate_cycles(mm1(1.3, 1.0, cap=20), SimConfig(seed=1, cycles=1000)).maxima,
        lambda: simulate_cycles(mm1(0.7, 1.0, cap=1), SimConfig(seed=1, cycles=10)).maxima,
        lambda: simulate_cycles(mms(2, 1.4, 1.0), SimConfig(seed=1, cycles=1000)).maxima,
        lambda: simulate_cycles(mms(2, 1.4, 1.0), SimConfig(seed=1, cycles=3)).maxima,
        lambda: simulate_cycles(mminf(2.0, 1.0, cap=4), SimConfig(seed=1, cycles=1000)).maxima,
        lambda: simulate_cycles(dict(zip(_CHAIN_IDS, _CHAINS))["table-transient"][0],
                                SimConfig(seed=1, cycles=1000, escape_horizon=200)).maxima,
        lambda: sample_maxima(mms(2, 1.4, 1.0), 10, 50, SimConfig(seed=1), mode="jump"),
        lambda: simulate_network_cycles(_MIXED, SimConfig(seed=1, cycles=1000)).maxima,
    ],
    ids=["mm1", "mm1-capped", "cap-1", "block", "python-tail", "capped", "escapes", "jump", "network"],
)
def test_maxima_come_back_int64_from_every_path(run):
    assert run().dtype == np.int64


def test_int32_cycle_state_has_headroom():
    # Levels stop below the top, at most _MAX_LEVELS.  A call is charged at
    # least one jump a cycle, so it runs fewer than _MAX_JUMPS cycles (slots).
    # A block table of more than one move and an event table hold at most
    # _TABLE_CELLS cells; a block table of one move a row per level and at
    # most 2 x 2 outcomes (maximum, fall) a row, within 8.  Entry 2 c + 1 is
    # the highest index a cell c reads.
    cells = max(simulate_module._TABLE_CELLS, (_MAX_LEVELS + 1) * 8)
    assert max(_MAX_LEVELS, simulate_module._MAX_JUMPS, 2 * cells + 1) < 2**31


def _traced_peak(run) -> int:
    """The tracemalloc peak of ``run()`` after one untraced call warms its tables."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_call_memory_is_bounded():
    # mms2: 5.1 MiB with int64 levels, peaks and slot map, 3.45 MiB with
    # int32 ones and full-width block passes, about 1.5 MiB with passes in slices
    for spec in (mms(2, 1.4, 1.0), mminf(2.0, 1.0)):
        peak = _traced_peak(lambda: simulate_cycles(spec, SimConfig(seed=1, cycles=10**5)))
        assert peak <= 2.0 * 2**20, spec


def test_network_call_memory_is_bounded():
    # 2.95 MiB with int64 levels, peaks and event-table totals
    peak = _traced_peak(lambda: simulate_network_cycles(_MIXED, SimConfig(seed=1, cycles=5 * 10**4)))
    assert peak <= 2.7 * 2**20
