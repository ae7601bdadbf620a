import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclemax.simulate as simulate_module
from cyclemax import (
    BirthDeathSpec,
    CycleMaxDistribution,
    SimConfig,
    TableSequence,
    empirical_cdf,
    ks_two_sample,
    mm1,
    mminf,
    mms,
    sample_maxima,
    simulate_cycle,
    simulate_cycles,
    verify_as_convergence,
)
from cyclemax.errors import EscapedCycleError, NotApplicableError
from cyclemax.simulate import ESCAPED, _flat_start, _simulate_batch, _up_probabilities


# (spec, escape horizon, whether 1,000 cycles under seed 31 see an escape)
_CHAINS = [
    (mm1(0.95, 1.0), 1_000, False),
    (mm1(1.0, 1.0), 200, True),
    (mm1(1.5, 1.0), 600, True),
    (mms(3, 2.0, 1.0), 1_000, False),
    (mminf(2.0, 1.0), 1_000, False),
    (mm1(0.9, 1.0, cap=5), 1_000, False),
    # up-step odds 3, 2/3, 2, 1/4 below 5 and 0.7 from 5 on
    (BirthDeathSpec(TableSequence([1.0, 3.0, 2.0, 4.0, 1.0], 0.7), TableSequence([1.0], 0.5), 1.0, 1.0),
     1_000, False),
]
_CHAIN_IDS = ["mm1-0.95", "mm1-critical", "mm1-transient", "mms3", "mminf", "mm1-capped", "table"]


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=-1)
    with pytest.raises(ValueError):
        SimConfig(cycles=0)
    with pytest.raises(ValueError):
        SimConfig(escape_horizon=5)
    with pytest.raises(ValueError):
        SimConfig(seed=2**64)


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
    """Generator wrapper that keeps every array of uniforms it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, size):
        u = self.rng.random(size)
        self.draws.append(u)
        return u


def _replay(spec, cycles, horizon, draws):
    """Reference: the (maxima, escaped) that ``draws`` give when each
    cycle is stepped alone in a Python loop.

    Each draw is for the live cycles in cycle order.  A 1-D draw moves each
    one jump.  A 2-D (B, live) draw moves column j's cycle until it leaves
    [n_flat, top) when every live level is at least n_flat, and otherwise
    until it leaves (0, top), or until the column ends.  A cycle that
    reaches a cap below the horizon has its maximum and ends there.
    """
    capped = spec.cap is not None and spec.cap < horizon
    top = spec.cap if capped else horizon
    level, peak = [1] * cycles, [1] * cycles
    if top == 1:
        assert not draws
        return np.array(peak, dtype=np.int64), 0
    p_up = _up_probabilities(spec, top)
    p_at = [0.0] + p_up.tolist()
    n_flat = _flat_start(p_up, top)
    live = list(range(cycles))
    for u in draws:
        cols = u.reshape(u.shape[0], -1) if u.ndim == 2 else u[None, :]
        assert cols.shape[1] == len(live)
        lo = 1
        if u.ndim == 2 and n_flat is not None and min(level[i] for i in live) >= n_flat:
            lo = n_flat
        for j, i in enumerate(live):
            for x in cols[:, j].tolist():
                level[i] += 1 if x < p_at[level[i]] else -1
                peak[i] = max(peak[i], level[i])
                if not lo <= level[i] < top:
                    break
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


def test_capped_overloaded_chain_retires_at_the_cap():
    # overloaded below its cap: a cycle that bounced at the cap would need
    # about 1.5^40 jumps to return
    spec = mms(3, 4.5, 1.0, cap=40)
    cfg = SimConfig(seed=1, cycles=10)

    class Bounded(Recording):
        def random(self, size):
            assert len(self.draws) < 10_000, "the cycles did not finish"
            return super().random(size)

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


def test_multi_jump_passes_run_on_a_constant_up_probability():
    for spec in (mm1(1.0, 1.0), mms(2, 2.0, 1.0)):
        rng = Recording(np.random.default_rng(np.random.SeedSequence([31])))
        got = _simulate_batch(spec, 1_000, rng, 200)
        want = _replay(spec, 1_000, 200, rng.draws)
        assert any(u.ndim == 2 for u in rng.draws)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


_LAW_CHAINS = [
    (mm1(1.0, 1.0), 200),
    (mm1(0.95, 1.0), 1_000),
    (mm1(1.5, 1.0), 600),
    (mms(2, 2.0, 1.0), 200),  # its constant run starts at 2, so blocks are cut at 1
    (mm1(1.3, 1.0, cap=60), 1_000),
]


@pytest.mark.parametrize(
    "spec, horizon", _LAW_CHAINS, ids=["mm1-critical", "mm1-0.95", "mm1-transient", "mms2-critical", "mm1-capped"]
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
    assert 5_900 < math.exp(simulate_module._log_expected_jumps(spec, 1_000)) < 6_000
    for seed in range(5):
        rng = Recording(np.random.default_rng(seed))
        assert simulate_cycle(spec, rng, 1_000) >= 1
        assert 1 <= len(rng.draws) <= 12


@pytest.mark.parametrize("p, low, top", [(0.3, 3, 40), (0.5, 1, 25), (0.7, 2, 30)])
def test_exit_times_solve_the_ruin_equations(p, low, top):
    # E = 1 + p E(up) + (1 - p) E(down) on low..top-1, with E = 0 at low - 1 and top
    size = top - low
    a = np.eye(size) - p * np.eye(size, k=1) - (1 - p) * np.eye(size, k=-1)
    want = np.linalg.solve(a, np.ones(size))
    assert np.allclose(simulate_module._exit_times(p, low, top), want, rtol=1e-9)


@pytest.mark.parametrize("rho", [0.05, 1 - 1e-12, 1 + 1e-12, 3.0], ids=["0.05", "below-1", "above-1", "3"])
def test_block_sizer_is_total(rho):
    # RuntimeWarnings are errors here, so an overflow or a division by zero fails
    exit_time = simulate_module._exit_times(rho / (1 + rho), 1, 2_000)
    assert np.all(np.isfinite(exit_time)) and np.all(exit_time > 0)
    sample = simulate_cycles(mm1(rho, 1.0), SimConfig(seed=5, cycles=300, escape_horizon=2_000))
    assert sample.cycles == 300


@pytest.mark.parametrize("s", [2, 3, 8])
def test_multi_server_up_probability_is_flat_from_s(s):
    p_up = _up_probabilities(mms(s, 0.8 * s, 1.0), 1_000)
    assert _flat_start(p_up, 1_000) == s


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


def test_convergence_table_needs_a_normaliser():
    with pytest.raises(NotApplicableError):
        verify_as_convergence(mm1(1.0, 1.0), [100], reps=10, cfg=SimConfig(seed=2))


def _jump_counts(spec, cycles, horizon, seed):
    # one jump per pass, with up-step odds from the rates; returns the mean
    # jump count of a cycle and its standard error
    top = min(spec.cap, horizon) if spec.cap is not None else horizon
    rates = [(spec.birth_rate(n), spec.death_rate(n)) for n in range(1, top)]
    p_up = np.array([0.0] + [b / (b + d) for b, d in rates])
    rng = np.random.default_rng(seed)
    state = np.ones(cycles, dtype=np.int64)
    jumps = np.zeros(cycles)
    live = np.arange(cycles)
    while live.size:
        state[live] += np.where(rng.random(live.size) < p_up[state[live]], 1, -1)
        jumps[live] += 1
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
    want = math.exp(simulate_module._log_expected_jumps(spec, top))
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
    spec = mm1(0.5, 1.0)  # 3 jumps per cycle on average
    simulate_cycles(spec, SimConfig(seed=1, cycles=1_000))
    sample_maxima(spec, 10, 100, SimConfig(seed=1), mode="jump")
    monkeypatch.setattr(simulate_module, "_MAX_JUMPS", 500.0)
    with pytest.raises(NotApplicableError):
        simulate_cycles(spec, SimConfig(seed=1, cycles=1_000))
    with pytest.raises(NotApplicableError):
        sample_maxima(spec, 10, 100, SimConfig(seed=1), mode="jump")
    assert simulate_cycle(spec, np.random.default_rng(1)) >= 1  # one cycle's 3 jumps fit
    monkeypatch.setattr(simulate_module, "_MAX_JUMPS", 2.0)
    with pytest.raises(NotApplicableError):
        simulate_cycle(spec, np.random.default_rng(1))
    sample_maxima(spec, 10, 100, SimConfig(seed=1))  # inversion draws no jumps


def test_walk_tables_are_built_once_per_spec_and_top(monkeypatch):
    builds = []
    for name in ("_up_probabilities", "_log_expected_jumps", "_flat_start", "_exit_times"):
        def counted(*args, _fn=getattr(simulate_module, name), _name=name):
            builds.append(_name)
            return _fn(*args)

        monkeypatch.setattr(simulate_module, name, counted)
    spec = mms(3, 2.1, 1.0)  # a varying head and a constant run, so every table is built
    rng = np.random.default_rng(5)
    for _ in range(20):
        simulate_cycle(spec, rng)
    simulate_cycles(spec, SimConfig(seed=5, cycles=100))
    sample_maxima(spec, 10, 10, SimConfig(seed=5), mode="jump")
    assert sorted(builds) == ["_exit_times", "_flat_start", "_log_expected_jumps", "_up_probabilities"]
    tables = spec._walk_tables[1_000]
    assert tables.n_flat == 3 and tables.p_list is not None
    assert not tables.p_at.flags.writeable and not tables.exit_time.flags.writeable
    simulate_cycle(spec, rng, 200)  # another horizon builds its own tables
    assert len(builds) == 8 and set(spec._walk_tables) == {200, 1_000}
