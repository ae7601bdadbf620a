import math

import numpy as np
import pytest

import cyclemax.simulate as simulate_module
from cyclemax import (
    CycleMaxDistribution,
    SimConfig,
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
from cyclemax.simulate import _flat_start, _simulate_batch, _up_probabilities


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


def _one_jump_per_pass(spec, cycles, seed, horizon):
    """Reference driver: every live cycle takes exactly one jump per pass."""
    p_up = _up_probabilities(spec, horizon)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    state = np.ones(cycles, dtype=np.int64)
    peak = state.copy()
    out = np.empty(cycles, dtype=np.int64)
    slot = np.arange(cycles)
    escaped = 0
    while state.size:
        state = state + np.where(rng.random(state.size) < p_up[state - 1], 1, -1)
        peak = np.maximum(peak, state)
        done, gone = state == 0, state >= horizon
        out[slot[done]] = peak[done]
        out[slot[gone]] = -1
        escaped += int(gone.sum())
        live = ~(done | gone)
        state, peak, slot = state[live], peak[live], slot[live]
    return out[out > 0], escaped


@pytest.mark.parametrize(
    "spec, horizon, escapes",
    [
        (mm1(0.95, 1.0), 1_000, False),
        (mm1(1.0, 1.0), 200, True),
        (mm1(1.5, 1.0), 600, True),
        (mms(3, 2.0, 1.0), 1_000, False),
        (mminf(2.0, 1.0), 1_000, False),
        (mm1(0.9, 1.0, cap=5), 1_000, False),
    ],
    ids=["mm1-0.95", "mm1-critical", "mm1-transient", "mms3", "mminf", "mm1-capped"],
)
def test_simulation_equals_one_jump_per_pass(spec, horizon, escapes):
    cfg = SimConfig(seed=31, cycles=1_000, escape_horizon=horizon)
    maxima, escaped = _one_jump_per_pass(spec, cfg.cycles, cfg.seed, horizon)
    sample = simulate_cycles(spec, cfg)
    assert np.array_equal(sample.maxima, maxima)
    assert sample.escaped == escaped
    assert (escaped > 0) == escapes


def test_multi_jump_passes_run_on_a_constant_up_probability():
    class Recording:
        def __init__(self, seed):
            self.rng = np.random.default_rng(np.random.SeedSequence([seed]))
            self.blocks = 0

        def random(self, size):
            self.blocks += isinstance(size, tuple)
            return self.rng.random(size)

    for spec in (mm1(1.0, 1.0), mms(2, 2.0, 1.0)):
        rng = Recording(31)
        got = _simulate_batch(spec, 1_000, rng, 200)
        want = _one_jump_per_pass(spec, 1_000, 31, 200)
        assert rng.blocks > 0
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("s", [2, 3, 8])
def test_multi_server_up_probability_is_flat_from_s(s):
    p_up = _up_probabilities(mms(s, 0.8 * s, 1.0), 1_000)
    assert _flat_start(p_up, 1_000) == s


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
