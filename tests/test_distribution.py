import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from cyclemax import (
    BirthDeathSpec,
    CallableSequence,
    CycleMaxDistribution,
    NetworkSpec,
    Station,
    TableSequence,
    TailRegime,
    blocking_prob,
    classify,
    compactness_diagnostic,
    cycle_max_cdf,
    failure_rate,
    mm1,
    mminf,
    mms,
    norton_reduce,
    sample_maxima,
    tail_asymptotics,
)
from cyclemax.distribution import _LawTables, _as_dist, _hurwitz_zeta
from cyclemax.errors import NotApplicableError, NotTransientError


def single_server_cdf(rho, n):
    # plain-float reference: P(Y <= n) = 1 - 1/S(n), S(n) = sum_{i<=n} rho^-i
    s = sum((1.0 / rho) ** i for i in range(n + 1))
    return 1.0 - 1.0 / s


def multi_server_cdf(s, rho, n):
    psi = [1.0]
    for i in range(1, n + 1):
        psi.append(psi[-1] / min(i, s))
    total = sum(1.0 / (psi[i] * rho**i) for i in range(n + 1))
    return 1.0 - 1.0 / total


def test_single_server_cdf_closed_form():
    dist = CycleMaxDistribution(mm1(0.5, 1.0))
    assert dist.cdf(1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    for n in range(1, 21):
        assert dist.cdf(n) == pytest.approx(single_server_cdf(0.5, n), rel=1e-13)


def test_critical_chain_cdf_is_harmonic():
    dist = CycleMaxDistribution(mm1(1.0, 1.0))
    for n in (1, 2, 10, 100, 1000):
        assert dist.cdf(n) == pytest.approx(n / (n + 1.0), rel=1e-13)


def test_multi_server_cdf_against_direct_sum():
    dist = CycleMaxDistribution(mms(2, 1.4, 1.0))
    for n in range(1, 30):
        assert dist.cdf(n) == pytest.approx(multi_server_cdf(2, 1.4, n), rel=1e-12)


def test_survival_complements_cdf():
    dist = CycleMaxDistribution(mms(3, 2.1, 1.0))
    for n in range(1, 40):
        assert dist.survival(n) + dist.cdf(n) == pytest.approx(1.0, abs=1e-14)
    assert dist.cdf(0) == 0.0


def test_failure_rate_matches_finite_differences():
    dist = CycleMaxDistribution(mm1(0.5, 1.0))
    assert dist.failure_rate(1) == pytest.approx(2.0 / 3.0, rel=1e-13)
    prev = 0.0
    for n in range(1, 15):
        cur = dist.cdf(n)
        assert dist.failure_rate(n) == pytest.approx((cur - prev) / (1 - prev), rel=1e-11)
        prev = cur
    with pytest.raises(ValueError):
        dist.failure_rate(0)


def test_blocking_prob_single_server():
    # P0(X = n | X <= n) = rho^n (1 - rho) / (1 - rho^{n+1})
    rho = 0.5
    dist = CycleMaxDistribution(mm1(rho, 1.0))
    for n in range(1, 12):
        expect = rho**n * (1 - rho) / (1 - rho ** (n + 1))
        assert dist.blocking_prob(n) == pytest.approx(expect, rel=1e-12)
    assert dist.blocking_prob(3) == pytest.approx(1.0 / 15.0, rel=1e-12)


def test_capped_chain_cdf_saturates():
    dist = CycleMaxDistribution(mm1(0.5, 1.0, cap=6))
    assert dist.cdf(6) == pytest.approx(1.0, abs=1e-14)
    assert dist.survival(6) == 0.0
    assert dist.failure_rate(6) == pytest.approx(1.0, abs=1e-14)
    # below the cap the climb dynamics are untouched
    free = CycleMaxDistribution(mm1(0.5, 1.0))
    for n in range(1, 6):
        assert dist.cdf(n) == pytest.approx(free.cdf(n), rel=1e-13)
        assert dist.failure_rate(n) == pytest.approx(free.failure_rate(n), rel=1e-13)


def test_transient_escape_probability():
    dist = CycleMaxDistribution(mm1(2.0, 1.0))
    # S(inf) = sum 2^-i = 2, so half the cycles never return
    assert dist.p_finite == pytest.approx(0.5, rel=1e-13)
    for n in range(1, 20):
        assert dist.conditional_cdf(n) == pytest.approx(dist.cdf(n) / 0.5, rel=1e-12)
    assert dist.conditional_cdf(60) == pytest.approx(1.0, abs=1e-12)


def test_tail_sum_guards():
    recurrent = CycleMaxDistribution(mm1(0.9, 1.0))
    with pytest.raises(NotTransientError):
        recurrent.log_tail_sum(5)
    transient = CycleMaxDistribution(mm1(2.0, 1.0))
    # log sum_{i>n} 2^-i = log 2^-n
    for n in (5, 40, 200):
        assert transient.log_tail_sum(n) == pytest.approx(-n * math.log(2.0), rel=1e-12)


_GROWING = TableSequence((1.0, 0.4, 0.9, 0.3), tail_ratio=1.7)


@pytest.mark.parametrize(
    "spec",
    [mm1(2.0, 1.0), mms(3, 4.5, 1.0), BirthDeathSpec(psi=_GROWING, phi=_GROWING, lam=1.0, mu=1.0)],
    ids=["mm1-2", "mms3-4.5", "table"],
)
def test_tail_sum_of_an_array_equals_scalars_and_a_long_sum(spec):
    dist = CycleMaxDistribution(spec)
    n = np.array([40, 0, 7, 300, 7, 1, 150])
    got = dist.log_tail_sum(n)
    assert got.shape == n.shape
    assert [dist.log_tail_sum(int(k)) for k in n] == pytest.approx(got.tolist(), rel=1e-12)
    # the terms beyond 3000 are below e^-900 of those past n
    terms = -spec.log_psi_rho(np.arange(3001))
    brute = [np.logaddexp.reduce(terms[k + 1 :]) for k in n]
    assert got.tolist() == pytest.approx(brute, rel=1e-12)


def test_tail_asymptotics_subcritical():
    ta = tail_asymptotics(mm1(0.4, 1.0))
    assert ta.regime is TailRegime.SUBCRITICAL
    assert ta.limit_constant == pytest.approx(0.6, rel=1e-12)
    assert ta.empirical_value == pytest.approx(0.6, rel=1e-12)

    inf = tail_asymptotics(mminf(1.0, 1.0))
    assert inf.regime is TailRegime.SUBCRITICAL
    assert inf.limit_constant == pytest.approx(1.0)
    assert abs(inf.empirical_value - 1.0) < 0.01


def test_tail_asymptotics_critical():
    ta = tail_asymptotics(mm1(1.0, 1.0), n_probe=400)
    assert ta.regime is TailRegime.CRITICAL
    assert ta.limit_constant == pytest.approx(1.0)
    assert ta.alpha == pytest.approx(1.0)
    # n (1 - F(n)) = n/(n+1) exactly at the probe depth
    assert ta.empirical_value == pytest.approx(400.0 / 401.0, rel=1e-12)


def test_tail_asymptotics_supercritical():
    ta = tail_asymptotics(mm1(2.0, 1.0))
    assert ta.regime is TailRegime.SUPERCRITICAL
    assert ta.limit_constant == pytest.approx(0.5, rel=1e-9)
    assert ta.fixed_point_constant == pytest.approx(0.5, rel=1e-9)
    assert ta.empirical_value == pytest.approx(0.5, rel=1e-9)


def test_supercritical_constant_survives_a_vanishing_finite_mass():
    # rho = 1e300: p_finite = 1e-300, so 1 - b* taken as 1 - (1 - p_finite) is 0
    ta = tail_asymptotics(mm1(1e300, 1.0))
    assert ta.regime is TailRegime.SUPERCRITICAL
    assert abs(ta.limit_constant - 1.0) <= 1e-12
    assert ta.fixed_point_constant == ta.limit_constant


@pytest.mark.parametrize("spec", [mm1(1.25, 1.0), mms(3, 4.0, 1.0)], ids=["mm1-1.25", "mms3-4"])
def test_supercritical_constant_is_the_limit(spec):
    ta = tail_asymptotics(spec)
    assert ta.limit_constant == pytest.approx(ta.empirical_extrapolated, rel=1e-9)
    assert ta.fixed_point_constant == ta.limit_constant


def test_a_critical_exponent_near_one_takes_the_log_scale():
    # psi(n) = n + 1 at rho = 1: S(n) is the harmonic sum, so (1 - F(n)) log n -> 1,
    # though the fit over [200, 400] reads p = 0.9965
    seq = CallableSequence(lambda n: np.log(n + 1.0), tail_ratio=1.0)
    ta = tail_asymptotics(BirthDeathSpec(seq, seq, 1.0, 1.0))
    assert ta.regime is TailRegime.CRITICAL and ta.scale == "log(n) * (1 - F(n))"
    assert abs(ta.p_exponent - 1.0) < 0.01 and abs(ta.limit_constant - 1.0) < 0.05


def test_a_critical_exponent_of_two_takes_the_hurwitz_scale():
    # psi(n) = (n + 1)^2 at rho = 1: S(inf) = pi^2 / 6
    seq = CallableSequence(lambda n: 2.0 * np.log(n + 1.0), tail_ratio=1.0)
    ta = tail_asymptotics(BirthDeathSpec(seq, seq, 1.0, 1.0))
    assert ta.scale == "(1 - F(n))"
    assert ta.limit_constant == pytest.approx(6.0 / math.pi**2, abs=1e-4)


def test_tail_asymptotics_probe_floor():
    with pytest.raises(ValueError):
        tail_asymptotics(mm1(0.5, 1.0), n_probe=50)


@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_tail_asymptotics_probe_ceiling(rho):
    # a probe at 10^9 would need tables of several GiB
    spec = mm1(rho, 1.0)
    with pytest.raises(NotApplicableError, match="n_probe"):
        tail_asymptotics(spec, n_probe=10**9)
    assert len(spec._law_tables.log_S) < 10**4  # nothing grew toward the probe


def test_s_limit_sums_within_the_table_ceiling():
    # psi(n) = (n + 1)^2 at rho = 1: S(inf) = pi^2 / 6, and the partial sums
    # have not settled to 1e-15 by level 2^20, where the sum stops
    seq = CallableSequence(lambda n: 2.0 * np.log(n + 1.0), tail_ratio=1.0)
    spec = BirthDeathSpec(seq, seq, 1.0, 1.0)
    assert _as_dist(spec).p_finite == pytest.approx(1.0 - 6.0 / math.pi**2, abs=2e-7)
    assert len(spec._law_tables.log_S) == (1 << 20) + 1


def test_transient_only_fields_absent_when_recurrent():
    dist = CycleMaxDistribution(mm1(0.5, 1.0))
    assert dist.p_finite == pytest.approx(1.0, abs=1e-14)
    deep = CycleMaxDistribution(mm1(0.99, 1.0))
    with pytest.raises(NotTransientError):
        deep.log_tail_sum(10)


def test_non_integer_levels_raise_value_error():
    dist = CycleMaxDistribution(mm1(0.5, 1.0))
    with pytest.raises(ValueError, match="level n must be an integer, got 2.5"):
        dist.cdf(2.5)
    with pytest.raises(ValueError, match="float64"):
        dist.failure_rate(np.array([1.0, 2.5]))
    with pytest.raises(ValueError, match="level n"):
        dist.blocking_prob(3.0)
    assert dist.cdf(3) == dist.cdf(np.int64(3)) == dist.cdf(np.array([3]))[0]
    assert dist.cdf(3) == pytest.approx(single_server_cdf(0.5, 3), rel=1e-12)


# (s, a, zeta(s, a)) from scipy.special.zeta, computed once and pinned here
@pytest.mark.parametrize(
    "s, a, expected",
    [
        (1.01, 1.0, 100.5779433384968),
        (1.5, 1.0, 2.612375348685488),
        (2.0, 1.0, 1.6449340668482266),
        (2.0, 401.0, 0.0024968776041634114),
        (3.5, 101.0, 3.950291654636813e-06),
        (7.5, 2.0, 0.005826727536522808),
        (1.2, 5001.0, 0.9102638965992362),
    ],
)
def test_hurwitz_zeta_reference_values(s, a, expected):
    assert _hurwitz_zeta(s, a) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_spec_functions_share_one_law(monkeypatch):
    built = []
    init = _LawTables.__init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(_LawTables, "__init__", counting)
    spec = mm1(0.5, 1.0)
    tail_asymptotics(spec)
    compactness_diagnostic(spec)
    sample_maxima(spec, 1000, 50)
    sample_maxima(spec, 10**6, 50)
    cycle_max_cdf(spec, 7)
    failure_rate(spec, 7)
    blocking_prob(spec, 7)
    assert built == [spec._law_tables]
    # the public constructor builds a new law object over the spec's tables
    assert CycleMaxDistribution(spec) is not CycleMaxDistribution(spec)
    assert CycleMaxDistribution(spec)._tables is spec._law_tables
    assert len(built) == 1


def test_every_law_of_a_spec_grows_one_table():
    spec = mms(3, 2.1, 1.0)
    cycle_max_cdf(spec, 5000)
    direct = CycleMaxDistribution(spec)
    assert len(direct._log_S) >= 5001 and len(direct._log_W) >= 5001
    direct.log_cumulative(30_000)
    assert len(_as_dist(spec)._log_S) >= 30_001
    assert CycleMaxDistribution(spec)._log_S is direct._log_S
    transient = mm1(2.0, 1.0)
    assert CycleMaxDistribution(transient).log_s_limit() == _as_dist(transient)._tables.log_s_inf
    # an equal spec object has tables of its own, which hold no spec
    other = dataclasses.replace(spec)
    assert len(CycleMaxDistribution(other)._log_S) < 5001
    assert not any(isinstance(x, type(spec)) for x in gc.get_referents(other._law_tables))


def test_a_spec_and_its_cached_law_are_freed_without_the_cycle_collector():
    net = NetworkSpec(
        mu0=0.25,
        stations=(Station("ss", 1.0), Station("is", 0.5)),
        routing=((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = mm1(0.5, 1.0)
        assert cycle_max_cdf(spec, 5) == _as_dist(spec).cdf(5)
        classify(spec)
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
        induced = norton_reduce(net, 400).induced
        cycle_max_cdf(induced, 5)
        ref = weakref.ref(induced)
        del induced
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    # a law built directly keeps its spec alive
    dist = CycleMaxDistribution(mm1(0.5, 1.0))
    assert dist.cdf(5) == pytest.approx(single_server_cdf(0.5, 5), rel=1e-12)


_WAVY = TableSequence(np.exp(np.sin(np.arange(1000))), 1.0)  # 1,000 entries, not monotone
_GROWN_SPECS = [
    mm1(0.5, 1.0),
    mm1(1.0, 1.0),
    mm1(2.0, 1.0),
    mms(3, 2.1, 1.0),
    mminf(3.0, 1.0),
    BirthDeathSpec(_WAVY, _WAVY, 0.8, 1.0),
]


@pytest.mark.parametrize("spec", _GROWN_SPECS, ids=["mm1-0.5", "mm1-1", "mm1-2", "mms3", "mminf3", "table"])
def test_step_grown_table_equals_a_fresh_one(spec):
    grown = CycleMaxDistribution(spec)
    for n in (3, 70, 130, 700, 5000):
        grown.log_cumulative(n)
    fresh = CycleMaxDistribution(dataclasses.replace(spec))
    n = np.arange(5001)
    assert grown.log_cumulative(n).tobytes() == fresh.log_cumulative(n).tobytes()
    assert grown.log_weight_cumulative(n).tobytes() == fresh.log_weight_cumulative(n).tobytes()
