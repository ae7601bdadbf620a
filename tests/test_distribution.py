import dataclasses
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

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
    Verdict,
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
import cyclemax.distribution as distribution_module
from cyclemax.distribution import _LawTables, _as_dist, _hurwitz_zeta
from cyclemax.errors import FitFailedError, NotTransientError


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


def test_tail_sum_without_a_geometric_bound_runs_its_window_out():
    # q = 0: the term ratio of the dual M/M/inf chain is about 1/(2(n + 1)),
    # so a fixed window of 8 terms is off by 2e-8 at n = 0
    spec = mminf(0.5, 1.0).dual()
    dist = CycleMaxDistribution(spec)
    terms = -spec.log_psi_rho(np.arange(201))
    brute = [np.logaddexp.reduce(terms[n + 1 :]) for n in range(4)]
    assert dist.log_tail_sum(np.arange(4)).tolist() == pytest.approx(brute, rel=1e-12)
    assert [dist.log_tail_sum(n) for n in range(4)] == pytest.approx(brute, rel=1e-12)


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
    ta = tail_asymptotics(mm1(1.0, 1.0))
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


@pytest.mark.parametrize(
    "spec", [mminf(300.0, 1.0), mminf(2e4, 1.0), mms(50, 45.0, 1.0), mm1(0.999, 1.0)],
    ids=["mminf-300", "mminf-2e4", "mms50-45", "mm1-0.999"],
)
def test_a_geometric_tail_is_probed_where_it_has_settled(spec):
    # at level 400 these read 9.0e-123, 0.0, 0.0063 and 0.0030: before the
    # peak of the terms, or not yet down a ratio near 1
    ta = tail_asymptotics(spec)
    assert ta.regime is TailRegime.SUBCRITICAL
    assert abs(ta.empirical_value / ta.limit_constant - 1.0) < 0.25


def _power_spec(p):
    # psi(n) = (n + 1)^p at rho = 1: S(inf) = zeta(p)
    seq = CallableSequence(lambda n: p * np.log(n + 1.0), tail_ratio=1.0)
    return BirthDeathSpec(seq, seq, 1.0, 1.0)


def test_s_limit_sums_within_the_table_ceiling():
    # S(inf) = pi^2 / 6: the margin sums to level 2^20 and closes the rest
    # with a Hurwitz sum, outside the law's tables
    spec = _power_spec(2.0)
    assert _as_dist(spec).p_finite == pytest.approx(1.0 - 6.0 / math.pi**2, abs=1e-11)
    assert len(spec._law_tables.log_S) < 1 << 10


def test_s_limit_of_a_slow_power_tail():
    # S(inf) = zeta(1.5); the partial sum to 2^20 still misses 2e-3 of it
    assert _as_dist(_power_spec(1.5)).p_finite == pytest.approx(1.0 - 1.0 / 2.612375348685488, abs=1e-8)


def test_a_power_tail_that_flattens_past_the_series_probe_is_refused():
    # (n + 1)^2 to level 2e4, then growth as n^0.9 only: the series test
    # reads p = 2 on [5000, 10000], but past 2^19 the terms sum like n^-0.9
    seq = CallableSequence(
        lambda n: 2.0 * np.log(np.minimum(n, 20000) + 1.0) + 0.9 * np.log(np.maximum(n / 20000, 1.0)),
        tail_ratio=1.0,
    )
    spec = BirthDeathSpec(seq, seq, 1.0, 1.0)
    assert classify(spec).b_star_convergent is True
    with pytest.raises(FitFailedError, match="fit power 0.9"):
        _as_dist(spec).log_s_limit()


def test_critical_constant_is_the_escape_mass():
    spec = _power_spec(2.0)
    ta = tail_asymptotics(spec)
    assert ta.regime is TailRegime.CRITICAL and ta.p_exponent > 1.0
    assert ta.limit_constant == pytest.approx(1.0 - _as_dist(spec).p_finite, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("spec", [mm1(0.5, 1.0), mminf(2.0, 1.0)], ids=["mm1", "mminf"])
def test_s_limit_of_a_recurrent_chain_is_refused(spec):
    dist = CycleMaxDistribution(spec)
    entries = len(spec._law_tables.log_S)
    with pytest.raises(NotTransientError):
        dist.log_s_limit()
    assert len(spec._law_tables.log_S) == entries


def test_s_limit_of_a_capped_chain_is_its_last_partial_sum():
    dist = CycleMaxDistribution(mm1(0.5, 1.0, cap=5))
    assert dist.log_s_limit() == dist.log_cumulative(5)


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


def _square_table_spec():
    # psi(n) = (n + 1)^2 on 0..63, then 64^2 (n / 63)^2 as the record states, at rho = 1
    seq = TableSequence([(n + 1.0) ** 2 for n in range(64)], tail_ratio=1.0, poly_degree=2)
    return BirthDeathSpec(seq, seq, 1.0, 1.0)


def test_a_declared_power_table_closes_its_margin_at_the_table_end(monkeypatch):
    # the record gives p = 2 and alpha; no power is fitted, and the window
    # ends one term past the table instead of at level 2^20
    def no_fit(*args):
        raise AssertionError("a declared tail needs no fitted power")

    monkeypatch.setattr(distribution_module, "_power_fit", no_fit)
    spec = _square_table_spec()
    tracemalloc.start()
    try:
        ta = tail_asymptotics(spec)
        conditional = CycleMaxDistribution(spec).conditional_cdf(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(ta.limit_constant - 0.60801733987711128) <= 1e-12
    assert abs(conditional - 0.51022665119242494) <= 1e-12
    assert (ta.p_exponent, type(ta.p_exponent)) == (2.0, float)
    assert peak < 2 << 20


def test_a_declared_critical_tail_reads_its_constant_exactly():
    # psihat(n) rho^n = 2 from n = 1 on, so the constant alpha (1 - p) is 2
    ta = tail_asymptotics(mms(2, 2.0, 1.0))
    assert (ta.limit_constant, ta.alpha, ta.p_exponent) == (2.0, 2.0, 0.0)


def _mms_b_inverse(s, lam):
    """B_phi^-1 of M/M/s at the float lam, in exact rationals: the head to
    s - 1 plus the geometric series of the terms from s on."""
    rho = Fraction(lam)
    head = sum(rho**n / math.factorial(n) for n in range(s))
    return head + rho**s / math.factorial(s) / (1 - rho / s)


def _mms_p_finite(s, lam):
    """P(Y < inf) = 1 - 1/S(inf) of transient M/M/s at the float lam, in exact rationals."""
    rho = Fraction(lam)
    head = sum(math.factorial(n) / rho**n for n in range(s))
    tail = math.factorial(s) / rho**s / (1 - s / rho)
    return 1 - 1 / (head + tail)


@pytest.mark.parametrize(
    "lam, verdict",
    [(2.99997, Verdict.POSITIVE_RECURRENT), (2.99999, Verdict.POSITIVE_RECURRENT), (3.00003, Verdict.TRANSIENT)],
)
def test_near_critical_multi_server_queues_match_their_closed_forms(lam, verdict):
    # the series close at the record's start s - 1, where the ratio test of
    # the terms ran to 80,000 and was refused at 2.99999 and 3.00003
    spec = mms(3, lam, 1.0)
    cls = classify(spec)
    assert cls.verdict is verdict
    if verdict is Verdict.TRANSIENT:
        got, want = CycleMaxDistribution(spec).p_finite, _mms_p_finite(3, lam)
    else:
        got, want = cls.b_phi_inv, _mms_b_inverse(3, lam)
    assert abs(Fraction(got) / want - 1) <= 1e-9


@pytest.mark.parametrize("lam, doubles", [(1.0001, True), (1.01, True), (1.25, False)])
def test_the_supercritical_probe_moves_down_the_falling_reciprocal(lam, doubles):
    # at level 400, 1/rho^n is 0.96 for rho = 1.0001: the probe doubles until it
    # falls below 2^-53, where the normalised tail has settled
    spec = mm1(lam, 1.0)
    ta = tail_asymptotics(spec)
    assert ta.regime is TailRegime.SUPERCRITICAL
    assert abs(ta.empirical_value / ta.limit_constant - 1.0) < 1e-9
    assert (len(spec._law_tables.log_S) > 801) is doubles


def _direct_failure_rate(dist, n):
    """The per-call formula the law tables replaced, kept as the oracle."""
    spec = dist.spec
    nc = n if spec.cap is None else np.minimum(n, spec.cap)
    out = np.exp(-spec.log_psi_rho(nc) - dist.log_cumulative(nc))
    return out if spec.cap is None else np.where(n >= spec.cap, 1.0, out)


def _direct_blocking_prob(dist, n):
    spec = dist.spec
    nc = n if spec.cap is None else np.minimum(n, spec.cap)
    return np.exp(spec.log_psi_rho(nc) - dist.log_weight_cumulative(nc))


_READ_SPECS = {
    "mm1-0.3": mm1(0.3, 1.0),
    "mm1-0.9": mm1(0.9, 1.0),
    "mm1-2": mm1(2.0, 1.0),
    "mms3-2.1": mms(3, 2.1, 1.0),
    "mminf-1": mminf(1.0, 1.0),
    "table": BirthDeathSpec(
        TableSequence(np.exp(np.random.default_rng(6).uniform(-0.05, 0.05, 10**3)), 1.0),
        TableSequence([1.0], 1.0),
        0.8,
        1.0,
    ),
    "callable": BirthDeathSpec(
        CallableSequence(lambda n: 1.5 * np.log1p(np.asarray(n, dtype=float)), tail_ratio=1.0),
        CallableSequence(lambda n: 1.5 * np.log1p(np.asarray(n, dtype=float)), tail_ratio=1.0),
        0.5,
        1.0,
    ),
    "capped": mms(3, 4.5, 1.0, cap=40),
}


@pytest.mark.parametrize("name", list(_READ_SPECS))
def test_failure_rate_and_blocking_prob_read_the_tables_bit_for_bit(name):
    spec = _READ_SPECS[name]
    dist = CycleMaxDistribution(spec)
    n = np.arange(1, 10**4 + 1)
    assert np.array_equal(dist.failure_rate(n), _direct_failure_rate(dist, n))
    assert np.array_equal(dist.blocking_prob(n), _direct_blocking_prob(dist, n))
    for level in (1, 7, 40, 10**4):
        assert dist.failure_rate(level) == float(_direct_failure_rate(dist, np.array(level)))
        assert dist.blocking_prob(level) == float(_direct_blocking_prob(dist, np.array(level)))


def test_each_level_weight_is_evaluated_once():
    seen = []

    def log_fn(n):
        seen.append(np.array(n).ravel())
        return -0.1 * np.asarray(n, dtype=float)

    spec = BirthDeathSpec(CallableSequence(log_fn, tail_ratio=math.exp(-0.1)), TableSequence([1.0], 1.0), 0.5, 1.0)
    dist = CycleMaxDistribution(spec)
    first = len(spec._law_tables.log_S)  # the levels the tables start with
    seen.clear()
    n = np.arange(1, 10**4 + 1)
    dist.cdf(n)
    dist.failure_rate(n)
    dist.blocking_prob(n)
    counts = np.bincount(np.concatenate(seen), minlength=10**4 + 1)
    # level 0 once more, as the scale psi(0); every other level the tables reach once
    assert counts[0] == 1 and not counts[1:first].any()
    assert np.all(counts[first : 10**4 + 1] == 1)
