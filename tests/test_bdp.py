import dataclasses
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import cyclemax.bdp as bdp_module
from cyclemax import (
    BirthDeathSpec,
    CallableSequence,
    CycleMaxDistribution,
    FactorialInverseSequence,
    MultiServerSequence,
    NetworkSpec,
    NormingKind,
    OnesSequence,
    SimConfig,
    Station,
    TableSequence,
    Tail,
    Verdict,
    build_tail_function,
    classify,
    compactness_diagnostic,
    default_norming_kind,
    dual_process,
    duality_check,
    gumbel_bounds,
    invert_tail,
    load_spec,
    mm1,
    mminf,
    mms,
    norming_constants,
    norton_reduce,
    palm_distribution,
    save_spec,
    simulate_cycles,
    spec_from_dict,
    spec_to_dict,
    stationary_distribution,
    tail_asymptotics,
)
from cyclemax.bdp import log_factorial
from cyclemax.errors import NotApplicableError, OutOfRangeError, SpecFormatError

# log n! from scipy.special.gammaln(n + 1.0), computed once and pinned here
LOG_FACTORIAL_REFERENCE = [
    (0, 0.0),
    (1, 0.0),
    (2, 0.6931471805599453),
    (10, 15.104412573075516),
    (170, 706.5730622457875),
    (10000, 82108.92783681436),
    (65535, 661276.8717651855),
    (65536, 661287.9621200745),
    (1000000, 12815518.384658169),
    (2.5, 1.2009736023470743),
    (17.3, 34.366330679679024),
]


def test_ones_sequence_is_flat():
    seq = OnesSequence()
    assert seq.value(0) == 1.0
    assert seq.value(17) == 1.0
    assert np.allclose(seq.log_value(np.arange(8)), 0.0)
    assert seq.tail_ratio == 1.0


def test_multi_server_weights():
    # psi(n) = 1/prod_{i<=n} min(i, s): factorial up to s, then geometric 1/s
    seq = MultiServerSequence(3)
    assert seq.value(0) == 1.0
    assert seq.value(2) == pytest.approx(0.5)
    assert seq.value(3) == pytest.approx(1.0 / 6.0)
    assert seq.value(4) == pytest.approx(1.0 / 18.0)
    assert seq.tail_ratio == pytest.approx(1.0 / 3.0)


def test_factorial_weights():
    seq = FactorialInverseSequence()
    assert seq.value(3) == pytest.approx(1.0 / 6.0)
    assert seq.value(10) == pytest.approx(1.0 / math.factorial(10))
    assert seq.tail_ratio == 0.0


def test_table_sequence_geometric_extension():
    seq = TableSequence((1.0, 0.8, 0.5), tail_ratio=0.5)
    assert seq.value(1) == pytest.approx(0.8)
    assert seq.value(2) == pytest.approx(0.5)
    assert seq.value(4) == pytest.approx(0.5 * 0.5**2)
    assert seq.poly_degree == 0


def test_table_sequence_polynomial_extension():
    # beyond the table: value(last) * ratio^(n-last) * (n/last)^degree
    seq = TableSequence((1.0, 0.8, 0.5), tail_ratio=0.5, poly_degree=1)
    assert seq.value(4) == pytest.approx(0.5 * 0.25 * (4 / 2))
    assert seq.value(6) == pytest.approx(0.5 * 0.5**4 * (6 / 2))


def test_table_sequence_from_log():
    logs = np.array([0.0, -1.0, -800.0, -801.0])
    seq = TableSequence.from_log(logs, tail_ratio=0.5)
    got = seq.log_value(np.arange(4))
    assert np.allclose(got, logs, atol=1e-9)
    # values this small have no finite linear representation, so the
    # file format must refuse them rather than write zeros
    with pytest.raises(SpecFormatError):
        spec_to_dict(BirthDeathSpec(psi=seq, phi=seq, lam=0.5, mu=1.0))


def test_log_value_matches_scalar_values():
    for seq in (MultiServerSequence(2), FactorialInverseSequence(), TableSequence((1.0, 0.3), tail_ratio=0.3)):
        n = np.arange(12)
        logs = np.asarray(seq.log_value(n), dtype=float)
        direct = np.array([seq.value(int(i)) for i in n])
        assert np.allclose(np.exp(logs), direct, rtol=1e-12)


@pytest.mark.parametrize("n, expected", LOG_FACTORIAL_REFERENCE)
def test_log_factorial_reference_values(n, expected):
    assert log_factorial(n) == pytest.approx(expected, rel=2e-15, abs=0.0)


def test_log_factorial_array_matches_scalars():
    points = [n for n, _ in LOG_FACTORIAL_REFERENCE]
    expected = [v for _, v in LOG_FACTORIAL_REFERENCE]
    assert np.allclose(log_factorial(np.array(points, dtype=float)), expected, rtol=2e-15, atol=0.0)
    whole = np.array([n for n in points if isinstance(n, int)])
    assert np.array_equal(log_factorial(whole), [log_factorial(int(n)) for n in whole])
    assert log_factorial(np.array([], dtype=int)).shape == (0,)


def test_nan_weights_raise_spec_format_error():
    nan_seq = CallableSequence(lambda n: np.full(np.shape(n), np.nan))
    with pytest.raises(SpecFormatError, match="NaN"):
        nan_seq.log_value(np.arange(4))
    with pytest.raises(SpecFormatError):
        classify(BirthDeathSpec(nan_seq, nan_seq, 0.5, 1.0))


@pytest.mark.parametrize("bounds", [(2.0, 0.5), (-1.0, 1.0), (math.nan, 1.0)], ids=["reversed", "negative", "nan"])
def test_tail_bounds_are_checked_when_built(bounds):
    with pytest.raises(SpecFormatError, match="tail_bounds"):
        CallableSequence(lambda n: -0.5 * np.asarray(n, dtype=float), tail_bounds=bounds)


def test_reciprocal_sequence_inverts_valid_tail_bounds():
    seq = CallableSequence(lambda n: -0.5 * np.asarray(n, dtype=float), tail_bounds=(0.0, 2.0))
    assert seq.tail_bounds == (0.0, 2.0)
    assert seq.reciprocal().tail_bounds == (0.5, math.inf)


def test_a_callable_takes_one_tail_hint():
    # classify would read only the ratio, while the reciprocal inverted both
    with pytest.raises(SpecFormatError, match="not both"):
        CallableSequence(lambda n: -0.5 * np.asarray(n, dtype=float), tail_ratio=0.5, tail_bounds=(0.25, 1.0))
    seq = CallableSequence(lambda n: -0.5 * np.asarray(n, dtype=float), tail_ratio=0.5)
    assert (seq.tail_ratio, seq.tail_bounds, seq.reciprocal().tail_ratio) == (0.5, (0.5, 0.5), 2.0)


def test_a_record_states_the_tail_ratio_and_bounds():
    for seq, ratio in [
        (OnesSequence(), 1.0),
        (FactorialInverseSequence(), 0.0),
        (FactorialInverseSequence().reciprocal(), math.inf),
        (MultiServerSequence(3).reciprocal(), 3.0),
        (TableSequence((1.0, 0.5), tail_ratio=0.25, poly_degree=1), 0.25),
    ]:
        assert (seq.tail_ratio, seq.tail_bounds) == (ratio, (ratio, ratio))
    assert TableSequence((1.0, 0.5), tail_ratio=0.25, poly_degree=1).poly_degree == 1


def test_failed_classification_is_not_cached():
    nan_seq = CallableSequence(lambda n: np.full(np.shape(n), np.nan))
    spec = BirthDeathSpec(nan_seq, nan_seq, 0.5, 1.0)
    for _ in range(2):
        with pytest.raises(SpecFormatError, match="NaN"):
            classify(spec)


def test_series_tests_run_once_per_spec(monkeypatch):
    calls = []
    series_tests = bdp_module._classify

    def counted(spec):
        calls.append(spec)
        return series_tests(spec)

    monkeypatch.setattr(bdp_module, "_classify", counted)
    spec = mm1(0.5, 1.0)
    cls = classify(spec)
    dist = CycleMaxDistribution(spec)
    dist.cdf(np.arange(1, 30))
    dist.p_finite
    tail_asymptotics(spec)
    assert default_norming_kind(spec) is NormingKind.GEOMETRIC
    norming_constants(spec, NormingKind.NUMERIC, [10, 1000])
    compactness_diagnostic(spec)
    for x in (-1.0, 0.0, 1.0, 2.0):
        gumbel_bounds(spec, x, 1000)
    stationary_distribution(spec, 20)
    assert classify(spec) is cls
    assert calls == [spec]
    # an equal but distinct spec object runs the tests again
    assert classify(mm1(0.5, 1.0)) == cls
    assert len(calls) == 2


def test_weight_sequences_are_immutable():
    sequences = [
        OnesSequence(),
        FactorialInverseSequence(),
        MultiServerSequence(3),
        TableSequence((1.0, 0.5), tail_ratio=0.5),
        TableSequence.from_log([0.0, -1.0], tail_ratio=0.5, poly_degree=1),
        CallableSequence(lambda n: -np.asarray(n, dtype=float), tail_ratio=math.exp(-1.0)),
        MultiServerSequence(2).reciprocal(),
    ]
    for seq in sequences:
        with pytest.raises(AttributeError):
            seq.tail_ratio = 0.25
        with pytest.raises(AttributeError):
            seq.extra = 1
        with pytest.raises(AttributeError):
            del seq.tail_ratio
    table = sequences[3]
    with pytest.raises(AttributeError):
        table.values = (1.0, 0.9)
    assert table.values == (1.0, 0.5) and table.tail_ratio == 0.5
    # the log table is a read-only copy, so the caller's array can change freely
    logs = np.array([0.0, -1.0, -2.0])
    from_log = TableSequence.from_log(logs, tail_ratio=0.5)
    logs[1] = 5.0
    assert from_log.log_value(1) == -1.0
    for seq in (table, from_log):
        with pytest.raises(ValueError):
            seq._log_values[0] = 1.0
        with pytest.raises(ValueError):
            seq._values[0] = 1.0
    same = TableSequence([1, 0.5], tail_ratio=0.5)
    assert same == table and hash(same) == hash(table)
    assert TableSequence((1.0, 0.25), tail_ratio=0.5) != table


@pytest.mark.parametrize(
    "seq, tail, log_amp",
    [
        (OnesSequence(), Tail(0, 0.0), 0.0),
        (FactorialInverseSequence(), Tail(0, 0.0, factorial=1), 0.0),
        (MultiServerSequence(1), Tail(0, 0.0, 1.0), 0.0),
        (MultiServerSequence(3), Tail(2, -math.log(2.0), 1.0 / 3.0), 3.0 * math.log(3.0) - math.log(6.0)),
        (TableSequence((2.0,), tail_ratio=0.5), Tail(0, math.log(2.0), 0.5), math.log(2.0)),
        (TableSequence((1.0, 0.8, 0.5), tail_ratio=0.5, poly_degree=1), Tail(2, math.log(0.5), 0.5, 1), 0.0),  # 0.5^n n
    ],
    ids=["ones", "factorial", "mms1", "mms3", "table", "poly-table"],
)
def test_each_preset_and_table_states_its_tail_record(seq, tail, log_amp):
    # anchored at its start: the weight there, and the amplitude the law extrapolates to n = 0
    assert seq.tail == dataclasses.replace(tail, log_start=seq.tail.log_start)
    assert seq.tail.log_start == pytest.approx(tail.log_start, rel=1e-15, abs=1e-15)
    assert seq.tail.log_amp == pytest.approx(log_amp, rel=1e-15, abs=1e-15)
    n = np.arange(tail.start, tail.start + 50)
    assert np.allclose(seq.tail.log_value(n), seq.log_value(n), rtol=1e-13, atol=1e-13)
    # the record of the reciprocal is the negated record, and the dual of the dual keeps it
    assert seq.reciprocal().tail == seq.tail.reciprocal()
    assert seq.reciprocal().reciprocal().tail == seq.tail
    assert np.allclose(seq.reciprocal().tail.log_value(n), -seq.log_value(n), rtol=1e-13, atol=1e-13)


def test_a_record_starts_where_its_law_first_holds():
    # s^(s - n)/s! agrees with 1/n! at n = s - 1 but not at s - 2
    seq = MultiServerSequence(4)
    assert seq.tail.start == 3
    assert seq.tail.log_value(2) != pytest.approx(float(seq.log_value(2)))
    assert CallableSequence(lambda n: -np.asarray(n, dtype=float), tail_ratio=0.5).tail is None


def test_multi_server_log_ratio_is_exact_beyond_s():
    for s in (1, 2, 3, 8):
        seq = MultiServerSequence(s)
        n = np.arange(0, 2000)
        got = seq.log_ratio(n)
        assert np.all(got[s - 1:] == -math.log(s))
        assert np.array_equal(got[: s - 1], -np.log(np.arange(1, s)))
        assert np.allclose(got, seq.log_value(n + 1) - seq.log_value(n), rtol=0.0, atol=1e-12)


def test_equal_sequences_and_specs_hash_alike():
    pairs = [
        (OnesSequence(), OnesSequence()),
        (FactorialInverseSequence(), FactorialInverseSequence()),
        (MultiServerSequence(3), MultiServerSequence(3)),
        (TableSequence((1.0, 0.3), tail_ratio=0.3), TableSequence((1.0, 0.3), tail_ratio=0.3)),
        (MultiServerSequence(2).reciprocal(), MultiServerSequence(2).reciprocal()),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert MultiServerSequence(2) != MultiServerSequence(3)
    for make in (lambda: mm1(0.5, 1.0), lambda: mms(3, 2.0, 1.0, cap=40), lambda: mminf(5.0, 1.0).dual()):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert {a: "value"}[b] == "value"
    assert len({mm1(0.5, 1.0), mm1(0.5, 1.0), mm1(0.6, 1.0)}) == 2


def test_tables_that_underflow_alike_are_told_apart_by_their_logs():
    # both linear tables are all 0.0; taking phi == psi would sum psi's series with phi's weights
    n = np.arange(50)
    psi = TableSequence.from_log(-1000.0 - n, tail_ratio=0.5)
    phi = TableSequence.from_log(-1000.0 - 2.0 * n, tail_ratio=0.5)
    assert psi != phi and hash(psi) != hash(phi)
    assert psi == TableSequence.from_log(-1000.0 - n, tail_ratio=0.5)
    assert TableSequence.from_log([-0.0], 0.5) == TableSequence.from_log([0.0], 0.5)
    assert hash(TableSequence.from_log([-0.0], 0.5)) == hash(TableSequence.from_log([0.0], 0.5))
    # psi(n) = e^-n at rho = 1: the Palm law is geometric, (1 - 1/e) e^-n
    p = palm_distribution(BirthDeathSpec(psi, phi, 1.0, 1.0), 2)
    assert np.allclose(p, (1.0 - math.exp(-1.0)) * np.exp(-np.arange(3.0)), rtol=1e-12)


def test_spec_rejects_bad_rates():
    with pytest.raises(ValueError):
        mm1(0.0, 1.0)
    with pytest.raises(ValueError):
        mm1(0.5, -1.0)
    with pytest.raises(ValueError):
        mm1(0.5, 1.0, cap=0)
    with pytest.raises(ValueError):
        mms(0, 1.0, 1.0)


def _halving():
    return CallableSequence(lambda n: -0.5 * np.asarray(n, dtype=float), tail_ratio=-1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: mm1("0.5", 1),
        lambda: mm1(0.5, 1, cap=True),
        lambda: mm1(0.5, 1, cap=2.0),
        lambda: MultiServerSequence(True),
        lambda: Station("ss", True),
        lambda: Station("ms", 1.0, s=2.5),
        lambda: NetworkSpec(True, (Station("ss", 1.0),), ((0.0, 1.0), (1.0, 0.0))),
        lambda: classify(BirthDeathSpec(_halving(), _halving(), 0.5, 1.0)),
        lambda: classify(mm1(1e308, 1e-308)),
        lambda: mm1(1e-308, 1e308),
        lambda: TableSequence([1.0], "x"),
        lambda: TableSequence([1.0, 0.5], 0.5, poly_degree=1.5),
        lambda: mm1(10**400, 1.0),
    ],
    ids=["str-rate", "bool-cap", "float-cap", "bool-servers", "bool-station-rate", "float-station-servers",
         "bool-mu0", "negative-tail-ratio", "rho-overflow", "rho-underflow", "str-tail-ratio",
         "float-poly-degree", "int-rate-past-float-range"],
)
def test_a_spec_that_builds_is_valid(build):
    with pytest.raises(SpecFormatError):
        build()


def test_the_two_field_rules():
    assert bdp_module._integer("n", np.int64(3), 1) == 3 and type(bdp_module._integer("n", np.int64(3), 1)) is int
    assert bdp_module._positive("x", np.float32(0.5)) == 0.5 and bdp_module._positive("x", 2) == 2.0
    for value in (True, 2.0, "3", None, 0):
        with pytest.raises(ValueError, match=f"n must be an integer of at least 1, got {value!r}"):
            bdp_module._integer("n", value, 1)
    for value in (False, "1", None, 0.0, -1.0, math.nan, math.inf, -math.inf, np.bool_(True)):
        with pytest.raises(SpecFormatError, match="x must be a finite positive real"):
            bdp_module._positive("x", value, SpecFormatError)


def test_fields_are_stored_as_checked():
    spec = BirthDeathSpec(OnesSequence(), OnesSequence(), np.float32(0.5), 1, cap=np.int64(4))
    assert (type(spec.lam), type(spec.mu), type(spec.cap)) == (float, float, int)
    assert type(MultiServerSequence(np.int64(3)).s) is int
    station = Station("ms", 2, s=np.int64(2))
    assert (type(station.mu), type(station.s)) == (float, int)
    assert repr(MultiServerSequence(2).reciprocal()) == "ReciprocalSequence(base=MultiServerSequence(s=2))"


def test_log_weights_must_be_finite():
    for bad in (np.inf, -np.inf):
        seq = CallableSequence(lambda n, bad=bad: np.where(np.asarray(n) > 3, bad, 0.0))
        with pytest.raises(SpecFormatError, match="infinite"):
            classify(BirthDeathSpec(seq, seq, 0.5, 1.0))


def test_classify_single_server_regimes():
    sub = classify(mm1(0.5, 1.0))
    assert sub.verdict is Verdict.POSITIVE_RECURRENT
    assert sub.beta == 1.0
    assert sub.beta_lower == 1.0
    assert math.isinf(sub.b_star_inv)
    assert sub.regularity_ok

    crit = classify(mm1(1.0, 1.0))
    assert crit.verdict is Verdict.NULL_RECURRENT

    sup = classify(mm1(2.0, 1.0))
    assert sup.verdict is Verdict.TRANSIENT
    # sum of (psi(n) rho^n)^-1 = sum 2^-n = 2
    assert sup.b_star_inv == pytest.approx(2.0, rel=1e-12)


def test_classify_multi_server_and_infinite_server():
    c = classify(mms(3, 2.1, 1.0))
    assert c.verdict is Verdict.POSITIVE_RECURRENT
    assert c.beta == pytest.approx(1.0 / 3.0)

    inf = classify(mminf(2.0, 1.0))
    assert inf.verdict is Verdict.POSITIVE_RECURRENT
    assert inf.beta == 0.0
    assert inf.regularity_ok


@pytest.mark.parametrize("lam", [9_000.0, 9_500.0, 1e4, 2e4, 5e4, 7.8e4])
def test_slowly_falling_series_are_summed_past_the_truncation(lam):
    # the terms of mminf(lam) still fall only by lam/(n+1) per step at
    # n = 10,000, far from the limit ratio 0, so closing the tail with that
    # ratio there dropped half the mass at lam = 1e4 (9999.312 for 10000);
    # from lam = 2e4 on they still rise there, and the sum runs on the same way
    cls = classify(mminf(lam, 1.0))
    assert abs(cls.log_b_phi_inv - lam) <= 1e-9  # the sum e^lam to 1e-9 relative
    assert cls.log_b_psi_inv == cls.log_b_phi_inv


def test_a_factorial_tail_has_no_closed_series():
    # 1/n! states its record, but no series closes on it: the terms of
    # mminf(1e6) still rise at the 80,000-term budget, and classify refuses
    with pytest.raises(NotApplicableError, match="terms still rise"):
        classify(mminf(1e6, 1.0))


def test_a_tail_that_never_nears_its_declared_ratio_is_refused():
    # declared ratio 0.5, but the terms fall by e^-1e-5 per step throughout
    seq = CallableSequence(lambda n: -1e-5 * np.asarray(n, dtype=float), tail_ratio=0.5)
    with pytest.raises(NotApplicableError, match="not yet near its limit"):
        classify(BirthDeathSpec(psi=seq, phi=seq, lam=1.0, mu=1.0))


def test_a_refused_term_ratio_prints_apart_from_its_limit():
    # M/M/3's weights with the ratio 1/3 hinted but no tail record stated, so
    # the ratio test sums them: at n = 80,000 the ratio is 4.4e-12 above its
    # limit; to six digits both read 0.999997
    seq = CallableSequence(MultiServerSequence(3).log_value, tail_ratio=1.0 / 3.0)
    with pytest.raises(NotApplicableError, match="not yet near its limit") as info:
        classify(BirthDeathSpec(seq, seq, 2.99999, 1.0))
    ratio, limit = re.search(r"is (\S+), not yet near its limit (\S+);", str(info.value)).groups()
    assert ratio != limit and float(ratio) > float(limit)


@pytest.mark.parametrize(
    "lam, log_b",
    [(1.0, 1.0), (5.0, 4.999999999999999), (20.0, 19.999999999999996), (1e3, 999.9999999999997)],
)
def test_infinite_server_sums_keep_their_bits(lam, log_b):
    # values before the tail-closing check was added, to the last bit
    cls = classify(mminf(lam, 1.0))
    assert cls.log_b_phi_inv == cls.log_b_psi_inv == log_b


def test_regularity_flags_explosive_rates():
    # birth rate ~ e^{2n}: the non-explosion series converges, so the
    # classification must flag the chain; slowly varying rates must not trip it
    from cyclemax import CallableSequence

    psi = CallableSequence(lambda n: np.asarray(n, dtype=float) ** 2)
    spec = BirthDeathSpec(psi=psi, phi=OnesSequence(), lam=1.0, mu=1.0)
    assert not classify(spec).regularity_ok
    assert classify(mminf(2.0, 1.0)).regularity_ok


def test_stationary_distribution_closed_forms():
    rho = 0.5
    pi = stationary_distribution(mm1(rho, 1.0), 20)
    assert np.allclose(pi, (1 - rho) * rho ** np.arange(21), rtol=1e-12)

    lam = 2.0
    pi_inf = stationary_distribution(mminf(lam, 1.0), 15)
    expect = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(16)])
    assert np.allclose(pi_inf, expect, rtol=1e-10)


def test_palm_distribution_is_normalised_weight_profile():
    # true pmf values, not renormalised over the window
    p = palm_distribution(mm1(0.5, 1.0), 8)
    assert np.allclose(p, 0.5 * 0.5 ** np.arange(9), rtol=1e-12)
    assert p.sum() == pytest.approx(1.0 - 0.5**9, rel=1e-12)


def test_dual_process_swaps_rates():
    d = dual_process(mm1(0.5, 1.0))
    assert d.lam == 1.0
    assert d.mu == 0.5
    assert duality_check(0.5, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert duality_check(0.3, 1.7) == pytest.approx(0.0, abs=1e-12)


def test_spec_json_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    spec = mms(2, 1.4, 1.0, label="pool")
    save_spec(spec, path)
    back = load_spec(path)
    assert back.label == "pool"
    assert back.lam == spec.lam
    assert back.mu == spec.mu
    n = np.arange(10)
    assert np.allclose(back.psi.log_value(n), spec.psi.log_value(n), atol=1e-12)


def test_table_spec_round_trips_through_dict():
    seq = TableSequence((1.0, 0.8, 0.5), tail_ratio=0.4)
    spec = BirthDeathSpec(psi=seq, phi=OnesSequence(), lam=0.3, mu=1.0, cap=12)
    back = spec_from_dict(spec_to_dict(spec))
    assert back.cap == 12
    assert back.psi.value(5) == pytest.approx(seq.value(5), rel=1e-12)
    assert back.phi.value(5) == 1.0
    # a polynomial tail is written as poly_degree, which is 0 when absent
    poly = TableSequence((1.0, 0.8, 0.5), tail_ratio=0.4, poly_degree=2)
    doc = spec_to_dict(BirthDeathSpec(psi=poly, phi=seq, lam=0.3, mu=1.0))
    assert doc["psi"]["poly_degree"] == 2 and "poly_degree" not in doc["phi"]
    assert spec_from_dict(doc).psi == poly
    doc["psi"]["poly_degree"] = 1.5
    with pytest.raises(SpecFormatError, match="poly_degree"):
        spec_from_dict(doc)


def test_load_rejects_non_finite_and_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lambda": NaN, "mu": 1.0, "psi": {"kind": "preset", "name": "mm1"}, "phi": {"kind": "preset", "name": "mm1"}}')
    with pytest.raises(SpecFormatError):
        load_spec(bad)

    missing = tmp_path / "missing_kind.json"
    missing.write_text(json.dumps({"lambda": 1.0, "mu": 2.0, "psi": {"kind": "mystery"}, "phi": {"kind": "preset", "name": "mm1"}}))
    with pytest.raises(SpecFormatError):
        load_spec(missing)


def test_preset_labels_round_trip():
    d = spec_to_dict(mm1(0.9, 1.0))
    assert d["psi"] == {"kind": "preset", "name": "mm1"}
    back = spec_from_dict(d)
    assert isinstance(back.psi, OnesSequence)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_series_still_rising_at_the_truncation_raises():
    # rho^n / n! peaks near n = lam, past the 80,000 terms the sum runs to
    for lam in (1e5, 1e6):
        with pytest.raises(NotApplicableError, match="still rise at n = 80000"):
            classify(mminf(lam, 1.0))


@pytest.mark.parametrize(
    "spec", [mminf(1e3, 1.0), mminf(1e4, 1.0), mminf(1e3, 1.0, cap=2000)], ids=["1e3", "1e4", "1e3-cap"]
)
def test_series_summing_past_the_float_range_classify_quietly(spec):
    cls = classify(spec)
    assert cls.verdict is Verdict.POSITIVE_RECURRENT
    assert math.isfinite(cls.log_b_phi_inv)
    assert cls.b_phi_inv == math.inf


def test_malformed_table_values_are_spec_format_errors(tmp_path):
    path = tmp_path / "table.json"
    for values in ([1.0, None, 0.5], [1.0, "0.5"], [True, False], [[1.0, 0.5]], [[1.0], [0.5, 0.2]], 7, "abc"):
        doc = {"lambda": 0.5, "mu": 1.0, "psi": {"kind": "table", "values": values, "tail_ratio": 0.5},
               "phi": {"kind": "preset", "name": "mm1"}}
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError):
            load_spec(path)
    assert TableSequence(np.array([1.0, 0.5]), 0.5).values == (1.0, 0.5)
    assert TableSequence([1, np.float32(0.5)], 0.5).values == (1.0, 0.5)


def test_table_to_json_refuses_overflowed_values():
    seq = TableSequence.from_log([0.0, 800.0], tail_ratio=0.5)
    assert seq.values == (1.0, math.inf)
    with pytest.raises(SpecFormatError, match="overflow"):
        seq.to_json()


def _per_series_judgements(spec):
    """(head, q_lo, q_hi, tail) of the phi, psi, star and regularity series,
    each head evaluated through its own term function and tail the record of
    the weights it sums (psi's reciprocal record for star): the reference for
    the shared weight evaluations of _classify.  Also returns the psi tail
    geometry."""
    trunc = bdp_module._TRUNC
    idx = np.arange(trunc + 1)
    win = np.arange(trunc // 2, trunc)
    log_rho = math.log(spec.rho)

    def geometry(seq):
        if seq.tail_bounds is not None:
            return bdp_module._tail_geometry(seq, None)
        with np.errstate(over="ignore"):
            ratios = np.exp(seq.log_ratio(win))
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        return lo, hi, float(np.mean(ratios)) if hi - lo <= 1e-9 * max(1.0, abs(hi)) else None

    def psi_terms(n):
        return spec.psi.log_value(n) + n * log_rho

    def u_terms(n):
        n = np.maximum(n, 1)
        return spec.phi.log_value(n) - np.logaddexp(spec.psi.log_value(n), spec.psi.log_value(n - 1))

    b_lo, b_hi, beta = geometry(spec.psi)
    p_lo, p_hi, _ = geometry(spec.phi)
    rho = spec.rho
    ratios = np.exp(np.diff(np.asarray(u_terms(win), dtype=float)))
    q_lo, q_hi = float(np.min(ratios)), float(np.max(ratios))
    drift = float(ratios[-1] - ratios[0])
    if drift > 1e-12:
        q_hi = max(q_hi, 1.0)
    elif drift < -1e-12:
        q_lo = min(q_lo, 1.0)
    judged = {
        "phi": (spec.phi.log_value(idx) + idx * log_rho, p_lo * rho, p_hi * rho, spec.phi.tail),
        "psi": (psi_terms(idx), b_lo * rho, b_hi * rho, spec.psi.tail),
        "star": (
            -psi_terms(idx),
            bdp_module._invert_limit(b_hi * rho) if b_hi > 0 else math.inf,
            bdp_module._invert_limit(b_lo * rho) if b_lo > 0 else math.inf,
            spec.psi.tail and spec.psi.tail.reciprocal(),
        ),
        "u": (u_terms(idx), q_lo, q_hi, None),
    }
    return judged, (b_lo, b_hi, beta)


def _reference_judgement(head, lo, hi, tail):
    """The series judged as _classify's reference: terms that a record of
    degree 0 and no factorial makes geometric, at ratio hi < 1 - _TOL, from a
    start within the head are that head closed by their geometric series;
    terms with a record and no factorial whose ratio bounds lie within _TOL
    of 1 converge, to the head's sum, exactly when the record's degree is
    below -1; any other series is left to _judge_series."""
    head = np.asarray(head, dtype=float)
    tol = bdp_module._TOL
    geometric = tail is not None and tail.degree == 0 and tail.factorial == 0
    if geometric and tail.start < head.size and hi < 1.0 - tol:
        start = tail.start
        close = head[start] + math.log(hi) - math.log1p(-hi)
        return bdp_module._SeriesJudgement(bdp_module.logsumexp(np.append(head[: start + 1], close)), True)
    if tail is not None and tail.factorial == 0 and 1.0 - tol <= lo <= hi <= 1.0 + tol:
        convergent = tail.degree < -1
        return bdp_module._SeriesJudgement(bdp_module.logsumexp(head) if convergent else math.inf, convergent)
    return bdp_module._judge_series(head, None, lo, hi)


def _classified_specs():
    wavy = TableSequence(np.exp(np.sin(np.arange(1000))), 1.0)
    noisy = TableSequence(np.exp(np.random.default_rng(3).uniform(-0.05, 0.05, 10**5)), 1.0)
    power = CallableSequence(lambda n: 1.5 * np.log1p(n))
    harmonic = CallableSequence(lambda n: -np.log1p(n))
    explosive = CallableSequence(lambda n: np.asarray(n, dtype=float) ** 2)
    wobbly = CallableSequence(
        lambda n: -0.5 * n.astype(float) + np.sin(n), tail_bounds=(math.exp(-1.5), math.exp(0.5))
    )
    mixed = NetworkSpec(
        mu0=0.3,
        stations=(Station("ss", 1.0), Station("ms", 0.5, s=3), Station("is", 0.7)),
        routing=((0, 0.3, 0.3, 0.4), (0.5, 0, 0.25, 0.25), (0.4, 0.3, 0, 0.3), (0.6, 0.2, 0.2, 0)),
    )
    tandem = NetworkSpec(
        mu0=0.5, stations=(Station("ss", 1.0), Station("ss", 1.0)), routing=((0, 1, 0), (0, 0, 1), (1, 0, 0))
    )
    return {
        "mm1-0.5": mm1(0.5, 1.0),
        "mm1-1-1e-12": mm1(1.0 - 1e-12, 1.0),
        "mm1-1": mm1(1.0, 1.0),
        "mm1-1+1e-12": mm1(1.0 + 1e-12, 1.0),
        "mm1-2": mm1(2.0, 1.0),
        "mms3": mms(3, 2.1, 1.0),
        "mms2-critical": mms(2, 2.0, 1.0),
        "mminf5": mminf(5.0, 1.0),
        "capped-mms3": mms(3, 4.5, 1.0, cap=40),
        "capped-table": BirthDeathSpec(wavy, noisy, 0.5, 1.0, cap=700),
        "wavy": BirthDeathSpec(wavy, wavy, 0.8, 1.0),
        "noisy-1e5": BirthDeathSpec(noisy, noisy, 0.5, 1.0),
        "table-pair": BirthDeathSpec(noisy, wavy, 0.5, 1.0),
        "power": BirthDeathSpec(power, power, 0.6, 1.0),
        "power-critical": BirthDeathSpec(power, power, 1.0, 1.0),
        "harmonic-phi": BirthDeathSpec(OnesSequence(), harmonic, 1.0, 1.0),
        "harmonic-psi": BirthDeathSpec(harmonic, OnesSequence(), 1.0, 1.0),
        "wobbly": BirthDeathSpec(wobbly, wobbly, 1.0, 1.0),
        "ones-factorial": BirthDeathSpec(OnesSequence(), FactorialInverseSequence(), 2.0, 1.0),
        "explosive": BirthDeathSpec(explosive, OnesSequence(), 1.0, 1.0),
        "dual-mms3": mms(3, 2.1, 1.0).dual(),
        "induced-mixed": norton_reduce(mixed, 2000).induced,
        "induced-tandem": norton_reduce(tandem, 500).induced,
    }


_CLASSIFIED = _classified_specs()


@pytest.mark.parametrize("spec", _CLASSIFIED.values(), ids=_CLASSIFIED.keys())
def test_classify_equals_the_per_series_reference(spec, monkeypatch):
    if spec.cap is not None:
        cls = bdp_module._classify(spec)
        idx = np.arange(spec.cap + 1)
        log_rho = math.log(spec.rho)
        want = [
            bdp_module.logsumexp(spec.phi.log_value(idx) + idx * log_rho),
            bdp_module.logsumexp(spec.psi.log_value(idx) + idx * log_rho),
            bdp_module.logsumexp(-(spec.psi.log_value(idx) + idx * log_rho)),
        ]
        assert [cls.log_b_phi_inv, cls.log_b_psi_inv, cls.log_b_star_inv] == want
        return
    judged, geometry = _per_series_judgements(spec)
    calls = []
    judge = bdp_module._judge_series

    def recorded(log_t, log_term_fn, q_lo, q_hi, tail=None):
        out = judge(log_t, log_term_fn, q_lo, q_hi, tail)
        calls.append((np.asarray(log_t, dtype=float).tobytes(), q_lo, q_hi, tail, out))
        return out

    monkeypatch.setattr(bdp_module, "_judge_series", recorded)
    cls = bdp_module._classify(spec)
    # phi = psi with a record, or with a hinted positive lower ratio bound, is
    # regular in closed form
    hinted = spec.psi.tail_bounds is not None and geometry[0] > 0.0
    closed_form = spec.phi == spec.psi and (spec.psi.tail is not None or hinted)
    names = ["psi", "star"] if spec.phi == spec.psi else ["phi", "psi", "star"]
    names += [] if closed_form else ["u"]
    assert len(calls) == len(names)
    for (head, q_lo, q_hi, tail, out), name in zip(calls, names):
        want_head, want_lo, want_hi, want_tail = judged[name]
        assert head == np.asarray(want_head, dtype=float).tobytes(), name
        assert (q_lo, q_hi, tail) == (want_lo, want_hi, want_tail), name
        assert out == _reference_judgement(want_head, want_lo, want_hi, want_tail), name
    by_name = dict(zip(names, (out for *_, out in calls)))
    s_phi = by_name.get("phi", by_name["psi"])
    assert (cls.log_b_phi_inv, cls.b_phi_convergent) == (s_phi.log_value, s_phi.convergent)
    assert (cls.beta_lower, cls.beta_upper, cls.beta) == geometry
    u_head, u_lo, u_hi, _ = judged["u"]
    s_u = judge(np.asarray(u_head, dtype=float), None, u_lo, u_hi)
    assert cls.regularity_ok is (s_u.convergent is not True)
    if closed_form and spec.psi.tail is not None:
        assert cls.regularity_ok is (spec.psi.tail.factorial <= 1)


def _declared_specs():
    """Presets, power tables and network reductions near and at their critical
    loads, and their duals: every tail here is a record."""
    specs = {}
    for load in (0.5, 1.0 - 1e-10, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-10, 2.0):
        specs[f"mm1-{load!r}"] = mm1(load, 1.0)
        for s in (2, 3, 8):
            specs[f"mms{s}-{load!r}"] = mms(s, s * load, 1.0)
    for lam in (1e-3, 5.0, 5e4):
        specs[f"mminf-{lam!r}"] = mminf(lam, 1.0)
    for degree in range(4):
        table = TableSequence([(n + 1.0) ** degree for n in range(64)], tail_ratio=1.0, poly_degree=degree)
        for z in (0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0):
            specs[f"table{degree}-{z!r}"] = BirthDeathSpec(table, table, z, 1.0)
    for mu0 in (1.0, 2.0, 2.5):
        twin = NetworkSpec(
            mu0=mu0,
            stations=(Station("ss", 1.0), Station("ss", 1.0)),
            routing=((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        )
        specs[f"twin-{mu0!r}"] = norton_reduce(twin, 500).induced
    return {**specs, **{f"dual-{name}": spec.dual() for name, spec in specs.items()}}


def test_a_declared_tail_is_classified_without_a_probe(monkeypatch):
    def no_fit(*args):
        raise AssertionError("power-law probe reached")

    judged = []
    judge = bdp_module._judge_series

    def counted(*args):
        judged.append(args)
        return judge(*args)

    monkeypatch.setattr(bdp_module, "_power_fit", no_fit)
    monkeypatch.setattr(bdp_module, "_judge_series", counted)
    tol = bdp_module._TOL
    for name, spec in _declared_specs().items():
        judged.clear()
        cls = bdp_module._classify(spec)
        # phi = psi with a record: psi and star only, no regularity series
        assert spec.phi == spec.psi and len(judged) == 2, name
        q = spec.psi.tail_ratio * spec.rho
        degree = spec.psi.tail.degree if abs(q - 1.0) <= tol else 0
        if q > 1.0 + tol or degree > 1:
            want = Verdict.TRANSIENT
        elif q < 1.0 - tol or degree < -1:
            want = Verdict.POSITIVE_RECURRENT
        else:  # sum n^d and sum n^-d both diverge for |d| <= 1
            want = Verdict.NULL_RECURRENT
        assert cls.verdict is want, name
        assert cls.regularity_ok, name


def test_classify_evaluates_each_weight_sequence_once(monkeypatch):
    trunc = bdp_module._TRUNC
    calls = []

    def counted(name, fn):
        def log_fn(n):
            if np.min(n, initial=trunc + 1) <= trunc:  # reads some of 0.._TRUNC
                calls.append(name)
            return fn(n)

        return log_fn

    def run(psi, phi):
        calls.clear()
        bdp_module._classify(BirthDeathSpec(psi, phi, 1.0, 1.0))
        return sorted(calls)

    hinted_psi = CallableSequence(counted("psi", lambda n: -0.5 * n), tail_ratio=math.exp(-0.5))
    hinted_phi = CallableSequence(counted("phi", lambda n: -0.7 * n), tail_ratio=math.exp(-0.7))
    assert run(hinted_psi, hinted_phi) == ["phi", "psi"]
    # without hints the tail ratios come from the same evaluations
    psi = CallableSequence(counted("psi", lambda n: 1.5 * np.log1p(n)))
    phi = CallableSequence(counted("phi", lambda n: -2.0 * np.log1p(n)))
    assert run(psi, phi) == ["phi", "psi"]
    # phi equal to psi is not evaluated at all
    assert run(psi, psi) == ["psi"]
    assert run(hinted_psi, hinted_psi) == ["psi"]


_ONE_STATION = NetworkSpec(mu0=0.5, stations=(Station("ss", 1.0),), routing=((0.0, 1.0), (1.0, 0.0)))
# each of these would ask numpy for GiB of levels
_PAST_THE_CEILING = {
    "cdf": lambda: CycleMaxDistribution(mm1(0.5, 1.0)).cdf(10**8),
    "classify-cap": lambda: classify(mm1(0.5, 1.0, cap=10**9)),
    "simulate-horizon": lambda: simulate_cycles(mm1(0.5, 1.0), SimConfig(cycles=10, escape_horizon=10**9)),
    "tail-function": lambda: invert_tail(build_tail_function(mm1(1.0 - 1e-12, 1.0)), 1e-3),
    "norton": lambda: norton_reduce(_ONE_STATION, 10**9),
    "stationary": lambda: stationary_distribution(mm1(0.5, 1.0), 10**9),
    "tail-sum-spread": lambda: CycleMaxDistribution(mm1(2.0, 1.0)).log_tail_sum(np.array([0, 10**9])),
}
# (error, tables held at the peak) where not (NotApplicableError, 1): the tail
# function's knots double up to the ceiling before a target past it is refused,
# so its last step holds the old knots, the new ones and their temporaries
_CEILING_ERRORS = {"tail-function": (OutOfRangeError, 3)}


@pytest.mark.parametrize("name", list(_PAST_THE_CEILING))
def test_every_table_refuses_levels_past_the_ceiling(name):
    error, tables = _CEILING_ERRORS.get(name, (NotApplicableError, 1))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(error, match="beyond the 1048576 levels a table may hold"):
            _PAST_THE_CEILING[name]()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < tables * 8 * ((1 << 20) + 2)  # float64 tables of at most 2^20 + 1 levels


def test_linear_equals_exp_bit_for_bit():
    # normal lanes, subnormal ones (-708.4 to -745.1), lanes that underflow to
    # 0 and are skipped, -inf, NaN and an overflow to inf with no warning
    lanes = np.concatenate([
        np.linspace(-700.0, 700.0, 1001),
        np.linspace(-708.4, -745.1, 1001),
        np.linspace(-745.2, -3000.0, 1001),
        [-np.inf, np.nan, 709.0, 710.0, 1e300, np.inf],
    ])
    lanes = np.random.default_rng(4).permutation(lanes)
    with np.errstate(over="ignore"):
        expected = np.exp(lanes)
    assert np.array_equal(bdp_module._linear(lanes), expected, equal_nan=True)
    assert np.array_equal(bdp_module._linear(lanes[lanes > -700.0]), expected[lanes > -700.0], equal_nan=True)
    for x in (-745.0, -746.5, -np.inf, 709.0, 710.0, 0.5):
        with np.errstate(over="ignore"):
            assert bdp_module._linear(x) == float(np.exp(x))


@pytest.mark.parametrize(
    "last, ratio, degree",
    [(500, 0.5, 0), (10**5, 1e-3, 0), (1 << 20, 0.5, 0), (10**5, 0.5, 2)],
    ids=["500-half", "1e5-1e-3", "2^20-half", "1e5-half-poly"],
)
def test_a_table_tail_is_anchored_at_its_last_entry(last, ratio, degree):
    # past the table the weight steps on from log w(N), not from an amplitude
    # extrapolated to n = 0, so it carries no rounding of N |log ratio|
    logs = np.linspace(0.0, -3.0, last + 1)
    seq = TableSequence.from_log(logs, tail_ratio=ratio, poly_degree=degree)
    n = last + np.array([1, 10, 1000])
    anchored = logs[-1] + (n - last) * math.log(ratio) + degree * np.log(n / last)
    assert np.allclose(seq.log_value(n), anchored, rtol=1e-14, atol=0.0)
    assert np.allclose(seq.tail.log_value(n), anchored, rtol=1e-14, atol=0.0)
