import math
import time

import numpy as np
import pytest

from cyclemax import extremes
from cyclemax import (
    BirthDeathSpec,
    CallableSequence,
    CycleMaxDistribution,
    NetworkSpec,
    NormingKind,
    SimConfig,
    Station,
    TableSequence,
    TailRegime,
    as_limit_constant,
    build_tail_function,
    classify,
    compactness_diagnostic,
    default_norming_kind,
    duality_check,
    gumbel_bounds,
    harrison_closed_form,
    invert_tail,
    lambert_w,
    lattice_constants,
    mm1,
    mminf,
    mms,
    norming_constants,
    norton_reduce,
    partial_limit_envelope,
    sample_maxima,
    stationary_distribution,
    stirling_tail,
    tail_asymptotics,
    verify_as_convergence,
)
from cyclemax.bdp import log_factorial
from cyclemax.errors import (
    KindMismatchError,
    NoMonotoneTailError,
    NotApplicableError,
    NotSubcriticalError,
    OutOfRangeError,
)


def poly_geometric_spec():
    # psi(n) ~ n * 0.5^n beyond the table, run at rho = 0.9
    seq = TableSequence((1.0, 0.5), tail_ratio=0.5, poly_degree=1)
    return BirthDeathSpec(psi=seq, phi=seq, lam=0.9, mu=1.0)


def test_default_norming_kind_dispatch():
    assert default_norming_kind(mm1(0.5, 1.0)) is NormingKind.GEOMETRIC
    assert default_norming_kind(mminf(1.0, 1.0)) is NormingKind.STIRLING_FACTORIAL
    assert default_norming_kind(poly_geometric_spec()) is NormingKind.LAMBERT_W
    # geometric envelope needs beta * rho < 1
    assert default_norming_kind(mm1(1.0, 1.0)) is NormingKind.NUMERIC


def test_geometric_norming_closed_form():
    # beta rho = 0.5: a_k = 1/log 2 and b_k = log k / log 2
    nc = norming_constants(mm1(0.5, 1.0), NormingKind.GEOMETRIC, [1000, 10**5, 10**7])
    rows = list(nc.rows())
    assert [k for k, _, _ in rows] == [1000, 10**5, 10**7]
    for k, a, b in rows:
        assert a == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
        assert b == pytest.approx(math.log(k) / math.log(2.0), rel=1e-12)


def test_stirling_norming_inverts_the_tail():
    ks = [10**3, 10**4, 10**6]
    nc = norming_constants(mminf(1.0, 1.0), NormingKind.STIRLING_FACTORIAL, ks)
    rows = list(nc.rows())
    bs = [b for _, _, b in rows]
    assert bs == sorted(bs)
    for k, a, b in rows:
        assert a > 0
        assert stirling_tail(b, 1.0) * k == pytest.approx(1.0, rel=1e-6)


def test_lambert_norming_grows_with_k():
    nc = norming_constants(poly_geometric_spec(), NormingKind.LAMBERT_W, [10**3, 10**5])
    rows = list(nc.rows())
    assert rows[0][2] < rows[1][2]
    assert all(a > 0 for _, a, _ in rows)


def test_lambert_norming_reads_the_log_table():
    # two equal single-server stations: Psi(N) ~ N 0.2^N underflows the linear
    # table long before N = 2000
    twin = NetworkSpec(
        mu0=0.2,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    )
    short = norming_constants(norton_reduce(twin, 400).induced, "LambertW", [1000]).b[0]
    long = norming_constants(norton_reduce(twin, 2000).induced, "LambertW", [1000]).b[0]
    assert short == pytest.approx(3.551495670919166, rel=1e-12)
    assert long == pytest.approx(3.55051, abs=1e-5)


def test_lambert_w_identities():
    for z in (0.1, 1.0, 2.0):
        assert lambert_w(z * math.exp(z)) == pytest.approx(z, rel=1e-10)
    assert lambert_w(-1.0 / math.e, branch=-1) == pytest.approx(-1.0, abs=1e-6)
    for z in (-2.0, -5.0):
        assert lambert_w(z * math.exp(z), branch=-1) == pytest.approx(z, rel=1e-10)


def test_stirling_tail_formula():
    for x in (8.0, 12.0, 20.0):
        for rho in (1.0, 2.0):
            direct = math.exp(
                -0.5 * math.log(2 * math.pi)
                + x * math.log(rho * math.e)
                - (x + 0.5) * math.log(x)
            )
            assert stirling_tail(x, rho) == pytest.approx(direct, rel=1e-12)
    assert stirling_tail(30.0, 1.0) < stirling_tail(20.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lambert_w(math.nan),
        lambda: lambert_w(math.inf),
        lambda: lambert_w(-math.inf, branch=-1),
        lambda: stirling_tail(math.nan, 1.0),
        lambda: stirling_tail(math.inf, 1.0),
        lambda: stirling_tail(5.0, math.nan),
        lambda: stirling_tail(5.0, math.inf),
        lambda: stirling_tail(5.0, 0.0),
    ],
    ids=["w-nan", "w-inf", "w-minus-inf", "tail-x-nan", "tail-x-inf", "tail-rho-nan", "tail-rho-inf", "tail-rho-0"],
)
def test_non_finite_arguments_are_refused_up_front(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_invert_tail_round_trip():
    f = build_tail_function(mm1(0.5, 1.0))
    for v in (1e-2, 1e-4, 1e-8):
        y = invert_tail(f, v)
        assert f(y) == pytest.approx(v, rel=1e-6)


def _bisected_inverse(f, v):
    """The inverse by bisection of the chord to 1e-10 on y: the reference."""
    log_v = math.log(v)
    g0 = math.exp(f.log_knots[f.y0])
    if v >= g0:
        return f.y0 + g0 - v
    n = f.y0 + int(np.searchsorted(-f.log_knots[f.y0:], -log_v, side="right")) - 1
    n = min(max(n, f.y0), f.n_max - 1)
    shift = float(f.log_knots[n])
    r = math.exp(float(f.log_knots[n + 1]) - shift)
    target = math.exp(log_v - shift)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) + mid * r - target >= 0.0:
            lo = mid
        else:
            hi = mid
    return n + 0.5 * (lo + hi)


def _log_f(f, y):
    """log f(y), with the chord scaled by its upper knot so it never underflows."""
    if y <= f.y0:
        return math.log(f.y0 - y + math.exp(f.log_knots[f.y0]))
    n = min(int(y), f.n_max - 1)
    t = y - n
    a, b = float(f.log_knots[n]), float(f.log_knots[n + 1])
    return a + math.log((1.0 - t) + t * math.exp(b - a))


@pytest.mark.parametrize(
    "spec, knots, targets",
    [
        # on knots and between them
        (mm1(0.5, 1.0), 400, [0.5**10, 0.5**10.3, 0.5**57.999, 0.5**200.5]),
        # on the linear head 31.04 - y before y0 = 5, and on the knots past it
        (mminf(5.0, 1.0), 400, [31.0, 28.5, 26.5, 20.0, 1e-3, 1e-40]),
        # below double-precision underflow of the knots
        (mm1(0.05, 1.0), 400, [1e-305, 1e-310, 1e-318]),
        # 5e-323 = 0.5^1073.1 lies below the first 400 and 800 knots
        (mm1(0.5, 1.0), 1600, [1e-300, 1e-315, 5e-323]),
    ],
)
def test_invert_tail_is_the_chord_root(spec, knots, targets):
    f = build_tail_function(spec)
    for v in targets:
        y = invert_tail(f, v)
        assert abs(y - _bisected_inverse(f, v)) <= 1e-10, v
        assert _log_f(f, y) == pytest.approx(math.log(v), rel=0.0, abs=1e-12), v
    assert f.n_max == knots


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invert_tail_with_a_head_knot_past_the_float_range():
    spec = mminf(800.0, 1.0)
    f = build_tail_function(spec)
    assert f.log_knots[f.y0] > math.log(np.finfo(float).max)
    assert invert_tail(f, 1e300) == pytest.approx(1242.98, abs=0.01)
    nc = norming_constants(spec, NormingKind.NUMERIC, [1000])
    assert nc.b[0] == pytest.approx(2176.85, abs=0.01)


def test_gumbel_bounds_at_origin():
    gb = gumbel_bounds(mm1(0.5, 1.0), 0.0, 10**4)
    assert gb.lower == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert gb.upper == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert gb.y_upper == pytest.approx(12.3616, abs=1e-3)
    assert gb.lower < gb.upper


def test_gumbel_bounds_need_a_subcritical_tail():
    for spec in (mm1(1.0, 1.0), mm1(2.0, 1.0)):
        with pytest.raises(NotSubcriticalError, match="not below 1"):
            gumbel_bounds(spec, 0.0, 100)


def test_partial_limit_envelope_closed_form():
    # lower exp(-e^-x), upper exp(-beta rho e^-x) with beta rho = 0.5
    for x in (-1.0, 0.0, 2.0):
        lo, hi = partial_limit_envelope(mm1(0.5, 1.0), x)
        assert lo == pytest.approx(math.exp(-math.exp(-x)), rel=1e-12)
        assert hi == pytest.approx(math.exp(-0.5 * math.exp(-x)), rel=1e-12)
        assert lo < hi


def test_threshold_law_sits_inside_envelope():
    # exact k-max law at the integer threshold stays within the widened band;
    # flooring costs at most the beta*rho factor built into the envelope
    k = 10**4
    spec = mm1(0.5, 1.0)
    values = []
    for x in (-2.0, 0.0, 1.0, 3.0):
        gb = gumbel_bounds(spec, x, k)
        n = math.floor(gb.y_upper)
        s = float(2 ** (n + 1) - 1)
        law = (1.0 - 1.0 / s) ** k
        values.append(law)
        assert gb.lower - 0.04 <= law <= gb.upper + 0.04
    assert values == sorted(values)


def test_compactness_verdicts():
    pooled = compactness_diagnostic(mms(2, 1.4, 1.0))
    assert pooled.verdict == "Compact"
    assert 0.0 < pooled.r_min <= pooled.r_max < 1.0

    spread = compactness_diagnostic(mminf(1.0, 1.0))
    assert spread.verdict == "NotCompact"
    ratios = dict(zip(spread.grid, spread.hazard_ratios))
    assert any(n <= 30 and r > 10 for n, r in ratios.items())


def test_a_factorially_growing_weight_is_not_compact():
    # the dual of M/M/inf: psi(n) rho^n grows like n! 2^n (beta = inf), so the
    # survival given a finite maximum falls factorially, with hazard ratio
    # about 2 (n + 1)
    spec = mminf(0.5, 1.0).dual()
    report = compactness_diagnostic(spec)
    assert report.verdict == "NotCompact" and report.conditional is True
    ratios = np.array(report.hazard_ratios)
    assert np.all(np.diff(ratios) > 0.0)
    assert ratios == pytest.approx(2.0 * (np.array(report.grid) + 1.0), rel=0.01)
    ta = tail_asymptotics(spec)
    assert ta.regime is TailRegime.SUPERCRITICAL and ta.limit_constant == 0.0
    assert 0.0 < ta.empirical_value < 1.0 / 400


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec", [mm1(1e-20, 1.0), mms(2, 1e-200, 1.0), mm1(1e300, 1.0)], ids=["mm1-1e-20", "mms2-1e-200", "mm1-1e300"]
)
def test_compactness_ratio_survives_a_survival_that_underflows(spec):
    # S falls by rho (or 1 / rho) a level, so it underflows to 0 within the
    # grid; R, one step's integral over itself to within rho, is 1
    report = compactness_diagnostic(spec)
    assert report.r_values == pytest.approx([1.0] * len(report.grid), abs=1e-12)
    assert report.verdict == "Undetermined"


# (r_min, r_max) at delta = 2 before the integrals were scaled by S(x)^delta
_COMPACT_R = {
    "mm1": (mm1(0.5, 1.0), 0.6666666666666813, 0.6666821807843643),
    "mms2": (mms(2, 1.4, 1.0), 0.5879997955211956, 0.5882352887659541),
    "mms3": (mms(3, 2.1, 1.0), 0.5882353016673603, 0.588573927012987),
    "mm1-transient": (mm1(1.5, 1.0), 0.5998569785019323, 0.5999999992384196),
    "mms3-transient": (mms(3, 4.0, 1.0), 0.5707206593408808, 0.5714284446416464),
}


@pytest.mark.parametrize("name", sorted(_COMPACT_R))
def test_compactness_ratio_keeps_its_values(name):
    spec, r_min, r_max = _COMPACT_R[name]
    report = compactness_diagnostic(spec)
    assert report.r_min == pytest.approx(r_min, rel=1e-12)
    assert report.r_max == pytest.approx(r_max, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [1000.0, 1e5])
def test_compactness_ratio_survives_a_large_delta(delta):
    # S(x)^delta underflows to 0 here; R, a ratio, does not depend on it
    report = compactness_diagnostic(mm1(0.5, 1.0), delta=delta)
    assert report.r_min == report.r_max == 1.0
    assert report.verdict == "Undetermined"


def test_compactness_report_dict():
    d = compactness_diagnostic(mms(3, 2.1, 1.0)).to_dict()
    assert set(d) == {"verdict", "delta", "grid", "R_min", "R_max", "conditional", "epsilon_range"}
    assert d["verdict"] == "Compact"


def test_as_limit_constant_values():
    assert as_limit_constant(mm1(0.5, 1.0)) == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    b = as_limit_constant(mminf(1.0, 1.0), k=10**4)
    assert stirling_tail(b, 1.0) * 10**4 == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(NotApplicableError):
        as_limit_constant(mm1(1.0, 1.0))


def test_beta_zero_normaliser_inverts_its_own_tail():
    # psi = phi = (n!)^-2 at rho = 1: the Stirling b_k of 1/n! would be 8.42
    seq = CallableSequence(lambda n: -2.0 * log_factorial(n), tail_ratio=0.0)
    spec = BirthDeathSpec(seq, seq, 1.0, 1.0)
    b = as_limit_constant(spec, 10**5)
    assert b == norming_constants(spec, default_norming_kind(spec), [10**5]).b[0]
    assert b == pytest.approx(5.88, abs=0.01)
    records = sample_maxima(spec, 10**5, 200, SimConfig(seed=0))
    assert np.median(records) == 6


HALF = mm1(0.5, 1.0)
LOOP = NetworkSpec(0.5, (Station("ss", 1.0),), ((0.0, 1.0), (1.0, 0.0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gumbel_bounds(HALF, 0.0, 0),
        lambda: gumbel_bounds(HALF, -800.0, 1000),
        lambda: gumbel_bounds(HALF, math.nan, 1000),
        lambda: partial_limit_envelope(HALF, math.nan),
        lambda: duality_check(0.5, 1.0, 0),
        lambda: sample_maxima(HALF, 2.5, 5),
        lambda: sample_maxima(HALF, True, 5),
        lambda: sample_maxima(HALF, 2, 2.5),
        lambda: norming_constants(HALF, NormingKind.GEOMETRIC, [2.5]),
        lambda: compactness_diagnostic(HALF, delta=math.inf),
        lambda: compactness_diagnostic(HALF, delta=1.0),
        lambda: as_limit_constant(HALF, 1),
        lambda: verify_as_convergence(HALF, [1]),
        lambda: build_tail_function(HALF)(2.0**20 + 0.5),
        lambda: stationary_distribution(HALF, 2.5),
        lambda: stationary_distribution(HALF, -1),
        lambda: norton_reduce(LOOP, 2.5),
        lambda: lattice_constants(LOOP, 2.5),
        lambda: harrison_closed_form([0.5, 0.25], 2.5),
        lambda: harrison_closed_form([0.5, 0.25], True),
    ],
    ids=["gumbel-k0", "gumbel-x-800", "gumbel-x-nan", "envelope-x-nan", "duality-nmax0", "maxima-k2.5",
         "maxima-k-true", "maxima-reps2.5", "norming-k2.5", "compactness-delta-inf", "compactness-delta1",
         "as-limit-k1", "convergence-k1", "tail-function-float-nmax",
         "stationary-float-nmax", "stationary-negative-nmax", "norton-float-nmax", "lattice-float-nmax",
         "harrison-float-n", "harrison-bool-n"],
)
def test_bad_arguments_raise_value_or_package_errors(call):
    with pytest.raises(ValueError):  # every refusing CycleMaxError here is a ValueError too
        call()


def test_a_float_n_max_is_refused_on_a_fresh_spec_and_after_an_integer_build():
    # the knots find their own depth: no call takes one, before or after a build
    spec = mm1(0.5, 1.0)
    for _ in range(2):
        for n_max in (400.0, 400):
            with pytest.raises(TypeError):
                norming_constants(spec, "Numeric", [1000], n_max=n_max)
            with pytest.raises(TypeError):
                build_tail_function(spec, n_max)
        build_tail_function(spec)


def test_the_envelope_far_left_is_its_limit():
    assert partial_limit_envelope(HALF, -800.0) == (0.0, 0.0)
    assert partial_limit_envelope(HALF, math.inf) == (1.0, 1.0)


# psi(n) = 2^-n e^(0.1 sin n): its ratio wobbles inside the declared 0.5 e^(-+0.2)
WOBBLY = CallableSequence(
    lambda n: -math.log(2.0) * np.asarray(n, dtype=float) + 0.1 * np.sin(n),
    tail_bounds=(0.5 * math.exp(-0.2), 0.5 * math.exp(0.2)),
)


def test_a_wobbly_ratio_has_no_limit_but_an_interval():
    spec = BirthDeathSpec(WOBBLY, WOBBLY, 1.0, 1.0)
    ta = tail_asymptotics(spec)
    assert ta.regime is TailRegime.NO_LIMIT and ta.limit_constant is None
    lo, hi = ta.limit_interval
    assert (lo, hi) == pytest.approx((1.0 - 0.5 * math.exp(0.2), 1.0 - 0.5 * math.exp(-0.2)), rel=1e-12)
    assert (lo, hi) == pytest.approx((0.3893, 0.5906), abs=1e-4)
    assert ta.empirical_value == pytest.approx(0.5281, abs=1e-4) and lo < ta.empirical_value < hi
    slopes = as_limit_constant(spec)
    assert slopes == pytest.approx((1.1196, 2.0278), abs=1e-4)
    assert as_limit_constant(spec, 100) == pytest.approx(tuple(b * math.log(100) for b in slopes), rel=1e-12)


def test_compactness_is_undetermined_when_the_upper_ratio_reaches_one():
    # the same weights at rho = 2: beta_upper rho = e^0.2 > 1, so no geometric tail closes R(x)
    report = compactness_diagnostic(BirthDeathSpec(WOBBLY, WOBBLY, 2.0, 1.0))
    assert report.verdict == "Undetermined" and report.r_values is None and not report.conditional


# a capped record never passes the cap, so no tail level applies
CAPPED = (mm1(0.5, 1.0, cap=5), mminf(2.0, 1.0, cap=5))


@pytest.mark.parametrize("spec", CAPPED, ids=["mm1", "mminf"])
def test_build_tail_function_rejects_a_cap(spec):
    with pytest.raises(NotApplicableError, match="finite chains"):
        build_tail_function(spec)
    with pytest.raises(NotApplicableError, match="finite chains"):
        gumbel_bounds(spec, 0.0, 1000)


@pytest.mark.parametrize("spec", CAPPED, ids=["mm1", "mminf"])
def test_norming_constants_reject_a_cap(spec):
    # Numeric for mm1, StirlingFactorial for mminf
    with pytest.raises(NotApplicableError, match="finite chains"):
        norming_constants(spec, default_norming_kind(spec), [1000])


@pytest.mark.parametrize("spec", CAPPED, ids=["mm1", "mminf"])
def test_as_limit_constant_rejects_a_cap(spec):
    with pytest.raises(NotApplicableError, match="finite chains"):
        as_limit_constant(spec, 1000)


@pytest.mark.parametrize("spec", CAPPED, ids=["mm1", "mminf"])
def test_compactness_diagnostic_rejects_a_cap(spec):
    with pytest.raises(NotApplicableError, match="finite chains"):
        compactness_diagnostic(spec)


@pytest.mark.parametrize("spec", CAPPED + (mm1(2.0, 1.0, cap=5),), ids=["mm1", "mminf", "mm1-rho2"])
def test_partial_limit_envelope_rejects_a_cap(spec):
    with pytest.raises(NotApplicableError, match="finite chains"):
        partial_limit_envelope(spec, 0.0)


# The tail window 60 / -log q would pass 6e9 and 6e7 levels on these transient
# chains, whose beta rho lies just outside bdp's critical band 1 +- _TOL.  Their
# weights are M/M/1's, with the ratio 1 hinted but no tail record stated.
_FLAT = CallableSequence(lambda n: np.zeros(np.shape(n)), tail_ratio=1.0)
_NEAR_CRITICAL = {
    "mm1-1e-8": BirthDeathSpec(_FLAT, _FLAT, 1.0 + 1e-8, 1.0),
    "mm1-1e-6": BirthDeathSpec(_FLAT, _FLAT, 1.0 + 1e-6, 1.0),
}


def _p_finite(spec):
    return CycleMaxDistribution(spec).p_finite


@pytest.mark.parametrize(
    "fn, spec",
    [pytest.param(compactness_diagnostic, s, id=k) for k, s in _NEAR_CRITICAL.items()]
    + [pytest.param(tail_asymptotics, s, id=f"tail-{k}") for k, s in _NEAR_CRITICAL.items()]
    + [pytest.param(_p_finite, s, id=f"p_finite-{k}") for k, s in _NEAR_CRITICAL.items()],
)
def test_near_critical_conditional_compactness_is_refused_at_once(fn, spec):
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="window"):
        fn(spec)
    assert time.perf_counter() - start < 1.0
    assert len(spec._law_tables.log_S) < 1 << 20  # refused before S(inf) grows the tables


@pytest.mark.parametrize("lam", [1.0 + 1e-8, 1.0 + 1e-6, 1.0 + 1e-5])
def test_near_critical_transient_queues_answer_from_their_tail_record(lam):
    # OnesSequence states its tail, so the margin closes at level 1 with the
    # exact geometric sum: P(Y < inf) = 1/lam and P(Y <= 1 | Y < inf) = lam/(lam + 1)
    spec = mm1(lam, 1.0)
    for call in (
        lambda: CycleMaxDistribution(spec).p_finite,
        lambda: CycleMaxDistribution(spec).conditional_cdf(1),
        lambda: compactness_diagnostic(spec),
    ):
        start = time.perf_counter()
        call()
        assert time.perf_counter() - start < 1.0
    dist = CycleMaxDistribution(spec)
    assert dist.p_finite == pytest.approx(1.0 / lam, rel=1e-12, abs=0.0)
    assert abs(dist.conditional_cdf(1) - lam / (lam + 1.0)) <= 1e-12
    assert compactness_diagnostic(spec).conditional is True


# beta rho within _TOL = 1e-9 of 1, on either side: classify calls each null
# recurrent, and every tail function takes the critical branch
_CRITICAL_BAND = {
    "mm1-above": mm1(1.0 + 1e-12, 1.0),
    "mm1-below": mm1(1.0 - 1e-12, 1.0),
    "mms3-above": mms(3, 3.0 + 3e-12, 1.0),
    "mms3-below": mms(3, 3.0 - 3e-12, 1.0),
}


@pytest.mark.parametrize("spec", list(_CRITICAL_BAND.values()), ids=list(_CRITICAL_BAND))
def test_the_critical_band_is_critical_for_every_tail_function(spec):
    start = time.perf_counter()
    assert tail_asymptotics(spec).regime is TailRegime.CRITICAL
    report = compactness_diagnostic(spec)
    assert report.verdict == "Undetermined"
    assert report.conditional is False
    with pytest.raises(NotApplicableError, match="critical tail"):
        partial_limit_envelope(spec, 0.0)
    assert default_norming_kind(spec) is NormingKind.NUMERIC
    with pytest.raises(NotApplicableError, match="no almost-sure normaliser"):
        as_limit_constant(spec, 1000)
    with pytest.raises(KindMismatchError, match="subcritical"):
        norming_constants(spec, NormingKind.GEOMETRIC, [1000])
    assert time.perf_counter() - start < 1.0
    assert len(spec._law_tables.log_S) < 1 << 20


def test_one_tail_function_per_spec_and_n_max(monkeypatch):
    # one set of knots per spec, whatever the calls: built once, grown by doubling
    evaluated = []
    real = BirthDeathSpec.log_psi_rho

    def counting(self, n):
        evaluated.append((int(n[0]), int(n[-1])))
        return real(self, n)

    monkeypatch.setattr(BirthDeathSpec, "log_psi_rho", counting)
    spec = mms(3, 2.1, 1.0)
    first = gumbel_bounds(spec, 0.5, 100)
    for x, k in ((0.5, 100), (-1.0, 1000), (2.0, 10)):
        gumbel_bounds(spec, x, k)
    norming_constants(spec, "Numeric", [10, 100])
    assert evaluated == [(0, 400)]
    assert gumbel_bounds(spec, 0.5, 100) == first
    assert build_tail_function(spec).log_knots is build_tail_function(spec).log_knots
    gumbel_bounds(spec, 0.0, 10**200)  # a root near level 1300: two doublings
    assert evaluated == [(0, 400), (401, 800), (801, 1600)]
    assert build_tail_function(spec).n_max == 1600
    assert gumbel_bounds(spec, 0.5, 100) == first
    with pytest.raises(ValueError):  # the shared knots are read-only
        build_tail_function(spec).log_knots[0] = 0.0
    # a build that raises keeps nothing
    transient = mm1(2.0, 1.0)
    for _ in range(2):
        with pytest.raises(NotSubcriticalError):
            gumbel_bounds(transient, 0.5, 100)
    assert transient._tail_knots.log_knots.size == 0


def _shallow_answers(spec):
    f = build_tail_function(spec)
    return (
        [invert_tail(f, v) for v in (0.5, 1e-3, 1e-9, 1e-30)],
        [f(y) for y in (0.0, 3.5, 17.25, 399.0, 400.0)],
        [gumbel_bounds(spec, x, k) for x in (-1.0, 0.0, 2.0) for k in (10**3, 10**4)],
        norming_constants(spec, "Numeric", [10, 1000]),
    )


@pytest.mark.parametrize(
    "make", [lambda: mm1(0.9, 1.0), lambda: mms(3, 2.1, 1.0), lambda: mminf(5.0, 1.0)], ids=["mm1", "mms3", "mminf"]
)
def test_shallow_answers_keep_their_bits_after_a_deep_call(make):
    fresh = _shallow_answers(make())
    spec = make()
    f = build_tail_function(spec)
    invert_tail(f, 1e-300)
    f(1000.5)  # a value past the knots grows them too
    assert f.n_max >= 1600
    assert _shallow_answers(spec) == fresh  # == on floats: the same bits


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deep_targets_meet_their_closed_forms():
    # psi(n) rho^n = rho^n on M/M/1: f(y) = rho^y up to the chord, so y = log v / log rho
    y = gumbel_bounds(mm1(0.999, 1.0), 0.0, 10**15).y_upper
    assert y == pytest.approx(math.log(1e-12) / math.log(0.999), rel=1e-4)
    y = gumbel_bounds(mm1(0.95, 1.0), 0.0, 10**12).y_upper
    assert y == pytest.approx(math.log(1.0 / (0.05 * 10**12)) / math.log(0.95), rel=1e-4)
    b = norming_constants(mm1(0.95, 1.0), "Numeric", [10**9]).b[0]
    assert b == pytest.approx(math.log(1e-9) / math.log(0.95), rel=1e-4)  # 404.015
    # beta = 0, with the knee past the first 400 knots at lam = 800: the chord root
    # lies within 0.1 of the root of lam^y / Gamma(y + 1) = 1e-3
    for lam, root in ((300.0, 818.116), (800.0, 2176.770)):
        gb = gumbel_bounds(mminf(lam, 1.0), 0.0, 1000)
        assert gb.y_upper == pytest.approx(root, abs=0.1)
        assert gb.y_lower == gb.y_upper + 1.0


def test_a_call_that_raises_keeps_no_knots():
    # psi(n) = 2^-n but for a rise at n = 1000, past y0 = 0
    rising = CallableSequence(
        lambda n: -math.log(2.0) * np.asarray(n, dtype=float) + 50.0 * (np.asarray(n) == 1000), tail_ratio=0.5
    )
    spec = BirthDeathSpec(rising, rising, 1.0, 1.0)
    f = build_tail_function(spec)
    shallow = invert_tail(f, 1e-100)
    for _ in range(2):
        with pytest.raises(NoMonotoneTailError, match="rises at level 1000"):
            invert_tail(f, 1e-300)  # 2^-996.6: the knots double to 1600 and meet the rise
        assert f.n_max == 400
    y = invert_tail(f, 1e-200)  # 2^-664.4: 800 knots reach it
    assert 664.0 < y < 665.0 and abs(y - _bisected_inverse(f, 1e-200)) <= 1e-10
    assert f.n_max == 800 and invert_tail(f, 1e-100) == shallow
    # rho = 1 - 1e-12: f(2^20) = e^-1.05e-6, far above 1e-3
    spec = mm1(1.0 - 1e-12, 1.0)
    f = build_tail_function(spec)
    for _ in range(2):
        with pytest.raises(OutOfRangeError, match=r"^the root of target 0\.001 lies beyond the 1048576 levels"):
            invert_tail(f, 1e-3)
        assert f.n_max == 400


def _per_point_integral(log_surv, x, delta, tail_q):
    """integral_x^inf of (S / S(x))^delta summed for x alone: the formula the
    one-pass grid evaluation replaced, kept as its oracle."""
    m0 = int(math.floor(x))
    scaled = np.exp(log_surv[m0:] - log_surv[m0])
    body = float(np.sum(scaled[1:] ** delta))
    qd = tail_q**delta
    tail = (scaled[-1] ** delta) * qd / (1.0 - qd) if 0.0 < qd < 1.0 else 0.0
    return m0 + 1 - x + body + tail


def _per_point_r(spec, delta):
    cls = classify(spec)
    dist = CycleMaxDistribution(spec)
    if cls.beta is not None and cls.beta * spec.rho > 1.0:
        log_survival, tail_q = dist._log_conditional_survival, 1.0 / (cls.beta * spec.rho)
    else:
        log_survival, tail_q = dist.log_survival, cls.beta_upper * spec.rho
    log_surv = log_survival(np.arange(641))
    return np.array([
        _per_point_integral(log_surv, x, delta, tail_q) / _per_point_integral(log_surv, x, delta - 1.0, tail_q)
        for x in range(10, 41, 5)
    ])


_GRID_SPECS = {name: spec for name, (spec, _, _) in _COMPACT_R.items()}
_GRID_SPECS.update({
    "mm1-1e-20": mm1(1e-20, 1.0),
    "mms2-1e-200": mms(2, 1e-200, 1.0),
    "mm1-1e300": mm1(1e300, 1.0),
    "wobbly": BirthDeathSpec(WOBBLY, WOBBLY, 1.0, 1.0),
})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [1.5, 2.0, 1000.0, 1e5])
@pytest.mark.parametrize("name", list(_GRID_SPECS))
def test_the_compactness_grid_in_one_pass_keeps_the_per_point_values(name, delta):
    spec = _GRID_SPECS[name]
    report = compactness_diagnostic(spec, delta=delta)
    expected = _per_point_r(spec, delta)
    got = np.array(report.r_values)
    assert np.all(np.abs(got - expected) <= 4 * np.spacing(expected))
    verdict = "Compact" if 0.0 < expected.min() and expected.max() < 1.0 else "Undetermined"
    assert report.verdict == verdict
