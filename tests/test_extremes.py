import math
import time

import numpy as np
import pytest

from cyclemax import extremes
from cyclemax import (
    BirthDeathSpec,
    NormingKind,
    TableSequence,
    as_limit_constant,
    build_tail_function,
    compactness_diagnostic,
    default_norming_kind,
    gumbel_bounds,
    invert_tail,
    lambert_w,
    mm1,
    mminf,
    mms,
    norming_constants,
    partial_limit_envelope,
    stirling_tail,
)
from cyclemax.errors import NotApplicableError, NotSubcriticalError


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
    "spec, n_max, targets",
    [
        # on knots and between them
        (mm1(0.5, 1.0), 400, [0.5**10, 0.5**10.3, 0.5**57.999, 0.5**200.5]),
        # on the linear head 31.04 - y before y0 = 5, and on the knots past it
        (mminf(5.0, 1.0), 400, [31.0, 28.5, 26.5, 20.0, 1e-3, 1e-40]),
        # below double-precision underflow of the knots
        (mm1(0.05, 1.0), 300, [1e-305, 1e-310, 1e-318]),
        (mm1(0.5, 1.0), 1100, [1e-300, 1e-315, 5e-323]),
    ],
)
def test_invert_tail_is_the_chord_root(spec, n_max, targets):
    f = build_tail_function(spec, n_max)
    for v in targets:
        y = invert_tail(f, v)
        assert abs(y - _bisected_inverse(f, v)) <= 1e-10, v
        assert _log_f(f, y) == pytest.approx(math.log(v), rel=0.0, abs=1e-12), v


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invert_tail_with_a_head_knot_past_the_float_range():
    spec = mminf(800.0, 1.0)
    f = build_tail_function(spec, 4000)
    assert f.log_knots[f.y0] > math.log(np.finfo(float).max)
    assert invert_tail(f, 1e300) == pytest.approx(1242.98, abs=0.01)
    nc = norming_constants(spec, NormingKind.NUMERIC, [1000], n_max=4000)
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


@pytest.mark.parametrize("spec", [mm1(1.0 + 1e-12, 1.0), mms(3, 3.0 + 3e-12, 1.0)], ids=["mm1", "mms3"])
def test_near_critical_conditional_compactness_is_refused_at_once(spec):
    # the tail window 60 / -log q would pass 10^13 levels
    start = time.perf_counter()
    with pytest.raises(NotApplicableError, match="window"):
        compactness_diagnostic(spec)
    assert time.perf_counter() - start < 1.0


def test_one_tail_function_per_spec_and_n_max(monkeypatch):
    builds = []
    real = extremes.TailFunction

    def counting(**fields):
        builds.append(len(fields["log_knots"]) - 1)
        return real(**fields)

    monkeypatch.setattr(extremes, "TailFunction", counting)
    spec = mms(3, 2.1, 1.0)
    first = gumbel_bounds(spec, 0.5, 100)
    for x, k in ((0.5, 100), (-1.0, 1000), (2.0, 10)):
        gumbel_bounds(spec, x, k)
    norming_constants(spec, "Numeric", [10, 100])
    assert builds == [400]
    assert gumbel_bounds(spec, 0.5, 100) == first
    assert build_tail_function(spec) is build_tail_function(spec, 400)
    norming_constants(spec, "Numeric", [10], n_max=300)
    assert builds == [400, 300]
    with pytest.raises(ValueError):  # the shared knots are read-only
        build_tail_function(spec).log_knots[0] = 0.0
    # a build that raises caches nothing
    transient = mm1(2.0, 1.0)
    for _ in range(2):
        with pytest.raises(NotSubcriticalError):
            gumbel_bounds(transient, 0.5, 100)
    assert transient._tail_functions == {}
