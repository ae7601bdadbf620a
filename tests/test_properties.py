"""Property tests over generated preset and table specs: every public call
on a spec that builds answers, or refuses with a package error or a
ValueError, without a RuntimeWarning and within a second; a queue's series
match their closed forms, also within 10^-3 of its critical load; a
table's tail record is the law its docstring states; and the tail function
inverts an array of targets as it inverts each alone."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemax import (
    BirthDeathSpec,
    CycleMaxDistribution,
    SimConfig,
    TableSequence,
    Verdict,
    as_limit_constant,
    build_tail_function,
    classify,
    compactness_diagnostic,
    default_norming_kind,
    gumbel_bounds,
    invert_tail,
    mm1,
    mminf,
    mms,
    norming_constants,
    partial_limit_envelope,
    sample_maxima,
    simulate_cycles,
    stationary_distribution,
    tail_asymptotics,
)
import cyclemax.simulate as simulate_module
from cyclemax.errors import CycleMaxError

_LEVELS = np.arange(50)
_CFG = SimConfig(seed=1, cycles=200)


def _calls(spec):
    dist = CycleMaxDistribution(spec)
    return {
        "classify": lambda: classify(spec),
        "classify-dual": lambda: classify(spec.dual()),
        "cdf": lambda: dist.cdf(_LEVELS),
        "failure_rate": lambda: dist.failure_rate(_LEVELS[1:]),  # defined from level 1
        "blocking_prob": lambda: dist.blocking_prob(_LEVELS),
        "conditional_cdf": lambda: dist.conditional_cdf(_LEVELS),
        "tail_asymptotics": lambda: tail_asymptotics(spec),
        "compactness_diagnostic": lambda: compactness_diagnostic(spec),
        "norming_constants": lambda: norming_constants(spec, default_norming_kind(spec), [10, 10**6]),
        "gumbel_bounds": lambda: gumbel_bounds(spec, 0.0, 1000),
        "partial_limit_envelope": lambda: partial_limit_envelope(spec, 0.0),
        "as_limit_constant": lambda: as_limit_constant(spec),
        "stationary_distribution": lambda: stationary_distribution(spec, 49),
        "simulate_cycles": lambda: simulate_cycles(spec, _CFG),
        "sample_maxima-inversion": lambda: sample_maxima(spec, 10, 20, _CFG, mode="inversion"),
        "sample_maxima-jump": lambda: sample_maxima(spec, 10, 20, _CFG, mode="jump"),
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    preset=st.sampled_from(["mm1", "mms", "mminf"]),
    s=st.integers(1, 8),
    log10_lam=st.floats(-300.0, 300.0),
    cap=st.none() | st.integers(1, 50),
)
# exp(-log S(1)) rounds to 1 here, which once took log F(1) to log1p(-1)
@example(preset="mm1", s=1, log10_lam=20.0, cap=3)
def test_every_call_on_a_preset_spec_answers_or_refuses_quietly(preset, s, log10_lam, cap):
    lam = 10.0**log10_lam
    spec = {"mm1": lambda: mm1(lam, 1.0, cap=cap), "mms": lambda: mms(s, lam, 1.0, cap=cap),
            "mminf": lambda: mminf(lam, 1.0, cap=cap)}[preset]()
    _answer_or_refuse_quietly(spec, (CycleMaxError, ValueError))


def _answer_or_refuse_quietly(spec, refusals):
    for name, call in _calls(spec).items():
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call()
            except refusals:
                pass
        seconds = time.perf_counter() - start
        assert seconds < 1.0, f"{name} took {seconds:.2f} s on {spec.label}"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(s=st.integers(1, 8), single=st.booleans(), log10_load=st.floats(math.log10(1.001), 300.0))
def test_the_escape_mass_of_a_transient_queue_is_its_closed_form(s, single, log10_load):
    # M/M/s at rho = lam/mu: 1/(psihat(n) rho^n) = n! rho^-n up to n = s, then
    # s! s^(n-s) rho^-n, so S(inf) - 1 is a finite sum and one geometric tail
    s = 1 if single else s
    rho = s * 10.0**log10_load
    spec = mm1(rho, 1.0) if single else mms(s, rho, 1.0)
    log_terms = [math.lgamma(k + 1) - k * math.log(rho) for k in range(1, s + 1)]
    log_terms.append(math.lgamma(s + 1) - s * math.log(s) + (s + 1) * math.log(s / rho) - math.log1p(-s / rho))
    log_s_minus_1 = float(np.logaddexp.reduce(log_terms))
    expected = log_s_minus_1 - float(np.logaddexp(0.0, log_s_minus_1))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dist = CycleMaxDistribution(spec)
        assert dist.log_p_finite == pytest.approx(expected, rel=1e-12, abs=0.0)
        cdf = dist.conditional_cdf(_LEVELS)
    assert np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0, cdf
    assert time.perf_counter() - start < 1.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(s=st.integers(1, 8), single=st.booleans(), k=st.integers(3, 8), above=st.booleans())
def test_a_queue_near_its_critical_load_matches_its_closed_form(s, single, k, above):
    # M/M/s at load rho/s = 1 +- 10^-k: B_phi^-1 (recurrent) or P(Y < inf)
    # (transient) in exact rationals from the float lam; rounding rho/s alone
    # moves either by about 2^-52 / |1 - load|
    s = 1 if single else s
    gap = 10.0**-k
    lam = s * (1.0 + gap if above else 1.0 - gap)
    spec = mm1(lam, 1.0) if single else mms(s, lam, 1.0)
    rho = Fraction(lam)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cls = classify(spec)
        if above:
            assert cls.verdict is Verdict.TRANSIENT
            s_inf = sum(math.factorial(n) / rho**n for n in range(s)) + math.factorial(s) / rho**s / (1 - s / rho)
            got, want = CycleMaxDistribution(spec).p_finite, 1 - 1 / s_inf
        else:
            assert cls.verdict is Verdict.POSITIVE_RECURRENT
            got = cls.b_phi_inv
            want = sum(rho**n / math.factorial(n) for n in range(s)) + rho**s / math.factorial(s) / (1 - rho / s)
    assert abs(Fraction(got) / want - 1) <= 1e-13 / gap
    assert time.perf_counter() - start < 1.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    log_values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=200),
    degree=st.integers(0, 3),
    log10_rho=st.floats(-2.0, 2.0),
    k=st.none() | st.integers(2, 9),
    above=st.booleans(),
)
def test_a_table_near_its_critical_ratio_states_its_tail_and_answers(log_values, degree, log10_rho, k, above):
    # tail_ratio rho = 1 +- 10^-k, or exactly 1 when k is None
    rho = 10.0**log10_rho
    q = 1.0 if k is None else 1.0 + (10.0**-k if above else -(10.0**-k))
    seq = TableSequence.from_log(log_values, tail_ratio=q / rho, poly_degree=degree)
    spec = BirthDeathSpec(seq, seq, rho, 1.0, label=f"table(len={len(log_values)}, d={degree}, q={q!r})")
    # past the table end N: w(N) beta^(n - N) (n / N)^d
    big_n = len(log_values) - 1
    beta = seq.tail_ratio
    for n in (big_n, big_n + 1, big_n + 7, 2 * big_n + 50, 10**6):
        want = log_values[-1] + (n - big_n) * math.log(beta) + degree * (math.log(n) - math.log(big_n))
        assert float(seq.tail.log_value(n)) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert float(seq.log_value(n)) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert spec.dual().dual().psi.tail == seq.tail
    # the simulators' time bound is their jump budget, about 15 s at 1e8 jumps,
    # and a table's hump can make a recurrent cycle millions of jumps long:
    # at 2e6 jumps the budget bounds a call by 1 s, and a longer run is refused
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate_module, "_MAX_JUMPS", 2e6)
        _answer_or_refuse_quietly(spec, CycleMaxError)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cdf = CycleMaxDistribution(spec).cdf(np.arange(big_n + 50))
    assert np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0, cdf


def _per_k_numeric_norming(spec, ks):
    """Numeric norming as a loop over k of scalar inversions and one
    least-squares fit each: the reference of the one-call version."""
    f = build_tail_function(spec)
    grid = np.linspace(-2.0, 5.0, 29)
    design = np.column_stack([grid, np.ones_like(grid)])
    a, b = [], []
    for k in ks:
        ys = np.array([invert_tail(f, math.exp(-y) / k) for y in grid])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        a.append(float(coef[0]))
        b.append(invert_tail(f, 1.0 / k))
    return a, b


def _subcritical_spec(kind, s, load, log_values):
    if kind == "table":
        seq = TableSequence.from_log(log_values, tail_ratio=load)
        return BirthDeathSpec(seq, seq, 1.0, 1.0, label=f"table(len={len(log_values)}, q={load!r})")
    return {"mm1": lambda: mm1(load, 1.0), "mms": lambda: mms(s, s * load, 1.0),
            "mminf": lambda: mminf(300.0 * load, 1.0)}[kind]()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["mm1", "mms", "mminf", "table"]),
    s=st.integers(1, 8),
    load=st.floats(0.01, 0.99),
    log_values=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=50),
    heights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    ks=st.lists(st.integers(2, 10**12), min_size=1, max_size=4),
)
# y0 = 150: targets on the head line and past its knots; and a knee at s = 3
@example(kind="mminf", s=1, load=0.5, log_values=[0.0, 0.0], heights=[0.999, 0.9, 0.6, 0.3, 0.0], ks=[10, 10**9])
@example(kind="mms", s=3, load=0.9, log_values=[0.0, 0.0], heights=[1.0, 0.99, 0.5, 0.0], ks=[10**12, 100])
def test_the_tail_function_inverts_an_array_as_each_target_alone(kind, s, load, log_values, heights, ks):
    spec = _subcritical_spec(kind, s, load, log_values)
    f = build_tail_function(spec)
    f0 = f(0.0)
    # targets from 1e-300 to 10 f(0), unsorted, the first half repeated at the end
    targets = [10.0 ** (-300.0 + h * (math.log10(f0) + 301.0)) for h in heights]
    targets += targets[: (len(targets) + 1) // 2]
    good = [v for v in targets if v <= f0]
    want = [invert_tail(f, v) for v in good]
    # and one within the last interval of the knots held, the bracket's last,
    # unless that lies below the float range
    last = math.exp(0.5 * float(f.log_knots[-2] + f.log_knots[-1]))
    if last > 0.0:
        good, want = good + [last], want + [invert_tail(f, last)]
    good, want = np.array(good), np.array(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = invert_tail(f, good)
    # numpy's exp, expm1 and log may differ from math's by an ulp
    assert got.shape == good.shape and np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))
    # a target past f(0), non-positive or not finite raises as it does alone, and grows no knots
    knots = f.n_max
    for bad in [v for v in targets if v > f0] + [2.0 * f0, 0.0, -1.0, math.nan, math.inf]:
        with pytest.raises(CycleMaxError) as alone:
            invert_tail(f, bad)
        with pytest.raises(alone.type):
            invert_tail(f, np.append(good[::-1], bad))
        assert f.n_max == knots
    # Numeric norming in one call is the per-k loop, on fresh knots of each;
    # a small k puts its grid targets past f(0), and then both raise
    looped, batched, fresh = (_subcritical_spec(kind, s, load, log_values) for _ in range(3))
    want = _outcome(lambda: _per_k_numeric_norming(looped, ks))
    got = _outcome(lambda: norming_constants(batched, "Numeric", ks))
    if isinstance(want, type):
        assert got is want
        assert build_tail_function(batched).n_max == build_tail_function(fresh).n_max
    else:
        # one solve for every k rounds apart from a solve per k: the slope of
        # roots near b_k over the grid's span of 7 carries about eps b_k of error
        a, b = np.array(want)
        assert np.all(np.abs(np.array(got.a) - a) <= 1e-14 * np.maximum(np.abs(a), b))
        assert np.allclose(got.b, b, rtol=1e-14, atol=0.0)
        assert build_tail_function(batched).n_max == build_tail_function(looped).n_max


def _outcome(call):
    """The call's answer, or the type of the package error it raised."""
    try:
        return call()
    except CycleMaxError as exc:
        return type(exc)
