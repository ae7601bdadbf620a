"""Property tests over generated preset specs: every public call on a spec
that builds answers, or refuses with a package error or a ValueError,
without a RuntimeWarning and within a second; and a transient queue's
escape mass matches its closed form."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemax import (
    CycleMaxDistribution,
    SimConfig,
    as_limit_constant,
    classify,
    compactness_diagnostic,
    default_norming_kind,
    gumbel_bounds,
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
    for name, call in _calls(spec).items():
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                call()
            except (CycleMaxError, ValueError):
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
