"""Cycle maxima of birth-death chains: exact laws, extremes, and networks."""

from .bdp import (
    BirthDeathSpec,
    CallableSequence,
    Classification,
    FactorialInverseSequence,
    MultiServerSequence,
    OnesSequence,
    TableSequence,
    Tail,
    Verdict,
    classify,
    load_spec,
    mm1,
    mminf,
    mms,
    palm_distribution,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    stationary_distribution,
)
from .errors import (
    CapExceededError,
    CoincidentLoadsError,
    CycleMaxError,
    EscapedCycleError,
    FitFailedError,
    KindMismatchError,
    NoMonotoneTailError,
    NonSeparableError,
    NotApplicableError,
    NotIrreducibleError,
    NotPositiveRecurrentError,
    NotStableError,
    NotSubcriticalError,
    NotTransientError,
    OutOfRangeError,
    PalmUndefinedError,
    SingularSystemError,
    SpecFormatError,
)

__version__ = "0.1.0"

# The other layers load on first use (PEP 562), so a process that only
# classifies never compiles the exact law, the extremes, the simulators or
# the networks.  Each public name maps to the module that defines it.
_LAZY = {
    name: module
    for module, names in (
        ("distribution", (
            "CycleMaxDistribution", "TailAsymptotics", "TailRegime", "blocking_prob",
            "conditional_cdf_transient", "cycle_max_cdf", "dual_process", "duality_check",
            "failure_rate", "tail_asymptotics",
        )),
        ("extremes", (
            "CompactnessReport", "GumbelBounds", "NormingConstants", "NormingKind", "TailFunction",
            "as_limit_constant", "build_tail_function", "compactness_diagnostic",
            "default_norming_kind", "gumbel_bounds", "invert_tail", "lambert_w",
            "norming_constants", "partial_limit_envelope", "stirling_tail",
        )),
        ("networks", (
            "NetworkSpec", "NortonReduction", "Station", "aggregate_constants",
            "harrison_closed_form", "lattice_constants", "load_network", "network_beta",
            "network_from_dict", "network_to_dict", "norton_reduce", "save_network",
            "simulate_network_cycles", "solve_traffic", "station_loads",
        )),
        ("simulate", (
            "ESCAPED", "ConvergenceRow", "CycleSample", "SimConfig", "empirical_cdf",
            "ks_two_sample", "sample_maxima", "simulate_cycle", "simulate_cycles",
            "verify_as_convergence",
        )),
    )
    for name in names
}

# the eager names (the submodules bdp and errors are bound here only as a
# side effect of importing from them), then the lazy ones
__all__ = [name for name in globals() if not name.startswith("_") and name not in ("bdp", "errors")]
__all__ += _LAZY


def __getattr__(name):
    """Import the layer that defines ``name`` and keep its value here."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return [*__all__, "__version__"]
