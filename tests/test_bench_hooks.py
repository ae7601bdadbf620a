"""The benchmark tracer finds every public name it wraps.

``perfbench/tracing.py`` looks up cyclemax functions and methods by name;
installing and undoing it here fails fast when one is renamed or deleted.
"""

import pathlib
import sys

import cyclemax
import cyclemax.bdp as bdp

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    classify = bdp.classify
    log_value = bdp.OnesSequence.__dict__["log_value"]
    restore = tracing.install(tracing.Tracer())
    try:
        assert bdp.classify is not classify and cyclemax.classify is not classify
    finally:
        restore()
    assert bdp.classify is classify and cyclemax.classify is classify
    assert bdp.OnesSequence.__dict__["log_value"] is log_value


def test_the_tracer_wraps_and_restores_a_lazily_loaded_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    from cyclemax import extremes

    norming_constants = cyclemax.norming_constants  # loads and keeps it in the package
    restore = tracing.install(tracing.Tracer())
    try:
        assert cyclemax.norming_constants is not norming_constants
        assert cyclemax.norming_constants is extremes.norming_constants
    finally:
        restore()
    assert cyclemax.norming_constants is norming_constants is extremes.norming_constants


def test_a_traced_check_keeps_its_name_and_records_one_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    from cyclemax import verification

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.request = 0
        result = verification.run_criterion("2")
    finally:
        tracer.request = None
        restore()
    assert result.name == "duality-identity" and result.passed
    assert [s[0] for s in tracer.spans].count("verification.check") == 1
