"""Spans around the public functions of each cyclemax module, from outside.

``install`` replaces every public function (and the public methods of the
weight sequences and of ``CycleMaxDistribution``) with a timing wrapper,
in every ``cyclemax`` module that holds a reference to it, so calls that
one module makes into another through an imported name are seen too.  The
program's source is not touched.  A span is recorded only while a request
id is set; calls made by the benchmark's own checks fall outside requests.

Spans are kept in memory as ``[label, start, end, parent, request, extra]``
and written out when the run ends.  Self time of a span is its duration
minus the durations of its direct children (calls are synchronous, so
children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import sys
import time

# (metric, unit, kind): kind "exact" counts must repeat exactly between two
# runs with the same seed; "computed" counts are derived from call arguments.
LAYER_METRICS = [
    ("bdp.classify.calls", "count", "exact"),
    ("bdp.classify.self_ms", "ms", "time"),
    ("bdp.log_value.calls", "count", "exact"),
    ("bdp.log_value.points", "count", "computed"),
    ("bdp.log_value.self_ms", "ms", "time"),
    ("bdp.load_spec.self_ms", "ms", "time"),
    ("distribution.init.calls", "count", "exact"),
    ("distribution.query.calls", "count", "exact"),
    ("distribution.query.self_ms", "ms", "time"),
    ("distribution.max_level", "levels", "exact"),
    ("distribution.tail_asymptotics.self_ms", "ms", "time"),
    ("extremes.norming_constants.self_ms", "ms", "time"),
    ("extremes.invert_tail.calls", "count", "exact"),
    ("extremes.invert_tail.self_ms", "ms", "time"),
    ("extremes.build_tail_function.calls", "count", "exact"),
    ("extremes.compactness_diagnostic.self_ms", "ms", "time"),
    ("extremes.gumbel_bounds.self_ms", "ms", "time"),
    ("simulate.simulate_cycles.self_ms", "ms", "time"),
    ("simulate.sample_maxima.jump.self_ms", "ms", "time"),
    ("simulate.sample_maxima.inversion.self_ms", "ms", "time"),
    ("simulate.cycles", "count", "exact"),
    ("simulate.escaped", "count", "exact"),
    ("simulate.returned_ratio", "ratio", "derived"),
    ("simulate.cycles_per_s", "1/s", "derived"),
    ("networks.log_aggregate_constants.self_ms", "ms", "time"),
    ("networks.convolution_terms", "count", "computed"),
    ("networks.lattice_constants.self_ms", "ms", "time"),
    ("networks.lattice_points", "count", "computed"),
    ("networks.norton_reduce.self_ms", "ms", "time"),
    ("networks.simulate_network_cycles.self_ms", "ms", "time"),
    ("networks.cycles", "count", "exact"),
    ("cli.spawn_ms", "ms", "time"),
    ("cli.import_ms", "ms", "time"),
    ("cli.main.self_ms", "ms", "time"),
    ("verification.check.self_ms", "ms", "time"),
    ("verification.blocking", "count", "exact"),
    ("cycles_per_s", "1/s", "derived"),
    ("error_rate", "ratio", "derived"),
    ("edge.unexpected", "count", "exact"),
    ("trace.overhead_ms", "ms", "time"),
]

EXACT = [name for name, _, kind in LAYER_METRICS if kind == "exact"]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# span labels whose self time is reported as "<label>.self_ms"
_SELF_TIMED = [
    "bdp.classify",
    "bdp.log_value",
    "bdp.load_spec",
    "distribution.query",
    "distribution.tail_asymptotics",
    "extremes.norming_constants",
    "extremes.invert_tail",
    "extremes.compactness_diagnostic",
    "extremes.gumbel_bounds",
    "simulate.simulate_cycles",
    "simulate.sample_maxima.jump",
    "simulate.sample_maxima.inversion",
    "networks.log_aggregate_constants",
    "networks.lattice_constants",
    "networks.norton_reduce",
    "networks.simulate_network_cycles",
    "cli.main",
    "verification.check",
]


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None

    def wrap(self, label, fn, extra=None, label_fn=None):
        """Timing wrapper around fn; ``extra(args, kwargs, result)`` adds
        counts to the span, ``label_fn(args, kwargs)`` picks the label."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = [label_fn(args, kwargs) if label_fn else label, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, label):
        """Record one span around a block."""
        entry = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        entry[1] = time.perf_counter()
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path):
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _points(args, kwargs, result):
    n = _arg(args, kwargs, 1, "n")
    try:
        return {"points": int(getattr(n, "size", 1))}
    except TypeError:
        return {"points": 1}


def _table_level(args, kwargs, result):
    return {"level": len(args[0]._log_S)}


def _sample_cycles(args, kwargs, result):
    return {"cycles": int(result.cycles), "escaped": int(result.escaped)}


def _jump_cycles(args, kwargs, result):
    if _arg(args, kwargs, 4, "mode", "inversion") != "jump":
        return None
    k = int(_arg(args, kwargs, 1, "k"))
    reps = int(_arg(args, kwargs, 2, "reps"))
    return {"cycles": k * reps, "escaped": 0}


def _sample_label(args, kwargs):
    mode = _arg(args, kwargs, 4, "mode", "inversion")
    return f"simulate.sample_maxima.{mode}"


def _convolution_terms(args, kwargs, result):
    net, n_max = _arg(args, kwargs, 0, "net"), int(_arg(args, kwargs, 1, "n_max"))
    if not net.separable:
        return {"lattice_points": math.comb(n_max + net.J, net.J)}
    # J - 1 truncated convolutions; output index k sums k + 1 products
    return {"convolution_terms": (net.J - 1) * (n_max + 1) * (n_max + 2) // 2}


def _lattice_points(args, kwargs, result):
    net, n_max = _arg(args, kwargs, 0, "net"), int(_arg(args, kwargs, 1, "n_max"))
    return {"lattice_points": math.comb(n_max + net.J, net.J)}


def _blocking(args, kwargs, result):
    return {"blocking": int(sum(r.blocking for r in result))}


_QUERIES = (
    "cdf", "survival", "log_survival", "conditional_cdf", "failure_rate",
    "blocking_prob", "log_cumulative", "log_weight_cumulative", "log_tail_sum",
    "log_s_limit",
)


def install(tracer: Tracer):
    """Wrap the public functions of every cyclemax module; returns an undo
    callable that puts the originals back."""
    from cyclemax import bdp, distribution, extremes, networks, simulate, verification

    mods = [m for name, m in sys.modules.items() if name == "cyclemax" or name.startswith("cyclemax.")]
    undo = []

    def patch_everywhere(orig, wrapped):
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))

    def fn(module, name, extra=None, label_fn=None):
        orig = getattr(module, name)
        label = f"{module.__name__.split('.')[-1]}.{name}"
        patch_everywhere(orig, tracer.wrap(label, orig, extra, label_fn))

    def method(cls, name, label, extra=None):
        orig = cls.__dict__[name]
        setattr(cls, name, tracer.wrap(label, orig, extra))
        undo.append((cls, name, orig))

    for cls in (bdp.OnesSequence, bdp.FactorialInverseSequence, bdp.MultiServerSequence,
                bdp.TableSequence, bdp.CallableSequence, bdp.ReciprocalSequence):
        method(cls, "log_value", "bdp.log_value", _points)
    for name in ("classify", "load_spec", "save_spec", "spec_from_dict", "spec_to_dict",
                 "stationary_distribution", "palm_distribution"):
        fn(bdp, name)

    dist_cls = distribution.CycleMaxDistribution
    method(dist_cls, "__init__", "distribution.init", _table_level)
    for name in _QUERIES:
        method(dist_cls, name, "distribution.query", _table_level)
    for name in ("tail_asymptotics", "cycle_max_cdf", "failure_rate", "blocking_prob",
                 "conditional_cdf_transient", "duality_check", "dual_process"):
        fn(distribution, name)

    for name in ("norming_constants", "invert_tail", "build_tail_function",
                 "compactness_diagnostic", "gumbel_bounds", "default_norming_kind",
                 "partial_limit_envelope", "as_limit_constant", "lambert_w", "stirling_tail"):
        fn(extremes, name)

    fn(simulate, "simulate_cycles", extra=_sample_cycles)
    fn(simulate, "sample_maxima", extra=_jump_cycles, label_fn=_sample_label)
    for name in ("simulate_cycle", "empirical_cdf", "ks_two_sample", "verify_as_convergence"):
        fn(simulate, name)

    fn(networks, "log_aggregate_constants", extra=_convolution_terms)
    fn(networks, "lattice_constants", extra=_lattice_points)
    fn(networks, "simulate_network_cycles", extra=_sample_cycles)
    for name in ("norton_reduce", "aggregate_constants", "solve_traffic", "station_loads",
                 "network_beta", "harrison_closed_form", "load_network", "save_network"):
        fn(networks, name)

    checks = []
    for tag, check in verification.CRITERIA:
        wrapped = tracer.wrap("verification.check", check)
        patch_everywhere(check, wrapped)
        checks.append((tag, wrapped))
    undo.append((verification, "CRITERIA", verification.CRITERIA))
    verification.CRITERIA = tuple(checks)
    fn(verification, "run_all", extra=_blocking)
    fn(verification, "run_criterion")

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def self_times(spans, base=0):
    """Per-span self time in seconds, in span order; ``base`` is the index
    of ``spans[0]`` in the list the parent indices refer to."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= base:
            own[s[3] - base] -= s[2] - s[1]
    return own


def summarise(spans, base=0):
    """Layer totals for the spans of one pass: counts, self times (ms) and
    extras; ``base`` as in ``self_times``."""
    own = self_times(spans, base)
    labels = [s[0] for s in spans]
    out = {f"{lab}.self_ms": 0.0 for lab in _SELF_TIMED}
    calls: dict[str, int] = {}
    extras: dict[str, int] = {}
    max_level = 0
    for i, s in enumerate(spans):
        lab = s[0]
        key = f"{lab}.self_ms"
        if key in out:
            out[key] += 1000.0 * own[i]
        # a query made from inside another query is the same user call
        if lab != "distribution.query" or s[3] < base or labels[s[3] - base] != "distribution.query":
            calls[lab] = calls.get(lab, 0) + 1
        if s[5]:
            for k, v in s[5].items():
                if k == "level":
                    max_level = max(max_level, v)
                else:
                    extras[f"{lab}:{k}"] = extras.get(f"{lab}:{k}", 0) + v
    sim_cycles = extras.get("simulate.simulate_cycles:cycles", 0) + extras.get(
        "simulate.sample_maxima.jump:cycles", 0)
    sim_escaped = extras.get("simulate.simulate_cycles:escaped", 0)
    sim_seconds = sum(
        s[2] - s[1] for s in spans
        if s[0] in ("simulate.simulate_cycles", "simulate.sample_maxima.jump")
    )
    out.update({
        "bdp.classify.calls": calls.get("bdp.classify", 0),
        "bdp.log_value.calls": calls.get("bdp.log_value", 0),
        "bdp.log_value.points": extras.get("bdp.log_value:points", 0),
        "distribution.init.calls": calls.get("distribution.init", 0),
        "distribution.query.calls": calls.get("distribution.query", 0),
        "distribution.max_level": max_level,
        "extremes.invert_tail.calls": calls.get("extremes.invert_tail", 0),
        "extremes.build_tail_function.calls": calls.get("extremes.build_tail_function", 0),
        "simulate.cycles": sim_cycles,
        "simulate.escaped": sim_escaped,
        "simulate.returned_ratio": (sim_cycles - sim_escaped) / sim_cycles if sim_cycles else 0.0,
        "simulate.cycles_per_s": sim_cycles / sim_seconds if sim_seconds > 0 else 0.0,
        "networks.convolution_terms": extras.get("networks.log_aggregate_constants:convolution_terms", 0),
        "networks.lattice_points": extras.get("networks.lattice_constants:lattice_points", 0)
        + extras.get("networks.log_aggregate_constants:lattice_points", 0),
        "networks.cycles": extras.get("networks.simulate_network_cycles:cycles", 0),
        "verification.blocking": extras.get("verification.run_all:blocking", 0),
    })
    return out
