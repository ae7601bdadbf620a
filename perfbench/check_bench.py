"""Checks of the benchmark itself.

    python3 -m pytest perfbench/check_bench.py -q

The file name keeps these out of the package's own test run: they start
about a dozen benchmark runs and take two to three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT, LAYER_METRICS  # noqa: E402

_COMMON = {
    "bdp.log_value.calls", "bdp.log_value.points", "bdp.log_value.self_ms",
    "distribution.init.calls", "distribution.query.calls", "distribution.query.self_ms",
    "distribution.max_level", "cli.import_ms",
}
_ANALYSIS = _COMMON | {
    "bdp.classify.calls", "bdp.classify.self_ms", "distribution.tail_asymptotics.self_ms",
    "extremes.norming_constants.self_ms", "extremes.invert_tail.calls",
    "extremes.invert_tail.self_ms", "extremes.build_tail_function.calls",
    "extremes.compactness_diagnostic.self_ms", "extremes.gumbel_bounds.self_ms",
    "networks.log_aggregate_constants.self_ms", "networks.convolution_terms",
    "networks.lattice_constants.self_ms", "networks.lattice_points",
    "networks.norton_reduce.self_ms",
}
_SIMULATION = {
    "simulate.simulate_cycles.self_ms", "simulate.sample_maxima.inversion.self_ms",
    "simulate.cycles", "simulate.escaped", "simulate.returned_ratio", "simulate.cycles_per_s",
    "networks.simulate_network_cycles.self_ms", "networks.cycles", "cycles_per_s",
}
# per-layer metrics that must be positive on each workload: the layer runs there
RUNS_ON = {
    "sweep": _ANALYSIS,
    "montecarlo": _COMMON | _SIMULATION | {"simulate.sample_maxima.jump.self_ms"},
    "cli": _ANALYSIS | _SIMULATION | {
        "bdp.load_spec.self_ms", "cli.spawn_ms", "cli.main.self_ms", "verification.check.self_ms",
    },
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MiB"}


def _run(workload, trace, seed=11, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stderr
    return doc


@pytest.fixture(scope="module", params=sorted(RUNS_ON))
def traced_pair(request):
    w = request.param
    return w, _result(_run(w, 1)), _result(_run(w, 1))


def test_exact_counts_repeat(traced_pair):
    _, a, b = traced_pair
    for name in EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_every_layer_metric_reported(traced_pair):
    w, a, _ = traced_pair
    assert list(a["metrics"]) == [name for name, _, _ in LAYER_METRICS]
    for name, unit, _ in LAYER_METRICS:
        assert a["metrics"][name]["unit"] == unit
    idle = sorted(n for n in RUNS_ON[w] if not a["metrics"][n]["value"] > 0)
    assert not idle, f"{w}: layers that should run report nothing: {idle}"


def test_end_to_end_metrics_and_record():
    proc = _run("sweep", 0)
    doc = _result(proc)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    for key in ("nproc", "python", "numpy", "scipy", "git_sha", "seed", "CYCLEMAX_THREADS"):
        assert key in record
    assert record["CYCLEMAX_THREADS"] == "1" and record["seed"] == 11


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
