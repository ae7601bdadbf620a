#!/usr/bin/env python3
"""cyclemax benchmark.

    python3 perfbench/run.py --workload {sweep,montecarlo,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, metrics and their bounds are listed in
``BENCHMARK.json`` and explained in ``perfbench/NOTES.md``.

Each run starts fresh worker interpreters (``worker.py``), one at a time:
a few that only set up, for the median of ``setup_s``, then the one that
measures.  The last stdout line is the result JSON; the line before it
records the environment.  Results and traces are also kept under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS as LAYER_UNITS
from worker import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "montecarlo", "cli")
SETUP_SAMPLES = 5  # fresh interpreters whose set-up time gives the median setup_s
WORKER_TIMEOUT = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread everywhere: the package's own pool and any BLAS pool
    env.update(CYCLEMAX_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _worker(args, work: Path, env: dict, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--root", str(ROOT)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t-spawn", repr(time.monotonic())]
    # own process group, so a timeout also stops the cli children it spawned
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker ran past {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "cyclemax" / "__init__.py").is_file():
        return _fail(f"no cyclemax sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "demos").is_dir():
        return _fail(f"no demos directory under {ROOT}")

    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = _env()
    try:
        # compile and cache the package once, untimed, as an installed copy would be
        subprocess.run([sys.executable, "-c", "import cyclemax"], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=WORKER_TIMEOUT)
        # set-up samples before and after the measuring worker, so that they
        # see the machine at more than one moment
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_worker(args, work, env, setup_only=True) for _ in range(probes // 2)]
        res = _worker(args, work, env, setup_only=False)
        setups.append(res)
        setups += [_worker(args, work, env, setup_only=True) for _ in range(probes - probes // 2)]
        if args.trace:
            shutil.copy(res["trace_file"], out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_raw = sorted(s["setup_s"] for s in setups)
    # each sample at the reference host speed, from kernel times taken right after it
    setup_ref = sorted(s["setup_s"] * CAL_REF_S / s["setup_cal_s"] for s in setups)
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in res["layers"].items()}
    else:
        values = dict(res["metrics"], setup_s=setup_ref[len(setup_ref) // 2])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "setup_samples_s": setup_raw,
        "calibration_s": res["calibration_s"],
        "raw": dict(res["raw"], setup_s=setup_raw[len(setup_raw) // 2]),
        "passes": res["passes"],
        "pass_walls_s": res["pass_walls_s"],
        "requests_per_pass": res["requests_per_pass"],
        "failures": res["failures"],
        "edge_unexpected": res["edge_unexpected"],
        **res["env"],
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    for p_idx, name, msg in res["failures"]:
        print(f"FAILED pass {p_idx} {name}: {msg}", file=sys.stderr)
    for name, outcome in res["edge_unexpected"]:
        print(f"edge probe did not raise CycleMaxError/ValueError: {name}: {outcome}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
