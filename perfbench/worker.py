"""One benchmark run in a fresh interpreter: set up, loop over passes, report.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--setup-only`` stops once the inputs are built, which is how ``run.py``
samples set-up time several times per run.

Times are reported at a reference host speed.  The shared host this runs
on changes speed by 20-40 % over tens of seconds, which no run length
averages away.  So the worker times a fixed pure-Python kernel (benchmark
code, untouched by any change to cyclemax) every ``CAL_EVERY_S`` between
requests, and scales each request's time by ``CAL_REF_S`` over the mean of
the kernel times just before and just after it.  Set-up time is scaled by
kernel times taken right after set-up.  The raw times are kept in the
result record.

The request list is fixed for a seed.  The loop sends one request at a time
(closed loop, one client) and starts another pass over the list only while
the passes so far fit in ``--seconds``.  With ``--trace 1`` passes alternate
untraced / traced; per-layer numbers come from the traced passes and the
tracing overhead from the difference between the two kinds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("sweep", "montecarlo", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--work", required=True, help="working directory inside the checkout")
    p.add_argument("--root", required=True, help="checkout root")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


CAL_REF_S = 0.008  # kernel time at the reference speed (a typical reading here)
CAL_EVERY_S = 0.5


def _kernel_seconds() -> float:
    """Median of three timings of a fixed bytecode loop."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def _median(xs):
    xs = sorted(xs)
    n = len(xs)
    return 0.5 * (xs[(n - 1) // 2] + xs[n // 2])


def main() -> int:
    args = _args()
    t0 = time.perf_counter()
    import cyclemax as cm

    import_ms = 1000.0 * (time.perf_counter() - t0)

    import numpy as np

    import tracing
    import workloads

    runner = None
    if args.workload == "sweep":
        requests = workloads.sweep(cm, args.seed)
    elif args.workload == "montecarlo":
        requests = workloads.montecarlo(cm, args.seed)
    else:
        runner = workloads.CliRunner(args.root, args.work)
        requests = workloads.cli(args.seed, runner)
    setup_s = time.monotonic() - args.t_spawn
    setup_cal = _kernel_seconds()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": setup_cal}))
        return 0

    tracer = tracing.Tracer()
    passes = []  # per pass: traced flag, wall seconds, latencies, first span index
    failures = []  # (pass, request name, message)
    pending = []  # deferred checks: (pass, request, output)
    attempted = 0
    cal = [_kernel_seconds()]  # kernel samples; each latency notes the last one before it
    cal_at = time.perf_counter()
    loop_start = time.monotonic()
    p = 0
    while True:
        traced = bool(args.trace) and p % 2 == 1
        restore = None
        if traced:
            if runner is not None:
                runner.tracer = tracer
            else:
                restore = tracing.install(tracer)
        first_span = len(tracer.spans)
        lat, lat_cal = [], []
        # a traced pass repeats the draws of the untraced pass before it, so
        # the two differ only by the tracing
        draw = p // 2 if args.trace else p
        for i, req in enumerate(requests):
            if time.perf_counter() - cal_at >= CAL_EVERY_S:
                cal.append(_kernel_seconds())
                cal_at = time.perf_counter()
            lat_cal.append(len(cal) - 1)
            tracer.request = [p, i] if traced else None
            t = time.perf_counter()
            try:
                out, err = req.run(draw), None
            except Exception as exc:  # a raising request is a failed request
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t)
            tracer.request = None
            attempted += 1
            if err is None and req.defer:
                pending.append((p, req, out))
                continue
            if err is None:
                try:
                    err = req.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                failures.append((p, req.name, err))
        if restore is not None:
            restore()
        if runner is not None:
            runner.tracer = None
        passes.append({"traced": traced, "wall": sum(lat), "lat": lat, "cal": lat_cal,
                       "spans": first_span})
        p += 1
        elapsed = time.monotonic() - loop_start
        done_kinds = {q["traced"] for q in passes}
        if len(done_kinds) == (2 if args.trace else 1) and elapsed * (p + 1) / p > args.seconds:
            break

    cal.append(_kernel_seconds())
    for q in passes:
        q["ref"] = [t * 2.0 * CAL_REF_S / (cal[c] + cal[c + 1]) for t, c in zip(q["lat"], q["cal"])]

    for p_idx, req, out in pending:
        try:
            err = req.check(out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append((p_idx, req.name, err))

    edges = workloads.run_edge_probes(cm) if args.workload == "sweep" else []
    n_edges = len(workloads.edge_probes(cm)) if args.workload == "sweep" else 0

    untraced = [q for q in passes if not q["traced"]]
    lat_ms = 1000.0 * np.concatenate([q["ref"] for q in untraced])
    raw_ms = 1000.0 * np.concatenate([q["lat"] for q in untraced])
    if runner is not None:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "edge_unexpected": edges,
        "passes": len(untraced),
        "pass_walls_s": [q["wall"] for q in untraced],
        "requests_per_pass": len(requests),
        "setup_s": setup_s,
        "setup_cal_s": setup_cal,
        "calibration_s": _median(cal),
        "import_ms": import_ms,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
            "CYCLEMAX_THREADS": os.environ.get("CYCLEMAX_THREADS"),
        },
        "raw": {
            "wall_s": _median([q["wall"] for q in untraced]),
            "latency_p50_ms": float(np.percentile(raw_ms, 50)),
            "latency_p90_ms": float(np.percentile(raw_ms, 90)),
        },
        "metrics": {
            "wall_s": _median([sum(q["ref"]) for q in untraced]),
            "latency_p50_ms": float(np.percentile(lat_ms, 50)),
            "latency_p90_ms": float(np.percentile(lat_ms, 90)),
            "peak_rss_mb": rss / 1024.0,
        },
    }
    if args.trace:
        bounds = [q["spans"] for q in passes] + [len(tracer.spans)]
        per_pass = [tracing.summarise(tracer.spans[bounds[k]:bounds[k + 1]], base=bounds[k])
                    for k, q in enumerate(passes) if q["traced"]]
        layer = {}
        for name, unit, kind in tracing.LAYER_METRICS:
            if name in per_pass[0]:
                if kind == "time" or name == "simulate.cycles_per_s":
                    layer[name] = _median([m[name] for m in per_pass])
                else:
                    layer[name] = per_pass[0][name]
        untraced_wall = result["raw"]["wall_s"]
        # pass 2k+1 (traced) repeats the draws of pass 2k (untraced)
        overhead = [t["wall"] - u["wall"] for u, t in zip(passes[0::2], passes[1::2])]
        if runner is not None:
            layer["cli.spawn_ms"] = _median(runner.spawn_ms)
            layer["cli.import_ms"] = _median(runner.import_ms)
        else:
            layer["cli.spawn_ms"] = 0.0
            layer["cli.import_ms"] = import_ms
        cycles = per_pass[0]["simulate.cycles"] + per_pass[0]["networks.cycles"]
        layer["cycles_per_s"] = cycles / untraced_wall
        layer["error_rate"] = (len(failures) + len(edges)) / (attempted + n_edges)
        layer["edge.unexpected"] = len(edges)
        layer["trace.overhead_ms"] = 1000.0 * _median(overhead)
        result["layers"] = {name: layer[name] for name, _, _ in tracing.LAYER_METRICS}
        result["trace_file"] = os.path.join(args.work, "spans.jsonl.gz")
        tracer.dump(result["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
