"""Benchmark of bvgraph: verified identity checks per second, per workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--smoke]

Workloads (see workloads.py): intertwine, commute, feynman, graph_complex.
``--seed`` (default 0) draws the rational coefficients of the checks.  With
``--trace 0`` the harness repeats one cold pass over those inputs, each in a
fresh process, until ``--seconds`` have gone by (at least three passes), and
reports the end-to-end metrics.  With ``--trace 1`` it runs one untraced and
one traced pass on the same inputs and reports the per-layer metrics of the
traced one, with the tracing overhead; the spans go to ``.bench_out/``.
``--smoke`` runs one pass of a cheap subset of the pool.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
A check fails if its suite reports ``fail``, if it raises, or if its exact
output differs from the value pinned in ``golden.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("intertwine", "commute", "feynman", "graph_complex")
MIN_PASSES = 3
TIME_LIMIT_S = 170

# Times are in reference seconds (the ``ref_s`` clock of worker.py);
# wall-clock figures are printed beside them.
END_TO_END = (("setup_s", "s"), ("checks_per_s", "1/s"), ("check_s_p50", "s"),
              ("check_s_p90", "s"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    pass


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_pass(args, index, trace, deadline):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another pass")
    try:
        # a fixed hash seed makes the string-keyed dict layouts of every
        # pass the same
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes, clock="ref_s"):
    """The end-to-end metrics, timed by ``clock``, with their sample counts.

    Every pass repeats the same checks, so a check's typical latency is its
    median over the passes, and the throughput is the pool's size over the
    sum of those medians.  The percentiles are over every sample.
    """
    by_check = {}
    for p in passes:
        for c in p["checks"]:
            by_check.setdefault(c["id"], []).append(c[clock])
    lat = [t for times in by_check.values() for t in times]
    values = {
        "setup_s": statistics.median(p["setup_" + clock] for p in passes),
        "checks_per_s": len(by_check) / sum(statistics.median(v)
                                            for v in by_check.values()),
        "check_s_p50": percentile(lat, 0.5),
        "check_s_p90": percentile(lat, 0.9),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    samples = {"setup_s": len(passes), "checks_per_s": len(lat),
               "check_s_p50": len(lat), "check_s_p90": len(lat),
               "peak_rss_mib": len(passes)}
    return {k: (values[k], u, samples[k]) for k, u in END_TO_END}


def per_layer(untraced, traced):
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = (sum(c["ref_s"] for c in traced["checks"])
                                      / sum(c["ref_s"] for c in untraced["checks"]))
    return {k: (layers[k], u, 1) for k, u in tracing.LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bvgraph", "__init__.py")):
        print(f"bench: no bvgraph sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    try:
        if args.trace:
            passes = [run_pass(args, 0, False, deadline),
                      run_pass(args, 0, True, deadline)]
            metrics = per_layer(*passes)
        else:
            passes = []
            while True:
                t = time.monotonic()
                passes.append(run_pass(args, len(passes), False, deadline))
                now = time.monotonic()
                if args.smoke or now + (now - t) > deadline or (
                        now - start >= args.seconds and len(passes) >= MIN_PASSES):
                    break
            metrics = end_to_end(passes)
            wall = end_to_end(passes, clock="s")
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"passes-{args.workload}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump(passes, fh)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{len(checks)} checks; times in reference seconds, wall.* in wall-clock")
    for c in failed:
        print(f"  FAILED {c['id']}: {c.get('error')}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:46s} {value:>14.6g} {unit:8s} n={n}")
    if not args.trace:
        for name, (value, unit, n) in wall.items():
            if unit != "MiB":
                print(f"  {'wall.' + name:46s} {value:>14.6g} {unit:8s} n={n}")
    print(f"  {'fail_ratio':46s} {len(failed) / len(checks):>14.6g} {'ratio':8s} "
          f"n={len(checks)}")
    if args.trace:
        print(f"  spans written to {passes[1]['spans_file']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
