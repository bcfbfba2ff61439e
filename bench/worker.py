"""One cold pass of a workload, in a process of its own.

Run by ``run.py``; prints one JSON line with the pass's set-up time, the
latency and verdict of every check, and the peak resident memory.  The
library is imported from ``src/`` of the checkout this file lives in, and
nowhere else.

Times are reported twice: as wall-clock seconds (``s``) and in reference
seconds (``ref_s``).  The speed of a shared machine can swing by a factor of
two within seconds, so a set of fixed stdlib kernels is timed just before and
just after the set-up and each check, and each duration is rescaled to a
machine on which the kernels take ``REF_KERNEL_S`` (geometric mean), by the
faster of the two kernel times around it.  The kernels run with the garbage
collector off, so the library's heap does not change their cost.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF_KERNEL_S = 0.003


def _fractions():
    acc = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)


def _containers():
    seen, order = {}, []
    for i in range(6000):
        key = (i % 31, i % 17, i % 7)
        seen[key] = seen.get(key, 0) + 1
        order.append(key)
    order.sort()


def _integers():
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003


def reference_kernel_s() -> float:
    """Geometric mean duration of three fixed stdlib kernels.

    Fractions, containers and plain integer arithmetic slow down differently
    under load from other processes; their geometric mean tracks the
    library's mix better than any one of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for kernel in (_fractions, _containers, _integers):
            start = time.perf_counter()
            kernel()
            logs += math.log(time.perf_counter() - start)
        return math.exp(logs / 3)
    finally:
        if enabled:
            gc.enable()


def to_ref_s(seconds, kernel_before, kernel_after):
    return seconds * REF_KERNEL_S / min(kernel_before, kernel_after)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    sys.path.insert(0, SRC)

    kernel_before = reference_kernel_s()
    t0 = time.perf_counter()
    import bvgraph
    import workloads
    ctx = workloads.setup(args.workload)
    setup_s = time.perf_counter() - t0
    setup_ref_s = to_ref_s(setup_s, kernel_before, reference_kernel_s())
    if not os.path.abspath(bvgraph.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"bvgraph imported from {bvgraph.__file__}, not {SRC}")

    # Every pass of a run repeats the same inputs.  The checks run in pool
    # order: which check warms the library's caches for the next is then the
    # same from seed to seed.
    rng = random.Random(f"{args.workload}:{args.seed}")
    checks = workloads.pool(ctx, args.workload, args.smoke)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    records = []
    for check in checks:
        rec = {"id": check.id, "s": 0.0, "ref_s": 0.0, "ok": False}
        try:
            run, output = check.prepare(ctx, rng)
            kernel_before = reference_kernel_s()
            if tracer:
                tracer.begin()
            start = time.perf_counter()
            try:
                result = run()
            finally:
                rec["s"] = time.perf_counter() - start
                if tracer:
                    tracer.end()
                rec["ref_s"] = to_ref_s(rec["s"], kernel_before,
                                        reference_kernel_s())
            status_ok, text = output(result)
            pinned = golden.get(args.workload, {}).get(check.id)
            rec["digest"] = workloads.digest(text)
            rec["ok"] = status_ok and pinned is not None and pinned == rec["digest"]
            if not rec["ok"]:
                rec["error"] = ("status fail" if not status_ok else
                                "no pinned output" if pinned is None else
                                "output differs from the pinned value")
        except Exception as exc:  # a raising check is a failed check
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)

    out = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "checks": records,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        out["layers"] = tracer.metrics(len(records))
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
