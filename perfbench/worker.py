"""One workload process: set up, warm up, then run the closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--probe]

run.py starts this script and times it from spawn to the ``READY`` line,
which carries the monotonic clock reading and is printed once plapreg is
imported, the seed's inputs exist and one warm-up operation has passed its
check; that interval is one ``setup_s`` sample.  With ``--probe`` the
process exits there.  Otherwise it measures and prints one JSON line with
every operation's time, reference reading and status.

With ``--trace 1`` each operation runs twice, once untraced and once
traced, alternating which goes first; the traced executions give the
per-layer metrics and the two sets of times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

# no operation starts this long after the measurement began
DEADLINE_SLACK_S = 90.0


def round_order(ops: list, seed: int, rnd: int) -> list:
    order = list(ops)
    random.Random(seed * 1_000_003 + rnd).shuffle(order)
    return order


def execute(wl, op, tracer=None) -> tuple[float, str, str]:
    """Run one operation, timed, then check it; exceptions count as failures."""
    wl.prepare(op)
    t0 = perf_counter()
    try:
        dt, out = wl.timed(op, tracer)
    except Exception as exc:  # the loop must go on and report the failure
        return perf_counter() - t0, "failed", f"{type(exc).__name__}: {exc}"
    status, detail = wl.check(op, out)
    return dt, status, detail


def measure(wl, ops: list, seed: int, seconds: float, trace: bool):
    """Run whole rounds until the time is used up; returns (result, tracer or None).

    A reference reading is taken before the first operation and after every
    one; each operation carries the mean of the readings on either side.
    """
    # imported here so that scipy's import does not count as the cli's set-up
    from reference import Reference

    tracer = spans.Tracer() if trace else None
    ref = Reference()
    records, traced_s, untraced_s = [], [], []
    reading = ref.reading()
    t_start = perf_counter()
    rounds = 0
    while rounds < wl.min_rounds or perf_counter() - t_start < seconds:
        for op in round_order(ops, seed, rounds):
            if perf_counter() - t_start > seconds + DEADLINE_SLACK_S:
                break
            if trace:
                tracer.op = len(traced_s)
                first_traced = tracer.op % 2 == 1
                runs = (first_traced, not first_traced)
            else:
                runs = (False,)
            for traced in runs:
                dt, status, detail = execute(wl, op, tracer if traced else None)
                before, reading = reading, ref.reading()
                if trace:
                    (traced_s if traced else untraced_s).append(dt)
                records.append({"label": wl.label(op), "s": dt, "ref_s": (before + reading) / 2,
                                "status": status, "detail": detail})
        rounds += 1
    wall = perf_counter() - t_start
    result = {
        "rounds": rounds,
        "wall_s": wall,
        "maxrss_kb": wl.peak_rss_kb(),
        "ops": records,
    }
    if trace:
        layers = spans.layer_metrics(tracer.spans, len(traced_s),
                                     wl.traced_import_s, wl.traced_exits)
        layers["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
        result.update(layers=layers, traced_s=traced_s, untraced_s=untraced_s,
                      n_spans=len(tracer.spans))
    return result, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    ap.add_argument("--spans-out", default=None, help="CSV file for the traced spans")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    wl = WORKLOADS[args.workload]()
    workdir = root / "perfbench" / "work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = wl.setup(args.seed, root, workdir, dict(os.environ))
        plapreg = sys.modules.get("plapreg")
        if plapreg is not None and not Path(plapreg.__file__).resolve().is_relative_to(root / "src"):
            print(f"error: plapreg imported from {plapreg.__file__}, not this checkout",
                  file=sys.stderr)
            return 2
        warm = wl.warmup(ops)
        _, status, detail = execute(wl, warm)
        if status != "ok":
            print(f"error: warm-up {wl.label(warm)} {status}: {detail}", file=sys.stderr)
            return 3
        # the shared monotonic clock lets run.py time spawn-to-ready exactly
        print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        if args.probe:
            return 0
        result, tracer = measure(wl, ops, args.seed, args.seconds, bool(args.trace))
        if tracer is not None and args.spans_out:
            tracer.write_csv(args.spans_out)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
