"""Self-test of the benchmark's own arithmetic on synthetic data.

    python3 perfbench/selftest.py

Checks the percentile rule, self-time subtraction on a nested span tree,
the failure-share base, the per-layer aggregation and that BENCHMARK.json
is the one run.py generates.  Needs numpy, not plapreg.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import run
import spans
from stats import (MIN_TAIL_SAMPLES, covered_length, fail_frac, percentile, reportable,
                   self_times, tail_percentile)

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def expect(cond, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def close(a, b, tol=1e-12) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def raises(exc, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


@check
def percentiles():
    xs = list(range(1, 11))
    expect(close(percentile(xs, 50), 5.5), "median of 1..10 is 5.5")
    expect(close(percentile(xs, 90), 9.1), "p90 of 1..10 interpolates to 9.1")
    expect(close(percentile(reversed(xs), 0), 1) and close(percentile(xs, 100), 10),
           "p0 and p100 are the extremes, whatever the input order")
    expect(close(percentile([7.0], 90), 7.0), "one sample is every percentile")
    expect(raises(ValueError, percentile, [], 50), "no samples is an error")


@check
def tail_rule():
    expect(MIN_TAIL_SAMPLES == 10, "the rule is ten samples beyond")
    expect(reportable(100, 90) and not reportable(99, 90), "p90 needs 100 samples")
    expect(reportable(1000, 99) and not reportable(999, 99), "p99 needs 1000 samples")
    expect(tail_percentile(100) == 90, "100 samples support p90 and no higher")
    expect(tail_percentile(30) == 66, "30 samples support p66: 10.2 beyond")
    expect(tail_percentile(20) is None, "20 samples support nothing above the median")
    expect(tail_percentile(5) is None, "5 samples support no tail percentile")


@check
def failure_share():
    expect(close(fail_frac(10, 3), 0.3), "3 of 10 failed")
    expect(fail_frac(7, 0) == 0.0, "no failure")
    expect(raises(ValueError, fail_frac, 0, 0), "nothing attempted has no share")
    expect(raises(ValueError, fail_frac, 3, 4), "more failures than attempts")
    ops = [{"status": s} for s in ("ok", "failed", "wrong", "ok")]
    out = run.outcome(ops)
    expect(out == {"correct": False, "attempted": 4, "failed": 2},
           f"wrong outputs count as failed and make the run incorrect: {out}")
    out = run.outcome([{"status": "ok"}, {"status": "failed"}])
    expect(out["correct"] and out["failed"] == 1, "an honest failure is not an incorrect output")


@check
def self_time_tree():
    expect(close(covered_length([(1, 4), (3, 6), (8, 9)], 0, 10), 6), "union of intervals")
    expect(close(covered_length([(-2, 1), (9, 12)], 0, 10), 2), "clipped to the parent")
    # root [0,10] has children a [1,4] and b [3,6], which overlap as parallel
    # threads do; a has a child [2,3]
    tree = [(1, None, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 3.0, 6.0), (4, 2, 2.0, 3.0)]
    got = self_times(tree)
    want = {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    expect(all(close(got[k], v) for k, v in want.items()), f"self times {got}")


def span(sid, parent, name, start, end, attrs=None, via="solver", op=0):
    return (sid, parent, name, via, op, start, end, attrs)


@check
def layer_aggregation():
    trace = [
        span(1, None, "solver.solve", 0.0, 10.0, {"iters": 3, "converged": False}),
        span(2, 1, "linalg.spsolve", 1.0, 5.0, {"nnz": 100}),
        span(3, 1, "linalg.spsolve", 5.0, 7.0, {"nnz": 300}),
        span(4, 1, "solver._line_search", 7.0, 9.0, {"ok": True}),
        span(5, 4, "pointwise.L_eps", 7.0, 8.0, {"elems": 10}),
        span(6, 5, "pointwise.l_eps", 7.0, 7.5, {"elems": 10}, via="pointwise"),
        span(7, 1, "pointwise.L_eps", 9.0, 9.5, {"elems": 10}),
        span(8, None, "smoothness.fit_smoothness_exponent", 10.0, 12.0,
             {"r2": 0.5, "adjudicated": False}, via=None, op=1),
        span(9, 8, "smoothness.shift_difference_norm", 10.0, 11.0, via="smoothness", op=1),
    ]
    m = spans.layer_metrics(trace, n_ops=2)
    # solver self: 10 - (4 + 2 + 2 + 0.5) = 1.5, its own line search 2 - 1 = 1
    expect(close(m["solver.self_s"], (1.5 + 1.0) / 2), f"solver self {m['solver.self_s']}")
    expect(close(m["solver.linear_solve_s"], 6.0 / 2), "linear-solve time per op")
    expect(close(m["solver.linear_solves"], 1.0) and close(m["solver.linear_nnz"], 200.0),
           "linear solves per op and mean nnz")
    expect(close(m["solver.energy_evals"], 1.0) and close(m["solver.ls_trials"], 0.5),
           "energy evaluations and the line-search share of them")
    expect(close(m["solver.ls_accept_ratio"], 1.0) and close(m["solver.unconverged"], 0.5),
           "accepted line searches, unconverged solves")
    expect(close(m["pointwise.calls"], 1.0) and close(m["pointwise.elems"], 10.0),
           "only calls entering the pointwise layer count")
    expect(close(m["pointwise.self_s"], (0.5 + 0.5 + 0.5) / 2), "pointwise self time")
    expect(close(m["smoothness.self_s"], 2.0 / 2) and close(m["smoothness.shift_norms"], 0.5),
           "smoothness self time and shift norms")
    expect(m["smoothness.adjudicated_ratio"] == 0.0 and m["bases"]["fits"] == 1,
           "adjudicated share with its base")
    expect(raises(ValueError, spans.layer_metrics, trace, 0), "no traced operation")


@check
def tracer_nesting():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = tracer.wrap(inner, "pointwise.inner", "solver", spans._elems)
    wrapped_outer = tracer.wrap(outer, "solver.outer", None)
    tracer.op = 5
    expect(wrapped_outer(1) == 4, "wrapping keeps results")
    (sid_in, parent_in, *_), (sid_out, parent_out, *_) = tracer.spans
    expect(parent_in == sid_out and parent_out is None, "the inner span's parent is the outer")
    expect(all(s[spans.OP] == 5 for s in tracer.spans), "spans carry the operation id")
    expect(tracer.spans[0][spans.ATTRS] == {"elems": 1}, "attributes read from arguments")


@check
def spec_matches_contract():
    spec = run.benchmark_spec()
    on_disk = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    expect(on_disk.read_text() == run.spec_text(),
           "BENCHMARK.json is stale: rerun python3 perfbench/run.py --write-spec")
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "top-level keys")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)) and all(name.match(n) for n in names), "names")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
           "one-line reasons of at most 200 characters")
    expect(all(unit.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"] + spec["per_layer"]), "units and directions")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds at most 0.25")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["unit"] == "s" and setup["better"] == "lower"
           and setup["bound"] == max(bounds.values()), "setup_s has the largest bound")
    expect(len(json.dumps(spec)) < 64 * 1024, "spec under 64 KiB")


def main() -> int:
    for fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {fn.__name__}: {exc}")
            return 1
        print(f"ok   {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
