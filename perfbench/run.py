"""perfbench: the plapreg benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json
    python3 perfbench/selftest.py              # the benchmark's own arithmetic

Run from a checkout of the repository; it measures the plapreg in that
checkout's ``src/``.  One run:

1. pins BLAS/OpenMP pools to one thread and PLAPREG_THREADS to nproc;
2. starts the workload process several times, timing each from spawn to
   ready (imports, the seed's inputs, one checked warm-up operation); the
   last one goes on to measure, the others exit once ready;
3. checks every operation's output, prints the metrics by name and unit
   (end-to-end ones untraced, per-layer ones with ``--trace 1``), writes
   the full record with the machine description under perfbench/results/,
   and prints the result JSON as its last line.

It exits non-zero, printing no result, when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_record, pinned_env
from stats import fail_frac, percentile, reportable, tail_percentile
from workloads import WORKLOADS

RUN_SECONDS = 12
# set up at least SETUP_MIN times, and more while the set-ups took less than
# SETUP_BUDGET_S in all, up to SETUP_MAX: cheap set-ups get more samples
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
# the whole run, set-up included, must end well inside 180 s
RUN_TIMEOUT_S = 170.0

# (name, unit, better, bound, meaning).  Operation times are divided by the
# reference kernel's time taken around each operation (reference.py): on a
# shared 2-core machine raw times of the same code spread by 10-20% between
# runs, the ratios by 3-4% (cli, fit2d), 7-10% (sweep1d) and 14% (torsion2d,
# whose 257^2 solves track a small reference least well).  Bounds are wide
# enough for torsion2d; setup_s stays in plain seconds, so it drifts with
# the machine and gets the widest bound allowed.
END_TO_END = [
    ("op_ref_p50", "ref", "lower", 0.25,
     "median over operations of wall time / reference time: an API solve (torsion2d, "
     "sweep1d: solve_s_p50), a CLI command from spawn to exit (cli: cli_s_p50), a field "
     "pipeline (fit2d: check_s_p50)"),
    ("ok_ops_per_ref", "1/ref", "higher", 0.25,
     "operations that passed every check per reference time spent in operations "
     "(solves_per_s)"),
    ("ok_frac", "ratio", "higher", 0.05,
     "operations that passed every check over operations attempted, 1 - fail_frac; "
     "the bound is below one failure in the cli round (1/12)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload process, or of its children for cli"),
    ("setup_s", "s", "lower", 0.25,
     "median over the set-ups of spawn to ready: imports, inputs, one warm-up operation"),
]

# (name, unit, better, meaning); per traced operation unless a ratio
PER_LAYER = [
    ("solver.linear_solve_s", "s", "lower", "time in scipy linear algebra reached through plapreg.solver"),
    ("solver.linear_solves", "count", "lower", "calls into that linear algebra"),
    ("solver.linear_nnz", "count", "lower", "mean nnz of the matrices passed to it"),
    ("solver.self_s", "s", "lower", "solver spans minus pointwise, linear-algebra and other children: assembly, conversion, slicing"),
    ("solver.newton_iters", "count", "lower", "Newton iterations summed over solves"),
    ("solver.energy_evals", "count", "lower", "L_eps evaluations made by the solver"),
    ("solver.ls_trials", "count", "lower", "energy evaluations inside the line search"),
    ("solver.ls_accept_ratio", "ratio", "higher", "line searches that found a decrease over line searches"),
    ("solver.unconverged", "count", "lower", "solves returning converged = False"),
    ("pointwise.calls", "count", "lower", "calls into the pointwise layer from other layers"),
    ("pointwise.elems", "count", "lower", "array elements passed in those calls"),
    ("pointwise.self_s", "s", "lower", "self time of pointwise spans"),
    ("smoothness.shift_norms", "count", "lower", "shift_difference_norm calls"),
    ("smoothness.fits", "count", "lower", "fit_smoothness_exponent calls"),
    ("smoothness.self_s", "s", "lower", "self time of smoothness spans"),
    ("smoothness.adjudicated_ratio", "ratio", "higher", "fits with r^2 >= R2_MIN over fits"),
    ("fields.io_s", "s", "lower", "self time of the field and grid CSV/JSON readers and writers"),
    ("fields.io_bytes", "bytes", "lower", "bytes those calls wrote or read"),
    ("fields.gradient_s", "s", "lower", "self time of fields.gradient"),
    ("experiments.self_s", "s", "lower", "self time of experiments spans"),
    ("experiments.cells", "count", "lower", "cells in the reports of the run_* checks"),
    ("cli.import_s", "s", "lower", "import plapreg.cli in a traced command, interpreter start excluded"),
    ("cli.self_s", "s", "lower", "self time of cli spans"),
    ("cli.nonzero_exit", "count", "lower", "traced commands exiting non-zero"),
    ("trace.overhead_frac", "ratio", "lower", "median traced over median untraced operation time, minus 1"),
]

# layers whose self time makes up an operation, for the traced summary
SHARE_KEYS = ("cli.import_s", "cli.self_s", "experiments.self_s", "solver.self_s",
              "solver.linear_solve_s", "pointwise.self_s", "smoothness.self_s",
              "fields.io_s", "fields.gradient_s")


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def spec_text() -> str:
    return json.dumps(benchmark_spec(), indent=2) + "\n"


class RunError(RuntimeError):
    pass


def start_worker(root: Path, env: dict, args, probe: bool, spans_out: Path | None,
                 deadline: float) -> tuple[float, str]:
    """Run one workload process; returns (spawn-to-ready seconds, output after READY)."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    # a session of its own, so that a timeout also stops the CLI children
    with subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError("workload process ran past the time limit") from None
    first, _, rest = out.partition("\n")
    if proc.returncode != 0 or not first.startswith("READY "):
        raise RunError(f"workload process exited with code {proc.returncode} before finishing")
    return float(first.split()[1]) - spawned, rest


def outcome(ops: list) -> dict:
    """correct, attempted, failed: a wrong output also counts as a failed operation."""
    return {
        "correct": all(o["status"] != "wrong" for o in ops),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["status"] != "ok"),
    }


def end_to_end(payload: dict, setup_samples: list) -> dict:
    ops = payload["ops"]
    ratios = [o["s"] / o["ref_s"] for o in ops]
    ok = sum(1 for o in ops if o["status"] == "ok")
    return {
        "op_ref_p50": statistics.median(ratios),
        "ok_ops_per_ref": ok / sum(ratios),
        "ok_frac": ok / len(ops),
        "peak_rss_mb": payload["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def report_lines(wl, args, payload: dict, metrics: dict, setup_samples: list) -> list:
    """Human-readable lines naming each metric the way the workload's users would."""
    ops = payload["ops"]
    n = len(ops)
    counts = {s: sum(1 for o in ops if o["status"] == s) for s in ("ok", "failed", "wrong")}
    lines = [f"why: {wl.why}",
             f"{wl.op_noun}s: attempted={n} ok={counts['ok']} failed={counts['failed']} "
             f"wrong={counts['wrong']} rounds={payload['rounds']} wall={payload['wall_s']:.2f}s"]
    def line(name, value, unit, note=""):
        lines.append(f"  {name:<30} {value:>14.6g} {unit:<6} {note}".rstrip())

    if not args.trace:
        times = [o["s"] for o in ops]
        alias = wl.metric_alias
        line(f"{alias}_p50", statistics.median(times), "s", f"n={n}")
        if reportable(n, 90):
            line(f"{alias}_p90", percentile(times, 90), "s", f"n={n}")
        else:
            tail = tail_percentile(n)
            note = f"{alias}_p90 not reported: n={n} < 100"
            if tail is not None:
                line(f"{alias}_p{tail}", percentile(times, tail), "s", f"n={n}; {note}")
            else:
                lines.append(f"  {note}")
        line(wl.rate_alias, counts["ok"] / sum(times), "1/s")
        line("fail_frac", fail_frac(n, n - counts["ok"]), "ratio", f"{n - counts['ok']}/{n}")
        ref = statistics.median(o["ref_s"] for o in ops)
        line("reference_s_p50", ref, "s", f"n={n}")
        samples = "samples " + ", ".join(f"{s:.3f}" for s in setup_samples)
        for name, unit, *_ in END_TO_END:
            line(name, metrics[name], unit, samples if name == "setup_s" else "")
    else:
        bases = payload["layers"]["bases"]
        for name, unit, *_ in PER_LAYER:
            line(name, metrics[name], unit)
        lines.append("  bases: " + ", ".join(f"{k}={v}" for k, v in bases.items()))
        traced, untraced = payload["traced_s"], payload["untraced_s"]
        lines.append(f"  trace.overhead_frac base: traced median {statistics.median(traced):.4g} s "
                     f"(n={len(traced)}), untraced median {statistics.median(untraced):.4g} s "
                     f"(n={len(untraced)})")
        op_mean = statistics.fmean(traced)
        shares = sorted(((metrics[k] / op_mean, k) for k in SHARE_KEYS), reverse=True)
        lines.append(f"  share of a traced {wl.op_noun} ({op_mean:.4g} s): " + ", ".join(
            f"{k} {100 * s:.1f}%" for s, k in shares if s >= 0.005))
    bad = [o for o in ops if o["status"] != "ok"]
    for o in bad[:5]:
        lines.append(f"  {o['status']}: {o['label']}: {o['detail']}")
    if len(bad) > 5:
        lines.append(f"  ... {len(bad) - 5} more")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="The plapreg benchmark.")
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if args.write_spec:
        (root / "BENCHMARK.json").write_text(spec_text())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (root / "src" / "plapreg" / "__init__.py").is_file():
        print(f"error: no plapreg source under {root / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = pinned_env(root)
    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = results / f"spans-{stem}.csv" if args.trace else None
    setup_samples = []
    try:
        while True:
            last = len(setup_samples) + 1 >= SETUP_MAX or (
                len(setup_samples) + 1 >= SETUP_MIN and sum(setup_samples) >= SETUP_BUDGET_S)
            ready_s, out = start_worker(root, env, args, not last, spans_out if last else None,
                                        deadline)
            setup_samples.append(ready_s)
            if last:
                break
        payload = json.loads(out.strip().splitlines()[-1])
    except (RunError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload]()
    if args.trace:
        metrics = {name: payload["layers"][name] for name, *_ in PER_LAYER}
        spec = PER_LAYER
    else:
        metrics = end_to_end(payload, setup_samples)
        spec = END_TO_END
    units = {name: unit for name, unit, *_ in spec}
    result = {
        **outcome(payload["ops"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    machine = machine_record(root, env)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("\n".join(report_lines(wl, args, payload, metrics, setup_samples)))
    record = {"args": vars(args), "machine": machine, "setup_s_samples": setup_samples,
              "result": result, "payload": payload}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
