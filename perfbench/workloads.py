"""The benchmark's workloads: inputs made from a seed, the timed call, the check.

Every workload is a closed loop driven by one process, one operation at a
time.  The seed fixes one *round*, a list of operations; a run repeats the
round, in a seeded order each time, until the measured time is used up, and
always ends on a whole round.  Because every round holds the same
operations, counts per operation and the failure share repeat exactly for
a fixed seed however many rounds fit into the run.

Each check returns one of three statuses:

* ``ok``: the output passed every check;
* ``failed``: the program reported a failure itself (an unconverged solve,
  an unexpected exit code, an exception);
* ``wrong``: the program reported success but its output failed a check.

plapreg is imported inside ``setup`` only, so that importing this module
(for the workload list and the reasons behind it) needs numpy alone.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# sup-norm acceptance tolerance of the p = 3 oracle solve at 4097 nodes
ORACLE_SUP_TOL = 2e-6
CLI_TIMEOUT_S = 120


def smooth_perturbation(rng, x: np.ndarray, amplitude: float) -> np.ndarray:
    """A few low Fourier modes over coordinates x (..., dim), max |.| = amplitude."""
    out = np.zeros(x.shape[:-1])
    for _ in range(3):
        k = rng.integers(1, 4, size=x.shape[-1])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += rng.uniform(-1.0, 1.0) * np.sin(np.pi * (x @ k) + phase)
    return amplitude * out / np.max(np.abs(out))


def sharp_profile(p: float, x1: np.ndarray) -> np.ndarray:
    """The exact kinked minimizer |x1|^p' / p' for f = 1 (p' = p / (p - 1))."""
    pp = p / (p - 1.0)
    return np.abs(x1) ** pp / pp


def kinked_field(power: float, x1: np.ndarray) -> np.ndarray:
    """The 2D vector field (|x1|^power sign(x1), 0)."""
    comp = np.abs(x1) ** power * np.sign(x1)
    return np.stack([comp, np.zeros_like(comp)], axis=-1)


class Workload:
    name = ""
    why = ""
    op_noun = "operation"
    # names of the raw-seconds latency and rate in the text report
    metric_alias = "op_s"
    rate_alias = "ok_ops_per_s"
    min_rounds = 1
    # import times and exit codes of traced CLI commands
    traced_import_s: tuple = ()
    traced_exits: tuple = ()

    def setup(self, seed: int, root: Path, workdir: Path, env: dict) -> list:
        """Import plapreg, generate the seed's inputs; returns the round."""
        raise NotImplementedError

    def warmup(self, ops: list):
        return ops[0]

    def label(self, op) -> str:
        return str(op)

    def prepare(self, op) -> None:
        """Untimed work before an operation."""

    def run(self, op):
        raise NotImplementedError

    def timed(self, op, tracer=None) -> tuple[float, object]:
        """Run the operation, traced when a tracer is given; returns (seconds, output)."""
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            out = self.run(op)
            return perf_counter() - t0, out
        finally:
            if tracer is not None:
                tracer.uninstall()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, op, out) -> tuple[str, str]:
        raise NotImplementedError


def _check_solve(solver, spec, res) -> tuple[str, str]:
    if not res.converged:
        return "failed", (f"unconverged after {res.iterations} iterations, "
                          f"residual {res.el_residual:.3e}")
    tol = solver.residual_tolerance(spec)
    res_now = solver.el_residual(spec, res.u)
    if not (math.isfinite(res.energy) and res_now <= tol):
        return "wrong", f"converged but EL residual {res_now:.3e} > {tol:.3e}"
    return "ok", ""


class Torsion2D(Workload):
    # The one real hot spot: the linear solve and Hessian assembly do nearly
    # all the work, while smoothness, I/O and the CLI are idle.  ROADMAP
    # items 2-4 act here.
    name = "torsion2d"
    why = ("API solve of 257^2 torsion at p=3, eps=1e-3: the 2D hot spot, "
           "where the linear solve and Hessian assembly do nearly all the work")
    op_noun = "solve"
    metric_alias = "solve_s"
    rate_alias = "solves_per_s"

    def setup(self, seed, root, workdir, env):
        from plapreg import fields, pointwise, solver

        self.solver = solver
        grid = fields.Grid.box((-1.0, -1.0), (1.0, 1.0), (257, 257))
        rng = np.random.default_rng(seed)
        f = 1.0 + smooth_perturbation(rng, grid.coords(), amplitude=0.1)
        spec = solver.ProblemSpec(
            grid, pointwise.PLapParams(p=3.0, eps=1e-3, s=1.5, theta=2.0 / 3.0),
            fields.ScalarField(grid, f), fields.ScalarField.constant(grid, 0.0),
        )
        return [spec]

    def label(self, op):
        return "torsion 257^2 p=3 eps=1e-3"

    def run(self, spec):
        return self.solver.solve(spec)

    def check(self, spec, res):
        return _check_solve(self.solver, spec, res)


class Sweep1D(Workload):
    # The same solver layer used another way: many small tridiagonal solves,
    # where per-call overhead, eps continuation and the line search dominate
    # rather than fill.  A 2D gain that adds per-call cost shows here.  The
    # p >= 20 cells fail today (ROADMAP item 5) and stay in the mix.
    name = "sweep1d"
    why = ("API solves at 4097 nodes over p in {2,2.5,3,5,10,20,40} and seeded eps: "
           "many small solves where per-call cost, continuation and line search dominate")
    op_noun = "solve"
    metric_alias = "solve_s"
    rate_alias = "solves_per_s"
    P_SET = (2.0, 2.5, 3.0, 5.0, 10.0, 20.0, 40.0)
    # eps is log-uniform inside a stratum of [1e-6, 1e-2] that each p keeps
    # for every seed; the strata are log10 bounds and tile the range.  No stratum crosses a power of ten, where
    # the continuation path gains a stage, so seeds move eps without moving
    # the cost of any cell; p = 3 sits below 1e-4, where the oracle
    # sup-error check applies.
    STRATUM = {20.0: (-6.0, -5.5), 3.0: (-5.5, -5.0), 40.0: (-5.0, -4.5), 5.0: (-4.5, -4.0),
               2.5: (-4.0, -3.0), 10.0: (-3.0, -2.5), 2.0: (-2.5, -2.0)}

    def setup(self, seed, root, workdir, env):
        from plapreg import fields, pointwise, solver

        self.solver = solver
        grid = fields.Grid.line(-1.0, 1.0, 4097)
        rng = np.random.default_rng(seed)
        x1 = grid.coords()[..., 0]
        ops = []
        for p in self.P_SET:
            eps = 10.0 ** rng.uniform(*self.STRATUM[p])
            params = pointwise.PLapParams(p=p, eps=eps, s=p / 2.0, theta=2.0 / p)
            if p < 3.0:
                kind, g = "torsion", np.zeros(grid.shape)
            else:
                kind, g = "sharp", sharp_profile(p, x1)
            spec = solver.ProblemSpec(grid, params, fields.ScalarField.constant(grid, 1.0),
                                      fields.ScalarField(grid, g))
            ops.append((kind, p, eps, spec))
        return ops

    def warmup(self, ops):
        return next(op for op in ops if op[1] == 3.0)

    def label(self, op):
        kind, p, eps, _ = op
        return f"{kind} p={p:g} eps={eps:.2e}"

    def run(self, op):
        return self.solver.solve(op[3])

    def check(self, op, res):
        kind, p, eps, spec = op
        status, detail = _check_solve(self.solver, spec, res)
        if status == "ok" and kind == "sharp" and p == 3.0 and eps <= 1e-4:
            err = float(np.max(np.abs(res.u.values - spec.g.values)))
            if err > ORACLE_SUP_TOL:
                return "wrong", f"sup error {err:.2e} > {ORACLE_SUP_TOL:.0e}"
        return status, detail


class Cli(Workload):
    # The user's entry point, where import dominates.  It exercises cli,
    # experiments and the fields I/O while the solver does little.
    name = "cli"
    why = ("plapreg CLI subprocesses drawn from the README command set, invalid "
           "ones included: the user's entry point, where import dominates")
    op_noun = "command"
    metric_alias = "cli_s"
    rate_alias = "ok_commands_per_s"
    min_rounds = 2               # every command is rerun at least once

    def setup(self, seed, root, workdir, env):
        rng = np.random.default_rng(seed)
        self.root, self.workdir, self.env = root, workdir, env
        self.reports: dict = {}
        self.max_rss_kb = 0
        self.traced_import_s, self.traced_exits = [], []
        # the field for `estimate --field`, written by the benchmark itself
        x1 = np.linspace(-1.0, 1.0, 4097)
        u = np.sin(np.pi * rng.integers(1, 4) * x1 + rng.uniform(0, 2 * np.pi)) \
            + 0.5 * np.abs(x1) ** rng.uniform(0.3, 0.9)
        np.savetxt(workdir / "field.csv", np.column_stack([x1, u]), delimiter=",",
                   header="x1,value", comments="", fmt="%.17g")
        (workdir / "grid.json").write_text(
            '{"dim": 1, "lower": [-1.0], "nodes": [4097], "upper": [1.0]}\n')
        # the README's commands as written; the seed orders them in each round
        return [
            ("solve-torsion", ["solve", "--p", "2.5", "--s", "1.2", "--oracle", "torsion",
                               "--mode", "thm3", "--eps", "1e-2"], 0),
            ("solve-sharp", ["solve", "--p", "3", "--eps", "1e-3", "--nodes", "4097"], 0),
            ("estimate-oracle", ["estimate", "--p", "4", "--q", "3", "--nodes", "4097",
                                 "--delta", "0.125"], 0),
            ("estimate-field", ["estimate", "--field", "field.csv", "--grid", "grid.json",
                                "--q", "2", "--delta", "0.25"], 0),
            ("sweep", ["sweep", "--p", "3", "--s", "1.5", "--eps", "1e-2,1e-3,1e-4",
                       "--nodes", "4097"], 0),
            ("verify-theorem1", ["verify", "--suite", "theorem1", "--nodes", "4097"], 0),
            ("verify-eps-uniform", ["verify", "--suite", "eps-uniform",
                                    "--eps", "1e-2,1e-3,1e-4"], 0),
            ("verify-scaling", ["verify", "--suite", "scaling", "--lambda", "2.0"], 0),
            ("bad-mode", ["solve", "--p", "2.5", "--mode", "thm2"], 2),
            ("bad-missing-p", ["solve"], 2),
            ("bad-q", ["estimate", "--q", "0.5"], 2),
            ("bad-field-without-grid", ["estimate", "--field", "field.csv", "--q", "2"], 2),
        ]

    def label(self, op):
        return "plapreg " + " ".join(op[1])

    def _argv(self, op):
        return [*op[1], "--out", f"out-{op[0]}"]

    def prepare(self, op):
        shutil.rmtree(self.workdir / f"out-{op[0]}", ignore_errors=True)

    def _launch(self, cmd) -> tuple[float, tuple]:
        launcher = [sys.executable, "-S", str(self.root / "perfbench" / "launch.py")]
        proc = subprocess.run([*launcher, *cmd], cwd=self.workdir, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode}: {proc.stderr[-300:]}")
        rep = json.loads(proc.stdout)
        self.max_rss_kb = max(self.max_rss_kb, rep["maxrss_kb"])
        return rep["s"], (rep["rc"], proc.stderr)

    def timed(self, op, tracer=None):
        if tracer is None:
            return self._launch([sys.executable, "-m", "plapreg.cli", *self._argv(op)])
        spans_file = self.workdir / f"spans-{op[0]}.json"
        spans_file.unlink(missing_ok=True)
        child = self.root / "perfbench" / "cli_child.py"
        out = self._launch([sys.executable, str(child), str(spans_file), *self._argv(op)])
        record = json.loads(spans_file.read_text())
        tracer.adopt(record["spans"], tracer.op)
        self.traced_import_s.append(record["import_s"])
        self.traced_exits.append(record["rc"])
        return out

    def peak_rss_kb(self):
        return self.max_rss_kb

    def check(self, op, out):
        label, _, expected = op
        rc, stderr = out
        report = self.workdir / f"out-{label}" / "report.json"
        if rc != expected:
            status = "wrong" if rc == 0 else "failed"
            err = stderr.strip().splitlines()[-1:] or [""]
            return status, f"exit code {rc}, expected {expected} {err[0]}".rstrip()
        if expected != 0:
            if report.exists():
                return "wrong", "a rejected command wrote report.json"
            return "ok", ""
        if not report.exists():
            return "wrong", "exit 0 without report.json"
        data = report.read_bytes()
        first = self.reports.setdefault(label, data)
        if data != first:
            return "wrong", "report.json differs from an earlier run of the same command"
        return "ok", ""


class Fit2D(Workload):
    # smoothness and the fields I/O do most of the work while the solver is
    # idle.  Without this workload smoothness would go unmeasured.
    name = "fit2d"
    why = ("257^2 oracle-gradient fields through CSV/JSON round-trip, exponent fit and "
           "composition bound: smoothness and fields I/O work, solver idle")
    op_noun = "field pipeline"
    metric_alias = "check_s"
    rate_alias = "ok_pipelines_per_s"
    DELTA = 0.125

    def setup(self, seed, root, workdir, env):
        from plapreg import experiments, fields, smoothness

        self.fields, self.smoothness, self.experiments = fields, smoothness, experiments
        self.csv_path, self.grid_path = workdir / "field.csv", workdir / "grid.json"
        self.grid = fields.Grid.box((-1.0, -1.0), (1.0, 1.0), (257, 257))
        x1 = self.grid.coords()[..., 0]
        rng = np.random.default_rng(seed)
        ops = []
        for p in (3.0, 4.0, 5.0):
            for kind in ("grad", "alpha"):
                theta = (2.0 / p, 1.0 / p + 1.0 / (p - 1.0))[rng.integers(2)]
                q = float(rng.uniform(2.0, 6.0))
                # grad u = |x1|^(1/(p-1)) sign(x1); alpha_s with s = 1/theta at
                # eps = 0 raises that power by the factor s
                power = 1.0 / (p - 1.0) if kind == "grad" else 1.0 / (theta * (p - 1.0))
                field = fields.VectorField(self.grid, kinked_field(power, x1))
                ops.append((kind, p, theta, q, power, field))
        return ops

    def label(self, op):
        kind, p, theta, q = op[:4]
        return f"{kind} p={p:g} theta={theta:.3f} q={q:.3f}"

    def run(self, op):
        fields, smoothness = self.fields, self.smoothness
        _, _, theta, q, _, field = op
        fields.write_field_csv(field, self.csv_path)
        fields.write_grid_json(self.grid, self.grid_path)
        grid = fields.read_grid_json(self.grid_path)
        back = fields.read_field_csv(self.csv_path, grid)
        rep = smoothness.fit_smoothness_exponent(back, q, smoothness.dyadic_shifts(grid, self.DELTA))
        lhs, rhs = smoothness.composition_bound_check(back, theta)
        return grid, back, rep, lhs, rhs

    def check(self, op, out):
        _, p, theta, q, power, field = op
        grid, back, rep, lhs, rhs = out
        exp = self.experiments
        if grid != self.grid or not np.array_equal(back.values, field.values):
            return "wrong", "CSV/JSON round-trip changed the field"
        if not 0.0 < lhs <= rhs:
            return "wrong", f"composition bound violated: {lhs:.4g} > {rhs:.4g}"
        if rep.fit_r2 >= exp.R2_MIN:
            # a kink |x1|^a has the table rate of the exponent p' with 1/(p'-1) = a
            target = exp.table_exponent(1.0 + 1.0 / power, q)
            if abs(rep.fitted_theta - target) > exp.EXPONENT_TOL:
                return "wrong", f"adjudicated fit {rep.fitted_theta:.3f}, table {target:.3f}"
        return "ok", ""


WORKLOADS = {w.name: w for w in (Torsion2D, Sweep1D, Cli, Fit2D)}
