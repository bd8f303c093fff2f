"""Command line front end: solve, estimate, sweep, verify.

Every run writes a JSON report that embeds the fully resolved
configuration, so a report is reproducible from itself.  Outputs are
deterministic: rerunning the same command yields bit-identical files.

Exit codes: 0 success (and, for verify, every adjudicated claim passed),
1 compute-level failure (unconverged solve or a failed claim), 2 usage or
validation error.

A JSON config file can supply any flag value (keys named like the flags,
without dashes); explicit flags win over the file.  A sweep with fewer
than two eps values within a factor 100 of the smallest reports
"inconclusive" and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .fields import Grid, ScalarField, read_field_csv, read_grid_json, write_json
from .pointwise import PLapParams
from .smoothness import (
    dyadic_shifts,
    fit_smoothness_exponent,
    nikolskii_seminorm,
    write_seminorm_report,
)
from .solver import ProblemSpec, SolverError, solve, write_solve_result
from .experiments import (
    DEFAULT_DELTA_EXPONENTS,
    DEFAULT_DELTA_SWEEP,
    DEFAULT_EPS_SWEEP,
    DEFAULT_NODES_1D,
    SharpnessOracle,
    oracle_fields,
    oracle_problem,
    run_eps_sweep,
    run_scaling_check,
    run_theorem1_check,
    write_scaling_report,
    write_sweep_result,
    write_theorem1_report,
)

__all__ = ["main", "entry"]

_SUITES = ("theorem1", "eps-uniform", "scaling")
_ORACLES = ("sharp", "torsion")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapreg",
        description="Regularized p-Laplace minimization and smoothness estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, eps_default=None):
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with default flag values")
        sp.add_argument("--p", type=float, default=None, help="growth exponent, p >= 2")
        sp.add_argument("--eps", type=str, default=eps_default,
                        help="regularization (sweep: comma-separated list)")
        sp.add_argument("--s", type=float, default=None, help="transform power s")
        sp.add_argument("--theta", type=float, default=None, help="smoothness exponent")
        sp.add_argument("--q", type=float, default=None, help="integrability exponent")
        sp.add_argument("--nodes", type=int, default=None, help="nodes per axis")
        sp.add_argument("--delta", type=float, default=None, help="interior margin")
        sp.add_argument("--oracle", type=str, default=None, choices=_ORACLES,
                        help="built-in problem: sharp (kinked profile) or torsion (f=1, g=0)")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--mode", type=str, default=None,
                        choices=("auto", "thm2", "thm3"), help="parameter-regime check")

    sp = sub.add_parser("solve", help="minimize the energy for a built-in problem")
    common(sp)

    sp = sub.add_parser("estimate", help="difference-quotient smoothness report")
    common(sp)
    sp.add_argument("--field", type=str, default=None, help="field CSV to analyze")
    sp.add_argument("--grid", type=str, default=None, help="grid JSON for --field")

    sp = sub.add_parser("sweep", help="solve across an eps list, track norms")
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", type=str, default=None, choices=_SUITES)
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="scaling factor for the scaling suite")
    return parser


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if one was given."""
    if getattr(args, "config", None) is None:
        return args
    payload = json.loads(Path(args.config).read_text())
    if not isinstance(payload, dict):
        raise ValueError("config file must contain a JSON object")
    alias = {"lambda": "lam"}
    for key, val in payload.items():
        dest = alias.get(key, key)
        if not hasattr(args, dest):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, val)
    return args


def _resolve(args, **defaults) -> dict:
    """Effective run configuration: flag if set, else the given default."""
    out = {}
    for key, default in defaults.items():
        val = getattr(args, key, None)
        out[key] = default if val is None else val
    return out


def _eps_list(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        return tuple(float(e) for e in raw)
    return tuple(float(part) for part in str(raw).split(",") if part.strip())


def _problem(cfg: dict, eps: float) -> ProblemSpec:
    """The run's built-in problem; resolves cfg["s"] (default p/2) from its params."""
    grid = Grid.line(-1.0, 1.0, cfg["nodes"])
    p, s = cfg["p"], cfg["s"]
    if cfg["oracle"] == "sharp":
        spec = oracle_problem(SharpnessOracle(p=p), grid, eps, s=s)
    else:
        params = PLapParams(p=p, eps=eps, s=p / 2.0 if s is None else s, theta=2.0 / p)
        spec = ProblemSpec(grid, params, ScalarField.constant(grid, 1.0),
                           ScalarField.constant(grid, 0.0))
    cfg["s"] = spec.params.s
    return spec


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


def _cmd_solve(args) -> int:
    _require(args.p is not None, "solve requires --p")
    cfg = _resolve(args, p=None, eps="1e-3", s=None, nodes=DEFAULT_NODES_1D,
                   oracle="sharp", out="plapreg-out", mode="auto")
    eps = float(cfg["eps"])
    _require(eps > 0.0, "solve requires eps > 0")
    spec = _problem(cfg, eps)
    spec.params.require_mode(cfg["mode"])
    outdir = Path(cfg["out"])
    result = solve(spec)
    summary = write_solve_result(result, spec, outdir)
    write_json({"command": "solve", "config": cfg, "result": summary},
               outdir / "report.json")
    return 0 if result.converged else 1


def _estimate_field(args, cfg):
    if args.field is not None:
        _require(args.grid is not None, "--field requires --grid")
        grid = read_grid_json(args.grid)
        cfg["field"] = args.field
        cfg["grid"] = args.grid
        return read_field_csv(args.field, grid)
    _require(cfg["p"] is not None, "estimate requires --p with --oracle")
    oracle = SharpnessOracle(p=cfg["p"])
    grid = Grid.line(-1.0, 1.0, cfg["nodes"])
    _, grad, _ = oracle_fields(oracle, grid)
    return grad


def _cmd_estimate(args) -> int:
    cfg = _resolve(args, p=None, q=2.0, theta=None, nodes=DEFAULT_NODES_1D,
                   delta=DEFAULT_DELTA_EXPONENTS, oracle="sharp", out="plapreg-out")
    _require(cfg["q"] >= 1.0, "estimate requires q >= 1")
    field = _estimate_field(args, cfg)
    shifts = dyadic_shifts(field.grid, cfg["delta"])
    report = fit_smoothness_exponent(field, cfg["q"], shifts)
    outdir = Path(cfg["out"])
    write_seminorm_report(report, outdir)
    payload = {"command": "estimate", "config": cfg, "report": report.to_dict()}
    if cfg["theta"] is not None:
        payload["seminorm_at_theta"] = nikolskii_seminorm(
            field, cfg["q"], cfg["theta"], shifts
        )
    write_json(payload, outdir / "report.json")
    return 0


def _sweep(args, head: dict, p_default) -> int:
    """The eps sweep behind both `sweep` and `verify --suite eps-uniform`."""
    cfg = _resolve(args, p=p_default, eps=DEFAULT_EPS_SWEEP, s=None,
                   nodes=DEFAULT_NODES_1D, delta=DEFAULT_DELTA_SWEEP,
                   oracle="sharp", out="plapreg-out")
    eps_values = _eps_list(cfg["eps"])
    _require(bool(eps_values) and min(eps_values) > 0.0,
             "sweep requires positive eps values")
    cfg["eps"] = list(eps_values)
    template = _problem(cfg, eps_values[0])
    result = run_eps_sweep(template, eps_values, cfg["delta"])
    outdir = Path(cfg["out"])
    write_sweep_result(result, outdir)
    write_json({**head, "config": cfg, "result": result.to_dict()},
               outdir / "report.json")
    return 1 if result.verdict == "fail" else 0


def _cmd_sweep(args) -> int:
    _require(args.p is not None, "sweep requires --p")
    return _sweep(args, {"command": "sweep"}, p_default=None)


def _cmd_verify(args) -> int:
    _require(args.suite is not None, "verify requires --suite")
    suite = args.suite
    head = {"command": "verify", "suite": suite}
    if suite == "eps-uniform":
        return _sweep(args, head, p_default=3.0)
    if suite == "theorem1":
        cfg = _resolve(args, p=4.0, nodes=DEFAULT_NODES_1D,
                       delta=DEFAULT_DELTA_EXPONENTS, out="plapreg-out")
        report = run_theorem1_check(cfg["p"], nodes=cfg["nodes"], delta=cfg["delta"],
                                    negative_control=True)
        write_report = write_theorem1_report
    else:  # scaling
        cfg = _resolve(args, p=3.0, eps="1e-3", s=None, lam=0.5, nodes=1025,
                       oracle="sharp", out="plapreg-out")
        _require(cfg["lam"] > 0.0, "scaling requires --lambda > 0")
        report = run_scaling_check(_problem(cfg, float(cfg["eps"])), cfg["lam"])
        write_report = write_scaling_report
    outdir = Path(cfg["out"])
    write_report(report, outdir)
    write_json({**head, "config": cfg, "result": report.to_dict()},
               outdir / "report.json")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        args = _apply_config(args)
        handler = {
            "solve": _cmd_solve,
            "estimate": _cmd_estimate,
            "sweep": _cmd_sweep,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except (_UsageError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
