"""Command line front end: solve, estimate, sweep, verify.

Every run writes a JSON report that embeds the fully resolved
configuration, so a report is reproducible from itself.  A command writes
its own artifacts and returns its exit code and the report's body; `main`
writes report.json, so a command that raises writes no report.  Outputs are
deterministic: rerunning the same command yields bit-identical files.

Exit codes: 0 success (and, for verify, every adjudicated claim passed),
1 compute-level failure (unconverged solve or a failed claim), 2 usage or
validation error.

Each command path (solve, estimate on the sharp oracle or on a --field,
sweep, each verify --suite) reads the flags listed for it in `_PATHS`; any
other flag, or config-file key, exits 2 before anything is written.  A
JSON config file can supply those flags (keys named like the command's
flags, without dashes); explicit flags win over the file.  A sweep with
fewer than two eps values within a factor 100 of the smallest reports
"inconclusive" and exits 0.

At module level this module imports only the standard library and
:mod:`plapreg.defaults`.  Parsing, ``--help``, the config-file checks and
each command's own flag checks run before numpy loads; a command imports
the modules that compute (fields, pointwise, smoothness, experiments and,
where it solves, the solver) once its flags have passed.  Checks that need
the problem itself, such as the sharp oracle's p >= 3 and ``--mode``, run
after that import.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .defaults import (
    DEFAULT_DELTA_EXPONENTS, DEFAULT_DELTA_SWEEP, DEFAULT_EPS_SWEEP, DEFAULT_NODES_1D,
    SolverError,
)

if TYPE_CHECKING:
    from .fields import ProblemSpec

__all__ = ["main", "entry"]

_OUT = "plapreg-out"

# Each command path with the flags it reads and their defaults (None:
# unset); the resolved values are the report's "config".  `estimate` takes
# its --field path when --field is set, `verify` the path of its --suite.
_PATHS = {
    "solve": dict(p=None, eps="1e-3", s=None, nodes=DEFAULT_NODES_1D, oracle="sharp",
                  out=_OUT, mode="auto"),
    "estimate (sharp oracle)": dict(p=None, q=2.0, theta=None, nodes=DEFAULT_NODES_1D,
                                    delta=DEFAULT_DELTA_EXPONENTS, out=_OUT),
    "estimate --field": dict(field=None, grid=None, q=2.0, theta=None,
                             delta=DEFAULT_DELTA_EXPONENTS, out=_OUT),
    "sweep": dict(p=None, eps=DEFAULT_EPS_SWEEP, s=None, nodes=DEFAULT_NODES_1D,
                  delta=DEFAULT_DELTA_SWEEP, oracle="sharp", out=_OUT),
    "verify --suite theorem1": dict(p=4.0, nodes=DEFAULT_NODES_1D,
                                    delta=DEFAULT_DELTA_EXPONENTS, out=_OUT),
    "verify --suite eps-uniform": dict(p=3.0, eps=DEFAULT_EPS_SWEEP, s=None,
                                       nodes=DEFAULT_NODES_1D, delta=DEFAULT_DELTA_SWEEP,
                                       oracle="sharp", out=_OUT),
    "verify --suite scaling": dict(p=3.0, eps="1e-3", s=None, lam=0.5, nodes=1025,
                                   oracle="sharp", out=_OUT),
}

# Option string and argparse keywords of every flag; a config-file key is
# the option string without its dashes.
_FLAGS = {
    "config": ("--config", dict(help="JSON file with default flag values")),
    "suite": ("--suite", dict(choices=[k.split()[-1] for k in _PATHS if "--suite" in k])),
    "p": ("--p", dict(type=float, help="growth exponent, p >= 2")),
    "eps": ("--eps", dict(help="regularization (sweeps: comma-separated list)")),
    "s": ("--s", dict(type=float, help="transform power s (default p/2)")),
    "theta": ("--theta", dict(type=float, help="also report the seminorm at theta")),
    "q": ("--q", dict(type=float, help="integrability exponent")),
    "nodes": ("--nodes", dict(type=int, help="nodes per axis")),
    "delta": ("--delta", dict(type=float, help="interior margin")),
    "oracle": ("--oracle", dict(choices=("sharp", "torsion"), help="built-in problem: "
                                "sharp (kinked profile) or torsion (f=1, g=0)")),
    "out": ("--out", dict(help="output directory")),
    "mode": ("--mode", dict(choices=("auto", "thm2", "thm3"), help="parameter-regime check")),
    "field": ("--field", dict(help="field CSV to analyze")),
    "grid": ("--grid", dict(help="grid JSON for --field")),
    "lam": ("--lambda", dict(type=float, help="scaling factor")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plapreg",
        description="Regularized p-Laplace minimization and smoothness estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        dests = ["config", "suite"] if command == "verify" else ["config"]
        dests += [d for path, flags in _PATHS.items() if path.split()[0] == command
                  for d in flags]
        for dest in dict.fromkeys(dests):
            option, kwargs = _FLAGS[dest]
            sp.add_argument(option, dest=dest, default=None, **kwargs)
    return parser


def _configure(args: argparse.Namespace) -> tuple[dict, dict]:
    """The report head and resolved config of the path `args` selects.

    A value comes from its flag, else the config file, else the path's
    default; a flag or config key that the path does not read is an error.
    """
    values = {}
    if args.config is not None:
        try:
            payload = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"config file {args.config}: {exc}") from None
        _require(isinstance(payload, dict), "config file must contain a JSON object")
        dests = {option[2:]: dest for dest, (option, _) in _FLAGS.items()}
        for key, val in payload.items():
            _require(key in dests, f"unknown config key {key!r}")
            kwargs = _FLAGS[dests[key]][1]
            try:  # read the value as the flag reads its text
                val = kwargs["type"](str(val)) if "type" in kwargs and val is not None else val
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot read {val!r}") from None
            choices = kwargs.get("choices", [val])
            _require(val in choices, f"config key {key!r} must be one of {choices}")
            if val is not None and "type" not in kwargs and "choices" not in kwargs:
                # a text flag; eps may also be a number, or a list for the sweeps
                items = val if key == "eps" and isinstance(val, list) else [val]
                _require(all(isinstance(v, str) or key == "eps" and _is_number(v)
                             for v in items),
                         f"config key {key!r} must be a string"
                         + (", a number or a list of them" if key == "eps" else ""))
            values[dests[key]] = val
    flags = {dest: val for dest, val in vars(args).items()
             if dest in _FLAGS and dest != "config" and val is not None}
    values.update(flags)
    head = {"command": args.command}
    path = args.command
    if path == "verify":
        head["suite"] = values.pop("suite", None)
        path = f"verify --suite {head['suite']}"
        _require(path in _PATHS, "verify requires --suite")
    elif path == "estimate":
        path = "estimate (sharp oracle)" if values.get("field") is None else "estimate --field"
    for dest in values:
        option = _FLAGS[dest][0]
        _require(dest in _PATHS[path],
                 f"{path} does not read {option}" if dest in flags
                 else f"unknown config key {option[2:]!r}: {path} does not read it")
    _require(not isinstance(values.get("eps"), list)
             or isinstance(_PATHS[path]["eps"], tuple),
             f"config key 'eps': {path} reads one value, not a list")
    cfg = {dest: default if values.get(dest) is None else values[dest]
           for dest, default in _PATHS[path].items()}
    return head, cfg


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _eps_list(raw) -> tuple:
    parts = raw if isinstance(raw, (list, tuple)) else [
        part for part in str(raw).split(",") if part.strip()]
    try:
        return tuple(float(e) for e in parts)
    except ValueError:
        raise ValueError(f"--eps must be a list of numbers, got {raw!r}") from None


def _problem(cfg: dict, eps: float) -> ProblemSpec:
    """The run's built-in problem, f = 1 with the trace g of the sharp oracle's
    profile or of torsion (g = 0); resolves cfg["s"] (default p/2) and checks
    (p, s) against cfg["mode"], if the path reads one."""
    from .experiments import SharpnessOracle, oracle_fields
    from .fields import Grid, ProblemSpec, ScalarField
    from .pointwise import PLapParams

    grid = Grid.line(-1.0, 1.0, cfg["nodes"])
    p, s = cfg["p"], cfg["s"]
    oracle = SharpnessOracle(p=p) if cfg["oracle"] == "sharp" else None
    params = PLapParams(p=p, eps=eps, s=p / 2.0 if s is None else s, theta=2.0 / p)
    cfg["s"] = params.require_mode(cfg.get("mode", "auto")).s
    g = ScalarField.constant(grid, 0.0) if oracle is None else oracle_fields(oracle, grid)[0]
    return ProblemSpec(grid, params, ScalarField.constant(grid, 1.0), g)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _cmd_solve(head: dict, cfg: dict) -> tuple[int, dict]:
    _require(cfg["p"] is not None, "solve requires --p")
    eps = float(cfg["eps"])
    _require(eps > 0.0, "solve requires eps > 0")
    spec = _problem(cfg, eps)
    from .solver import solve, write_solve_result

    result = solve(spec)
    summary = write_solve_result(result, spec, cfg["out"])
    if not result.converged:
        print(f"unconverged: {result.stop_reason} after {result.iterations} iterations, "
              f"residual {result.el_residual:.3e}", file=sys.stderr)
    return (0 if result.converged else 1), {"result": summary}


def _cmd_estimate(head: dict, cfg: dict) -> tuple[int, dict]:
    _require(cfg["q"] >= 1.0, "estimate requires q >= 1")
    if "field" in cfg:
        _require(cfg["grid"] is not None, "--field requires --grid")
    else:
        _require(cfg["p"] is not None, "estimate requires --p or --field")
    from .experiments import SharpnessOracle, oracle_fields
    from .fields import Grid, read_field_csv, read_grid_json
    from .smoothness import (
        dyadic_shifts, fit_smoothness_exponent, nikolskii_seminorm, write_seminorm_report,
    )

    if "field" in cfg:
        field = read_field_csv(cfg["field"], read_grid_json(cfg["grid"]))
    else:
        grid = Grid.line(-1.0, 1.0, cfg["nodes"])
        _, field, _ = oracle_fields(SharpnessOracle(p=cfg["p"]), grid)
    shifts = dyadic_shifts(field.grid, cfg["delta"])
    report = fit_smoothness_exponent(field, cfg["q"], shifts)
    body = {"report": report}
    if cfg["theta"] is not None:
        body["seminorm_at_theta"] = nikolskii_seminorm(field, cfg["q"], cfg["theta"], shifts)
    write_seminorm_report(report, cfg["out"])
    return 0, body


def _sweep(head: dict, cfg: dict) -> tuple[int, dict]:
    """The eps sweep behind both `sweep` and `verify --suite eps-uniform`."""
    _require(cfg["p"] is not None, "sweep requires --p")
    eps_values = _eps_list(cfg["eps"])
    _require(bool(eps_values) and all(0.0 < e < math.inf for e in eps_values),
             "sweep requires positive, finite eps values")
    cfg["eps"] = list(eps_values)
    from .experiments import run_eps_sweep, write_sweep_result

    template = _problem(cfg, eps_values[0])
    result = run_eps_sweep(template, eps_values, cfg["delta"])
    write_sweep_result(result, cfg["out"])
    return (1 if result.verdict == "fail" else 0), {"result": result}


def _cmd_verify(head: dict, cfg: dict) -> tuple[int, dict]:
    if head["suite"] == "eps-uniform":
        return _sweep(head, cfg)
    from .experiments import (
        run_scaling_check, run_theorem1_check, write_scaling_report, write_theorem1_report,
    )

    if head["suite"] == "theorem1":
        report = run_theorem1_check(cfg["p"], nodes=cfg["nodes"], delta=cfg["delta"])
        write_theorem1_report(report, cfg["out"])
    else:  # scaling
        report = run_scaling_check(_problem(cfg, float(cfg["eps"])), cfg["lam"])
        write_scaling_report(report, cfg["out"])
    return (0 if report.passed else 1), {"result": report}


_COMMANDS = {
    "solve": (_cmd_solve, "minimize the energy for a built-in problem"),
    "estimate": (_cmd_estimate, "difference-quotient smoothness report"),
    "sweep": (_sweep, "solve across an eps list, track norms"),
    "verify": (_cmd_verify, "run a verification suite"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        head, cfg = _configure(args)
        code, body = _COMMANDS[args.command][0](head, cfg)
        from .fields import write_json

        write_json({**head, "config": cfg, **body}, Path(cfg["out"]) / "report.json")
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
