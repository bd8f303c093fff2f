"""End-to-end command line behavior: exit codes, reports, determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plapreg
from plapreg.cli import _FLAGS, _PATHS, _build_parser, _configure, main
from plapreg.fields import Grid, ScalarField, write_field_csv, write_grid_json


def run(*argv):
    return main(list(argv))


def sha_tree(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ---------------------------------------------------------------------------
# solve


def test_solve_end_to_end(tmp_path):
    rc = run("solve", "--p", "3", "--eps", "1e-2", "--nodes", "257",
             "--out", str(tmp_path))
    assert rc == 0
    for name in ("report.json", "grid.json", "solution.csv", "solution.json",
                 "trace.csv"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "solve"
    assert report["config"]["p"] == 3.0
    assert report["config"]["s"] == 1.5  # defaulted to p / 2
    assert report["result"]["converged"] is True
    assert (tmp_path / "solution.csv").read_text().splitlines()[0] == "x1,value"


def test_solve_missing_p_is_usage_error(capsys):
    assert run("solve") == 2
    assert "requires --p" in capsys.readouterr().err


def test_solve_regime_violation_is_usage_error(tmp_path, capsys):
    rc = run("solve", "--p", "2.5", "--mode", "thm2", "--nodes", "65",
             "--out", str(tmp_path))
    assert rc == 2
    assert "p >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--p", "2.5", "--mode", "thm2"], "thm2 mode requires p >= 3, got p = 2.5"),
    (["--p", "4", "--s", "1", "--mode", "thm2"],
     "thm2 mode requires (p-1)/2 < s <= p/2, got s = 1.0"),
    (["--p", "4", "--mode", "thm3"], "thm3 mode requires 2 <= p < 3, got p = 4.0"),
])
def test_solve_mode_check_on_torsion(tmp_path, capsys, argv, message):
    # the sharp oracle rejects p < 3 by itself, so the torsion problem is
    # where --mode alone decides
    rc = run("solve", *argv, "--oracle", "torsion", "--nodes", "65", "--out", str(tmp_path))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_solve_torsion_in_thm3_regime(tmp_path):
    rc = run("solve", "--p", "2.5", "--s", "1.2", "--oracle", "torsion",
             "--mode", "thm3", "--eps", "1e-2", "--nodes", "257",
             "--out", str(tmp_path))
    assert rc == 0


def test_solve_sharp_oracle_needs_p_at_least_three(tmp_path, capsys):
    rc = run("solve", "--p", "2.5", "--eps", "1e-2", "--nodes", "65",
             "--out", str(tmp_path))
    assert rc == 2
    assert "p >= 3" in capsys.readouterr().err


def test_solve_bad_eps_string(tmp_path):
    assert run("solve", "--p", "3", "--eps", "abc", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("argv, message", [
    (["--p", "inf", "--oracle", "torsion"], "p must be finite, got inf"),
    (["--p", "nan", "--oracle", "torsion"], "p must be finite, got nan"),
    (["--p", "3", "--s", "nan"], "s must be finite, got nan"),
    (["--p", "3", "--eps", "inf"], "eps must be finite, got inf"),
])
def test_solve_non_finite_params_exit_two_and_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run("solve", *argv, "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_solve_unconverged_exits_one(tmp_path, monkeypatch, capsys):
    import plapreg.solver
    from plapreg.solver import SolveResult

    def fake_solve(spec):
        u = ScalarField(spec.grid, spec.g.values)
        return SolveResult(u=u, energy=0.0, el_residual=1.0, iterations=200,
                           stop_reason="max_iter", trace=[(0, 0.0, 1.0)])

    monkeypatch.setattr(plapreg.solver, "solve", fake_solve)
    rc = run("solve", "--p", "3", "--eps", "1e-2", "--nodes", "65",
             "--out", str(tmp_path))
    assert rc == 1
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["converged"] is False and result["stop_reason"] == "max_iter"
    assert "max_iter after 200 iterations" in capsys.readouterr().err


def test_solve_high_p_torsion_exits_zero(tmp_path, capsys):
    """p = 20 solves by continuation in p: exit 0, nothing on stderr."""
    rc = run("solve", "--p", "20", "--oracle", "torsion", "--nodes", "1025",
             "--out", str(tmp_path))
    assert rc == 0 and capsys.readouterr().err == ""
    assert json.loads((tmp_path / "solution.json").read_text())["stop_reason"] == "converged"


# ---------------------------------------------------------------------------
# estimate


def test_estimate_constant_field(tmp_path):
    g = Grid.line(0.0, 1.0, 129)
    write_grid_json(g, tmp_path / "grid.json")
    write_field_csv(ScalarField.constant(g, 2.0), tmp_path / "field.csv")
    out = tmp_path / "out"
    rc = run("estimate", "--field", str(tmp_path / "field.csv"),
             "--grid", str(tmp_path / "grid.json"), "--delta", "0.25",
             "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["flag"] == "constant-like"
    assert sorted(report["config"]) == ["delta", "field", "grid", "out", "q", "theta"]


def test_estimate_oracle_exponent(tmp_path):
    rc = run("estimate", "--p", "4", "--q", "3", "--nodes", "1025",
             "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["fitted_theta"] == pytest.approx(2.0 / 3.0, abs=0.05)
    assert report["report"]["flag"] == "ok"
    assert (tmp_path / "seminorm.csv").exists()


def test_estimate_with_theta_adds_seminorm(tmp_path):
    rc = run("estimate", "--p", "4", "--q", "3", "--theta", "0.5",
             "--nodes", "513", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seminorm_at_theta"] > 0.0


def test_estimate_q_inf_writes_only_json(tmp_path):
    """JSON has no infinity: q = inf is written as the string "inf" in every file."""
    rc = run("estimate", "--p", "4", "--q", "inf", "--theta", "0.3", "--nodes", "1025",
             "--delta", "0.125", "--out", str(tmp_path))
    assert rc == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    written = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in written] == ["report.json", "seminorm.json"]
    for path in written:
        json.loads(path.read_text(), parse_constant=reject)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["q"] == report["report"]["q"] == "inf"


@pytest.mark.parametrize("grid_text, message", [
    ('{"dim": 1, "lower": [0.0], "upper": [1.0]}', "no 'nodes'"),
    ('[1, [0.0], [1.0], [129]]', "not a list"),
    ('{"dim": 1.0, "lower": [0.0], "upper": [1.0], "nodes": [129]}', "dim must hold integral"),
    ('{"dim": true, "lower": [0.0], "upper": [1.0], "nodes": [129]}', "dim must hold integral"),
    ('{"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": [129.7]}', "nodes must hold integral"),
    ('{"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": ["129"]}', "nodes must hold integral"),
    ('{"dim": 1, "lower": ["0"], "upper": [1.0], "nodes": [129]}', "lower must hold real"),
])
def test_estimate_malformed_grid_exits_two(tmp_path, capsys, grid_text, message):
    g = Grid.line(0.0, 1.0, 129)
    write_field_csv(ScalarField.constant(g, 2.0), tmp_path / "field.csv")
    (tmp_path / "grid.json").write_text(grid_text)
    out = tmp_path / "out"
    rc = run("estimate", "--field", str(tmp_path / "field.csv"),
             "--grid", str(tmp_path / "grid.json"), "--out", str(out))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_estimate_with_q_that_underflows_exits_two_naming_q(tmp_path, capsys):
    """At q = 1e308 every |u(. + v) - u|^q of the oracle gradient underflowed
    to 0, and the gradient was reported constant-like with fitted_theta 1."""
    out = tmp_path / "out"
    assert run("estimate", "--p", "3", "--q", "1e308", "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: q = 1e+308 takes |u(. + v) - u|^q out of "
                                       "floating-point range\n")
    assert not out.exists()


def test_estimate_usage_errors(tmp_path, capsys):
    assert run("estimate", "--q", "0.5", "--p", "4", "--out", str(tmp_path)) == 2
    assert "q >= 1" in capsys.readouterr().err
    assert run("estimate", "--field", "f.csv", "--out", str(tmp_path)) == 2
    assert "requires --grid" in capsys.readouterr().err
    assert run("estimate", "--out", str(tmp_path)) == 2  # no field, no p
    out = tmp_path / "d"
    assert run("estimate", "--p", "4", "--theta", "1.5", "--nodes", "257",
               "--out", str(out)) == 2
    assert "theta must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_estimate_non_finite_p_names_p(tmp_path, capsys, p):
    """The sharp oracle rejects a non-finite p by name, before its own
    flux-identity self-check could misreport it."""
    out = tmp_path / "out"
    assert run("estimate", "--p", p, "--q", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: p must be finite, got {p}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--p", "4", "--q", "3", "--nodes", "257"],
    ["verify", "--suite", "theorem1", "--nodes", "257"],
], ids=["estimate", "theorem1"])
@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_non_finite_delta_exits_two_and_writes_nothing(tmp_path, capsys, argv, delta):
    out = tmp_path / "out"
    assert run(*argv, "--delta", delta, "--out", str(out)) == 2
    assert f"delta must be positive and finite, got {delta}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# flags a path does not read


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--p", "3", "--theta", "0.7"], "--theta"),
    (["sweep", "--p", "3", "--mode", "thm2"], "--mode"),
    (["verify", "--suite", "theorem1", "--eps", "1e-2"], "--eps"),
    (["estimate", "--field", "{dir}/field.csv", "--grid", "{dir}/grid.json",
      "--nodes", "129"], "--nodes"),
    (["estimate", "--p", "4", "--oracle", "torsion"], "--oracle"),
])
def test_unread_flag_exits_two_and_writes_nothing(tmp_path, capsys, argv, flag):
    g = Grid.line(0.0, 1.0, 129)
    write_grid_json(g, tmp_path / "grid.json")
    write_field_csv(ScalarField.constant(g, 2.0), tmp_path / "field.csv")
    out = tmp_path / "out"
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run(*argv, "--out", str(out)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_readme_commands_match_flag_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^plapreg (.+)$", block, flags=re.MULTILINE)
    assert len(lines) >= 8
    parser = _build_parser()
    for line in lines:
        _configure(parser.parse_args(shlex.split(line)))  # raises if unread
    rows = dict(re.findall(r"^\| (`.+?) \| `(--.+)` \|$", block, flags=re.MULTILINE))
    assert {label.replace("`", ""): set(flags.split()) for label, flags in rows.items()} == {
        path: {"--config", *(_FLAGS[dest][0] for dest in reads)}
        for path, reads in _PATHS.items()
    }


# ---------------------------------------------------------------------------
# sweep


def test_sweep_end_to_end(tmp_path):
    rc = run("sweep", "--p", "3", "--eps", "1e-1,1e-2", "--nodes", "257",
             "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["verdict"] == "pass"
    assert report["config"]["eps"] == [0.1, 0.01]
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_outside_regime_still_exits_zero(tmp_path):
    rc = run("sweep", "--p", "3", "--s", "0.9", "--eps", "1e-1,1e-2",
             "--nodes", "129", "--oracle", "torsion", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["verdict"] == "outside-theorem"


def test_sweep_missing_p(capsys):
    assert run("sweep") == 2
    assert "requires --p" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["0.1,nan", "nan,0.1", "0.1,inf"])
def test_sweep_non_finite_eps_exits_two_before_any_solve(tmp_path, capsys, monkeypatch, eps):
    import plapreg.solver

    monkeypatch.setattr(plapreg.solver, "solve", lambda *a, **k: pytest.fail("solve called"))
    out = tmp_path / "out"
    assert run("sweep", "--p", "3", "--eps", eps, "--out", str(out)) == 2
    assert "sweep requires positive, finite eps values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["solve", "--p", "3", "--eps", "1e-320"], 0),
    (["solve", "--p", "2.5", "--oracle", "torsion", "--eps", "1e-320"], 0),
    (["sweep", "--p", "3", "--eps", "1e-320"], 0),
    (["verify", "--suite", "eps-uniform", "--eps", "1e-320"], 0),
    # lambda^s and both transformed norms underflow to 0: a vacuous check
    (["verify", "--suite", "scaling", "--lambda", "1e-320"], 2),
    (["estimate", "--p", "4", "--delta", "1e308"], 2),
    (["verify", "--suite", "theorem1", "--delta", "1e308"], 2),
])
def test_extreme_eps_and_delta_end_with_a_documented_exit_code(tmp_path, capsys, argv, code):
    """A subnormal eps, where 0.1 / eps is inf, and a delta of 1e308, which
    doubled the shift length past the float range, each ended in an
    OverflowError traceback."""
    out = tmp_path / "out"
    assert run(*argv, "--nodes", "65", "--out", str(out)) == code
    assert out.exists() == (code == 0)
    if "--delta" in argv:
        assert "error: interior of radius 2 is empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "3"],
    ["sweep", "--p", "3", "--eps", "1e-3,1e200"],
    ["verify", "--suite", "eps-uniform"],
])
def test_eps_whose_square_overflows_exits_two_before_any_solve(tmp_path, capsys, monkeypatch,
                                                              argv):
    """eps = 1e200 squared is inf: it ended as an unconverged solve (exit 1,
    residual nan); it is now a usage error naming eps."""
    import plapreg.solver

    monkeypatch.setattr(plapreg.solver, "solve", lambda *a, **k: pytest.fail("solve called"))
    out = tmp_path / "out"
    eps = [] if "--eps" in argv else ["--eps", "1e200"]
    assert run(*argv, *eps, "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: eps must be at most 1.341e+154, where eps^2 "
                                       "overflows, got 1e+200\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["sweep", "--p", "3"],
    ["verify", "--suite", "eps-uniform"],
    ["verify", "--suite", "scaling"],
])
def test_s_that_overflows_the_transform_exits_two_naming_s(tmp_path, capsys, argv):
    """s = 1e200 overflowed l_eps(grad u)^(s-1) with a RuntimeWarning and
    ended in "field values must be finite", which does not say which input
    was at fault."""
    out = tmp_path / "out"
    assert run(*argv, "--s", "1e200", "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: s = 1e+200 takes l_eps(grad u)^(s-1) grad u "
                                       "out of floating-point range\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, s, message", [
    (["sweep", "--p", "3"], "1e5", "s = 100000 takes l_eps(grad u)^(s-1) grad u"),
    (["verify", "--suite", "eps-uniform"], "1e5", "s = 100000 takes l_eps(grad u)^(s-1) grad u"),
    (["verify", "--suite", "scaling"], "1e5", "lambda = 0.5 and s = 100000 take lambda^s"),
    (["verify", "--suite", "scaling", "--lambda", "1e-10"], "40",
     "lambda = 1e-10 and s = 40 take lambda^s"),
    (["verify", "--suite", "scaling", "--lambda", "0.5"], "1100",
     "lambda = 0.5 and s = 1100 take lambda^s"),
], ids=["sweep", "eps-uniform", "scaling", "scaling-lambda-1e-10", "scaling-s-1100"])
def test_s_that_underflows_the_transform_exits_two_naming_s(tmp_path, capsys, argv, s, message):
    """l_eps(grad u)^(s-1) grad u, its W^{1,2} norm or lambda^s underflowed
    to 0: the sweeps ended in a ZeroDivisionError traceback, and the scaling
    check, with lambda^s and both norms 0, passed with alpha_rel_gap 0."""
    out = tmp_path / "out"
    assert run(*argv, "--s", s, "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message} out of floating-point range\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, s", [("1e-100", "3"), ("1e-150", "2"), ("1e10", "30")])
def test_lambda_that_takes_the_scaled_transform_out_of_range_is_named(tmp_path, capsys, lam, s):
    """s alone keeps l_eps(grad u)^(s-1) grad u in range, but not on lambda
    grad u: the message named s only."""
    out = tmp_path / "out"
    assert run("verify", "--suite", "scaling", "--lambda", lam, "--s", s, "--nodes", "65",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: lambda = {float(lam):g} and s = {s} take l_eps(lambda grad u)^(s-1) "
        "lambda grad u out of floating-point range\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", ["1e150", "5.643803094122362e+102", "2.0349431468493997e+102"])
def test_eps_whose_energy_overflows_exits_two_naming_p_and_eps(tmp_path, capsys, eps):
    """A cell's energy density is at least eps^p / p, so at p = 3 on 65 nodes
    no iterate has a finite energy once eps passes about 2.03e102.  Such an
    eps ended as a `stalled` solve (exit 1) after a RuntimeWarning: in `**`,
    or for the last value only in the sum over the cells.  It is now a usage
    error naming p and eps."""
    out = tmp_path / "out"
    assert run("solve", "--p", "3", "--eps", eps, "--nodes", "65", "--out", str(out)) == 2
    assert capsys.readouterr().err == (f"error: the energy overflows at p = 3.0, "
                                       f"eps = {float(eps)!r} on this grid\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify


def test_verify_theorem1(tmp_path):
    rc = run("verify", "--suite", "theorem1", "--nodes", "1025",
             "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["suite"] == "theorem1"
    assert report["result"]["passed"] is True
    assert (tmp_path / "theorem1.csv").exists()


def test_verify_eps_uniform(tmp_path):
    rc = run("verify", "--suite", "eps-uniform", "--eps", "1e-1,1e-2",
             "--nodes", "257", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["verdict"] == "pass"


def test_verify_scaling(tmp_path):
    rc = run("verify", "--suite", "scaling", "--lambda", "2.0",
             "--nodes", "257", "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["result"]["lam"] == 2.0
    assert report["result"]["passed"] is True
    assert (tmp_path / "scaling.json").exists()


@pytest.mark.filterwarnings("error")
def test_verify_scaling_at_high_p_raises_no_overflow_warning(tmp_path):
    """At p = 17.3 the scaled problem's source is 0.5^16.3, about 1.2e-5, and
    its trial energies overflowed with a RuntimeWarning.  An overflowing
    trial fails the Armijo test silently, and the line search's power-law
    backtracking reaches the tiny step the small source's first Newton step
    needs, so both problems are solved and the check passes (exit 0)."""
    assert run("verify", "--suite", "scaling", "--p", "17.3", "--nodes", "65",
               "--out", str(tmp_path)) == 0
    assert json.loads((tmp_path / "report.json").read_text())["result"]["passed"] is True


@pytest.mark.parametrize("lam, message", [
    ("1e200", "lambda = 1e+200 scales the problem out of floating-point range"),
    # lambda^2 f is finite, but the sum of its squares in residual_tolerance is not
    ("1e100", "lambda = 1e+100 scales the problem out of floating-point range"),
    ("inf", "lambda must be positive and finite, got inf"),
    ("nan", "lambda must be positive and finite, got nan"),
])
def test_verify_scaling_rejects_lambda_out_of_range(tmp_path, capsys, lam, message):
    out = tmp_path / "out"
    assert run("verify", "--suite", "scaling", "--lambda", lam, "--nodes", "65",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_verify_theorem1_with_q_that_overflows_exits_two_naming_q(tmp_path, capsys):
    """At p = 1000 the negative-control cell's q = 2 (p - 1) = 1998 overflowed
    |u(. + v) - u|^q with a RuntimeWarning."""
    out = tmp_path / "out"
    assert run("verify", "--suite", "theorem1", "--p", "1000", "--nodes", "65",
               "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: q = 1998 takes |u(. + v) - u|^q out of "
                                       "floating-point range\n")
    assert not out.exists()


def test_verify_requires_suite(capsys):
    assert run("verify") == 2
    assert "requires --suite" in capsys.readouterr().err


def test_verify_failed_suite_exits_one(tmp_path, monkeypatch):
    import plapreg.experiments as exp

    check = exp.run_theorem1_check

    def failing_check(p, qs=None, **kw):
        real = check(p, qs, nodes=257, delta=kw.get("delta", 0.125))
        object.__setattr__(real, "passed", False)
        return real

    monkeypatch.setattr(exp, "run_theorem1_check", failing_check)
    rc = run("verify", "--suite", "theorem1", "--out", str(tmp_path))
    assert rc == 1


# ---------------------------------------------------------------------------
# config file, environment, determinism


def test_config_file_fills_unset_flags(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"p": 3.0, "eps": "1e-2", "nodes": 257}))
    out = tmp_path / "out"
    rc = run("solve", "--config", str(cfgfile), "--nodes", "129",
             "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["p"] == 3.0   # from file
    assert report["config"]["nodes"] == 129  # flag wins over file


def test_config_file_lambda_alias(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"lambda": 2.0, "nodes": 129}))
    out = tmp_path / "out"
    rc = run("verify", "--suite", "scaling", "--config", str(cfgfile),
             "--out", str(out))
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["result"]["lam"] == 2.0


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert run("solve", "--p", "3", "--config", str(bad)) == 2
    assert "unknown config key" in capsys.readouterr().err
    unread = tmp_path / "unread.json"
    unread.write_text(json.dumps({"q": 3}))
    assert run("solve", "--p", "3", "--config", str(unread)) == 2
    assert "unknown config key 'q'" in capsys.readouterr().err
    choice = tmp_path / "choice.json"
    choice.write_text(json.dumps({"oracle": "bogus"}))
    assert run("solve", "--p", "3", "--config", str(choice)) == 2
    assert "'oracle' must be one of" in capsys.readouterr().err
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps({"p": "three"}))
    assert run("solve", "--config", str(typed)) == 2
    assert "config key 'p': cannot read 'three'" in capsys.readouterr().err
    for payload, key in (({"out": 5}, "out"), ({"eps": {"a": 1}}, "eps"),
                         ({"eps": [1e-3]}, "eps")):
        typed.write_text(json.dumps(payload))
        assert run("solve", "--p", "3", "--config", str(typed)) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
    assert run("solve", "--p", "3", "--config", str(tmp_path / "missing.json")) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run("solve", "--p", "3", "--config", str(broken)) == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "3", "--config", "{dir}", "--out", "{dir}/out"],
    ["estimate", "--field", "{dir}/field.csv", "--grid", "{dir}", "--out", "{dir}/out"],
    ["estimate", "--p", "4", "--nodes", "257", "--out", "{dir}/field.csv"],
], ids=["config-is-dir", "grid-is-dir", "out-is-file"])
def test_path_errors_are_usage_errors(tmp_path, capsys, argv):
    g = Grid.line(0.0, 1.0, 129)
    write_field_csv(ScalarField.constant(g, 2.0), tmp_path / "field.csv")
    field = (tmp_path / "field.csv").read_bytes()
    assert run(*(a.format(dir=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.csv"]
    assert (tmp_path / "field.csv").read_bytes() == field


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--p", "3", "--eps", "1e-2,abc"],
     "--eps must be a list of numbers, got '1e-2,abc'"),
    (["solve", "--p", "3", "--config", "{dir}/broken.json"],
     "config file {dir}/broken.json: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (["estimate", "--field", "{dir}/field.csv", "--grid", "{dir}/field.csv"],
     "{dir}/field.csv: not a JSON grid: Expecting value: line 1 column 1 (char 0)"),
], ids=["eps-list", "config-not-json", "grid-not-json"])
def test_unreadable_input_names_its_source(tmp_path, capsys, argv, message):
    """An eps list, config file or grid file that cannot be read is named in
    the error; json and float() alone named neither the flag nor the file."""
    write_field_csv(ScalarField.constant(Grid.line(0.0, 1.0, 9), 2.0), tmp_path / "field.csv")
    (tmp_path / "broken.json").write_text("{not json")
    out = tmp_path / "out"
    assert run(*(a.format(dir=tmp_path) for a in argv), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message.format(dir=tmp_path)}\n"
    assert not out.exists()


NUMPY_BLOCKED = (
    "import json, sys\n"
    "sys.modules['numpy'] = None  # every import of numpy now raises ImportError\n"
    "from plapreg.cli import main\n"
    "sys.exit(main(json.loads(sys.argv[1])))\n"
)


@pytest.mark.parametrize("argv, code, message", [
    (["solve"], 2, "error: solve requires --p\n"),
    (["estimate", "--q", "0.5"], 2, "error: estimate requires q >= 1\n"),
    (["estimate", "--field", "f.csv", "--q", "2"], 2, "error: --field requires --grid\n"),
    (["--help"], 0, "usage: plapreg"),
    (["solve", "--bogus"], 2, "error: unrecognized arguments: --bogus\n"),
    (["solve", "--theta", "0.7"], 2, "error: unrecognized arguments: --theta 0.7\n"),
    (["solve", "--p", "3", "--config", "cfg.json"], 2, "error: unknown config key 'nonsense'\n"),
    (["verify"], 2, "error: verify requires --suite\n"),
    (["sweep", "--p", "3", "--eps", "1e-2,abc"], 2,
     "error: --eps must be a list of numbers, got '1e-2,abc'\n"),
], ids=["solve-without-p", "q-below-one", "field-without-grid", "help", "unknown-flag",
        "unread-flag", "bad-config-key", "verify-without-suite", "eps-not-a-number"])
def test_usage_errors_need_no_numpy(tmp_path, monkeypatch, capsys, argv, code, message):
    """Parsing, --help, the config-file checks and each command's own flag
    checks run before numpy loads: in a fresh process where every import of
    numpy fails, the command exits with the code and output it has with
    numpy, and writes nothing."""
    (tmp_path / "cfg.json").write_text(json.dumps({"nonsense": 1}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # the same help text width in both processes
    assert main(argv) == code
    expected = capsys.readouterr()
    assert message in expected.out + expected.err
    src = str(Path(plapreg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    blocked = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED, json.dumps(argv)], env=env,
                             cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (code, *expected)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_reports_are_deterministic(tmp_path):
    out = tmp_path / "out"
    args = ("solve", "--p", "3", "--eps", "1e-2", "--nodes", "257",
            "--out", str(out))
    assert run(*args) == 0
    first = sha_tree(out)
    assert run(*args) == 0
    assert sha_tree(out) == first


def test_unknown_subcommand_exits_two(capsys):
    assert run("frobnicate") == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fuzzed numeric flags

FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e-320", "1e308", "2", "3", "true", "",
               "1,2"]


@pytest.fixture(scope="module")
def field_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("field")
    g = Grid.line(-1.0, 1.0, 65)
    write_grid_json(g, root / "grid.json")
    write_field_csv(ScalarField(g, abs(g.axis(0)) ** 0.5), root / "field.csv")
    return ["--field", str(root / "field.csv"), "--grid", str(root / "grid.json")]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_numeric_flag_exits_zero_one_or_two(field_files, tmp_path_factory, data):
    """One numeric flag of one command path set to an odd value, the rest
    valid: `main` raises nothing, returns 0, 1 or 2, and writes nothing when
    it returns 2."""
    path = data.draw(st.sampled_from(sorted(_PATHS)), label="path")
    numeric = {"p", "eps", "s", "theta", "q", "nodes", "delta", "lam"} & set(_PATHS[path])
    dest = data.draw(st.sampled_from(sorted(numeric)), label="flag")
    value = data.draw(st.sampled_from(FUZZ_VALUES) | st.floats().map(repr), label="value")
    argv = {"estimate (sharp oracle)": ["estimate"],
            "estimate --field": ["estimate", *field_files]}.get(path, path.split())
    flags = {k: v for k, v in (("p", "3"), ("nodes", "65")) if k in _PATHS[path]}
    out = tmp_path_factory.mktemp("out") / "out"
    argv += [f"{_FLAGS[k][0]}={v}" for k, v in {**flags, dest: value}.items()]
    code = main([*argv, "--out", str(out)])
    assert code in (0, 1, 2)
    assert code != 2 or not out.exists()
