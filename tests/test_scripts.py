"""The scripts import only names the package still has, every exported name
resolves, every imported name is used, and the import graph stays as
documented; the exponent-table and calibration scripts run end to end.
None of this is reached by the other tests: a script is run by hand,
``__all__`` is read only by ``from plapreg import *``, an unused import runs
without error, and a test process has imported every module already."""

import ast
import csv
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import plapreg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MODULES = sorted(p.stem for p in Path(plapreg.__file__).parent.glob("*.py") if p.stem != "__init__")


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports, not main()
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(name):
    assert callable(load_script(name).main)


def test_exponent_table_script_runs(tmp_path, monkeypatch, capsys):
    """main() runs against the package's current signatures, so a keyword the
    package no longer takes fails here rather than when the script is run."""
    out = tmp_path / "table.csv"
    monkeypatch.setattr(sys, "argv", ["exponent_table.py", "--nodes", "257", "--out", str(out)])
    load_script("exponent_table").main()
    assert f"wrote 18 rows to {out}" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["p", "q", "kind", "theta_target", "theta_hat", "r2", "verdict"]
    controls = [row[0] for row in rows[1:] if row[2] == "negative-control"]
    assert controls == ["3.0", "4.0", "5.0"]


def test_calibration_script_runs(capsys):
    """main() of the calibration script runs against the package's current
    signatures, prints one line per frozen entry and finds none drifted."""
    script = load_script("calibrate_tolerances")
    assert script.main() == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert rows == [["ok", name] for name in script.frozen.TABLE]


def test_solve_sets_smoke_subset_converges(capsys):
    """The smoke subset of the solve-set script runs against the package's
    current signatures: 32 box solves and 24 line solves, each converged,
    the x1-only boxes within the frozen energy bound of their exact
    minimizer, and the radial ones on a trace that is not a sum of a
    function of x1 and one of x2."""
    assert load_script("solve_sets").main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:] if " total of " not in line]
    assert [row[0] for row in rows] == (["boxes"] * 16 + ["x1only"] * 8 + ["radial"] * 8
                                        + ["lines"] * 24)
    assert all("converged" in row and "FAIL" not in row for row in rows)


def test_calibration_script_exits_one_on_drift(monkeypatch, capsys):
    """An entry whose interval excludes its measurement fails the run.  Each
    entry reads its frozen value as its measurement, so the exit logic is
    tested without the measurements, which `test_calibration_script_runs`
    makes."""
    script = load_script("calibrate_tolerances")
    table = dict(script.frozen.TABLE)
    table["fit_affine"] = table["fit_affine"]._replace(lo=0.99)  # above the fitted theta
    monkeypatch.setattr(script.frozen, "TABLE", table)
    monkeypatch.setattr(script, "measure",
                        lambda: {name: [entry.measured] for name, entry in table.items()})
    assert script.main() == 1
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert [name for tag, name in rows if tag == "DRIFT"] == ["fit_affine"]


@pytest.mark.parametrize("name", ["plapreg", *(f"plapreg.{m}" for m in MODULES)])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def run_python(code, *args, cwd=None):
    """stdout of ``python -c code args`` in a fresh interpreter on this checkout."""
    src = str(Path(plapreg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=60).stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_graph():
    """``import plapreg`` loads no submodule; the fields, pointwise and
    smoothness modules load without scipy, which only the solver needs, and
    so do experiments and the CLI, which import the solver where they solve."""
    code = (
        "import json, sys\n"
        "import plapreg\n"
        "sub = sorted(m for m in sys.modules if m.startswith('plapreg.'))\n"
        "import plapreg.fields, plapreg.pointwise, plapreg.smoothness\n"
        f"sci = {SCIPY_LOADED}\n"
        "import plapreg.experiments, plapreg.cli\n"
        f"print(json.dumps([sub, sci, {SCIPY_LOADED}]))\n"
    )
    sub, sci, sci_cli = json.loads(run_python(code))
    assert sub == [], f"import plapreg loaded {sub}"
    assert sci == [], f"fields, pointwise and smoothness loaded {sci}"
    assert sci_cli == [], f"experiments and cli loaded {sci_cli}"


def test_cli_import_loads_no_numpy():
    """``import plapreg.cli`` loads the standard library and plapreg alone,
    so a usage error or --help pays for no numpy import."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import plapreg.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(['numpy' in sys.modules, sorted(new - sys.stdlib_module_names)]))\n"
    )
    numpy_loaded, non_stdlib = json.loads(run_python(code))
    assert not numpy_loaded
    assert non_stdlib == ["plapreg"]


def test_only_2d_solves_load_scipy(tmp_path):
    """No command loads scipy: not the README's, the five that solve on a
    line included (the solver loads, its 1D steps are prefix sums), nor a
    usage error, also one found once the problem is built.  A 2D solve
    through the API loads scipy.sparse.linalg."""
    from plapreg.fields import Grid, ScalarField, write_field_csv, write_grid_json

    grid = Grid.line(-1.0, 1.0, 257)
    write_grid_json(grid, tmp_path / "grid.json")
    write_field_csv(ScalarField(grid, abs(grid.axis(0)) ** 0.5), tmp_path / "u.csv")
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line) for line in re.findall(r"^plapreg (.+)$", block, flags=re.M)]
    solving = [c for c in commands if c[0] in ("solve", "sweep") or "eps-uniform" in c
               or "scaling" in c]
    assert len(commands) == 8 and len(solving) == 5
    usage_errors = [
        ["solve", "--p", "2.5", "--mode", "thm2", "--out", "bad-mode"],
        ["solve", "--p", "2.5", "--oracle", "torsion", "--mode", "thm2",
         "--out", "bad-mode-torsion"],
        ["solve", "--out", "bad-missing-p"],
        ["estimate", "--q", "0.5", "--out", "bad-q"],
        ["estimate", "--field", "u.csv", "--q", "2", "--out", "bad-field-without-grid"],
        ["verify", "--suite", "scaling", "--lambda", "inf", "--out", "bad-lambda"],
    ]
    code = (
        "import json, sys\n"
        "from plapreg.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        f"print(json.dumps([codes, 'plapreg.solver' in sys.modules, {SCIPY_LOADED}]))\n"
    )
    codes, solver_loaded, sci = json.loads(
        run_python(code, json.dumps(commands + usage_errors), cwd=tmp_path))
    assert codes == [0] * len(commands) + [2] * len(usage_errors)
    assert solver_loaded
    assert sci == [], f"a command loaded {sci}"
    code = (
        "import json, sys\n"
        "from plapreg.fields import Grid, ProblemSpec, ScalarField\n"
        "from plapreg.pointwise import PLapParams\n"
        "from plapreg.solver import solve\n"
        f"before = {SCIPY_LOADED}\n"
        "g = Grid.box((-1.0, -1.0), (1.0, 1.0), (17, 17))\n"
        "r = solve(ProblemSpec(g, PLapParams(p=3.0, eps=1e-2), ScalarField.constant(g, 1.0),\n"
        "                      ScalarField.constant(g, 0.0)))\n"
        f"print(json.dumps([r.converged, before, {SCIPY_LOADED}]))\n"
    )
    converged, before, sci = json.loads(run_python(code))
    assert converged and before == []
    assert "scipy.sparse.linalg" in sci


ROOT = SCRIPTS.parent
# the names perfbench binds to plapreg modules: a setup's imports, their
# copies on the workload (self.solver) and the local alias of experiments
PERFBENCH_MODULES = {"solver": "solver", "fields": "fields", "pointwise": "pointwise",
                     "smoothness": "smoothness", "exp": "experiments",
                     "experiments": "experiments"}


def test_perfbench_reads_only_names_the_package_has():
    """Every plapreg module attribute the benchmark reads resolves, and every
    keyword it passes to PLapParams is a field, so a change that renames or
    moves a name the benchmark reads fails here, not in the benchmark."""
    from plapreg.pointwise import PLapParams

    params = {f.name for f in dataclasses.fields(PLapParams)}
    read, missing, bad_keywords = set(), [], []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "plapreg":
                read |= {(a.name, None) for a in node.names}
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id == "self" and chain:
                base = ast.Name(chain.pop(0))
            if chain and isinstance(base, ast.Name) and base.id in PERFBENCH_MODULES:
                read.add((PERFBENCH_MODULES[base.id], ".".join(chain)))
            if isinstance(node, ast.Call) and "PLapParams" in ast.unparse(node.func):
                bad_keywords += [(path.name, k.arg) for k in node.keywords
                                 if k.arg not in params]
    for module, dotted in sorted(read, key=str):
        obj = importlib.import_module(f"plapreg.{module}")
        for name in dotted.split(".") if dotted else ():
            if not hasattr(obj, name):
                missing.append(f"{module}.{dotted}")
                break
            obj = getattr(obj, name)
    assert {module for module, _ in read} >= {"solver", "fields", "smoothness", "experiments"}
    assert not missing, f"perfbench reads names plapreg lacks: {missing}"
    assert not bad_keywords, f"perfbench passes PLapParams unknown keywords: {bad_keywords}"


SOURCES = sorted(
    [p for p in (ROOT / "src" / "plapreg").glob("*.py") if p.name != "__init__.py"]
    + list(SCRIPTS.glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    assert not imported - used, f"imported but unused: {sorted(imported - used)}"
