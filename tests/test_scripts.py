"""The scripts import only names the package still has, every exported name
resolves, every imported name is used, and the import graph stays as
documented; the exponent-table script runs end to end.  None of this is
reached by the other tests: a script is run by hand, ``__all__`` is read
only by ``from plapreg import *``, an unused import runs without error, and
a test process has imported every module already."""

import ast
import csv
import importlib
import importlib.util
import json
import os
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


@pytest.mark.parametrize("name", ["plapreg", *(f"plapreg.{m}" for m in MODULES)])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_import_graph():
    """``import plapreg`` loads no submodule, and the fields, pointwise and
    smoothness modules load without scipy, which only the solver needs."""
    code = (
        "import json, sys\n"
        "import plapreg\n"
        "sub = sorted(m for m in sys.modules if m.startswith('plapreg.'))\n"
        "import plapreg.fields, plapreg.pointwise, plapreg.smoothness\n"
        "sci = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([sub, sci]))\n"
    )
    src = str(Path(plapreg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    sub, sci = json.loads(out)
    assert sub == [], f"import plapreg loaded {sub}"
    assert sci == [], f"fields, pointwise and smoothness loaded {sci}"


ROOT = SCRIPTS.parent
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
