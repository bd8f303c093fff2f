"""The scripts import only names the package still has, and every exported
name resolves.  Neither is reached by the other tests: a script is run by
hand, and ``__all__`` is read only by ``from plapreg import *``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import plapreg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MODULES = sorted(p.stem for p in Path(plapreg.__file__).parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports, not main()
    assert callable(module.main)


@pytest.mark.parametrize("name", ["plapreg", *(f"plapreg.{m}" for m in MODULES)])
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

