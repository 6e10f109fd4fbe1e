"""Each module's __all__ lists exactly its public surface."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "radialmax"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if "\n__all__ = [" in p.read_text())


def test_modules_with_all_are_found():
    assert {"bounds", "maximal1d", "measure", "radial", "specfun"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_public_surface(name):
    mod = importlib.import_module(f"radialmax.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    defined = [n.name for n in ast.parse((SRC / f"{name}.py").read_text()).body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]
    unlisted = [n for n in defined if n not in mod.__all__]
    assert not unlisted, unlisted
