"""Every exported name resolves, so a deleted name cannot linger in an
export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import liebeq

MODULES = sorted(m.name for m in pkgutil.iter_modules(liebeq.__path__))


def test_modules_found():
    assert {"quadrature", "identities", "solutions", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"liebeq.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _package_reexports():
    tree = ast.parse(Path(liebeq.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_profile_kinds_named_only_by_radial_riesz():
    # where a profile is singular is read from RadialProfile's exponents
    src = Path(liebeq.__file__).parent
    named = {path.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if (isinstance(node, ast.Name) and node.id in ("POWER_SINGULAR", "LIEB"))
             or (isinstance(node, ast.alias) and node.name in ("POWER_SINGULAR", "LIEB"))}
    assert named == {"radial_riesz.py"}


def test_package_reexports_resolve():
    reexports = _package_reexports()
    assert len(reexports) > 20
    missing = [f"{module}.{n}" for module, n in reexports
               if not hasattr(liebeq, n)
               or n not in getattr(importlib.import_module(f"liebeq.{module}"), "__all__", ())]
    assert missing == []
