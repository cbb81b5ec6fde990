"""Every module imports on its own, so no import cycle hides behind the package's import order.

``import fednetsim.config`` would run ``fednetsim/__init__.py`` first, which
imports the modules in one fixed order, and a cycle entered from another
module would never be tried. So each module is imported in a fresh
interpreter under a bare package object that skips ``__init__.py``; the
package itself is imported once more the normal way.

There is no linter in the toolchain, so an import left behind by a deletion
is caught here: every name a module imports must be used in it.
"""

import ast
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fednetsim"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))

ALONE = """
import importlib, sys, types
package = types.ModuleType("fednetsim")
package.__path__ = [sys.argv[1]]
sys.modules["fednetsim"] = package
importlib.import_module("fednetsim." + sys.argv[2])
"""


def python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_every_module_is_listed():
    assert {"config", "protocol", "adversary", "defense", "poisoning", "harness", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = python("-c", ALONE, str(PACKAGE), module)
    assert proc.returncode == 0, proc.stderr


def test_package_imports():
    proc = python("-c", "import fednetsim")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    # MODULES leaves out ``__init__.py``, whose imports are the package's exports.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
