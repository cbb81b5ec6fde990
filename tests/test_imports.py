"""Every module imports on its own, and each entry point imports only what it runs.

Each module is imported in a fresh interpreter under a bare package object
that skips ``__init__.py``, so no import cycle hides behind whatever the
package or another module imports first; the package itself is imported
once more the normal way. It binds no name but ``__version__`` and loads no
submodule, since each name is imported from its module. ``analyze`` must
not load PyYAML, the configuration schema or the simulator, and ``run``
must not load the analysis layer.

There is no linter in the toolchain, so an import left behind by a deletion
is caught here: every name a module imports must be used in it. So is a
definition nothing uses any more: every top-level function and class must
be named outside its own definition, in ``src``, ``tests`` or ``perfbench``.
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


# What ``analyze`` must not load: it runs the analysis layer alone.
SIMULATOR = ("yaml", "fednetsim.config", "fednetsim.models", "fednetsim.harness", "fednetsim.protocol")

ANALYZE = """
import sys
import fednetsim
import fednetsim.cli
rc = fednetsim.cli.main(["analyze", "--n", "30", "--m", "5", "--k", "5", "--kn", "3", "--mc-trials", "200"])
print(rc, *sorted(set(sys.argv[1:]) & set(sys.modules)))
"""


def test_analyze_loads_no_simulator():
    proc = python("-c", ANALYZE, *SIMULATOR)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0"


RUN = """
import sys
import fednetsim.cli
rc = fednetsim.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--trials", "1"])
print(rc, "fednetsim.analysis" in sys.modules)
"""


def test_run_loads_no_analysis(tmp_path):
    smoke = PACKAGE.parent.parent / "configs" / "smoke.yaml"
    proc = python("-c", RUN, str(smoke), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# What ``import fednetsim`` binds: its names come from their modules only.
BARE = """
import sys
import fednetsim
print(*sorted(n for n in vars(fednetsim) if not n.startswith("_")))
print(*sorted(m for m in sys.modules if m.startswith("fednetsim.")))
print(hasattr(fednetsim, "run_protocol"), fednetsim.__version__)
"""


def test_package_binds_only_its_version():
    proc = python("-c", BARE)
    assert proc.returncode == 0, proc.stderr
    public, submodules, lookup = proc.stdout.split("\n")[:3]
    assert (public, submodules, lookup) == ("", "", "False 0.1.0")


def test_exports_version_and_refuses_unknown_names():
    import fednetsim

    assert fednetsim.__version__ == "0.1.0" and "__version__" in dir(fednetsim)
    with pytest.raises(AttributeError, match="no_such_name"):
        fednetsim.no_such_name


def test_from_package_imports_submodules():
    code = "from fednetsim import analysis, harness; print(analysis.__name__, harness.__name__)"
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fednetsim.analysis", "fednetsim.harness"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    # MODULES leaves out ``__init__.py``, which imports nothing.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


ROOT = PACKAGE.parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def names_in(node):
    """Every identifier a subtree reads, imports, or spells as a string (``setattr(mod, "name", ...)``)."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names += [a.name for a in sub.names]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.append(sub.value)
    return names


def test_no_unused_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    named = [name for tree in trees.values() for name in names_in(tree)]
    unused = []
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # uses inside the definition itself, such as recursion, do not count
                if named.count(node.name) == names_in(node).count(node.name):
                    unused.append(f"{module}.{node.name}")
    assert unused == []
