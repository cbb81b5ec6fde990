"""Every module imports on its own, and each entry point imports only what it runs.

Each module is imported in a fresh interpreter under a bare package object
that skips ``__init__.py``, so no import cycle hides behind whatever the
package or another module imports first; the package itself is imported
once more the normal way. Its exports resolve lazily, and ``analyze`` must
not load PyYAML, the configuration schema or the simulator.

There is no linter in the toolchain, so an import left behind by a deletion
is caught here: every name a module imports must be used in it.
"""

import ast
import importlib
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


# The package's exports, by defining module.
EXPORTS = {
    "adversary": [
        "ContributionLedger", "drop_filter", "identification_score", "identify_clients",
        "record_round", "sample_visible_set",
    ],
    "analysis": [
        "expected_rounds_encrypted", "expected_rounds_encrypted_exact", "expected_rounds_plain",
        "expected_rounds_plain_approx", "harmonic", "monte_carlo_rounds", "prob_nontarget_batch",
        "prob_nontarget_batch_exact",
    ],
    "config": ["ProtocolConfig"],
    "datasets": ["ExampleSet", "PartitionPlan", "gen_synthetic", "load_idx_dataset", "partition"],
    "defense": ["UpsamplingDefender", "upsample_probabilities"],
    "models": ["ModelSpec", "forward_eval", "init_model", "local_train", "loss_gradient"],
    "poisoning": ["craft_poison_update", "flip_labels"],
    "protocol": ["LocalUpdate", "RoundRecord", "aggregate", "run_protocol", "select_participants"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_resolves_to_its_module(module, name):
    import fednetsim

    assert getattr(fednetsim, name) is getattr(importlib.import_module(f"fednetsim.{module}"), name)
    assert name in dir(fednetsim)


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
    # MODULES leaves out ``__init__.py``; its exports are checked above.
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
