"""The benchmark's tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps the package from outside, at the module
attribute each caller looks a name up from. A refactor that moves such a
lookup leaves the benchmark running with a layer that reads 0, and the
benchmark's own self-test checks only metric names and failures. So this
runs ``fednetsim run`` on the toy defended world, in a fresh interpreter
with the tracer installed, and asks for at least one span of every layer.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHILD = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
import fednetsim.cli as cli
tracer = Tracer()
tracer.install()
rc = cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"rc": rc, "spans": collections.Counter(span[0] for span in tracer.spans)}))
"""

# Every layer the defended toy world runs through. ``models.local_train``'s
# step count is not checked: it is known to misread a stacked call.
SPANS = (
    "harness.run_trial",
    "datasets.gen_synthetic",
    "datasets.partition",
    "protocol.run",
    "protocol.select",
    "models.local_train",
    "protocol.aggregate",
    "protocol.eval",
    "adversary.observe",
    "adversary.filter",
    "adversary.eval",
    "defense.observe",
    "defense.eval",
    "defense.resample",
    "poisoning.poison_update",
    "harness.emit",
)


def test_every_patched_layer_records_a_span(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "perfbench" / "defended_toy.yaml"),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    missing = [name for name in SPANS if not result["spans"].get(name)]
    assert not missing, f"no span recorded for {missing}; recorded {result['spans']}"
