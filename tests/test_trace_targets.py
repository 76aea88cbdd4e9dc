"""The benchmark's tracer wraps private names of the package; each must exist and run.

A target that no longer resolves is skipped by the tracer and only shows up
as "absent" in a benchmark run, and one that is no longer called leaves its
per-layer metric at 0, so a rename or a bypass is caught here instead.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import meshwalk

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


# Installs the tracer, runs a tiny walk and slice in-process, and prints the
# span names recorded, the targets' span names and the absent targets.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import meshwalk.cli
recorder = tracing.Recorder()
tracing.install(recorder)
for args in (["walk", "--n", "3"], ["slice", "--points", "3", "--n", "2"]):
    assert meshwalk.cli.main(args + ["--workers", "1"]) == 0
print(json.dumps({"called": sorted({span[0] for span in recorder.spans}),
                  "targets": sorted(name for _, _, name in tracing.TARGETS),
                  "absent": recorder.absent}))
"""


def test_every_trace_target_is_called(tmp_path):
    env = dict(os.environ, MESHWALK_OUT_DIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [str(Path(meshwalk.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["absent"] == []
    assert set(seen["targets"]) <= set(seen["called"]), seen
