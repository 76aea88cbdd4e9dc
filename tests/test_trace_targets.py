"""The benchmark's tracer wraps private names of the package; each must exist and run.

A target that no longer resolves is skipped by the tracer and only shows up
as "absent" in a benchmark run, and one that is no longer called leaves its
per-layer metric at 0, so a rename or a bypass is caught here instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

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


# Installs the tracer, runs a tiny walk, slice and sweep in-process, and
# prints the span names recorded, those of the sweep alone, the targets'
# span names and the absent targets.  The sweep's 9 levels of 5 run in packs
# of whole levels, which the walk and slice never do.
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import meshwalk.cli
recorder = tracing.Recorder()
tracing.install(recorder)
for args in (["walk", "--n", "3"], ["slice", "--points", "3", "--n", "2"],
             ["sweep", "--grid", "3x3", "--n", "5"]):
    first = len(recorder.spans)
    assert meshwalk.cli.main(args + ["--workers", "1"]) == 0
print(json.dumps({"called": sorted({span[0] for span in recorder.spans}),
                  "packed": sorted({span[0] for span in recorder.spans[first:]}),
                  "targets": sorted(name for _, _, name in tracing.TARGETS),
                  "absent": recorder.absent}))
"""


def test_every_trace_target_is_called(tmp_path):
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING)],
                         env=subprocess_env(tmp_path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["absent"] == []
    assert set(seen["targets"]) <= set(seen["called"]), seen
    # A sweep reads no ENAQT report; every other target runs on the packed path.
    assert set(seen["targets"]) - set(seen["packed"]) == {"detect_enaqt"}, seen
