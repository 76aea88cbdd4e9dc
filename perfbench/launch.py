"""Run one meshwalk CLI invocation and record when ``main`` was entered.

Usage: ``python3 launch.py SIDECAR [--trace] -- CLI_ARGS...``

The benchmark spawns this script in place of ``python -m meshwalk.cli``.  It
imports the package exactly as the CLI does, notes ``time.monotonic()``
(one clock for every process on the host) just before calling
``meshwalk.cli.main``, and writes it and the time spent in ``main`` to the
SIDECAR JSON file; the exit code is the CLI's.  With ``--trace`` it also
times the numpy, scipy.optimize and package imports separately, wraps the
package's layers (see ``tracing``) and writes the spans to the sidecar.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    sidecar, flags, cli_args = argv[0], argv[1:argv.index("--")], argv[argv.index("--") + 1:]
    info: dict = {}
    if "--trace" in flags:
        import tracing

        t0 = time.perf_counter()
        import numpy  # noqa: F401  (imported first by the package too)
        t1 = time.perf_counter()
        import scipy.optimize  # noqa: F401
        t2 = time.perf_counter()
        import meshwalk.cli
        t3 = time.perf_counter()
        info["import_s"] = {"numpy": t1 - t0, "scipy_optimize": t2 - t1, "total": t3 - t0}
        recorder = tracing.Recorder()
        tracing.install(recorder)
    else:
        import meshwalk.cli
        recorder = None

    entered = time.monotonic()
    try:
        code = meshwalk.cli.main(cli_args)
    finally:
        info["main_entered"] = entered
        info["main_s"] = time.monotonic() - entered
        if recorder is not None:
            info["spans"] = recorder.spans
            info["absent"] = recorder.absent
        with open(sidecar, "w") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
