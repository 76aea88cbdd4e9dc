"""Benchmark of the meshwalk CLI: end-to-end runs, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  The CLI's master seed is N,
or N + HELD_OUT_BASE with ``--held-out``.

``--trace 0``: this one process runs the workload's CLI command in a
closed loop (the next invocation starts when the previous one has exited),
with ``--workers 2`` and a fresh ``MESHWALK_OUT_DIR`` each time, until S
seconds have passed and at least MIN_INVOCATIONS invocations ran.  Every
output is checked (see ``check``), and the median of each end-to-end metric
over the invocations is reported:

- ``wall_s``: spawn of the CLI process to its exit;
- ``setup_s``: spawn until ``meshwalk.cli.main`` is entered (imports);
- ``realizations_per_s``: realizations propagated / (wall_s - setup_s);
- ``time_to_target_se_s``: (wall_s - setup_s) * (max std error / 1e-3)^2,
  the time to reach standard error 1e-3 at the run's statistical efficiency;
- ``cpu_s``: user + system CPU time of the process tree;
- ``peak_rss_mb``: peak resident memory of the largest process.

``--trace 1``: rounds of three invocations until S seconds have passed: a
serial (``--workers 1``) untraced run, the same run traced in-process (see
``tracing``), and the 2-worker run.  The three result documents must be
byte-identical.  The per-layer metrics are medians over rounds; the spans
of the last round go to ``.perfbench/traces/`` under the repository root.

Every invocation writes under ``.perfbench/runs/`` and that directory is
removed afterwards.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the benchmark ran (``correct`` tells whether the outputs were
right) and 2 when it cannot run here, e.g. without the package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Check, check_outputs, load_reference  # noqa: E402
from tracing import coverage, propagate_cost, summarize  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_BASE, WORKERS, WORKLOADS  # noqa: E402

MIN_INVOCATIONS = 3
TIME_LIMIT_S = 170.0  # a run must exit within 180 s
TARGET_SE = 1e-3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("realizations_per_s", "1/s"),
    ("time_to_target_se_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("analysis.scipy_import_s", "s"),
    ("programs.sample_us", "us"),
    ("ensemble.screens_us", "us"),
    ("ensemble.propagate_us", "us"),
    ("ensemble.propagate_gflops", "GFLOP/s"),
    ("ensemble.propagate_flop_per_byte", "flop/B"),
    ("ensemble.reduce_us", "us"),
    ("ensemble.stack_mb", "MB"),
    ("ensemble.matrices_ms", "ms"),
    ("ensemble.level_ms_p50", "ms"),
    ("ensemble.level_ms_max", "ms"),
    ("ensemble.parallel_efficiency", "ratio"),
    ("ensemble.sweep_self_ms", "ms"),
    ("ensemble.save_ms", "ms"),
    ("ensemble.csv_ms", "ms"),
    ("ensemble.checkpoint_bytes", "B"),
    ("ensemble.output_bytes", "B"),
    ("analysis.detect_enaqt_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("check.norm_residual_max", "abs"),
    ("check.mirror_residual_se_max", "SE"),
    ("check.ref_dev_se_max", "SE"),
)


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    setup_s: float
    main_s: float
    cpu_s: float
    peak_rss_mb: float
    output_bytes: int
    checkpoint_bytes: int
    check: Check
    sidecar: dict

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.check.problems

    @property
    def compute_s(self) -> float:
        return self.wall_s - self.setup_s


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill its process group on timeout."""
    timer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def invoke(workload, seed: int, workers: int, reference: dict, timeout: float,
           trace: bool = False, collect=None) -> Invocation:
    """One CLI invocation in a fresh output directory, checked, then cleaned up.

    ``collect``, if given, is called with the output directory before cleanup.
    """
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs)
    try:
        out_dir = os.path.join(run_dir, "out")
        sidecar_path = os.path.join(run_dir, "sidecar.json")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MESHWALK_OUT_DIR=out_dir)
        cmd = [sys.executable, str(HERE / "launch.py"), sidecar_path,
               *(["--trace"] if trace else []), "--", *workload.cli_argv(seed, workers)]
        with open(os.path.join(run_dir, "stdout"), "wb") as out, \
                open(os.path.join(run_dir, "stderr"), "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=run_dir,
                                    start_new_session=True)
            usage = _wait(proc, timeout)
            wall = time.monotonic() - start
        try:
            with open(sidecar_path) as fh:
                sidecar = json.load(fh)
        except (OSError, ValueError):
            sidecar = {}
        check = check_outputs(out_dir, workload, reference)
        if proc.returncode != 0:
            with open(os.path.join(run_dir, "stderr"), errors="replace") as fh:
                tail = fh.read()[-300:].strip()
            check.problems.insert(0, f"exit code {proc.returncode}: {tail}")
        sizes = {p.name: p.stat().st_size for p in Path(out_dir).glob("*") if p.is_file()}
        if collect is not None:
            collect(out_dir)
        return Invocation(
            exit_code=proc.returncode,
            wall_s=wall,
            setup_s=sidecar.get("main_entered", start + wall) - start,
            main_s=sidecar.get("main_s", wall),
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            output_bytes=sum(sizes.values()),
            checkpoint_bytes=sum(v for k, v in sizes.items() if k.endswith(".ckpt")),
            check=check,
            sidecar=sidecar,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(invocations: list[Invocation]) -> dict[str, list[float]]:
    ok = [inv for inv in invocations if inv.ok] or invocations
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    for inv in ok:
        samples["wall_s"].append(inv.wall_s)
        samples["setup_s"].append(inv.setup_s)
        samples["cpu_s"].append(inv.cpu_s)
        samples["peak_rss_mb"].append(inv.peak_rss_mb)
        if inv.ok:
            samples["realizations_per_s"].append(inv.check.realizations / inv.compute_s)
            samples["time_to_target_se_s"].append(
                inv.compute_s * (inv.check.max_std_error / TARGET_SE) ** 2)
    return samples


def per_layer(serial: Invocation, traced: Invocation, parallel: Invocation) -> dict:
    """Per-layer metrics of one trace round."""
    plan = parallel.check.plan or serial.check.plan
    realizations = max(parallel.check.realizations, 1)
    spans = traced.sidecar.get("spans", [])
    summary = summarize(spans)

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0)

    def per_real_us(seconds):
        return seconds / realizations * 1e6

    levels = summary.get("level", {}).get("durations", [])
    imports = traced.sidecar.get("import_s", {})
    flops, nbytes = propagate_cost(plan.get("num_modes", 1), plan.get("depth", 1),
                                   plan.get("read_layers", [1]))
    propagate_s = total("propagate")
    checks = [serial.check, traced.check, parallel.check]
    return {
        "cli.import_s": imports.get("total", 0.0),
        "analysis.scipy_import_s": imports.get("scipy_optimize", 0.0),
        "programs.sample_us": per_real_us(total("sample")),
        "ensemble.screens_us": per_real_us(total("stacks", "self_s")),
        "ensemble.propagate_us": per_real_us(propagate_s),
        "ensemble.propagate_gflops": _ratio(flops * realizations, propagate_s) / 1e9,
        "ensemble.propagate_flop_per_byte": flops / nbytes,
        "ensemble.reduce_us": per_real_us(total("reduce")),
        "ensemble.stack_mb": plan.get("realizations_per_level", 0) * plan.get("num_modes", 0)
        * 8 * len(plan.get("read_layers", ())) / 1e6,
        "ensemble.matrices_ms": total("matrices") * 1e3,
        "ensemble.level_ms_p50": _median(levels) * 1e3,
        "ensemble.level_ms_max": max(levels, default=0.0) * 1e3,
        "ensemble.parallel_efficiency": _ratio(serial.compute_s, WORKERS * parallel.compute_s),
        "ensemble.sweep_self_ms": total("run_sweep", "self_s") * 1e3,
        "ensemble.save_ms": total("save") * 1e3,
        "ensemble.csv_ms": total("csv") * 1e3,
        "ensemble.checkpoint_bytes": float(parallel.checkpoint_bytes),
        "ensemble.output_bytes": float(parallel.output_bytes),
        "analysis.detect_enaqt_ms": total("detect_enaqt") * 1e3,
        "trace.coverage": coverage(spans),
        "trace.overhead_frac": _ratio(traced.main_s - serial.main_s, serial.main_s),
        "check.norm_residual_max": max(c.norm_residual_max for c in checks),
        "check.mirror_residual_se_max": max(c.mirror_residual_se_max for c in checks),
        "check.ref_dev_se_max": max(c.ref_dev_se_max for c in checks),
    }


def provenance(seed: int, cli_seed: int, held_out: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "cli_seed": cli_seed,
        "held_out": held_out,
        "reference_seed": DEFAULT_SEED,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, started: float,
                 prov: dict) -> tuple[int, int, dict[str, float]]:
    """Run one workload; return (attempted, failed, metrics) and print its lines."""
    reference = load_reference(str(HERE / "reference" / f"{workload.name}.json.gz"))

    def budget():
        return TIME_LIMIT_S - (time.monotonic() - started)

    begin = time.monotonic()
    invocations: list[Invocation] = []
    longest = 0.0
    if not trace:
        while (len(invocations) < MIN_INVOCATIONS or time.monotonic() - begin < seconds) \
                and budget() > 1.5 * longest:
            invocations.append(invoke(workload, seed, WORKERS, reference, budget()))
            longest = max(longest, invocations[-1].wall_s)
        samples = end_to_end(invocations)
        failed = sum(not inv.ok for inv in invocations)
        metrics = {name: _median(samples[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
    else:
        rounds: list[dict] = []
        failed = 0
        spans_out = None
        while (not rounds or time.monotonic() - begin < seconds) and budget() > 1.5 * longest:
            t = time.monotonic()
            serial = invoke(workload, seed, 1, reference, budget())
            traced = invoke(workload, seed, 1, reference, budget(), trace=True)
            parallel = invoke(workload, seed, WORKERS, reference, budget())
            longest = max(longest, time.monotonic() - t)
            round_invs = [serial, traced, parallel]
            digests = {inv.check.sha256 for inv in round_invs}
            if len(digests) != 1:
                parallel.check.problems.append(
                    "result documents differ between --workers 1, traced and "
                    f"--workers {WORKERS}")
            invocations += round_invs
            failed += sum(not inv.ok for inv in round_invs)
            if all(inv.ok for inv in round_invs):
                rounds.append(per_layer(serial, traced, parallel))
                spans_out = traced.sidecar
            elif not rounds:
                rounds.append(per_layer(serial, traced, parallel))
        metrics = {name: _median(r[name] for r in rounds) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        plan = invocations[-1].check.plan
        mesh = f"{plan.get('num_modes')}x{plan.get('depth')}"
        print(f"{workload.name}: per-stage us/realization at {mesh}: "
              + "  ".join(f"{stage} {metrics[key]:.2f}" for stage, key in (
                  ("sample", "programs.sample_us"), ("screens", "ensemble.screens_us"),
                  ("propagate", "ensemble.propagate_us"), ("reduce", "ensemble.reduce_us"))))
        serial_s = [inv.wall_s for inv in invocations[0::3]]
        print(f"{workload.name}: single-threaded baseline wall_s {_median(serial_s):.4f} s "
              f"(median of {len(serial_s)})")
        if spans_out is not None:
            absent = spans_out.get("absent", [])
            if absent:
                print(f"{workload.name}: absent trace targets: {', '.join(absent)}")
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            with open(traces / f"{workload.name}-seed{seed}.json", "w") as fh:
                json.dump({"provenance": prov, "metrics": metrics, "absent": absent,
                           "import_s": spans_out.get("import_s", {}),
                           "spans": spans_out.get("spans", [])}, fh)

    for inv in invocations:
        for problem in inv.check.problems:
            print(f"{workload.name}: FAILED: {problem}")
    print(f"{workload.name}: {len(invocations)} invocations, {failed} failed, "
          f"error_rate {failed / len(invocations):.4f}")
    for name, value in metrics.items():
        print(f"{workload.name}: {name:34s} {value:14.6g} {units[name]}")
    checks = [inv.check for inv in invocations]
    print(f"{workload.name}: over all invocations: "
          f"check.norm_residual_max {max(c.norm_residual_max for c in checks):.3g}, "
          f"check.mirror_residual_se_max {max(c.mirror_residual_se_max for c in checks):.3f}, "
          f"check.ref_dev_se_max {max(c.ref_dev_se_max for c in checks):.3f}")
    return len(invocations), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use CLI seed SEED + {HELD_OUT_BASE}, never a tuning seed")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "meshwalk" / "cli.py").is_file():
        print(f"error: no meshwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    cli_seed = args.seed + HELD_OUT_BASE if args.held_out else args.seed
    prov = provenance(args.seed, cli_seed, args.held_out)
    print("provenance: " + json.dumps(prov))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name in names:
        n_try, n_fail, values = run_workload(WORKLOADS[name], cli_seed, args.seconds,
                                             bool(args.trace),
                                             time.monotonic() if len(names) > 1 else started,
                                             prov)
        attempted += n_try
        failed += n_fail
        prefix = f"{name}." if len(names) > 1 else ""
        # Only a failed check reports an infinite deviation; keep the JSON strict.
        metrics.update({prefix + key: {"value": value if math.isfinite(value)
                                       else sys.float_info.max, "unit": units[key]}
                        for key, value in values.items()})
    try:
        (ROOT / ".perfbench" / "runs").rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
