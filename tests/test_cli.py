import contextlib
import errno
import fcntl
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshwalk import cli, ensemble
from meshwalk.cli import main
from meshwalk.ensemble import EnsembleResult, LevelRecord, SweepPlan
from meshwalk.lattice import MeshSpec
from meshwalk.programs import SCREEN_POLICY, DisorderSpec
from conftest import CPUS, fake_cpus, subprocess_env


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("MESHWALK_OUT_DIR", str(tmp_path))
    return tmp_path


def test_walk_writes_deterministic_outputs(outdir):
    args = ["walk", "--ctid", "0.5", "--ctd", "0.5", "--n", "60", "--seed", "9",
            "--out", "a.json"]
    assert main(args + ["--workers", "1"]) == 0
    first = (outdir / "a.json").read_bytes()
    first_csv = (outdir / "a.json.csv").read_bytes()
    assert main(["walk", "--ctid", "0.5", "--ctd", "0.5", "--n", "60", "--seed", "9",
                 "--out", "b.json", "--workers", "2"]) == 0
    second = (outdir / "b.json").read_bytes()
    doc_a = json.loads(first)
    doc_b = json.loads(second)
    assert doc_a["records"] == doc_b["records"]
    assert b"c_tid,c_td,layer,mode,mean,std_error" in first_csv


def test_rerun_of_a_finished_split_walk_writes_its_bytes(outdir, monkeypatch):
    # A lone level of eight chunks or more is split across two workers; the
    # files are the serial run's, byte for byte, checkpoint included.  A
    # rerun finds every record in the checkpoint, so nothing is split or
    # mapped, and it writes the same files again.
    monkeypatch.setattr(ensemble, "_CHUNK", 512)
    fake_cpus(monkeypatch, 2)  # a pool even on one core
    argv = ["walk", "--n", "5000", "--out", "w.json", "--workers"]
    for workers in ("1", "2"):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir / workers))
        assert main(argv + [workers]) == 0
    assert files(outdir / "2") == files(outdir / "1")
    assert main(argv + ["2"]) == 0
    assert files(outdir / "2") == files(outdir / "1")


def test_walk_ballistic_peaks(outdir, capsys):
    assert main(["walk", "--n", "3", "--out", "bal.json", "--workers", "1"]) == 0
    doc = json.loads((outdir / "bal.json").read_text())
    mean = doc["records"][0]["mean"]
    top = sorted(np.argsort(mean)[-2:] + 1)
    assert top == [3, 12]


def test_usage_errors_exit_one(outdir, capsys):
    assert main(["walk", "--ctid", "1.5", "--n", "5"]) == 1
    assert main(["sweep", "--grid", "bogus"]) == 1
    assert main(["slice", "--enhance", "5;10"]) == 1
    assert main(["slice", "--ctid", "1.5"]) == 1
    assert main(["walk", "--modes", "9"]) == 1
    assert main(["nonsense"]) == 1
    # Mode sets are range-checked before any realization runs.
    assert main(["deep", "--depth", "4", "--enhance", "99"]) == 1
    assert main(["slice", "--modes", "8", "--depth", "4", "--enhance", "5,10"]) == 1
    # Depth 1 on 2 modes leaves the default enhance set no room: the error
    # says so instead of naming a mode the user never gave.
    capsys.readouterr()
    assert main(["deep", "--depth", "1"]) == 1
    assert "default enhance set [0, 3] does not fit 2 modes; give --enhance" in (
        capsys.readouterr().err)
    # One realization per level gives no standard error to test a rise against.
    assert main(["slice", "--n", "1"]) == 1
    assert main(["walk", "--workers", "-3"]) == 1
    assert main(["sweep", "--resume"]) == 1
    assert not list(outdir.iterdir())


def test_persistence_warning_from_every_run_command(outdir, capsys):
    # A directory where the result document's checkpoint goes: the run
    # completes without a checkpoint and says so.
    commands = ((["walk"], "walk.json"), (["tomography"], "tomography.json"),
                (["sweep", "--grid", "2x2"], "sweep.json"),
                (["slice", "--points", "3"], "slice.json.result.json"),
                (["deep", "--depth", "3", "--points", "3"], "deep.json.result.json"))
    for command, document in commands:
        (outdir / f"{document}.ckpt").mkdir()
        out = f"{command[0]}.json"
        assert main(command + ["--n", "5", "--workers", "1", "--out", out]) == 0
        assert "persistence warning: checkpoint open failed" in capsys.readouterr().err


def test_failed_checkpoint_append_is_one_warning(outdir, capsys, monkeypatch):
    # The resumed checkpoint's appends meet a full disk: the run warns once,
    # stops checkpointing and still writes the fresh run's document.
    base = ["sweep", "--grid", "2x2", "--n", "5", "--workers", "1"]
    assert main(base + ["--out", "fresh.json"]) == 0
    lines = (outdir / "fresh.json.ckpt").read_text().splitlines(keepends=True)
    (outdir / "full.json.ckpt").write_text("".join(lines[:2]))
    capsys.readouterr()

    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_appends(path, mode="r", *args, **kwargs):
        if path.endswith(".ckpt") and mode == "a+b":
            return io.BufferedRandom(FullDisk(path, "a+"))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(ensemble, "open", full_appends, raising=False)
    assert main(base + ["--out", "full.json"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"persistence warning: level 1: checkpoint write failed: "
                   f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert (outdir / "full.json").read_bytes() == (outdir / "fresh.json").read_bytes()


def test_out_naming_a_directory_exits_two_before_running(outdir, capsys, monkeypatch):
    # A directory at the document or at any file written beside it, or an
    # --out that names one.
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("levels ran"))
    heatmaps = tuple(f".mode{mode}.csv" for mode in range(3, 8))
    for command, written in ((["walk"], ("", ".csv")), (["tomography"], ("", ".csv")),
                             (["sweep", "--grid", "2x2"], ("", ".csv") + heatmaps),
                             (["slice", "--points", "3"], ("", ".csv", ".result.json")),
                             (["deep", "--depth", "3", "--points", "3"],
                              ("", ".csv", ".result.json"))):
        for suffix in written:
            directory = outdir / f"res.json{suffix}"
            directory.mkdir()
            assert main(command + ["--n", "5", "--workers", "1", "--out", "res.json"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                           f"'{directory}'"], (command, suffix)
            assert [p.name for p in outdir.rglob("*")] == [directory.name], (command, suffix)
            directory.rmdir()
        # An --out whose last component is empty or "." names a directory
        # that need not exist yet.
        for out in ("res.json" + os.sep, os.path.join("sub", os.curdir)):
            assert main(command + ["--n", "5", "--workers", "1", "--out", out]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                           f"'{os.path.join(outdir, out)}'"], (command, out)
            assert list(outdir.rglob("*")) == [], (command, out)


def test_sweep_ascii_heatmaps_and_progress(outdir, capsys):
    # The full output of the code before this test.
    assert main(["sweep", "--grid", "2x2", "--n", "5", "--workers", "1", "--ascii",
                 "--progress", "--out", "s.json"]) == 0
    out, err = capsys.readouterr()
    assert out == f"""\
mode 3 (rows c_tid 0->1, cols c_td 0->1):
@.
 :
mode 4 (rows c_tid 0->1, cols c_td 0->1):
@*
-%
mode 5 (rows c_tid 0->1, cols c_td 0->1):
+@
.*
mode 6 (rows c_tid 0->1, cols c_td 0->1):
.@
+*
mode 7 (rows c_tid 0->1, cols c_td 0->1):
-+
+@
4 records; result document: {outdir / 's.json'}
"""
    assert err == "\r1/4 levels\r2/4 levels\r3/4 levels\r4/4 levels\n"


def test_negative_seed_exits_one(outdir, capsys):
    commands = (["walk"], ["tomography"], ["sweep", "--grid", "2x2"], ["slice"],
                ["deep", "--depth", "3"])
    for command in commands:
        assert main(command + ["--seed", "-1", "--n", "5"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(commands)
    assert all(line.startswith("usage error:") and "master_seed" in line for line in lines)
    assert not list(outdir.iterdir())


def test_import_leaves_scipy_unloaded():
    # Only the fit needs scipy; the other commands must not pay for importing it.
    code = "import sys, meshwalk.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=subprocess_env()).returncode == 0


def test_package_binds_no_names_and_loads_no_module():
    # Each name has one import path, the module that defines it.
    code = ("import sys, meshwalk\n"
            "names = [n for n in vars(meshwalk) if not n.startswith('_')]\n"
            "modules = [m for m in sys.modules if m.startswith('meshwalk.')]\n"
            "assert not names and not modules, (names, modules)\n")
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True)


def test_main_freezes_once_before_the_run(outdir, monkeypatch):
    # The CLI, not the library, moves what its imports made to the
    # collector's permanent generation, once per command and before any run.
    events, freeze, run = [], gc.freeze, cli.run_sweep
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze") or freeze())
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: events.append("run") or run(*a, **k))
    for _ in range(2):
        assert main(["walk", "--n", "5", "--workers", "1"]) == 0
    assert events == ["freeze", "run"] * 2


def test_runtime_error_exits_two(outdir):
    assert main(["fit", "--in", str(outdir / "missing.json")]) == 2


def test_malformed_document_exits_two(outdir, capsys):
    # A plan without its depth; a tomography document without its layer-7
    # record, read at that layer and at another, or without any record: a
    # document holds one record per level and read layer of its plan.
    plan = SweepPlan(MeshSpec(), (DisorderSpec(0, 0),), 1, 1)
    nodepth = EnsembleResult(plan, {}).to_document()
    del nodepth["plan"]["depth"]
    assert main(["tomography", "--n", "20", "--out", "tomo.json", "--workers", "1"]) == 0
    tomo = json.loads((outdir / "tomo.json").read_text())
    assert tomo["records"][-1]["read_layer"] == 7
    path = outdir / "bad.json"
    for doc, flags, named in ((nodepth, [], "depth"),
                              ({**tomo, "records": tomo["records"][:-1]}, [], "6 records"),
                              ({**tomo, "records": tomo["records"][:-1]}, ["--layer", "3"],
                               "6 records"),
                              ({**tomo, "records": []}, [], "0 records")):
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fit", "--in", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and named in err and err.count("\n") == 1, err


def test_document_of_another_plan_exits_two(outdir, capsys):
    assert main(["walk", "--n", "3", "--out", "w.json", "--workers", "1"]) == 0
    path = outdir / "w.json"
    original = json.loads(path.read_text())

    def foreign(key, value):
        def edit(doc):
            # The hash is recomputed, so only the named field is foreign.
            doc["plan"][key] = value
            blob = json.dumps(doc["plan"], sort_keys=True, separators=(",", ":"))
            doc["plan_hash"] = hashlib.sha256(blob.encode()).hexdigest()
        return edit

    # Records no longer belong to the plan, or were drawn by another generator
    # or composed by another screen policy: other signs, the wrapped sum that
    # an earlier composition named "mirrored-sign", or the unwrapped sum with
    # a screen after the last layer too.  A policy error names both policies.
    for key, edit in (("plan_hash", lambda doc: doc["plan"].update(master_seed=4)),
                      ("generator", foreign("generator", "another")),
                      ("policy", foreign("policy", "uniform-sign")),
                      ("policy", foreign("policy", "mirrored-sign")),
                      ("policy", foreign("policy", "mirrored-sign, unwrapped sum"))):
        doc = json.loads(json.dumps(original))
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fit", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and key in err and err.count("\n") == 1
        if key == "policy":
            assert f"{doc['plan']['policy']!r} is not {SCREEN_POLICY!r}" in err


def test_fit_on_a_format_1_document_exits_two(outdir, capsys):
    # A document of the realization-major stream layout: format /1, its
    # generator a top-level field beside a plan that does not name one.  And
    # a /2 document, whose records repeat their level's c_tid, c_td and n.
    assert main(["walk", "--n", "3", "--out", "w.json", "--workers", "1"]) == 0
    path = outdir / "w.json"
    written = json.loads(path.read_text())
    format_1 = json.loads(json.dumps(written))
    format_1["format"] = "meshwalk-sweep-result/1"
    format_1["generator"] = format_1["plan"].pop("generator")
    blob = json.dumps(format_1["plan"], sort_keys=True, separators=(",", ":"))
    format_1["plan_hash"] = hashlib.sha256(blob.encode()).hexdigest()
    (c_tid, c_td), = written["plan"]["grid"]
    format_2 = {**written, "format": "meshwalk-sweep-result/2", "records": [
        {**record, "c_tid": c_tid, "c_td": c_td, "n": 3} for record in written["records"]]}
    for doc in (format_1, format_2):
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fit", "--in", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not a {ensemble.DOCUMENT_FORMAT} document "
            f"(format {doc['format']!r})"]


def test_document_with_a_record_of_another_plan_exits_two(outdir, capsys):
    assert main(["walk", "--ctid", "1", "--n", "200", "--out", "w.json", "--workers", "1"]) == 0
    path = outdir / "w.json"
    doc = json.loads(path.read_text())
    doc["records"][0].update(level_index=5, c_tid=0.3, n=7)  # the plan hash still holds
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fit", "--in", str(path), "--level-index", "5"]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "level_index 5" in err and err.count("\n") == 1


def test_broken_worker_pool_exits_two(outdir, capsys, monkeypatch):
    class CrashingPool:
        def __init__(self, max_workers, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            raise BrokenProcessPool("a worker process terminated abruptly")

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CrashingPool)
    fake_cpus(monkeypatch, 2)  # a pool even on one CPU
    assert main(["sweep", "--grid", "2x2", "--n", "5", "--workers", "2",
                 "--out", "crash.json"]) == 2
    err = capsys.readouterr().err
    assert "terminated abruptly" in err and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unloadable_generator_state_exits_two(outdir, capsys, monkeypatch, workers):
    # A bit generator that cannot be advanced to a cell's substream, in the
    # run's process or in its forked workers.
    class Unloadable(np.random.PCG64DXSM):
        def advance(self, delta):
            raise RuntimeError(f"PCG64DXSM cannot advance its state by {delta}")

    monkeypatch.setattr(np.random, "PCG64DXSM", Unloadable)
    assert main(["sweep", "--grid", "2x2", "--n", "5", "--workers", workers,
                 "--out", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PCG64DXSM cannot advance its state by ")
    assert err.count("\n") == 1
    assert not (outdir / "bad.json").exists()


def test_degenerate_fit_exits_three(outdir):
    spec = MeshSpec()
    plan = SweepPlan(spec, (DisorderSpec(0, 0),), 1, 1)
    delta = np.zeros(14)
    delta[5] = 1.0
    result = EnsembleResult(plan, {(0, 7): LevelRecord(delta, np.zeros(14))})
    path = outdir / "delta.json"
    result.save(str(path))
    assert main(["fit", "--in", str(path)]) == 3


def test_fit_on_too_few_modes_exits_three(outdir, capsys):
    assert main(["walk", "--modes", "2", "--depth", "1", "--n", "3", "--out", "w2.json",
                 "--workers", "1"]) == 0
    assert main(["fit", "--in", str(outdir / "w2.json")]) == 3
    assert "need at least 4 modes to fit, got 2" in capsys.readouterr().err


def test_tomography_layers_and_heatmap(outdir, capsys):
    assert main(["tomography", "--n", "4", "--out", "tomo.json", "--workers", "1"]) == 0
    doc = json.loads((outdir / "tomo.json").read_text())
    layers = sorted(rec["read_layer"] for rec in doc["records"])
    assert layers == list(range(1, 8))
    # zero disorder: layer t spans exactly the 2t cone modes
    for rec in doc["records"]:
        support = [m for m in rec["mean"] if m > 1e-15]
        assert len(support) == 2 * rec["read_layer"]
    out = capsys.readouterr().out
    assert "heatmap" in out
    # zero disorder spreads ballistically: width grows about linearly in t
    exponent = float(out.split("spread exponent = ")[1].split()[0])
    assert 0.95 < exponent < 1.0
    # Two layers give no slope, and a walker that never splits no exponent.
    assert main(["tomography", "--depth", "2", "--modes", "4", "--n", "2",
                 "--out", "t2.json", "--workers", "1"]) == 0
    assert "spread exponent" not in capsys.readouterr().out
    assert main(["tomography", "--inject", "1", "--n", "2", "--out", "t1.json",
                 "--workers", "1"]) == 0
    assert "spread exponent = undefined" in capsys.readouterr().out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("inject", [[], ["--inject", "3"], ["--inject", "14"]])
def test_tomography_writes_plus_zero_outside_each_layers_live_rows(outdir, monkeypatch,
                                                                   inject, workers):
    # Layer t's live rows, 0-based, are the cone's [7 - t, 7 + t) at 14x7 and
    # the injection mode's row: no other row is stored or reduced, and every
    # record writes +0.0 there, bit for bit, at every read layer, whole or
    # split.  Injection modes 3 and 14 lie outside the early layers' cones.
    fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(ensemble, "_CHUNK", 4)  # 40 realizations split across 2 workers
    argv = ["tomography", "--ctid", "0.842", "--ctd", "0.5", "--n", "40", *inject,
            "--out", "tomo.json", "--workers", str(workers)]
    assert main(argv) == 0
    doc = json.loads((outdir / "tomo.json").read_text())
    row = doc["plan"]["injection_mode"] - 1
    assert sorted(rec["read_layer"] for rec in doc["records"]) == list(range(1, 8))
    for rec in doc["records"]:
        t = rec["read_layer"]
        outside = [x for x in range(14) if not min(7 - t, row) <= x < max(7 + t, row + 1)]
        for key in ("mean", "std_error"):
            assert not np.array(rec[key])[outside].view(np.uint64).any(), (t, key)
        assert abs(math.fsum(rec["mean"]) - 1.0) < 1e-12, t  # the light is all in the live rows


def test_sweep_resume_and_heatmaps(outdir, level_tasks):
    base = ["sweep", "--grid", "3x3", "--n", "20", "--seed", "5", "--workers", "1"]
    assert main(base + ["--out", "s.json"]) == 0
    fresh = {p.name: p.read_bytes() for p in outdir.iterdir()}
    for mode in (3, 4, 5, 6, 7):
        heat = outdir / f"s.json.mode{mode}.csv"
        assert heat.exists()
        assert heat.read_text().splitlines()[0].startswith("c_tid\\c_td,")

    # A sweep cut short after 3 levels runs only the other 6.
    ckpt = outdir / "s.json.ckpt"
    lines = ckpt.read_text().splitlines()
    ckpt.write_text("\n".join(lines[:4]) + "\n")
    (outdir / "s.json").unlink()
    level_tasks.clear()
    assert main(base + ["--out", "s.json"]) == 0
    assert level_tasks == [3, 4, 5, 6, 7, 8]
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == fresh


def test_every_run_command_resumes_its_checkpoint(outdir, level_tasks):
    # Over a complete checkpoint a rerun runs no level and writes the same files.
    for command in (["walk"], ["tomography"], ["sweep", "--grid", "2x2"],
                    ["slice", "--points", "3"], ["deep", "--depth", "3", "--points", "3"]):
        argv = command + ["--n", "5", "--workers", "1", "--out", f"{command[0]}.json"]
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in outdir.iterdir()}
        level_tasks.clear()
        assert main(argv) == 0
        assert level_tasks == [], command
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == files, command


def test_second_run_on_one_output_exits_two(outdir, capsys, level_tasks):
    # Another run holds the checkpoint of a cut-short sweep: the run exits 2
    # before any level runs and leaves every file as it was.
    argv = ["sweep", "--grid", "2x2", "--n", "5", "--workers", "1", "--out", "s.json"]
    assert main(argv) == 0
    ckpt = outdir / "s.json.ckpt"
    ckpt.write_text("".join(ckpt.read_text().splitlines(keepends=True)[:3]))
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    capsys.readouterr()
    level_tasks.clear()
    with open(ckpt, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(argv) == 2
    assert level_tasks == []
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno {errno.EAGAIN}] checkpoint in use by another run: '{ckpt}'"]
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == files


def process_state(pid: int) -> str | None:
    """The state letter of process ``pid`` (``Z`` for a zombie), or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def children(pid: int) -> list[int]:
    """The child processes of every thread of process ``pid``."""
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        with contextlib.suppress(FileNotFoundError):
            found += map(int, task.read_text().split())
    return found


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or CPUS < 2,
                    reason="reads worker pids from Linux /proc; needs 2 cores for a pool")
def test_pool_workers_die_with_a_killed_run(outdir):
    # SIGKILL of the CLI process alone, as an out-of-memory kill does: its
    # pool workers must not run on, orphaned, holding their memory.
    with reaped(cli_process(["slice", "--n", "20000", "--workers", "2"], outdir,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)) as run:
        deadline = time.monotonic() + 60
        while len(workers := children(run.pid)) < 2 and time.monotonic() < deadline:
            assert run.poll() is None, "the run ended before its pool started"
            time.sleep(0.02)
        assert len(workers) == 2
        run.kill()
        run.wait(30)
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline and any(
                process_state(pid) not in (None, "Z") for pid in workers):
            time.sleep(0.02)
        assert {pid: process_state(pid) for pid in workers if process_state(pid) not in
                (None, "Z")} == {}


def shm_entries() -> set[str]:
    """Names under /dev/shm, where named POSIX shared memory and semaphores live."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or CPUS < 2,
                    reason="reads worker pids from Linux /proc; needs 2 cores to split a level")
def test_killed_worker_of_a_split_level_exits_two(outdir, monkeypatch):
    # One large level is split across both workers, which fill one anonymous
    # shared mapping.  SIGKILL of one worker mid-fill breaks the pool: the run
    # exits 2, leaves no named segment behind, and a rerun writes a fresh run's files.
    argv = ["tomography", "--ctid", "0.842", "--ctd", "0.5", "--n", "30000", "--workers", "2",
            "--out", "t.json"]
    before = shm_entries()
    with reaped(cli_process(argv, outdir / "killed", stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)) as run:
        deadline = time.monotonic() + 60
        while len(workers := children(run.pid)) < 2 and time.monotonic() < deadline:
            assert run.poll() is None, "the run ended before its pool started"
            time.sleep(0.01)
        assert len(workers) == 2
        os.kill(workers[0], signal.SIGKILL)
        _, err = run.communicate(timeout=60)
        assert run.returncode == 2, err
        assert "terminated abruptly" in err and err.count("\n") == 1
        assert not (outdir / "killed" / "t.json").exists()
        assert {pid: process_state(pid) for pid in workers if process_state(pid) not in
                (None, "Z")} == {}
    assert shm_entries() - before == set()
    for name in ("killed", "fresh"):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir / name))
        assert main(argv) == 0
    files = {p.name: p.read_bytes() for p in (outdir / "fresh").iterdir()}
    assert {p.name: p.read_bytes() for p in (outdir / "killed").iterdir()} == files


def cli_process(argv: list[str], out_dir: Path, **kwargs) -> subprocess.Popen:
    """The CLI run with ``argv``, writing under ``out_dir``, in a session of its own."""
    return subprocess.Popen([sys.executable, "-m", "meshwalk.cli", *argv],
                            env=subprocess_env(out_dir), start_new_session=True, **kwargs)


@contextlib.contextmanager
def reaped(run: subprocess.Popen):
    """``run``, whose whole session is SIGKILLed and waited for on the way out."""
    try:
        yield run
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.wait(30)


def wait_for_lines(run: subprocess.Popen, path: Path, count: int) -> None:
    """Wait until ``path`` holds ``count`` newline-ended lines while ``run`` is still running."""
    deadline = time.monotonic() + 60
    while not path.exists() or path.read_bytes().count(b"\n") < count:
        assert run.poll() is None, f"the run ended before {path.name} held {count} lines"
        assert time.monotonic() < deadline
        time.sleep(0.002)


def group_members(pgid: int) -> list[int]:
    """Processes of process group ``pgid`` that are not zombies."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
            if int(group) == pgid and state != "Z":
                members.append(int(stat.parent.name))
    return members


def files(directory: Path) -> dict[str, bytes]:
    """Every file in ``directory``, by name."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# Each run command at a size that runs well past the kill: the number of
# checkpoint records written before the whole process group is SIGKILLed.  A
# walk or tomography run is one level, whose records come at its end.
KILLED_RUNS = (
    (["walk", "--n", "16384"], 0),
    (["tomography", "--ctid", "0.842", "--ctd", "0.5", "--n", "16384"], 0),
    (["sweep", "--grid", "3x3", "--n", "1500"], 2),
    (["slice", "--points", "5", "--n", "2500"], 2),
    (["deep", "--depth", "5", "--points", "4", "--n", "2500"], 2),
)


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="reads process groups from Linux /proc")
@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
    CPUS < 2, reason="needs 2 cores for a pool"))])
def test_killed_runs_resume_to_a_fresh_runs_files(outdir, monkeypatch, workers):
    # A real crash of every run command: SIGKILL of its whole process group
    # mid-run.  Rerunning the command writes the fresh run's files, checkpoint
    # included, byte for byte, and no process of the killed group is left.
    for command, records in KILLED_RUNS:
        argv = command + ["--workers", str(workers), "--out", "r.json"]
        killed, fresh = outdir / f"{command[0]}.killed", outdir / f"{command[0]}.fresh"
        document = "r.json.result.json" if command[0] in ("slice", "deep") else "r.json"
        with reaped(cli_process(argv, killed, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)) as run:
            wait_for_lines(run, killed / f"{document}.ckpt", 1 + records)
            os.killpg(run.pid, signal.SIGKILL)
            assert run.wait(30) == -signal.SIGKILL
            deadline = time.monotonic() + 5
            while group_members(run.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert group_members(run.pid) == [], command
        assert not (killed / document).exists(), command
        for directory in (killed, fresh):
            monkeypatch.setenv(cli.OUT_DIR_ENV, str(directory))
            assert main(argv) == 0, command
        assert files(killed) == files(fresh), command


def test_second_process_on_one_output_exits_two(outdir, monkeypatch):
    # Two processes on one output: the second exits 2 before any level runs,
    # naming the checkpoint, and the first completes with a fresh run's files.
    # The first is stopped, holding its lock, from its checkpoint's header
    # until the second has exited, so it cannot end first however fast it is.
    argv = ["slice", "--points", "4", "--n", "20000", "--workers", "1"]
    ckpt = outdir / "held" / "slice_ctid0.842_n20000.json.result.json.ckpt"
    with reaped(cli_process(argv, outdir / "held", stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)) as first:
        wait_for_lines(first, ckpt, 1)
        os.killpg(first.pid, signal.SIGSTOP)
        second = cli_process(argv, outdir / "held", stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        out, err = second.communicate(timeout=60)
        assert first.poll() is None, "the first run ended before the second met its lock"
        os.killpg(first.pid, signal.SIGCONT)
        assert second.returncode == 2 and out == ""
        assert err.splitlines() == [
            f"error: [Errno {errno.EAGAIN}] checkpoint in use by another run: '{ckpt}'"]
        assert first.communicate(timeout=60) == (None, "")
        assert first.returncode == 0
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir / "fresh"))
    assert main(argv) == 0
    assert files(outdir / "held") == files(outdir / "fresh")


def limited_run(argv: list[str], out_dir: Path, limit: int) -> tuple[int, str]:
    """Exit code and stderr of the CLI run with files limited to ``limit`` bytes.

    The limit is set in the child alone, and ``SIGXFSZ`` ignored there, so a
    write beyond it fails with ``EFBIG``.
    """
    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    run = cli_process(argv, out_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                      text=True, preexec_fn=limit_file_size)
    _, err = run.communicate(timeout=60)
    return run.returncode, err


def test_document_over_the_file_size_limit_exits_two(outdir, monkeypatch):
    # The checkpoint fits under the limit, the document does not: the run
    # exits 2 and leaves neither a document nor a temporary sibling.
    argv = ["walk", "--n", "50", "--workers", "1", "--out", "w.json"]
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir / "fresh"))
    assert main(argv) == 0
    fresh = files(outdir / "fresh")
    assert len(fresh["w.json.ckpt"]) < len(fresh["w.json"])
    code, err = limited_run(argv, outdir / "limited",
                            (len(fresh["w.json.ckpt"]) + len(fresh["w.json"])) // 2)
    assert code == 2
    assert err.splitlines() == [f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"]
    assert files(outdir / "limited") == {"w.json.ckpt": fresh["w.json.ckpt"]}


def test_checkpoint_append_over_the_file_size_limit_is_one_warning(outdir, monkeypatch):
    # A resumed checkpoint padded with blank lines to just under the limit:
    # its first append fails, which is one warning, and every other file,
    # each under the limit, is the fresh run's.
    argv = ["sweep", "--grid", "2x2", "--n", "5", "--workers", "1", "--out", "s.json"]
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(outdir / "fresh"))
    assert main(argv) == 0
    fresh = files(outdir / "fresh")
    ckpt = fresh.pop("s.json.ckpt")
    limit = 1 + max(map(len, fresh.values()))
    cut = b"".join(ckpt.splitlines(keepends=True)[:2])
    (outdir / "limited").mkdir()
    (outdir / "limited" / "s.json.ckpt").write_bytes(cut.ljust(limit - 1, b"\n"))
    code, err = limited_run(argv, outdir / "limited", limit)
    assert code == 0
    assert err.splitlines() == [f"persistence warning: level 1: checkpoint write failed: "
                                f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"]
    written = files(outdir / "limited")
    assert len(written.pop("s.json.ckpt")) == limit
    assert written == fresh


# The small runs whose checkpoints test_damaged_checkpoint_resumes_or_exits_two damages.
DAMAGED_RUNS = {
    "sweep": ["sweep", "--grid", "2x2", "--n", "5", "--seed", "3", "--workers", "1"],
    "tomography": ["tomography", "--ctid", "0.5", "--ctd", "0.5", "--n", "5", "--seed", "3",
                   "--workers", "1"],
}
DAMAGES = ("bit flip", "byte insert", "byte delete", "digit change", "duplicated line",
           "truncation")


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory) -> dict[str, dict[str, bytes]]:
    """The files a fresh run of each of ``DAMAGED_RUNS`` writes, by run."""
    runs = {}
    for name, argv in DAMAGED_RUNS.items():
        out = tmp_path_factory.mktemp(name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(out / "doc.json")]) == 0
        runs[name] = files(out)
    return runs


def damage(data, text: bytes) -> bytes:
    """``text`` with one mutation of ``DAMAGES`` drawn from ``data``."""
    kind = data.draw(st.sampled_from(DAMAGES), label="damage")
    index = st.integers(0, len(text) - 1)
    if kind == "bit flip":
        i, bit = data.draw(index), data.draw(st.integers(0, 7))
        return text[:i] + bytes([text[i] ^ 1 << bit]) + text[i + 1:]
    if kind == "byte insert":
        i, byte = data.draw(st.integers(0, len(text))), data.draw(st.integers(0, 255))
        return text[:i] + bytes([byte]) + text[i:]
    if kind == "byte delete":
        i = data.draw(index)
        return text[:i] + text[i + 1:]
    if kind == "digit change":
        i = data.draw(st.sampled_from([i for i, c in enumerate(text) if chr(c).isdigit()]))
        digit = data.draw(st.sampled_from([d for d in b"0123456789" if d != text[i]]))
        return text[:i] + bytes([digit]) + text[i + 1:]
    lines = text.splitlines(keepends=True)
    if kind == "duplicated line":
        k = data.draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:k + 1] + lines[k:])
    return text[:data.draw(index)]  # truncation


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(DAMAGED_RUNS)), data=st.data())
def test_damaged_checkpoint_resumes_or_exits_two(fresh_runs, name, data):
    # One mutation of a finished run's checkpoint: the rerun either resumes
    # it and writes the fresh run's document and tables, or exits 2 with one
    # line on stderr and leaves the checkpoint as it found it.  No damaged
    # value is ever resumed as measured.
    fresh = dict(fresh_runs[name])
    damaged = damage(data, fresh.pop("doc.json.ckpt"))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "doc.json.ckpt").write_bytes(damaged)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(DAMAGED_RUNS[name] + ["--out", str(Path(tmp) / "doc.json")])
        written = files(Path(tmp))
    if code == 0:
        written.pop("doc.json.ckpt")
        assert written == fresh and err.getvalue() == ""
    else:
        assert code == 2 and written == {"doc.json.ckpt": damaged}
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_split_level_beyond_the_address_space_exits_two(outdir, capsys, monkeypatch):
    # The shared mapping of a split level that no address space holds fails
    # before any worker starts, as an unsplit level's allocation does.
    fake_cpus(monkeypatch, 2)
    assert main(["walk", "--n", str(10**18), "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_temporary_siblings_take_unique_names(outdir, monkeypatch):
    # A directory at the old fixed temporary name of the flat table.
    argv = ["walk", "--n", "50", "--out", "w.json", "--workers", "1"]
    assert main(argv) == 0
    fresh = {p.name: p.read_bytes() for p in outdir.iterdir()}
    monkeypatch.setenv("MESHWALK_OUT_DIR", str(outdir / "again"))
    (outdir / "again" / "w.json.csv.tmp").mkdir(parents=True)
    assert main(argv) == 0
    written = {p.name: p.read_bytes() for p in (outdir / "again").iterdir() if p.is_file()}
    assert written == fresh


def test_rerun_removes_the_temporaries_killed_writers_left(outdir, monkeypatch):
    # A writer killed mid-save leaves its temporary; the next write of that
    # path removes it.  A temporary that a live writer holds under flock
    # stays, and so does every sibling that is not a regular file named as
    # a temporary of a path the run writes.
    argv = ["walk", "--n", "50", "--out", "w.json", "--workers", "1"]
    assert main(argv) == 0
    fresh = files(outdir)
    again = outdir / "again"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(again))
    again.mkdir()
    stale = ["w.json.k1ll_3d0.tmp", "w.json.csv.abcdefgh.tmp"]
    held = "w.json.held0000.tmp"
    kept = [held, "w.json.abcdefg.tmp", "w.json.ABCDEFGH.tmp", "x.json.abcdefgh.tmp",
            "w.json.abcdefgh.tmp.bak", "w.json.csv.tmp"]
    for name in stale + kept:
        (again / name).write_text("half a file")
    (again / "w.json.dir00000.tmp").mkdir()
    (again / "w.json.link0000.tmp").symlink_to(again / "w.json.abcdefg.tmp")
    with open(again / held, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(argv) == 0
    assert sorted(p.name for p in again.iterdir()) == sorted(
        [*fresh, *kept, "w.json.dir00000.tmp", "w.json.link0000.tmp"])
    assert {name: (again / name).read_bytes() for name in fresh} == fresh
    assert all((again / name).read_text() == "half a file" for name in kept)


def test_slice_declares_enaqt(outdir, capsys):
    assert main(["slice", "--ctid", "1.0", "--points", "5", "--n", "400",
                 "--seed", "303", "--out", "sl.json", "--workers", "2"]) == 0
    report = json.loads((outdir / "sl.json").read_text())
    assert report["declared"] is True
    assert report["enhance_modes"] == [5, 10]
    assert (outdir / "sl.json.csv").read_text().startswith(
        "c_tid,c_td,layer,eta_enhance")
    assert "ENAQT declared: yes" in capsys.readouterr().out


def test_failed_report_write_leaves_previous_report(outdir, capsys, monkeypatch):
    args = ["slice", "--points", "3", "--n", "20", "--out", "r.json", "--workers", "1"]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    dump = json.dump

    def dump_failing_on_report(obj, *rest, **kwargs):
        if "declared" in obj:
            raise OSError("disk full")
        dump(obj, *rest, **kwargs)

    monkeypatch.setattr(json, "dump", dump_failing_on_report)
    assert main(args) == 2
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_rounding_noise_is_no_change(outdir, capsys):
    # On the 6 x 3 mesh the default enhance set 2,5 has efficiency 1/4 at
    # every c_td in exact arithmetic, so its computed curve moves by rounding
    # alone: every difference and significance must read +0.
    assert main(["slice", "--modes", "0", "--depth", "3", "--points", "3", "--n", "20",
                 "--out", "d3.json", "--workers", "1"]) == 0
    report = json.loads((outdir / "d3.json").read_text())
    assert report["enhance_modes"] == [2, 5] and report["declared"] is False
    for key in ("rise", "rise_significance", "deplete_change", "deplete_significance",
                "prominence", "prominence_significance", "downturn", "downturn_significance"):
        assert (report[key], math.copysign(1.0, report[key])) == (0.0, 1.0), key


def test_rounding_noise_picks_no_maximum(outdir, capsys):
    # The same flat curve, computed as 0.24999999999999994, 0.25 and
    # 0.24999999999999997: its maximum is the first point, a boundary one.
    assert main(["slice", "--modes", "0", "--depth", "3", "--points", "3", "--n", "20",
                 "--workers", "1"]) == 0
    report = json.loads((outdir / "slice_ctid0.842_n20.json").read_text())
    assert (report["argmax_index"], report["interior_maximum"]) == (0, False)
    assert "curve maximum: c_td = 0.0000 (boundary)" in capsys.readouterr().out


def test_threshold_must_be_positive_and_finite(outdir, capsys):
    for command in (["slice"], ["deep", "--depth", "3"]):
        for bad in ("-1", "0", "nan", "inf"):
            assert main(command + ["--threshold", bad, "--points", "3", "--n", "5",
                                   "--workers", "1"]) == 1
    assert capsys.readouterr().err.count("--threshold must be positive and finite") == 8
    assert not list(outdir.iterdir())


# sha256 of every file small walk, tomography, sweep and slice runs write, and
# of a tomography of 16384 realizations, which a pool of two splits into two
# ranges.  A change that moves any bit of a result, or of its layout, shows
# here, and so does a change of the plan's screen policy, which every
# document and checkpoint names.  The floats come from numpy's cos and sin, so
# other numpy builds may differ.
DIGESTS = {
    "slice.json": "eddf78e5db607e0abe7a65f882a00063949f9abec96c8323147b34f457b99e80",
    "slice.json.csv": "94e65077dfc625f8ca29cb09d193cb9a2cff61f7bda2e79d0c6c24db2cdf84da",
    "slice.json.result.json": "7d79794fe5027749edc1c5fd7c20bc30c44602f8b9e2add03b0a980ac55f235f",
    "slice.json.result.json.ckpt":
        "bbd8a7eeacb6c07232391d3e91af2335ef31577660cb0adf157c8fc125240dca",
    "split.json": "aee66bae90cc5d53d3d023ceb4da015b0010b20e4a2291a5d0ba203958823fec",
    "split.json.ckpt": "d4ce6ab71115a71b331939ea039e92b943b4cf7b2614fcc2c062381120d62ae8",
    "split.json.csv": "5d01bce21f08278356742a5ca41766679771e3417f62ff25e50a589d41854b7b",
    "sweep.json": "7314356c5e26470e7d7f26f18ec692b2ede5384f3594de767690c2b294904886",
    "sweep.json.ckpt": "cd0bc09d787489e2f7d1f28a13f6e175900c7dde695d5a991df691f6111e6dab",
    "sweep.json.csv": "c09e877b87139f6dbb64d73fa5d02e9756f6314002d3ead7602296db6f38f706",
    "sweep.json.mode3.csv": "7c65909c009c45d4fe6a747829a3220754007e48a0c0733bbd0448cf19e9f733",
    "sweep.json.mode4.csv": "1bd004b5f2b24fc48c1a4fed811420721f0c5c54bc5d57fead8335d1c5f1beeb",
    "sweep.json.mode5.csv": "56e2aa5ae9f2e3c7234c2e79f16f0cae5a3cde3ed71d0579053b7593cf07cc6e",
    "sweep.json.mode6.csv": "2dc82015fc44bfb3e6e9228f3ab89b376e4766ad5e34c862fc36f59e4dd0418d",
    "sweep.json.mode7.csv": "deddbe158b6ed97508eba925d33159a76916b99dfb67ce312aaafb29888964fb",
    "tomo.json": "7bec37c528fc1c1e853eda200d62cd2824b0795ae00c896ac9d4447505088541",
    "tomo.json.ckpt": "9167e7abdf71672d00ecf225c1475b06187d53baedf7914efae41f64d4c4f012",
    "tomo.json.csv": "73f3ff9efd46ad9a77be3cbae73ccf59ec7dabfdf0be427826a44ab86804b723",
    "walk.json": "3cff4c385fbab5b08cc61147a8220d165f00966d4585bfdb1b639b1949b64b01",
    "walk.json.ckpt": "2faf89bf0e9295751e6facd97b65b1618b5e03413451e847c55c6d1f8cb69d20",
    "walk.json.csv": "c783c6f6e4b9395729feef53fc7c82d532ecda80b69e7313def574ba5a72c351",
}


# numpy's dispatch held back to AVX2 in the digest commands' second run.
# Under its SSE baseline the bytes differ (README, Determinism).
AVX2_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"


def digests_of(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_outputs_keep_their_digests(outdir):
    commands = (
        ["walk", "--ctid", "0.5", "--ctd", "0.5", "--n", "60", "--seed", "9",
         "--out", "walk.json"],
        ["tomography", "--ctid", "0.3", "--ctd", "0.6", "--n", "40", "--seed", "9",
         "--out", "tomo.json"],
        ["sweep", "--grid", "3x3", "--n", "20", "--seed", "5", "--out", "sweep.json"],
        ["slice", "--points", "3", "--n", "50", "--seed", "7", "--out", "slice.json"],
        ["tomography", "--ctid", "0.842", "--ctd", "0.5", "--n", "16384", "--seed", "9",
         "--out", "split.json"])
    for command in commands:
        assert main(command + ["--workers", "1"]) == 0
    assert digests_of(outdir) == DIGESTS
    for path in outdir.glob("*.csv"):
        assert csv_numbers(path), path.name
    # The same commands in fresh processes, with numpy's dispatch held to AVX2,
    # at two workers: on two CPUs or more, sweep and slice run through the
    # pool, and split.json's level in two ranges and seven reduce tasks.
    avx2 = outdir / "avx2"
    env = dict(subprocess_env(avx2), NPY_DISABLE_CPU_FEATURES=AVX2_DISPATCH)
    for command in commands:
        run = subprocess.run([sys.executable, "-m", "meshwalk.cli", *command, "--workers", "2"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    assert digests_of(avx2) == DIGESTS


def csv_numbers(path: Path) -> list[float]:
    """Every cell of a written CSV but its header row or a heatmap's corner label, as floats.

    ``float`` raises on a cell that is not a plain number, such as numpy 2's
    ``np.float64(0.5)``.
    """
    first, *rows = path.read_text().splitlines()
    head = first.split(",")
    cells = head[1:] if head[0] == "c_tid\\c_td" else []
    for row in rows:
        cells += row.split(",")
    return [float(cell) for cell in cells]


def test_csv_bytes_do_not_depend_on_numpy_scalar_repr(outdir):
    # numpy 2 writes a scalar's repr as np.float64(x) unless told to print as
    # 1.25 did; numpy 1.x has only the plain form, so both runs there are alike.
    legacy = "1.25" if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else False
    for command in (["slice"], ["deep", "--depth", "3"]):
        tables = []
        for name, options in (("plain", {}), ("legacy", {"legacy": legacy})):
            out = f"{command[0]}_{name}.json"
            with np.printoptions(**options):
                assert main(command + ["--points", "3", "--n", "20", "--out", out,
                                       "--workers", "1"]) == 0
            tables.append((outdir / f"{out}.csv").read_bytes())
            assert len(csv_numbers(outdir / f"{out}.csv")) == 3 * 7
        assert tables[0] == tables[1], command


def test_slice_without_localization_not_declared(outdir, capsys):
    assert main(["slice", "--ctid", "0.0", "--points", "5", "--n", "400",
                 "--seed", "303", "--out", "s0.json", "--workers", "2"]) == 0
    report = json.loads((outdir / "s0.json").read_text())
    assert report["declared"] is False


def test_deep_smoke_small_depth(outdir, capsys):
    assert main(["deep", "--depth", "4", "--ctid", "1.0", "--points", "5",
                 "--n", "200", "--out", "d.json", "--workers", "1"]) == 0
    report = json.loads((outdir / "d.json").read_text())
    # depth 4 -> 8 modes, offset round(4/3) = 1: enhance {3, 6}, deplete {4, 5}
    assert report["enhance_modes"] == [3, 6]
    assert report["deplete_modes"] == [4, 5]
    assert "curve maximum" in capsys.readouterr().out


def test_slice_default_mode_sets_follow_the_mesh(outdir, capsys):
    # The deplete set is the center pair, the enhance set that pair offset
    # outward by max(round(depth / 3), 1): on 16 modes at depth 7, 8,9 and 6,11.
    assert main(["slice", "--modes", "16", "--points", "4", "--n", "300",
                 "--out", "m16.json", "--workers", "1"]) == 0
    report = json.loads((outdir / "m16.json").read_text())
    assert report["enhance_modes"] == [6, 11]
    assert report["deplete_modes"] == [8, 9]


def test_slice_deplete_option(outdir, capsys):
    # --deplete 7,8 names the default set on 14 modes, so the report and
    # table are the default run's bytes; another set is reported as given.
    args = ["slice", "--points", "3", "--n", "50", "--seed", "7", "--workers", "1"]
    for out, deplete in (("default.json", []), ("center.json", ["--deplete", "7,8"]),
                         ("outer.json", ["--deplete", "6,9"])):
        assert main(args + deplete + ["--out", out]) == 0
    for suffix in ("", ".csv"):
        assert ((outdir / f"center.json{suffix}").read_bytes()
                == (outdir / f"default.json{suffix}").read_bytes()), suffix
    assert json.loads((outdir / "default.json").read_text())["deplete_modes"] == [7, 8]
    assert json.loads((outdir / "outer.json").read_text())["deplete_modes"] == [6, 9]


def test_fit_command_on_localized_run(outdir, capsys):
    assert main(["walk", "--ctid", "1", "--ctd", "0", "--n", "2000", "--seed", "21",
                 "--out", "loc.json", "--workers", "1"]) == 0
    capsys.readouterr()
    expected = {
        ("--family", "both"): """\
laplace    location=7.486835  scale=2.314720  amplitude=0.231753  E=1.006289e-03
gaussian   location=7.494373  scale=2.238222  amplitude=0.172860  E=2.727957e-03
better fit: laplace (E 1.006289e-03 vs 2.727957e-03)
""",
        ("--unit-area",): """\
laplace    location=7.486846  scale=2.285315  amplitude=0.186960  E=1.019156e-03
gaussian   location=7.494390  scale=2.295766  amplitude=0.170150  E=2.806604e-03
better fit: laplace (E 1.019156e-03 vs 2.806604e-03)
""",
        ("--pin-center",): """\
laplace    location=7.500000  scale=2.314812  amplitude=0.231752  E=1.010179e-03
gaussian   location=7.500000  scale=2.238235  amplitude=0.172859  E=2.728331e-03
better fit: laplace (E 1.010179e-03 vs 2.728331e-03)
""",
        ("--pin-center", "--unit-area"): """\
laplace    location=7.500000  scale=2.285376  amplitude=0.185887  E=1.023073e-03
gaussian   location=7.500000  scale=2.295777  amplitude=0.170060  E=2.806972e-03
better fit: laplace (E 1.023073e-03 vs 2.806972e-03)
""",
    }
    for flags, text in expected.items():
        assert main(["fit", "--in", str(outdir / "loc.json"), *flags]) == 0
        assert capsys.readouterr().out == text
    # The walk document holds level 0 at the final layer 7 only.
    for flags, level, layer in ((("--layer", "3"), 0, 3), (("--level-index", "1"), 1, 7)):
        assert main(["fit", "--in", str(outdir / "loc.json"), *flags]) == 1
        assert (f"result has no record for level {level}, layer {layer}"
                in capsys.readouterr().err)


def test_allocation_failure_exits_two(outdir, capsys):
    # 10**15 realizations ask for petabytes, beyond the address space, so the
    # allocation fails at once and touches no memory.
    for command in (["walk", "--workers", "1"], ["sweep", "--grid", "2x2", "--workers", "2"]):
        assert main(command + ["--n", str(10**15)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_out_dir_env_respected(tmp_path, monkeypatch):
    nested = tmp_path / "deep" / "er"
    monkeypatch.setenv("MESHWALK_OUT_DIR", str(nested))
    assert main(["walk", "--n", "2", "--out", "w.json", "--workers", "1"]) == 0
    assert (nested / "w.json").exists()
