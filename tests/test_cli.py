import contextlib
import errno
import fcntl
import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from meshwalk import DisorderSpec, EnsembleResult, LevelRecord, MeshSpec, SweepPlan
from meshwalk import cli, ensemble, programs
from meshwalk.cli import main
from conftest import CPUS, LaidOutPCG64, fake_cpus, subprocess_env


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
@:
:.
mode 4 (rows c_tid 0->1, cols c_td 0->1):
%@
-%
mode 5 (rows c_tid 0->1, cols c_td 0->1):
=@
:*
mode 6 (rows c_tid 0->1, cols c_td 0->1):
:=
*@
mode 7 (rows c_tid 0->1, cols c_td 0->1):
:=
@-
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


def test_runtime_error_exits_two(outdir):
    assert main(["fit", "--in", str(outdir / "missing.json")]) == 2


def test_malformed_document_exits_two(outdir, capsys):
    plan = SweepPlan(MeshSpec(), (DisorderSpec(0, 0),), 1, 1)
    doc = EnsembleResult(plan, {}).to_document()
    del doc["plan"]["depth"]
    path = outdir / "nodepth.json"
    path.write_text(json.dumps(doc))
    assert main(["fit", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "depth" in err and err.count("\n") == 1


def test_document_of_another_plan_exits_two(outdir, capsys):
    assert main(["walk", "--n", "3", "--out", "w.json", "--workers", "1"]) == 0
    path = outdir / "w.json"
    original = json.loads(path.read_text())

    def other_signs(doc):
        # The hash is recomputed, so only the sign pattern's name is foreign.
        doc["plan"]["policy"] = "uniform-sign"
        blob = json.dumps(doc["plan"], sort_keys=True, separators=(",", ":"))
        doc["plan_hash"] = hashlib.sha256(blob.encode()).hexdigest()

    # Records no longer belong to the plan, or were drawn by another generator
    # or with other signs.
    for key, edit in (("plan_hash", lambda doc: doc["plan"].update(master_seed=4)),
                      ("generator", lambda doc: doc.update(generator="another")),
                      ("policy", other_signs)):
        doc = json.loads(json.dumps(original))
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fit", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and key in err and err.count("\n") == 1


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
    # A PCG64 whose state struct does not keep the words draw_block writes,
    # in the run's process or in its forked workers.
    real = programs._state_layout
    monkeypatch.setattr(programs, "_state_layout",
                        lambda bits: real(LaidOutPCG64((1, 0, 3, None))))
    assert main(["sweep", "--grid", "2x2", "--n", "5", "--workers", workers,
                 "--out", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PCG64 keeps state words") and err.count("\n") == 1
    assert "cannot load its seeds" in err
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
    argv = ["slice", "--points", "4", "--n", "20000", "--workers", "1"]
    ckpt = outdir / "held" / "slice_ctid0.842_n20000.json.result.json.ckpt"
    with reaped(cli_process(argv, outdir / "held", stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)) as first:
        wait_for_lines(first, ckpt, 1)
        second = cli_process(argv, outdir / "held", stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        out, err = second.communicate(timeout=60)
        assert first.poll() is None, "the first run ended before the second met its lock"
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


# sha256 of every file small walk, tomography, sweep and slice runs write.  A
# change that moves any bit of a result, or of its layout, shows here.  The
# floats come from numpy's cos and sin, so other numpy builds may differ.
DIGESTS = {
    "slice.json": "51f9fc0c9455c61fa4d61d9a5d2049eec20af4c1bb4a63b329b36234eea5b899",
    "slice.json.csv": "c7b01b5778aa01fef13dd6c2d6433f7836a40dde6cb7baac56f32f18346b1457",
    "slice.json.result.json": "3771739934bc9564bbfd0342f9fe1bb3d62f0e6ac9d3d6bcec76b360c9a4746d",
    "slice.json.result.json.ckpt":
        "48d08d8de25e0ce6652eec4855d22711df846f8d2953a3459dd78f4f4b0ce088",
    "sweep.json": "203808a373cd1a2d447488f1b2e8535ded7f42d7b4e818ca79b9e91ee86b24c9",
    "sweep.json.ckpt": "93da985c37f70da54606372b235acc88ab66434013ffc518b442a5b98d16b296",
    "sweep.json.csv": "4b3913da9594c536fbf2b895f522d4de18851af911e0af1829c2d723ea9e452a",
    "sweep.json.mode3.csv": "df3b3f7c91f53df6ed145e2c38a585d929d2c1ee0222f0eec00b38a3c258c6ec",
    "sweep.json.mode4.csv": "7dc18d2a201a4cf33b5a870f36f7ab0ada58288db62bf59af5d5ba245c0ee9a8",
    "sweep.json.mode5.csv": "40847a1b82adff8b181f92cade147adf2c4e902582b95b117c85e0bf7770004f",
    "sweep.json.mode6.csv": "b70d0dfa2a0fb5a17975ce2aec416fbed43a212e15a7344ebbb87394aa4173d0",
    "sweep.json.mode7.csv": "7ec9e56d52f179e798aa7f488bba81db8b74b6d0794a3d72a2355ed2fd0be92b",
    "tomo.json": "d36c649991f80881b90e17db8d42e002e13c22981d025ddddb336fe3f4feef4d",
    "tomo.json.ckpt": "3fea31409169f50219273a97db097c4ffac383f4ed26db7dbc7c1a944e9e9f59",
    "tomo.json.csv": "0074f7939db311d514a1a016583fad64895b8164977e2e20e4578528bdda6f59",
    "walk.json": "7981ebe061f6b13646d307017eedd77efc57ed8bd06121429e199242096189c7",
    "walk.json.ckpt": "2ba64fba953a04b696b1aba5801cb8223ea3467cc94b435a5a0d510df31e74a0",
    "walk.json.csv": "550bca39a1c036f772888003af775e4d4e91fa4322ae5982bd2117d95a23a01c",
}


def test_outputs_keep_their_digests(outdir):
    for command in (
            ["walk", "--ctid", "0.5", "--ctd", "0.5", "--n", "60", "--seed", "9",
             "--out", "walk.json"],
            ["tomography", "--ctid", "0.3", "--ctd", "0.6", "--n", "40", "--seed", "9",
             "--out", "tomo.json"],
            ["sweep", "--grid", "3x3", "--n", "20", "--seed", "5", "--out", "sweep.json"],
            ["slice", "--points", "3", "--n", "50", "--seed", "7", "--out", "slice.json"]):
        assert main(command + ["--workers", "1"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(outdir.iterdir())}
    assert digests == DIGESTS
    for path in outdir.glob("*.csv"):
        assert csv_numbers(path), path.name


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


def test_fit_command_on_localized_run(outdir, capsys):
    assert main(["walk", "--ctid", "1", "--ctd", "0", "--n", "2000", "--seed", "21",
                 "--out", "loc.json", "--workers", "1"]) == 0
    capsys.readouterr()
    expected = {
        ("--family", "both"): """\
laplace    location=7.471830  scale=2.339634  amplitude=0.229603  E=1.166156e-03
gaussian   location=7.500677  scale=2.263426  amplitude=0.171269  E=2.884277e-03
better fit: laplace (E 1.166156e-03 vs 2.884277e-03)
""",
        ("--unit-area",): """\
laplace    location=7.471770  scale=2.310093  amplitude=0.186855  E=1.178851e-03
gaussian   location=7.501491  scale=2.318120  amplitude=0.168558  E=2.954456e-03
better fit: laplace (E 1.178851e-03 vs 2.954456e-03)
""",
        ("--pin-center",): """\
laplace    location=7.500000  scale=2.340403  amplitude=0.229580  E=1.183457e-03
gaussian   location=7.500000  scale=2.263412  amplitude=0.171269  E=2.884282e-03
better fit: laplace (E 1.183457e-03 vs 2.884282e-03)
""",
        ("--pin-center", "--unit-area"): """\
laplace    location=7.500000  scale=2.310604  amplitude=0.184573  E=1.196376e-03
gaussian   location=7.500000  scale=2.318103  amplitude=0.168536  E=2.954481e-03
better fit: laplace (E 1.196376e-03 vs 2.954481e-03)
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
