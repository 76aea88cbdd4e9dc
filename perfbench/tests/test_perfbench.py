"""Tests of the benchmark's own logic: checker, metric names, formulas, spans."""

import json
import re
import struct
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _document(mean, std_error, plan_hash="p" * 64) -> bytes:
    doc = {
        "format": "meshwalk-sweep-result/1",
        "plan": {"num_modes": 4, "depth": 2, "grid": [[0.5, 0.5]], "read_layers": [2],
                 "realizations_per_level": 100},
        "plan_hash": plan_hash,
        "records": [{"level_index": 0, "read_layer": 2, "mean": mean,
                     "std_error": std_error}],
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


GOOD = _document([0.125, 0.375, 0.375, 0.125], [0.01, 0.02, 0.02, 0.01])


def _flip_lowest_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


class TestChecker:
    def test_reference_document_passes(self):
        result = check.check_document(GOOD, check.reference_from_document(GOOD))
        assert result.problems == []
        assert result.realizations == 100
        assert result.max_std_error == 0.02

    def test_one_flipped_float_rejected_by_digest(self):
        reference = check.reference_from_document(GOOD)
        flipped = _document([_flip_lowest_bit(0.125), 0.375, 0.375, 0.125],
                            [0.01, 0.02, 0.02, 0.01])
        problems = check.check_document(flipped, reference).problems
        assert any("different document bytes" in p for p in problems)

    def test_flipped_float_rejected_by_norm_and_reference(self):
        # Another plan: the digest does not apply, the invariants still do.
        reference = check.reference_from_document(GOOD)
        flipped = _document([0.125, 0.875, 0.375, 0.125], [0.01, 0.02, 0.02, 0.01],
                            plan_hash="q" * 64)
        problems = " ".join(check.check_document(flipped, reference).problems)
        assert "sum(mean)" in problems
        assert "from the reference" in problems
        assert "mirror residual" in problems

    def test_torn_document_rejected(self):
        reference = check.reference_from_document(GOOD)
        problems = check.check_document(GOOD[: len(GOOD) // 2], reference).problems
        assert problems and problems[0].startswith("unreadable document")

    def test_negative_or_nonfinite_error_rejected(self):
        reference = check.reference_from_document(GOOD)
        negative = _document([0.125, 0.375, 0.375, 0.125], [0.01, -0.02, 0.02, 0.01])
        assert "negative standard error" in check.check_document(negative, reference).problems
        nan = GOOD.replace(b"0.01", b"NaN", 1)
        assert "non-finite" in " ".join(check.check_document(nan, reference).problems)

    def test_deterministic_cells_allow_rounding_floor(self):
        diff = check.se_units([1e-13, 0.0], [0.0, 0.0], check.ABS_TOL)
        assert diff == 0.0
        assert check.se_units([1e-6], [0.0], check.ABS_TOL) == float("inf")

    def test_report_must_declare(self):
        assert check.check_report(b'{"declared": true}') == []
        assert check.check_report(b'{"declared": false}') == ["ENAQT not declared"]
        assert check.check_report(b'{"decl')[0].startswith("unreadable")


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
        assert len(names) == len(set(names))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
        for name in run.WORKLOADS:
            assert NAME.fullmatch(name), name

    def test_benchmark_json_matches_the_benchmark(self):
        path = BENCH.parent / "BENCHMARK.json"
        if not path.exists():
            pytest.skip("no BENCHMARK.json next to the benchmark")
        spec = json.loads(path.read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _invocation(wall, setup, max_se, realizations=1000):
    result = check.Check(max_std_error=max_se,
                         plan={"grid": [[0.0, 0.0]] * 10, "realizations_per_level":
                               realizations // 10})
    return run.Invocation(exit_code=0, wall_s=wall, setup_s=setup, main_s=wall - setup,
                          cpu_s=wall, peak_rss_mb=50.0, output_bytes=0,
                          checkpoint_bytes=0, check=result, sidecar={})


class TestEndToEndFormulas:
    def test_time_to_target_se(self):
        samples = run.end_to_end([_invocation(3.0, 1.0, 2e-3)])
        # (wall - setup) * (max SE / 1e-3)^2 = 2 s * 4
        assert samples["time_to_target_se_s"] == [pytest.approx(8.0)]
        assert samples["realizations_per_s"] == [pytest.approx(500.0)]

    def test_failed_invocations_are_left_out(self):
        bad = _invocation(9.0, 1.0, 2e-3)
        bad.check.problems.append("broken")
        samples = run.end_to_end([_invocation(3.0, 1.0, 1e-3), bad])
        assert samples["wall_s"] == [3.0]
        assert samples["time_to_target_se_s"] == [pytest.approx(2.0)]


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans = [
            ["level", 0.0, 10.0, -1],
            ["stacks", 1.0, 4.0, 0],
            ["sample", 2.0, 3.0, 1],
            ["reduce", 5.0, 9.0, 0],
        ]
        assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
        summary = tracing.summarize(spans)
        assert summary["stacks"]["self_s"] == pytest.approx(2.0)
        assert summary["level"]["total_s"] == pytest.approx(10.0)
        assert tracing.coverage(spans) == pytest.approx(0.7)

    def test_overlapping_children_counted_once(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 6.0, 0], ["c", 4.0, 12.0, 0]]
        # children cover [1, 10] of the parent
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_wrapper_records_nesting_and_absent_targets(self, monkeypatch):
        import types

        module = types.ModuleType("meshwalk_bench_fake")
        module.outer = lambda: module.inner() + 1
        module.inner = lambda: 1
        monkeypatch.setitem(sys.modules, "meshwalk_bench_fake", module)
        recorder = tracing.Recorder()
        tracing.install(recorder, (("meshwalk_bench_fake", "outer", "outer"),
                                   ("meshwalk_bench_fake", "inner", "inner"),
                                   ("meshwalk_bench_fake", "gone", "gone")))
        assert module.outer() == 2
        assert [(s[0], s[3]) for s in recorder.spans] == [("outer", -1), ("inner", 0)]
        assert recorder.absent == ["meshwalk_bench_fake.gone"]

    def test_propagate_cost_counts(self):
        flops, nbytes = tracing.propagate_cost(4, 2, [2])
        # 3 cells * 28 + 2 layers * 4 modes * 6 + 4 modes * 3
        assert flops == 84 + 48 + 12
        assert nbytes == 2 * 4 * 48 + 3 * 64 + 2 * 4 * 48 + 4 * 24
