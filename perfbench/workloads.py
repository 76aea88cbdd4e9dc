"""The benchmark's workloads: one ``meshwalk`` CLI command each.

Each workload is a CLI invocation at its defaults except for ``--n``, which
is scaled down from the default so that several invocations fit in one
measured run.  Scaling ``--n`` keeps each stage's share of a level: the
stages cost a fixed time per realization, and every level here still fits
in one or a few ``_CHUNK`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20170301  # meshwalk.cli.DEFAULT_SEED, the reference seed
# ``--held-out`` maps a benchmark seed into this disjoint range, so a seed
# used while tuning a change is never the one that confirms it.
HELD_OUT_BASE = 1_000_000_000
WORKERS = 2  # one worker per core of the 2-core host the baseline was measured on


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments before --seed and --workers
    document: str          # the ensemble result document, relative to the out dir
    report: str | None     # the ENAQT report of slice/deep, which must declare
    outputs: tuple[str, ...]  # every other file the command must write

    def cli_argv(self, seed: int, workers: int) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--workers", str(workers)]


def _slice_like(name, argv, stem):
    return Workload(name, argv, document=f"{stem}.result.json", report=stem,
                    outputs=(f"{stem}.csv", f"{stem}.result.json.ckpt"))


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Default 20 000 per level; sample is about 80% of a level at 14x7.
        _slice_like("slice-14x7", ("slice", "--n", "4000"), "slice_ctid0.842_n4000.json"),
        # Default 20 000 per level; screens + propagate dominate at 30x15.
        _slice_like("deep-30x15", ("deep", "--n", "2000"),
                    "deep_depth15_ctid0.842_n2000.json"),
        # One level never enters the pool; its 7 stacks of 50 000 x 14 set peak RSS.
        Workload(
            "tomo-14x7-1level",
            ("tomography", "--ctid", "0.842", "--ctd", "0.5", "--n", "50000"),
            document="tomo_ctid0.842_ctd0.5_n50000.json",
            report=None,
            outputs=("tomo_ctid0.842_ctd0.5_n50000.json.csv",
                     "tomo_ctid0.842_ctd0.5_n50000.json.ckpt"),
        ),
        # CLI defaults: 400 levels x 200, so per-level cost and I/O dominate.
        Workload(
            "sweep-20x20",
            ("sweep",),
            document="sweep_20x20_n200.json",
            report=None,
            outputs=("sweep_20x20_n200.json.csv", "sweep_20x20_n200.json.ckpt",
                     *(f"sweep_20x20_n200.json.mode{m}.csv" for m in (3, 4, 5, 6, 7))),
        ),
    )
}
