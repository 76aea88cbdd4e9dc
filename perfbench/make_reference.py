"""Record the reference result of every workload at the reference seed.

Run from the repository root: ``python3 perfbench/make_reference.py``.  It
writes ``perfbench/reference/<workload>.json.gz``: the plan hash and sha256
of the result document at seed 20170301, and its means and standard errors
to 10 significant digits.  Rerun it only when a change is meant to alter the
result documents, and say so and why.
"""

import gzip
import json
import os
import sys

from check import reference_from_document
from run import HERE, WORKERS, invoke
from workloads import DEFAULT_SEED, WORKLOADS

EMPTY_REFERENCE = {"plan_hash": "", "sha256": "", "keys": [], "mean": [], "std_error": []}


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        documents = []

        def collect(out_dir):
            path = os.path.join(out_dir, workload.document)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    documents.append(fh.read())

        inv = invoke(workload, DEFAULT_SEED, WORKERS, EMPTY_REFERENCE, timeout=600,
                     collect=collect)
        if inv.exit_code != 0 or not documents:
            print(f"{workload.name}: run failed: {inv.check.problems}", file=sys.stderr)
            return 1
        with gzip.GzipFile(out / f"{workload.name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(reference_from_document(documents[0])).encode())
        print(f"{workload.name}: sha256 {inv.check.sha256}, {inv.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
