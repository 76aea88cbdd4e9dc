"""Correctness checks on the files one meshwalk CLI invocation wrote.

An ensemble result document passes when:
- it parses and holds one record per (level, read layer) of its plan;
- every mean and standard error is finite and every standard error >= 0;
- every record's means sum to 1 within NORM_TOL (the mesh is lossless);
- the mean is mirror symmetric about the injection pair within MIRROR_K
  combined standard errors (the disorder law is sign- and mirror-symmetric);
- if its plan hash equals the reference's, its bytes hash to the reference
  digest (same plan, byte-identical document); otherwise every mean lies
  within REF_K combined standard errors of the reference mean.
An ENAQT report passes when it parses and declares ENAQT.

Differences of deterministic cells (standard error 0) are allowed a
rounding floor: ABS_TOL between two computed means, REF_ABS_TOL against the
reference, whose values are stored to 10 significant digits.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
MIRROR_K = 6.0
REF_K = 6.0
ABS_TOL = 1e-12
REF_ABS_TOL = 1e-9


@dataclass
class Check:
    problems: list[str] = field(default_factory=list)
    sha256: str = ""
    norm_residual_max: float = 0.0
    mirror_residual_se_max: float = 0.0
    ref_dev_se_max: float = 0.0
    max_std_error: float = math.nan
    plan: dict = field(default_factory=dict)

    @property
    def realizations(self) -> int:
        """Realizations propagated: levels x realizations per level."""
        return len(self.plan.get("grid", ())) * self.plan.get("realizations_per_level", 0)


def se_units(diff: np.ndarray, combined: np.ndarray, floor: float) -> float:
    """Largest |diff| beyond ``floor``, in units of ``combined`` standard error.

    A difference beyond the floor where the standard error is 0 is infinite.
    """
    excess = np.maximum(np.abs(diff) - floor, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(excess > 0, excess / combined, 0.0)
    return float(z.max()) if z.size else 0.0


def load_reference(path: str) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def reference_from_document(raw: bytes) -> dict:
    """The reference record of a document: digest, plan hash and rounded means."""
    doc = json.loads(raw)

    def rnd(rows):
        return [[float(f"{v:.10g}") for v in row] for row in rows]

    return {
        "plan_hash": doc["plan_hash"],
        "sha256": hashlib.sha256(raw).hexdigest(),
        "keys": [[r["level_index"], r["read_layer"]] for r in doc["records"]],
        "mean": rnd(r["mean"] for r in doc["records"]),
        "std_error": rnd(r["std_error"] for r in doc["records"]),
    }


def check_document(raw: bytes, reference: dict) -> Check:
    check = Check(sha256=hashlib.sha256(raw).hexdigest())
    try:
        doc = json.loads(raw)
        plan, records = doc["plan"], doc["records"]
        keys = [(r["level_index"], r["read_layer"]) for r in records]
        mean = np.array([r["mean"] for r in records], dtype=float)
        se = np.array([r["std_error"] for r in records], dtype=float)
        expected = {(i, t) for i in range(len(plan["grid"])) for t in plan["read_layers"]}
    except (ValueError, KeyError, TypeError) as exc:
        check.problems.append(f"unreadable document: {exc!r}")
        return check
    check.plan = plan
    if sorted(keys) != sorted(expected) or mean.ndim != 2 or mean.shape != se.shape:
        check.problems.append("records do not cover the plan")
        return check
    if not (np.isfinite(mean).all() and np.isfinite(se).all()):
        check.problems.append("non-finite mean or standard error")
        return check
    if (se < 0).any():
        check.problems.append("negative standard error")
    check.max_std_error = float(se.max())

    check.norm_residual_max = max(abs(math.fsum(row) - 1.0) for row in mean)
    if check.norm_residual_max > NORM_TOL:
        check.problems.append(f"|sum(mean) - 1| = {check.norm_residual_max:.3g} > {NORM_TOL}")

    check.mirror_residual_se_max = se_units(mean - mean[:, ::-1],
                                            np.hypot(se, se[:, ::-1]), ABS_TOL)
    if check.mirror_residual_se_max > MIRROR_K:
        check.problems.append(
            f"mirror residual {check.mirror_residual_se_max:.3g} SE > {MIRROR_K}")

    if doc.get("plan_hash") == reference["plan_hash"] and check.sha256 != reference["sha256"]:
        check.problems.append("same plan as the reference but different document bytes")
    if [list(k) for k in keys] != reference["keys"] or mean.shape != np.shape(reference["mean"]):
        check.problems.append("records do not match the reference records")
        return check
    ref_mean = np.array(reference["mean"])
    ref_se = np.array(reference["std_error"])
    check.ref_dev_se_max = se_units(mean - ref_mean, np.hypot(se, ref_se), REF_ABS_TOL)
    if check.ref_dev_se_max > REF_K:
        check.problems.append(f"mean {check.ref_dev_se_max:.3g} SE from the reference > {REF_K}")
    return check


def check_report(raw: bytes) -> list[str]:
    try:
        declared = json.loads(raw)["declared"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable ENAQT report: {exc!r}"]
    return [] if declared is True else ["ENAQT not declared"]


def check_outputs(out_dir: str, workload, reference: dict) -> Check:
    """Check every file ``workload`` should have written into ``out_dir``."""
    def read(name):
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()

    try:
        check = check_document(read(workload.document), reference)
    except OSError as exc:
        return Check(problems=[f"missing document: {exc}"])
    if workload.report is not None:
        try:
            check.problems += check_report(read(workload.report))
        except OSError as exc:
            check.problems.append(f"missing report: {exc}")
    for name in workload.outputs:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            check.problems.append(f"missing or empty output {name}")
    return check
