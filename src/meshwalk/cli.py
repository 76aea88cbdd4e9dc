"""Command-line front end for mesh quantum-walk experiments.

Subcommands run and analyze disorder ensembles; a run command resumes from
its own checkpoint when an earlier run of the same plan left one.  Every
command is deterministic: identical flags and seed produce bit-identical
output files regardless of worker count.  Output documents are JSON, flat
tables are CSV (comma separator, header row, LF endings); heatmaps are plain
numeric CSV grids with an optional ASCII rendering.  Every number in a CSV is
Python's shortest round-trip ``repr`` of its value, the same under numpy 1.x
and 2.x.

Exit codes: 0 success, 1 usage error, 2 runtime/IO error, 3 degenerate
analysis input.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import analysis
from .analysis import DegenerateDistributionError, FitFamily
from .ensemble import (EnsembleResult, SweepPlan, csv_row, make_grid, run_sweep, write_json,
                       write_lines)
from .lattice import MeshSpec
from .programs import DisorderSpec

DEFAULT_SEED = 20170301
OUT_DIR_ENV = "MESHWALK_OUT_DIR"
_SHADES = " .:-=+*#%@"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        raise UsageError(message)


def _out_path(name: str, out: str | None, *siblings: str) -> str:
    path = os.path.join(os.environ.get(OUT_DIR_ENV, "."), out or name)  # keeps an absolute out
    # A last component of "", "." or ".." names a directory, existing or not.
    if os.path.basename(path) in ("", os.curdir, os.pardir):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for written in (path, *(path + s for s in siblings)):
        if os.path.isdir(written):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), written)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _parse_modes(text: str, num_modes: int) -> list[int]:
    if text.strip().lower() == "all":
        return list(range(1, num_modes + 1))
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad mode list {text!r}; expected comma-separated integers")


def positive_int(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build(factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with its ``ValueError`` as a usage error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run(plan: SweepPlan, out: str, workers: int | None, progress: bool = False) -> EnsembleResult:
    """``run_sweep`` to ``out``, with progress and persistence warnings on stderr."""
    result = run_sweep(plan, out_path=out, workers=workers,
                       progress=(lambda done, total:
                                 print(f"\r{done}/{total} levels", end="", file=sys.stderr))
                       if progress else None)
    if progress:
        print(file=sys.stderr)
    for err in result.io_errors:
        print(f"persistence warning: {err}", file=sys.stderr)
    return result


def _print_distribution(mean, std_error, header: str) -> None:
    print(header)
    print("mode    mean         std_error")
    for x in range(mean.size):
        print(f"{x + 1:4d}    {mean[x]:.6f}     {std_error[x]:.2e}")


def _ascii_heatmap(matrix: np.ndarray) -> str:
    top = matrix.max() or 1.0
    lines = []
    for row in matrix:
        lines.append("".join(_SHADES[min(int(v / top * (len(_SHADES) - 1)), len(_SHADES) - 1)]
                             for v in row))
    return "\n".join(lines)


def cmd_walk(args) -> int:
    spec = _build(MeshSpec, args.modes, args.depth, args.inject)
    level = _build(DisorderSpec, args.ctid, args.ctd)
    plan = _build(SweepPlan, spec, (level,), args.n, args.seed)
    out = _out_path(f"walk_ctid{args.ctid:g}_ctd{args.ctd:g}_n{args.n}.json", args.out, ".csv")
    result = _run(plan, out, args.workers)
    result.write_csv(out + ".csv")
    rec = result.record(0)
    _print_distribution(rec.mean, rec.std_error,
                        f"ensemble mean at c_tid={level.c_tid:g}, c_td={level.c_td:g}, "
                        f"N={args.n}, t_f={spec.depth}")
    print(f"sigma(t_f) = {analysis.width(rec.mean):.6f}")
    print(f"result document: {out}")
    print(f"flat table:      {out}.csv")
    return 0


def cmd_tomography(args) -> int:
    spec = _build(MeshSpec, args.modes, args.depth, args.inject)
    level = _build(DisorderSpec, args.ctid, args.ctd)
    layers = tuple(range(1, spec.depth + 1))
    plan = _build(SweepPlan, spec, (level,), args.n, args.seed, read_layers=layers)
    out = _out_path(f"tomo_ctid{args.ctid:g}_ctd{args.ctd:g}_n{args.n}.json", args.out, ".csv")
    result = _run(plan, out, args.workers)
    result.write_csv(out + ".csv")
    matrix = np.stack([result.record(0, t).mean for t in layers])
    print(f"mean intensity, rows = layers 1..{spec.depth}, cols = modes 1..{spec.num_modes}")
    for t, row in zip(layers, matrix):
        print(f"t={t}: " + " ".join(f"{v:.4f}" for v in row))
    print("heatmap:")
    print(_ascii_heatmap(matrix))
    if spec.depth >= 3:  # a log-log slope needs three layers
        try:
            exponent = f"{analysis.spread_exponent(matrix):.6f}"
        except DegenerateDistributionError as exc:  # a walker that never splits
            exponent = f"undefined ({exc})"
        print(f"spread exponent = {exponent}")
    print(f"result document: {out}")
    return 0


def cmd_sweep(args) -> int:
    spec = _build(MeshSpec, args.modes, args.depth, args.inject)
    try:
        n_tid, n_td = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad --grid {args.grid!r}; expected e.g. 20x20")
    if n_tid < 1 or n_td < 1:
        raise UsageError("grid dimensions must be >= 1")
    plan = _build(SweepPlan, spec, make_grid(n_tid, n_td), args.n, args.seed)
    heat_modes = [m for m in (3, 4, 5, 6, 7) if m <= spec.num_modes]
    out = _out_path(f"sweep_{n_tid}x{n_td}_n{args.n}.json", args.out, ".csv",
                    *(f".mode{mode}.csv" for mode in heat_modes))
    result = _run(plan, out, args.workers, progress=args.progress)
    result.write_csv(out + ".csv")
    # make_grid is row-major: level i is (tids[i // n_td], tds[i % n_td]).
    tids = [level.c_tid for level in plan.grid[::n_td]]
    tds = [level.c_td for level in plan.grid[:n_td]]
    means = np.stack([result.record(i).mean for i in range(len(plan.grid))])
    for mode in heat_modes:
        matrix = means[:, mode - 1].reshape(n_tid, n_td)
        write_lines(f"{out}.mode{mode}.csv", [csv_row(("c_tid\\c_td", *tds))]
                    + [csv_row((tid, *row)) for tid, row in zip(tids, matrix)])
        if args.ascii:
            print(f"mode {mode} (rows c_tid 0->1, cols c_td 0->1):")
            print(_ascii_heatmap(matrix))
    print(f"{len(result.records)} records; result document: {out}")
    return 0


def cmd_slice(args) -> int:
    if args.depth < 1:
        raise UsageError("--depth must be >= 1")
    spec = _build(MeshSpec, args.modes or 2 * args.depth, args.depth, args.inject)
    top, offset = spec.num_modes // 2, max(round(spec.depth / 3), 1)
    enhance = (_parse_modes(args.enhance, spec.num_modes) if args.enhance
               else [top - offset, top + 1 + offset])
    deplete = _parse_modes(args.deplete, spec.num_modes) if args.deplete else [top, top + 1]
    if args.points < 3:
        raise UsageError("--points must be >= 3")
    if args.n < 2:
        raise UsageError("--n must be >= 2: one realization per level has no standard error")
    if not 0 < args.threshold < float("inf"):
        raise UsageError(f"--threshold must be positive and finite, got {args.threshold}")
    if not args.enhance and top - offset < 1:
        raise UsageError(f"the default enhance set {enhance} does not fit {spec.num_modes} "
                         "modes; give --enhance")
    enhance = _build(analysis._check_modes, enhance, spec.num_modes)
    deplete = _build(analysis._check_modes, deplete, spec.num_modes)
    _build(DisorderSpec, args.ctid, 0.0)  # the requested row must be a valid c_tid
    rows = np.linspace(0.0, 1.0, args.points)
    used = analysis._nearest_row(rows, args.ctid)
    grid = tuple(DisorderSpec(used, float(td)) for td in rows)
    plan = _build(SweepPlan, spec, grid, args.n, args.seed)
    out = _out_path(args.name.format(ctid=args.ctid, n=args.n, depth=args.depth), args.out,
                    ".csv", ".result.json")
    result = _run(plan, out + ".result.json", args.workers)
    report = analysis.detect_enaqt(result, args.ctid, enhance, deplete,
                                   threshold=args.threshold)
    write_json(out, report.to_dict())
    write_lines(out + ".csv", report.to_rows())

    print(f"slice at c_tid={report.c_tid:.6g} (requested {args.ctid:g}), "
          f"N={args.n} per level, {args.points} dynamic-disorder points")
    print("c_td      eta_enhance  se          eta_deplete  se")
    for i in range(report.c_td.size):
        print(f"{report.c_td[i]:.4f}    {report.eta_enhance[i]:.6f}   "
              f"{report.se_enhance[i]:.2e}    {report.eta_deplete[i]:.6f}   "
              f"{report.se_deplete[i]:.2e}")
    print(f"enhance modes {report.enhance_modes}: best interior c_td = "
          f"{report.best_c_td:.4f}, rise = {report.rise:.6f} "
          f"({report.rise_significance:.1f} std errors)")
    print(f"deplete modes {report.deplete_modes}: change = {report.deplete_change:.6f} "
          f"({report.deplete_significance:.1f} std errors, opposite-signed)")
    print(f"curve maximum: c_td = {report.c_td[report.argmax_index]:.4f} "
          f"({'interior' if report.interior_maximum else 'boundary'}), "
          f"prominence over curve minimum = {report.prominence:.6f} "
          f"({report.prominence_significance:.1f} std errors), "
          f"downturn toward full noise = {report.downturn:.6f} "
          f"({report.downturn_significance:.1f} std errors)")
    print(f"ENAQT declared: {'yes' if report.declared else 'no'}")
    print(f"report: {out}")
    return 0


def cmd_fit(args) -> int:
    result = EnsembleResult.load(args.infile)
    layer = args.layer if args.layer else result.plan.spec.depth
    key = (args.level_index, layer)
    if key not in result.records:
        raise UsageError(f"result has no record for level {args.level_index}, layer {layer}")
    mean = result.records[key].mean
    families = ([FitFamily.LAPLACE, FitFamily.GAUSSIAN] if args.family == "both"
                else [FitFamily(args.family)])
    pin = result.plan.spec.num_modes / 2 + 0.5 if args.pin_center else None
    fits = [analysis.fit_distribution(mean, fam, pin_location=pin,
                                      unit_area=args.unit_area) for fam in families]
    for fit in fits:
        print(f"{fit.family.value:9s}  location={fit.location:.6f}  scale={fit.scale:.6f}  "
              f"amplitude={fit.amplitude:.6f}  E={fit.residual:.6e}")
    if len(fits) == 2:
        better = min(fits, key=lambda f: f.residual)
        print(f"better fit: {better.family.value} "
              f"(E {better.residual:.6e} vs "
              f"{max(f.residual for f in fits):.6e})")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="meshwalk",
                     description="Quantum-walk transport ensembles on a beamsplitter mesh")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mesh(p, modes=14, depth=7):
        p.add_argument("--modes", type=int, default=modes, help="waveguide count")
        p.add_argument("--depth", type=int, default=depth, help="time steps (cell layers)")
        p.add_argument("--inject", type=int, default=0,
                       help="injection mode (default: bottom port of the input cell)")

    def add_run(p, n_default):
        p.add_argument("--n", type=int, default=n_default, help="realizations per level")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
        p.add_argument("--out", help="output path (default under $MESHWALK_OUT_DIR)")
        p.add_argument("--workers", type=positive_int, default=None,
                       help="process count, at most the CPUs this process may use (default: "
                            "all); with fewer levels than processes, a level's realizations "
                            "are split into ranges of at least 8192; results do not depend on it")

    for command, func, summary in (
            ("walk", cmd_walk, "single disorder level, final-layer ensemble"),
            ("tomography", cmd_tomography, "single disorder level, ensemble at every layer")):
        p = sub.add_parser(command, help=summary)
        add_mesh(p)
        p.add_argument("--ctid", type=float, default=0.0, help="static disorder strength")
        p.add_argument("--ctd", type=float, default=0.0, help="dynamic disorder strength")
        add_run(p, 200)
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="full static x dynamic disorder grid")
    add_mesh(p)
    p.add_argument("--grid", default="20x20", help="levels as TIDxTD, e.g. 20x20")
    add_run(p, 200)
    p.add_argument("--ascii", action="store_true", help="print ASCII heatmaps")
    p.add_argument("--progress", action="store_true", help="report progress on stderr")
    p.set_defaults(func=cmd_sweep)

    # slice and deep differ only in their mesh defaults and output name.
    for command, modes, depth, name, summary in (
            ("slice", 14, 7, "slice_ctid{ctid:g}_n{n}.json",
             "ENAQT test along one static-disorder row"),
            ("deep", 0, 15, "deep_depth{depth}_ctid{ctid:g}_n{n}.json",
             "slice pipeline at extended depth (default 15 steps)")):
        p = sub.add_parser(command, help=summary, description=(
            f"{summary}. --modes 0 means 2 * depth modes. By default the deplete set is "
            "the center pair (modes/2, modes/2 + 1) and the enhance set is that pair "
            "offset outward by max(round(depth/3), 1): 7,8 and 5,10 on 14 modes at "
            "depth 5 to 7."))
        add_mesh(p, modes, depth)
        p.add_argument("--ctid", type=float, default=0.842,
                       help="static row (nearest grid point)")
        p.add_argument("--enhance", default="", metavar="MODES",
                       help="modes expected to gain efficiency, or 'all' "
                            "(default: the center pair offset outward)")
        p.add_argument("--deplete", default="", metavar="MODES",
                       help="modes expected to lose efficiency (default: the center pair)")
        p.add_argument("--points", type=int, default=20, help="dynamic-disorder grid points")
        p.add_argument("--threshold", type=float, default=3.0, help="significance threshold")
        add_run(p, 20000)
        p.set_defaults(func=cmd_slice, name=name)

    p = sub.add_parser("fit", help="fit Laplace/Gaussian profiles to a stored mean")
    p.add_argument("--in", dest="infile", required=True, help="result document path")
    p.add_argument("--family", choices=["laplace", "gaussian", "both"], default="both")
    p.add_argument("--level-index", type=int, default=0)
    p.add_argument("--layer", type=int, default=0, help="read layer (default: final)")
    p.add_argument("--pin-center", action="store_true",
                   help="pin the fit location to the array center")
    p.add_argument("--unit-area", action="store_true",
                   help="constrain the model's discrete sum to 1")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDistributionError as exc:
        print(f"degenerate analysis input: {exc}", file=sys.stderr)
        return 3
    # RuntimeError: a broken worker pool (BrokenExecutor), or a PCG64 whose
    # state draw_block cannot load; ValueError: bad JSON too.
    except (OSError, MemoryError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
