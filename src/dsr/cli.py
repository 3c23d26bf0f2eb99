"""Command-line front end.

Subcommands: simulate (synthetic scene to DSRV), degrade (decimate + noise),
sparse (random mask split), solve (reconstruction), eval (SNR metrics) and
bench (full experiment grid). Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .bench import bench_from_config, scene_from_config, sparse_split
from .errors import DataError, NumericError
from .io import (
    import_pgm_sequence,
    read_dsrv,
    read_json,
    read_measurements,
    write_dsrv,
    write_frame_snr,
    write_json,
    write_measurements,
)
from .scenes import synth_scene
from .solvers import ALGORITHMS, DEFAULT_SOLVER, GUIDED_ALGORITHMS, SolverConfig, select_lambda
from .volumes import (
    IntensityVolume,
    SamplingOperator,
    add_noise,
    apply_sampling,
    per_frame_snr,
    snr_db,
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _window_arg(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError:
        vals = ()
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(
            f"window must look like WxWxT, e.g. 11x11x3, got {text!r}")
    return vals


def _lambda_arg(text: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("lambda list is empty")
    return vals


def _load_guide(path: Path) -> IntensityVolume:
    """A .dsrv file is read directly; anything else is a PGM manifest."""
    if path.suffix == ".dsrv":
        vol = read_dsrv(path)
        try:
            return IntensityVolume(vol.dims, vol.values)
        except DataError as exc:
            raise DataError(f"{path}: not a valid intensity volume: {exc}") from exc
    return import_pgm_sequence(path)


def build_parser() -> _Parser:
    parser = _Parser(prog="dsr",
                     description="Guided depth-video superresolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="render a synthetic depth+guide scene",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--w", type=_positive_int)
    p.add_argument("--h", type=_positive_int)
    p.add_argument("--t", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--objects", metavar="x0,y0,w,h,depth,contrast,vx,vy[;...]")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("degrade", help="decimate a depth volume and add noise")
    p.add_argument("--depth", required=True, type=Path)
    p.add_argument("--factor", required=True, type=_positive_int)
    p.add_argument("--snr", type=float, default=float("inf"),
                   help="target measurement SNR in dB (default: noise-free)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("sparse", help="random sparse sampling with a validation split")
    p.add_argument("--depth", required=True, type=Path)
    p.add_argument("--rate", required=True, type=float)
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("solve", help="reconstruct a depth volume from measurements")
    p.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    p.add_argument("--meas", required=True, type=Path)
    p.add_argument("--guide", type=Path, default=None,
                   help="intensity volume (.dsrv) or PGM manifest file")
    p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=None,
                   metavar="FLOAT[,FLOAT...]")
    p.add_argument("--rho", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--patch", type=_positive_int)
    p.add_argument("--window", type=_window_arg, metavar="WxWxT")
    p.add_argument("--stride", type=_positive_int)
    p.add_argument("--group-size", type=_positive_int)
    p.add_argument("--max-iter", type=_positive_int)
    p.add_argument("--tol", type=float)
    p.set_defaults(**DEFAULT_SOLVER)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--ref", type=Path, default=None,
                   help="reference volume for selecting among lambda candidates")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="SNR of an estimate against a reference")
    p.add_argument("--ref", required=True, type=Path)
    p.add_argument("--est", required=True, type=Path)
    p.add_argument("--per-frame", type=Path, default=None, metavar="CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run the experiment grid from a config file")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_bench)

    return parser


def cmd_simulate(args) -> int:
    scene = {k: v for k, v in vars(args).items() if k in ("w", "h", "t", "seed")}
    if "objects" in vars(args):
        try:
            scene["objects"] = [[float(v) for v in seg.split(",")]
                                for seg in args.objects.split(";") if seg.strip()]
        except ValueError as exc:
            raise DataError(f"invalid --objects value: {exc}") from exc
    spec = scene_from_config(scene)
    depth, guide = synth_scene(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    write_dsrv(args.out / "depth.dsrv", depth)
    write_dsrv(args.out / "guide.dsrv", guide)
    write_json(args.out / "scene.json", asdict(spec))
    print(f"wrote depth.dsrv, guide.dsrv, scene.json to {args.out}")
    return 0


def cmd_degrade(args) -> int:
    ref = read_dsrv(args.depth)
    op = SamplingOperator.decimation(ref.dims, args.factor)
    psi = add_noise(apply_sampling(op, ref), args.snr, args.seed)
    meta = {
        "snr_db": args.snr if math.isfinite(args.snr) else "inf",
        "seed": args.seed,
        "source": str(args.depth),
    }
    write_measurements(args.out, psi, meta)
    print(f"wrote {psi.operator.n_measurements} measurements to {args.out}")
    return 0


def cmd_sparse(args) -> int:
    ref = read_dsrv(args.depth)
    rec, val = sparse_split(ref, args.rate, args.seed, args.split)
    common = {"mode": "sparse", "rate": args.rate, "split": args.split,
              "seed": args.seed, "source": str(args.depth)}
    write_measurements(args.out, rec, {**common, "role": "reconstruction"})
    write_measurements(args.out / "val", val, {**common, "role": "validation"})
    print(f"wrote {rec.operator.n_measurements} reconstruction and "
          f"{val.operator.n_measurements} validation measurements to {args.out}")
    return 0


def _validate_solve(parser: _Parser, args) -> None:
    if args.algo == "linear" and args.lam is not None:
        parser.error("--lambda does not apply to --algo linear")
    if args.algo != "linear" and args.lam is None:
        parser.error(f"--lambda is required for --algo {args.algo}")
    if args.algo in GUIDED_ALGORITHMS and args.guide is None:
        parser.error(f"--guide is required for --algo {args.algo}")
    if args.lam is not None and len(args.lam) > 1 and args.ref is None:
        parser.error("--ref is required when --lambda lists several candidates")


def cmd_solve(args) -> int:
    psi, _ = read_measurements(args.meas)
    guide = _load_guide(args.guide) if args.guide is not None else None
    settings = {k: getattr(args, k) for k in DEFAULT_SOLVER}
    cands = args.lam or [None]
    cfg = SolverConfig.from_settings(args.algo, cands[0], settings)
    ref = read_dsrv(args.ref) if len(cands) > 1 else None
    lam, est, report = select_lambda(psi, guide, cfg, cands, ref)

    args.out.mkdir(parents=True, exist_ok=True)
    write_dsrv(args.out / "est.dsrv", est)
    final_rel = report.trace[-1].rel_change if report.trace else None
    write_json(args.out / "run.json", {
        "algo": args.algo,
        "lambda": lam,
        "lambda_candidates": args.lam,
        **settings,
        "meas": str(args.meas),
        "guide": str(args.guide) if args.guide else None,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "final_rel_change": final_rel,
        "workers": report.workers,
        "wait_s": report.wait_s,
    })
    print(f"algo={args.algo} iterations={report.iterations} "
          f"stop={report.stop_reason}")
    return 0


def cmd_eval(args) -> int:
    ref = read_dsrv(args.ref)
    est = read_dsrv(args.est)
    if ref.dims != est.dims:
        raise DataError(f"dims mismatch: ref {ref.dims}, est {est.dims}")
    overall = snr_db(ref.values, est.values)
    if args.per_frame is not None:
        curve = per_frame_snr(ref, est)
        args.per_frame.parent.mkdir(parents=True, exist_ok=True)
        write_frame_snr(args.per_frame, curve)
    print(f"{overall:.4f}")
    return 0


def cmd_bench(args) -> int:
    config = read_json(args.config)
    bench_from_config(config, args.out)
    print(f"wrote {args.out / 'table.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        _validate_solve(parser, args)
    try:
        return args.func(args) or 0
    except DataError as exc:
        print(f"dsr: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"dsr: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
