"""Command-line entry points.

Subcommands: simulate-coherent, simulate-chaotic, reconstruct, stats,
selftest; each subparser names its handler as `run`.  Exit codes follow
the error classes: 0 success, 1 a usage error, 3 a numerical failure
(SamplingViolation, DegenerateGeometry, FloatingPointError), 2 any other
TwmError (a data or configuration error) or OSError.

Each subcommand imports only the modules it runs; at module level there
are only the ones every command uses (`errors`, `framestack`, `masks`).
The simulate commands import `config` and `pipeline` (and with them the
source, propagation and geometry modules), `reconstruct` and `stats`
import `statistics`, and `selftest` imports `selftest`.  So the stack
readers neither load nor compile the simulator.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import framestack, masks
from .errors import (CorruptStack, DegenerateGeometry, InsufficientSamples, SamplingViolation,
                     TwmError)

_NUMERIC_ERRORS = (SamplingViolation, DegenerateGeometry, FloatingPointError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="twmghost",
                description="Three-wave-mixing ghost imaging simulator")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--seed", type=int, help="override master seed")
        sp.add_argument("--shots", type=int, help="override shot count")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("simulate-coherent", help="coherent imaging chain")
    sp.set_defaults(run=cmd_simulate_coherent)
    common(sp)
    sp = sub.add_parser("simulate-chaotic", help="per-shot chaotic run to a frame stack")
    sp.set_defaults(run=cmd_simulate_chaotic)
    common(sp)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads (outputs are thread-count independent)")
    sp = sub.add_parser("reconstruct", help="correlation-map reconstruction from a stack")
    sp.set_defaults(run=cmd_reconstruct)
    sp.add_argument("stack")
    sp.add_argument("--ref-pixel", default="auto", help="'auto' or 'row,col'")
    sp.add_argument("--out", default=".")
    sp = sub.add_parser("stats", help="thermal-statistics report from a stack")
    sp.set_defaults(run=cmd_stats)
    sp.add_argument("stack")
    sp.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")
    sp.add_argument("--pixel",
                    help="'row,col' pixel for temporal mode (default: highest contrast)")
    sp.add_argument("--shot", type=int, default=0, help="shot index for spatial mode")
    sp.add_argument("--arm", choices=("i1", "i2"), default="i1")
    sp.add_argument("--out", default=".")
    sub.add_parser("selftest", help="run the built-in oracle checks").set_defaults(run=cmd_selftest)
    return p


def _load_cfg(args) -> config.RunConfig:
    from . import config
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides[("run", "master_seed")] = args.seed
    if getattr(args, "shots", None) is not None:
        overrides[("run", "shots")] = args.shots
    return config.load_config(args.config, overrides)


def _outdir(path) -> Path:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_simulate_coherent(args) -> int:
    from .pipeline import coherent_image
    cfg = _load_cfg(args)
    img = coherent_image(cfg.load_object_mask(), cfg.geometry, det=cfg.detector)
    # made once set-up has succeeded, so a failed run leaves no directory
    out = _outdir(args.out)
    lo, hi = masks.save_pgm16(out / "coherent_image.pgm", img.grid)
    masks.save_csv(out / "coherent_image.csv", img.grid)
    masks.save_csv(out / "coherent_image_norm.csv",
                   np.array([[lo, hi]]), header="min,max")
    print(f"coherent image written to {out} (pitch {img.pitch:.6g} m)")
    return 0


def cmd_simulate_chaotic(args) -> int:
    from . import __version__, config
    from .chaotic_source import RNG_ALGORITHM
    from .pipeline import ChaoticExperiment
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    cfg = _load_cfg(args)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                            cfg.master_seed, det=cfg.detector,
                            coherent_sum=cfg.coherent_sum)
    out = _outdir(args.out)
    stack_path = out / "frames.twmg"
    width, height = cfg.detector.output_shape(cfg.width, cfg.height)
    framestack.write_stack(stack_path, exp.shots(cfg.shots, threads=args.threads), width,
                           height, cfg.shots, cfg.master_seed, RNG_ALGORITHM)
    (out / "manifest.ini").write_text(
        config.manifest_text(cfg, __version__, RNG_ALGORITHM))
    print(f"{cfg.shots} shots written to {stack_path}")
    return 0


def _parse_pixel(text, shape):
    try:
        r, c = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"pixel must be 'row,col' in whole numbers, got {text!r}") from None
    if not (0 <= r < shape[0] and 0 <= c < shape[1]):
        raise UsageError(f"pixel ({r},{c}) outside grid {shape}")
    return r, c


def _stack_pairs(path, ref):
    """(reference value, i2) of each shot: the i1 trace at `ref` beside the
    i2 frames, never a whole i1 frame.  Exhausted, it frees the zip, which
    would keep its last pair (and with it an i2 frame) in its result tuple."""
    yield from zip(framestack.pixel_trace(path, ref, "i1"), framestack.iter_frames(path, "i2"))


def cmd_reconstruct(args) -> int:
    from . import statistics
    header, _ = framestack.read_header(args.stack)
    if args.ref_pixel == "auto":
        ref = statistics.auto_reference_pixel(framestack.arm_moments(args.stack, "i1"))
    else:
        ref = _parse_pixel(args.ref_pixel, (header.width, header.height))
    g = statistics.correlate(_stack_pairs(args.stack, ref))
    out = _outdir(args.out)
    lo, hi = masks.save_pgm16(out / "correlation_map.pgm", g)
    masks.save_csv(out / "correlation_map.csv", g)
    masks.save_csv(out / "correlation_map_norm.csv",
                   np.array([[lo, hi, float(ref[0]), float(ref[1]), header.n_shots]]),
                   header="min,max,ref_row,ref_col,n_shots")
    print(f"correlation map over {header.n_shots} shots, ref pixel {ref}, written to {out}")
    return 0


def cmd_stats(args) -> int:
    from . import statistics
    header, _ = framestack.read_header(args.stack)
    arm = args.arm
    if args.mode == "spatial":
        if not 0 <= args.shot < header.n_shots:
            raise CorruptStack(f"shot {args.shot} not in stack of {header.n_shots}")
        frame = next(framestack.iter_frames(args.stack, arm, start=args.shot))
        samples = frame[frame > 0] if arm == "i1" else frame.ravel()
        if arm == "i1" and samples.size < statistics.MIN_SAMPLES:
            raise InsufficientSamples(
                f"shot {args.shot} has {samples.size} lit Fourier bins, fewer than the "
                f"{statistics.MIN_SAMPLES} samples the thermal test needs; use --mode "
                f"temporal (one pixel over the shots) or --arm i2 (every image pixel)")
        label = f"spatial {arm}, shot {args.shot}"
    else:
        # the arm's moments pick the pixel (none when it is given), then 8
        # bytes per shot for its trace: memory stays bounded in the shot count
        if args.pixel:
            px = _parse_pixel(args.pixel, (header.width, header.height))
        else:
            px = statistics.auto_reference_pixel(framestack.arm_moments(args.stack, arm))
        samples = framestack.pixel_trace(args.stack, px, arm)
        label = f"temporal {arm}, pixel {tuple(int(v) for v in px)}"
    try:
        fit = statistics.thermal_test(samples)
    except InsufficientSamples as exc:
        raise InsufficientSamples(f"{label}: {exc}") from None
    out = _outdir(args.out)
    centers = 0.5 * (fit.bin_edges[:-1] + fit.bin_edges[1:])
    model = np.exp(-centers / fit.fitted_mean) / fit.fitted_mean
    model *= fit.counts.sum() * np.diff(fit.bin_edges)
    masks.save_csv(out / "histogram.csv",
                   np.column_stack([centers, fit.counts, model]),
                   header="bin_center,count,thermal_fit")
    verdict = "consistent with thermal statistics" if fit.p_value > 0.01 \
        else "REJECTED as thermal"
    report = (f"{label}\nn_samples = {samples.size}\nmean = {fit.fitted_mean:.17g}\n"
              f"ks_statistic = {fit.ks_statistic:.17g}\np_value = {fit.p_value:.17g}\n"
              f"verdict: {verdict} (1% level)\n")
    (out / "stats_report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    return 0 if selftest.run() else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (TwmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
