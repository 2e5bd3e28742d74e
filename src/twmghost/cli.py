"""Command-line entry points.

Subcommands: simulate-coherent, simulate-chaotic, reconstruct, stats,
selftest; each subparser names its handler as `run`.  Exit codes follow
the error classes: 0 success, 1 a usage error, 3 a numerical failure
(SamplingViolation, DegenerateGeometry, FloatingPointError, OverflowError),
2 any other TwmError (a data or configuration error) or OSError.

Each subcommand imports only the modules it runs; at module level there
are only the ones every command uses (`errors`, `framestack`, `masks`).
The simulate commands import `config` and `pipeline` (and with them the
source, propagation and geometry modules), `simulate-chaotic` also
`shotloop` and `stackwriter`, `reconstruct` and `stats` import
`statistics`, and `selftest` imports `selftest`.  So the stack readers
neither load nor compile the simulator or the stack writer.

After set-up, `simulate-chaotic` runs its shot loop in two processes when
the run has two shot blocks or more and two CPUs: it forks one helper,
which makes every other block and writes each record at its fixed offset
of the stack (`os.pwrite`), and sends back what the trailer sums need.
The stack is byte for byte the one-process run's; the helper ends in
`os._exit`, is reaped on every path, and its error is raised here with its
class and message, so the exit code does not depend on which process
failed (see `shotloop`).

`simulate-chaotic` imports `numpy.random` first, with `_hashlib` blocked
for that one import: numpy.random imports `secrets`, which would map
OpenSSL's libcrypto (3.4 MB resident) for OS entropy that no run draws,
since every stream is seeded from the master seed.  hashlib and hmac fall
back to their builtin digests, and `_hashlib` imports as usual afterwards.

A process ends through `run()`, the entry point of `python -m twmghost.cli`
and of the installed `twmghost` script: it calls `main()`, freezes every
live object out of the collector (`gc.freeze()`) and exits with main's
code.  The interpreter's last full collection then skips the ~22 k objects
that numpy's import leaves, none of which it would free (16-20 ms of
teardown), while stdio flush, file finalization, `atexit` handlers and
thread joins still run.  `main()` itself changes no process-wide state:
the tests and `perfbench/tracer.py` call it in process, and a freeze there
would leave every object then alive out of all later collections.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import framestack, masks
from .errors import (CorruptStack, DegenerateGeometry, InsufficientSamples, SamplingViolation,
                     TwmError)

_NUMERIC_ERRORS = (SamplingViolation, DegenerateGeometry, FloatingPointError, OverflowError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="twmghost",
                description="Three-wave-mixing ghost imaging simulator")
    sub = p.add_subparsers(dest="command", required=True)

    # the coherent chain has no seed or shots to take
    sp = sub.add_parser("simulate-coherent", help="coherent imaging chain")
    sp.set_defaults(run=cmd_simulate_coherent)
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--out", default=".", help="output directory")
    sp = sub.add_parser("simulate-chaotic", help="per-shot chaotic run to a frame stack")
    sp.set_defaults(run=cmd_simulate_chaotic)
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--seed", type=int, help="override master seed")
    sp.add_argument("--shots", type=int, help="override shot count")
    sp.add_argument("--out", default=".", help="output directory")
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
    sp.add_argument("--shot", type=int, help="shot index for spatial mode (default: 0)")
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
    # numpy.random without OpenSSL's libcrypto, whose OS entropy no seeded
    # run draws (see the module docstring)
    if "_hashlib" not in sys.modules:
        sys.modules["_hashlib"] = None
        try:
            import numpy.random  # noqa: F401
        finally:
            del sys.modules["_hashlib"]
    from . import __version__, config
    from .chaotic_source import RNG_ALGORITHM
    from .pipeline import ChaoticExperiment
    from .shotloop import write_chaotic_stack
    cfg = _load_cfg(args)
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                            cfg.master_seed, det=cfg.detector,
                            coherent_sum=cfg.coherent_sum)
    # the library builds such experiments; a stack of one has no reference
    # arm, or no image, to correlate
    if exp.i1_lit.size == 0:
        width, height = cfg.detector.output_shape(cfg.width, cfg.height)
        raise DegenerateGeometry(
            f"Fourier arm: no seed mode lights a pixel of the {width} x {height} i1 frame, so "
            f"every shot's i1 would be zero ([geometry] fourier_f, [grid] pitch, "
            f"[source] angular_spread)")
    if exp.kept.size == 0:
        raise DegenerateGeometry(
            f"image arm: every mode copy is shifted a whole grid side or more off the "
            f"{cfg.width} x {cfg.height} image, so every shot's i2 would be zero ([geometry] s2, "
            f"the indices and wavelengths, [grid] pitch, [source] angular_spread)")
    # made once set-up has succeeded; a run that fails while it writes
    # removes its stack and the directories it made
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stack_path = out / "frames.twmg"
    try:
        write_chaotic_stack(exp, stack_path, cfg.shots, RNG_ALGORITHM)
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    (out / "manifest.ini").write_text(
        config.manifest_text(cfg, __version__, RNG_ALGORITHM), encoding="utf-8")
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


def _stack_pairs(path, trace):
    """(reference value, i2) of each shot: the reference pixel's i1 trace
    beside the i2 frames, never a whole i1 frame; then an
    InsufficientSamples if i2 is 0 in every shot, tested only until its
    first lit frame.  No zip: its reused result tuple would keep the last
    frame while the next one is read."""
    frames = framestack.iter_frames(path, "i2")
    dark = True
    for x in trace:
        i2 = next(frames)
        dark = dark and not i2.any()
        yield x, i2
        del i2
    if dark:
        raise InsufficientSamples(
            f"i2 is 0 in all {trace.size} shots: the stack holds no image to correlate")


def cmd_reconstruct(args) -> int:
    from . import statistics
    header, _ = framestack.read_header(args.stack)
    if args.ref_pixel == "auto":
        ref = statistics.auto_reference_pixel(framestack.arm_moments(args.stack, "i1"))
    else:
        ref = _parse_pixel(args.ref_pixel, (header.width, header.height))
    # an i1 pixel that no mode lights is 0 in every shot: its map would be
    # all zero, so it is refused as `stats --mode temporal` refuses it
    trace = framestack.pixel_trace(args.stack, ref, "i1")
    if not trace.any():
        raise InsufficientSamples(
            f"reference i1 pixel ({ref[0]}, {ref[1]}) is 0 in all {header.n_shots} shots: "
            f"no mode lights it, so there is nothing to correlate")
    g = statistics.correlate(_stack_pairs(args.stack, trace))
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
    # an option the mode never reads is refused, not ignored
    if args.mode == "spatial" and args.pixel is not None:
        raise UsageError("--pixel is read by --mode temporal only")
    if args.mode == "temporal" and args.shot is not None:
        raise UsageError("--shot is read by --mode spatial only")
    header, _ = framestack.read_header(args.stack)
    arm = args.arm
    if args.mode == "spatial":
        shot = args.shot or 0
        if not 0 <= shot < header.n_shots:
            raise CorruptStack(f"shot {shot} not in stack of {header.n_shots}")
        frame = next(framestack.iter_frames(args.stack, arm, start=shot))
        samples = frame[frame > 0] if arm == "i1" else frame.ravel()
        if arm == "i1" and samples.size < statistics.MIN_SAMPLES:
            raise InsufficientSamples(
                f"shot {shot} has {samples.size} lit Fourier bins, fewer than the "
                f"{statistics.MIN_SAMPLES} samples the thermal test needs; use --mode "
                f"temporal (one pixel over the shots) or --arm i2 (every image pixel)")
        label = f"spatial {arm}, shot {shot}"
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


def run() -> None:
    """Process entry point: main() on sys.argv, then exit with its code,
    the shutdown collection skipping every object already alive."""
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    run()
