"""Output checks for the simulate -> reconstruct -> stats chain.

Every expected value is computed here, apart from the CLI run that made the
outputs, or follows from a property the method must have. Nothing is
compared with a stored copy of an earlier output.

- read-back: the stack reads back through `framestack` with the header of the
  workload (W, H, shots, seed), and every record equals the raw payload.
- determinism: shot 0 of a one-shot run is byte-identical to shot 0 of the
  full run, since a shot is a pure function of (seed, index).
- Fourier-plane mass: for every shot, sum(i1) equals sum |a_n|^2 over the
  modes whose Fourier bin lies on the grid.
- i2 closed form: for a few seed-chosen shots, i2 equals
  sum_n |a_n|^2 w_n base_image shifted by the mode's offset, summed mode by
  mode here.
- covariance: correlation_map.csv equals the covariance of i1 at the
  reported reference pixel with i2, computed here with plain numpy.
- map closed form: E[G] = s^4 (n-1)/n sum over the modes of the reference
  bin of w_n * shifted base image, because i2 is linear in the mode
  intensities and a thermal intensity has variance s^4. The projection of
  the map on E[G] must equal 1 within 3 standard errors of the estimator.
- stats report: n_samples, mean and ks_statistic equal the values computed
  here from the i1 trace at the reported pixel.
- single-mode reference: the auto reference bin must be fed by exactly one
  mode, or the map superposes shifted copies.
"""

from __future__ import annotations

import gc
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BAND_SIGMAS = 3.0
EXACT_RTOL = 1e-9
KNOWN_FAULT = "single-mode reference"


class CheckFailed(Exception):
    pass


def _overlap(n: int, d: int) -> tuple[slice, slice]:
    """Source and destination slices of a shift by d along an axis of length n."""
    if d >= 0:
        return slice(0, max(n - d, 0)), slice(min(d, n), n)
    return slice(min(-d, n), n), slice(0, max(n + d, 0))


def _add_shifted(out: np.ndarray, a: np.ndarray, dx: int, dy: int, coef: float):
    """out += coef * (a moved by (dx, dy) pixels, zero where nothing moves in)."""
    (xs, xd), (ys, yd) = _overlap(a.shape[0], dx), _overlap(a.shape[1], dy)
    out[xd, yd] += coef * a[xs, ys]


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / scale if scale > 0 else float(np.abs(got).max())


@dataclass(frozen=True)
class Expect:
    """The run a workload asks for: header fields of its stack."""

    width: int
    height: int
    shots: int
    seed: int


class Reference:
    """Per-workload facts the checks compare against, built once per run.

    The mode directions and amplitudes come from `sample_modes`, which defines
    the random inputs. Base image, per-mode weights and pixel offsets come
    from a `ChaoticExperiment` whose copy stack is dropped at once; every sum
    over modes is then made here.
    """

    def __init__(self, config_path, expect: Expect):
        from twmghost import config
        from twmghost.chaotic_source import sample_modes
        from twmghost.pipeline import ChaoticExperiment

        cfg = config.load_config(config_path)
        if (cfg.detector.bit_depth, cfg.detector.pixel_binning, cfg.coherent_sum) != (0, 1, False):
            raise ValueError("the closed forms hold for an ideal detector and incoherent sum")
        if not cfg.source.fixed_directions or cfg.source.amplitude_law != "gaussian":
            raise ValueError("the closed forms hold for fixed directions and gaussian amplitudes")
        self.expect = expect
        self.cfg = cfg
        self._sample_modes = sample_modes
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed, det=cfg.detector)
        del exp.flat_stack
        self.base_image = exp.base_image
        self.mode_weight = exp.mode_weight
        self.px, self.py = exp.px, exp.py
        modes = sample_modes(cfg.source, cfg.master_seed, 0)
        f = cfg.geometry.lens_fourier_f
        w, h = expect.width, expect.height
        # a plane wave along (theta, beta) focuses at (f sin beta, f cos beta sin theta)
        x, y = f * np.sin(modes.beta), f * np.cos(modes.beta) * np.sin(modes.theta)
        self.bin_x = np.rint(x / exp.pitch).astype(int) + w // 2
        self.bin_y = np.rint(y / exp.pitch).astype(int) + h // 2
        self.on_grid = (self.bin_x >= 0) & (self.bin_x < w) & (self.bin_y >= 0) & (self.bin_y < h)
        self.scale = cfg.source.amplitude_scale

    def intensities(self, shot: int) -> np.ndarray:
        a = self._sample_modes(self.cfg.source, self.cfg.master_seed, shot).amplitude
        return np.abs(a) ** 2

    def bin_modes(self, pixel) -> np.ndarray:
        return np.flatnonzero((self.bin_x == pixel[0]) & (self.bin_y == pixel[1]))

    def copies(self, modes, weights) -> np.ndarray:
        out = np.zeros_like(self.base_image)
        for n, c in zip(modes, weights):
            _add_shifted(out, self.base_image, self.px[n], self.py[n], c * self.mode_weight[n])
        return out

    def expected_map(self, pixel, n_shots: int) -> np.ndarray:
        modes = self.bin_modes(pixel)
        factor = self.scale ** 4 * (n_shots - 1) / n_shots
        return self.copies(modes, np.full(len(modes), factor))


class Stack:
    """A frame stack opened for checking: header via framestack, payload via memmap."""

    def __init__(self, path):
        from twmghost import framestack

        self.path = Path(path)
        self.header, self.offset = framestack.read_header(path)
        h = self.header
        self.frames = np.memmap(path, dtype="<f8", mode="r", offset=self.offset,
                                shape=(h.n_shots, 2, h.width, h.height))
        self.i1 = self.frames[:, 0]
        self.i2 = self.frames[:, 1]
        self.n = h.n_shots

    def flat_i2(self) -> np.ndarray:
        return self.i2.reshape(self.n, -1)


def check_readback(stack: Stack, expect: Expect, shots: int):
    from twmghost import framestack

    h = stack.header
    got = (h.width, h.height, h.n_shots, h.master_seed)
    want = (expect.width, expect.height, shots, expect.seed)
    if got != want:
        raise CheckFailed(f"header (W, H, shots, seed) {got} != {want}")
    count = 0
    for k, rec in enumerate(framestack.iter_shots(stack.path)):
        if rec.shot_index != k or not (np.array_equal(rec.i1, stack.i1[k])
                                       and np.array_equal(rec.i2, stack.i2[k])):
            raise CheckFailed(f"record {k} does not read back as written")
        count += 1
    if count != shots:
        raise CheckFailed(f"read back {count} shots, header says {shots}")


def check_determinism(one_shot: Stack, full: Stack):
    if one_shot.frames[0].tobytes() != full.frames[0].tobytes():
        raise CheckFailed("shot 0 of the one-shot run differs from shot 0 of the full run")


def check_fourier_mass(ref: Reference, stack: Stack):
    got = stack.i1.reshape(stack.n, -1).sum(axis=1)
    want = np.array([ref.intensities(k)[ref.on_grid].sum() for k in range(stack.n)])
    bad = np.flatnonzero(np.abs(got - want) > EXACT_RTOL * np.abs(want))
    if bad.size:
        k = int(bad[0])
        raise CheckFailed(f"{bad.size} shots break the Fourier-plane mass, first shot {k}: "
                          f"sum i1 {float(got[k])!r} != {float(want[k])!r}")


def check_i2_closed_form(ref: Reference, stack: Stack, shots):
    modes = np.arange(len(ref.mode_weight))
    for k in shots:
        want = ref.copies(modes, ref.intensities(k))
        err = _rel_err(np.asarray(stack.i2[k]), want)
        if err > EXACT_RTOL:
            raise CheckFailed(f"shot {k}: i2 differs from its closed form by {err:.3g} relative")


def centred_trace(stack: Stack, pixel) -> np.ndarray:
    """i1 at `pixel` over the shots, minus its mean."""
    x = np.array(stack.i1[:, pixel[0], pixel[1]], dtype=float)
    return x - x.mean()


def covariance(stack: Stack, pixel) -> np.ndarray:
    """1/n sample covariance of i1[pixel] with i2."""
    g = (centred_trace(stack, pixel) @ stack.flat_i2()) / stack.n
    return g.reshape(stack.i2.shape[1:])


def check_covariance(stack: Stack, g_map: np.ndarray, pixel):
    want = covariance(stack, pixel)
    if g_map.shape != want.shape:
        raise CheckFailed(f"map shape {g_map.shape} != {want.shape}")
    err = _rel_err(g_map, want)
    if err > EXACT_RTOL:
        raise CheckFailed(f"map differs from the covariance at {tuple(pixel)} "
                          f"by {err:.3g} relative")


def map_projection(ref: Reference, stack: Stack, g_map: np.ndarray, pixel) -> tuple[float, float]:
    """Projection of the map on E[G] (expected 1) and its standard error.

    P = <G, E> / <E, E> is itself a covariance, of i1[pixel] with the
    per-shot projection p_s = <i2_s, E> / <E, E>, so its standard error
    follows from the per-shot products u_s = (x_s - x̄)(p_s - p̄).
    """
    e = ref.expected_map(pixel, stack.n)
    ee = float((e * e).sum())
    if ee == 0.0:
        raise CheckFailed(f"reference pixel {tuple(pixel)} is fed by no mode, so E[G] = 0")
    xc = centred_trace(stack, pixel)
    p = stack.flat_i2() @ e.ravel() / ee
    u = xc * (p - p.mean())
    return float((g_map * e).sum() / ee), float(u.std(ddof=1) / math.sqrt(stack.n))


def check_map_closed_form(ref: Reference, stack: Stack, g_map: np.ndarray, pixel):
    proj, se = map_projection(ref, stack, g_map, pixel)
    if not abs(proj - 1.0) <= BAND_SIGMAS * se:
        raise CheckFailed(f"map projects on E[G] with {proj:.4f}, not 1 within "
                          f"{BAND_SIGMAS:g} x {se:.4f}")
    return proj, se


def check_single_mode_reference(ref: Reference, pixel):
    n = len(ref.bin_modes(pixel))
    if n != 1:
        raise CheckFailed(f"reference bin {tuple(pixel)} is fed by {n} modes, not 1")


def ks_exponential(samples: np.ndarray, mean: float) -> float:
    """Kolmogorov-Smirnov distance of the samples from exp(-I/mean)/mean."""
    x = np.sort(samples)
    n = x.size
    cdf = -np.expm1(-x / mean)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()))


def parse_stats_report(text: str) -> dict:
    m = re.search(r"temporal i1, pixel \((\d+), (\d+)\)", text)
    fields = dict(re.findall(r"^(n_samples|mean|ks_statistic) = (\S+)$", text, re.M))
    if m is None or len(fields) != 3:
        raise CheckFailed("stats report lacks the temporal pixel, n_samples, mean or ks_statistic")
    return {"pixel": (int(m[1]), int(m[2])), "n_samples": int(fields["n_samples"]),
            "mean": float(fields["mean"]), "ks_statistic": float(fields["ks_statistic"])}


def check_stats_report(stack: Stack, report: dict):
    r, c = report["pixel"]
    trace = np.array(stack.i1[:, r, c], dtype=float)
    mean = float(trace.mean())
    if report["n_samples"] != trace.size:
        raise CheckFailed(f"n_samples {report['n_samples']} != {trace.size}")
    if not abs(report["mean"] - mean) <= EXACT_RTOL * abs(mean):
        raise CheckFailed(f"mean {report['mean']!r} != {mean!r}")
    ks = ks_exponential(trace, mean)
    if not abs(report["ks_statistic"] - ks) <= EXACT_RTOL:
        raise CheckFailed(f"ks_statistic {report['ks_statistic']!r} != {ks!r}")


def read_map(out_dir) -> tuple[np.ndarray, tuple[int, int]]:
    out_dir = Path(out_dir)
    g_map = np.loadtxt(out_dir / "correlation_map.csv", delimiter=",", ndmin=2)
    norm = np.loadtxt(out_dir / "correlation_map_norm.csv", delimiter=",", skiprows=1)
    return g_map, (int(norm[2]), int(norm[3]))


def check_round(ref: Reference, rd: Path, exit_codes: dict, i2_shots) -> dict:
    """Check the outputs of one round.

    Every failure is [stage, check, message, counted], where counted marks
    the single-mode reference check, the fault the benchmark counts.
    """
    failures = []

    def fail(stage, name, message):
        failures.append([stage, name, message, name == KNOWN_FAULT])

    def attempt(stage, name, fn, *args):
        if exit_codes[stage] != 0:
            return None
        try:
            return fn(*args)
        except Exception as exc:   # a check that cannot complete fails its operation
            fail(stage, name, str(exc) if isinstance(exc, CheckFailed) else repr(exc))
            return None

    for stage, rc in exit_codes.items():
        if rc != 0:
            fail(stage, "exit status", f"exited with {rc}")
    stack_path = rd / "full" / "frames.twmg"
    result = {"failures": failures, "ref_bin_modes": 0, "map_projection": None,
              "stack_mb": stack_path.stat().st_size / 1e6 if stack_path.exists() else 0.0}
    full = attempt("simulate", "stack", Stack, stack_path)
    if full is None:
        for stage, rc in exit_codes.items():
            if stage != "simulate" and rc == 0:
                fail(stage, "stack", "no readable stack to check against")
        return result

    def setup_checks(stage):
        one = Stack(rd / stage / "frames.twmg")
        check_readback(one, ref.expect, 1)
        check_determinism(one, full)

    def map_checks(stage):
        g_map, pixel = read_map(rd / stage)
        if result["map_projection"] is None:
            result["ref_bin_modes"] = len(ref.bin_modes(pixel))
        attempt(stage, "covariance", check_covariance, full, g_map, pixel)
        result["map_projection"] = attempt(stage, "map closed form", check_map_closed_form,
                                           ref, full, g_map, pixel)
        attempt(stage, KNOWN_FAULT, check_single_mode_reference, ref, pixel)

    def stats_checks(stage):
        text = (rd / stage / "stats_report.txt").read_text()
        check_stats_report(full, parse_stats_report(text))

    attempt("simulate", "read-back", check_readback, full, ref.expect, ref.expect.shots)
    attempt("simulate", "Fourier-plane mass", check_fourier_mass, ref, full)
    attempt("simulate", "i2 closed form", check_i2_closed_form, ref, full, i2_shots)
    for stage in exit_codes:
        if stage == "setup":
            attempt(stage, "read-back and determinism", setup_checks, stage)
        elif stage == "reconstruct":
            attempt(stage, "map files", map_checks, stage)
        elif stage == "stats":
            attempt(stage, "stats report", stats_checks, stage)
    return result


def serve(spec: dict):
    """Say ready once the reference is built, then answer one JSON line per
    round directory named on standard input."""
    ref = Reference(spec["config"], Expect(spec["width"], spec["height"],
                                           spec["shots"], spec["seed"]))
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        res = check_round(ref, Path(req["dir"]), req["exit_codes"], req["i2_shots"])
        gc.collect()   # drop the stack's memory map before its file is deleted
        print(json.dumps(res), flush=True)


if __name__ == "__main__":
    serve(json.loads(sys.argv[1]))
