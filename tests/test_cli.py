import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import twmghost
from twmghost import cli, framestack, masks, statistics
from twmghost.cli import main
from twmghost.config import load_config
from twmghost.errors import InvalidSpec, TwmError
from twmghost.pipeline import ChaoticExperiment


SMALL_CFG = """\
[grid]
width = 64
height = 64

[source]
n_modes = 20

[run]
shots = 12
"""


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))
        if p)
    return env


def _pick(frames):
    """The auto reference pixel of frames read in full."""
    return statistics.auto_reference_pixel(framestack.Moments.of(frames))


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL_CFG)
    return str(p)


def test_simulate_coherent_outputs(tmp_path, small_cfg):
    out = tmp_path / "coh"
    rc = main(["simulate-coherent", "--config", small_cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "coherent_image.pgm").exists()
    arr = np.loadtxt(out / "coherent_image.csv", delimiter=",")
    assert arr.shape == (64, 64)


def test_simulate_coherent_takes_no_threads(tmp_path, small_cfg, capsys):
    # the coherent chain has no shot loop to spread over threads
    out = tmp_path / "coh"
    assert main(["simulate-coherent", "--config", small_cfg, "--out", str(out),
                 "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_chaotic_and_reconstruct(tmp_path, small_cfg):
    out = tmp_path / "run"
    rc = main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)])
    assert rc == 0
    header, _ = framestack.read_header(out / "frames.twmg")
    assert header.n_shots == 12 and header.width == 64
    assert (out / "manifest.ini").exists()
    rec = tmp_path / "rec"
    rc = main(["reconstruct", str(out / "frames.twmg"), "--out", str(rec)])
    assert rc == 0
    gmap = np.loadtxt(rec / "correlation_map.csv", delimiter=",")
    assert gmap.shape == (64, 64)


def test_reconstruct_manual_ref_pixel(tmp_path, small_cfg):
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)])
    rec = tmp_path / "rec"
    rc = main(["reconstruct", str(out / "frames.twmg"),
               "--ref-pixel", "32,32", "--out", str(rec)])
    assert rc == 0
    norm = np.loadtxt(rec / "correlation_map_norm.csv", delimiter=",", skiprows=1)
    assert (norm[2], norm[3]) == (32.0, 32.0)


def test_stats_command(tmp_path, small_cfg):
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)])
    st = tmp_path / "st"
    rc = main(["stats", str(out / "frames.twmg"), "--mode", "spatial",
               "--arm", "i2", "--out", str(st)])
    assert rc == 0
    report = (st / "stats_report.txt").read_text()
    assert "ks_statistic" in report and "p_value" in report
    hist = np.loadtxt(st / "histogram.csv", delimiter=",", skiprows=1)
    assert hist.shape[1] == 3


def test_reconstruct_map_equals_correlate_of_shots(tmp_path, small_cfg):
    # the CLI correlates an i1 pixel trace with the i2 frames; the map must
    # be the library's correlate over whole records, byte for byte
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "20"])
    stack = out / "frames.twmg"
    auto = _pick(framestack.iter_frames(stack, "i1"))
    for ref_arg, ref in (("auto", auto), ("32,32", (32, 32))):
        rec = tmp_path / ref_arg.replace(",", "_")
        assert main(["reconstruct", str(stack), "--ref-pixel", ref_arg, "--out", str(rec)]) == 0
        want = tmp_path / "want.csv"
        masks.save_csv(want, statistics.correlate(
            statistics.reference_pairs(framestack.iter_shots(stack), ref)))
        assert (rec / "correlation_map.csv").read_bytes() == want.read_bytes()


def _count_frame_reads(monkeypatch):
    """The arm of every iter_frames pass, in call order; whole records fail."""
    arms = []
    iter_frames = framestack.iter_frames

    def counted(path, arm="i1", start=0):
        arms.append(arm)
        return iter_frames(path, arm, start)

    def no_records(*_):
        raise AssertionError("whole records read")

    monkeypatch.setattr(framestack, "iter_frames", counted)
    monkeypatch.setattr(framestack, "iter_shots", no_records)
    return arms


def test_given_pixel_reads_no_i1_frame(tmp_path, small_cfg, monkeypatch):
    # with the pixel given, reconstruct reads i2 frames and one i1 pixel
    # trace, and stats --mode temporal the pixel trace alone
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "120"])
    stack = out / "frames.twmg"
    shots = list(framestack.iter_shots(stack))
    r, c = _pick(s.i1 for s in shots)
    arms = _count_frame_reads(monkeypatch)
    assert main(["reconstruct", str(stack), "--ref-pixel", f"{r},{c}",
                 "--out", str(tmp_path / "rec")]) == 0
    assert arms == ["i2"]
    assert main(["stats", str(stack), "--mode", "temporal", "--pixel", f"{r},{c}",
                 "--out", str(tmp_path / "st")]) == 0
    assert arms == ["i2"]
    fit = statistics.thermal_test(np.array([s.i1[r, c] for s in shots]))
    report = (tmp_path / "st" / "stats_report.txt").read_text()
    assert f"ks_statistic = {fit.ks_statistic:.17g}\n" in report


def test_auto_pixel_reads_the_trailer_not_the_i1_frames(tmp_path, small_cfg, monkeypatch):
    # the stored i1 moments pick the auto pixel: reconstruct reads the i2
    # frames alone and stats --mode temporal no frame; the pick is the one a
    # pass of the i1 frames makes, so naming it gives the same map
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "120"])
    stack = out / "frames.twmg"
    r, c = _pick(framestack.iter_frames(stack, "i1"))
    arms = _count_frame_reads(monkeypatch)
    assert main(["reconstruct", str(stack), "--out", str(tmp_path / "rec")]) == 0
    assert arms == ["i2"]
    arms.clear()
    assert main(["stats", str(stack), "--mode", "temporal", "--out", str(tmp_path / "st")]) == 0
    assert arms == []
    assert (tmp_path / "st" / "stats_report.txt").read_text().startswith(
        f"temporal i1, pixel {(r, c)}\n")
    assert main(["reconstruct", str(stack), "--ref-pixel", f"{r},{c}",
                 "--out", str(tmp_path / "named")]) == 0
    for name in ("correlation_map.csv", "correlation_map.pgm", "correlation_map_norm.csv"):
        assert (tmp_path / "rec" / name).read_bytes() == (tmp_path / "named" / name).read_bytes()


def test_stats_temporal_i2_picks_from_the_i2_frames(tmp_path, small_cfg):
    # no moments are stored for i2: its auto pixel comes from a pass of its frames
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "120"])
    stack = out / "frames.twmg"
    assert main(["stats", str(stack), "--mode", "temporal", "--arm", "i2",
                 "--out", str(tmp_path / "st")]) == 0
    px = _pick(framestack.iter_frames(stack, "i2"))
    assert (tmp_path / "st" / "stats_report.txt").read_text().startswith(
        f"temporal i2, pixel {px}\n")


def test_stats_temporal_dark_pixel_is_data_error(tmp_path, small_cfg, capsys):
    # a pixel dark in every shot has no thermal law to fit: exit 2, naming it,
    # with no numpy warning and no histogram written
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "120"])
    stack = out / "frames.twmg"
    moments = framestack.Moments.of(framestack.iter_frames(stack, "i1"))
    r, c = (int(v) for v in np.argwhere(moments.s1 == 0)[0])
    st = tmp_path / "st"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["stats", str(stack), "--mode", "temporal", "--pixel", f"{r},{c}",
                     "--out", str(st)]) == 2
    err = capsys.readouterr().err
    assert f"temporal i1, pixel ({r}, {c}): sample mean 0 <= 0" in err
    assert not (st / "histogram.csv").exists()


def test_stats_last_bit_range_is_data_error(tmp_path, capsys):
    # an i2 frame of 1.0 and the next double cannot be binned: exit 2, naming
    # the range, and no histogram written
    frame = np.repeat([1.0, np.nextafter(1.0, 2.0)], 128).reshape(16, 16)
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, [framestack.ShotRecord(i1=frame, i2=frame, shot_index=0)],
                           16, 16, 1, 0, "test")
    st = tmp_path / "st"
    capsys.readouterr()
    assert main(["stats", str(stack), "--mode", "spatial", "--arm", "i2",
                 "--out", str(st)]) == 2
    err = capsys.readouterr().err
    assert "spatial i2, shot 0: samples span 1 to 1.0000000000000002" in err
    assert not (st / "histogram.csv").exists()


def test_stats_non_finite_frame_is_data_error(tmp_path, capsys):
    # a stack holding a NaN pixel: exit 2, naming the non-finite sample
    frame = np.ones((16, 16))
    frame[3, 5] = np.nan
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, [framestack.ShotRecord(i1=frame, i2=frame, shot_index=0)],
                           16, 16, 1, 0, "test")
    st = tmp_path / "st"
    capsys.readouterr()
    assert main(["stats", str(stack), "--mode", "spatial", "--arm", "i2",
                 "--out", str(st)]) == 2
    err = capsys.readouterr().err
    assert "spatial i2, shot 0: 1 of 256 samples are not finite" in err
    assert not (st / "histogram.csv").exists()


@pytest.mark.parametrize("arm, count", [("i2", 1), ("i1", 256)])
def test_reconstruct_non_finite_stack_is_data_error(tmp_path, capsys, arm, count):
    # a NaN in one i2 frame spoils one pixel of the map; a NaN in the
    # reference pixel's i1 trace spoils all of them: exit 2, the count named,
    # no map written
    rng = np.random.default_rng(3)
    shots = [framestack.ShotRecord(i1=rng.random((16, 16)), i2=rng.random((16, 16)),
                                   shot_index=k) for k in range(3)]
    getattr(shots[1], arm)[3, 5] = np.nan
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, shots, 16, 16, 3, 0, "test")
    rec = tmp_path / "rec"
    capsys.readouterr()
    assert main(["reconstruct", str(stack), "--ref-pixel", "3,5", "--out", str(rec)]) == 2
    err = capsys.readouterr().err
    assert f"{count} of 256 correlation map pixels are not finite" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not rec.exists()


def test_reconstruct_holds_few_frames(tmp_path):
    # the reader's traced peak, in frames of 8 W H bytes: the auto pick reads
    # the trailer a band of rows at a time, the loop holds three sums and one
    # i2 frame in flight, result() adds only the map and its finiteness mask,
    # and no frame outlives the pair it came in
    w = 256
    rng = np.random.default_rng(4)
    shots = (framestack.ShotRecord(i1=rng.random((w, w)), i2=rng.random((w, w)), shot_index=k)
             for k in range(8))
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, shots, w, w, 8, 0, "test")
    argv = ["reconstruct", str(stack), "--out", str(tmp_path / "rec")]
    assert main(argv) == 0    # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * w * w) <= 4.25


def test_stats_temporal_i2_holds_one_frame_in_flight(tmp_path):
    # the i2 pick sums the frames with Moments.of, which drops each frame
    # before it reads the next: its two sums, the square scratch and one
    # frame, in frames of 8 W H bytes (the thermal test needs 100 shots)
    w, n = 256, 100
    rng = np.random.default_rng(6)
    i1 = rng.random((w, w))
    shots = (framestack.ShotRecord(i1=i1, i2=rng.exponential(size=(w, w)), shot_index=k)
             for k in range(n))
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, shots, w, w, n, 0, "test")
    argv = ["stats", str(stack), "--mode", "temporal", "--arm", "i2", "--out", str(tmp_path / "st")]
    assert main(argv) == 0    # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * w * w) <= 4.25


def test_stats_spatial_reads_the_last_shot(tmp_path, small_cfg, capsys):
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)])
    stack = out / "frames.twmg"
    st = tmp_path / "st"
    assert main(["stats", str(stack), "--mode", "spatial", "--arm", "i2", "--shot", "11",
                 "--out", str(st)]) == 0
    last = list(framestack.iter_shots(stack))[11].i2
    fit = statistics.thermal_test(last.ravel())
    report = (st / "stats_report.txt").read_text()
    assert report.startswith("spatial i2, shot 11\n")
    assert f"mean = {fit.fitted_mean:.17g}\n" in report
    assert f"ks_statistic = {fit.ks_statistic:.17g}\n" in report
    for shot in ("12", "-1"):
        capsys.readouterr()
        assert main(["stats", str(stack), "--mode", "spatial", "--arm", "i2", "--shot", shot,
                     "--out", str(st)]) == 2
        assert f"shot {shot} not in stack of 12" in capsys.readouterr().err


def test_stats_spatial_i1_names_lit_bins_and_alternatives(tmp_path, small_cfg, capsys):
    # 20 modes light fewer Fourier bins than the thermal test needs samples
    out = tmp_path / "run"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out / "frames.twmg"), "--mode", "spatial", "--arm", "i1",
                 "--out", str(tmp_path / "st")]) == 2
    err = capsys.readouterr().err
    lit = int(np.count_nonzero(next(framestack.iter_frames(out / "frames.twmg", "i1"))))
    assert f"shot 0 has {lit} lit Fourier bins" in err
    assert "--mode temporal" in err and "--arm i2" in err


def test_stats_temporal_default_pixel_is_auto_reference(tmp_path, small_cfg):
    # the brightest mean i1 pixel is the reconstruct reference pixel, and
    # naming it explicitly changes no output byte
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out), "--shots", "120"])
    stack = out / "frames.twmg"
    auto, given = tmp_path / "auto", tmp_path / "given"
    assert main(["stats", str(stack), "--mode", "temporal", "--arm", "i1",
                 "--out", str(auto)]) == 0
    ref = _pick(framestack.iter_frames(stack, "i1"))
    report = (auto / "stats_report.txt").read_text()
    assert report.startswith(f"temporal i1, pixel {ref}\n")
    assert main(["stats", str(stack), "--mode", "temporal", "--arm", "i1",
                 "--pixel", f"{ref[0]},{ref[1]}", "--out", str(given)]) == 0
    for name in ("stats_report.txt", "histogram.csv"):
        assert (auto / name).read_bytes() == (given / name).read_bytes()


def test_seed_and_shots_overrides(tmp_path, small_cfg):
    out = tmp_path / "run"
    rc = main(["simulate-chaotic", "--config", small_cfg, "--out", str(out),
               "--seed", "777", "--shots", "5"])
    assert rc == 0
    header, _ = framestack.read_header(out / "frames.twmg")
    assert header.master_seed == 777 and header.n_shots == 5


@pytest.mark.parametrize("n_modes", [20, 200], ids=["copy-stack", "fft"])
def test_threads_byte_identical(tmp_path, n_modes):
    # 12 shots: on the copy stack one whole block of 8 and a partial one; on
    # the FFT path 12 blocks of one shot
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL_CFG.replace("n_modes = 20", f"n_modes = {n_modes}"))
    stacks = []
    for threads in ("1", "2", "8"):
        out = tmp_path / threads
        assert main(["simulate-chaotic", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        stacks.append((out / "frames.twmg").read_bytes())
    assert stacks[0] == stacks[1] == stacks[2]


def test_threads_bound_shots_in_flight(tmp_path, small_cfg, monkeypatch):
    # a slow writer must not let the workers run ahead of it without bound:
    # count blocks started against blocks whose shots are all written
    lock = threading.Lock()
    started, written, leads = [0], [0], []
    block = ChaoticExperiment._block

    def counted_block(self, b):
        with lock:
            started[0] += 1
            leads.append(started[0] - written[0] // self.block)
        return block(self, b)

    write_stack = framestack.write_stack

    def slow_write_stack(path, shots, *args, **kwargs):
        def paced():
            for rec in shots:
                time.sleep(0.001)
                yield rec
                with lock:
                    written[0] += 1
        return write_stack(path, paced(), *args, **kwargs)

    monkeypatch.setattr(ChaoticExperiment, "_block", counted_block)
    monkeypatch.setattr(framestack, "write_stack", slow_write_stack)
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(tmp_path / "run"),
                 "--shots", "256", "--threads", "2"]) == 0
    assert started[0] == 256 // 8 and written[0] == 256
    assert max(leads) <= 2 * 2 + 1


def test_shot_count_does_not_change_shot_bytes(tmp_path, small_cfg):
    # copy-stack path: shots come in blocks of 8, and a run that ends inside
    # a block writes the same bytes for its shots as a longer run
    def payload(shots):
        out = tmp_path / shots
        assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(out),
                     "--shots", shots]) == 0
        header, offset = framestack.read_header(out / "frames.twmg")
        # the shot payload only: the trailer's sums depend on the shot count
        end = offset + header.n_shots * header.frame_bytes
        return (out / "frames.twmg").read_bytes()[offset:end], header.frame_bytes

    full, frame = payload("16")
    for shots in (1, 13):
        assert payload(str(shots))[0] == full[:shots * frame]


# the three ways a shot is made: copy-stack product, FFT convolution, coherent sum
SHOT_PATHS = {
    "stack": SMALL_CFG,
    "fft": SMALL_CFG.replace("n_modes = 20", "n_modes = 200"),
    "coherent-sum": SMALL_CFG.replace("shots = 12", "shots = 12\ncoherent_sum = true"),
}


@pytest.mark.parametrize("path", SHOT_PATHS)
def test_experiment_shot_equals_streamed_record(tmp_path, path):
    ini = tmp_path / "run.ini"
    ini.write_text(SHOT_PATHS[path])
    out = tmp_path / "run"
    assert main(["simulate-chaotic", "--config", str(ini), "--out", str(out)]) == 0
    cfg = load_config(str(ini))
    exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                            cfg.master_seed, coherent_sum=cfg.coherent_sum)
    assert (exp.flat_stack is None, exp.coherent_sum) == (path == "fft", path == "coherent-sum")
    records = list(framestack.iter_shots(out / "frames.twmg"))
    # 8 and 11 lie in the second copy-stack block, which the 12 shots end inside
    for k in (0, 5, 8, 11):
        rec = next(exp.shots(1, start=k))
        assert rec.shot_index == k
        assert rec.i1.tobytes() == records[k].i1.tobytes()
        assert rec.i2.tobytes() == records[k].i2.tobytes()


@pytest.mark.parametrize("cmd", ["simulate-coherent", "simulate-chaotic"])
def test_mask_file_of_another_size_is_data_error(tmp_path, capsys, cmd):
    # a mask file must match the grid: one of 32 x 32 on the 64 x 64 grid
    # fails before any output is written, one of 64 x 64 runs
    for width in (32, 64):
        pgm = tmp_path / f"mask{width}.pgm"
        hole = np.zeros((width, width))
        hole[width // 2 - 2:width // 2 + 2, width // 2 - 2:width // 2 + 2] = 1.0
        masks.save_pgm16(pgm, hole)
        ini = tmp_path / f"mask{width}.ini"
        ini.write_text(SMALL_CFG + f"mask = {pgm}\n")
        out = tmp_path / f"out{width}"
        rc = main([cmd, "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        if width == 64:
            assert rc == 0
            continue
        assert rc == 2
        assert f"mask file '{pgm}' is 32 x 32 pixels, the grid is 64 x 64" in err
        assert not out.exists()


def test_non_square_grid_is_data_error(tmp_path, capsys):
    p = tmp_path / "wide.ini"
    p.write_text(SMALL_CFG.replace("height = 64", "height = 48"))
    for cmd in ("simulate-coherent", "simulate-chaotic"):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid height 48 != width 64" in err
        assert not out.exists()


@pytest.mark.parametrize("cmd, flags, env, key", [
    ("simulate-chaotic", ["--seed", "-1"], {}, "[run] master_seed"),
    ("simulate-chaotic", [], {"TWMG_RUN__MASTER_SEED": "-5"}, "[run] master_seed"),
    ("simulate-chaotic", ["--seed", str(2 ** 64)], {}, "[run] master_seed"),
    ("simulate-chaotic", ["--shots", str(2 ** 32)], {}, "[run] shots"),
    ("simulate-chaotic", ["--shots", "0"], {}, "[run] shots"),
    ("simulate-coherent", ["--seed", "-1"], {}, "[run] master_seed"),
], ids=["negative-seed", "negative-seed-env", "seed-2**64", "shots-2**32", "no-shots",
        "coherent-negative-seed"])
def test_seed_or_shots_outside_the_header_fields_is_config_error(tmp_path, small_cfg, capsys,
                                                                 monkeypatch, cmd, flags, env,
                                                                 key):
    # the stack header holds the seed in a u64 and the shot count in a u32
    for var, val in env.items():
        monkeypatch.setenv(var, val)
    out = tmp_path / "out"
    assert main([cmd, "--config", small_cfg, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_usage_error(tmp_path, small_cfg, capsys, threads):
    out = tmp_path / "out"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(out),
                 "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and "--threads" in err
    assert not out.exists()


def test_unlisted_twm_error_is_data_error(monkeypatch, capsys):
    # every TwmError but the numeric ones exits 2, also one the CLI never names
    class FreshError(TwmError):
        pass

    def fail(args):
        raise FreshError("a data error of a new kind")

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert main(["stats", "frames.twmg"]) == 2
    err = capsys.readouterr().err
    assert "error: a data error of a new kind" in err and "Traceback" not in err


def test_stats_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: `stats` must run where it is absent
    cfg = tmp_path / "c.ini"
    cfg.write_text(SMALL_CFG)
    run = tmp_path / "run"
    assert main(["simulate-chaotic", "--config", str(cfg), "--out", str(run),
                 "--shots", "100"]) == 0
    stack = str(run / "frames.twmg")
    # spatial i1 has one sample per mode bin, too few for the test
    for mode, arm in (("temporal", "i1"), ("spatial", "i2")):
        out = tmp_path / mode
        code = ("import sys; sys.modules['scipy'] = None; import twmghost.cli; "
                f"sys.exit(twmghost.cli.main(['stats', {stack!r}, '--mode', {mode!r}, "
                f"'--arm', {arm!r}, '--out', {str(out)!r}]))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "p_value" in (out / "stats_report.txt").read_text()


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_usage_errors():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_bad_ref_pixel_is_usage_error(tmp_path, small_cfg, capsys):
    out = tmp_path / "run"
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)])
    stack = str(out / "frames.twmg")
    capsys.readouterr()
    for text in ("32", "900,900", "a,b", "1.5,2", "1,2,3"):
        assert main(["reconstruct", stack, "--ref-pixel", text]) == 1
        assert main(["stats", stack, "--mode", "temporal", "--pixel", text,
                     "--out", str(tmp_path / "st")]) == 1
        err = capsys.readouterr().err
        assert err.count("usage error:") == 2 and "Traceback" not in err


def test_pixel_binning_writes_binned_frames(tmp_path, small_cfg):
    # the stack header and every frame have the detector's binned size
    p = tmp_path / "binned.ini"
    p.write_text(SMALL_CFG + "\n[detector]\npixel_binning = 2\n")
    out = tmp_path / "run"
    assert main(["simulate-chaotic", "--config", str(p), "--out", str(out)]) == 0
    header, _ = framestack.read_header(out / "frames.twmg")
    assert (header.width, header.height) == (32, 32)
    assert main(["reconstruct", str(out / "frames.twmg"), "--out", str(tmp_path / "rec")]) == 0
    gmap = np.loadtxt(tmp_path / "rec" / "correlation_map.csv", delimiter=",")
    assert gmap.shape == (32, 32)


def test_pixel_binning_above_the_grid_is_config_error(tmp_path, capsys):
    # a bin wider than the 64-pixel grid would leave 0 x 0 frames: both
    # simulate commands stop at the configuration, exit 2, naming the key
    p = tmp_path / "binned.ini"
    p.write_text(SMALL_CFG + "\n[detector]\npixel_binning = 65\n")
    for command in ("simulate-chaotic", "simulate-coherent"):
        out = tmp_path / command
        capsys.readouterr()
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[detector] pixel_binning = 65" in err and "Traceback" not in err
        assert not out.exists()
    # a bin as wide as the grid leaves one pixel
    p.write_text(SMALL_CFG + "\n[detector]\npixel_binning = 64\n")
    assert load_config(str(p)).detector.output_shape(64, 64) == (1, 1)


def test_readers_reject_empty_frames(tmp_path, capsys, stack_header):
    # the 0 x 0 stack an over-wide binning used to write, which write_stack
    # now refuses: both stack readers exit 2, naming the frame size, and
    # write nothing
    stack = tmp_path / "frames.twmg"
    stack.write_bytes(stack_header(0, 0))
    for argv in (["reconstruct", str(stack)], ["stats", str(stack), "--mode", "temporal"]):
        out = tmp_path / argv[0]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "empty 0 x 0 frames" in err and "Traceback" not in err
        assert not out.exists()


def test_readers_refuse_other_stack_versions(tmp_path, small_cfg, capsys):
    # a stack stamped with another format version is not read: exit 2, naming
    # the version, no traceback and nothing written
    main(["simulate-chaotic", "--config", small_cfg, "--out", str(tmp_path / "run")])
    raw = (tmp_path / "run" / "frames.twmg").read_bytes()
    for version in (1, 3):
        stack = tmp_path / f"v{version}.twmg"
        stack.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        for argv in (["reconstruct", str(stack)], ["stats", str(stack), "--mode", "temporal"]):
            out = tmp_path / f"{argv[0]}{version}"
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"unsupported version {version}" in err and "Traceback" not in err
            assert not out.exists()


def test_manifest_replays_the_run(tmp_path, small_cfg, monkeypatch):
    # a run's manifest holds its command-line and environment settings too:
    # replayed with neither, it writes the same stack, as an older stack is
    # rebuilt for a newer format
    monkeypatch.setenv("TWMG_SOURCE__ANGULAR_SPREAD", "2e-3")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-chaotic", "--config", small_cfg, "--shots", "16", "--seed", "7",
                 "--out", str(a)]) == 0
    for name in [n for n in os.environ if n.startswith("TWMG_")]:
        monkeypatch.delenv(name)
    assert main(["simulate-chaotic", "--config", str(a / "manifest.ini"), "--out", str(b)]) == 0
    assert (a / "frames.twmg").read_bytes() == (b / "frames.twmg").read_bytes()


def test_old_geometry_keys_replay_byte_identical(tmp_path, small_cfg):
    # manifests written before d_O, d_F, fourier_d and output_dir were dropped
    # still load and replay the same stack: those keys never reached an
    # output, and --out alone names the output directory
    elsewhere = tmp_path / "elsewhere"
    old = tmp_path / "old.ini"
    old.write_text(SMALL_CFG.replace("shots = 12", f"shots = 12\noutput_dir = {elsewhere}")
                   + "\n[geometry]\nd_O = 0.6\nd_F = 0.2\nfourier_d = 0.15\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(a)]) == 0
    assert main(["simulate-chaotic", "--config", str(old), "--out", str(b)]) == 0
    assert (a / "frames.twmg").read_bytes() == (b / "frames.twmg").read_bytes()
    assert not elsewhere.exists()
    # the manifest echoes what the file set: the old keys, and no output_dir
    # unless the file had one
    assert "output_dir" not in (a / "manifest.ini").read_text()
    assert f"output_dir = {elsewhere}" in (b / "manifest.ini").read_text()


def test_missing_stack_is_data_error(tmp_path):
    assert main(["reconstruct", str(tmp_path / "none.twmg")]) == 2


def test_bad_config_is_data_error(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[source]\nn_modes = -4\n")
    assert main(["simulate-coherent", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("ini, env, name", [
    ("[source]\nn_mode = 7\n", {}, "'n_mode'"),
    ("[sorce]\nn_modes = 7\n", {}, "[sorce]"),
    ("[run]\nshots = 12\n", {"TWMG_SOURCE__N_MODE": "7"}, "TWMG_SOURCE__N_MODE"),
], ids=["key", "section", "variable"])
def test_config_typo_is_data_error(tmp_path, monkeypatch, ini, env, name):
    # a mistyped name must not fall back to the default unnoticed
    p = tmp_path / "typo.ini"
    p.write_text(ini)
    for var, val in env.items():
        monkeypatch.setenv(var, val)
    with pytest.raises(InvalidSpec) as exc:
        load_config(str(p))
    assert name in str(exc.value)
    out = tmp_path / "out"
    assert main(["simulate-chaotic", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("env, key", [
    ({"TWMG_GRID__PITCH": "0"}, "[grid] pitch"),
    ({"TWMG_GRID__PITCH": "-16e-6"}, "[grid] pitch"),
    ({"TWMG_GRID__PITCH": "nan"}, "[grid] pitch"),
    ({"TWMG_GRID__WIDTH": "96", "TWMG_GRID__HEIGHT": "96"}, "[grid] width"),
    ({"TWMG_GEOMETRY__S2": "nan"}, "[geometry] s2"),
    ({"TWMG_GEOMETRY__FOURIER_F": "nan"}, "[geometry] fourier_f"),
    ({"TWMG_GEOMETRY__CRYSTAL_LENGTH": "inf"}, "[geometry] crystal_length"),
    ({"TWMG_SOURCE__ANGULAR_SPREAD": "nan"}, "[source] angular_spread"),
    ({"TWMG_SOURCE__ANGULAR_SPREAD": "inf"}, "[source] angular_spread"),
    ({"TWMG_SOURCE__AMPLITUDE_SCALE": "nan"}, "[source] amplitude_scale"),
    ({"TWMG_RUN__MASK_PITCH": "nan"}, "[run] mask_pitch"),
    ({"TWMG_RUN__HOLE_SPACING": "nan"}, "[run] hole_spacing"),
    ({"TWMG_RUN__HOLE_DIAMETER": "-1"}, "[run] hole_diameter"),
    ({"TWMG_DETECTOR__SATURATION_LEVEL": "-1"}, "[detector] saturation_level"),
], ids=["pitch-0", "pitch-negative", "pitch-nan", "width-96", "s2-nan", "fourier_f-nan",
        "crystal_length-inf", "angular_spread-nan", "angular_spread-inf",
        "amplitude_scale-nan", "mask_pitch-nan", "hole_spacing-nan", "hole_diameter-negative",
        "saturation_level-negative"])
def test_config_number_out_of_range_is_config_error(tmp_path, small_cfg, capsys, monkeypatch,
                                                    env, key):
    # a non-finite, zero or negative number must neither crash, nor pass as a
    # numerical failure, nor write a stack of garbage
    for var, val in env.items():
        monkeypatch.setenv(var, val)
    out = tmp_path / "out"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where, key, value", [
    ("env", "[source] n_modes", "2e3"),
    ("file", "[run] shots", "1.5"),
    ("env", "[run] master_seed", "-"),
    ("file", "[grid] width", "abc"),
    ("env", "[detector] pixel_binning", "1.0"),
    ("file", "[run] coherent_sum", "maybe"),
    ("env", "[source] fixed_directions", "maybe"),
], ids=["n_modes", "shots", "master_seed", "width", "pixel_binning", "coherent_sum",
        "fixed_directions"])
def test_config_malformed_integer_or_boolean_names_the_key(tmp_path, small_cfg, capsys,
                                                           monkeypatch, where, key, value):
    # a value that is not an integer or a boolean is refused by its key, from
    # a file or from the environment, before `--out` is made
    sec, name = key[1:].split("] ")
    config = small_cfg
    if where == "env":
        monkeypatch.setenv(f"TWMG_{sec.upper()}__{name.upper()}", value)
    else:
        config = tmp_path / "bad.ini"
        config.write_text(f"[{sec}]\n{name} = {value}\n")
    with pytest.raises(InvalidSpec, match=re.escape(f"{key} = {value!r} is not a")):
        load_config(str(config))
    out = tmp_path / "out"
    assert main(["simulate-chaotic", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


def test_sampling_violation_is_numeric_error(tmp_path):
    # a mask that fills the object grid aliases the lens chirp; set-up fails
    # before `--out` is made
    p = tmp_path / "wide.ini"
    p.write_text("[run]\nhole_diameter = 12e-3\nhole_spacing = 1e-3\n")
    for cmd in ("simulate-coherent", "simulate-chaotic"):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(p), "--out", str(out)]) == 3
        assert not out.exists()


def test_free_mode_directions_are_config_error(tmp_path, small_cfg, capsys, monkeypatch):
    # the shot loop needs fixed directions: refused in set-up, before `--out`
    monkeypatch.setenv("TWMG_SOURCE__FIXED_DIRECTIONS", "false")
    out = tmp_path / "out"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "fixed_directions" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of a second to import and only `stats` needs it
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, twmghost.cli; print('scipy.stats' in sys.modules)"],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the modules of the coherent chain and the shot loop, which the stack
# readers do not run
SIMULATOR = ("twmghost.pipeline", "twmghost.config", "twmghost.chaotic_source",
             "twmghost.propagation", "twmghost.geometry")


def _loaded_after(code, names):
    """Which of `names` are in sys.modules after `code` runs in a fresh
    interpreter."""
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(set(sys.modules) & {set(names)!r})))"
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_simulator():
    assert _loaded_after("import twmghost.cli", SIMULATOR) == []


@pytest.mark.parametrize("argv", [["stats", "--mode", "temporal"],
                                  ["reconstruct", "--ref-pixel", "auto"]])
def test_stack_readers_load_no_simulator(tmp_path, small_cfg, argv):
    run = tmp_path / "run"
    assert main(["simulate-chaotic", "--config", small_cfg, "--out", str(run),
                 "--shots", "100"]) == 0
    argv = [argv[0], str(run / "frames.twmg"), *argv[1:], "--out", str(tmp_path / "out")]
    code = f"import twmghost.cli\nassert twmghost.cli.main({argv!r}) == 0"
    assert _loaded_after(code, SIMULATOR + ("concurrent.futures",)) == []


@pytest.mark.parametrize("argv, spans", [
    (["reconstruct", "--ref-pixel", "auto"], ("auto_reference_pixel", "correlate")),
    (["stats", "--mode", "temporal"], ("auto_reference_pixel", "thermal_test"))])
def test_traced_readers_run_the_library_estimators(tmp_path, argv, spans):
    # perfbench/tracer.py wraps the estimators by name: the readers must
    # call them, so that their per-layer spans are recorded, not read as 0
    rng = np.random.default_rng(6)
    shots = (framestack.ShotRecord(i1=rng.exponential(1.0, (16, 16)),
                                   i2=rng.exponential(1.0, (16, 16)), shot_index=k)
             for k in range(120))
    stack = tmp_path / "frames.twmg"
    framestack.write_stack(stack, shots, 16, 16, 120, 0, "test")
    trace = tmp_path / "trace.json"
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    proc = subprocess.run([sys.executable, str(tracer), str(trace), argv[0], str(stack),
                           *argv[1:], "--out", str(tmp_path / "out")],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(trace.read_text())
    recorded = {span[0] for span in got["spans"]}
    for name in ("auto_reference_pixel", "correlate"):
        assert f"twmghost.statistics.{name}" not in got["absent"]
    for name in spans:
        assert f"statistics.{name}" in recorded, sorted(recorded)


def test_one_thread_simulate_loads_no_estimator(tmp_path, small_cfg):
    argv = ["simulate-chaotic", "--config", small_cfg, "--threads", "1",
            "--out", str(tmp_path / "run")]
    code = f"import twmghost.cli\nassert twmghost.cli.main({argv!r}) == 0"
    assert _loaded_after(code, ("twmghost.statistics", "concurrent.futures")) == []


def test_public_names_resolve_from_the_package():
    # dir() lists every public name before any is resolved, and each
    # resolves to the object its own module defines
    code = ("import importlib, twmghost\n"
            "names = twmghost.__all__\n"
            "assert set(names) <= set(dir(twmghost)), sorted(set(names) - set(dir(twmghost)))\n"
            "from twmghost import *\n"
            "for name in names:\n"
            "    value = getattr(twmghost, name)\n"
            "    home = importlib.import_module(value.__module__)\n"
            "    assert value is getattr(home, name) is globals()[name], name")
    assert _loaded_after(code, ()) == []
    assert set(twmghost.__all__) == {
        "ChaoticExperiment", "DetectorSpec", "InteractionGeometry", "ModeSet", "ObjectMask",
        "ScalarField", "ShotRecord", "SourceSpec", "WaveVector", "coherent_image", "correlate",
        "reference_pairs", "sample_modes", "thermal_test"}


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        twmghost.no_such_name
    assert not hasattr(twmghost, "statistic")
    with pytest.raises(ImportError):
        exec("from twmghost import no_such_name", {})
