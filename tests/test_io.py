import os
from dataclasses import replace

import numpy as np
import pytest

from twmghost import framestack, masks, statistics
from twmghost.config import DEFAULTS, load_config, manifest_text
from twmghost.errors import (CorruptStack, InsufficientSamples, InvalidSpec, ShapeMismatch,
                             UnreadableFile, UnsupportedFormat)
from twmghost.pipeline import ShotRecord


def _records(rng, n=5, w=8):
    return [ShotRecord(i1=rng.random((w, w)), i2=rng.random((w, w)), shot_index=i)
            for i in range(n)]


# -- frame stacks -------------------------------------------------------------

def test_stack_roundtrip_bit_identical(tmp_path, rng):
    recs = _records(rng)
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, recs, 8, 8, 5, 42, "pcg64-seedseq")
    header, _ = framestack.read_header(path)
    assert (header.width, header.height, header.n_shots) == (8, 8, 5)
    assert header.master_seed == 42
    assert header.rng_algorithm == "pcg64-seedseq"
    back = list(framestack.iter_shots(path))
    assert len(back) == 5
    for a, b in zip(recs, back):
        assert a.i1.tobytes() == b.i1.tobytes()
        assert a.i2.tobytes() == b.i2.tobytes()
        assert a.shot_index == b.shot_index


@pytest.mark.parametrize("n", [1, 5])
def test_iter_frames_matches_iter_shots(tmp_path, rng, n):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng, n=n), 8, 8, n, 42, "pcg64-seedseq")
    for arm in ("i1", "i2"):
        frames = list(framestack.iter_frames(path, arm))
        assert len(frames) == n
        for frame, shot in zip(frames, framestack.iter_shots(path)):
            assert frame.tobytes() == getattr(shot, arm).tobytes()
        # started at shot k: the frames of skipping k
        for k in range(n + 1):
            tail = list(framestack.iter_frames(path, arm, start=k))
            assert [f.tobytes() for f in tail] == [f.tobytes() for f in frames[k:]]
        # one pixel over the shots: that pixel of every frame
        for pixel in ((0, 0), (2, 5), (7, 7)):
            trace = framestack.pixel_trace(path, pixel, arm)
            assert trace.shape == (n,) and trace.dtype == np.float64
            assert trace.tobytes() == np.array([f[pixel] for f in frames]).tobytes()


def test_stack_file_size_is_exact(tmp_path, rng):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng, n=3, w=16), 16, 16, 3, 0, "x")
    header, offset = framestack.read_header(path)
    # the payload, then the i1 sum and sum-of-squares maps
    assert os.path.getsize(path) == offset + 3 * header.frame_bytes + 2 * 16 * 16 * 8


def test_stack_rejects_bad_magic(tmp_path, rng):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStack):
        framestack.read_header(path)


def test_stack_rejects_undecodable_rng_name(tmp_path, stack_header):
    # the RNG name is UTF-8; other bytes are a corrupt header, not a crash
    path = tmp_path / "s.twmg"
    path.write_bytes(stack_header(1, 1, n_shots=0, name=b"\xff") + bytes(16))
    with pytest.raises(CorruptStack, match="utf-8"):
        framestack.read_header(path)


@pytest.mark.parametrize("width, height", [(0, 0), (4, 0), (0, 4)])
def test_stack_rejects_empty_frames(tmp_path, stack_header, width, height):
    # a header of zero width or height describes no pixel to read: the reader
    # refuses it, and the writer refuses to write it, leaving no file
    path = tmp_path / "s.twmg"
    path.write_bytes(stack_header(width, height))
    with pytest.raises(CorruptStack, match=f"empty {width} x {height} frames"):
        framestack.read_header(path)
    path.unlink()
    frame = np.zeros((width, height))
    with pytest.raises(CorruptStack, match=f"empty {width} x {height} frames"):
        framestack.write_stack(path, [framestack.ShotRecord(i1=frame, i2=frame, shot_index=0)],
                               width, height, 1, 0, "x")
    assert not path.exists()


def test_stack_rejects_truncation(tmp_path, rng):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CorruptStack):
        framestack.read_header(path)


def test_readers_reject_truncated_payload(tmp_path, rng, monkeypatch):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    whole = framestack.read_header(path)
    # the trailer and 7 bytes: the cut lands in shot 4's i2 frame
    path.write_bytes(path.read_bytes()[:-(whole[0].frame_bytes + 7)])
    with pytest.raises(CorruptStack):
        framestack.pixel_trace(path, (7, 7), "i2")
    with pytest.raises(CorruptStack):
        next(framestack.iter_frames(path, "i2", start=4))
    # cut after the header was read: the short read itself is caught
    monkeypatch.setattr(framestack, "read_header", lambda _: whole)
    with pytest.raises(CorruptStack, match="shot 4 i2 pixel"):
        framestack.pixel_trace(path, (7, 7), "i2")
    with pytest.raises(CorruptStack, match="shot 4 i2 frame truncated"):
        list(framestack.iter_frames(path, "i2", start=3))
    with pytest.raises(CorruptStack, match="shot 4 i2 frame truncated"):
        list(framestack.iter_shots(path))


def test_readers_reject_truncated_trailer(tmp_path, rng, monkeypatch):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    whole = framestack.read_header(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptStack, match="size"):
        framestack.read_header(path)
    with pytest.raises(CorruptStack):
        framestack.arm_moments(path, "i1")
    # cut after the header was read: the short read itself is caught
    monkeypatch.setattr(framestack, "read_header", lambda _: whole)
    with pytest.raises(CorruptStack, match="i1 sum of squares map truncated"):
        framestack.arm_moments(path, "i1")


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("sparse", [False, True])
def test_stored_moments_equal_streamed_pass(tmp_path, rng, n, sparse):
    recs = _records(rng, n=n)
    if sparse:
        # i1 as the simulator writes it: a few lit Fourier bins per shot
        for rec in recs:
            rec.i1[rec.i1 < 0.9] = 0.0
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, recs, 8, 8, n, 0, "x")
    stored = framestack.arm_moments(path, "i1")
    streamed = framestack.Moments.of(framestack.iter_frames(path, "i1"))
    assert stored.n == streamed.n == n
    assert stored.s1.tobytes() == streamed.s1.tobytes()
    assert stored.s2.tobytes() == streamed.s2.tobytes()


def test_read_header_reads_version_2_only(tmp_path, rng, stack_header):
    # a stack of another version is refused by every reader, with or without
    # a trailer; a version-2 stack without its trailer is a size error
    path, bad = tmp_path / "s.twmg", tmp_path / "bad.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    header, offset = framestack.read_header(path)
    raw = path.read_bytes()
    assert raw[:offset] == stack_header(8, 8, n_shots=5)
    no_trailer = raw[:-header.frame_bytes]
    readers = (framestack.read_header, lambda p: list(framestack.iter_shots(p)),
               lambda p: list(framestack.iter_frames(p, "i2")),
               lambda p: framestack.pixel_trace(p, (2, 5)), framestack.arm_moments)
    for version, body in ((1, raw), (1, no_trailer), (3, raw)):
        bad.write_bytes(body[:4] + version.to_bytes(4, "little") + body[8:])
        for read in readers:
            with pytest.raises(CorruptStack, match=f"unsupported version {version}"):
                read(bad)
    bad.write_bytes(no_trailer)
    with pytest.raises(CorruptStack, match="size"):
        framestack.read_header(bad)


def test_empty_stack_has_no_reference_pixel(tmp_path):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, [], 8, 8, 0, 0, "x")
    assert framestack.arm_moments(path).n == 0
    with pytest.raises(InsufficientSamples, match="no frames"):
        statistics.auto_reference_pixel(framestack.arm_moments(path))


def test_reader_argument_errors(tmp_path, rng):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, _records(rng), 8, 8, 5, 0, "x")
    for pixel in ((8, 0), (0, 8), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            framestack.pixel_trace(path, pixel)
    with pytest.raises(ValueError):
        framestack.pixel_trace(path, (0, 0), "i3")
    with pytest.raises(ValueError):
        next(framestack.iter_frames(path, "i1", start=-1))


@pytest.mark.parametrize("order, first", [
    ([5, 6, 7, 8, 9], "shot 5 arrived at stack position 0"),
    ([0, 2, 1, 3, 4], "shot 2 arrived at stack position 1"),
], ids=["started-at-shot-5", "two-shots-swapped"])
def test_stack_rejects_shots_out_of_order(tmp_path, rng, order, first):
    # position k of a stack is read back as shot k
    shots = [replace(r, shot_index=k) for r, k in zip(_records(rng), order)]
    path = tmp_path / "s.twmg"
    with pytest.raises(CorruptStack, match=first):
        framestack.write_stack(path, shots, 8, 8, 5, 0, "x")
    # a partial stack would fail read_header's size check: none may be left
    assert not path.exists()


def test_stack_count_mismatch(tmp_path, rng):
    path = tmp_path / "s.twmg"
    with pytest.raises(CorruptStack):
        framestack.write_stack(path, _records(rng, n=3), 8, 8, 5, 0, "x")
    assert not path.exists()


class _ShotSourceFailed(Exception):
    pass


def _failing_shots(records):
    yield from records[:2]
    raise _ShotSourceFailed("shot 2 could not be made")


@pytest.mark.parametrize("shots, error", [
    (lambda recs: recs[:1] + [replace(recs[1], i2=recs[1].i2[:4])], CorruptStack),
    (_failing_shots, _ShotSourceFailed),
], ids=["wrong-frame-shape", "shots-iterator-raises"])
def test_failed_write_leaves_no_file(tmp_path, rng, shots, error):
    path = tmp_path / "s.twmg"
    with pytest.raises(error):
        framestack.write_stack(path, shots(_records(rng, n=3)), 8, 8, 3, 0, "x")
    assert not path.exists()


def test_path_that_cannot_be_opened_is_left_alone(tmp_path, rng):
    with pytest.raises(IsADirectoryError):
        framestack.write_stack(tmp_path, _records(rng, n=3), 8, 8, 3, 0, "x")
    assert tmp_path.is_dir()


# -- PGM / CSV ----------------------------------------------------------------

def test_pgm16_roundtrip(tmp_path, rng):
    img = rng.random((16, 16))
    lo, hi = masks.save_pgm16(tmp_path / "m.pgm", img)
    assert lo == pytest.approx(img.min()) and hi == pytest.approx(img.max())
    back = masks.load_mask(tmp_path / "m.pgm", pitch=16e-6)
    # 16-bit quantization of the min-max normalized image
    assert np.allclose(back.transmission, (img - lo) / (hi - lo), atol=1.0 / 65535)
    assert back.pitch == 16e-6


def test_load_mask_p2_ascii(tmp_path):
    (tmp_path / "a.pgm").write_text("P2\n# comment\n2 3\n255\n"
                                    "0 255\n128 0\n255 128\n")
    m = masks.load_mask(tmp_path / "a.pgm", pitch=1e-5)
    # PNM rows are y-major; the loader transposes to x-major
    assert m.transmission.shape == (2, 3)
    assert m.transmission[1, 0] == pytest.approx(1.0)
    assert m.transmission[0, 1] == pytest.approx(128 / 255)


def test_load_mask_errors(tmp_path):
    with pytest.raises(UnreadableFile):
        masks.load_mask(tmp_path / "missing.pgm", pitch=1e-5)
    (tmp_path / "bad.pgm").write_bytes(b"P7\nnot a pgm\n")
    with pytest.raises(UnsupportedFormat):
        masks.load_mask(tmp_path / "bad.pgm", pitch=1e-5)


def test_csv_full_precision_roundtrip(tmp_path, rng):
    arr = rng.standard_normal((5, 4))
    masks.save_csv(tmp_path / "a.csv", arr, header="c0,c1,c2,c3")
    back = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    assert np.array_equal(back, arr)   # %.17g survives the roundtrip exactly


def test_three_holes_mask_geometry():
    m = masks.three_holes(width=256, pitch=52e-6, hole_diameter=256e-6,
                          spacing=1.2e-3)
    t = m.transmission
    assert t.shape == (256, 256)
    assert set(np.unique(t)) <= {0.0, 1.0}
    # three holes of ~256 um diameter: area check within 20%
    hole_px = np.pi * (128e-6 / 52e-6) ** 2
    assert t.sum() == pytest.approx(3 * hole_px, rel=0.2)
    # centers are pairwise `spacing` apart
    from scipy import ndimage
    lab, n = ndimage.label(t)
    assert n == 3
    cent = np.array(ndimage.center_of_mass(t, lab, range(1, 4))) * 52e-6
    d01 = np.linalg.norm(cent[0] - cent[1])
    d02 = np.linalg.norm(cent[0] - cent[2])
    d12 = np.linalg.norm(cent[1] - cent[2])
    assert d01 == pytest.approx(1.2e-3, rel=0.05)
    assert d02 == pytest.approx(1.2e-3, rel=0.05)
    assert d12 == pytest.approx(1.2e-3, rel=0.05)


@pytest.mark.parametrize("build, what", [
    (lambda: masks.three_holes(width=64, pitch=0.0), "pitch"),
    (lambda: masks.three_holes(width=64, pitch=np.nan), "pitch"),
    (lambda: masks.three_holes(width=64, hole_diameter=-1.0), "hole_diameter"),
    (lambda: masks.three_holes(width=64, hole_diameter=np.nan), "hole_diameter"),
    (lambda: masks.three_holes(width=64, spacing=np.inf), "spacing"),
    (lambda: masks.ObjectMask(np.zeros((4, 4)), np.inf), "pitch"),
    (lambda: masks.ObjectMask(np.full((4, 4), np.nan), 1e-5), r"\[0, 1\]"),
], ids=["pitch-0", "pitch-nan", "hole_diameter-negative", "hole_diameter-nan", "spacing-inf",
        "mask-pitch-inf", "transmission-nan"])
def test_masks_reject_non_finite_and_out_of_range(build, what):
    # NaN passes a check written as x <= 0
    with pytest.raises(InvalidSpec, match=what):
        build()


# -- configuration ------------------------------------------------------------

def test_default_config_loads():
    cfg = load_config()
    assert cfg.width == 256 and cfg.pitch == 16e-6
    assert cfg.source.n_modes == 200
    assert cfg.geometry.d == pytest.approx(0.4)
    assert cfg.master_seed == 12345
    # 'auto' mask pitch resolves to the detector-matched object pitch
    assert cfg.mask_pitch == pytest.approx(532e-9 * 0.4 / (256 * 16e-6))


def test_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[run]\nshots = 7\nmaster_seed = 3\n\n[source]\nn_modes = 13\n")
    cfg = load_config(str(p))
    assert cfg.shots == 7 and cfg.master_seed == 3
    assert cfg.source.n_modes == 13
    cfg2 = load_config(str(p), overrides={("run", "shots"): 9})
    assert cfg2.shots == 9


def test_config_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("TWMG_RUN__SHOTS", "21")
    monkeypatch.setenv("TWMG_SOURCE__N_MODES", "77")
    cfg = load_config()
    assert cfg.shots == 21
    assert cfg.source.n_modes == 77


def test_config_rejects_bad_values(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[source]\nn_modes = 0\n")
    with pytest.raises(InvalidSpec):
        load_config(str(p))


def test_manifest_echo():
    cfg = load_config()
    text = manifest_text(cfg, "0.1.0", "pcg64-seedseq")
    assert "pcg64-seedseq" in text
    assert "0.1.0" in text
    for section in DEFAULTS:
        assert f"[{section}]" in text
    # the manifest is itself a loadable config that reproduces the run
    import configparser
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(text)
    assert cp["run"]["master_seed"] == "12345"
    assert cp["geometry"]["f"] == "0.3"
