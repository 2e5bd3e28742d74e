import os
import re
import stat
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twmghost import framestack, masks, stackwriter, statistics
from twmghost.config import DEFAULTS, load_config, manifest_text
from twmghost.errors import CorruptStack, InsufficientSamples, InvalidSpec, ShapeMismatch
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


@pytest.mark.parametrize("field, value", [
    ("width", 2 ** 32), ("height", -1), ("n_shots", 2 ** 32), ("n_shots", -1),
    ("master_seed", 2 ** 64), ("master_seed", -1),
])
def test_writer_refuses_a_header_field_out_of_range(tmp_path, monkeypatch, field, value):
    # W, H and the shot count are u32 fields and the seed a u64: a value
    # they cannot hold is refused before the file is opened
    fields = {"width": 8, "height": 8, "n_shots": 0, "master_seed": 0, field: value}
    opened = []
    monkeypatch.setattr(stackwriter, "open", lambda *a: opened.append(a) or open(*a),
                        raising=False)
    path = tmp_path / "s.twmg"
    with pytest.raises(CorruptStack, match=f"^{field} {value} does not fit"):
        framestack.write_stack(path, [], rng_algorithm="x", **fields)
    assert not opened and not path.exists()


def test_header_fields_hold_their_largest_values(tmp_path):
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, [], 8, 8, 0, 2 ** 64 - 1, "x")
    assert framestack.read_header(path)[0].master_seed == 2 ** 64 - 1


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
    # cut after the header was read: the short read itself is caught, as
    # the trailer's bands are read
    monkeypatch.setattr(framestack, "read_header", lambda _: whole)
    with pytest.raises(CorruptStack, match="i1 sum of squares map truncated"):
        list(framestack.arm_moments(path, "i1").bands())


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("sparse", [False, True])
def test_stored_moments_equal_streamed_pass(tmp_path, rng, monkeypatch, n, sparse):
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
    # band by band: the trailer read into its reused buffers against views
    # of the sums of a pass over the frames; bands of 3 rows leave a short one
    for band_rows in (3, 32):
        monkeypatch.setattr(framestack, "_BAND_ROWS", band_rows)
        rows = []
        for (row, s1, s2), (streamed_row, t1, t2) in zip(stored.bands(), streamed.bands(),
                                                         strict=True):
            assert row == streamed_row == len(rows)
            assert s1.shape == s2.shape == (min(band_rows, 8 - row), 8)
            assert s1.tobytes() == t1.tobytes()
            assert s2.tobytes() == t2.tobytes()
            rows += range(row, row + len(s1))
        assert rows == list(range(8))


def _lit_records(rng, lit, n=5, w=8):
    """Records whose i1 is +0.0 off the flat pixels `lit`."""
    recs = _records(rng, n=n, w=w)
    for rec in recs:
        rec.i1.reshape(-1)[np.setdiff1d(np.arange(w * w), lit)] = 0.0
    return recs


LIT = np.array([3, 10, 11, 40, 63])


@pytest.mark.parametrize("bad_lit, shot", [
    (np.array([3, 10, 10, 40, 63]), None),
    (np.array([3, 10, 11, 40, 64]), None),
    (np.array([-1, 3, 10, 11, 40]), None),
    (LIT.astype(float), None),
    (LIT, 2),
], ids=["repeated-index", "index-past-frame", "negative-index", "float-index",
        "frame-lit-off-its-set"])
def test_writer_refuses_a_bad_i1_lit(tmp_path, rng, monkeypatch, bad_lit, shot):
    # each would make a trailer that disagrees with the frames: a repeated
    # pixel summed twice, or a pixel lit off the set never summed.  A bad
    # set is refused before the file is opened or a shot is taken; a frame
    # lit off a good one is refused at its shot, and the file removed
    recs = _lit_records(rng, LIT)
    recs[2].i1[0, 0] = 1.0
    stream = iter(recs)
    path = tmp_path / "s.twmg"
    opened = []
    monkeypatch.setattr(stackwriter, "open", lambda *a: opened.append(a) or open(*a),
                        raising=False)
    match = "^i1_lit is not" if shot is None else f"^shot {shot}: i1 is not"
    with pytest.raises(CorruptStack, match=match):
        framestack.write_stack(path, stream, 8, 8, 5, 0, "x", i1_lit=bad_lit)
    assert not path.exists()
    assert len(opened) == (shot is not None)
    assert len(list(stream)) == (5 if shot is None else 2)


def test_writer_refuses_minus_zero_off_i1_lit(tmp_path, rng):
    # -0.0 adds nothing to a sum, but a byte seeked past reads back as +0.0:
    # a lit set promises +0.0 off it, so -0.0 there is refused at its shot.
    # Without the set every pixel is lit and written, -0.0 and all
    recs = _lit_records(rng, LIT)
    recs[1].i1[0, 0] = -0.0
    path = tmp_path / "s.twmg"
    with pytest.raises(CorruptStack, match="^shot 1: i1 is not"):
        framestack.write_stack(path, recs, 8, 8, 5, 0, "x", i1_lit=LIT)
    assert not path.exists()
    framestack.write_stack(path, recs, 8, 8, 5, 0, "x")
    back = list(framestack.iter_frames(path, "i1"))
    assert np.signbit(back[1][0, 0])
    assert [f.tobytes() for f in back] == [rec.i1.tobytes() for rec in recs]


@pytest.mark.parametrize("n", [0, 5])
def test_write_without_i1_lit_lights_every_pixel(tmp_path, rng, n):
    # without i1_lit the writer takes every pixel as lit: the same bytes as
    # a write given all of them, a -0.0 in i1 kept, and for no shots too
    recs = _records(rng, n=n)
    if n:
        recs[1].i1[2, 3] = -0.0
    plain, every = tmp_path / "plain.twmg", tmp_path / "every.twmg"
    framestack.write_stack(plain, recs, 8, 8, n, 0, "x")
    framestack.write_stack(every, recs, 8, 8, n, 0, "x", i1_lit=np.arange(64))
    assert plain.read_bytes() == every.read_bytes()
    back = list(framestack.iter_frames(plain, "i1"))
    assert [f.tobytes() for f in back] == [rec.i1.tobytes() for rec in recs]
    assert n == 0 or np.signbit(back[1][2, 3])


def test_writer_leaves_an_empty_lit_i1_all_hole(tmp_path, monkeypatch):
    # no pixel lit: no i1 byte is written, and every one reads back as zero
    rng, lit = np.random.default_rng(3), np.array([], dtype=np.intp)
    recs = [ShotRecord(i1=np.zeros((8, 8)), i2=rng.random((8, 8)), shot_index=k)
            for k in range(3)]
    writes = _positional_writes(monkeypatch)
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, recs, 8, 8, 3, 0, "x", i1_lit=lit)
    header, offset = framestack.read_header(path)
    i1_frames = [(offset + k * header.frame_bytes, 8 * 64) for k in range(3)]
    assert writes and not [(at, n) for at, n in writes for first, size in i1_frames
                           if at < first + size and first < at + n]
    framestack.write_stack(tmp_path / "dense.twmg", recs, 8, 8, 3, 0, "x")
    assert path.read_bytes() == (tmp_path / "dense.twmg").read_bytes()
    assert all(not f.any() and not np.signbit(f).any()
               for f in framestack.iter_frames(path, "i1"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_writer_gives_a_pipe_the_dense_bytes(tmp_path, rng):
    # a pipe cannot seek: every i1 byte is written, and a reader draining it
    # gets the bytes of the stack written to a file
    recs = _lit_records(rng, LIT)
    framestack.write_stack(tmp_path / "file.twmg", recs, 8, 8, 5, 0, "x", i1_lit=LIT)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    framestack.write_stack(fifo, recs, 8, 8, 5, 0, "x", i1_lit=LIT)
    reader.join(timeout=30)
    assert got == [(tmp_path / "file.twmg").read_bytes()]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_failed_write_to_a_pipe_leaves_the_pipe(tmp_path, rng):
    # a failed write removes only the regular file it opened: a named pipe
    # that a record of the wrong shape reaches is left in place
    recs = _records(rng, n=3)
    recs[1] = replace(recs[1], i2=recs[1].i2[:4])
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = threading.Thread(target=fifo.read_bytes, daemon=True)
    reader.start()
    with pytest.raises(CorruptStack, match=r"^frame shape \(4, 8\) != \(8, 8\)"):
        framestack.write_stack(fifo, recs, 8, 8, 3, 0, "x")
    reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def _positional_writes(monkeypatch):
    """A list that gets the (offset, length) of each positional write."""
    writes, pwrite = [], os.pwrite

    def counted(fd, data, at):
        writes.append((at, len(data)))
        return pwrite(fd, data, at)

    monkeypatch.setattr(os, "pwrite", counted)
    return writes


def test_auto_pick_from_the_trailer_holds_under_a_frame(tmp_path):
    # the pick reads the trailer a band of rows at a time: its traced peak
    # stays under one frame of 8 W H bytes on a 256 x 256 stack
    w = 256
    rng = np.random.default_rng(5)
    shots = (ShotRecord(i1=rng.random((w, w)), i2=rng.random((w, w)), shot_index=k)
             for k in range(2))
    path = tmp_path / "s.twmg"
    framestack.write_stack(path, shots, w, w, 2, 0, "x")
    pick = statistics.auto_reference_pixel(framestack.arm_moments(path, "i1"))   # warm-up
    tracemalloc.start()
    try:
        assert statistics.auto_reference_pixel(framestack.arm_moments(path, "i1")) == pick
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * w * w) <= 1.0


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


@pytest.mark.parametrize("value, pixel", [(0.013575, 65535), (-2.0, 65535), (0.0, 0)])
def test_pgm16_constant_image(tmp_path, value, pixel):
    # a constant image has no span to normalize by: white unless it is zero
    assert masks.save_pgm16(tmp_path / "c.pgm", np.full((3, 2), value)) == (value, value)
    data = (tmp_path / "c.pgm").read_bytes()
    assert data == b"P5\n3 2\n65535\n" + pixel.to_bytes(2, "big") * 6


def test_load_mask_p2_ascii(tmp_path):
    (tmp_path / "a.pgm").write_text("P2\n# comment\n2 3\n255\n"
                                    "0 255\n128 0\n255 128\n")
    m = masks.load_mask(tmp_path / "a.pgm", pitch=1e-5)
    # PNM rows are y-major; the loader transposes to x-major
    assert m.transmission.shape == (2, 3)
    assert m.transmission[1, 0] == pytest.approx(1.0)
    assert m.transmission[0, 1] == pytest.approx(128 / 255)


def test_load_mask_errors(tmp_path):
    with pytest.raises(InvalidSpec, match="cannot read mask"):
        masks.load_mask(tmp_path / "missing.pgm", pitch=1e-5)
    (tmp_path / "bad.pgm").write_bytes(b"P7\nnot a pgm\n")
    with pytest.raises(InvalidSpec, match="unsupported PNM magic"):
        masks.load_mask(tmp_path / "bad.pgm", pitch=1e-5)


@pytest.mark.parametrize("data, match", [
    (b"P5\nabc 64\n255\n", "{path}: PNM header holds a value that is not an integer"),
    (b"P2\n2 1\n255\n0 x\n", "{path}: P2 payload holds a value that is not a number"),
    (b"P5\n-2 -3\n255\nXXXXXX", "{path}: negative size -2 x -3"),
    (b"P5\n0 0\n255\n", r"mask transmission of shape \(0, 0\) is empty"),
], ids=["header-not-integer", "p2-value-not-number", "negative-size", "no-pixels"])
def test_load_mask_refuses_a_malformed_graymap(tmp_path, data, match):
    # a graymap that cannot be parsed is an InvalidSpec, naming the file
    # where the parser finds the fault
    path = tmp_path / "m.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidSpec, match=match.replace("{path}", re.escape(str(path)))):
        masks.load_mask(path, pitch=1e-5)


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
    ndimage = pytest.importorskip("scipy.ndimage")
    lab, n = ndimage.label(t)
    assert n == 3
    cent = np.array(ndimage.center_of_mass(t, lab, range(1, 4))) * 52e-6
    d01 = np.linalg.norm(cent[0] - cent[1])
    d02 = np.linalg.norm(cent[0] - cent[2])
    d12 = np.linalg.norm(cent[1] - cent[2])
    assert d01 == pytest.approx(1.2e-3, rel=0.05)
    assert d02 == pytest.approx(1.2e-3, rel=0.05)
    assert d12 == pytest.approx(1.2e-3, rel=0.05)


def _three_holes_full_grid(width, pitch, hole_diameter, spacing):
    """The three-hole target drawn on the whole grid, one hypot map per hole."""
    x = (np.arange(width) - width // 2) * pitch
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rad = spacing / np.sqrt(3.0)
    t = np.zeros((width, width))
    for a in (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3):
        t[np.hypot(xx - rad * np.cos(a), yy - rad * np.sin(a)) <= hole_diameter / 2] = 1.0
    return t


@pytest.mark.parametrize("width, pitch", [(256, 52e-6), (128, 104e-6), (64, 208e-6),
                                          (64, 30e-6), (33, 52e-6), (16, 52e-6), (1, 52e-6)])
@pytest.mark.parametrize("hole_diameter, spacing", [
    (256e-6, 1.2e-3),     # the default target
    (2e-3, 1.2e-3),       # holes that overlap, and on small grids run off the edge
    (156e-6, 260e-6),     # holes a few pixels wide, close together
])
def test_three_holes_equals_the_full_grid_formula(width, pitch, hole_diameter, spacing):
    # the bytes of the whole grid's distance maps, also where the grid edge
    # clips a hole or cuts it away
    t = masks.three_holes(width, pitch, hole_diameter, spacing).transmission
    assert np.array_equal(t, _three_holes_full_grid(width, pitch, hole_diameter, spacing))


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
