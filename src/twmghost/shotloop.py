"""The shot loop of `simulate-chaotic`: a run's shots made and written to
its stack from two processes, or from one.

After set-up, `write_chaotic_stack` forks one helper process when the run
has two shot blocks or more, the stack is a seekable file, and `os.fork`
and two CPUs of `os.sched_getaffinity` are there; otherwise (one block, a
pipe, one CPU, or a platform without either call, such as macOS or
Windows) it runs the same loop in this one.  Block b is made by process
b % 2, each through the one shot path `ChaoticExperiment.shots(n, start)`,
and each record is checked and written at its fixed offset by the one
`stackwriter.StackWriter.put`, through which `framestack.write_stack`
writes too.  Threads lost this
loop to the GIL (numpy's FFT holds it, and a writer thread waits for it
after every write); two processes share no GIL, only the open stack file
and a pipe.

Through the pipe, the helper sends the parent each shot's lit i1 values and
its two arm-lit flags, flushed once per block; the parent adds them into
the trailer's sums in shot order, so every byte of the stack is the
one-process run's.  The pipe's back-pressure bounds how far the helper
runs ahead, and each process holds one block of shots at a time.

The helper ends in `os._exit` on every path, so it runs none of the
parent's `atexit` handlers.  It sends the parent any error it raises,
which the parent raises with the same class and message, so the exit code
is the one-process run's.  The parent reaps it on every path,
KeyboardInterrupt included, and a helper whose parent is gone ends at its
next write to the pipe.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys
from typing import Iterator

import numpy as np

from .errors import DegenerateGeometry
from .framestack import StackHeader
from .pipeline import ChaoticExperiment
from .stackwriter import StackWriter


def write_chaotic_stack(exp: ChaoticExperiment, path, n_shots: int,
                        rng_algorithm: str) -> StackHeader:
    """Write shots 0 to n_shots - 1 of `exp` to a stack at `path`, from two
    processes where they can run side by side; then refuse the run with a
    DegenerateGeometry, and leave no stack, if i1 or i2 is 0 in every shot."""
    width, height = exp.det.output_shape(*exp.base_image.shape)
    header = StackHeader(width, height, n_shots, exp.master_seed, rng_algorithm)
    blocks = -(-n_shots // exp.block)
    # whether i1 and i2 are lit in some shot so far
    lit = [False, False]
    with StackWriter(path, header, exp.i1_lit) as out:
        helper = None
        try:
            if (blocks >= 2 and out.positional and hasattr(os, "fork")
                    and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
                helper = _Helper(exp, out, n_shots)
                helper.release()
            for b in range(blocks):
                if helper and b % 2:
                    for _ in range(min(exp.block, n_shots - b * exp.block)):
                        row = helper.shot()
                        out.add(row[:-2])
                    lit[:] = [on or bool(flag) for on, flag in zip(lit, row[-2:])]
                else:
                    for values in _put_block(exp, out, b, n_shots, lit):
                        out.add(values)
        finally:
            if helper:
                helper.reap()
        dark = [arm for arm, on in zip(("i1", "i2"), lit) if not on]
        if dark:
            raise DegenerateGeometry(
                f"{' and '.join(dark)} {'is' if len(dark) == 1 else 'are'} 0 in all {n_shots} "
                f"shots after the detector ([detector] saturation_level = "
                f"{exp.det.saturation_level:g}, bit_depth = {exp.det.bit_depth}): a value under "
                f"half a quantization step reads 0")
        out.finish()
    return header


def _put_block(exp: ChaoticExperiment, out: StackWriter, b: int, n_shots: int,
               lit: list) -> Iterator[np.ndarray]:
    """Make block b of `exp`, put each of its records through `out` and yield
    its lit i1 values, once `lit` (whether i1 and i2 are lit in this record
    or one before) is updated.  An arm is tested only until it is lit: a run
    lit from shot 0 pays one any() per arm and process."""
    first = b * exp.block
    for k, rec in enumerate(exp.shots(min(exp.block, n_shots - first), first), first):
        values = out.put(rec, k)
        lit[:] = [on or bool(frame.any()) for on, frame in zip(lit, (rec.i1, rec.i2))]
        # dropped before the next record is made
        del rec
        yield values


class _Helper:
    """The forked process that makes blocks 1, 3, 5, ... of a run.  It puts
    each record through the `StackWriter` it shares with the parent, then
    writes the parent a row: the shot's lit i1 values and the two arms'
    flags (lit in this shot or one before), flushed at the end of each block.
    It is forked with SIGINT blocked and keeps it so: the parent, which
    `release`s the signal once it holds the pid, stops it."""

    def __init__(self, exp: ChaoticExperiment, out: StackWriter, n_shots: int):
        import signal
        self._signal, self._row = signal, np.empty(out.lit.size + 2)
        read, write = os.pipe()
        # nothing buffered here is written twice
        for stream in (sys.stdout, sys.stderr):
            if stream:
                stream.flush()
        self._mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            self.pid = os.fork()
        except BaseException:
            self.release()
            os.close(read)
            os.close(write)
            raise
        if not self.pid:
            self._run(exp, out, n_shots, read, write)
        os.close(write)
        self._pipe = os.fdopen(read, "rb")

    def _run(self, exp: ChaoticExperiment, out: StackWriter, n_shots: int, read: int,
             write: int):
        """The helper's life; it never returns."""
        code, row = 1, self._row
        try:
            os.close(read)
            pipe = os.fdopen(write, "wb")
            lit = [False, False]
            for b in range(1, -(-n_shots // exp.block), 2):
                for values in _put_block(exp, out, b, n_shots, lit):
                    row[:-2], row[-2:] = values, lit
                    pipe.write(b"R")
                    pipe.write(row.data)
                pipe.flush()
            code = 0
        except BaseException as exc:
            # a broken pipe: the parent is gone, or has stopped reading
            with contextlib.suppress(BaseException):
                pipe.write(b"E" + pickle.dumps(exc))
                pipe.flush()
        finally:
            os._exit(code)

    def release(self):
        """Unblock SIGINT in the parent, as it was before the fork."""
        self._signal.pthread_sigmask(self._signal.SIG_SETMASK, self._mask)

    def shot(self) -> np.ndarray:
        """The helper's row of its next shot (its lit i1 values, then i1's
        and i2's flags), valid until the next call, or the error it raised
        in its place."""
        tag = self._pipe.read(1)
        if tag == b"E":
            raise pickle.loads(self._pipe.read())
        if tag != b"R" or self._pipe.readinto(self._row) != self._row.nbytes:
            raise ChildProcessError(f"the stack's helper process {self.pid} ended before it "
                                    f"sent its next shot")
        return self._row

    def reap(self):
        """Stop and reap the helper, done with its blocks or not."""
        self._pipe.close()
        os.kill(self.pid, self._signal.SIGKILL)
        os.waitpid(self.pid, 0)
