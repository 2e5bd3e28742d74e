"""Traced twmghost CLI run, and the per-layer figures drawn from its spans.

Run as a script it executes one CLI command with the public functions of
each twmghost module wrapped in spans:

    python3 perfbench/tracer.py TRACE.json <twmghost CLI arguments>

Nothing in the program changes: the wrappers are installed from here, around
the calls into each layer. A span is (name, start, end, parent); spans and
counts are kept in memory and written to TRACE.json when the command ends.
A wrapped function that no longer exists is listed under "absent" and does
not make the run fail.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.open_spans = []
        self.counts = {}
        self.absent = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self.open_spans[-1] if self.open_spans else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.open_spans.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.open_spans.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def high_water(self, key, n):
        self.counts[key] = max(self.counts.get(key, n), n)

    def call(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return traced

    def each(self, name, iterable):
        """Yield from `iterable`, one span per item produced."""
        it = iter(iterable)
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            yield item


def install(tr: Tracer):
    """Wrap the layer entry points used by simulate-chaotic, reconstruct and stats."""
    from twmghost import chaotic_source, cli, framestack, pipeline, statistics

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "twmghost" or name.startswith("twmghost."))]

    def replace(owner, attr, make):
        is_class = isinstance(owner, type)
        orig = getattr(owner, attr, None)
        if orig is None:
            where = f"{owner.__module__}.{owner.__qualname__}" if is_class else owner.__name__
            tr.absent.append(f"{where}.{attr}")
            return
        new = make(orig)
        if is_class:
            setattr(owner, attr, new)
            return
        for m in modules:   # also rebind names imported with `from x import y`
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)

    def plain(name, after=None):
        return lambda fn: tr.call(name, fn, after)

    for cmd in ("cmd_simulate_chaotic", "cmd_reconstruct", "cmd_stats"):
        replace(cli, cmd, plain(f"cli.{cmd}"))

    replace(pipeline, "coherent_field", plain("pipeline.coherent_field"))
    replace(pipeline, "apply_detector", plain("pipeline.apply_detector"))

    def copy_stack_bytes(_, exp, *args, **kwargs):
        stack = getattr(exp, "flat_stack", None)
        tr.high_water("pipeline.copy_stack_bytes", int(getattr(stack, "nbytes", 0)))

    experiment = getattr(pipeline, "ChaoticExperiment", None)
    if experiment is None:
        tr.absent.append("twmghost.pipeline.ChaoticExperiment")
    else:
        replace(experiment, "__init__", plain("pipeline.experiment_init", copy_stack_bytes))
        replace(experiment, "shot", plain("pipeline.shot"))

    replace(chaotic_source, "sample_modes", plain("chaotic_source.sample_modes"))

    def off_grid(_, m, g, template, *args, **kwargs):
        xs, ys = chaotic_source.mode_fourier_positions(m, g.lens_fourier_f)
        w, h = template.shape
        ix = (xs / template.pitch).round().astype(int) + w // 2
        iy = (ys / template.pitch).round().astype(int) + h // 2
        tr.high_water("chaotic_source.modes_off_grid",
                      int(((ix < 0) | (ix >= w) | (iy < 0) | (iy >= h)).sum()))

    replace(chaotic_source, "fourier_intensity",
            plain("chaotic_source.fourier_intensity", off_grid))

    def traced_write(fn):
        @functools.wraps(fn)
        def write_stack(path, shots, *args, **kwargs):
            idx = tr.begin("framestack.write_stack")
            try:
                out = fn(path, tr.each("framestack.shot_source", shots), *args, **kwargs)
            finally:
                tr.end(idx)
            tr.count("framestack.bytes_written", os.path.getsize(path))
            return out
        return write_stack

    def traced_iter(fn):
        @functools.wraps(fn)
        def iter_shots(path, *args, **kwargs):
            for rec in tr.each("framestack.read", fn(path, *args, **kwargs)):
                tr.count("framestack.i1_bytes_read", int(rec.i1.nbytes))
                yield rec
            tr.count("framestack.read_passes")
        return iter_shots

    replace(framestack, "write_stack", traced_write)
    replace(framestack, "iter_shots", traced_iter)

    for fn in ("auto_reference_pixel", "correlate", "thermal_test"):
        replace(statistics, fn, plain(f"statistics.{fn}"))


def summarize(trace: dict) -> dict:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child):
        if end is None:
            continue
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - inner
    return out


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import twmghost.cli
    import_s = time.perf_counter() - t0
    tr = Tracer()
    install(tr)
    rc = 1
    try:
        rc = twmghost.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "rc": rc, "spans": tr.spans,
                       "counts": tr.counts, "absent": tr.absent}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
