#!/usr/bin/env python3
"""Benchmark of the twmghost CLI chain: simulate-chaotic -> reconstruct -> stats.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
`src/`. One round runs four CLI commands, each in its own child process and
one at a time: a one-shot `simulate-chaotic` (set-up), the full
`simulate-chaotic`, then `reconstruct --ref-pixel auto` and `stats --mode
temporal`. Each is timed from outside, its peak RSS is read with
wait4, and its outputs are checked (see checks.py). A round starts while the
run is expected to end within --seconds, and there are at least two; every
figure is the median over the run's rounds, and every time is
scaled to a reference machine speed by a fixed loop timed before each
command (see YARDSTICK_REF_S); the unscaled wall medians are printed too.

Each command is one operation; it fails when it exits non-zero or fails a
check. With --trace 1 the rounds alternate between untraced and traced
commands (see tracer.py) and the per-layer figures are printed instead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

# Fixed on every commit so that runs compare. One thread: a two-thread BLAS
# call waits for both vCPUs, so it slows by far more than the machine does
# whenever either is contended.
BLAS_THREADS = "1"
MIN_ROUNDS = 2
RUN_DEADLINE_S = 170.0
I2_SAMPLED_SHOTS = 3
# The machine runs in fast and slow spells of tens of seconds to minutes, in
# which the same command takes up to 1.4 times as long. A fixed pure-Python
# loop, timed in this process before every command, measures the spell; each
# command's wall time is scaled by YARDSTICK_REF_S over its round's median
# loop time, i.e. to seconds at the speed at which the loop takes YARDSTICK_REF_S.
YARDSTICK_ITERS = 300_000
YARDSTICK_REF_S = 0.020


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict       # INI sections passed with --config; empty: shipped defaults
    width: int
    height: int
    shots: int
    seed: int


WORKLOADS = {w.name: w for w in [
    # the run users make: 105 MB copy stack fits L3, 1 GB stack written once, read thrice.
    # Not in BENCHMARK.json: with two BLAS threads, whether the copy stack stayed in the
    # L3 this machine shares with other guests decided its simulate_s (48 % over ten runs).
    Workload("paper-default", {}, 256, 256, 1000, 12345),
    # 1.05 GB copy stack built in set-up and streamed from DRAM every shot; 100 shots is
    # the fewest `stats --mode temporal` accepts
    Workload("wideband-modes", {"source": {"n_modes": 2000}, "run": {"shots": 100}},
             256, 256, 100, 12345),
    # 3 MB copy stack: per-shot fixed costs set the pace; one mode in the auto reference bin
    Workload("small-frames",
             {"grid": {"width": 128, "height": 128},
              "source": {"n_modes": 24, "angular_spread": "1e-3"}, "run": {"shots": 2000}},
             128, 128, 2000, 12345),
]}

STAGES = ("setup", "simulate", "reconstruct", "stats")

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("simulate_s", "s"), ("reconstruct_s", "s"), ("stats_s", "s"),
    ("time_to_image_s", "s"), ("simulate_rss_mb", "MB"), ("reconstruct_rss_mb", "MB"),
    ("stats_rss_mb", "MB"), ("stack_mb", "MB"),
]

PER_LAYER = [  # name, unit
    ("cli.import_s", "s"), ("cli.stats_frames_mb", "MB"),
    ("pipeline.coherent_field_s", "s"), ("pipeline.experiment_init_s", "s"),
    ("pipeline.copy_stack_mb", "MB"), ("pipeline.shot_s", "s"),
    ("pipeline.i2_synthesis_s", "s"), ("pipeline.i2_gb_per_s", "GB/s"),
    ("pipeline.apply_detector_s", "s"),
    ("chaotic_source.sample_modes_s", "s"), ("chaotic_source.fourier_intensity_s", "s"),
    ("chaotic_source.modes_off_grid", "count"),
    ("framestack.write_s", "s"), ("framestack.bytes_written", "bytes"),
    ("framestack.read_s", "s"), ("framestack.read_passes", "count"),
    ("statistics.auto_reference_pixel_s", "s"), ("statistics.correlate_s", "s"),
    ("statistics.thermal_test_s", "s"), ("statistics.ref_bin_modes", "count"),
    ("trace.overhead_pct", "%"),
]

# spans whose absence (a later change removed the function) is reported
SPANS = ("pipeline.coherent_field", "pipeline.experiment_init", "pipeline.shot",
         "pipeline.apply_detector", "chaotic_source.sample_modes",
         "chaotic_source.fourier_intensity", "framestack.write_stack", "framestack.read",
         "statistics.auto_reference_pixel", "statistics.correlate", "statistics.thermal_test")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    rc: int


@dataclass
class Round:
    traced: bool
    children: dict = field(default_factory=dict)    # stage -> Child
    failures: list = field(default_factory=list)    # [stage, check, message, counted]
    stack_mb: float = 0.0
    ref_bin_modes: int = 0
    traces: dict = field(default_factory=dict)      # stage -> trace json
    map_projection: tuple | None = None             # (projection on E[G], standard error)
    check_s: float = 0.0
    yardstick: list = field(default_factory=list)   # loop seconds, one per command

    @property
    def chain_wall(self) -> float:
        return sum(c.wall for c in self.children.values())

    @property
    def scale(self) -> float:
        """Wall seconds of this round times this are seconds at the reference speed."""
        return YARDSTICK_REF_S / median(self.yardstick)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWMG_")}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def yardstick() -> float:
    """Seconds the fixed loop takes now: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(YARDSTICK_ITERS):
        acc += i * i
    return time.perf_counter() - t0


def run_child(argv, log: Path, deadline: float) -> Child:
    """Run one command to its end; wall time from outside, peak RSS from wait4."""
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss * 1024 / 1e6, rc=proc.returncode)


def write_config(w: Workload, path: Path) -> Path | None:
    """The workload's INI file for --config, or None for the shipped defaults."""
    if not w.config:
        return None
    path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for sec, keys in w.config.items()))
    return path


def stage_commands(w: Workload, ini: Path | None, rd: Path) -> dict:
    cfg = ["--config", str(ini)] if ini else []
    stack = str(rd / "full" / "frames.twmg")
    args = {"setup": ["simulate-chaotic", *cfg, "--shots", "1"],
            "simulate": ["simulate-chaotic", *cfg],
            "reconstruct": ["reconstruct", stack, "--ref-pixel", "auto"],
            "stats": ["stats", stack, "--mode", "temporal"]}
    out = {"simulate": "full"}
    return {s: args[s] + ["--out", str(rd / out.get(s, s))] for s in STAGES}


class Checker:
    """The output checks, in a child process of their own (checks.py).

    Kept apart so that this process stays small: a child's peak RSS as wait4
    reports it includes the memory of the process that spawned it.
    """

    def __init__(self, w: Workload, ini: Path | None, log: Path):
        spec = {"config": str(ini) if ini else None, "width": w.width, "height": w.height,
                "shots": w.shots, "seed": w.seed}
        self.log = open(log, "wb")
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "checks.py"), json.dumps(spec)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(), cwd=ROOT, text=True)
        self.reply()   # the reference is built before any command is timed

    def check(self, rd: Path, exit_codes: dict, i2_shots) -> dict:
        self.proc.stdin.write(json.dumps({"dir": str(rd), "exit_codes": exit_codes,
                                          "i2_shots": i2_shots}) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the checker process ended; see {self.log.name}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()


def run_round(w: Workload, checker: Checker, ini, rd: Path, traced: bool, i2_shots,
              deadline) -> Round:
    rnd = Round(traced=traced)
    rd.mkdir(parents=True)
    for stage, args in stage_commands(w, ini, rd).items():
        trace_path = rd / f"trace-{stage}.json"
        prog = ([sys.executable, str(BENCH / "tracer.py"), str(trace_path)] if traced
                else [sys.executable, "-m", "twmghost.cli"])
        rnd.yardstick.append(yardstick())
        rnd.children[stage] = run_child(prog + args, rd / f"{stage}.log", deadline)
        if traced and trace_path.exists():
            rnd.traces[stage] = json.loads(trace_path.read_text())
    t_check = time.perf_counter()
    try:
        res = checker.check(rd, {s: c.rc for s, c in rnd.children.items()}, i2_shots)
    finally:
        for stack in rd.glob("*/frames.twmg"):
            stack.unlink()
    rnd.failures, rnd.map_projection = res["failures"], res["map_projection"]
    rnd.stack_mb, rnd.ref_bin_modes = res["stack_mb"], res["ref_bin_modes"]
    rnd.check_s = time.perf_counter() - t_check
    return rnd


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds) -> dict:
    def med(stage, attr):
        return median([getattr(r.children[stage], attr) for r in rounds])

    def scaled(stage):
        return median([r.children[stage].wall * r.scale for r in rounds])

    return {
        "setup_s": scaled("setup"),
        "simulate_s": scaled("simulate"),
        "reconstruct_s": scaled("reconstruct"),
        "stats_s": scaled("stats"),
        "time_to_image_s": scaled("simulate") + scaled("reconstruct"),
        "simulate_rss_mb": med("simulate", "rss_mb"),
        "reconstruct_rss_mb": med("reconstruct", "rss_mb"),
        "stats_rss_mb": med("stats", "rss_mb"),
        "stack_mb": median([r.stack_mb for r in rounds]),
    }


def layers_of(rnd: Round) -> tuple[dict, set]:
    """Per-layer figures of one traced round."""
    from tracer import summarize

    summ = {stage: summarize(t) for stage, t in rnd.traces.items()}
    counts = {stage: t["counts"] for stage, t in rnd.traces.items()}
    seen = {name for s in summ.values() for name in s}

    def span(stage, name, key="total"):
        return summ.get(stage, {}).get(name, {}).get(key, 0.0)

    def per_set_up(name):   # set-up work happens in both simulate-chaotic commands
        return median([span(s, name) for s in ("setup", "simulate")])

    sim, readers = counts.get("simulate", {}), ("reconstruct", "stats")
    synth_s = span("simulate", "pipeline.shot", "self")
    n_shots = summ.get("simulate", {}).get("pipeline.shot", {}).get("calls", 0)
    stack_bytes = sim.get("pipeline.copy_stack_bytes", 0)
    values = {
        "cli.import_s": median([t["import_s"] for t in rnd.traces.values()]),
        "cli.stats_frames_mb": counts.get("stats", {}).get("framestack.i1_bytes_read", 0) / 1e6,
        "pipeline.coherent_field_s": per_set_up("pipeline.coherent_field"),
        "pipeline.experiment_init_s": per_set_up("pipeline.experiment_init"),
        "pipeline.copy_stack_mb": stack_bytes / 1e6,
        "pipeline.shot_s": span("simulate", "pipeline.shot"),
        "pipeline.i2_synthesis_s": synth_s,
        "pipeline.i2_gb_per_s": stack_bytes * n_shots / synth_s / 1e9 if synth_s > 0 else 0.0,
        "pipeline.apply_detector_s": span("simulate", "pipeline.apply_detector"),
        "chaotic_source.sample_modes_s": span("simulate", "chaotic_source.sample_modes"),
        "chaotic_source.fourier_intensity_s": span("simulate", "chaotic_source.fourier_intensity"),
        "chaotic_source.modes_off_grid": sim.get("chaotic_source.modes_off_grid", 0),
        "framestack.write_s": span("simulate", "framestack.write_stack", "self"),
        "framestack.bytes_written": sim.get("framestack.bytes_written", 0),
        "framestack.read_s": sum(span(s, "framestack.read") for s in readers),
        "framestack.read_passes": sum(counts.get(s, {}).get("framestack.read_passes", 0)
                                      for s in readers),
        "statistics.auto_reference_pixel_s": span("reconstruct", "statistics.auto_reference_pixel",
                                                  "self"),
        "statistics.correlate_s": span("reconstruct", "statistics.correlate", "self"),
        "statistics.thermal_test_s": span("stats", "statistics.thermal_test"),
        "statistics.ref_bin_modes": rnd.ref_bin_modes,
    }
    absent = {name for name in SPANS if name not in seen}
    absent.update(a for t in rnd.traces.values() for a in t.get("absent", []))
    return values, absent


def per_layer(rounds) -> tuple[dict, set]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [layers_of(r) for r in traced]
    names = [n for n, _ in PER_LAYER if n != "trace.overhead_pct"]
    values = {n: median([v[n] for v, _ in per_round]) for n in names}
    base = median([r.chain_wall for r in plain])
    values["trace.overhead_pct"] = (median([r.chain_wall for r in traced]) - base) / base * 100
    return values, set().union(*(a for _, a in per_round))


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = RUNS / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ini = write_config(w, out / "workload.ini")
    # untimed: fills the page cache with the interpreter's and libraries' files
    run_child([sys.executable, "-c", "import twmghost.cli"], out / "warmup.log", deadline)
    i2_shots = sorted(random.Random(seed).sample(range(w.shots), I2_SAMPLED_SHOTS))
    checker = Checker(w, ini, out / "checker.log")
    rounds = []
    try:
        t0 = time.perf_counter()
        longest = 0.0
        # a round starts only while the run is expected to end within `seconds`
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 + longest <= seconds:
            t_round = time.perf_counter()
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(w, checker, ini, out / f"round-{len(rounds)}", traced,
                                    i2_shots, deadline))
            longest = max(longest, time.perf_counter() - t_round)
    finally:
        checker.close()
    return {"workload": w, "rounds": rounds, "i2_shots": i2_shots}


def report(res: dict, trace: bool) -> dict:
    w, rounds = res["workload"], res["rounds"]
    attempted = len(rounds) * len(STAGES)
    failed_ops = {(i, f[0]) for i, r in enumerate(rounds) for f in r.failures}
    unexpected = [f for r in rounds for f in r.failures if not f[3]]
    print(f"== {w.name}: {len(rounds)} rounds, {attempted} operations attempted, "
          f"{len(failed_ops)} failed; i2 closed form checked on shots {res['i2_shots']}")
    for i, r in enumerate(rounds):
        proj = "map projection on E[G] {:.4f} +- {:.4f}".format(*r.map_projection) \
            if r.map_projection else "map projection not computed"
        stages = ", ".join(f"{s} {c.wall:.2f}/{c.cpu:.2f}" for s, c in r.children.items())
        loops = " ".join(f"{y * 1e3:.1f}" for y in r.yardstick)
        print(f"   round {i}: {'traced' if r.traced else 'untraced'}, wall/cpu s: {stages}; "
              f"yardstick ms: {loops}; checks {r.check_s:.2f} s; "
              f"reference bin fed by {r.ref_bin_modes} modes, {proj}")
        for stage, check, msg, counted in r.failures:
            tag = "counted fault" if counted else "UNEXPECTED"
            print(f"   round {i} {stage}: {check}: {msg} [{tag}]")
    if trace:
        values, absent = per_layer(rounds)
        units = dict(PER_LAYER)
        if absent:
            print(f"   absent spans: {', '.join(sorted(absent))}")
    else:
        values, units = end_to_end(rounds), dict(END_TO_END)
        walls = {s: median([r.children[s].wall for r in rounds]) for s in STAGES}
        print(f"   round scales {' '.join(f'{r.scale:.3f}' for r in rounds)} (reference "
              f"{YARDSTICK_REF_S * 1e3:.1f} ms); unscaled wall medians s: "
              + ", ".join(f"{k} {v:.3f}" for k, v in walls.items()))
    for name, val in values.items():
        print(f"   {name:<36} {val:>14.6g} {units[name]}")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failed_ops),
            "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in values.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=58.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "twmghost" / "cli.py").is_file():
        print(f"no twmghost sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = report(res, bool(args.trace))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
