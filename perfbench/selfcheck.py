#!/usr/bin/env python3
"""Shows that every output check of the benchmark can fail.

    python3 perfbench/selfcheck.py

Runs the CLI chain once on a small configuration, requires every check to
pass on its outputs, then feeds each check a deliberately wrong output and
requires it to be rejected. Exits 0 when every check passed the good outputs
and rejected every wrong one. Not part of the test suite: it runs the CLI.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402

WORKLOAD = run.Workload(
    "selfcheck",
    {"grid": {"width": 128, "height": 128},
     "source": {"n_modes": 24, "angular_spread": "1e-3"}, "run": {"shots": 300}},
    128, 128, 300, 12345)
I2_SHOTS = [0, 7, 299]


def copy_stack(src: Path, dst: Path, edit) -> checks.Stack:
    """A copy of the stack at src with `edit(frames)` applied to its payload."""
    shutil.copyfile(src, dst)
    original = checks.Stack(src)
    header, offset = original.header, original.offset
    frames = np.memmap(dst, dtype="<f8", mode="r+", offset=offset,
                       shape=(header.n_shots, 2, header.width, header.height))
    edit(frames)
    frames.flush()
    del frames
    return checks.Stack(dst)


def main() -> int:
    if not (run.SRC / "twmghost" / "cli.py").is_file():
        print(f"no twmghost sources under {run.SRC}", file=sys.stderr)
        return 2
    out = run.RUNS / WORKLOAD.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ini = run.write_config(WORKLOAD, out / "workload.ini")
    rd = out / "round-0"
    rd.mkdir()
    codes = {}
    for stage, args in run.stage_commands(WORKLOAD, ini, rd).items():
        child = run.run_child([sys.executable, "-m", "twmghost.cli", *args],
                              rd / f"{stage}.log", deadline=time.monotonic() + 600)
        codes[stage] = child.rc
    ref = checks.Reference(ini, checks.Expect(WORKLOAD.width, WORKLOAD.height,
                                              WORKLOAD.shots, WORKLOAD.seed))
    good = checks.check_round(ref, rd, codes, I2_SHOTS)
    problems = [f"good outputs failed: {f}" for f in good["failures"]]

    full = checks.Stack(rd / "full" / "frames.twmg")
    one = checks.Stack(rd / "setup" / "frames.twmg")
    g_map, pixel = checks.read_map(rd / "reconstruct")
    report = checks.parse_stats_report((rd / "stats" / "stats_report.txt").read_text())
    neighbour = (pixel[0] + 1, pixel[1])
    g_neighbour = checks.covariance(full, neighbour)
    empty = next((x, y) for x in range(WORKLOAD.width) for y in range(WORKLOAD.height)
                 if len(ref.bin_modes((x, y))) == 0)
    work = out / "mutated"
    work.mkdir()

    def swap_shots(f):
        f[[5, 17]] = f[[17, 5]]

    def bump_i2(f):
        f[7, 1] *= 1 + 1e-6

    def flip_bit(f):
        f[0, 1, 40, 40] = np.nextafter(f[0, 1, 40, 40], np.inf)

    def wrong_seed(path: Path) -> checks.Stack:
        shutil.copyfile(full.path, path)
        with open(path, "r+b") as fh:   # u64 master seed after magic and four u32
            fh.seek(20)
            fh.write(int(WORKLOAD.seed + 1).to_bytes(8, "little"))
        return checks.Stack(path)

    cases = [
        ("read-back", "header with another seed",
         lambda: checks.check_readback(wrong_seed(work / "seed.twmg"), ref.expect, WORKLOAD.shots)),
        ("determinism", "shot 0 one ulp off in one pixel",
         lambda: checks.check_determinism(copy_stack(one.path, work / "one.twmg", flip_bit), full)),
        ("Fourier-plane mass", "stack with shots 5 and 17 swapped",
         lambda: checks.check_fourier_mass(ref, copy_stack(full.path, work / "swap.twmg",
                                                           swap_shots))),
        ("i2 closed form", "i2 of shot 7 scaled by 1 + 1e-6",
         lambda: checks.check_i2_closed_form(ref, copy_stack(full.path, work / "i2.twmg",
                                                             bump_i2), [7])),
        ("covariance", "transposed map",
         lambda: checks.check_covariance(full, g_map.T.copy(), pixel)),
        ("covariance", "map built at a neighbouring reference pixel",
         lambda: checks.check_covariance(full, g_neighbour, pixel)),
        ("map closed form", "transposed map",
         lambda: checks.check_map_closed_form(ref, full, g_map.T.copy(), pixel)),
        ("map closed form", "map and pixel both moved to a neighbouring pixel",
         lambda: checks.check_map_closed_form(ref, full, g_neighbour, neighbour)),
        ("map closed form", "map set to zero",
         lambda: checks.check_map_closed_form(ref, full, np.zeros_like(g_map), pixel)),
        ("single-mode reference", f"reference pixel {empty} fed by no mode",
         lambda: checks.check_single_mode_reference(ref, empty)),
        ("stats report", "mean scaled by 1 + 1e-6",
         lambda: checks.check_stats_report(full, {**report, "mean": report["mean"] * (1 + 1e-6)})),
        ("stats report", "ks_statistic + 1e-6",
         lambda: checks.check_stats_report(full, {**report,
                                                  "ks_statistic": report["ks_statistic"] + 1e-6})),
        ("stats report", "n_samples - 1",
         lambda: checks.check_stats_report(full, {**report, "n_samples": report["n_samples"] - 1})),
    ]
    for check, wrong, call in cases:
        try:
            call()
        except checks.CheckFailed as exc:
            print(f"rejected  {check:<22} {wrong}: {exc}")
        else:
            problems.append(f"{check} accepted: {wrong}")
    del full, one
    shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM   {p}")
    print(f"{len(cases)} wrong outputs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
