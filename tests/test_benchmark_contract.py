"""The benchmark's output checker (perfbench/checks.py) against the library.

The checker builds its reference facts from `ChaoticExperiment` and reads
the CLI's outputs; these tests run it on a small run of each shot path, so
that a library change that breaks it fails here and not only in the
benchmark.  The gated workloads' configurations, as perfbench/run.py writes
them, are also set up here and must keep every mode on the Fourier grid.
"""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from twmghost.cli import main as cli_main
from twmghost.config import load_config
from twmghost.errors import ModesOffGrid
from twmghost.pipeline import ChaoticExperiment

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ROOT / "perfbench" / "checks.py"
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def checks():
    yield from _load("perfbench_checks", CHECKS)


@pytest.fixture(scope="module")
def bench_run():
    yield from _load("perfbench_run", ROOT / "perfbench" / "run.py")


@pytest.mark.parametrize("workload", GATED)
def test_gated_workloads_keep_every_mode_on_the_fourier_grid(tmp_path, bench_run, workload):
    # no ModesOffGrid warning at set-up: every mode lights its i1 bin
    ini = bench_run.write_config(bench_run.WORKLOADS[workload], tmp_path / "workload.ini")
    cfg = load_config(str(ini) if ini else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModesOffGrid)
        exp = ChaoticExperiment(cfg.load_object_mask(), cfg.geometry, cfg.source,
                                cfg.master_seed)
    assert (exp.i1_bin >= 0).all()


# 64 x 64 grids: 20 modes take the copy-stack path, 200 the FFT path
@pytest.mark.parametrize("n_modes", [20, 200])
def test_checker_passes_a_small_run(tmp_path, checks, n_modes):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[grid]\nwidth = 64\nheight = 64\n\n[source]\nn_modes = {n_modes}\n\n"
                   "[run]\nshots = 100\nmaster_seed = 12345\n")
    ref = checks.Reference(str(ini), checks.Expect(64, 64, 100, 12345))
    assert ref.base_image.shape == (64, 64) and len(ref.mode_weight) == n_modes
    cfg = ["--config", str(ini)]
    stack = str(tmp_path / "full" / "frames.twmg")
    commands = {"setup": ["simulate-chaotic", *cfg, "--shots", "1"],
                "simulate": ["simulate-chaotic", *cfg],
                "reconstruct": ["reconstruct", stack, "--ref-pixel", "auto"],
                "stats": ["stats", stack, "--mode", "temporal"]}
    codes = {}
    for stage, args in commands.items():
        out = tmp_path / ("full" if stage == "simulate" else stage)
        codes[stage] = cli_main(args + ["--out", str(out)])
    result = checks.check_round(ref, tmp_path, codes, [0, 50, 99])
    assert result["failures"] == []
    assert result["ref_bin_modes"] == 1
