"""Quick built-in oracle checks, runnable without pytest (CLI `selftest`)."""

from __future__ import annotations

import numpy as np

from . import twm_core
from .geometry import geometric_factor, unit_vectors
from .propagation import ScalarField, free_propagate


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def run() -> bool:
    rng = np.random.default_rng(20240901)
    ok = True

    n = 200
    p = twm_core.GainParams(
        g=1.0,
        a3=(rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5,
        dk=rng.uniform(0.0, 20.0, n),
        proj1=rng.uniform(0.9, 1.0, n), proj2=rng.uniform(0.9, 1.0, n),
        r=rng.uniform(0.0, 1.0, n))
    c0 = twm_core.CoupledAmplitudes(
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cm = twm_core.evolve_mismatched(c0, p)
    co = twm_core.ode_oracle(c0, p)
    err = float(np.max(np.abs(cm.a2 - co.a2) / np.maximum(np.abs(co.a2), 1e-12)))
    ok &= _check("closed form vs ODE oracle", err < 1e-8, f"max rel err {err:.2e}")

    p0 = twm_core.GainParams(g=0.7, a3=p.a3, dk=0.0, proj1=1.0, proj2=1.0, r=p.r)
    ev = twm_core.evolve_matched(c0, p0)
    d0 = np.abs(np.asarray(c0.a1)) ** 2 - np.abs(np.asarray(c0.a2)) ** 2
    d1 = np.abs(ev.a1) ** 2 - np.abs(ev.a2) ** 2
    mr = float(np.max(np.abs(d1 - d0) / np.maximum(np.abs(d0), 1e-12)))
    ok &= _check("Manley-Rowe conservation", mr < 1e-10, f"max rel drift {mr:.2e}")

    axis = unit_vectors(0.0, 0.0)
    ok &= _check("collinear geometric factor",
                 abs(geometric_factor(axis, axis) - 1.0) < 1e-15)

    f = ScalarField(np.exp(-(((np.arange(64) - 32)[:, None] ** 2
                              + (np.arange(64) - 32)[None, :] ** 2) / 100.0)),
                    pitch=10e-6, wavelength=1e-6)
    g = free_propagate(f, 2e-3)
    dp = abs(g.power() - f.power()) / f.power()
    ok &= _check("free propagation power conservation", dp < 1e-9, f"rel drift {dp:.2e}")
    return ok
