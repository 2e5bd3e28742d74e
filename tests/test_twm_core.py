import numpy as np
import pytest

from twmghost.errors import InvalidSpec
from twmghost.twm_core import (
    CoupledAmplitudes,
    GainParams,
    evolve_matched,
    evolve_mismatched,
    ode_oracle,
    q_parameter,
)


def _random_state(rng):
    a1 = rng.normal() + 1j * rng.normal()
    a2 = rng.normal() + 1j * rng.normal()
    return CoupledAmplitudes(a1, a2)


def _random_params(rng, dk_max=20.0):
    r = rng.uniform(0.1, 1.0)
    arg = rng.uniform(0.0, 1.0)          # g|a3|r
    dk = rng.uniform(0.0, dk_max) / r    # dk*r in [0, dk_max]
    phase = rng.uniform(0, 2 * np.pi)
    a3 = np.exp(1j * phase)
    p1 = rng.uniform(0.7, 1.0)
    p2 = rng.uniform(0.7, 1.0)
    g = arg / r
    return GainParams(g=g, a3=a3, dk=dk, proj1=p1, proj2=p2, r=r)


def test_mismatched_matches_ode_oracle():
    rng = np.random.default_rng(101)
    for _ in range(60):
        c0 = _random_state(rng)
        p = _random_params(rng)
        closed = evolve_mismatched(c0, p)
        num = ode_oracle(c0, p)
        scale = max(abs(closed.a1), abs(closed.a2), 1.0)
        assert abs(closed.a1 - num.a1) / scale < 1e-8
        assert abs(closed.a2 - num.a2) / scale < 1e-8


def test_matched_is_mismatched_at_zero_detuning():
    # with r the arclength along the beam, dk -> 0 reduces to the
    # phase-matched solution at unit geometric factor
    rng = np.random.default_rng(103)
    for _ in range(40):
        c0 = _random_state(rng)
        p = _random_params(rng)
        # equal projections: with asymmetric projections the dk=0 cross
        # terms carry sqrt(p2/p1) factors absent from the matched form
        p0 = GainParams(g=p.g, a3=p.a3, dk=0.0, proj1=p.proj1, proj2=p.proj1, r=p.r)
        a = evolve_mismatched(c0, p0)
        b = evolve_matched(c0, p0, fgeo=1.0)
        assert abs(a.a1 - b.a1) < 1e-12
        assert abs(a.a2 - b.a2) < 1e-12


def test_matched_matches_ode_oracle_with_fgeo():
    rng = np.random.default_rng(104)
    for _ in range(20):
        c0 = _random_state(rng)
        arg = rng.uniform(0.0, 1.0)
        fgeo = rng.uniform(1.0, 1.3)
        # fgeo rescales the effective interaction length, so the matched
        # evolution equals the dk=0 coupled system integrated over fgeo*r
        a3 = np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = GainParams(g=arg, a3=a3, dk=0.0, r=1.0)
        closed = evolve_matched(c0, p, fgeo=fgeo)
        num = ode_oracle(c0, GainParams(g=arg, a3=a3, dk=0.0, r=fgeo))
        scale = max(abs(closed.a1), abs(closed.a2), 1.0)
        assert abs(closed.a1 - num.a1) / scale < 1e-8
        assert abs(closed.a2 - num.a2) / scale < 1e-8


def test_manley_rowe_invariant():
    # |a1|^2 - |a2|^2 is conserved by the phase-matched evolution
    rng = np.random.default_rng(105)
    for _ in range(100):
        c0 = _random_state(rng)
        p = _random_params(rng)
        out = evolve_matched(c0, p, fgeo=1.1)
        before = abs(c0.a1) ** 2 - abs(c0.a2) ** 2
        after = abs(out.a1) ** 2 - abs(out.a2) ** 2
        assert abs(after - before) <= 1e-10 * max(abs(before), 1.0)


def test_q_parameter_branches():
    # real above threshold, positive-imaginary below
    p_hyp = GainParams(g=2.0, a3=1.0, dk=1.0)
    q = q_parameter(p_hyp)
    assert q.imag == 0 and q.real > 0
    p_osc = GainParams(g=0.1, a3=1.0, dk=10.0)
    q = q_parameter(p_osc)
    assert q.real == 0 and q.imag > 0


def test_q_continuity_across_threshold():
    # the closed form is continuous through Q -> 0
    c0 = CoupledAmplitudes(1.0 + 0.5j, 0.3 - 0.1j)
    outs = []
    for dk in (1.9999, 2.0, 2.0001):
        p = GainParams(g=1.0, a3=1.0, dk=dk, r=1.0)
        outs.append(evolve_mismatched(c0, p))
    assert abs(outs[0].a1 - outs[2].a1) < 1e-3
    assert abs(outs[0].a2 - outs[2].a2) < 1e-3


def test_oscillatory_branch_against_oracle():
    rng = np.random.default_rng(107)
    for _ in range(20):
        c0 = _random_state(rng)
        p = GainParams(g=0.2, a3=1.0, dk=rng.uniform(5.0, 20.0), r=1.0)
        closed = evolve_mismatched(c0, p)
        num = ode_oracle(c0, p)
        assert abs(closed.a1 - num.a1) < 1e-8
        assert abs(closed.a2 - num.a2) < 1e-8


def test_zero_pump_is_identity():
    c0 = CoupledAmplitudes(0.7 + 0.2j, -0.1 + 0.9j)
    p = GainParams(g=1.0, a3=0.0, dk=0.0, r=1.0)
    out = evolve_matched(c0, p)
    assert out.a1 == pytest.approx(c0.a1)
    assert out.a2 == pytest.approx(c0.a2)


def test_weak_limit_taylor_remainder():
    # first-order generation a2 = i g r conj(a1) a3, the conversion that
    # pipeline.coherent_field applies: its error against the full solution
    # is the sinh remainder ~ arg^3/6, so doubling arg multiplies it by 8
    c0 = CoupledAmplitudes(1.0, 0.0)
    errs = []
    for arg in (1e-3, 2e-3):
        p = GainParams(g=arg, a3=1.0, dk=0.0, r=1.0)
        full = evolve_matched(c0, p)
        weak = 1j * p.g * p.r * np.conj(c0.a1) * p.a3
        errs.append(abs(full.a2 - weak))
    assert errs[1] / errs[0] == pytest.approx(8.0, rel=0.05)


def test_linearity_in_seed():
    # the map (a1, a2*) -> (a1', a2'*) is linear
    rng = np.random.default_rng(109)
    p = _random_params(rng)
    c1 = _random_state(rng)
    c2 = _random_state(rng)
    lam = 0.37 - 1.1j
    sum_in = CoupledAmplitudes(c1.a1 + lam * c2.a1,
                               c1.a2 + np.conj(lam) * c2.a2)
    o1 = evolve_mismatched(c1, p)
    o2 = evolve_mismatched(c2, p)
    osum = evolve_mismatched(sum_in, p)
    assert abs(osum.a1 - (o1.a1 + lam * o2.a1)) < 1e-12
    assert abs(osum.a2 - (o1.a2 + np.conj(lam) * o2.a2)) < 1e-12


def test_array_broadcast():
    rng = np.random.default_rng(110)
    a1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    a2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    p = GainParams(g=0.5, a3=1.0, dk=3.0, r=0.5)
    out = evolve_mismatched(CoupledAmplitudes(a1, a2), p)
    for i in range(8):
        ref = evolve_mismatched(CoupledAmplitudes(a1[i], a2[i]), p)
        assert abs(out.a1[i] - ref.a1) < 1e-12
        assert abs(out.a2[i] - ref.a2) < 1e-12


def test_gain_params_validation():
    with pytest.raises(InvalidSpec):
        GainParams(g=1.0, a3=1.0, proj1=0.0)
    with pytest.raises(InvalidSpec):
        GainParams(g=1.0, a3=1.0, proj2=1.5)
    with pytest.raises(InvalidSpec):
        GainParams(g=1.0, a3=1.0, r=-1.0)
