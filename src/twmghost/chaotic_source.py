"""Chaotic seed field as an ensemble of random plane-wave modes.

The seed is a superposition of N plane waves with directions drawn
uniformly in the (theta, beta) disc of radius `angular_spread` and i.i.d.
circular complex Gaussian amplitudes.  The Gaussian amplitude law is what
produces thermal intensity statistics (P(I) = exp(-I/<I>)/<I>) in both the
spatial and the temporal ensembles.

Determinism: every ModeSet is a pure function of (master_seed, shot_index).
Shot k's amplitudes are drawn by PCG64 from numpy's
SeedSequence(master_seed, spawn_key=(1, k)), so a shot has the same bits
whichever shots are generated before it, or in the same call.  The seed
states are hashed in bulk (`seed_states`), a chunk of shots at a time, with
a copy of SeedSequence's hash that gives its bits exactly (NEP 19 keeps
them fixed; the tests compare with numpy's own).  Mode directions are
drawn once per run (spawn key (0, 0)) and held fixed across shots while
amplitudes are re-randomized per shot, mimicking a ground-glass diffuser
that re-randomizes the field over a persistent set of grating directions,
so each mode lights the same Fourier-plane pixel in every shot.

On the Fourier plane of the seed arm each mode lands on one pixel.
`fourier_bin_index` is that one mode-to-pixel map (a flat index per mode,
-1 off the grid) and `bin_intensities` sums per-mode weights on it, so the
Fourier-plane intensity of a shot is one bincount of its |a_n|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidSpec
from .geometry import unit_vectors
from .propagation import ScalarField

RNG_ALGORITHM = "pcg64-seedseq"


@dataclass(frozen=True)
class SourceSpec:
    """What to draw: N modes within `angular_spread`, complex-Gaussian
    amplitudes of r.m.s. `amplitude_scale`."""

    n_modes: int
    angular_spread: float
    amplitude_scale: float = 1.0
    # "gaussian" draws circular complex Gaussian amplitudes (thermal
    # intensities); "fixed-modulus" keeps |a| = amplitude_scale and only
    # randomizes the phase (zero intensity variance control).
    amplitude_law: str = "gaussian"
    fixed_directions = True  # always; not a field: kept for perfbench/checks.py's guard

    def __post_init__(self):
        if self.n_modes < 1:
            raise InvalidSpec("n_modes must be >= 1")
        # written so that NaN fails them too
        if not 0 < self.angular_spread < np.inf:
            raise InvalidSpec("angular_spread must be positive and finite")
        # above, the stack's sums of i1^2 overflow; below, |a|^2 and G leave
        # the normal floats and then underflow to all-zero frames
        if not 1e-50 <= self.amplitude_scale <= 1e50:
            raise InvalidSpec(f"amplitude_scale = {self.amplitude_scale:g} is outside "
                              "1e-50 <= amplitude_scale <= 1e50")
        if self.amplitude_law not in ("gaussian", "fixed-modulus"):
            raise InvalidSpec(f"amplitude_law = {self.amplitude_law!r} is not 'gaussian' or "
                              "'fixed-modulus'")


@dataclass(frozen=True)
class ModeSet:
    """One shot's worth of plane-wave modes (stored as parallel arrays)."""

    theta: np.ndarray
    beta: np.ndarray
    amplitude: np.ndarray


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size and
# hash constants, which NEP 19 keeps fixed
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0, [0] for 0, as SeedSequence
    splits an int."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


# Each helper takes a word that is a Python int or a uint32 array (one entry
# per shot) and wraps to 32 bits either way: a word that is the same for
# every shot is hashed once, in Python ints, and the rest in uint32 arrays,
# whose products wrap without a warning.

def _hash(value, const: int, mult: int):
    """SeedSequence's hash of one word with the running constant `const`,
    and the next constant."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _mix(x, y):
    value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return value ^ value >> 16


def seed_states(master_seed: int, stream: int, first: int, n: int) -> np.ndarray:
    """(n x 4) native uint64 array whose row j is
    SeedSequence(master_seed, spawn_key=(stream, first + j)).generate_state(4, np.uint64),
    the state PCG64 seeds itself from.  The indices first .. first + n - 1
    must share their high 32-bit words (first >> 32), as an aligned chunk
    of up to 2**32 indices does; a negative index is an InvalidSpec."""
    master_seed, first, n = int(master_seed), int(first), int(n)
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    if first < 0:
        raise InvalidSpec("shot_index must be non-negative")
    if n < 1 or (first + n - 1) >> 32 != first >> 32:
        raise ValueError(f"indices {first} .. {first + n - 1} do not share their high words")
    seed = _words(master_seed)
    # SeedSequence's entropy: the seed padded to the pool size (as it is
    # with a spawn key), then the key (stream, index), whose low word alone
    # differs from shot to shot; one shot is hashed in Python ints alone
    low = first & _M32
    if n > 1:
        low = np.arange(low, low + n, dtype=np.uint32)
    high = _words(first >> 32) if first >> 32 else []
    entropy = seed + [0] * (_POOL_SIZE - len(seed)) + _words(int(stream)) + [low] + high
    # mix_entropy
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    # generate_state(4, np.uint64): eight 32-bit words, little-endian pairs
    const = _INIT_B
    state = np.empty((n, 2 * _POOL_SIZE), dtype="<u4")
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
    return state.view("<u8").astype(np.uint64)


@cache
def _hashed_seed_sequence() -> type:
    """The seed sequence of one `seed_states` row, which PCG64 takes through
    numpy's public ISeedSequence interface; made on first use, so that
    importing this module does not import numpy.random."""

    class HashedSeedSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("a hashed state holds generate_state(4, np.uint64) alone")
            return self.state

    return HashedSeedSequence


def _generator(state: np.ndarray) -> np.random.Generator:
    """Generator(PCG64(SeedSequence(...))) of one `seed_states` row."""
    return np.random.Generator(np.random.PCG64(_hashed_seed_sequence()(state)))


def sample_modes(spec: SourceSpec, master_seed: int, shot_index: int) -> ModeSet:
    """Draw the ModeSet of one shot; deterministic in (master_seed, shot_index)."""
    amp = sample_amplitudes(spec, master_seed, shot_index)
    rd = _generator(seed_states(master_seed, 0, 0, 1)[0])
    # uniform over the (theta, beta) disc
    rad = spec.angular_spread * np.sqrt(rd.random(spec.n_modes))
    phi = 2.0 * np.pi * rd.random(spec.n_modes)
    theta = rad * np.cos(phi)
    beta = rad * np.sin(phi)
    return ModeSet(theta=theta, beta=beta, amplitude=amp)


def draw_amplitudes(spec: SourceSpec, states: np.ndarray) -> np.ndarray:
    """Complex (len(states) x n_modes) mode amplitudes, row j drawn from
    `seed_states` row j.  Each shot's draws fill its row of one buffer, and
    the arithmetic on them is done once for all rows: it is elementwise, and
    each element comes out as it would alone."""
    n = spec.n_modes
    out = np.empty((len(states), n), dtype=complex)
    if spec.amplitude_law == "gaussian":
        # standard_normal(2 n) is standard_normal(n) for the real parts, then
        # for the imaginary parts
        z = np.empty((len(states), 2, n))
        for state, row in zip(states, z):
            _generator(state).standard_normal(out=row)
        np.multiply(1j, z[:, 1], out=out)
        out += z[:, 0]
        out *= spec.amplitude_scale / np.sqrt(2.0)
    else:
        u = np.empty((len(states), n))
        for state, row in zip(states, u):
            _generator(state).random(out=row)
        np.multiply(2j * np.pi, u, out=out)
        np.exp(out, out=out)
        out *= spec.amplitude_scale
    return out


def sample_amplitudes(spec: SourceSpec, master_seed: int, shot_index: int) -> np.ndarray:
    """Complex mode amplitudes of one shot, the `amplitude` of its ModeSet;
    they have a random stream of their own, so drawing them alone skips the
    directions."""
    return draw_amplitudes(spec, seed_states(master_seed, 1, shot_index, 1))[0]


def field_from_modes(m: ModeSet, plane: ScalarField) -> ScalarField:
    """Coherent sum of the plane-wave modes sampled on the grid of `plane`.

    field(x, y) = sum_n a_n exp(-i k (ux_n x + uy_n y)), with u_n the unit
    vector of mode n, evaluated on the z = 0 plane.  Each term is separable
    in x and y, so the sum is one (W x n) @ (n x H) product.
    """
    k = 2.0 * np.pi / plane.wavelength
    x, y = plane.coords()
    sx, sy, _ = unit_vectors(m.theta, m.beta)
    ex = m.amplitude[:, None] * np.exp(-1j * k * sx[:, None] * x[None, :])
    out = ex.T @ np.exp(-1j * k * sy[:, None] * y[None, :])
    return ScalarField(out, plane.pitch, plane.wavelength)


def fourier_bin_index(m: ModeSet, f_lens: float, pitch: float, shape) -> np.ndarray:
    """Flat row-major pixel of each mode on the Fourier plane of the seed arm,
    a `shape` = (w, h) grid of `pitch` with the optical axis at
    (w // 2, h // 2); -1 for a mode whose pixel is off the grid, or whose
    position is not finite.

    A plane wave along the unit vector u focuses at f (ux, uy) behind a lens
    of focal length `f_lens`; the continuum delta of the lens transform is
    idealized as that single pixel.
    """
    w, h = shape
    fx, fy = np.rint(f_lens * unit_vectors(m.theta, m.beta)[:2] / pitch) + [[w // 2], [h // 2]]
    on = (fx >= 0) & (fx < w) & (fy >= 0) & (fy < h)
    # cast on the grid alone, where every position is a small integer
    ix, iy = np.where(on, [fx, fy], 0).astype(int)
    return np.where(on, ix * h + iy, -1)


def bin_intensities(index: np.ndarray, weights: np.ndarray, shape) -> np.ndarray:
    """Map of `shape` holding the sum of `weights` that fall on each flat
    pixel `index`, added in mode order; entries of index -1 are dropped.

    The Fourier-plane intensity of a ModeSet is
    bin_intensities(fourier_bin_index(m, ...), abs(m.amplitude) ** 2, shape).
    """
    on = index >= 0
    return np.bincount(index[on], weights=weights[on],
                       minlength=shape[0] * shape[1]).reshape(shape)
