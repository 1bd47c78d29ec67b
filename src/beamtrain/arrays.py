"""Complex-weight primitives for half-wave uniform linear arrays.

Angles live in the cosine domain (Omega = cos of the physical angle), where
the array response of an N-element ULA is periodic with period 2.  All
coverage arithmetic therefore wraps on [-1, 1).  A weight vector is a plain
1-D complex array; :func:`active_counts` checks that it is in the weight set.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "active_counts",
    "angle_grid",
    "check_choice",
    "check_grid",
    "check_int",
    "steering_weights",
    "steering_matrix",
    "leaf_angles",
    "beam_gain",
    "coverage_factor_rho",
    "coverage_gains",
    "coverage_mask",
    "rotate",
]

# Relative slack for the constant-amplitude check; generated vectors are exact
# to machine precision, this only guards against malformed inputs.
_AMPLITUDE_TOL = 1e-9

# Coverage grid sizes: 4096 points oversample beams of arrays up to N=512.
# A grid of M points for an N-antenna array makes M x N arrays (the pattern's
# phase matrix, a leaf layer's FFT), so the caps bound M and M*N: 2**26 cells
# are 1 GiB of complex128.  The same cell budget caps a codebook's (2N-1) x N
# weights and a Monte-Carlo run's result arrays.
DEFAULT_GRID_POINTS = 4096
MAX_GRID_POINTS = 2**20
MAX_GRID_CELLS = 2**26
# A Monte-Carlo block: its realizations' noise draws and path responses, in
# float64 cells (2 MiB); a block holds one realization at least.  At 2**18 an
# N=256 received-power run peaks at its codebooks and oracle, not its noise;
# 2**20 raised that peak by 1.5 MB.
MAX_BLOCK_CELLS = 2**18
# coverage_gains transforms its rows in blocks of this many complex cells
# (512 KiB): the fastest of 2**13..2**17 in a timed sweep at N=64, M=4096.
FFT_BLOCK_CELLS = 2**15
# A channel's path count L: each path adds one steering response per array to
# a PathBlock's (B, L, N) ``a_rx`` and ``a_tx``.
MAX_PATHS = 4096


class ReadOnly:
    """Base of the package's read-only value classes.  Each ``__init__``
    stores its fields with ``vars(self).update``; assigning or deleting a
    field afterwards raises ``AttributeError``.  Instances keep a ``__dict__``,
    which pickle restores without calling ``__setattr__``.

    Plain classes with hand-written methods: generating the methods at
    import, and importing the module that generates them, took about 6-9 ms
    of every process's start-up."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raise ``ValueError``, naming the valid choices, unless ``value`` is one."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}; got {value!r}")


def check_int(name: str, value) -> int:
    """``value`` as a Python int (NumPy integers included), or a
    ``ValueError`` naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def active_counts(weights) -> np.ndarray:
    """Active-entry count of each row of a (..., N) weight array.

    Raises ``ValueError`` unless every row has an active (non-zero) entry and
    every active entry has its row's amplitude ``1/sqrt(active_count)``.
    """
    w = np.asarray(weights)
    active = w != 0
    counts = np.count_nonzero(active, axis=-1)
    if np.any(counts == 0):
        raise ValueError("weight vector has no active entries")
    nu = 1.0 / np.sqrt(counts)
    deviation = np.abs(np.abs(w) - nu[..., np.newaxis])
    # Written so that NaN fails too.
    if not np.all(deviation[active] <= _AMPLITUDE_TOL):
        raise ValueError(
            "active entries must share the amplitude 1/sqrt(active_count)"
        )
    return counts


def steering_weights(n: int, angles) -> np.ndarray:
    """Steering weights ``exp(j*pi*k*angle)/sqrt(n)``, k = 0..n-1: shape (n,)
    for a scalar angle, one column per angle for a vector of angles."""
    if n < 1:
        raise ValueError("array size must be a positive integer")
    ang = np.asarray(angles, dtype=np.float64)
    k = np.arange(n).reshape((n,) + (1,) * ang.ndim)
    return np.exp(1j * np.pi * k * ang) / math.sqrt(n)


def leaf_angles(n: int) -> np.ndarray:
    """The n evenly sampled steering angles -1 + (2i - 1)/n, i = 1..n.

    Adjacent angles are spaced by the steering beam width 2/n, so the
    corresponding steering vectors tile the whole domain.
    """
    if n < 1:
        raise ValueError("array size must be a positive integer")
    return -1.0 + (2.0 * np.arange(1, n + 1) - 1.0) / n


@functools.lru_cache(maxsize=32)
def steering_matrix(n: int) -> np.ndarray:
    """Column-stacked steering vectors at ``leaf_angles(n)``, the leaves of
    both codebooks bit for bit; cached."""
    mat = steering_weights(n, leaf_angles(n))
    mat.setflags(write=False)
    return mat


def beam_gain(w, omega):
    """Beam gain A(w, omega) = sum_k [w]_k exp(-j*pi*(k-1)*omega).

    ``w`` is a 1-D complex sequence; ``omega`` may be a scalar or an ndarray
    (the gain is evaluated pointwise).
    """
    weights = np.asarray(w, dtype=np.complex128)
    om = np.asarray(omega, dtype=np.float64)
    phases = np.exp(-1j * np.pi * om[..., np.newaxis] * np.arange(weights.size))
    out = phases @ weights
    if om.ndim == 0:
        return complex(out)
    return out


def coverage_factor_rho(n: int) -> float:
    """Gain ratio of an n-element steering beam at half its width from center.

    Equals ``|sum_k exp(j*pi*k/n)|/n`` (k = 0..n-1); approaches 2/pi for
    large n and is commonly used as the coverage threshold for steered beams.
    """
    if n < 1:
        raise ValueError("array size must be a positive integer")
    return float(np.abs(np.exp(1j * np.pi * np.arange(n) / n).sum()) / n)


def rotate(w, psi) -> np.ndarray:
    """Rotate the beam of ``w`` by psi in the cosine-angle domain.

    Entry k of the result is ``[w]_k * exp(j*pi*(k-1)*psi)``; zero entries
    stay zero and unit power is preserved, so the coverage of the result is
    the coverage of ``w`` translated by psi (mod 2).  A scalar psi gives one
    rotated vector, a 1-D array of psi one row per psi.  Raises
    ``ValueError`` unless ``w`` is 1-D and passes :func:`active_counts`.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError("weights must be a 1-D array")
    active_counts(w)
    return w * np.exp(1j * np.pi * np.arange(w.size) * np.asarray(psi)[..., np.newaxis])


def check_grid(grid_points: int, n: int = 1) -> None:
    """Reject a grid of ``grid_points`` for an n-antenna array, before any
    grid-sized array exists, unless M is an integer, 2 <= M <= MAX_GRID_POINTS
    and M*n <= MAX_GRID_CELLS."""
    grid_points = check_int("grid_points", grid_points)
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points must lie between 2 and {MAX_GRID_POINTS}, got {grid_points}"
        )
    if grid_points * n > MAX_GRID_CELLS:
        raise ValueError(
            f"grid_points={grid_points} for N={n} makes {grid_points * n} cells; "
            f"M*N must be at most {MAX_GRID_CELLS}"
        )


def angle_grid(grid_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """The coverage grid -1 + 2i/M, i = 0..M-1, half-open on [-1, 1).

    Its points are the bins of a length-M FFT (see :func:`coverage_gains`),
    and a shift by s steps of 2/M maps it onto itself as ``np.roll(_, s)``.
    """
    check_grid(grid_points)
    return -1.0 + 2.0 * np.arange(grid_points) / grid_points


def coverage_gains(weights, grid_points: int) -> np.ndarray:
    """Beam gains |A(w, omega_i)| on ``angle_grid(grid_points)``, one row per
    weight vector.

    On omega_i = -1 + 2i/M the gain is the modulus of the length-M DFT of
    ``w * (-1)**k`` zero-padded, so one call evaluates every row of
    ``weights`` (shape (rows, N) or (N,)).  The rows are transformed in
    blocks of FFT_BLOCK_CELLS complex cells, which stay in cache, and each
    block's moduli go straight into the float64 result, so no (rows, M)
    complex array exists.  The grid must oversample the beams, M >= 8*N
    (eight points per steering beam width), and pass :func:`check_grid` for N.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=np.complex128))
    n = w.shape[-1]
    check_grid(grid_points, n)
    if grid_points < 8 * n:
        raise ValueError(
            f"{grid_points} grid points too coarse for N={n}; need at least {8 * n}"
        )
    w = w * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    gains = np.empty((len(w), grid_points))
    step = max(1, FFT_BLOCK_CELLS // grid_points)
    for start in range(0, len(w), step):
        block = slice(start, start + step)
        np.abs(np.fft.fft(w[block], n=grid_points, axis=-1), out=gains[block])
    return gains


def coverage_mask(gains: np.ndarray, rho: float) -> np.ndarray:
    """Points where each row of ``gains`` exceeds rho times that row's peak."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly between 0 and 1")
    return gains > rho * gains.max(axis=-1, keepdims=True)

