"""Dense-matrix reference for the lockstep search engine, and plain forms of
what the package computes another way.

A plain, independent form of one realization's search, exhaustive scan and
adjudication: the channel is its N_rx x N_tx matrix, and each measurement is
one matrix-vector product with its own noise draw.  Tests compare the engine
against it.  :func:`draw_realization` is the stream contract drawn with
NumPy's own seeding objects, which the block seeding must match byte for
byte; :func:`coverage_gains_reference` is the one-shot coverage transform
that the row-blocked one must match byte for byte; :func:`random_awv` and
:func:`subarray_phase_objective` serve the weight-set and phase-design tests.
"""

import math

import numpy as np

from beamtrain.arrays import steering_matrix, steering_weights
from beamtrain.channels import draw_paths
from beamtrain.search import nearest_leaf


def channel_matrix(n_tx, n_rx, coeff, omega, psi):
    """``sqrt(n_tx n_rx) sum_l coeff_l a(n_rx, omega_l) a(n_tx, psi_l)^H``."""
    h = np.zeros((n_rx, n_tx), dtype=np.complex128)
    for c, o, p in zip(coeff, omega, psi):
        h += c * np.outer(steering_weights(n_rx, o), steering_weights(n_tx, p).conj())
    return math.sqrt(n_tx * n_rx) * h


def measure(w_tx, w_rx, h, power_model, rng):
    """One training symbol: ``(|y|^2, noiseless gain)``.  The noise is N_rx
    real parts then N_rx imaginary parts from ``rng``."""
    n_rx = h.shape[0]
    z = rng.standard_normal(2 * n_rx)
    noise = math.sqrt(power_model.noise_power / 2.0) * (z[:n_rx] + 1j * z[n_rx:])
    g = complex(w_rx.conj() @ (h @ w_tx))
    scale = power_model.scale(np.count_nonzero(w_tx))
    y = math.sqrt(scale) * g + w_rx.conj() @ noise
    return abs(y) ** 2, scale * abs(g) ** 2


def search(cb_tx, cb_rx, h, power_model, rng):
    """The receive then the transmit descent, measuring the lower child
    first and keeping it on a tie.  Returns the 1-based (tx, rx) pair and
    one ``(winner, y_power, gain)`` per stage."""
    stages = []

    def descend(cb, fixed, side):
        parent = 0
        for k in range(1, cb.depth + 1):
            measured = []
            for w in cb.layers[k][2 * parent : 2 * parent + 2]:
                w_tx, w_rx = (fixed, w) if side == "rx" else (w, fixed)
                measured.append(measure(w_tx, w_rx, h, power_model, rng))
            high = int(measured[1][0] > measured[0][0])
            parent = 2 * parent + high
            stages.append((parent + 1, *measured[high]))
        return parent

    rx = descend(cb_rx, cb_tx.layers[0][0], "rx")
    tx = descend(cb_tx, cb_rx.layers[-1][rx], "tx")
    return (tx + 1, rx + 1), stages


def exhaustive(h, power_model):
    """The 1-based (tx, rx) leaf pair of largest noiseless coupling, the
    lexicographically smallest on a tie, and its gain."""
    n_rx, n_tx = h.shape
    coupling_sq = np.abs(steering_matrix(n_rx).conj().T @ h @ steering_matrix(n_tx)) ** 2
    tx, rx = divmod(int(np.argmax(coupling_sq.T)), n_rx)
    return (tx + 1, rx + 1), power_model.scale(n_tx) * float(coupling_sq[rx, tx])


def adjudicate(pair, exhaustive_pair, n_tx, n_rx, paths, policy):
    """Whether the found ``pair`` succeeds under ``policy`` on the channel of
    ``paths`` ``(coeff, omega, psi)``."""
    if policy == "match-exhaustive":
        return pair == exhaustive_pair
    paths = list(zip(*paths))
    if policy == "align-strongest":
        paths = [max(paths, key=lambda path: abs(path[0]))]
    return any(pair == (nearest_leaf(n_tx, p), nearest_leaf(n_rx, o)) for _, o, p in paths)


def draw_realization(params, entropy, n_steps):
    """One realization's paths ``(coeff, omega, psi)`` and its noise draws,
    ``standard_normal(4 * n_rx * n_steps)``, from ``SeedSequence(entropy)``'s
    two spawned children."""
    channel_ss, noise_ss = np.random.SeedSequence(entropy).spawn(2)
    paths = draw_paths(params, np.random.default_rng(channel_ss))
    return paths, np.random.default_rng(noise_ss).standard_normal(4 * params.n_rx * n_steps)


def coverage_gains_reference(weights, grid_points):
    """``|fft(w * (-1)**k, n=M)|`` of every row of ``weights`` in one call."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.complex128))
    signs = np.where(np.arange(w.shape[-1]) % 2 == 0, 1.0, -1.0)
    return np.abs(np.fft.fft(w * signs, n=grid_points, axis=-1))


def subarray_phase_objective(n_sub: int, delta_theta: float) -> complex:
    """Edge-gain objective for two adjacent equally sized sub-array beams.

    Returns ``S* + exp(j*delta_theta)*S`` with ``S = sum_i exp(j*pi*(i-1)/n_sub)``,
    the combined gain of two neighbouring sub-beams at their crossover angle
    when their scalar phases differ by delta_theta.  Maximizing its modulus
    over delta_theta picks the inter-sub-array phase that removes the
    crossover dip; the maximizer is ``delta_theta = -pi*(n_sub-1)/n_sub``
    (mod 2*pi).  Requires an even sub-array size.
    """
    if n_sub < 2 or n_sub % 2 != 0:
        raise ValueError("sub-array size must be a positive even integer")
    s = np.exp(1j * np.pi * np.arange(n_sub) / n_sub).sum()
    return complex(np.conj(s) + np.exp(1j * delta_theta) * s)


def random_awv(n: int, rng: np.random.Generator, activation_prob: float = 0.5) -> np.ndarray:
    """Random member of the weight set: random on/off pattern, uniform phases.

    At least one antenna is always active.
    """
    if n < 1:
        raise ValueError("array size must be a positive integer")
    active = rng.random(n) < activation_prob
    if not active.any():
        active[int(rng.integers(n))] = True
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    return np.where(active, phases / math.sqrt(int(active.sum())), 0.0)
