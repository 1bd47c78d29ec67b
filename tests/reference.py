"""Dense-matrix reference for the lockstep search engine, and plain forms of
what the package computes another way.

A plain, independent form of one realization's search, exhaustive scan and
adjudication: the channel is its N_rx x N_tx matrix, and each measurement is
one matrix-vector product with its own noise draw.  Tests compare the engine
against it.  :func:`draw_paths` is one realization's draw in four plain
calls, and :func:`draw_realization` the stream contract drawn with it from
NumPy's own seeding objects; the block draw and the block seeding must match
them byte for byte.  :func:`lockstep_exhaustive` is the oracle with one
stacked leaf product per side, which the block-packed one must match byte
for byte; :func:`coverage_gains_reference` is the one-shot coverage transform
that the row-blocked one must match byte for byte; :func:`active_counts_reference`
is the weight-set check with a boolean gather, which the in-place one must
match in counts and refusals; :func:`random_awv` and
:func:`subarray_phase_objective` serve the weight-set and phase-design tests;
:func:`stderr` is one cell's standard error from its own column, which the
one-call summary of every cell must match byte for byte.
"""

import math

import numpy as np

from beamtrain.arrays import steering_matrix, steering_weights
from beamtrain.channels import db_to_linear
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


def lockstep_exhaustive(block, power_model):
    """The oracle over a path block with one stacked leaf product per side and
    a fresh coupling array per realization, which the block-packed one must
    match byte for byte."""
    n_tx, n_rx = block.a_tx.shape[-1], block.a_rx.shape[-1]
    on_rx = block.a_rx @ steering_matrix(n_rx).conj()  # (B, L, N_rx)
    on_tx = block.a_tx @ steering_matrix(n_tx).conj()  # (B, L, N_tx)
    scaled = math.sqrt(n_tx * n_rx) * block.coeff
    pairs = np.empty((len(scaled), 2), dtype=np.intp)
    best = np.empty(len(scaled))
    for b, (c, tx_leaves, rx_leaves) in enumerate(zip(scaled, on_tx, on_rx)):
        # Row-major argmax scans tx first, then rx: ties go to the smallest pair.
        by_tx = np.abs(tx_leaves.T.conj() @ (c[:, np.newaxis] * rx_leaves)) ** 2
        tx_idx, rx_idx = divmod(int(np.argmax(by_tx)), n_rx)
        pairs[b] = tx_idx + 1, rx_idx + 1
        best[b] = by_tx[tx_idx, rx_idx]
    return pairs, power_model.scale(n_tx) * best


def adjudicate(pair, exhaustive_pair, n_tx, n_rx, paths, policy):
    """Whether the found ``pair`` succeeds under ``policy`` on the channel of
    ``paths`` ``(coeff, omega, psi)``."""
    if policy == "match-exhaustive":
        return pair == exhaustive_pair
    paths = list(zip(*paths))
    if policy == "align-strongest":
        paths = [max(paths, key=lambda path: abs(path[0]))]
    return any(pair == (nearest_leaf(n_tx, p), nearest_leaf(n_rx, o)) for _, o, p in paths)


def draw_paths(params, rng):
    """One realization's paths ``(coeff, omega, psi)``, each of length L, from
    ``rng`` by four calls: receive-side angles, transmit-side angles, then
    the diffuse coefficients' real and imaginary parts.  The block draw must
    match it byte for byte, row by row."""
    n_paths = params.n_paths
    omega = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n_paths))
    psi = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n_paths))
    if params.kind == "nlos":
        scale = math.sqrt(1.0 / (2.0 * n_paths))
        coeff = scale * (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
    else:
        gap = db_to_linear(params.eta_db)
        denom = gap + n_paths - 1.0
        coeff = np.empty(n_paths, dtype=np.complex128)
        coeff[0] = math.sqrt(gap / denom)
        n_diffuse = n_paths - 1
        if n_diffuse:
            scale = math.sqrt(1.0 / (2.0 * denom))
            coeff[1:] = scale * (
                rng.standard_normal(n_diffuse) + 1j * rng.standard_normal(n_diffuse)
            )
    return coeff, omega, psi


def draw_realization(params, n_rx, entropy, n_steps):
    """One realization's paths ``(coeff, omega, psi)`` and its noise draws,
    ``standard_normal(4 * n_rx * n_steps)``, from ``SeedSequence(entropy)``'s
    two spawned children."""
    channel_ss, noise_ss = np.random.SeedSequence(entropy).spawn(2)
    paths = draw_paths(params, np.random.default_rng(channel_ss))
    return paths, np.random.default_rng(noise_ss).standard_normal(4 * n_rx * n_steps)


def coverage_gains_reference(weights, grid_points):
    """``|fft(w * (-1)**k, n=M)|`` of every row of ``weights`` in one call."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.complex128))
    signs = np.where(np.arange(w.shape[-1]) % 2 == 0, 1.0, -1.0)
    return np.abs(np.fft.fft(w * signs, n=grid_points, axis=-1))


_AMPLITUDE_TOL = 1e-9


def active_counts_reference(weights) -> np.ndarray:
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


def stderr(values: np.ndarray) -> float:
    """One cell's standard error over its realizations: the sample standard
    deviation (ddof=1) over sqrt(n), and 0.0 below two samples."""
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))
