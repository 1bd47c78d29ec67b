"""Training measurements, binary-tree hierarchical search, and adjudication.

A single training symbol is sent per candidate codeword.  Under the total
power model the received sample is

    y = w_rx^H H w_tx + w_rx^H noise

at one watt, and under the per-antenna model the transmit scale grows with
the number of active transmit antennas, ``sqrt(n_tx_active)``.  The search
descends the receive codebook first (transmitter pinned to its widest
codeword), then the transmit codebook, testing the two children of the
current parent at every stage and keeping the larger measured power.

One engine runs every search: the ``lockstep_*`` functions take a block of
B realizations at once, in the path domain.  A :class:`PathBlock` holds the
realizations' paths, and no channel matrix is built.  Monte-Carlo runs pass
blocks of many realizations; the ``search`` demo passes a block of one.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import ReadOnly, check_choice, leaf_angles, steering_matrix, steering_weights
from .channels import db_to_linear
from .codebooks import Codebook

__all__ = [
    "POWER_MODES",
    "PowerModel",
    "POLICIES",
    "nearest_leaf",
    "PathBlock",
    "LockstepOutcome",
    "lockstep_search",
    "lockstep_exhaustive",
    "lockstep_adjudicate",
]


POWER_MODES = ("total", "per-antenna")
# The success criteria, in the order of lockstep_adjudicate's last axis.
POLICIES = ("match-exhaustive", "align-any-mpc", "align-strongest")


class PowerModel(ReadOnly):
    """Transmit-power convention at one watt, plus the per-antenna noise
    power (watts).

    Under ``total`` the codeword radiates one watt; under ``per-antenna``
    each active transmit antenna does, so the radiated power is the active
    count.
    """

    def __init__(self, mode: str, noise_power: float) -> None:
        check_choice("mode", mode, POWER_MODES)
        if noise_power < 0.0:
            raise ValueError("noise power must be non-negative")
        vars(self).update(mode=mode, noise_power=noise_power)

    @classmethod
    def from_snr_db(cls, mode: str, snr_db: float) -> "PowerModel":
        """Set the noise floor so that one watt over it is the requested SNR."""
        noise_power = db_to_linear(-snr_db)
        if not math.isfinite(noise_power):
            raise ValueError(f"snr_db={snr_db} puts the noise floor out of float range")
        return cls(mode, noise_power)

    def scale(self, n_tx_active):
        """Radiated power of a transmit codeword with the given active count:
        the measurement is ``sqrt(scale) g + n`` and the gain ``scale |g|^2``."""
        return 1 if self.mode == "total" else n_tx_active


def nearest_leaf(n: int, angle):
    """1-based index of the last-layer steering angle closest to ``angle``,
    with wrap-around distance on the period-2 domain; ties go to the lower
    index.  An int for a scalar angle, an array of the angles' shape else."""
    ang = np.asarray(angle, dtype=np.float64)
    diff = np.abs(leaf_angles(n) - ang[..., np.newaxis])
    index = np.argmin(np.minimum(diff, 2.0 - diff), axis=-1) + 1
    return int(index) if ang.ndim == 0 else index


# ---------------------------------------------------------------------------
# Lockstep engine: a block of realizations in the path domain
# ---------------------------------------------------------------------------


class PathBlock:
    """B realizations in the path domain, for an n_tx x n_rx link: path
    coefficients ``coeff`` and cosine angles ``omega`` (receive side) and
    ``psi`` (transmit side), (B, L) each, and each path's steering weights
    on either array, ``a_rx`` (B, L, N_rx) and ``a_tx`` (B, L, N_tx)."""

    # Plain slotted classes, not NamedTuples: each NamedTuple added about
    # 0.35 ms to importing the package, which the benchmark's setup_s counts.
    __slots__ = ("coeff", "omega", "psi", "a_rx", "a_tx")

    def __init__(self, coeff, omega, psi, n_tx: int, n_rx: int) -> None:
        self.coeff, self.omega, self.psi = coeff, omega, psi
        self.a_rx = np.moveaxis(steering_weights(n_rx, omega), 0, -1)
        self.a_tx = np.moveaxis(steering_weights(n_tx, psi), 0, -1)


class LockstepOutcome:
    """The searches of B realizations: the found (tx, rx) leaf ``pairs``,
    (B, 2), and each stage's ``winners`` with their measured ``y_power``
    and noiseless power ``gains``, (B, n_steps); indices are 1-based."""

    __slots__ = ("pairs", "winners", "y_power", "gains")

    def __init__(self, b: int, n_steps: int) -> None:
        self.pairs = np.empty((b, 2), dtype=np.intp)
        self.winners = np.empty((b, n_steps), dtype=np.intp)
        self.y_power = np.empty((b, n_steps))
        self.gains = np.empty((b, n_steps))


def _lockstep_descend(
    cb: Codebook,
    first: int,
    seen: np.ndarray,
    w_rx: np.ndarray | None,
    tx_active,
    power_model: PowerModel,
    noise: np.ndarray,
    out: LockstepOutcome,
) -> np.ndarray:
    """Walk ``cb`` for every realization at once, filling stages ``first``
    onward of ``out``; returns the winning leaf rows (0-based), shape (B,).

    ``seen`` (B, N) is the channel the candidates meet: ``H w_tx`` on the
    receive side, where ``w_rx`` is None, the candidates combine the noise
    and ``tx_active`` is the fixed transmit codeword's active count; or
    ``w_rx^H H`` on the transmit side, where ``w_rx`` (B, N_rx) combines the
    noise and each candidate brings its own active count.
    """
    rows = np.arange(seen.shape[0])
    std = math.sqrt(power_model.noise_power / 2.0)
    parent = np.zeros(seen.shape[0], dtype=np.intp)
    for k in range(1, cb.depth + 1):
        stage = first + k - 1
        children = 2 * parent[:, np.newaxis] + np.arange(2)  # lower child first
        cand = cb.layers[k][children]  # (B, 2, N)
        z = noise[:, stage]
        nz = std * (z[:, :, 0] + 1j * z[:, :, 1])  # (B, 2, N_rx)
        if w_rx is None:
            np.conjugate(cand, out=cand)
            combined = np.einsum("bcn,bcn->bc", cand, nz)
            active = tx_active
        else:
            combined = np.einsum("bn,bcn->bc", w_rx.conj(), nz)
            active = cb.active_counts[k][children]
        g = np.einsum("bcn,bn->bc", cand, seen)
        scale = power_model.scale(active)
        y_power = np.abs(np.sqrt(scale) * g + combined) ** 2
        # Ties go to the lower child index.
        high = (y_power[:, 1] > y_power[:, 0]).astype(np.intp)
        parent = children[rows, high]
        out.winners[:, stage] = parent + 1
        out.y_power[:, stage] = y_power[rows, high]
        out.gains[:, stage] = (scale * np.abs(g) ** 2)[rows, high]
    return parent


def lockstep_search(
    cb_tx: Codebook,
    cb_rx: Codebook,
    block: PathBlock,
    power_model: PowerModel,
    noise: np.ndarray,
) -> LockstepOutcome:
    """Two-phase binary-tree search over the receive and transmit codebooks,
    for a block of B realizations at once.

    Phase one pins the transmitter to its widest codeword and walks the
    receive tree from layer 1 down to the leaves, measuring both children of
    the current parent once per stage.  Phase two pins the receiver to the
    found leaf and walks the transmit tree the same way: ``log2(N_rx) +
    log2(N_tx)`` stages of two measurements each.

    ``noise`` holds each realization's standard normal draws, shape (B,
    n_steps, 2, 2, N_rx): per stage, per child (lower first), the real then
    the imaginary parts of the receive noise, each scaled by
    ``sqrt(noise_power / 2)`` and combined by the receive weights.  The
    receive phase sees ``H w_root = sqrt(N_tx N_rx) A_rx (c *
    A_tx^H w_root)`` and the transmit phase ``w_rx^H H = sqrt(N_tx N_rx)
    ((w_rx^H A_rx) * c) A_tx^H``, O(L N) per realization each.
    """
    b, _, n_rx = block.a_rx.shape
    n_tx = block.a_tx.shape[-1]
    if (cb_tx.n, cb_rx.n) != (n_tx, n_rx):
        raise ValueError("codebook sizes do not match the path block")
    n_steps = cb_tx.depth + cb_rx.depth
    if noise.shape != (b, n_steps, 2, 2, n_rx):
        want = (b, n_steps, 2, 2, n_rx)
        raise ValueError(f"noise block has shape {noise.shape}, expected {want}")
    scaled = math.sqrt(n_tx * n_rx) * block.coeff
    out = LockstepOutcome(b, n_steps)
    w_root = cb_tx.layers[0][0]
    seen_rx = np.einsum("bl,bln->bn", scaled * (block.a_tx.conj() @ w_root), block.a_rx)
    rx = _lockstep_descend(
        cb_rx, 0, seen_rx, None, cb_tx.active_counts[0][0], power_model, noise, out
    )
    w_rx = cb_rx.layers[-1][rx]  # (B, N_rx)
    on_rx = np.einsum("bn,bln->bl", w_rx.conj(), block.a_rx)
    seen_tx = np.einsum("bl,bln->bn", scaled * on_rx, block.a_tx.conj())
    tx = _lockstep_descend(cb_tx, cb_rx.depth, seen_tx, w_rx, None, power_model, noise, out)
    out.pairs[:, 0] = tx + 1
    out.pairs[:, 1] = rx + 1
    return out


def lockstep_exhaustive(
    block: PathBlock, power_model: PowerModel
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless scan over every pair of last-layer steering vectors, for a
    block of B realizations: the (B, 2) 1-based (tx, rx) pairs and the (B,)
    gains.  Ties go to the smallest (tx, rx) pair lexicographically.  The
    pairs do not depend on the power model; the gains follow it (last-layer
    codewords keep every transmit antenna active).

    Per realization the leaf couplings are ``(S_rx^H A_rx * c)(S_tx^H
    A_tx)^H``, an O(L N^2) product; one realization's N_tx x N_rx couplings
    exist at a time.
    """
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


def lockstep_adjudicate(
    pairs: np.ndarray, block: PathBlock, exhaustive_pairs: np.ndarray
) -> np.ndarray:
    """Decide, for each of B realizations and M searches, whether the search
    succeeded under each of the :data:`POLICIES`, in their order: a (B, M,
    3) bool array.

    ``pairs`` (B, M, 2) holds the found 1-based (tx, rx) pairs, as from M
    :func:`lockstep_search` runs, and ``exhaustive_pairs`` (B, 2) those of
    :func:`lockstep_exhaustive`.  ``match-exhaustive``: the found pair equals
    the exhaustive pair.  ``align-any-mpc``: the found pair equals the
    nearest-leaf pair of at least one path.  ``align-strongest``: same, but
    only the path with the largest coefficient magnitude qualifies.
    """
    n_tx, n_rx = block.a_tx.shape[-1], block.a_rx.shape[-1]
    tx_leaf = nearest_leaf(n_tx, block.psi)[:, np.newaxis]  # (B, 1, L)
    rx_leaf = nearest_leaf(n_rx, block.omega)[:, np.newaxis]
    hit = (tx_leaf == pairs[..., :1]) & (rx_leaf == pairs[..., 1:])  # (B, M, L)
    match = np.all(pairs == exhaustive_pairs[:, np.newaxis], axis=-1)
    # Of equal magnitudes, argmax takes the first path.
    strongest = hit[np.arange(len(hit)), :, np.argmax(np.abs(block.coeff), axis=1)]
    return np.stack([match, hit.any(axis=-1), strongest], axis=-1)
