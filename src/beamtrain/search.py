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

from .arrays import (
    ReadOnly,
    check_choice,
    check_real,
    leaf_angles,
    steering_matrix,
    steering_weights,
)
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
# Relative slack on lockstep_exhaustive's row bounds, far above their
# rounding error (see its docstring).
_BOUND_SLACK = 1e-6


class PowerModel(ReadOnly):
    """Transmit-power convention at one watt, plus the per-antenna noise
    power (watts).

    Under ``total`` the codeword radiates one watt; under ``per-antenna``
    each active transmit antenna does, so the radiated power is the active
    count.
    """

    def __init__(self, mode: str, noise_power: float) -> None:
        check_choice("mode", mode, POWER_MODES)
        noise_power = check_real("noise_power", noise_power)
        if not 0.0 <= noise_power < math.inf:
            raise ValueError(f"noise power must be finite and non-negative, got {noise_power}")
        vars(self).update(mode=mode, noise_power=noise_power)

    @classmethod
    def from_snr_db(cls, mode: str, snr_db: float) -> "PowerModel":
        """Set the noise floor so that one watt over it is the requested SNR."""
        noise_power = db_to_linear(-check_real("snr_db", snr_db))
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
    depth: int, measure, std: float, noise: np.ndarray, first: int, out: LockstepOutcome
) -> np.ndarray:
    """Walk a binary tree of ``depth`` layers below its root for every
    realization at once, filling stages ``first`` onward of ``out``; returns
    the winning leaf rows (0-based), shape (B,).

    ``measure(k, children, nz)`` gives, for the (B, 2) candidate rows of
    layer k, their noiseless couplings and combined noise, (B, 2) each, from
    the stage's (B, 2, N_rx) receive noise ``nz``, and their power scale.
    """
    rows = np.arange(len(noise))
    parent = np.zeros(len(noise), dtype=np.intp)
    for k in range(1, depth + 1):
        stage = first + k - 1
        children = 2 * parent[:, np.newaxis] + np.arange(2)  # lower child first
        z = noise[:, stage]
        nz = z[:, :, 1] * 1j  # (B, 2, N_rx), built in one buffer
        nz += z[:, :, 0]
        nz *= std
        g, combined, scale = measure(k, children, nz)
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
    a_tx_h = block.a_tx.conj()
    std = math.sqrt(power_model.noise_power / 2.0)
    out = LockstepOutcome(b, n_steps)
    seen_rx = np.einsum("bl,bln->bn", scaled * (a_tx_h @ cb_tx.layers[0][0]), block.a_rx)
    root_scale = power_model.scale(cb_tx.active_counts[0][0])

    def measure_rx(k, children, nz):
        # The candidates combine their own noise; the transmitter stays at its root.
        cand = cb_rx.layers[k][children]  # (B, 2, N_rx)
        np.conjugate(cand, out=cand)
        g = np.einsum("bcn,bn->bc", cand, seen_rx)
        return g, np.einsum("bcn,bcn->bc", cand, nz), root_scale

    rx = _lockstep_descend(cb_rx.depth, measure_rx, std, noise, 0, out)
    w_rx_h = cb_rx.layers[-1][rx].conj()  # (B, N_rx)
    on_rx = np.einsum("bn,bln->bl", w_rx_h, block.a_rx)
    seen_tx = np.einsum("bl,bln->bn", scaled * on_rx, a_tx_h)

    def measure_tx(k, children, nz):
        # The found receive leaf combines the noise; each candidate brings its
        # own active count.
        g = np.einsum("bcn,bn->bc", cb_tx.layers[k][children], seen_tx)
        scale = power_model.scale(cb_tx.active_counts[k][children])
        return g, np.einsum("bn,bcn->bc", w_rx_h, nz), scale

    tx = _lockstep_descend(cb_tx.depth, measure_tx, std, noise, cb_rx.depth, out)
    out.pairs[:, 0] = tx + 1
    out.pairs[:, 1] = rx + 1
    return out


def _row_bounds(scaled, on_tx, on_rx) -> np.ndarray:
    """The row bounds ``U[b, i]``, (B, N_tx): at least every |coupling|^2 in
    transmit row i of realization b that :func:`lockstep_exhaustive` computes
    (see its docstring)."""
    reach = np.abs(scaled) * np.abs(on_rx).max(axis=-1)  # |c_l| max_j |r_lj|, (B, L)
    bound = np.einsum("bl,bli->bi", reach, np.abs(on_tx))
    bound *= 1.0 + _BOUND_SLACK
    bound += np.finfo(float).tiny
    return np.square(bound, out=bound)


def lockstep_exhaustive(
    block: PathBlock, power_model: PowerModel
) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless scan over every pair of last-layer steering vectors, for a
    block of B realizations: the (B, 2) 1-based (tx, rx) pairs and the (B,)
    gains.  Ties go to the smallest (tx, rx) pair lexicographically.  The
    pairs do not depend on the power model; the gains follow it (last-layer
    codewords keep every transmit antenna active).

    Per realization the leaf couplings are ``P = (S_tx^H A_tx)^H (c * S_rx^H
    A_rx)``, an O(L N^2) product into one N_tx x N_rx buffer the block
    reuses.  Only the rows of P that can hold the best pair are squared and
    scanned.  With t = S_tx^H A_tx and r = S_rx^H A_rx, every coupling in
    transmit row i obeys

        |P[i, j]| <= sum_l |t_li| |c_l| max_j' |r_lj'| = S_i,

    and the row bound is ``U_i = ((1 + delta) S_i + tiny)^2``, with delta =
    ``_BOUND_SLACK`` = 1e-6 and tiny the smallest normal double.  It covers
    rounding, with u = 2^-53 and L <= MAX_PATHS = 4096:

    * the computed |P[i, j]| exceeds S_i by at most (2L + 9)u relative: 3u
      for each rounded product c_l r_lj, (2L + 4)u for a ``zgemm`` sum of L
      complex products in any order, 2u for the modulus (``hypot``);
    * the computed S_i falls short by at most (L + 9)u: the three moduli, two
      products per path, the L-term sum and the slack's own product;
    * so (3L + 18)u, under 2e-12, is all the slack needs, far inside delta;
    * below the normal range rounding errors are absolute, at most 2^-1075
      each, and tiny = 2^-1022 covers far more of them than a scan makes;
    * rounding is monotone: if a >= b, then fl(a^2) >= fl(b^2).

    So U_i is at least every |P[i, j]|^2 the scan computes.  The scan squares
    the row with the largest bound first; its largest value v is at most the
    best cell.  Every row that holds a cell equal to the best then has U_i >=
    v and is kept.  The kept rows, in ascending order, are squared and
    scanned row-major, so the first maximum found is the first of the full
    scan: the same pair, and the same float.  A zero channel has U = 0 and
    keeps every row.
    """
    n_tx, n_rx = block.a_tx.shape[-1], block.a_rx.shape[-1]
    # The leaf matrix is packed once per side: one (B*L, N) product, not one
    # per realization.  At L = 1 the stacked product stays, because NumPy runs
    # its one-row products as matrix-vector calls, whose bits a flat matrix
    # product does not reproduce.  ``x @ conj(S)`` is taken as the bit-equal
    # ``conj(conj(x) @ S)``, which conjugates the path sides, not the N x N S.
    on_rx, on_tx = (  # (B, L, N_rx) and (B, L, N_tx)
        np.conj(np.conj(a.reshape(-1, n) if a.shape[1] > 1 else a) @ steering_matrix(n))
        .reshape(a.shape)
        for a, n in ((block.a_rx, n_rx), (block.a_tx, n_tx))
    )
    scaled = math.sqrt(n_tx * n_rx) * block.coeff
    bound = _row_bounds(scaled, on_tx, on_rx)
    scaled_rx = scaled[:, :, np.newaxis] * on_rx  # each realization's c * r
    best_index = np.empty(len(scaled), dtype=np.intp)
    best = np.empty(len(scaled))
    prod = np.empty((n_tx, n_rx), complex)
    for b, (tx_leaves, rx_leaves, row_bound, top) in enumerate(
        zip(on_tx, scaled_rx, bound, bound.argmax(axis=1))
    ):
        np.matmul(tx_leaves.T.conj(), rx_leaves, out=prod)
        # Squaring is monotone, so the top row's largest |P|^2 is its largest
        # |P|, squared.
        floor = np.abs(prod[top]).max()
        floor *= floor
        # ``not <`` rather than ``>=``: a NaN keeps every row, as a full scan would.
        rows = np.flatnonzero(~(row_bound < floor))
        kept = np.square(np.abs(prod[rows]))
        # Row-major argmax scans tx first, then rx: ties go to the smallest pair.
        row, col = divmod(int(np.argmax(kept)), n_rx)
        best_index[b] = rows[row] * n_rx + col
        best[b] = kept[row, col]
    pairs = np.column_stack(np.divmod(best_index, n_rx)) + 1
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
