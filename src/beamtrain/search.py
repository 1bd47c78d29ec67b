"""Training measurements, binary-tree hierarchical search, and adjudication.

A single training symbol is sent per candidate codeword.  Under the total
power model the received sample is

    y = sqrt(p) * w_rx^H H w_tx + w_rx^H noise,

and under the per-antenna model the transmit scale grows with the number of
active transmit antennas, ``sqrt(p * n_tx_active)``.  The search descends the
receive codebook first (transmitter pinned to its widest codeword), then the
transmit codebook, testing the two children of the current parent at every
stage and keeping the larger measured power.

:func:`hierarchical_search`, :func:`measure`, :func:`exhaustive_search` and
:func:`adjudicate` work on one :class:`Channel` and are the reference.  The
``lockstep_*`` functions do the same for a block of B realizations at once,
in the path domain: a :class:`PathBlock` holds the realizations' paths, and
no channel matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .arrays import leaf_angles, steering_matrix, steering_weights
from .channels import Channel, db_to_linear
from .codebooks import Codebook

__all__ = [
    "PowerMode",
    "PowerModel",
    "TraceRow",
    "SearchOutcome",
    "AdjudicationPolicy",
    "measure",
    "hierarchical_search",
    "exhaustive_search",
    "adjudicate",
    "nearest_leaf",
    "PathBlock",
    "LockstepOutcome",
    "lockstep_search",
    "lockstep_exhaustive",
    "lockstep_adjudicate",
    "TRACE_COLUMNS",
]


class PowerMode(str, Enum):
    TOTAL = "total"
    PER_ANTENNA = "per-antenna"


@dataclass(frozen=True)
class PowerModel:
    """Transmit-power convention plus the per-antenna noise power (watts).

    ``power`` is the total radiated power for the ``total`` mode and the
    per-antenna power for the ``per-antenna`` mode, where the radiated power
    scales with the number of active transmit antennas.
    """

    mode: PowerMode
    power: float
    noise_power: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", PowerMode(self.mode))
        if self.power <= 0.0:
            raise ValueError("transmit power must be positive")
        if self.noise_power < 0.0:
            raise ValueError("noise power must be non-negative")

    @classmethod
    def total(cls, power: float = 1.0, noise_power: float = 1e-4) -> "PowerModel":
        return cls(PowerMode.TOTAL, power, noise_power)

    @classmethod
    def per_antenna(cls, power: float = 1.0, noise_power: float = 1e-4) -> "PowerModel":
        return cls(PowerMode.PER_ANTENNA, power, noise_power)

    @classmethod
    def from_snr_db(
        cls, mode: PowerMode | str, snr_db: float, power: float = 1.0
    ) -> "PowerModel":
        """Fix the transmit power at ``power`` watts and set the noise floor
        so that power/noise equals the requested SNR."""
        noise_power = power * db_to_linear(-snr_db)
        if not math.isfinite(noise_power):
            raise ValueError(f"snr_db={snr_db} puts the noise floor out of float range")
        return cls(PowerMode(mode), power, noise_power)

    def tx_power(self, n_tx_active: int) -> float:
        """Radiated power for a transmit codeword with the given active count."""
        if self.mode is PowerMode.TOTAL:
            return self.power
        return self.power * n_tx_active

    def gain(self, coupling_sq: float, n_tx_active: int):
        """Power gain: the squared beamformed coupling, scaled by the active
        transmit count under the per-antenna model."""
        if self.mode is PowerMode.TOTAL:
            return coupling_sq
        return n_tx_active * coupling_sq


class TraceRow(NamedTuple):
    """One search stage: the 1-based candidates measured, the one kept, and
    its measured |y|^2 and noiseless power gain.  Every cell is a Python
    scalar, so the trace is its own CSV rows."""

    stage: int
    side: str
    candidate_1: int
    candidate_2: int
    winner: int
    y_power: float
    noiseless_gain: float


TRACE_COLUMNS = TraceRow._fields


@dataclass(frozen=True)
class SearchOutcome:
    """The found (transmit leaf, receive leaf) pair, both 1-based, and the
    trace, one row per stage."""

    pair: tuple[int, int]
    trace: tuple[TraceRow, ...]


class AdjudicationPolicy(str, Enum):
    MATCH_EXHAUSTIVE = "match-exhaustive"
    ALIGN_ANY_MPC = "align-any-mpc"
    ALIGN_STRONGEST = "align-strongest"


def _complex_noise(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    z = rng.standard_normal(2 * n)
    return np.sqrt(variance / 2.0) * (z[:n] + 1j * z[n:])


def measure(
    w_tx: np.ndarray,
    w_rx: np.ndarray,
    channel: Channel,
    power_model: PowerModel,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Send one unit training symbol through the channel and beamformers;
    returns the measured |y|^2 and the noiseless power gain.

    ``w_tx`` and ``w_rx`` are 1-D weight arrays, such as codebook layer rows.
    Noise is drawn as a circularly symmetric complex Gaussian vector across
    the receive antennas with per-entry variance ``noise_power`` and combined
    by the receive weights.  The same number of variates is consumed even in
    the noiseless case so runs at different noise levels stay stream-aligned.
    """
    if w_tx.shape != (channel.n_tx,) or w_rx.shape != (channel.n_rx,):
        raise ValueError("beamformer sizes do not match the channel")
    g = channel.coupling(w_tx, w_rx)
    noise = w_rx.conj() @ _complex_noise(rng, channel.n_rx, power_model.noise_power)
    n_tx_active = np.count_nonzero(w_tx)
    y = np.sqrt(power_model.tx_power(n_tx_active)) * g + noise
    return float(abs(y) ** 2), float(power_model.gain(abs(g) ** 2, n_tx_active))


def _descend(
    cb: Codebook,
    fixed: np.ndarray,
    side: str,
    channel: Channel,
    power_model: PowerModel,
    rng: np.random.Generator,
    trace: list[TraceRow],
) -> int:
    """Walk ``cb`` from its root against the ``fixed`` weights of the other
    side, appending one row per stage to ``trace``; returns the winning
    leaf's row (0-based)."""
    parent = 0
    for k in range(1, cb.depth + 1):
        lo = 2 * parent
        measured = []
        for w in cb.layers[k][lo : lo + 2]:  # lower child first: fixes the noise order
            w_tx, w_rx = (fixed, w) if side == "rx" else (w, fixed)
            measured.append(measure(w_tx, w_rx, channel, power_model, rng))
        (y_lo, g_lo), (y_hi, g_hi) = measured
        # Ties go to the lower child index.
        parent, y_win, g_win = (lo + 1, y_hi, g_hi) if y_hi > y_lo else (lo, y_lo, g_lo)
        trace.append(TraceRow(len(trace) + 1, side, lo + 1, lo + 2, parent + 1, y_win, g_win))
    return parent


def hierarchical_search(
    cb_tx: Codebook,
    cb_rx: Codebook,
    channel: Channel,
    power_model: PowerModel,
    rng: np.random.Generator,
) -> SearchOutcome:
    """Two-phase binary-tree search over the receive and transmit codebooks.

    Phase one pins the transmitter to its widest codeword and walks the
    receive tree from layer 1 down to the leaves, measuring both children of
    the current parent once per stage.  Phase two pins the receiver to the
    found leaf and walks the transmit tree the same way.  The trace holds
    ``log2(n_rx) + log2(n_tx)`` stages (two measurements each).
    """
    if cb_tx.n != channel.n_tx or cb_rx.n != channel.n_rx:
        raise ValueError("codebook sizes do not match the channel")
    trace: list[TraceRow] = []
    rx = _descend(cb_rx, cb_tx.layers[0][0], "rx", channel, power_model, rng, trace)
    tx = _descend(cb_tx, cb_rx.layers[-1][rx], "tx", channel, power_model, rng, trace)
    return SearchOutcome(pair=(tx + 1, rx + 1), trace=tuple(trace))


def exhaustive_search(
    channel: Channel, power_model: PowerModel
) -> tuple[int, int, float]:
    """Noiseless scan over every pair of last-layer steering vectors.

    Returns ``(tx_index, rx_index, gain)`` with 1-based indices; ties are
    broken toward the smallest (tx_index, rx_index) lexicographically.  The
    pair does not depend on the power model; the gain follows it (last-layer
    codewords keep every transmit antenna active).
    """
    s_rx = steering_matrix(channel.n_rx)
    s_tx = steering_matrix(channel.n_tx)
    coupling_sq = np.abs(s_rx.conj().T @ channel.matrix @ s_tx) ** 2
    by_tx = coupling_sq.T  # row-major argmax scans tx first, then rx
    tx_idx, rx_idx = divmod(int(np.argmax(by_tx)), channel.n_rx)
    gain = power_model.gain(float(by_tx[tx_idx, rx_idx]), channel.n_tx)
    return tx_idx + 1, rx_idx + 1, float(gain)


def nearest_leaf(n: int, angle):
    """1-based index of the last-layer steering angle closest to ``angle``,
    with wrap-around distance on the period-2 domain; ties go to the lower
    index.  An int for a scalar angle, an array of the angles' shape else."""
    ang = np.asarray(angle, dtype=np.float64)
    diff = np.abs(leaf_angles(n) - ang[..., np.newaxis])
    index = np.argmin(np.minimum(diff, 2.0 - diff), axis=-1) + 1
    return int(index) if ang.ndim == 0 else index


def adjudicate(
    outcome: SearchOutcome,
    channel: Channel,
    policy: AdjudicationPolicy | str,
    exhaustive_pair: tuple[int, int],
) -> bool:
    """Decide whether a search outcome counts as a success.

    ``match-exhaustive``: the found pair equals ``exhaustive_pair``, the
    (tx, rx) pair of :func:`exhaustive_search` on this channel.
    ``align-any-mpc``: the found pair equals the nearest-leaf pair of at
    least one path.  ``align-strongest``: same, but only the path with the
    largest coefficient magnitude qualifies.
    """
    policy = AdjudicationPolicy(policy)
    found = outcome.pair
    if policy is AdjudicationPolicy.MATCH_EXHAUSTIVE:
        return found == tuple(exhaustive_pair)
    mpcs = channel.mpcs
    if policy is AdjudicationPolicy.ALIGN_STRONGEST:
        mpcs = (max(mpcs, key=lambda m: abs(m.coeff)),)
    return any(
        found == (nearest_leaf(channel.n_tx, m.psi), nearest_leaf(channel.n_rx, m.omega))
        for m in mpcs
    )


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
    (B, 2), and each stage's ``winners`` and their noiseless power
    ``gains``, (B, n_steps); indices are 1-based, as in :class:`TraceRow`."""

    __slots__ = ("pairs", "winners", "gains")

    def __init__(self, b: int, n_steps: int) -> None:
        self.pairs = np.empty((b, 2), dtype=np.intp)
        self.winners = np.empty((b, n_steps), dtype=np.intp)
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
        nz = std * (z[:, :, 0] + 1j * z[:, :, 1])  # (B, 2, N_rx), as measure draws it
        if w_rx is None:
            np.conjugate(cand, out=cand)
            combined = np.einsum("bcn,bcn->bc", cand, nz)
            active = tx_active
        else:
            combined = np.einsum("bn,bcn->bc", w_rx.conj(), nz)
            active = cb.active_counts[k][children]
        g = np.einsum("bcn,bn->bc", cand, seen)
        y_power = np.abs(np.sqrt(power_model.tx_power(active)) * g + combined) ** 2
        # Ties go to the lower child index.
        high = (y_power[:, 1] > y_power[:, 0]).astype(np.intp)
        parent = children[rows, high]
        out.winners[:, stage] = parent + 1
        out.gains[:, stage] = power_model.gain(np.abs(g) ** 2, active)[rows, high]
    return parent


def lockstep_search(
    cb_tx: Codebook,
    cb_rx: Codebook,
    block: PathBlock,
    power_model: PowerModel,
    noise: np.ndarray,
) -> LockstepOutcome:
    """:func:`hierarchical_search` for a block of B realizations at once.

    ``noise`` holds each realization's standard normal draws, shape (B,
    n_steps, 2, 2, N_rx): per stage, per child (lower first), the real then
    the imaginary parts of the receive noise, as :func:`measure` draws them
    in turn.  The receive phase sees ``H w_root = sqrt(N_tx N_rx) A_rx (c *
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
    """:func:`exhaustive_search` for a block of B realizations: the (B, 2)
    1-based (tx, rx) pairs and the (B,) gains.

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
    return pairs, power_model.gain(best, n_tx)


def lockstep_adjudicate(
    pairs: np.ndarray,
    block: PathBlock,
    policy: AdjudicationPolicy | str,
    exhaustive_pairs: np.ndarray,
) -> np.ndarray:
    """:func:`adjudicate` for a block of B realizations: one flag each.

    ``pairs`` and ``exhaustive_pairs`` are (B, 2) 1-based (tx, rx) pairs,
    as from :func:`lockstep_search` and :func:`lockstep_exhaustive`.
    """
    policy = AdjudicationPolicy(policy)
    if policy is AdjudicationPolicy.MATCH_EXHAUSTIVE:
        return np.all(pairs == exhaustive_pairs, axis=1)
    n_tx, n_rx = block.a_tx.shape[-1], block.a_rx.shape[-1]
    hit = (nearest_leaf(n_tx, block.psi) == pairs[:, :1]) & (
        nearest_leaf(n_rx, block.omega) == pairs[:, 1:]
    )
    if policy is AdjudicationPolicy.ALIGN_STRONGEST:
        # argmax takes the first of equal magnitudes, as max() does.
        return hit[np.arange(len(hit)), np.argmax(np.abs(block.coeff), axis=1)]
    return hit.any(axis=1)
