"""Training measurements, binary-tree hierarchical search, and adjudication.

A single training symbol is sent per candidate codeword.  Under the total
power model the received sample is

    y = sqrt(p) * w_rx^H H w_tx + w_rx^H noise,

and under the per-antenna model the transmit scale grows with the number of
active transmit antennas, ``sqrt(p * n_tx_active)``.  The search descends the
receive codebook first (transmitter pinned to its widest codeword), then the
transmit codebook, testing the two children of the current parent at every
stage and keeping the larger measured power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .arrays import leaf_angles, steering_matrix
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


def nearest_leaf(n: int, angle: float) -> int:
    """1-based index of the last-layer steering angle closest to ``angle``,
    with wrap-around distance on the period-2 domain; ties go to the lower
    index."""
    diff = np.abs(leaf_angles(n) - angle)
    return int(np.argmin(np.minimum(diff, 2.0 - diff))) + 1


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
