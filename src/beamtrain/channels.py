"""Sparse multipath channel sampling for ULA-to-ULA links.

The channel is a sum of L planar paths,

    H = sqrt(n_tx * n_rx) * sum_l coeff_l * a(n_rx, omega_l) a(n_tx, psi_l)^H,

where ``omega_l`` is the cosine angle entering the receive-side response and
``psi_l`` the one entering the transmit-side response.  Path coefficients are
normalized so the expected total path power is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .arrays import MAX_PATHS, steering_weights

__all__ = [
    "ChannelKind",
    "Mpc",
    "ChannelParams",
    "Channel",
    "sample_channel",
    "assemble_matrix",
    "dump_channel",
    "load_channel",
]

_FORMAT_TAG = "beamtrain-channel-v1"


def db_to_linear(x_db: float) -> float:
    """10**(x_db/10); inf where that overflows a float (it never raises)."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


class ChannelKind(str, Enum):
    LOS = "los"
    NLOS = "nlos"


@dataclass(frozen=True)
class Mpc:
    """One multipath component.

    ``omega`` and ``psi`` are cosine angles in [-1, 1]; ``omega`` pairs with
    the receive array and ``psi`` with the transmit array in the channel sum.
    """

    coeff: complex
    omega: float
    psi: float

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not (abs(self.omega) <= 1.0 and abs(self.psi) <= 1.0):
            raise ValueError("cosine angles must lie in [-1, 1]")


@dataclass(frozen=True)
class ChannelParams:
    """Sampling parameters for one channel ensemble.

    ``eta_db`` is the power gap, in dB, between the dominant path and the
    expected power of each diffuse path; it only matters for the LOS kind.
    """

    n_tx: int
    n_rx: int
    n_paths: int = 3
    kind: ChannelKind = ChannelKind.NLOS
    eta_db: float = 15.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("array sizes must be positive")
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must lie between 1 and {MAX_PATHS}, got {self.n_paths}")
        if not 0.0 < db_to_linear(self.eta_db) < math.inf:
            raise ValueError(
                f"eta_db must be finite, with 10**(eta_db/10) a positive float; got {self.eta_db}"
            )


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable channel realization: the path list and the assembled matrix."""

    n_tx: int
    n_rx: int
    mpcs: tuple[Mpc, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (self.n_rx, self.n_tx):
            raise ValueError("matrix shape must be (n_rx, n_tx)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def coupling(self, w_tx: np.ndarray, w_rx: np.ndarray) -> complex:
        """Beamformed channel coefficient ``w_rx^H H w_tx`` of 1-D weight arrays."""
        return complex(w_rx.conj() @ (self.matrix @ w_tx))


def assemble_matrix(n_tx: int, n_rx: int, mpcs) -> np.ndarray:
    """Rebuild the channel matrix from a path list."""
    h = np.zeros((n_rx, n_tx), dtype=np.complex128)
    for mpc in mpcs:
        a_rx = steering_weights(n_rx, mpc.omega)
        h += mpc.coeff * (a_rx[:, np.newaxis] * steering_weights(n_tx, mpc.psi).conj())
    return math.sqrt(n_tx * n_rx) * h


def sample_channel(params: ChannelParams, rng: np.random.Generator) -> Channel:
    """Draw one channel realization.

    Physical angles on both sides are uniform on [0, 2*pi) and enter through
    their cosines.  For the NLOS kind every coefficient is circularly
    symmetric complex Gaussian with variance 1/L.  For the LOS kind the first
    path has the deterministic zero-phase amplitude sqrt(g / (g + L - 1))
    with g = 10^(eta_db/10), and the remaining paths are complex Gaussian
    with variance 1/(g + L - 1), so the expected total power is one and the
    dominant path sits eta_db above each diffuse path.  The draw order
    (receive-side angles, transmit-side angles, coefficients) is part of the
    reproducibility contract.
    """
    n_paths = params.n_paths
    omega = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n_paths))
    psi = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n_paths))
    if params.kind is ChannelKind.NLOS:
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
    mpcs = tuple(
        Mpc(coeff=complex(c), omega=float(o), psi=float(p))
        for c, o, p in zip(coeff, omega, psi)
    )
    return Channel(
        n_tx=params.n_tx,
        n_rx=params.n_rx,
        mpcs=mpcs,
        matrix=assemble_matrix(params.n_tx, params.n_rx, mpcs),
    )


def dump_channel(channel: Channel, path) -> None:
    """Write a channel's path list as text (17 significant digits, lossless).

    Layout::

        beamtrain-channel-v1
        n_tx <int>
        n_rx <int>
        paths <int>
        path <re(coeff)> <im(coeff)> <omega> <psi>
    """
    lines = [
        _FORMAT_TAG,
        f"n_tx {channel.n_tx}",
        f"n_rx {channel.n_rx}",
        f"paths {len(channel.mpcs)}",
    ]
    for mpc in channel.mpcs:
        lines.append(
            f"path {mpc.coeff.real:.17e} {mpc.coeff.imag:.17e} "
            f"{mpc.omega:.17e} {mpc.psi:.17e}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_channel(path) -> Channel:
    """Read a channel written by :func:`dump_channel`; the matrix is rebuilt."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != _FORMAT_TAG:
        raise ValueError(f"not a {_FORMAT_TAG} file")
    header: dict[str, str] = {}
    mpcs: list[Mpc] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        if key == "path":
            re, im, omega, psi = (float(x) for x in value.split())
            mpcs.append(Mpc(coeff=complex(re, im), omega=omega, psi=psi))
        else:
            header[key] = value.strip()
    for key in ("n_tx", "n_rx", "paths"):
        if key not in header:
            raise ValueError(f"missing header line '{key}'")
    n_tx, n_rx = int(header["n_tx"]), int(header["n_rx"])
    if len(mpcs) != int(header["paths"]):
        raise ValueError("path count does not match header")
    return Channel(
        n_tx=n_tx,
        n_rx=n_rx,
        mpcs=tuple(mpcs),
        matrix=assemble_matrix(n_tx, n_rx, mpcs),
    )
