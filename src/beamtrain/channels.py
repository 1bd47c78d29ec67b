"""Sparse multipath channel sampling for ULA-to-ULA links.

A channel realization is L planar paths, each a coefficient ``coeff_l`` and
two cosine angles: ``omega_l`` enters the receive-side response and
``psi_l`` the transmit-side response.  The channel they make is

    H = sqrt(n_tx * n_rx) * sum_l coeff_l * a(n_rx, omega_l) a(n_tx, psi_l)^H,

which the search applies path by path and never builds.  Path coefficients
are normalized so the expected total path power is one.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import MAX_PATHS, ReadOnly, check_choice, check_int, check_real

__all__ = ["KINDS", "ChannelParams", "draw_paths"]

# The channel models: a dominant path over diffuse ones, or diffuse paths only.
KINDS = ("los", "nlos")


def db_to_linear(x_db: float) -> float:
    """10**(x_db/10); inf where that overflows a float (it never raises)."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


class ChannelParams(ReadOnly):
    """Sampling parameters for one channel ensemble.

    ``eta_db`` is the power gap, in dB, between the dominant path and the
    expected power of each diffuse path; it only matters for the LOS kind.
    """

    def __init__(self, n_paths: int = 3, kind: str = "nlos", eta_db: float = 15.0) -> None:
        n_paths = check_int("n_paths", n_paths)
        eta_db = check_real("eta_db", eta_db)
        check_choice("kind", kind, KINDS)
        if not 1 <= n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must lie between 1 and {MAX_PATHS}, got {n_paths}")
        if not 0.0 < db_to_linear(eta_db) < math.inf:
            raise ValueError(
                f"eta_db must be finite, with 10**(eta_db/10) a positive float; got {eta_db}"
            )
        vars(self).update(n_paths=n_paths, kind=kind, eta_db=eta_db)


def draw_paths(
    params: ChannelParams, rngs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one realization from each generator of ``rngs``: ``(coeff, omega,
    psi)``, each (B, L), row b from the b-th generator.

    Physical angles on both sides are uniform on [0, 2*pi) and enter through
    their cosines.  For the NLOS kind every coefficient is circularly
    symmetric complex Gaussian with variance 1/L.  For the LOS kind the first
    path has the deterministic zero-phase amplitude sqrt(g / (g + L - 1))
    with g = 10^(eta_db/10), and the remaining paths are complex Gaussian
    with variance 1/(g + L - 1), so the expected total power is one and the
    dominant path sits eta_db above each diffuse path.  The draw order is
    part of the reproducibility contract: each generator gives L receive-side
    then L transmit-side angles, then the diffuse coefficients' real then
    imaginary parts.  Each generator is drawn from before the next is taken,
    so ``rngs`` may yield one generator re-seeded for every realization.
    """
    n_paths = params.n_paths
    if params.kind == "nlos":
        gap, n_diffuse, denom = 0.0, n_paths, n_paths
    else:
        gap = db_to_linear(params.eta_db)
        n_diffuse, denom = n_paths - 1, gap + n_paths - 1.0
    draws = [
        (rng.uniform(0.0, 2.0 * np.pi, size=2 * n_paths), rng.standard_normal(2 * n_diffuse))
        for rng in rngs
    ]
    angles, z = map(np.array, zip(*draws))
    omega, psi = np.split(np.cos(angles), 2, axis=1)
    # The dominant path's amplitude, which the NLOS kind's diffuse paths overwrite.
    coeff = np.full((len(z), n_paths), math.sqrt(gap / denom), dtype=complex)
    coeff[:, n_paths - n_diffuse :] = math.sqrt(1.0 / (2.0 * denom)) * (
        z[:, :n_diffuse] + 1j * z[:, n_diffuse:]
    )
    return coeff, omega, psi
