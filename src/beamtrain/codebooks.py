"""Binary-tree hierarchical beam codebooks and their coverage validator.

Two constructions are provided for power-of-two array sizes:

* ``deact``: layer k keeps 2^k antennas active and steers them, turning the
  rest off, so beams widen as layers get coarser.
* ``bmw-ss``: beams are widened by splitting the array into sub-arrays that
  steer toward evenly spaced directions (with a phase per sub-array chosen to
  lift the crossover dips) and, on alternating layers, by deactivating half
  of the sub-arrays.  Every codeword keeps all or half of the antennas live.

Both codebooks end in the same leaf layer, the columns of
``steering_matrix(N)`` (steering vectors spaced 2/N apart) bit for bit; within
every other layer each codeword is a beam rotation of the first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .arrays import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_CELLS,
    ReadOnly,
    active_counts,
    angle_grid,
    check_choice,
    check_grid,
    check_int,
    coverage_factor_rho,
    coverage_gains,
    coverage_mask,
    rotate,
    steering_matrix,
    steering_weights,
)

__all__ = [
    "METHODS",
    "Codebook",
    "check_array_size",
    "generate_codebook",
    "generate_deact",
    "generate_bmw_ss",
    "validate_codebook",
    "CoverageReport",
    "export_codebook",
    "load_codebook",
]

_FORMAT_TAG = "beamtrain-codebook-v1"

# The built-in constructions, in the order a Monte-Carlo run compares them.
METHODS = ("bmw-ss", "deact")


def check_array_size(n: int, minimum: int = 1) -> int:
    """log2(n), for an integer power of two n >= ``minimum`` whose
    (2n - 1) x n codebook fits in MAX_GRID_CELLS (so n <= 4096); raises before
    any layer exists otherwise."""
    n = check_int("n", n)
    if n < minimum or n & (n - 1):
        raise ValueError(
            f"unsupported array size {n}: must be a power of two and >= {minimum}"
        )
    if (2 * n - 1) * n > MAX_GRID_CELLS:
        raise ValueError(
            f"unsupported array size {n}: its codebook makes {(2 * n - 1) * n} cells; "
            f"(2N-1)*N must be at most {MAX_GRID_CELLS}"
        )
    return n.bit_length() - 1


class Codebook(ReadOnly):
    """Binary tree of codewords for an N-antenna array, N a power of two.

    ``layers[k]``, k = 0..log2(N), is a read-only C-contiguous (2^k, N)
    complex array whose row i is codeword i of layer k; its children are rows
    2i and 2i+1 of layer k+1.  The last layer holds the steering vectors at
    ``leaf_angles(N)``.  ``active_counts[k]`` holds each row's number of
    active antennas.  Files, traces and reports number codewords from 1.
    """

    def __init__(self, n: int, method: str, layers) -> None:
        check_choice("method", method, METHODS)
        n = check_int("n", n)
        depth = check_array_size(n)
        if len(layers) != depth + 1:
            raise ValueError(f"a codebook for N={n} has {depth + 1} layers, got {len(layers)}")
        arrays = []
        for k, layer in enumerate(layers):
            arr = np.array(layer, dtype=np.complex128, order="C")
            if arr.shape != (2**k, n):
                raise ValueError(f"layer {k} has shape {arr.shape}, expected {(2**k, n)}")
            arr.setflags(write=False)
            arrays.append(arr)
        counts = tuple(active_counts(arr) for arr in arrays)
        for c in counts:
            c.setflags(write=False)
        vars(self).update(n=n, method=method, layers=tuple(arrays), active_counts=counts)

    @property
    def depth(self) -> int:
        """Index of the last layer, log2(N)."""
        return len(self.layers) - 1


def generate_deact(n: int) -> Codebook:
    """Deactivation codebook: layer k steers 2^k antennas, zeros the rest.

    Row i of layer k holds the 2^k-element steering vector at
    -1 + (2i + 1)/2^k in its leading entries, padded with zeros; the last
    layer is the shared leaf layer.
    """
    depth = check_array_size(n)
    layers = []
    for k in range(depth):
        size = 2**k
        first = np.zeros(n, dtype=np.complex128)
        first[:size] = steering_weights(size, -1.0 + 1.0 / size)
        layers.append(rotate(first, 2.0 * np.arange(2**k) / 2**k))
    layers.append(steering_matrix(n).T)
    return Codebook(n=n, method="deact", layers=tuple(layers))


def generate_bmw_ss(n: int) -> Codebook:
    """Sub-array codebook with sub-array-level deactivation.

    Layer k = log2(N) - ell is built from M = 2^floor((ell+1)/2) sub-arrays of
    N_S = N/M antennas.  The first N_A sub-arrays (N_A = M/2 for odd ell, M for
    even ell) carry ``exp(j*theta_m) * steering_weights(N_S, -1 + (2m-1)/N_S)``
    with ``theta_m = -m*pi*(N_S-1)/N_S``; the rest are zero.  The whole vector
    is rescaled to unit power and the remaining codewords of the layer are
    beam rotations of the first.  Active antenna counts are N or N/2.
    """
    depth = check_array_size(n, minimum=2)
    layers = []
    for k in range(depth):
        ell = depth - k
        m_sub = 2 ** ((ell + 1) // 2)
        n_sub = n // m_sub
        n_active_sub = m_sub if ell % 2 == 0 else m_sub // 2
        first = np.zeros(n, dtype=np.complex128)
        for m in range(1, n_active_sub + 1):
            theta_m = -m * np.pi * (n_sub - 1) / n_sub
            sub = steering_weights(n_sub, -1.0 + (2.0 * m - 1.0) / n_sub)
            first[(m - 1) * n_sub : m * n_sub] = np.exp(1j * theta_m) * sub
        first /= np.linalg.norm(first)
        layers.append(rotate(first, 2.0 * np.arange(2**k) / 2**k))
    layers.append(steering_matrix(n).T)
    return Codebook(n=n, method="bmw-ss", layers=tuple(layers))


def generate_codebook(method: str, n: int) -> Codebook:
    check_choice("method", method, METHODS)
    return generate_deact(n) if method == "deact" else generate_bmw_ss(n)


# ---------------------------------------------------------------------------
# Criteria validation
# ---------------------------------------------------------------------------


class CoverageReport(ReadOnly):
    """Both design criteria of a codebook, checked at coverage threshold ``rho``.

    ``uncovered[k]`` holds the grid points that no row of layer k covers
    (criterion 1).  ``violations[k][i]`` holds the points that parent row i of
    layer k covers and its two children do not (criterion 2).
    """

    def __init__(self, rho: float, uncovered: tuple[np.ndarray, ...],
                 violations: tuple[tuple[np.ndarray, ...], ...]) -> None:
        vars(self).update(rho=rho, uncovered=uncovered, violations=violations)

    @property
    def passed(self) -> bool:
        return not any(gap.size for gap in self.uncovered) and not any(
            points.size for parents in self.violations for points in parents
        )

    def summary_lines(self) -> list[str]:
        lines = []
        for k, gap in enumerate(self.uncovered):
            status = "pass" if gap.size == 0 else f"FAIL ({gap.size} uncovered points)"
            lines.append(f"criterion 1, layer {k}: {status}")
        for k, parents in enumerate(self.violations):
            bad = [points.size for points in parents if points.size]
            if bad:
                lines.append(
                    f"criterion 2, layer {k}: FAIL "
                    f"({len(bad)} of {len(parents)} parents, worst {max(bad)} points)"
                )
            else:
                lines.append(f"criterion 2, layer {k}: pass ({len(parents)} parents)")
        return lines


def validate_codebook(
    cb: Codebook,
    rho: float = 0.5,
    grid_points: int = DEFAULT_GRID_POINTS,
    parent_rho: float | None = None,
) -> CoverageReport:
    """Check both design criteria from one coverage FFT per layer.

    Criterion 1: each layer's rows jointly cover every grid point at ``rho``.
    Criterion 2: every parent's coverage sits inside its two children's
    union.  The children are the layer's own rows at ``rho``.  Each parent's
    claimed coverage is measured at ``parent_rho`` when given, otherwise at
    the parent's analytic coverage factor ``coverage_factor_rho(active_count)``.
    Beams of different widths carry different coverage factors, and holding
    parent and children to one common tolerant threshold would inflate the
    parent's shoulders faster than the children's; the per-beam factor is the
    threshold at which a steered beam's coverage equals its designed width.
    """
    if parent_rho is not None and not 0.0 < parent_rho < 1.0:
        raise ValueError(f"parent_rho must lie strictly between 0 and 1, got {parent_rho}")
    check_grid(grid_points, cb.n)  # refuse an oversized grid before angle_grid builds it
    points = angle_grid(grid_points)
    uncovered, violations = [], []
    for k, layer in enumerate(cb.layers):
        # Each layer's gains become two masks and are dropped before the next
        # layer's: its coverage at rho, and (for a parent layer) each row's
        # coverage at its own parent threshold.
        gains = coverage_gains(layer, grid_points)
        mask = coverage_mask(gains, rho)
        uncovered.append(points[~mask.any(axis=0)])
        if k:
            children = mask[0::2] | mask[1::2]
            violations.append(tuple(points[row] for row in parent_masks & ~children))
        if k < cb.depth:
            p_rho = parent_rho
            if p_rho is None:
                # A single active antenna radiates a flat pattern; its
                # coverage is the whole domain at any threshold below one.
                counts = cb.active_counts[k].tolist()
                factor = {c: coverage_factor_rho(c) if c > 1 else rho for c in set(counts)}
                p_rho = np.array([factor[c] for c in counts])[:, np.newaxis]
            parent_masks = gains > p_rho * gains.max(axis=-1, keepdims=True)
        del gains
    return CoverageReport(rho=rho, uncovered=tuple(uncovered), violations=tuple(violations))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def export_codebook(cb: Codebook, path) -> None:
    """Write a codebook as a self-describing text file.

    Layout::

        beamtrain-codebook-v1
        n <array size>
        method <deact|bmw-ss>
        depth <log2 n>
        codeword <layer> <index> <active_count> <re_1> <im_1> ... <re_N> <im_N>

    Weights are printed with 17 significant digits, which round-trips IEEE
    doubles exactly.
    """
    lines = [_FORMAT_TAG, f"n {cb.n}", f"method {cb.method}", f"depth {cb.depth}"]
    for k, (layer, counts) in enumerate(zip(cb.layers, cb.active_counts)):
        for i, (row, active) in enumerate(zip(layer, counts)):
            parts = [f"codeword {k} {i + 1} {active}"]
            for entry in row:
                parts.append(f"{entry.real:.17e} {entry.imag:.17e}")
            lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_codebook(path) -> Codebook:
    """Read a codebook written by :func:`export_codebook` (lossless)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != _FORMAT_TAG:
        raise ValueError(f"not a {_FORMAT_TAG} file")
    header: dict[str, str] = {}
    body_start = 1
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        if key == "codeword":
            break
        header[key] = value.strip()
        body_start += 1
    for key in ("n", "method", "depth"):
        if key not in header:
            raise ValueError(f"missing header line '{key}'")
    n = int(header["n"])
    depth = int(header["depth"])
    rows: dict[tuple[int, int], np.ndarray] = {}
    stored_counts: dict[tuple[int, int], int] = {}
    for line in lines[body_start:]:
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "codeword":
            raise ValueError(f"unexpected record {fields[0]!r}")
        if len(fields) < 4:
            raise ValueError(f"record {line!r} lacks its layer, index and active count")
        layer, index, active = int(fields[1]), int(fields[2]), int(fields[3])
        if (layer, index) in rows:
            raise ValueError(f"duplicate codeword record ({layer},{index})")
        values = np.array([float(x) for x in fields[4:]], dtype=np.float64)
        if values.size != 2 * n:
            raise ValueError(f"codeword ({layer},{index}) has {values.size // 2} weights, expected {n}")
        rows[(layer, index)] = values[0::2] + 1j * values[1::2]
        stored_counts[(layer, index)] = active
    layers = []
    for k in range(depth + 1):
        try:
            layers.append([rows.pop((k, i)) for i in range(1, 2**k + 1)])
        except KeyError as exc:
            raise ValueError(f"missing codeword {exc} in layer {k}") from exc
    if rows:
        raise ValueError("file contains extra codeword records")
    cb = Codebook(n=n, method=header["method"], layers=tuple(layers))
    for (k, index), active in stored_counts.items():
        if cb.active_counts[k][index - 1] != active:
            raise ValueError(f"codeword ({k},{index}) active_count mismatch")
    return cb
