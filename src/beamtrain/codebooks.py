"""Binary-tree hierarchical beam codebooks and their coverage validator.

Two constructions are provided for power-of-two array sizes:

* ``deact``: layer k keeps 2^k antennas active and steers them, turning the
  rest off, so beams widen as layers get coarser.
* ``bmw-ss``: beams are widened by splitting the array into sub-arrays that
  steer toward evenly spaced directions (with a phase per sub-array chosen to
  lift the crossover dips) and, on alternating layers, by deactivating half
  of the sub-arrays.  Every codeword keeps all or half of the antennas live.

Both codebooks end in the same leaf layer, ``leaf_weights(N)``: the columns
of ``steering_matrix(N)`` (steering vectors spaced 2/N apart) bit for bit, as
rows; within every other layer each codeword is a beam rotation of the first.
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
    check_coverage_grid,
    check_int,
    check_rho,
    coverage_factor_rho,
    coverage_gains,
    leaf_weights,
    rotation_phases,
    steering_weights,
)

__all__ = [
    "METHODS",
    "Codebook",
    "check_array_size",
    "check_validation",
    "generate_codebook",
    "validate_codebook",
    "CoverageReport",
    "export_codebook",
    "load_codebook",
]

_FORMAT_TAG = "beamtrain-codebook-v1"

# The built-in constructions, in the order a Monte-Carlo run compares them.
METHODS = ("bmw-ss", "deact")


def check_array_size(n: int, method: str | None = None) -> int:
    """log2(n), for an integer power of two n whose (2n - 1) x n codebook fits
    in MAX_GRID_CELLS (so n <= 4096); raises before any layer exists
    otherwise.  Given a ``method``, it first checks that it is one of METHODS,
    and then that n is at least its construction's smallest size."""
    minimum = 1
    if method is not None:
        check_choice("method", method, METHODS)
        minimum = _CONSTRUCTIONS[method][1]
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
            arr = np.asarray(layer, dtype=np.complex128, order="C")
            if arr is layer and (arr.base is not None or arr.flags.writeable):
                # The caller may still change it.  A read-only array that owns
                # its data is kept: no one changes it without unlocking it.
                arr = arr.copy()
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


def _deact_first(n: int, depth: int, k: int):
    """Layer k's first deact codeword: ``steering_weights(2^k, -1 + 1/2^k)``, zero-padded."""
    size = 2**k
    first = np.zeros(n, dtype=np.complex128)
    first[:size] = steering_weights(size, -1.0 + 1.0 / size)
    return first


def _bmw_ss_first(n: int, depth: int, k: int):
    """Layer k's first bmw-ss codeword.

    Layer k = log2(N) - ell is built from M = 2^floor((ell+1)/2) sub-arrays of
    N_S = N/M antennas.  The first N_A sub-arrays (N_A = M/2 for odd ell, M for
    even ell) carry ``exp(j*theta_m) * steering_weights(N_S, -1 + (2m-1)/N_S)``
    with ``theta_m = -m*pi*(N_S-1)/N_S``; the rest are zero.  The whole vector
    is rescaled to unit power, so active antenna counts are N or N/2.
    """
    ell = depth - k
    m_sub = 2 ** ((ell + 1) // 2)
    n_sub = n // m_sub
    n_active_sub = m_sub if ell % 2 == 0 else m_sub // 2
    m = np.arange(1, n_active_sub + 1)
    theta = -m * np.pi * (n_sub - 1) / n_sub
    subs = steering_weights(n_sub, -1.0 + (2.0 * m - 1.0) / n_sub)  # one column per sub-array
    first = np.zeros(n, dtype=np.complex128)
    first[: n_active_sub * n_sub] = (np.exp(1j * theta) * subs).T.reshape(-1)
    first /= np.linalg.norm(first)
    return first


# Each method's first codeword of layer k, and its smallest array size.
_CONSTRUCTIONS = {"deact": (_deact_first, 1), "bmw-ss": (_bmw_ss_first, 2)}


def generate_codebook(method: str, n: int) -> Codebook:
    """The ``method`` codebook for n antennas: layer k < log2(N) holds the 2^k
    rotations of the method's first codeword by 2i/2^k, then the leaf layer.

    Every rotation 2i/2^k is one of the N/2 rotations 2j/(N/2), so one table of
    their ``rotation_phases`` serves all layers: layer k takes every
    2^(log2(N)-1-k)-th row.  Both forms of each rotation are exact in floating
    point, so the rows are :func:`rotate`'s bit for bit."""
    depth = check_array_size(n, method)
    first_codeword = _CONSTRUCTIONS[method][0]
    half = n // 2
    table = rotation_phases(n, 2.0 * np.arange(half) / max(half, 1))
    layers = [first_codeword(n, depth, k) * table[:: half >> k] for k in range(depth)]
    del table  # freed before the leaves are built
    for layer in layers:
        layer.setflags(write=False)  # so the constructor keeps it uncopied
    layers.append(leaf_weights(n))
    return Codebook(n=n, method=method, layers=tuple(layers))


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


def check_validation(n: int, rho: float, grid_points: int, parent_rho: float | None) -> None:
    """Reject :func:`validate_codebook`'s arguments for an n-antenna codebook
    before the codebook or any grid-sized array need exist, in this order:
    ``parent_rho``, the grid (:func:`check_coverage_grid`), then ``rho``."""
    if parent_rho is not None and not 0.0 < parent_rho < 1.0:
        raise ValueError(f"parent_rho must lie strictly between 0 and 1, got {parent_rho}")
    check_coverage_grid(grid_points, n)
    check_rho(rho)


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

    The arguments are checked first, by :func:`check_validation`.
    """
    check_validation(cb.n, rho, grid_points, parent_rho)
    points = angle_grid(grid_points)
    uncovered, violations = [], []
    for k, layer in enumerate(cb.layers):
        # Each layer's gains become two masks and are dropped before the next
        # layer's: its coverage at rho, and (for a parent layer) each row's
        # coverage at its own parent threshold, both against the row's peak.
        gains = coverage_gains(layer, grid_points)
        peak = gains.max(axis=-1, keepdims=True)
        mask = gains > rho * peak
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
            parent_masks = gains > p_rho * peak
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
