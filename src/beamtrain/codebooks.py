"""Binary-tree hierarchical beam codebooks and their coverage validators.

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

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .arrays import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_CELLS,
    active_counts,
    angle_grid,
    coverage_factor_rho,
    coverage_gains,
    coverage_mask,
    steering_matrix,
    steering_weights,
)

__all__ = [
    "CodebookMethod",
    "Codebook",
    "check_array_size",
    "generate_codebook",
    "generate_deact",
    "generate_bmw_ss",
    "validate_criterion1",
    "validate_criterion2",
    "Criterion1Report",
    "Criterion2Report",
    "export_codebook",
    "load_codebook",
]

_FORMAT_TAG = "beamtrain-codebook-v1"


class CodebookMethod(str, Enum):
    DEACT = "deact"
    BMW_SS = "bmw-ss"


def check_array_size(n: int, minimum: int = 1) -> int:
    """log2(n), for a power of two n >= ``minimum`` whose (2n - 1) x n
    codebook fits in MAX_GRID_CELLS (so n <= 4096); raises before any layer
    exists otherwise."""
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


@dataclass(frozen=True, eq=False)
class Codebook:
    """Binary tree of codewords for an N-antenna array, N a power of two.

    ``layers[k]``, k = 0..log2(N), is a read-only C-contiguous (2^k, N)
    complex array whose row i is codeword i of layer k; its children are rows
    2i and 2i+1 of layer k+1.  The last layer holds the steering vectors at
    ``leaf_angles(N)``.  ``active_counts[k]`` holds each row's number of
    active antennas.  Files, traces and reports number codewords from 1.
    """

    n: int
    method: CodebookMethod
    layers: tuple[np.ndarray, ...]
    active_counts: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "method", CodebookMethod(self.method))
        depth = check_array_size(self.n)
        if len(self.layers) != depth + 1:
            raise ValueError(
                f"a codebook for N={self.n} has {depth + 1} layers, got {len(self.layers)}"
            )
        layers = []
        for k, layer in enumerate(self.layers):
            arr = np.array(layer, dtype=np.complex128, order="C")
            if arr.shape != (2**k, self.n):
                raise ValueError(f"layer {k} has shape {arr.shape}, expected {(2**k, self.n)}")
            arr.setflags(write=False)
            layers.append(arr)
        counts = tuple(active_counts(arr) for arr in layers)
        for c in counts:
            c.setflags(write=False)
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "active_counts", counts)

    @property
    def depth(self) -> int:
        """Index of the last layer, log2(N)."""
        return len(self.layers) - 1


def _rotated_layer(first: np.ndarray, k: int) -> np.ndarray:
    """Layer k from its first codeword: row i is ``rotate`` by psi = 2i/2^k."""
    psi = 2.0 * np.arange(2**k) / 2**k
    return first * np.exp(1j * np.pi * np.arange(first.size) * psi[:, np.newaxis])


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
        layers.append(_rotated_layer(first, k))
    layers.append(steering_matrix(n).T)
    return Codebook(n=n, method=CodebookMethod.DEACT, layers=tuple(layers))


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
        layers.append(_rotated_layer(first, k))
    layers.append(steering_matrix(n).T)
    return Codebook(n=n, method=CodebookMethod.BMW_SS, layers=tuple(layers))


def generate_codebook(method: CodebookMethod | str, n: int) -> Codebook:
    method = CodebookMethod(method)
    if method is CodebookMethod.DEACT:
        return generate_deact(n)
    return generate_bmw_ss(n)


# ---------------------------------------------------------------------------
# Criteria validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerReport:
    layer: int
    passed: bool
    uncovered: np.ndarray = field(repr=False)

    @property
    def n_uncovered(self) -> int:
        return int(self.uncovered.size)


@dataclass(frozen=True)
class Criterion1Report:
    """Per-layer full-domain coverage check."""

    rho: float
    layers: tuple[LayerReport, ...]

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.layers)

    def summary_lines(self) -> list[str]:
        lines = []
        for rep in self.layers:
            status = "pass" if rep.passed else f"FAIL ({rep.n_uncovered} uncovered points)"
            lines.append(f"criterion 1, layer {rep.layer}: {status}")
        return lines


@dataclass(frozen=True)
class ParentReport:
    layer: int
    index: int
    passed: bool
    violations: np.ndarray = field(repr=False)

    @property
    def n_violations(self) -> int:
        return int(self.violations.size)


@dataclass(frozen=True)
class Criterion2Report:
    """Per-parent check that the children's coverage contains the parent's."""

    rho: float
    parents: tuple[ParentReport, ...]

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.parents)

    def summary_lines(self) -> list[str]:
        lines = []
        by_layer: dict[int, list[ParentReport]] = {}
        for rep in self.parents:
            by_layer.setdefault(rep.layer, []).append(rep)
        for layer, reps in sorted(by_layer.items()):
            bad = [rep for rep in reps if not rep.passed]
            if bad:
                worst = max(rep.n_violations for rep in bad)
                lines.append(
                    f"criterion 2, layer {layer}: FAIL "
                    f"({len(bad)} of {len(reps)} parents, worst {worst} points)"
                )
            else:
                lines.append(f"criterion 2, layer {layer}: pass ({len(reps)} parents)")
        return lines


def validate_criterion1(
    cb: Codebook, rho: float = 0.5, grid_points: int = DEFAULT_GRID_POINTS
) -> Criterion1Report:
    """Check that each layer's codewords jointly cover every grid point."""
    unions = [
        coverage_mask(coverage_gains(layer, grid_points), rho).any(axis=0) for layer in cb.layers
    ]
    points = angle_grid(grid_points)
    reports = []
    for k, union in enumerate(unions):
        uncovered = points[~union]
        reports.append(LayerReport(layer=k, passed=uncovered.size == 0, uncovered=uncovered))
    return Criterion1Report(rho=rho, layers=tuple(reports))


def validate_criterion2(
    cb: Codebook,
    rho: float = 0.5,
    grid_points: int = DEFAULT_GRID_POINTS,
    parent_rho: float | None = None,
) -> Criterion2Report:
    """Check that every parent's coverage sits inside its children's union.

    The children are measured at the tolerant threshold ``rho``.  Each
    parent's own claimed coverage is measured at ``parent_rho`` when given,
    otherwise at the parent's analytic coverage factor
    ``coverage_factor_rho(active_count)``.  Beams of different widths carry
    different coverage factors, and holding parent and children to one common
    tolerant threshold would inflate the parent's shoulders faster than the
    children's; the per-beam factor is the threshold at which a steered
    beam's coverage equals its designed width.
    """
    parent_gains = coverage_gains(cb.layers[0], grid_points)
    points = angle_grid(grid_points)
    reports = []
    for k in range(cb.depth):
        child_gains = coverage_gains(cb.layers[k + 1], grid_points)
        child_mask = coverage_mask(child_gains, rho)
        for i, (active, gains) in enumerate(zip(cb.active_counts[k], parent_gains)):
            if parent_rho is not None:
                p_rho = parent_rho
            elif active > 1:
                p_rho = coverage_factor_rho(int(active))
            else:
                # A single active antenna radiates a flat pattern; its
                # coverage is the whole domain at any threshold below one.
                p_rho = rho
            union = child_mask[2 * i] | child_mask[2 * i + 1]
            violations = points[coverage_mask(gains, p_rho) & ~union]
            reports.append(
                ParentReport(
                    layer=k, index=i + 1, passed=violations.size == 0, violations=violations
                )
            )
        parent_gains = child_gains
    return Criterion2Report(rho=rho, parents=tuple(reports))


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
    lines = [_FORMAT_TAG, f"n {cb.n}", f"method {cb.method.value}", f"depth {cb.depth}"]
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
    method = CodebookMethod(header["method"])
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
    cb = Codebook(n=n, method=method, layers=tuple(layers))
    for (k, index), active in stored_counts.items():
        if cb.active_counts[k][index - 1] != active:
            raise ValueError(f"codeword ({k},{index}) active_count mismatch")
    return cb
