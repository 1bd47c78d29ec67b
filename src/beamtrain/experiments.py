"""Monte-Carlo harness: beam-pattern export, per-step received power, and
success-rate sweeps, with deterministic seeding and CSV emission.

Every channel realization owns an RNG stream derived from the base seed and
the realization's coordinates, so results are a pure function of the
configuration and seed, independent of worker count and execution order.
Within one realization the competing codebook methods share the channel and
the noise stream, which makes their searches directly comparable.

Monte-Carlo runs walk their realizations in blocks, each searched in
lockstep by :func:`~beamtrain.search.lockstep_search`; a block holds at most
``MAX_BLOCK_CELLS`` float64 cells of noise and path responses, and results do
not depend on the block size.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .arrays import (
    DEFAULT_GRID_POINTS,
    MAX_BLOCK_CELLS,
    MAX_GRID_CELLS,
    angle_grid,
    beam_gain,
    check_grid,
)
from .channels import ChannelKind, ChannelParams, draw_paths
from .codebooks import Codebook, CodebookMethod, check_array_size, generate_codebook
from .search import (
    AdjudicationPolicy,
    PowerMode,
    PowerModel,
    PathBlock,
    lockstep_adjudicate,
    lockstep_exhaustive,
    lockstep_search,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_beam_patterns",
    "run_received_power",
    "run_success_rate",
    "draw_realization",
    "POWER_COLUMNS",
    "SUCCESS_COLUMNS",
    "DEFAULT_PATTERN_CODEWORDS",
]

POWER_COLUMNS = (
    "step",
    "method",
    "channel",
    "mean_power_w",
    "mean_power_db",
    "stderr_db",
    "bound_db",
)

SUCCESS_COLUMNS = ("snr_db", "method", "policy", "success", "stderr")

DEFAULT_PATTERN_CODEWORDS = ((2, 1), (2, 2), (1, 1), (1, 2), (0, 1))

POLICY_ORDER = (
    AdjudicationPolicy.MATCH_EXHAUSTIVE,
    AdjudicationPolicy.ALIGN_ANY_MPC,
    AdjudicationPolicy.ALIGN_STRONGEST,
)

# Stable per-kind ids so channel draws do not depend on which kinds a run asks for.
_KIND_ID = {ChannelKind.LOS: 0, ChannelKind.NLOS: 1}

_DEFAULT_SNR_GRID = tuple(float(x) for x in range(0, 45, 5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the Monte-Carlo entry points.

    ``channel`` accepts ``los``, ``nlos``, or ``both`` (received-power runs
    only).  ``snr_db`` is the sweep grid for success-rate runs; received-power
    runs use a single fixed SNR.  The transmit power is pinned at one watt and
    the noise floor is derived from the SNR.
    """

    n_tx: int = 64
    n_rx: int = 64
    methods: tuple[str, ...] = (CodebookMethod.BMW_SS.value, CodebookMethod.DEACT.value)
    channel: str = "nlos"
    n_paths: int = 3
    eta_db: float = 15.0
    power_mode: str = PowerMode.TOTAL.value
    snr_db: tuple[float, ...] = _DEFAULT_SNR_GRID
    realizations: int = 1000
    seed: int = 1
    jobs: int = 1
    n_steps: int = field(init=False, repr=False)  # search stages, log2(N_tx * N_rx)

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(CodebookMethod(m).value for m in self.methods))
        object.__setattr__(self, "power_mode", PowerMode(self.power_mode).value)
        object.__setattr__(self, "snr_db", tuple(float(x) for x in self.snr_db))
        if self.n_tx < 2 or self.n_rx < 2:
            raise ValueError("n_tx and n_rx must be at least 2: a search needs one stage")
        object.__setattr__(self, "n_steps", check_array_size(self.n_tx) + check_array_size(self.n_rx))
        if not self.methods:
            raise ValueError("need at least one codebook method")
        if self.channel not in ("los", "nlos", "both"):
            raise ValueError("channel must be los, nlos, or both")
        snr = self.snr_db
        ascending = all(b > a for a, b in zip(snr, snr[1:]))
        if not snr or not ascending or not all(map(math.isfinite, snr)):
            raise ValueError("snr_db must be non-empty, finite and strictly ascending")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # The larger of the arrays a run fills up front: success flags per SNR
        # point and policy, or winner powers per channel kind and step.
        cells = self.realizations * len(self.methods) * max(
            len(self.snr_db) * len(POLICY_ORDER), len(self.kinds) * self.n_steps
        )
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"{self.realizations} realizations make a result array of {cells} cells; "
                f"at most {MAX_GRID_CELLS}"
            )
        for kind in self.kinds:
            self.channel_params(kind)  # checks the path count and eta_db up front
        for snr_db in self.snr_db:
            self.power_model(snr_db)  # checks each noise floor is finite up front

    @property
    def kinds(self) -> tuple[ChannelKind, ...]:
        if self.channel == "both":
            return (ChannelKind.LOS, ChannelKind.NLOS)
        return (ChannelKind(self.channel),)

    def power_model(self, snr_db: float) -> PowerModel:
        return PowerModel.from_snr_db(self.power_mode, snr_db)

    def channel_params(self, kind: ChannelKind) -> ChannelParams:
        return ChannelParams(
            n_tx=self.n_tx,
            n_rx=self.n_rx,
            n_paths=self.n_paths,
            kind=kind,
            eta_db=self.eta_db,
        )


@dataclass
class ExperimentResult:
    """Tabular result plus structured aggregates.

    ``rows`` hold plain Python scalars in a stable order; ``stats`` carries
    the same numbers as arrays keyed for programmatic use; ``meta`` records
    runtime information that never enters the CSV.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    stats: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(cell) for cell in row])


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else -math.inf


def _codebook_pairs(cfg: ExperimentConfig) -> list[tuple[Codebook, Codebook]]:
    pairs = []
    for method in cfg.methods:
        cb_tx = generate_codebook(method, cfg.n_tx)
        cb_rx = cb_tx if cfg.n_rx == cfg.n_tx else generate_codebook(method, cfg.n_rx)
        pairs.append((cb_tx, cb_rx))
    return pairs


def _chunks(total: int, jobs: int) -> list[tuple[int, int]]:
    n_chunks = min(total, jobs * 4) if jobs > 1 else 1
    bounds = np.linspace(0, total, n_chunks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_chunked(worker, cfg: ExperimentConfig, out_arrays: tuple[np.ndarray, ...]) -> None:
    spans = _chunks(cfg.realizations, cfg.jobs)
    if cfg.jobs == 1:
        parts = [worker((cfg, start, stop)) for start, stop in spans]
    else:
        # The pool starts every worker up front: no more than chunks or cores.
        max_workers = min(cfg.jobs, len(spans), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(worker, [(cfg, start, stop) for start, stop in spans]))
    for (start, stop), chunk in zip(spans, parts):
        for dest, src in zip(out_arrays, chunk):
            dest[start:stop] = src


def draw_realization(
    cfg: ExperimentConfig, kind: ChannelKind, entropy: tuple[int, ...]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.random.SeedSequence]:
    """The stream contract of one realization: ``SeedSequence(entropy)`` spawns
    two children; the first draws the paths (:func:`draw_paths`), the second
    seeds the search noise, which every method reuses.  Returns the paths
    ``(coeff, omega, psi)`` and the noise seed.

    The noise is one ``standard_normal(4 * n_rx * n_steps)`` call from
    ``default_rng(noise_seed)``, read as (stage, child, re/im, n_rx): the
    draws that :func:`~beamtrain.search.measure` makes in turn."""
    channel_ss, noise_ss = np.random.SeedSequence(entropy=entropy).spawn(2)
    return draw_paths(cfg.channel_params(kind), np.random.default_rng(channel_ss)), noise_ss


def _blocks(cfg: ExperimentConfig, start: int, stop: int) -> list[tuple[int, int]]:
    """Realizations start..stop-1 in blocks whose noise and path responses
    fit MAX_BLOCK_CELLS float64 cells (one realization at least)."""
    cells = 4 * cfg.n_rx * cfg.n_steps + 2 * cfg.n_paths * (cfg.n_tx + cfg.n_rx)
    size = max(1, MAX_BLOCK_CELLS // cells)
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _draw_block(
    cfg: ExperimentConfig, kind: ChannelKind, entropies
) -> tuple[PathBlock, list[np.random.SeedSequence]]:
    """The paths of a block's realizations and their noise seeds."""
    drawn = [draw_realization(cfg, kind, entropy) for entropy in entropies]
    coeff, omega, psi = (np.stack(column) for column in zip(*(p for p, _ in drawn)))
    return PathBlock(coeff, omega, psi, cfg.n_tx, cfg.n_rx), [ss for _, ss in drawn]


def _noise_block(cfg: ExperimentConfig, seeds) -> np.ndarray:
    """Each seed's noise draws (see :func:`draw_realization`), (B, n_steps,
    2, 2, n_rx)."""
    noise = np.empty((len(seeds), cfg.n_steps, 2, 2, cfg.n_rx))
    for row, noise_ss in zip(noise, seeds):
        np.random.default_rng(noise_ss).standard_normal(out=row.reshape(-1))
    return noise


# ---------------------------------------------------------------------------
# Received power per search step
# ---------------------------------------------------------------------------


def _power_block(cfg: ExperimentConfig, kind: ChannelKind, pairs, pm: PowerModel, entropies):
    """Exhaustive bounds (B,) and per-method winner powers (B, methods,
    n_steps) of one block."""
    block, seeds = _draw_block(cfg, kind, entropies)
    _, bound_gains = lockstep_exhaustive(block, pm)
    noise = _noise_block(cfg, seeds)  # after the oracle's N x N temporaries
    winners = np.stack(
        [lockstep_search(cb_tx, cb_rx, block, pm, noise).gains for cb_tx, cb_rx in pairs],
        axis=1,
    )
    return pm.power * bound_gains, pm.power * winners


def _power_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    cfg, start, stop = args
    kinds = cfg.kinds
    pairs = _codebook_pairs(cfg)
    pm = cfg.power_model(cfg.snr_db[0])
    winners = np.empty((stop - start, len(kinds), len(pairs), cfg.n_steps))
    bounds = np.empty((stop - start, len(kinds)))
    for ki, kind in enumerate(kinds):
        for lo, hi in _blocks(cfg, start, stop):
            entropies = [(cfg.seed, _KIND_ID[kind], r) for r in range(lo, hi)]
            rows = slice(lo - start, hi - start)
            bounds[rows, ki], winners[rows, ki] = _power_block(cfg, kind, pairs, pm, entropies)
    return winners, bounds


def run_received_power(cfg: ExperimentConfig) -> ExperimentResult:
    """Average the per-stage winner's noiseless received power over channel
    realizations, for every configured method and channel kind, alongside the
    exhaustive-search upper bound.

    The run uses the single SNR point in ``cfg.snr_db`` (one-watt transmit
    power).  Rows are ordered by channel kind, then method, then step.
    """
    if len(cfg.snr_db) != 1:
        raise ValueError("received-power runs use exactly one SNR point")
    t0 = time.monotonic()
    kinds = cfg.kinds
    winners = np.empty((cfg.realizations, len(kinds), len(cfg.methods), cfg.n_steps))
    bounds = np.empty((cfg.realizations, len(kinds)))
    _run_chunked(_power_chunk, cfg, (winners, bounds))

    rows: list[tuple] = []
    stats: dict = {"bound_db": {}, "bound_w": {}, "power": {}}
    for ki, kind in enumerate(kinds):
        bound_w = float(np.mean(bounds[:, ki]))
        bound_db = _db(bound_w)
        stats["bound_w"][kind.value] = bound_w
        stats["bound_db"][kind.value] = bound_db
        for mi, method in enumerate(cfg.methods):
            samples = winners[:, ki, mi, :]
            mean_w = np.mean(samples, axis=0)
            mean_db = np.array([_db(x) for x in mean_w])
            stderr_db = np.array(
                [
                    (10.0 / math.log(10.0)) * _stderr(samples[:, s]) / mean_w[s]
                    for s in range(cfg.n_steps)
                ]
            )
            stats["power"][(kind.value, method)] = {
                "mean_power_w": mean_w,
                "mean_power_db": mean_db,
                "stderr_db": stderr_db,
            }
            for s in range(cfg.n_steps):
                rows.append(
                    (
                        s + 1,
                        method,
                        kind.value,
                        float(mean_w[s]),
                        float(mean_db[s]),
                        float(stderr_db[s]),
                        bound_db,
                    )
                )
    meta = {
        "elapsed_s": time.monotonic() - t0,
        "realizations": cfg.realizations,
        "seed": cfg.seed,
        "snr_db": cfg.snr_db[0],
        "power_mode": cfg.power_mode,
    }
    return ExperimentResult(columns=POWER_COLUMNS, rows=rows, stats=stats, meta=meta)


# ---------------------------------------------------------------------------
# Success rate over an SNR sweep
# ---------------------------------------------------------------------------


def _success_block(cfg: ExperimentConfig, kind: ChannelKind, pairs, pm: PowerModel, entropies):
    """Success flags of one block, (B, methods, policies)."""
    block, seeds = _draw_block(cfg, kind, entropies)
    best_pairs, _ = lockstep_exhaustive(block, pm)
    noise = _noise_block(cfg, seeds)  # after the oracle's N x N temporaries
    flags = np.empty((len(entropies), len(pairs), len(POLICY_ORDER)), dtype=bool)
    for mi, (cb_tx, cb_rx) in enumerate(pairs):
        found = lockstep_search(cb_tx, cb_rx, block, pm, noise).pairs
        for pi, policy in enumerate(POLICY_ORDER):
            flags[:, mi, pi] = lockstep_adjudicate(found, block, policy, best_pairs)
    return flags


def _success_chunk(args) -> tuple[np.ndarray]:
    cfg, start, stop = args
    kind = cfg.kinds[0]
    pairs = _codebook_pairs(cfg)
    flags = np.empty(
        (stop - start, len(cfg.snr_db), len(pairs), len(POLICY_ORDER)), dtype=bool
    )
    for si, snr_db in enumerate(cfg.snr_db):
        pm = cfg.power_model(snr_db)
        for lo, hi in _blocks(cfg, start, stop):
            entropies = [(cfg.seed, _KIND_ID[kind], si, r) for r in range(lo, hi)]
            flags[lo - start : hi - start, si] = _success_block(cfg, kind, pairs, pm, entropies)
    return (flags,)


def run_success_rate(cfg: ExperimentConfig) -> ExperimentResult:
    """Fraction of realizations adjudicated successful, per SNR point, method,
    and adjudication policy (all three policies are reported; pick
    ``align-strongest`` for dominant-path channels and ``align-any-mpc`` for
    diffuse ones).  Rows are ordered by SNR, then method, then policy.
    """
    if cfg.channel == "both":
        raise ValueError("success-rate runs use a single channel kind")
    t0 = time.monotonic()
    flags = np.empty(
        (cfg.realizations, len(cfg.snr_db), len(cfg.methods), len(POLICY_ORDER)),
        dtype=bool,
    )
    _run_chunked(_success_chunk, cfg, (flags,))

    rows: list[tuple] = []
    stats: dict = {"snr_db": np.array(cfg.snr_db), "success": {}, "stderr": {}}
    for mi, method in enumerate(cfg.methods):
        for pi, policy in enumerate(POLICY_ORDER):
            vals = flags[:, :, mi, pi].astype(float)
            rate = np.mean(vals, axis=0)
            se = np.array([_stderr(vals[:, si]) for si in range(len(cfg.snr_db))])
            stats["success"][(method, policy.value)] = rate
            stats["stderr"][(method, policy.value)] = se
    for si, snr_db in enumerate(cfg.snr_db):
        for method in cfg.methods:
            for policy in POLICY_ORDER:
                rows.append(
                    (
                        float(snr_db),
                        method,
                        policy.value,
                        float(stats["success"][(method, policy.value)][si]),
                        float(stats["stderr"][(method, policy.value)][si]),
                    )
                )
    meta = {
        "elapsed_s": time.monotonic() - t0,
        "realizations": cfg.realizations,
        "seed": cfg.seed,
        "channel": cfg.channel,
        "power_mode": cfg.power_mode,
    }
    return ExperimentResult(columns=SUCCESS_COLUMNS, rows=rows, stats=stats, meta=meta)


# ---------------------------------------------------------------------------
# Beam patterns
# ---------------------------------------------------------------------------


_DB_FLOOR = 1e-9  # linear floor before taking logs, keeps nulls finite


def run_beam_patterns(
    method: CodebookMethod | str,
    n: int,
    codewords=DEFAULT_PATTERN_CODEWORDS,
    grid_points: int = DEFAULT_GRID_POINTS,
    per_antenna: bool = False,
) -> ExperimentResult:
    """Tabulate |A(w, omega)| over ``angle_grid(grid_points)`` for selected
    codewords.

    ``codewords`` is a sequence of (layer, index) pairs.  With
    ``per_antenna=True`` the weights are rescaled so every active antenna has
    unit amplitude, which compares codewords by radiated power rather than at
    unit total power.  Columns come in (linear, dB) pairs per codeword.
    """
    check_grid(grid_points, n)  # the gains make an M x N phase matrix
    omega = angle_grid(grid_points)
    cb = generate_codebook(method, n)
    columns: list[str] = ["omega"]
    profiles: list[np.ndarray] = []
    labels: list[str] = []
    for layer, index in codewords:
        if not 0 <= layer <= cb.depth or not 1 <= index <= 2**layer:
            raise ValueError(f"no codeword at layer {layer}, index {index}")
        weights = cb.layers[layer][index - 1]
        if per_antenna:
            weights = weights * math.sqrt(cb.active_counts[layer][index - 1])
        gains = np.abs(beam_gain(weights, omega))
        label = f"a_{layer}_{index}"
        labels.append(label)
        columns.extend([label, f"{label}_db"])
        profiles.append(gains)
    rows = []
    for gi, point in enumerate(omega):
        row: list = [float(point)]
        for gains in profiles:
            lin = float(gains[gi])
            row.extend([lin, 20.0 * math.log10(max(lin, _DB_FLOOR))])
        rows.append(tuple(row))
    stats = {"labels": labels, "gains": dict(zip(labels, profiles)), "omega": omega}
    meta = {"method": CodebookMethod(method).value, "n": n, "per_antenna": per_antenna}
    return ExperimentResult(columns=tuple(columns), rows=rows, stats=stats, meta=meta)
