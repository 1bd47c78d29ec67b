"""Monte-Carlo harness: beam-pattern export, per-step received power, success-rate
sweeps and the search demo's trace, with deterministic seeding and CSV emission.

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

import numpy as np

from .arrays import (
    DEFAULT_GRID_POINTS,
    MAX_BLOCK_CELLS,
    MAX_GRID_CELLS,
    ReadOnly,
    angle_grid,
    beam_gain,
    check_choice,
    check_grid,
    check_int,
)
from .channels import KINDS, ChannelParams, draw_paths
from .codebooks import METHODS, Codebook, check_array_size, generate_codebook
from .search import (
    POLICIES,
    POWER_MODES,
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
    "run_search",
    "POWER_COLUMNS",
    "SUCCESS_COLUMNS",
    "TRACE_COLUMNS",
    "DEFAULT_PATTERN_CODEWORDS",
    "DEFAULT_SNR_GRID",
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

# Per search stage: the 1-based candidates measured, the one kept, its |y|^2 and noiseless gain.
TRACE_COLUMNS = (
    "stage", "side", "candidate_1", "candidate_2", "winner", "y_power", "noiseless_gain",
)

DEFAULT_PATTERN_CODEWORDS = ((2, 1), (2, 2), (1, 1), (1, 2), (0, 1))

# Stable per-kind ids so channel draws do not depend on which kinds a run asks for.
_KIND_ID = {"los": 0, "nlos": 1}

DEFAULT_SNR_GRID = tuple(float(x) for x in range(0, 45, 5))


class ExperimentConfig(ReadOnly):
    """Configuration shared by the Monte-Carlo entry points.

    ``channel`` accepts ``los``, ``nlos``, or ``both`` (received-power runs
    only).  ``snr_db`` is the sweep grid for success-rate runs; received-power
    runs use a single fixed SNR.  The transmit power is pinned at one watt and
    the noise floor is derived from the SNR.  ``n_steps`` is the number of
    search stages, log2(N_tx * N_rx).
    """

    def __init__(
        self,
        n_tx: int = 64,
        n_rx: int = 64,
        methods: tuple[str, ...] = METHODS,
        channel: str = "nlos",
        n_paths: int = 3,
        eta_db: float = 15.0,
        power_mode: str = "total",
        snr_db: tuple[float, ...] = DEFAULT_SNR_GRID,
        realizations: int = 1000,
        seed: int = 1,
        jobs: int = 1,
    ) -> None:
        # Types first: a bare str would split into characters, a float count truncate.
        if isinstance(methods, str) or not np.iterable(methods):
            raise ValueError(f"methods must be a sequence of method names, got {methods!r}")
        if isinstance(snr_db, str) or not np.iterable(snr_db):
            raise ValueError(f"snr_db must be a sequence of numbers, got {snr_db!r}")
        n_tx, n_rx = check_int("n_tx", n_tx), check_int("n_rx", n_rx)
        n_paths = check_int("n_paths", n_paths)
        realizations = check_int("realizations", realizations)
        seed, jobs = check_int("seed", seed), check_int("jobs", jobs)
        methods = tuple(methods)
        for method in methods:
            check_choice("method", method, METHODS)
        if len(set(methods)) < len(methods):
            raise ValueError(f"methods must not repeat, got {','.join(methods)}")
        check_choice("power_mode", power_mode, POWER_MODES)
        snr = tuple(float(x) for x in snr_db)
        if n_tx < 2 or n_rx < 2:
            raise ValueError("n_tx and n_rx must be at least 2: a search needs one stage")
        n_steps = check_array_size(n_tx) + check_array_size(n_rx)
        if not methods:
            raise ValueError("need at least one codebook method")
        check_choice("channel", channel, (*KINDS, "both"))
        ascending = all(b > a for a, b in zip(snr, snr[1:]))
        if not snr or not ascending or not all(map(math.isfinite, snr)):
            raise ValueError("snr_db must be non-empty, finite and strictly ascending")
        if realizations < 1:
            raise ValueError("need at least one realization")
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        vars(self).update(
            n_tx=n_tx, n_rx=n_rx, methods=methods, channel=channel, n_paths=n_paths,
            eta_db=eta_db, power_mode=power_mode, snr_db=snr, realizations=realizations,
            seed=seed, jobs=jobs, n_steps=n_steps,
        )
        # The larger of a run's result arrays: success flags per SNR point and
        # policy, or winner powers per channel kind and step.
        cells = realizations * len(methods) * max(
            len(snr) * len(POLICIES), len(self.kinds) * n_steps
        )
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"{realizations} realizations make a result array of {cells} cells; "
                f"at most {MAX_GRID_CELLS}"
            )
        # ChannelParams per kind; building them checks the path count and eta_db up front.
        vars(self)["_params"] = {
            kind: ChannelParams(n_tx, n_rx, n_paths, kind, eta_db) for kind in self.kinds
        }
        for x in snr:
            self.power_model(x)  # checks each noise floor is finite up front

    @property
    def kinds(self) -> tuple[str, ...]:
        return KINDS if self.channel == "both" else (self.channel,)

    def power_model(self, snr_db: float) -> PowerModel:
        return PowerModel.from_snr_db(self.power_mode, snr_db)

    def channel_params(self, kind: str) -> ChannelParams:
        return self._params[kind]


class ExperimentResult:
    """Tabular result plus structured aggregates.

    ``rows`` hold plain Python scalars in a stable order; ``stats`` carries
    the same numbers as arrays keyed for programmatic use; ``meta`` holds a
    Monte-Carlo run's ``elapsed_s``, which never enters the CSV.
    """

    __slots__ = ("columns", "rows", "stats", "meta")

    def __init__(self, columns: tuple[str, ...], rows: list[tuple],
                 stats: dict | None = None, meta: dict | None = None) -> None:
        self.columns, self.rows = columns, rows
        self.stats = {} if stats is None else stats
        self.meta = {} if meta is None else meta

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows(self.rows)


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


def _blocks(cfg: ExperimentConfig, start: int, stop: int) -> list[tuple[int, int]]:
    """Realizations start..stop-1 in blocks whose noise and path responses
    fit MAX_BLOCK_CELLS float64 cells (one realization at least)."""
    cells = 4 * cfg.n_rx * cfg.n_steps + 2 * cfg.n_paths * (cfg.n_tx + cfg.n_rx)
    size = max(1, MAX_BLOCK_CELLS // cells)
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


def _spawned_states(entropies) -> tuple[list, list]:
    """The PCG64 ``(state, inc)`` of the two children of each entropy's
    ``SeedSequence(entropy).spawn(2)``, by NumPy's seeding arithmetic run on a
    whole block at once.  As in NumPy, each int becomes its 32-bit words, low
    first (a 0 is one word), padded with zeros to the pool's 4 words before
    the spawn key 0 or 1; uint32 arrays wrap as NumPy's arithmetic does."""
    words = [
        [x >> s & 0xFFFFFFFF for x in entropy for s in range(0, x.bit_length() or 1, 32)]
        for entropy in entropies
    ]
    keyed = [row + [0] * (4 - len(row)) + [key] for key in (0, 1) for row in words]
    length = np.array(list(map(len, keyed)))  # a row mixes in only its own words
    width = int(length.max())
    columns = list(np.array([row + [0] * (width - len(row)) for row in keyed], np.uint32).T)
    const = [0x43B0D7E5, 0x931E8875]  # the hash constant and its multiplier

    def hashmix(value):
        value, const[0] = value ^ const[0], const[0] * const[1] & 0xFFFFFFFF
        value = value * const[0]
        return value ^ value >> 16

    # Hash 4 words into the pool; mix each pool word into the 3 others, each later word into all 4.
    pool = list(map(hashmix, columns[:4])) + columns[4:]
    for src, dst in [(s, d) for s in range(len(columns)) for d in range(4) if s != d]:
        mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
        pool[dst] = np.where(src < length, mixed ^ mixed >> 16, pool[dst])
    const[:] = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64): 8 words, little-endian
    w = np.array(list(map(hashmix, pool[:4] * 2))).astype(object)  # as Python ints
    w = w[0::2] | w[1::2] << 32
    inc = (w[2] << 65 | w[3] << 1 | 1) % 2**128  # PCG64's srandom: two LCG steps from 0
    state = ((inc + (w[0] << 64 | w[1])) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128
    states = list(zip(state.tolist(), inc.tolist()))
    return states[: len(entropies)], states[len(entropies) :]


def _streams(states):
    """One generator, set to each PCG64 ``(state, inc)`` in turn."""
    rng = np.random.Generator(np.random.PCG64())  # its own seed is never drawn from
    for state, inc in states:
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def _draw_block(cfg: ExperimentConfig, kind: str, entropies) -> tuple[PathBlock, list]:
    """The stream contract of one realization: ``SeedSequence(entropy)`` spawns
    two children; the first draws the paths (:func:`draw_paths`), the second
    seeds the search noise, which every method reuses.  Returns a block's
    paths and its noise streams, each seeded as NumPy seeds that child.

    The noise is one ``standard_normal(4 * n_rx * n_steps)`` call from
    ``default_rng(noise_seed)``, read as (stage, child, re/im, n_rx): per
    stage and candidate (lower child first), the real then the imaginary
    parts of the receive noise."""
    channel, noise = _spawned_states(entropies)
    paths = [draw_paths(cfg.channel_params(kind), rng) for rng in _streams(channel)]
    coeff, omega, psi = (np.stack(column) for column in zip(*paths))
    return PathBlock(coeff, omega, psi, cfg.n_tx, cfg.n_rx), noise


def _noise_block(cfg: ExperimentConfig, seeds) -> np.ndarray:
    """Each noise stream's draws (see :func:`_draw_block`), (B, n_steps, 2, 2, n_rx)."""
    noise = np.empty((len(seeds), cfg.n_steps, 2, 2, cfg.n_rx))
    for row, rng in zip(noise, _streams(seeds)):
        rng.standard_normal(out=row.reshape(-1))
    return noise


def _search_block(cfg: ExperimentConfig, kind: str, pairs, pm: PowerModel, entropies):
    """One block of realizations, one per entropy: its paths, the noiseless
    oracle's (pairs, gains), and one lockstep search per codebook pair."""
    block, seeds = _draw_block(cfg, kind, entropies)
    oracle = lockstep_exhaustive(block, pm)
    noise = _noise_block(cfg, seeds)  # after the oracle's N x N temporaries
    return block, oracle, [lockstep_search(*pair, block, pm, noise) for pair in pairs]


def _chunk(args) -> list[np.ndarray]:
    """Realizations start..stop-1 of every (kind, power model, entropy prefix)
    cell, each block reduced to arrays by ``reduce``; each array stacks the
    cells on axis 1."""
    cfg, cells, reduce, start, stop = args
    pairs = _codebook_pairs(cfg)
    per_cell = []
    for kind, pm, prefix in cells:
        blocks = []
        for lo, hi in _blocks(cfg, start, stop):
            entropies = [(*prefix, r) for r in range(lo, hi)]
            blocks.append(reduce(*_search_block(cfg, kind, pairs, pm, entropies)))
        per_cell.append([np.concatenate(part) for part in zip(*blocks)])
    return [np.stack(part, axis=1) for part in zip(*per_cell)]


def _run_chunked(cfg: ExperimentConfig, cells, reduce) -> list[np.ndarray]:
    """The run's :func:`_chunk` arrays over all its realizations, which the
    pool splits into chunks when ``cfg.jobs`` > 1."""
    spans = _chunks(cfg.realizations, cfg.jobs)
    tasks = [(cfg, cells, reduce, start, stop) for start, stop in spans]
    # The pool starts every worker up front: no more than chunks or cores.
    max_workers = min(cfg.jobs, len(spans), os.cpu_count() or 1)
    if max_workers == 1:
        parts = list(map(_chunk, tasks))
    else:
        # Imported here so that a one-worker run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            parts = list(pool.map(_chunk, tasks))
    return [np.concatenate(part) for part in zip(*parts)]


# ---------------------------------------------------------------------------
# Received power per search step
# ---------------------------------------------------------------------------


def _power_reduce(block, oracle, outcomes):
    """Exhaustive bounds (B,) and per-method winner powers (B, methods, n_steps)."""
    return oracle[1], np.stack([out.gains for out in outcomes], axis=1)


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
    pm = cfg.power_model(cfg.snr_db[0])
    cells = [(kind, pm, (cfg.seed, _KIND_ID[kind])) for kind in kinds]
    bounds, winners = _run_chunked(cfg, cells, _power_reduce)

    rows: list[tuple] = []
    stats: dict = {"bound_db": {}, "bound_w": {}, "power": {}}
    for ki, kind in enumerate(kinds):
        bound_w = float(np.mean(bounds[:, ki]))
        bound_db = _db(bound_w)
        stats["bound_w"][kind] = bound_w
        stats["bound_db"][kind] = bound_db
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
            stats["power"][(kind, method)] = {
                "mean_power_w": mean_w,
                "mean_power_db": mean_db,
                "stderr_db": stderr_db,
            }
            for s in range(cfg.n_steps):
                rows.append(
                    (
                        s + 1,
                        method,
                        kind,
                        float(mean_w[s]),
                        float(mean_db[s]),
                        float(stderr_db[s]),
                        bound_db,
                    )
                )
    meta = {"elapsed_s": time.monotonic() - t0}
    return ExperimentResult(columns=POWER_COLUMNS, rows=rows, stats=stats, meta=meta)


# ---------------------------------------------------------------------------
# Success rate over an SNR sweep
# ---------------------------------------------------------------------------


def _success_reduce(block, oracle, outcomes):
    """Success flags (B, methods, policies)."""
    pairs = np.stack([out.pairs for out in outcomes], axis=1)
    return (lockstep_adjudicate(pairs, block, oracle[0]),)


def run_success_rate(cfg: ExperimentConfig) -> ExperimentResult:
    """Fraction of realizations adjudicated successful, per SNR point, method,
    and adjudication policy (all three policies are reported; pick
    ``align-strongest`` for dominant-path channels and ``align-any-mpc`` for
    diffuse ones).  Rows are ordered by SNR, then method, then policy.
    """
    if cfg.channel == "both":
        raise ValueError("success-rate runs use a single channel kind")
    t0 = time.monotonic()
    kind = cfg.kinds[0]
    cells = [
        (kind, cfg.power_model(snr_db), (cfg.seed, _KIND_ID[kind], si))
        for si, snr_db in enumerate(cfg.snr_db)
    ]
    (flags,) = _run_chunked(cfg, cells, _success_reduce)

    rows: list[tuple] = []
    stats: dict = {"success": {}, "stderr": {}}
    for mi, method in enumerate(cfg.methods):
        for pi, policy in enumerate(POLICIES):
            vals = flags[:, :, mi, pi].astype(float)
            rate = np.mean(vals, axis=0)
            se = np.array([_stderr(vals[:, si]) for si in range(len(cfg.snr_db))])
            stats["success"][(method, policy)] = rate
            stats["stderr"][(method, policy)] = se
    for si, snr_db in enumerate(cfg.snr_db):
        for method in cfg.methods:
            for policy in POLICIES:
                rows.append(
                    (
                        float(snr_db),
                        method,
                        policy,
                        float(stats["success"][(method, policy)][si]),
                        float(stats["stderr"][(method, policy)][si]),
                    )
                )
    meta = {"elapsed_s": time.monotonic() - t0}
    return ExperimentResult(columns=SUCCESS_COLUMNS, rows=rows, stats=stats, meta=meta)


def run_search(cfg: ExperimentConfig) -> ExperimentResult:
    """One search on one drawn channel, a trace row per stage.  ``stats``: the found and
    exhaustive (tx, rx) ``pair`` and ``best_pair``, ``bound_gain``, ``POLICIES``' ``success``."""
    if len(cfg.methods) != 1:
        raise ValueError("the search demo takes exactly one --methods entry")
    if len(cfg.snr_db) != 1:
        raise ValueError("the search demo uses exactly one snr_db point")
    if cfg.channel == "both":
        raise ValueError("the search demo uses a single channel kind")
    [(cb_tx, cb_rx)] = pairs = _codebook_pairs(cfg)
    pm = cfg.power_model(cfg.snr_db[0])
    # A Monte-Carlo block of one realization, whose entropy is the seed alone.
    block, (best, bound), [out] = _search_block(cfg, cfg.kinds[0], pairs, pm, [(cfg.seed,)])
    rows = []
    # tolist() makes Python scalars, which the CSV writer formats with repr.
    stages = zip(out.winners[0].tolist(), out.y_power[0].tolist(), out.gains[0].tolist())
    for stage, (win, y_pow, gain) in enumerate(stages, start=1):
        lower = win - (win + 1) % 2  # the winner or its sibling: lower children are odd
        side = "rx" if stage <= cb_rx.depth else "tx"
        rows.append((stage, side, lower, lower + 1, win, y_pow, gain))
    flags = lockstep_adjudicate(out.pairs[:, None], block, best)[0, 0].tolist()
    stats = {"pair": tuple(out.pairs[0].tolist()), "best_pair": tuple(best[0].tolist()),
             "bound_gain": float(bound[0]), "success": tuple(flags)}
    return ExperimentResult(columns=TRACE_COLUMNS, rows=rows, stats=stats)


# ---------------------------------------------------------------------------
# Beam patterns
# ---------------------------------------------------------------------------


_DB_FLOOR = 1e-9  # linear floor before taking logs, keeps nulls finite


def run_beam_patterns(
    method: str,
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
    profiles: dict[str, np.ndarray] = {}
    for layer, index in codewords:
        if not 0 <= layer <= cb.depth or not 1 <= index <= 2**layer:
            raise ValueError(f"no codeword at layer {layer}, index {index}")
        label = f"a_{layer}_{index}"
        if label in profiles:
            raise ValueError(f"codeword at layer {layer}, index {index} is repeated")
        weights = cb.layers[layer][index - 1]
        if per_antenna:
            weights = weights * math.sqrt(cb.active_counts[layer][index - 1])
        columns.extend([label, f"{label}_db"])
        profiles[label] = np.abs(beam_gain(weights, omega))
    rows = []
    for gi, point in enumerate(omega):
        row: list = [float(point)]
        for gains in profiles.values():
            lin = float(gains[gi])
            row.extend([lin, 20.0 * math.log10(max(lin, _DB_FLOOR))])
        rows.append(tuple(row))
    stats = {"gains": profiles, "omega": omega}
    return ExperimentResult(columns=tuple(columns), rows=rows, stats=stats)
