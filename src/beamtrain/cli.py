"""Command-line front end.

Subcommands: ``codebook`` (generate / export / validate), ``pattern`` (beam
patterns to CSV), ``search`` (single-channel demo with a printed trace),
``mc-power`` (received power per search step), ``mc-success`` (success-rate
sweep).  A plain-text config file with ``key = value`` lines can seed any
subcommand's options; explicit flags win.  Runs with the same flags and seed
produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .arrays import DEFAULT_GRID_POINTS
from .channels import channel_from_paths
from .codebooks import (
    export_codebook,
    generate_codebook,
    validate_criterion1,
    validate_criterion2,
)
from .experiments import (
    _DEFAULT_SNR_GRID,
    DEFAULT_PATTERN_CODEWORDS,
    POLICY_ORDER,
    ExperimentConfig,
    ExperimentResult,
    _codebook_pairs,
    draw_realization,
    run_beam_patterns,
    run_received_power,
    run_success_rate,
)
from .search import TRACE_COLUMNS, adjudicate, exhaustive_search, hierarchical_search

__all__ = ["main", "entrypoint"]


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _csv_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _codeword_list(text: str):
    pairs = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        k, n = chunk.split(",")
        pairs.append((int(k), int(n)))
    return tuple(pairs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value file providing defaults for this command")


def _add_mc_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-tx", type=int, default=64)
    parser.add_argument("--n-rx", type=int, default=64)
    parser.add_argument("--n", type=int, default=None,
                        help="shorthand setting both --n-tx and --n-rx")
    parser.add_argument("--methods", type=_csv_methods, default=("bmw-ss", "deact"),
                        help="comma-separated codebook methods to compare")
    parser.add_argument("--paths", type=int, default=3, help="number of multipath components")
    parser.add_argument("--eta-db", type=float, default=15.0,
                        help="dominant-to-diffuse path power gap for the los kind (dB)")
    parser.add_argument("--power-mode", choices=("total", "per-antenna"), default="total")
    parser.add_argument("--realizations", "-r", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes over realizations (results identical for any value)")
    parser.add_argument("--out", type=Path, default=None, help="CSV destination")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrain",
        description="Hierarchical beam-training codebooks, search, and Monte-Carlo evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cb = sub.add_parser("codebook", help="generate, export, and validate a codebook")
    _add_common(p_cb)
    p_cb.add_argument("--method", choices=("deact", "bmw-ss"), required=True)
    p_cb.add_argument("--n", type=int, required=True, help="array size (power of two)")
    p_cb.add_argument("--validate", action="store_true",
                      help="run the per-layer coverage and parent-child containment checks")
    p_cb.add_argument("--rho", type=float, default=0.5,
                      help="coverage threshold for the validators")
    p_cb.add_argument("--parent-rho", type=float, default=None,
                      help="override the per-beam parent threshold in the containment check")
    p_cb.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_cb.add_argument("--out", type=Path, default=None, help="export destination")

    p_pat = sub.add_parser("pattern", help="export beam patterns over the angle grid")
    _add_common(p_pat)
    p_pat.add_argument("--method", choices=("deact", "bmw-ss"), required=True)
    p_pat.add_argument("--n", type=int, required=True)
    p_pat.add_argument("--codewords", type=_codeword_list,
                       default=DEFAULT_PATTERN_CODEWORDS,
                       help="semicolon-separated layer,index pairs, e.g. '2,1;1,1;0,1'")
    p_pat.add_argument("--per-antenna", action="store_true",
                       help="scale weights to unit amplitude per active antenna")
    p_pat.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_pat.add_argument("--out", type=Path, required=True)

    p_search = sub.add_parser("search", help="run one search on one sampled channel")
    _add_common(p_search)
    _add_mc_options(p_search)
    p_search.add_argument("--channel", choices=("los", "nlos"), default="nlos")
    p_search.add_argument("--snr-db", type=float, default=40.0)

    p_pow = sub.add_parser("mc-power", help="received power per search step (Monte Carlo)")
    _add_common(p_pow)
    _add_mc_options(p_pow)
    p_pow.add_argument("--channel", choices=("los", "nlos", "both"), default="both")
    p_pow.add_argument("--snr-db", type=float, default=40.0)

    p_suc = sub.add_parser("mc-success", help="success rate over an SNR sweep (Monte Carlo)")
    _add_common(p_suc)
    _add_mc_options(p_suc)
    p_suc.add_argument("--channel", choices=("los", "nlos"), default="nlos")
    p_suc.add_argument("--snr-grid", type=_csv_floats, default=_DEFAULT_SNR_GRID,
                       help="comma-separated SNR points in dB")

    return parser


def read_config_file(path: Path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _inject_config(argv: list[str]) -> list[str]:
    """Turn config-file entries into leading CLI tokens so flags override them."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv  # argparse will report the missing value
    tokens: list[str] = []
    for key, value in read_config_file(Path(argv[idx + 1])).items():
        flag = "--" + key.replace("_", "-")
        if flag in ("--validate", "--per-antenna"):
            word = value.lower()
            if word in ("true", "yes", "on", "1"):
                tokens.append(flag)
            elif word not in ("false", "no", "off", "0"):
                raise ValueError(f"{key} takes true or false, got {value!r}")
        else:
            # One token, so that a value such as "-10,0,10" is not read as a flag.
            tokens.append(f"{flag}={value}")
    return [argv[0], *tokens, *argv[1:]]


def _mc_config(args, channel: str, snr_db: tuple[float, ...]) -> ExperimentConfig:
    n_tx = args.n if args.n is not None else args.n_tx
    n_rx = args.n if args.n is not None else args.n_rx
    return ExperimentConfig(
        n_tx=n_tx,
        n_rx=n_rx,
        methods=args.methods,
        channel=channel,
        n_paths=args.paths,
        eta_db=args.eta_db,
        power_mode=args.power_mode,
        snr_db=snr_db,
        realizations=args.realizations,
        seed=args.seed,
        jobs=args.jobs,
    )


def _cmd_codebook(args) -> int:
    cb = generate_codebook(args.method, args.n)
    print(f"generated {cb.method.value} codebook: n={cb.n}, layers={cb.depth + 1}, "
          f"codewords={2 ** (cb.depth + 1) - 1}")
    if args.out is not None:
        export_codebook(cb, args.out)
        print(f"wrote {args.out}")
    if args.validate:
        rep1 = validate_criterion1(cb, rho=args.rho, grid_points=args.grid_points)
        rep2 = validate_criterion2(
            cb, rho=args.rho, grid_points=args.grid_points, parent_rho=args.parent_rho
        )
        for line in rep1.summary_lines() + rep2.summary_lines():
            print(line)
        if not (rep1.passed and rep2.passed):
            print("validation: FAIL")
            return 1
        print("validation: PASS")
    return 0


def _cmd_pattern(args) -> int:
    result = run_beam_patterns(
        args.method,
        args.n,
        codewords=args.codewords,
        grid_points=args.grid_points,
        per_antenna=args.per_antenna,
    )
    result.write_csv(args.out)
    print(f"wrote {args.out} ({len(result.rows)} grid points, "
          f"{len(result.stats['labels'])} codewords)")
    return 0


def _cmd_search(args) -> int:
    cfg = _mc_config(args, args.channel, (args.snr_db,))
    if len(cfg.methods) != 1:
        raise ValueError("the search demo takes exactly one --methods entry")
    pm = cfg.power_model(args.snr_db)
    paths, noise_ss = draw_realization(cfg, cfg.kinds[0], (cfg.seed,))
    channel = channel_from_paths(cfg.n_tx, cfg.n_rx, *paths)
    [(cb_tx, cb_rx)] = _codebook_pairs(cfg)
    outcome = hierarchical_search(cb_tx, cb_rx, channel, pm, np.random.default_rng(noise_ss))
    print(f"{'stage':>5} {'side':>4} {'cands':>9} {'winner':>6} "
          f"{'y_power':>12} {'gain':>12}")
    for stage, side, c1, c2, win, y_pow, gain in outcome.trace:
        print(f"{stage:>5} {side:>4} {f'({c1},{c2})':>9} {win:>6} {y_pow:>12.5g} {gain:>12.5g}")
    tx_best, rx_best, best_gain = exhaustive_search(channel, pm)
    print(f"found pair (tx={outcome.pair[0]}, rx={outcome.pair[1]}); "
          f"exhaustive pair (tx={tx_best}, rx={rx_best}), bound gain {best_gain:.5g}")
    best_pair = (tx_best, rx_best)
    for policy in POLICY_ORDER:
        verdict = "success" if adjudicate(outcome, channel, policy, best_pair) else "failure"
        print(f"policy {policy.value}: {verdict}")
    if args.out is not None:
        ExperimentResult(columns=TRACE_COLUMNS, rows=list(outcome.trace)).write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_mc_power(args) -> int:
    cfg = _mc_config(args, args.channel, (args.snr_db,))
    result = run_received_power(cfg)
    if args.out is not None:
        result.write_csv(args.out)
        print(f"wrote {args.out}")
    else:
        for kind in cfg.kinds:
            bound = result.stats["bound_db"][kind.value]
            print(f"[{kind.value}] exhaustive bound {bound:.2f} dB")
            for method in cfg.methods:
                final = result.stats["power"][(kind.value, method)]["mean_power_db"][-1]
                print(f"[{kind.value}] {method}: final step {final:.2f} dB")
    print(f"elapsed {result.meta['elapsed_s']:.1f} s over {cfg.realizations} realizations")
    return 0


def _cmd_mc_success(args) -> int:
    cfg = _mc_config(args, args.channel, args.snr_grid)
    result = run_success_rate(cfg)
    if args.out is not None:
        result.write_csv(args.out)
        print(f"wrote {args.out}")
    else:
        for (method, policy), rate in result.stats["success"].items():
            points = " ".join(f"{x:.3f}" for x in rate)
            print(f"{method} [{policy}]: {points}")
    print(f"elapsed {result.meta['elapsed_s']:.1f} s over {cfg.realizations} realizations")
    return 0


_HANDLERS = {
    "codebook": _cmd_codebook,
    "pattern": _cmd_pattern,
    "search": _cmd_search,
    "mc-power": _cmd_mc_power,
    "mc-success": _cmd_mc_success,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-"):
        try:
            argv = _inject_config(argv)
        except (OSError, ValueError) as exc:
            print(f"beamtrain: config error: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        # Checked before any work starts, so a long run cannot end unwritten.
        print(f"beamtrain: cannot write {out}: not a file in an existing directory",
              file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"beamtrain: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # such as a write that fails after the check above
        print(f"beamtrain: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
