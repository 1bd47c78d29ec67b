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

from .arrays import DEFAULT_GRID_POINTS
from .channels import KINDS
from .codebooks import METHODS, export_codebook, generate_codebook, validate_codebook
from .experiments import (
    DEFAULT_PATTERN_CODEWORDS,
    DEFAULT_SNR_GRID,
    ExperimentConfig,
    run_beam_patterns,
    run_received_power,
    run_search,
    run_success_rate,
)
from .search import POLICIES, POWER_MODES

__all__ = ["main", "entrypoint"]


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _csv_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    for method in methods:
        if method not in METHODS:
            choices = ", ".join(map(repr, METHODS))
            raise argparse.ArgumentTypeError(f"invalid choice: {method!r} (choose from {choices})")
    return methods


def _codeword_list(text: str):
    pairs = [chunk.split(",") for chunk in text.split(";") if chunk.strip()]
    try:
        if not pairs:
            raise ValueError("no codewords")
        return tuple((int(k), int(n)) for k, n in pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected layer,index;layer,index, got {text!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value file providing defaults for this command")


class _BothSizes(argparse.Action):
    """``--n`` sets both array sizes where it stands, so the later of it and
    an explicit ``--n-tx`` or ``--n-rx`` wins."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.n_tx = namespace.n_rx = values


def _add_channel_options(parser: argparse.ArgumentParser, methods: tuple[str, ...]) -> None:
    parser.add_argument("--n-tx", type=int, default=64)
    parser.add_argument("--n-rx", type=int, default=64)
    parser.add_argument("--n", type=int, action=_BothSizes,
                        help="shorthand setting both --n-tx and --n-rx")
    parser.add_argument("--methods", type=_csv_methods, default=methods,
                        help="comma-separated codebook methods to compare")
    parser.add_argument("--paths", type=int, default=3, help="number of multipath components")
    parser.add_argument("--eta-db", type=float, default=15.0,
                        help="dominant-to-diffuse path power gap for the los kind (dB)")
    parser.add_argument("--power-mode", choices=POWER_MODES, default="total")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="CSV destination")


def _add_mc_options(parser: argparse.ArgumentParser) -> None:
    _add_channel_options(parser, METHODS)
    parser.add_argument("--realizations", "-r", type=int, default=1000)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes over realizations (results identical for any value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrain",
        description="Hierarchical beam-training codebooks, search, and Monte-Carlo evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cb = sub.add_parser("codebook", help="generate, export, and validate a codebook")
    _add_common(p_cb)
    p_cb.add_argument("--method", choices=METHODS, required=True)
    p_cb.add_argument("--n", type=int, required=True, help="array size (power of two)")
    p_cb.add_argument("--validate", action="store_true",
                      help="run the per-layer coverage and parent-child containment checks")
    p_cb.add_argument("--rho", type=float, default=0.5,
                      help="coverage threshold for the validator")
    p_cb.add_argument("--parent-rho", type=float, default=None,
                      help="override the per-beam parent threshold in the containment check")
    p_cb.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_cb.add_argument("--out", type=Path, default=None, help="export destination")

    p_pat = sub.add_parser("pattern", help="export beam patterns over the angle grid")
    _add_common(p_pat)
    p_pat.add_argument("--method", choices=METHODS, required=True)
    p_pat.add_argument("--n", type=int, required=True)
    p_pat.add_argument("--codewords", type=_codeword_list,
                       default=DEFAULT_PATTERN_CODEWORDS,
                       help="semicolon-separated layer,index pairs, e.g. '2,1;1,1;0,1'")
    p_pat.add_argument("--per-antenna", action="store_true",
                       help="scale weights to unit amplitude per active antenna")
    p_pat.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p_pat.add_argument("--out", type=Path, required=True)

    p_search = sub.add_parser(
        "search", help="run one search on one sampled channel",
        description="Run one search on one sampled channel and print its trace.  The "
        "realization's entropy is the seed alone; NumPy pads it with zero words to four, "
        "so below seed 2^64 a --channel los run draws the paths and noise of mc-power's "
        "LOS realization 0 at the same seed.",
    )
    _add_common(p_search)
    _add_channel_options(p_search, ("bmw-ss",))
    p_search.add_argument("--channel", choices=KINDS, default="nlos")
    p_search.add_argument("--snr-db", type=float, default=40.0)

    p_pow = sub.add_parser("mc-power", help="received power per search step (Monte Carlo)")
    _add_common(p_pow)
    _add_mc_options(p_pow)
    p_pow.add_argument("--channel", choices=(*KINDS, "both"), default="both")
    p_pow.add_argument("--snr-db", type=float, default=40.0)

    p_suc = sub.add_parser("mc-success", help="success rate over an SNR sweep (Monte Carlo)")
    _add_common(p_suc)
    _add_mc_options(p_suc)
    p_suc.add_argument("--channel", choices=KINDS, default="nlos")
    p_suc.add_argument("--snr-grid", type=_csv_floats, default=DEFAULT_SNR_GRID,
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
    """Turn config-file entries into CLI tokens right after the subcommand,
    so that explicit flags override them.  argparse finds ``--config`` in
    any spelling it accepts, such as ``--config=FILE`` or ``--conf FILE``."""
    finder = argparse.ArgumentParser(prog=f"beamtrain {argv[0]}", add_help=False)
    _add_common(finder)
    path = finder.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    tokens: list[str] = []
    for key, value in read_config_file(path).items():
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
    return ExperimentConfig(
        n_tx=args.n_tx,
        n_rx=args.n_rx,
        methods=args.methods,
        channel=channel,
        n_paths=args.paths,
        eta_db=args.eta_db,
        power_mode=args.power_mode,
        snr_db=snr_db,
        # The search demo draws one realization in process.
        realizations=getattr(args, "realizations", 1),
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
    )


def _cmd_codebook(args) -> int:
    cb = generate_codebook(args.method, args.n)
    print(f"generated {cb.method} codebook: n={cb.n}, layers={cb.depth + 1}, "
          f"codewords={2 ** (cb.depth + 1) - 1}")
    if args.out is not None:
        export_codebook(cb, args.out)
        print(f"wrote {args.out}")
    if args.validate:
        report = validate_codebook(
            cb, rho=args.rho, grid_points=args.grid_points, parent_rho=args.parent_rho
        )
        for line in report.summary_lines():
            print(line)
        if not report.passed:
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
          f"{len(result.stats['gains'])} codewords)")
    return 0


def _cmd_search(args) -> int:
    result = run_search(_mc_config(args, args.channel, (args.snr_db,)))
    print(f"{'stage':>5} {'side':>4} {'cands':>9} {'winner':>6} {'y_power':>12} {'gain':>12}")
    for stage, side, c1, c2, win, y_pow, gain in result.rows:
        print(f"{stage:>5} {side:>4} {f'({c1},{c2})':>9} {win:>6} {y_pow:>12.5g} {gain:>12.5g}")
    (tx, rx), (tx_best, rx_best) = result.stats["pair"], result.stats["best_pair"]
    print(f"found pair (tx={tx}, rx={rx}); exhaustive pair (tx={tx_best}, rx={rx_best}), "
          f"bound gain {result.stats['bound_gain']:.5g}")
    for policy, success in zip(POLICIES, result.stats["success"]):
        print(f"policy {policy}: {'success' if success else 'failure'}")
    if args.out is not None:
        result.write_csv(args.out)
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
            bound = result.stats["bound_db"][kind]
            print(f"[{kind}] exhaustive bound {bound:.2f} dB")
            for method in cfg.methods:
                final = result.stats["power"][(kind, method)]["mean_power_db"][-1]
                print(f"[{kind}] {method}: final step {final:.2f} dB")
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
