"""The input contract as a generated property: any command line drawn from
the parser's own options exits 0, 1 or 2 with no other exception, a run
that exits 0 writes no NaN or infinity, and a refusal (exit 2) writes no
``--out`` file and allocates little.

Each case's argv comes from the subcommand's own actions: their option
strings, ``type``s and ``choices``.  Values come from edge pools.  Sizes
that a case may run with stay small (N <= 64, R <= 3, grid <= 2^13).
Larger sizes appear only in cases that end with an option the library must
refuse after parsing, so that such a case must exit 2 and, since a refusal
builds nothing grid-sized, allocate little.  An option whose type or
destination has no pool fails the test, so a new option brings its pool
entries with it.
"""

import argparse
import contextlib
import io
import re
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import cli
from beamtrain.codebooks import METHODS

COMMANDS = ("codebook", "pattern", "search", "mc-power", "mc-success")

# Every pool holds tokens; each option is passed as one ``--flag=token``
# argument, so that a token such as "-inf" is never read as a flag.  A pool
# lists the tokens that its option's type parses; the tokens it refuses are
# drawn only in cases that may fail to parse.
HUGE = (str(2**64 + 1), str(-(2**64) - 1), str(10**30))
EDGES = ("0", "-0", "-1", *HUGE)
NOT_INTEGERS = ("", "x", "1.5", "nan", "1e3")
FLOATS = ("nan", "inf", "-inf", "1e308", "-1e308", "-0", "1e-320",
          "0", "0.5", "0.9", "1", "2", "10", "40", "-10", "4000", "-4000")

# Integer options by destination: the small values a case may run with, and
# values that must be refused.  ``jobs`` takes no value above 1, because a
# run with more than one job starts worker processes.
INTEGERS = {
    "n": ("1", "2", "4", "8", "16", "64", "3", "6", "8192", *EDGES),
    "n_tx": ("2", "8", "64", "1", "12", "8192", *EDGES),
    "n_rx": ("2", "8", "64", "1", "12", "8192", *EDGES),
    "paths": ("1", "2", "3", "4097", *EDGES),
    "realizations": ("1", "2", "3", str(10**13), *EDGES),
    "seed": ("1", "7", str(2**200), *EDGES),
    "jobs": ("1", "0", "-1"),
    "grid_points": ("2", "64", "512", "8192", str(2**21), str(10**11), *EDGES),
}
# The sizes of cases that must be refused, and the options that end them.
LARGE = {
    "n": ("1024",),
    "n_tx": ("1024",),
    "n_rx": ("1024",),
    "paths": ("4096",),
    "realizations": ("100000",),
    "grid_points": ("16384",),
}
REFUSED = {
    "codebook": (("--validate", "--rho=nan"), ("--validate", "--parent-rho=1")),
    "pattern": (("--codewords=1,1;1,1",), ("--codewords=13,1",), ("--codewords=1,3",)),
    "search": (("--methods=bmw-ss,deact",), ("--snr-db=nan",), ("--seed=-1",), ("--paths=0",)),
    "mc-power": (("--eta-db=nan",), ("--methods=deact,deact",), ("--seed=-1",), ("--paths=0",)),
    "mc-success": (("--snr-grid=0,0",), ("--snr-grid=",), ("--methods=",), ("--seed=-1",)),
}

LAYERS = ("0", "1", "2", "6", "7", "11", "-1", str(2**64 + 1))
INDICES = ("1", "2", "3", "0", str(2**64 + 1))

# The options no case draws: ``--config`` reads a file, which the config
# tests cover, and each case passes its own ``--out``.
SKIPPED = {"help", "config", "out"}

NAN_OR_INF = re.compile(r"(?i)\b(nan|inf)")
REFUSAL_PEAK = 2 * 2**20


def _values(action, integers, unparsed):
    """A strategy for one value token of ``action``, with integers from the
    pools of ``integers`` and, if ``unparsed``, tokens that its type refuses."""

    def pool(parsed, refused):
        return st.sampled_from(parsed + refused if unparsed else parsed)

    def joined(sep, items, max_size):
        return st.lists(items, min_size=int(not unparsed), max_size=max_size).map(sep.join)

    if action.choices is not None:
        return pool(tuple(action.choices), ("foo", ""))
    if action.type is int:
        return pool(integers[action.dest], NOT_INTEGERS)
    if action.type is float:
        return pool(FLOATS, ("", "x"))
    if action.type is cli._csv_floats:
        return joined(",", pool(FLOATS, ("x",)), 4)
    if action.type is cli._csv_methods:
        return joined(",", pool((*METHODS, ""), ("foo",)), 3)
    if action.type is cli._codeword_list:
        pair = st.tuples(pool(LAYERS, ("x",)), pool(INDICES, ("",))).map(",".join)
        return joined(";", pair | pool((), ("9:1", "1,2,3")) if unparsed else pair, 4)
    raise AssertionError(f"no value pool for {action.option_strings} of type {action.type}")


def _actions(command):
    """The options of ``command``'s parser: argparse lists them only in its
    ``_actions``."""
    parser = cli.build_parser([command])
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[command]._actions if a.dest not in SKIPPED]


@st.composite
def command_lines(draw):
    """Whether the case must be refused, and its command line: the command,
    each required option, the realization count (its default is 1000) and the
    grid once, then up to six drawn options, which may repeat.  A case that
    must be refused draws large sizes, parses, and ends with a refused option;
    any other case may hold tokens that do not parse."""
    command = draw(st.sampled_from(COMMANDS))
    refused = draw(st.booleans())
    unparsed = not refused and draw(st.booleans())
    integers = {**INTEGERS, **LARGE} if refused else INTEGERS
    actions = _actions(command)
    first = [a for a in actions if a.required or a.dest in ("realizations", "grid_points")]
    chosen = first + draw(st.lists(st.sampled_from(actions), max_size=6))
    argv = [command]
    for action in chosen:
        flag = draw(st.sampled_from(action.option_strings))
        value = "" if action.nargs == 0 else f"={draw(_values(action, integers, unparsed))}"
        argv.append(flag + value)
    if refused:
        argv += draw(st.sampled_from(REFUSED[command]))
    return refused, argv


def _run(argv):
    """``main``'s exit code, with argparse's refusals as their exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=100, deadline=None)
@given(case=command_lines())
def test_any_command_line_keeps_the_input_contract(case):
    refused, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [*argv, f"--out={out}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = _run(argv)
        assert code in ((2,) if refused else (0, 1, 2)), (code, stderr.getvalue())
        if code == 0:
            written = stdout.getvalue().replace(str(out), "")
            if out.exists():
                written += out.read_text()
            assert not NAN_OR_INF.search(written), written
        if code == 2:
            assert not out.exists()
            # Measured on a second run, so that runs which exit 0 go untraced.
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert _run(argv) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < REFUSAL_PEAK, (peak, stderr.getvalue())
