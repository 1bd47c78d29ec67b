#!/usr/bin/env python3
"""beamtrain benchmark: end-to-end CLI runs, output checks and a traced run.

Run from the repository root:

    python3 bench/run.py --workload success-nlos-n64 --seed 1 --seconds 40 --trace 0

Every workload calls ``beamtrain.cli.main`` in this process with ``--jobs 1``
and repeats that call until ``--seconds`` have passed (at least
``MIN_CALLS`` times).  Each call's output is checked against a committed
golden file when one exists for the seed, and against invariants otherwise.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, versions, seed and realization counts.

``--trace 0`` reports the end-to-end metrics: the median call and set-up of
the run, each corrected for how much slower the host's core ran while it was
measured (``SpeedSampler``); the raw figures are printed on a line starting
``raw``.

``--trace 1`` alternates traced and untraced calls, starting with a traced
warm-up call whose times are not used, and reports per-layer call counts and
self times, taken from spans the benchmark puts around the public functions
of each beamtrain module by rebinding module attributes; nothing under
``src/`` is changed.
The spans are written to ``bench/out/`` at the end.  See bench/README.md for
the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"

SNR_GRID = (0, 5, 10, 15, 20, 25, 30, 35, 40)
MC_METHODS = ("bmw-ss", "deact")
VALIDATE_METHODS = ("deact", "bmw-ss")
N_POLICIES = 3
SUCCESS_HEADER = ["snr_db", "method", "policy", "success", "stderr"]
POWER_HEADER = [
    "step", "method", "channel", "mean_power_w", "mean_power_db", "stderr_db", "bound_db",
]
POWER_KEY_COLUMNS = 3
POWER_REL_TOL = 1e-9  # float reduction order may move power bytes by ulps
BOUND_REL_TOL = 1e-12

MIN_CALLS = 3  # untraced calls in a --trace 0 run
# A --trace 1 run: traced and untraced calls in turn, starting with a traced
# warm-up call, so that at least two traced calls (whose call counts must
# agree) and one warm untraced call exist.
MIN_TRACE_CALLS = 3
SETUP_REPEATS = 25
SAMPLE_PERIOD_S = 0.02  # how often SpeedSampler times its probe during a call
# Time of SpeedSampler's probe when the core runs at full speed, on the
# machine the bounds were set on (Intel Xeon, 2 vCPUs, Python 3.11, numpy
# 2.4, one BLAS thread): the fastest mode of its times in quiet periods.  It
# only sets the unit of the corrected times; on another machine they are
# all off by the same factor.
PROBE_FULL_SPEED_S = 0.000197
PROBE_CAP = 4.0  # the host slows the probe by at most about 3x
# One BLAS thread, so a run uses one of the two shared cores.  A second
# thread was slower on the N=64 workloads and made setup_s spread 4x wider.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RAW_SPANS_PER_LAYER = 2000

# Span name, defining module, function.  Every beamtrain module attribute
# bound to the function is rebound to the traced wrapper while tracing.
TRACED_FUNCTIONS = (
    ("experiments", "beamtrain.experiments", "run_success_rate"),
    ("experiments", "beamtrain.experiments", "run_received_power"),
    ("codebooks.generate_codebook", "beamtrain.codebooks", "generate_codebook"),
    ("codebooks.validate_criterion1", "beamtrain.codebooks", "validate_criterion1"),
    ("codebooks.validate_criterion2", "beamtrain.codebooks", "validate_criterion2"),
    ("arrays.beam_coverage", "beamtrain.arrays", "beam_coverage"),
    ("channels.sample_channel", "beamtrain.channels", "sample_channel"),
    ("channels.assemble_matrix", "beamtrain.channels", "assemble_matrix"),
    ("search.hierarchical_search", "beamtrain.search", "hierarchical_search"),
    ("search.measure", "beamtrain.search", "measure"),
    ("search.exhaustive_search", "beamtrain.search", "exhaustive_search"),
    ("search.adjudicate", "beamtrain.search", "adjudicate"),
)
RESIDUAL_LAYERS = ("experiments", "cli")
TRACER_LAYER = "trace"  # the tracer's own bookkeeping, outside every span
COUNTED_LAYERS = tuple(
    dict.fromkeys(name for name, _, _ in TRACED_FUNCTIONS if name not in RESIDUAL_LAYERS)
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One closed-loop batch run of the CLI.

    ``realizations`` is the Monte-Carlo realization count of one call for
    the ``success`` and ``power`` kinds, and the number of codebooks one
    call validates for the ``validate`` kind.
    """

    name: str
    kind: str
    n: int
    realizations: int

    def argvs(self, seed: int, out: Path) -> list[list[str]]:
        if self.kind == "validate":
            return [
                ["codebook", "--method", method, "--n", str(self.n), "--validate"]
                for method in VALIDATE_METHODS
            ]
        common = [
            "--n", str(self.n), "--paths", "3", "--methods", ",".join(MC_METHODS),
            "--realizations", str(self.realizations), "--seed", str(seed),
            "--jobs", "1", "--out", str(out),
        ]
        if self.kind == "success":
            snr_grid = ",".join(str(x) for x in SNR_GRID)
            return [["mc-success", "--channel", "nlos", "--snr-grid", snr_grid,
                     "--power-mode", "total", *common]]
        return [["mc-power", "--channel", "both", "--power-mode", "per-antenna",
                 "--snr-db", "40", *common]]

    @property
    def codebooks(self) -> list[tuple[str, int]]:
        methods = VALIDATE_METHODS if self.kind == "validate" else MC_METHODS
        return [(method, self.n) for method in methods]

    def golden_path(self, seed: int) -> Path:
        """The golden file for these inputs (it need not exist)."""
        if self.kind == "validate":  # codebooks do not depend on the seed
            return GOLDEN_DIR / f"validate-n{self.n}.txt"
        return GOLDEN_DIR / f"{self.kind}-n{self.n}-r{self.realizations}-seed{seed}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("success-nlos-n64", "success", 64, 30),
        Workload("power-both-n256", "power", 256, 24),
        Workload("codebook-validate-n64", "validate", 64, len(VALIDATE_METHODS)),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def compare_golden(workload: Workload, golden: str, text: str) -> str | None:
    """Return why ``text`` does not match ``golden``, or None if it does."""
    if workload.kind != "power":
        return None if text == golden else "output differs from the golden file"
    want, got = _rows(golden), _rows(text)
    if len(want) != len(got) or want[0] != got[0]:
        return "power CSV shape or header differs from the golden file"
    for line, (w, g) in enumerate(zip(want[1:], got[1:]), start=2):
        if len(w) != len(g) or w[:POWER_KEY_COLUMNS] != g[:POWER_KEY_COLUMNS]:
            return f"power CSV line {line}: key columns differ from the golden file"
        for a, b in zip(w[POWER_KEY_COLUMNS:], g[POWER_KEY_COLUMNS:]):
            try:  # the CLI writes floats as repr(); anything else is a change
                same = repr(float(b)) == b and math.isclose(
                    float(a), float(b), rel_tol=POWER_REL_TOL, abs_tol=0.0)
            except ValueError:
                same = False
            if not same:
                return f"power CSV line {line}: {b!r} is not within {POWER_REL_TOL} of {a!r}"
    return None


def check_invariants(workload: Workload, text: str) -> str | None:
    """Checks for a seed that has no golden file."""
    if workload.kind == "validate":
        sections = text.split("$ ")[1:]
        if len(sections) != len(VALIDATE_METHODS):
            return "missing codebook report"
        for section in sections:
            lines = section.rstrip("\n").split("\n")
            if lines[-2:] not in (["validation: PASS", "exit 0"], ["validation: FAIL", "exit 1"]):
                return f"report does not end in a matching verdict and exit code: {lines[-2:]}"
        return None
    try:
        header, *rows = _rows(text)
        if workload.kind == "success":
            return _success_invariants(workload, header, rows)
        return _power_invariants(workload, header, rows)
    except (ValueError, IndexError) as exc:
        return f"malformed CSV: {exc}"


def _success_invariants(workload: Workload, header, rows) -> str | None:
    if header != SUCCESS_HEADER:
        return f"unexpected success header {header}"
    if len(rows) != len(SNR_GRID) * len(MC_METHODS) * N_POLICIES:
        return f"unexpected success row count {len(rows)}"
    r = workload.realizations
    for row in rows:
        count = float(row[3]) * r
        if abs(count - round(count)) > 1e-9 * r or not 0 <= round(count) <= r:
            return f"success value {row[3]} is not k/{r} for an integer k in [0, {r}]"
    return None


def _power_invariants(workload: Workload, header, rows) -> str | None:
    if header != POWER_HEADER:
        return f"unexpected power header {header}"
    n_stages = 2 * int(math.log2(workload.n))
    if len(rows) != 2 * len(MC_METHODS) * n_stages:
        return f"unexpected power row count {len(rows)}"
    for row in rows:
        values = [float(x) for x in row[3:]]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite power value in {row}"
        if int(row[0]) == n_stages:
            bound_w = 10.0 ** (values[3] / 10.0)
            if values[0] > bound_w * (1.0 + BOUND_REL_TOL):
                return f"final-step power {values[0]} exceeds the bound {bound_w}"
    return None


def check_output(workload: Workload, seed: int, text: str) -> str | None:
    golden = workload.golden_path(seed)
    if golden.is_file():
        return compare_golden(workload, golden.read_text(encoding="ascii"), text)
    return check_invariants(workload, text)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans around calls into beamtrain, kept in memory.

    Every span adds to its layer's call count and self time for the current
    call (its duration minus the time its child spans cover).  A wrapper's
    own work before and after the span is timed too and added to the
    ``TRACER_LAYER`` bucket; a parent counts the whole wrapper of a child as
    child time, so no layer's self time holds tracer cost.  The first
    ``RAW_SPANS_PER_LAYER`` spans of each layer are also kept whole as
    ``(call, span id, parent id, layer, start, end)``; later ones are only
    aggregated.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.call = 0
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.seen: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                agg = self.totals.setdefault(layer, [0, 0.0])
                agg[0] += 1
                agg[1] += end - start - frame[1]
                seen = self.seen.get(layer, 0)
                self.seen[layer] = seen + 1
                if seen < RAW_SPANS_PER_LAYER:
                    self.spans.append((self.call, span_id, parent[0] if parent else None,
                                       layer, start - self.origin, end - self.origin))
                left = time.perf_counter()
                own = self.totals.setdefault(TRACER_LAYER, [0, 0.0])
                own[0] += 1
                own[1] += left - entered - (end - start)
                if parent is not None:
                    parent[1] += left - entered

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every beamtrain module attribute that names a traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "beamtrain" or name.startswith("beamtrain."))]
        saved = []
        try:
            for layer, module_name, attr in TRACED_FUNCTIONS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, name, value))
                            setattr(module, name, wrapper)
            yield
        finally:
            for module, name, value in reversed(saved):
                setattr(module, name, value)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def import_cli():
    """Import beamtrain from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "beamtrain" / "__init__.py").is_file():
        raise SystemExit(f"bench: no beamtrain sources under {SRC}")
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    sys.path.insert(0, str(SRC))
    import beamtrain.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported beamtrain from {cli.__file__}, not {SRC}")
    return cli


def run_call(main, workload: Workload, seed: int, scratch: Path,
             during=contextlib.nullcontext) -> tuple[float, str]:
    """One call of the workload: (wall seconds, output text to check).

    ``during()`` is entered around the timed part only.
    """
    out = scratch / "out.csv"
    out.unlink(missing_ok=True)
    reports = []
    with during():
        start = time.perf_counter()
        for argv in workload.argvs(seed, out):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            reports.append((argv, buf.getvalue(), code))
        elapsed = time.perf_counter() - start
    if workload.kind == "validate":
        return elapsed, "".join(f"$ {' '.join(argv)}\n{text}exit {code}\n"
                                for argv, text, code in reports)
    (argv, text, code), = reports
    if code != 0:
        raise RuntimeError(f"beamtrain {' '.join(argv)} exited {code}: {text}")
    return elapsed, out.read_text(encoding="ascii")


# numpy is imported before the clock starts: its import is the same for
# every version of beamtrain and its run-to-run noise is larger than
# beamtrain's own set-up.
#
# The set-up is too short for SpeedSampler's alarm, so the probe of
# SpeedSampler (the same code) is timed SETUP_PROBES times just before and
# just after it instead.
SETUP_SNIPPET = """
import json, sys, time
import numpy as np
weights = np.random.default_rng(0).standard_normal(64) + 0j
phases = -np.pi * np.linspace(-1.0, 1.0, 128)[:, np.newaxis] * np.arange(64)
def probe():
    np.exp(1j * phases) @ weights
    start = time.perf_counter()
    np.exp(1j * phases) @ weights
    return time.perf_counter() - start
before = [probe() for _ in range(int(sys.argv[2]))]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import beamtrain.cli
from beamtrain.codebooks import generate_codebook
for spec in sys.argv[3:]:
    method, n = spec.split(":")
    generate_codebook(method, int(n))
elapsed = time.perf_counter() - start
after = [probe() for _ in range(int(sys.argv[2]))]
print(json.dumps([elapsed, before + after]))
"""
SETUP_PROBES = 8


def time_setup(workload: Workload) -> tuple[float, list[float]]:
    """Time, in a fresh interpreter with numpy already imported, to import
    beamtrain and build the workload's codebooks; and the probe times taken
    around it."""
    specs = [f"{method}:{n}" for method, n in workload.codebooks]
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(SETUP_PROBES), *specs],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    elapsed, probes = json.loads(proc.stdout.strip().splitlines()[-1])
    return elapsed, probes


class SpeedSampler:
    """How fast the core ran while a call ran.

    The shared host slows each core down, often by 1.5-2x, switching many
    times a second, in a mix that changes over minutes, so a call's wall
    time says as much about the host as about beamtrain.  While
    ``sampling()`` is active, a SIGALRM handler runs every
    ``SAMPLE_PERIOD_S`` in this thread, between two bytecodes of the call,
    and runs a fixed probe of about 0.2 ms twice, timing the second run,
    whose data the first has brought back into the cache.  The probe runs no
    beamtrain code: it computes the gains of a 64-element beam at 128
    angles (vectorised complex exponentials and a product).  On the tuning
    machine it tracked the slowdown of all three workloads within a run as
    well as or better than a Python loop of small numpy operations, a
    256x256 product or a memory sweep did.  Its mean time during a call over
    its full-speed time, ``PROBE_FULL_SPEED_S``, is how much slower the core
    ran during the call.  The full-speed time is a constant, not the run's
    fastest probe, because the host has periods of minutes in which the core
    never reaches full speed; the run's fastest probe was then 13-24%
    slower.  A probe slower than ``PROBE_CAP`` times full speed was held up
    by something other than the host's speed (a page fault, a collection)
    and counts as ``PROBE_CAP``.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._weights = rng.standard_normal(64) + 0j
        self._phases = -np.pi * np.linspace(-1.0, 1.0, 128)[:, np.newaxis] * np.arange(64)
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def _probe(self) -> None:
        self._np.exp(1j * self._phases) @ self._weights

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        self._probe()  # loads the probe's data into the cache the call has used
        start = time.perf_counter()
        self._probe()
        end = time.perf_counter()
        self.times.append(end - start)
        self.spent += end - entered

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def slowdown(times: list[float]) -> float:
        """How much slower than full speed the probe ran, on average, in ``times``."""
        cap = PROBE_CAP * PROBE_FULL_SPEED_S
        return statistics.fmean(min(t, cap) for t in times) / PROBE_FULL_SPEED_S


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamtrain").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "seed": seed,
        "realizations": workload.realizations,
        "n": workload.n,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "golden": workload.golden_path(seed).name if workload.golden_path(seed).is_file() else None,
    }


def run_benchmark(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result object (plus ``problems``)."""
    started = time.perf_counter()
    # A --trace 0 run times SETUP_REPEATS set-ups, spread over the run
    # between calls and inside the --seconds budget, and samples the core's
    # speed during every call.
    setups: list[tuple[float, list[float]]] = []
    sampler = SpeedSampler()
    tracer = Tracer()
    traced_main = tracer.wrap("cli", cli.main)
    calls: list[dict] = []
    problems: list[str] = []
    first_text = None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as scratch:
        while True:
            traced = trace and len(calls) % 2 == 0
            done = [c["elapsed"] for c in calls if c["traced"] == traced and "elapsed" in c]
            elapsed_total = time.perf_counter() - started
            if len(calls) >= (MIN_TRACE_CALLS if trace else MIN_CALLS) and (
                not done or elapsed_total + statistics.median(done) > seconds
            ):
                break
            if not trace and len(setups) < SETUP_REPEATS * elapsed_total / seconds:
                setups.append(time_setup(workload))
            record: dict = {"traced": traced}
            first_probe, spent = len(sampler.times), sampler.spent
            tracer.call, tracer.totals = len(calls), {}
            gc.collect()
            try:
                if traced:
                    with tracer.installed():
                        elapsed, text = run_call(traced_main, workload, seed, Path(scratch))
                else:
                    during = contextlib.nullcontext if trace else sampler.sampling
                    elapsed, text = run_call(cli.main, workload, seed, Path(scratch), during)
                record["elapsed"] = elapsed
                record["probe_s"] = sampler.times[first_probe:]
                record["sampler_s"] = sampler.spent - spent
                problem = check_output(workload, seed, text)
                if problem is None and first_text is not None and text != first_text:
                    problem = "output differs from the first call of this run"
                first_text = text if first_text is None else first_text
            except Exception:
                problem = traceback.format_exc()
            if traced:
                record["layers"] = {k: tuple(v) for k, v in tracer.totals.items()}
            if problem is not None:
                record["problem"] = problem
                problems.append(f"call {len(calls)}: {problem}")
            calls.append(record)
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload))

    failed = sum("problem" in c for c in calls)
    untraced = [c for c in calls if not c["traced"] and "elapsed" in c]
    if not untraced:
        return {"correct": False, "attempted": len(calls), "failed": failed,
                "metrics": {}, "problems": problems}
    raw = None
    if trace:
        metrics = trace_metrics(calls, statistics.median(c["elapsed"] for c in untraced),
                                problems)
        write_trace(tracer, calls, workload, seed)
    else:
        # A call's time less the sampler's, divided by how much slower
        # than full speed the probe ran during it, is the call's time at
        # full speed; the same holds for a set-up and the probes around it.
        run_slowdown = sampler.slowdown(sampler.times) if sampler.times else 1.0

        def full_speed(c: dict) -> float:
            probes = c["probe_s"]
            slowdown = sampler.slowdown(probes) if probes else run_slowdown
            return (c["elapsed"] - c["sampler_s"]) / slowdown

        wall = statistics.median(full_speed(c) for c in untraced)
        setup = statistics.median(elapsed / sampler.slowdown(probes) for elapsed, probes in setups)
        raw = {"wall_s": statistics.median(c["elapsed"] for c in untraced),
               "setup_s": statistics.median(elapsed for elapsed, _ in setups),
               "probe_min_s": min(sampler.times, default=None), "probes": len(sampler.times),
               "slowdown": run_slowdown}
        metrics = {
            "wall_s": (wall, "s"),
            "realizations_per_s": (workload.realizations / wall, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((len(calls) - failed) / len(calls), "fraction"),
        }
    return {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "raw": raw,
    }


def trace_metrics(calls: list[dict], untraced_wall: float, problems: list[str]) -> dict:
    """Per-layer metrics.  The first call is a traced warm-up: its call
    counts must agree with the later traced calls, but its times, taken with
    cold caches, are not used."""
    completed = [c for c in calls if c["traced"] and "elapsed" in c and "problem" not in c]
    traced = completed[1:]
    if not traced:
        problems.append("no traced call after the warm-up completed")
        return {}
    counts = {layer: {c["layers"].get(layer, (0, 0.0))[0] for c in completed}
              for layer in COUNTED_LAYERS + RESIDUAL_LAYERS + (TRACER_LAYER,)}
    for layer, seen in counts.items():
        if len(seen) != 1:
            problems.append(f"{layer} call counts differ between traced calls: {sorted(seen)}")

    def self_s(layer):
        return statistics.median(c["layers"].get(layer, (0, 0.0))[1] for c in traced)

    def unaccounted(c):
        return c["elapsed"] - sum(s for _, s in c["layers"].values())

    metrics: dict = {}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (min(counts[layer]), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    for layer in RESIDUAL_LAYERS + (TRACER_LAYER,):
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    channels = min(counts["channels.sample_channel"])
    oracles = min(counts["search.exhaustive_search"])
    metrics["search.oracle_calls_per_channel"] = (oracles / channels if channels else 0.0,
                                                  "calls/channel")
    traced_wall = statistics.median(c["elapsed"] for c in traced)
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace_unaccounted_s"] = (statistics.median(unaccounted(c) for c in traced), "s")
    for c in completed:
        if abs(unaccounted(c)) > 0.01 * c["elapsed"]:
            problems.append(f"spans account for {c['elapsed'] - unaccounted(c):.6f} s "
                            f"of a {c['elapsed']:.6f} s traced call")
    return metrics


def write_trace(tracer: Tracer, calls: list[dict], workload: Workload, seed: int) -> None:
    payload = {
        "span_fields": ["call", "id", "parent", "layer", "start_s", "end_s"],
        "calls": calls,
        "spans": tracer.spans,
        "aggregated_only": {layer: seen - RAW_SPANS_PER_LAYER
                            for layer, seen in tracer.seen.items() if seen > RAW_SPANS_PER_LAYER},
    }
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(payload), encoding="ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamtrain benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    workload = WORKLOADS[args.workload]
    cli = import_cli()
    result = run_benchmark(cli, workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"bench: {problem}", file=sys.stderr)
    raw = result.pop("raw", None)
    if raw is not None:
        print("raw " + json.dumps(raw))
    print("env " + json.dumps(environment(workload, args.seed, args.seconds, bool(args.trace))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
