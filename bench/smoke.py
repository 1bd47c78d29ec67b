#!/usr/bin/env python3
"""Smoke test for the benchmark.  Run from the repository root:

    python3 bench/smoke.py

It runs every workload once, traced and untraced, at tiny sizes and checks
that every metric in BENCHMARK.json is reported with its unit; checks that
the output check rejects a golden file with one changed byte; runs the
command line once at full size; and checks that the benchmark fails without
printing a result when the beamtrain sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {
    "success": {"n": 8, "realizations": 3},
    "power": {"n": 8, "realizations": 3},
    "validate": {"n": 8},
}
SEED = 5


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    cli = run.import_cli()
    for workload in run.WORKLOADS.values():
        tiny = dataclasses.replace(workload, **TINY[workload.kind])
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_benchmark(cli, tiny, SEED, seconds=0.01, trace=trace)
            assert result["correct"] and result["failed"] == 0, result["problems"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload.name, key, sorted(set(got) ^ set(want)))
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        print(f"ok   {workload.name}: tiny run, every metric and unit present")


def _float_fields(text: str) -> dict[int, tuple[int, int]]:
    """Map each character position inside a float column of a power CSV data
    row to that field's (start, end)."""
    fields = {}
    offset = 0
    for number, line in enumerate(text.splitlines(keepends=True)):
        start = offset
        for column, field in enumerate(line.rstrip("\n").split(",")):
            if number and column >= run.POWER_KEY_COLUMNS:
                fields.update({start + j: (start, start + len(field)) for j in range(len(field))})
            start += len(field) + 1
        offset += len(line)
    return fields


def check_changed_bytes_rejected() -> None:
    for golden in sorted(run.GOLDEN_DIR.iterdir()):
        workload = next(w for w in run.WORKLOADS.values() if golden.name.startswith(w.kind))
        text = golden.read_text(encoding="ascii")
        assert run.compare_golden(workload, text, text) is None
        floats = _float_fields(text) if workload.kind == "power" else {}
        tolerated = 0
        for i, char in enumerate(text):
            changed = text[:i] + chr(ord(char) ^ 1) + text[i + 1:]
            if run.compare_golden(workload, text, changed) is None:
                # Only a float that stays within the power tolerance may pass.
                assert i in floats, (golden.name, i)
                start, end = floats[i]
                assert math.isclose(float(text[start:end]), float(changed[start:end]),
                                    rel_tol=run.POWER_REL_TOL), (golden.name, i)
                tolerated += 1
        print(f"ok   {golden.name}: {len(text) - tolerated} of {len(text)} one-byte changes "
              f"rejected, {tolerated} within the float tolerance accepted")


def check_command_line() -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "success-nlos-n64",
         "--seed", str(SEED), "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    print(f"ok   command line: {result['attempted']} calls, wall_s "
          f"{result['metrics']['wall_s']['value']:.3f}")


def check_fails_without_sources() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="tmp-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "success-nlos-n64",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without src/: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_metric_names()
    check_changed_bytes_rejected()
    check_command_line()
    check_fails_without_sources()
    print("smoke test passed")
