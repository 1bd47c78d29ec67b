"""Shared test plumbing: an end-of-run summary for the acceptance gates, and
child interpreters that import this checkout's beamtrain."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (criterion id, passed, detail) tuples appended by tests/test_acceptance.py
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {name}: {status} - {detail}")


def run_python(*args, **kwargs):
    """``subprocess.run`` of ``python *args`` with ``src`` leading the child's
    PYTHONPATH, so that a checkout runs without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
