"""The benchmark's own output check, run in the suite: every workload of
``bench/run.py`` at seeds 1 and 7 must pass the check behind its ``ok_frac``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from beamtrain import cli

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("beamtrain_bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # its Workload dataclass looks itself up there
        mp.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_passes_the_bench_check(bench, seed, tmp_path):
    for workload in bench.WORKLOADS.values():
        _, text = bench.run_call(cli.main, workload, seed, tmp_path)
        assert bench.check_output(workload, seed, text) is None, workload.name
