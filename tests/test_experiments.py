import math

import numpy as np
import pytest

from beamtrain import (
    ExperimentConfig,
    exhaustive_search,
    sample_channel,
    run_beam_patterns,
    run_received_power,
    run_success_rate,
)
from beamtrain import experiments
from beamtrain.experiments import POWER_COLUMNS, SUCCESS_COLUMNS


class TestConfig:
    def test_validates_methods(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("sparse",))

    def test_validates_snr_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db=(10.0, 10.0))
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db=())

    def test_validates_channel(self):
        with pytest.raises(ValueError):
            ExperimentConfig(channel="foggy")

    @pytest.mark.parametrize(
        "grid", [(math.nan,), (-math.inf, 0.0), (0.0, math.inf), (0.0, math.nan)]
    )
    def test_rejects_non_finite_snr(self, grid):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(snr_db=grid)

    def test_rejects_non_finite_eta_db(self):
        with pytest.raises(ValueError, match="eta_db"):
            ExperimentConfig(channel="los", eta_db=math.nan)

    def test_rejects_snr_whose_noise_floor_overflows(self):
        with pytest.raises(ValueError, match="snr_db"):
            ExperimentConfig(snr_db=(-4000.0, 0.0))

    def test_rejects_eta_db_out_of_float_range(self):
        with pytest.raises(ValueError, match="eta_db"):
            ExperimentConfig(channel="los", eta_db=4000.0)

    @pytest.mark.parametrize("sizes", [(1, 8), (8, 1), (1, 1)])
    def test_rejects_arrays_without_a_search_stage(self, sizes):
        n_tx, n_rx = sizes
        with pytest.raises(ValueError, match="stage"):
            ExperimentConfig(n_tx=n_tx, n_rx=n_rx)


class TestBeamPatterns:
    def test_single_active_antenna_is_flat(self):
        res = run_beam_patterns("deact", 128, codewords=((0, 1),))
        gains = res.stats["gains"]["a_0_1"]
        np.testing.assert_allclose(gains, 1.0, atol=1e-12)

    def test_wide_subarray_beam_covers_domain_except_seam(self):
        # The widest sub-array codeword holds above a fifth of its peak
        # everywhere away from the omega = +/-1 seam, where the sub-array
        # phase progression cannot close and the gain nulls out.
        res = run_beam_patterns("bmw-ss", 128, codewords=((0, 1),))
        gains = res.stats["gains"]["a_0_1"]
        omega = res.stats["omega"]
        interior = np.abs(omega) <= 0.99
        assert gains[interior].min() > 0.2 * gains.max()
        assert gains[np.argmin(np.abs(omega - (-1.0)))] < 1e-9

    def test_per_antenna_scaling_gap(self):
        res_b = run_beam_patterns("bmw-ss", 32, codewords=((0, 1),), per_antenna=True)
        res_d = run_beam_patterns("deact", 32, codewords=((0, 1),), per_antenna=True)
        gap_db = 20 * math.log10(
            res_b.stats["gains"]["a_0_1"].max() / res_d.stats["gains"]["a_0_1"].max()
        )
        assert gap_db == pytest.approx(10 * math.log10(32), abs=2.0)

    def test_rejects_unknown_codeword(self):
        with pytest.raises(ValueError):
            run_beam_patterns("deact", 8, codewords=((5, 1),))
        with pytest.raises(ValueError):
            run_beam_patterns("deact", 8, codewords=((1, 3),))

    def test_csv_layout(self, tmp_path):
        res = run_beam_patterns("deact", 8, codewords=((1, 1), (0, 1)))
        assert res.columns == ("omega", "a_1_1", "a_1_1_db", "a_0_1", "a_0_1_db")
        path = tmp_path / "pat.csv"
        res.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,a_1_1,a_1_1_db,a_0_1,a_0_1_db"
        assert len(lines) == 1 + 4096


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(
        channel="both", n_paths=3, power_mode="total", snr_db=(40.0,),
        realizations=300, seed=5,
    )
    return cfg, run_received_power(cfg)


class TestReceivedPower:
    def test_row_layout(self, result):
        cfg, res = result
        assert res.columns == POWER_COLUMNS
        assert len(res.rows) == 2 * 2 * 12  # kinds x methods x steps
        steps = [row[0] for row in res.rows[:12]]
        assert steps == list(range(1, 13))

    def test_bound_dominates_all_steps(self, result):
        cfg, res = result
        for (kind, method), data in res.stats["power"].items():
            assert np.all(data["mean_power_w"] <= res.stats["bound_w"][kind] * (1 + 1e-12))

    def test_receive_stages_monotone_in_the_mean(self, result):
        cfg, res = result
        for data in res.stats["power"].values():
            rx = data["mean_power_db"][:6]
            assert np.all(np.diff(rx) > -0.1)

    def test_requires_single_snr(self):
        cfg = ExperimentConfig(snr_db=(10.0, 20.0), realizations=10)
        with pytest.raises(ValueError):
            run_received_power(cfg)

    def test_terminal_power_agreement_between_methods(self):
        # Same channels and noise streams: after the search both codebooks
        # end on last-layer steering vectors and the ensemble means agree.
        cfg = ExperimentConfig(
            channel="los", n_paths=3, power_mode="total", snr_db=(40.0,),
            realizations=400, seed=9,
        )
        res = run_received_power(cfg)
        final = [
            res.stats["power"][("los", m)]["mean_power_db"][-1] for m in cfg.methods
        ]
        assert abs(final[0] - final[1]) < 0.8


class TestSuccessRate:
    def test_row_layout(self):
        cfg = ExperimentConfig(
            channel="nlos", n_paths=1, snr_db=(10.0, 20.0), realizations=25, seed=2,
        )
        res = run_success_rate(cfg)
        assert res.columns == SUCCESS_COLUMNS
        assert len(res.rows) == 2 * 2 * 3  # snr x methods x policies
        for row in res.rows:
            assert 0.0 <= row[3] <= 1.0
            assert row[4] >= 0.0

    def test_one_oracle_call_per_channel(self, monkeypatch):
        calls = {"channels": 0, "oracles": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(experiments, "sample_channel", counted("channels", sample_channel))
        monkeypatch.setattr(
            experiments, "exhaustive_search", counted("oracles", exhaustive_search)
        )
        cfg = ExperimentConfig(
            n_tx=8, n_rx=8, channel="nlos", snr_db=(0.0, 20.0), realizations=3, seed=2
        )
        run_success_rate(cfg)
        assert calls == {"channels": 6, "oracles": 6}

    def test_rejects_both_kind(self):
        cfg = ExperimentConfig(channel="both", realizations=5)
        with pytest.raises(ValueError):
            run_success_rate(cfg)

    def test_success_monotone_in_snr(self):
        cfg = ExperimentConfig(
            channel="nlos", n_paths=1, snr_db=(10.0, 20.0, 30.0, 40.0),
            realizations=200, seed=3,
        )
        res = run_success_rate(cfg)
        for method in cfg.methods:
            rate = res.stats["success"][(method, "align-any-mpc")]
            err = res.stats["stderr"][(method, "align-any-mpc")]
            for i in range(len(rate) - 1):
                slack = 2 * (err[i] + err[i + 1])
                assert rate[i + 1] >= rate[i] - slack

    def test_stderr_shrinks_with_realizations(self):
        def stderr_at(r):
            cfg = ExperimentConfig(
                channel="nlos", n_paths=1, snr_db=(20.0,), realizations=r, seed=4,
            )
            res = run_success_rate(cfg)
            return res.stats["stderr"][("bmw-ss", "align-any-mpc")][0]

        ratio = stderr_at(100) / stderr_at(1000)
        assert 2.0 < ratio < 5.0


class TestDeterminism:
    def test_identical_runs_identical_rows(self):
        cfg = ExperimentConfig(
            channel="nlos", n_paths=2, snr_db=(15.0,), realizations=30, seed=6,
        )
        assert run_success_rate(cfg).rows == run_success_rate(cfg).rows

    def test_worker_count_does_not_change_results(self):
        base = dict(channel="both", n_paths=2, power_mode="per-antenna",
                    snr_db=(30.0,), realizations=24, seed=8)
        serial = run_received_power(ExperimentConfig(**base, jobs=1))
        parallel = run_received_power(ExperimentConfig(**base, jobs=2))
        assert serial.rows == parallel.rows

    def test_csv_bytes_reproducible(self, tmp_path):
        cfg = ExperimentConfig(
            channel="nlos", n_paths=1, snr_db=(10.0, 20.0), realizations=20, seed=1,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_success_rate(cfg).write_csv(p1)
        run_success_rate(cfg).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestWorkerClamp:
    @pytest.mark.parametrize(
        "jobs, realizations, cpus, want",
        [(10**6, 3, 64, 3), (64, 100, 4, 4), (3, 100, 64, 3), (8, 100, None, 1)],
    )
    def test_pool_size_is_clamped(self, monkeypatch, jobs, realizations, cpus, want):
        sizes = []

        class InProcessPool:
            """Stand-in for ProcessPoolExecutor: records its size, starts nothing."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        base = dict(n_tx=8, n_rx=8, channel="nlos", snr_db=(10.0,),
                    realizations=realizations, seed=3)
        clamped = run_success_rate(ExperimentConfig(**base, jobs=jobs))
        assert sizes == [want]
        assert clamped.rows == run_success_rate(ExperimentConfig(**base)).rows
