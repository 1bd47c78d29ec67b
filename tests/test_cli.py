import subprocess
import sys
import tracemalloc

import pytest

from beamtrain import cli
from beamtrain.cli import main
from beamtrain.codebooks import load_codebook
from beamtrain.experiments import ExperimentResult


def run_cli(*args):
    return main(list(args))


# `search --n 8 --channel los --methods bmw-ss --seed 7`: stdout up to the
# "wrote" line, and the trace CSV, byte for byte.
PINNED_SEARCH_STDOUT = """\
stage side     cands winner      y_power         gain
    1   rx     (1,2)      2       1.6718       1.6455
    2   rx     (3,4)      3        4.703       4.6905
    3   rx     (5,6)      6       6.5774       6.5582
    4   tx     (1,2)      2       8.6265       8.6275
    5   tx     (3,4)      4       19.782       19.816
    6   tx     (7,8)      7       37.013        37.08
found pair (tx=7, rx=6); exhaustive pair (tx=7, rx=6), bound gain 37.08
policy match-exhaustive: success
policy align-any-mpc: success
policy align-strongest: success
"""
PINNED_SEARCH_CSV = """\
stage,side,candidate_1,candidate_2,winner,y_power,noiseless_gain
1,rx,1,2,2,1.6718027755285219,1.6455341073516465
2,rx,3,4,3,4.703040079061032,4.690486064555018
3,rx,5,6,6,6.577386922660682,6.558201778728516
4,tx,1,2,2,8.626461977362,8.627489049393544
5,tx,3,4,4,19.782098579019383,19.815888672909367
6,tx,7,8,7,37.0130395008119,37.080490254630526
"""


class TestCodebookCommand:
    def test_generate_and_export(self, tmp_path, capsys):
        out = tmp_path / "cb.txt"
        assert run_cli("codebook", "--method", "deact", "--n", "16", "--out", str(out)) == 0
        assert load_codebook(out).n == 16
        assert "generated deact codebook" in capsys.readouterr().out

    def test_validate_deact_passes(self, capsys):
        assert run_cli("codebook", "--method", "deact", "--n", "16", "--validate") == 0
        text = capsys.readouterr().out
        assert "validation: PASS" in text
        assert "criterion 1, layer 0: pass" in text

    def test_validate_bmw_reports_seam_failure(self, capsys):
        # The sub-array codebook's widest codeword nulls at the domain seam,
        # so the numeric coverage check honestly fails and exits nonzero.
        assert run_cli("codebook", "--method", "bmw-ss", "--n", "16", "--validate") == 1
        assert "validation: FAIL" in capsys.readouterr().out

    def test_rejects_bad_size(self, capsys):
        assert run_cli("codebook", "--method", "deact", "--n", "10") == 2


class TestPatternCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "pat.csv"
        code = run_cli(
            "pattern", "--method", "bmw-ss", "--n", "32",
            "--codewords", "1,1;0,1", "--grid-points", "1024", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,a_1_1,a_1_1_db,a_0_1,a_0_1_db"
        assert len(lines) == 1 + 1024


class TestSearchCommand:
    def test_prints_trace_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "search", "--n", "16", "--channel", "los", "--paths", "2",
            "--methods", "bmw-ss", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "found pair" in text and "policy align-strongest" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "stage,side,candidate_1,candidate_2,winner,y_power,noiseless_gain"
        assert len(lines) == 1 + 8

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "search", "--n", "8", "--channel", "los", "--methods", "bmw-ss",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert capsys.readouterr().out == PINNED_SEARCH_STDOUT + f"wrote {out}\n"
        assert out.read_text() == PINNED_SEARCH_CSV

    def test_requires_single_method(self, capsys):
        assert run_cli("search", "--n", "16", "--methods", "bmw-ss,deact") == 2


class TestMonteCarloCommands:
    def test_mc_success_smoke(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(
            "mc-success", "--n", "16", "--paths", "1", "--channel", "nlos",
            "--snr-grid", "10,20", "--realizations", "10", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,method,policy,success,stderr"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_mc_power_smoke(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_cli(
            "mc-power", "--n", "16", "--paths", "2", "--channel", "los",
            "--snr-db", "30", "--realizations", "8", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,method,channel,mean_power_w,mean_power_db,stderr_db,bound_db"
        assert len(lines) == 1 + 2 * 8  # methods x steps for one channel kind


class TestBadInput:
    @pytest.mark.parametrize("grid", ["--snr-grid=nan", "--snr-grid=-inf,0"])
    def test_non_finite_snr_grid_exits_2(self, grid, capsys):
        assert run_cli("mc-success", "--n", "8", grid, "-r", "5") == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_eta_db_exits_2(self, capsys):
        code = run_cli("mc-power", "--n", "8", "--channel", "los", "--eta-db", "nan", "-r", "3")
        assert code == 2
        assert "eta_db" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        assert run_cli("mc-success", "--n", "8", "-r", "2", "--seed", "-1") == 2
        assert "seed" in capsys.readouterr().err

    def test_single_antenna_exits_2(self, capsys):
        assert run_cli("mc-power", "--n", "1", "--methods", "deact", "-r", "2") == 2
        assert "stage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("mc-power", "--n", "8", "--channel", "los", "--eta-db", "4000", "-r", "1"), "eta_db"),
            (("mc-success", "--n", "8", "--snr-grid=-4000", "-r", "1"), "snr_db"),
            (("search", "--n", "8", "--methods", "deact", "--snr-db", "-4000"), "snr_db"),
        ],
        ids=["mc-power", "mc-success", "search"],
    )
    def test_out_of_range_db_exits_2(self, argv, key, capsys):
        assert run_cli(*argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pattern", "--method", "deact", "--n", "8", "--grid-points", "100000000000"),
            ("codebook", "--method", "deact", "--n", "8", "--validate",
             "--grid-points", "100000000000"),
            ("pattern", "--method", "deact", "--n", "1024", "--grid-points", "1048576"),
            ("codebook", "--method", "deact", "--n", "256", "--validate",
             "--grid-points", "1048576"),
        ],
        ids=["pattern", "codebook", "pattern-cells", "codebook-cells"],
    )
    def test_huge_grid_exits_2_without_allocating(self, argv, tmp_path, capsys):
        out = tmp_path / "p.csv"
        if argv[0] == "pattern":
            argv = argv + ("--out", str(out))
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "grid_points" in capsys.readouterr().err
        assert peak < 10 * 2**20
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("codebook", "--method", "deact", "--n", "8192"), "array size"),
            (("mc-success", "--n", "8192", "-r", "1"), "array size"),
            (("mc-power", "--n", "8", "--realizations", str(10**13)), "realizations"),
            (("mc-success", "--n", "8", "--realizations", str(10**13)), "realizations"),
            (("search", "--n", "2", "--methods", "deact", "--paths", "200000000"), "n_paths"),
        ],
        ids=[
            "codebook-n",
            "mc-success-n",
            "mc-power-realizations",
            "mc-success-realizations",
            "search-paths",
        ],
    )
    def test_oversized_run_exits_2_without_allocating(self, argv, key, capsys):
        tracemalloc.start()
        try:
            code = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert key in capsys.readouterr().err
        assert peak < 10 * 2**20


class TestUnwritableOut:
    COMMANDS = {
        "codebook": ("codebook", "--method", "deact", "--n", "8"),
        "pattern": ("pattern", "--method", "deact", "--n", "8"),
        "search": ("search", "--n", "8", "--methods", "deact"),
        "mc-power": ("mc-power", "--n", "8", "-r", "2"),
        "mc-success": ("mc-success", "--n", "8", "-r", "2", "--snr-grid", "10"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_exits_2_before_any_work(self, command, where, tmp_path, monkeypatch, capsys):
        def no_work(args):
            raise AssertionError("the command ran before its --out was checked")

        monkeypatch.setitem(cli._HANDLERS, command, no_work)
        out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        assert run_cli(*self.COMMANDS[command], "--out", str(out)) == 2
        assert str(out) in capsys.readouterr().err

    def test_failed_write_exits_2(self, tmp_path, monkeypatch, capsys):
        def refuse(self, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(ExperimentResult, "write_csv", refuse)
        out = tmp_path / "x.csv"
        assert run_cli(*self.COMMANDS["mc-success"], "--out", str(out)) == 2
        assert "Permission denied" in capsys.readouterr().err


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo configuration\n"
            "n = 16\n"
            "paths = 1\n"
            "snr-grid = 10,20\n"
            "realizations = 10\n"
            "seed = 7\n"
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli("mc-success", "--config", str(cfg), "--out", str(out1)) == 0
        # Overriding the seed must change the result; everything else is shared.
        assert run_cli(
            "mc-success", "--config", str(cfg), "--seed", "8", "--out", str(out2)
        ) == 0
        assert out1.read_text() != out2.read_text()
        assert out1.read_text().splitlines()[0] == "snr_db,method,policy,success,stderr"

    def test_config_carries_negative_list(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("n = 8\nmethods = deact\nsnr_grid = -10,0,10\nrealizations = 2\n")
        out = tmp_path / "s.csv"
        assert run_cli("mc-success", "--config", str(cfg), "--out", str(out)) == 0
        snr = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert snr == {"-10.0", "0.0", "10.0"}

    def test_config_turns_boolean_flag_on(self, tmp_path, capsys):
        cfg = tmp_path / "on.cfg"
        for word in ("true", "Yes", "on", "1"):
            cfg.write_text(f"validate = {word}\n")
            assert run_cli("codebook", "--config", str(cfg), "--method", "deact", "--n", "16") == 0
            assert "validation: PASS" in capsys.readouterr().out

    def test_config_leaves_boolean_flag_off(self, tmp_path, capsys):
        cfg = tmp_path / "off.cfg"
        for word in ("false", "No", "off", "0"):
            cfg.write_text(f"validate = {word}\n")
            assert run_cli("codebook", "--config", str(cfg), "--method", "deact", "--n", "16") == 0
            assert "validation" not in capsys.readouterr().out

    def test_config_rejects_non_boolean_flag_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("validate = maybe\n")
        assert run_cli("codebook", "--config", str(cfg), "--method", "deact", "--n", "16") == 2
        assert "validate" in capsys.readouterr().err

    def test_malformed_config_line_errors(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("realizations 10\n")
        assert run_cli("mc-success", "--config", str(cfg)) == 2

    def test_unknown_config_key_errors(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        code = None
        try:
            code = run_cli("mc-success", "--config", str(cfg))
        except SystemExit as exc:  # argparse exits on unknown options
            code = exc.code
        assert code == 2


class TestProcessLevel:
    def test_usage_error_is_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "beamtrain", "mc-success", "--realizations", "nope"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_byte_identical_csv_across_runs_and_jobs(self, tmp_path):
        args = [
            "mc-success", "--n", "16", "--paths", "1", "--snr-grid", "10,20",
            "--realizations", "20", "--seed", "5",
        ]
        outputs = []
        for jobs, name in (("1", "a.csv"), ("2", "b.csv"), ("1", "c.csv")):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "beamtrain", *args, "--jobs", jobs, "--out", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
