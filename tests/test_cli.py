import json
import tracemalloc

import pytest

from conftest import run_python

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
1,rx,1,2,2,1.6718027755285205,1.6455341073516452
2,rx,3,4,3,4.703040079061034,4.69048606455502
3,rx,5,6,6,6.577386922660684,6.5582017787285185
4,tx,1,2,2,8.626461977362,8.627489049393544
5,tx,3,4,4,19.782098579019383,19.815888672909367
6,tx,7,8,7,37.01303950081191,37.08049025463053
"""

# `search --n-tx 8 --n-rx 32 --power-mode per-antenna --seed 3`: unequal
# arrays, so the rx side has more stages than the tx side.
PINNED_SEARCH_8X32_STDOUT = """\
stage side     cands winner      y_power         gain
    1   rx     (1,2)      2       7.6317       7.6432
    2   rx     (3,4)      4       7.5688       7.5644
    3   rx     (7,8)      8       26.869       26.928
    4   rx   (15,16)     15       39.292       39.385
    5   rx   (29,30)     29       42.801       42.861
    6   tx     (1,2)      1       145.92       145.92
    7   tx     (1,2)      1       158.26       158.13
    8   tx     (1,2)      2       331.38       331.18
found pair (tx=2, rx=29); exhaustive pair (tx=2, rx=29), bound gain 331.18
policy match-exhaustive: success
policy align-any-mpc: success
policy align-strongest: success
"""
PINNED_SEARCH_8X32_CSV = """\
stage,side,candidate_1,candidate_2,winner,y_power,noiseless_gain
1,rx,1,2,2,7.6316718528418575,7.643221647083483
2,rx,3,4,4,7.568800152846889,7.564413151551644
3,rx,7,8,8,26.86865321978336,26.92756354986171
4,rx,15,16,15,39.29157510711263,39.38508258016527
5,rx,29,30,29,42.80098439083463,42.8610845563948
6,tx,1,2,1,145.91795326989347,145.9223646823565
7,tx,1,2,1,158.25697553834013,158.1257661213044
8,tx,1,2,2,331.37526504135826,331.1766753974634
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

    def test_unequal_array_output_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "search", "--n-tx", "8", "--n-rx", "32", "--power-mode", "per-antenna",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert capsys.readouterr().out == PINNED_SEARCH_8X32_STDOUT + f"wrote {out}\n"
        assert out.read_text() == PINNED_SEARCH_8X32_CSV

    def test_requires_single_method(self, capsys):
        assert run_cli("search", "--n", "16", "--methods", "bmw-ss,deact") == 2

    def test_default_method_is_bmw_ss(self, capsys):
        assert run_cli("search", "--n", "8", "--channel", "los", "--seed", "7") == 0
        assert capsys.readouterr().out == PINNED_SEARCH_STDOUT

    @pytest.mark.parametrize("option", [("-r", "0"), ("--realizations", "5"), ("--jobs", "2")])
    def test_rejects_monte_carlo_options(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--n", "8", *option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "config, args, n_steps",
        [
            ("n = 8\n", ["--n-tx", "16"], 7),
            (None, ["--n", "8", "--n-tx", "16"], 7),
            (None, ["--n-tx", "16", "--n", "8"], 6),
        ],
        ids=["config-n-then-n-tx", "n-then-n-tx", "n-tx-then-n"],
    )
    def test_later_array_size_wins(self, config, args, n_steps, tmp_path):
        if config is not None:
            (tmp_path / "n.cfg").write_text(config)
            args = ["--config", str(tmp_path / "n.cfg"), *args]
        out = tmp_path / "p.csv"
        assert run_cli("mc-power", *args, "--channel", "los", "-r", "2", "--out", str(out)) == 0
        steps = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert max(steps) == n_steps  # log2(n_tx) + log2(n_rx)


class TestBadInput:
    @pytest.mark.parametrize("grid", ["--snr-grid=nan", "--snr-grid=-inf,0"])
    def test_non_finite_snr_grid_exits_2(self, grid, capsys):
        assert run_cli("mc-success", "--n", "8", grid, "-r", "5") == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_eta_db_exits_2(self, capsys):
        code = run_cli("mc-power", "--n", "8", "--channel", "los", "--eta-db", "nan", "-r", "3")
        assert code == 2
        assert "eta_db" in capsys.readouterr().err

    def test_bad_parent_rho_is_named(self, capsys):
        code = run_cli("codebook", "--method", "deact", "--n", "1", "--validate",
                       "--parent-rho", "nan")
        assert code == 2
        captured = capsys.readouterr()
        assert "parent_rho must lie strictly between 0 and 1" in captured.err
        assert "validation" not in captured.out

    def test_negative_seed_exits_2(self, capsys):
        assert run_cli("mc-success", "--n", "8", "-r", "2", "--seed", "-1") == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("codewords", ["9:1", "", ";"])
    def test_bad_codewords_name_the_format(self, tmp_path, capsys, codewords):
        with pytest.raises(SystemExit) as exc:
            run_cli("pattern", "--method", "deact", "--n", "8", "--codewords", codewords,
                    "--out", str(tmp_path / "p.csv"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --codewords: expected layer,index;layer,index, got {codewords!r}" in err
        assert not (tmp_path / "p.csv").exists()

    def test_repeated_codeword_exits_2(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = run_cli("pattern", "--method", "deact", "--n", "8", "--codewords", "1,1;0,1;1,1",
                       "--out", str(out))
        assert code == 2
        assert "codeword at layer 1, index 1 is repeated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-success", "mc-power"])
    def test_repeated_method_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(command, "--n", "8", "-r", "5", "--methods", "bmw-ss,deact,bmw-ss",
                       "--out", str(out))
        assert code == 2
        assert "methods must not repeat, got bmw-ss,deact,bmw-ss" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-success", "mc-power", "search"])
    def test_unknown_method_names_the_choices(self, command, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--n", "8", "--methods", "deact,foo", "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --methods: invalid choice: 'foo' (choose from 'bmw-ss', 'deact')" in err
        assert not out.exists()

    def test_bad_snr_grid_names_the_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("mc-success", "--n", "8", "-r", "2", "--snr-grid", "1,x")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --snr-grid: expected comma-separated numbers, got '1,x'" in err

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

    @pytest.mark.parametrize("spelling", [("--config={}",), ("--conf", "{}")])
    def test_config_in_any_spelling_is_read(self, spelling, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("validate = true\n")
        flag = [token.format(cfg) for token in spelling]
        assert run_cli("codebook", "--method", "deact", "--n", "8", *flag) == 0
        assert "validation: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("spelling", [("--config={}",), ("--config", "{}"), ("--conf", "{}")])
    def test_missing_config_file_exits_2(self, spelling, tmp_path, capsys):
        flag = [token.format(tmp_path / "missing.cfg") for token in spelling]
        assert run_cli("codebook", "--method", "deact", "--n", "8", *flag) == 2
        assert "config error" in capsys.readouterr().err

    def test_config_can_supply_required_options(self, tmp_path, capsys):
        cfg = tmp_path / "cb.cfg"
        cfg.write_text("method = deact\nn = 8\nvalidate = on\n")
        assert run_cli("codebook", "--config", str(cfg)) == 0
        assert "validation: PASS" in capsys.readouterr().out

    def test_search_config_naming_monte_carlo_options_exits_2(self, tmp_path):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("realizations = 10\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--n", "8", "--config", str(cfg))
        assert exc.value.code == 2

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
        proc = run_python("-m", "beamtrain", "mc-success", "--realizations", "nope",
                          capture_output=True)
        assert proc.returncode == 2

    def test_one_worker_run_never_loads_the_process_pool(self, tmp_path):
        # A fresh interpreter, because pytest may already have loaded multiprocessing
        # and dataclasses.  Modules that numpy loads itself are not beamtrain's.
        probe = (
            "import json, sys\n"
            "import numpy\n"
            "with_numpy = set(sys.modules)\n"
            "import beamtrain.cli\n"
            "pool = ('concurrent.futures.process', 'multiprocessing')\n"
            "loaded = lambda: sorted(m for m in sys.modules"
            " if m in pool or m.startswith('beamtrain.'))\n"
            "after_import = loaded()\n"
            "slow = sorted({'dataclasses'} & (set(sys.modules) - with_numpy))\n"
            "import enum\n"
            "slow += sorted({f'{v.__module__}.{v.__name__}' for m in list(sys.modules.values())"
            " for v in vars(m).values() if isinstance(v, type) and issubclass(v, enum.Enum)"
            " and v.__module__.startswith('beamtrain')})\n"
            "code = beamtrain.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, after_import, loaded(), slow]))\n"
        )
        args = ["mc-success", "--n", "8", "--snr-grid", "10", "--realizations", "4",
                "--jobs", "1", "--out", str(tmp_path / "a.csv")]
        proc = run_python("-c", probe, *args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, after_import, after_run, slow = json.loads(proc.stdout.splitlines()[-1])
        # Every beamtrain module loads with the CLI, so none is imported late.
        expected = [f"beamtrain.{m}" for m in
                    ("arrays", "channels", "cli", "codebooks", "experiments", "search")]
        assert code == 0
        assert after_import == expected
        assert after_run == expected
        # Building dataclasses at import cost every process about 6-9 ms of
        # start-up, and building each 3-member str Enum 0.15-0.3 ms.
        assert slow == []

    @pytest.mark.parametrize(
        "args",
        [
            ["mc-success", "--n", "16", "--paths", "1", "--snr-grid", "10,20"],
            ["mc-power", "--n", "16", "--paths", "2", "--channel", "both"],
        ],
        ids=["mc-success", "mc-power"],
    )
    def test_byte_identical_csv_across_runs_and_jobs(self, tmp_path, args):
        args = [*args, "--realizations", "20", "--seed", "5"]
        outputs = []
        for jobs, name in (("1", "a.csv"), ("2", "b.csv"), ("1", "c.csv")):
            path = tmp_path / name
            proc = run_python("-m", "beamtrain", *args, "--jobs", jobs, "--out", str(path),
                              capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
