"""The value classes' contract: read-only fields, pickling to pool workers,
constructor defaults and order, per-instance result dicts, the errors that
name each vocabulary's choices, and the argument types a config refuses."""

import pickle
import re

import numpy as np
import pytest

from beamtrain import (
    ChannelParams,
    ExperimentConfig,
    PowerModel,
    export_codebook,
    generate_codebook,
    load_codebook,
    validate_codebook,
)
from beamtrain.codebooks import CoverageReport
from beamtrain.experiments import ExperimentResult


# One instance of each read-only class, with a field name it has.
READ_ONLY = [
    (ChannelParams(8, 16, 2, "los", 10.0), "n_paths"),
    (PowerModel("per-antenna", 0.5), "noise_power"),
    (generate_codebook("deact", 8), "layers"),
    (CoverageReport(0.5, (np.arange(2.0),), ()), "rho"),
    (ExperimentConfig(n_tx=8, n_rx=16, realizations=3), "seed"),
]


@pytest.mark.parametrize("value, name", READ_ONLY, ids=[type(v).__name__ for v, _ in READ_ONLY])
def test_fields_are_read_only(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, name) is before


def _fields(value):
    return {name: field for name, field in vars(value).items() if name != "_params"}


@pytest.mark.parametrize(
    "value",
    [
        ChannelParams(8, 16, 2, "los", 10.0),
        PowerModel("per-antenna", 0.5),
        ExperimentConfig(8, 16, ("deact",), "both", 2, 9.0, "per-antenna", (0.0, 5.0), 7, 3, 2),
    ],
    ids=lambda v: type(v).__name__,
)
def test_pickle_round_trip_keeps_fields_and_stays_read_only(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert _fields(copy) == _fields(value)
    with pytest.raises(AttributeError):
        copy.seed = 0
    if isinstance(value, ExperimentConfig):
        for kind in value.kinds:
            assert vars(copy.channel_params(kind)) == vars(value.channel_params(kind))


def test_config_defaults():
    cfg = ExperimentConfig()
    assert _fields(cfg) == {
        "n_tx": 64,
        "n_rx": 64,
        "methods": ("bmw-ss", "deact"),
        "channel": "nlos",
        "n_paths": 3,
        "eta_db": 15.0,
        "power_mode": "total",
        "snr_db": tuple(float(x) for x in range(0, 45, 5)),
        "realizations": 1000,
        "seed": 1,
        "jobs": 1,
        "n_steps": 12,
    }
    assert vars(cfg.channel_params("nlos")) == {
        "n_tx": 64, "n_rx": 64, "n_paths": 3, "kind": "nlos", "eta_db": 15.0,
    }


def test_constructors_keep_positional_order():
    cfg = ExperimentConfig(8, 16, ("deact",), "los", 2, 9.0, "per-antenna", (0, 5), 7, 3, 2)
    assert (cfg.n_tx, cfg.n_rx, cfg.methods, cfg.channel, cfg.n_paths, cfg.eta_db) == (
        8, 16, ("deact",), "los", 2, 9.0,
    )
    assert (cfg.power_mode, cfg.snr_db, cfg.realizations, cfg.seed, cfg.jobs) == (
        "per-antenna", (0.0, 5.0), 7, 3, 2,
    )
    assert cfg.n_steps == 7
    params = ChannelParams(8, 16, 2, "los", 10.0)
    assert (params.n_tx, params.n_rx, params.n_paths, params.kind, params.eta_db) == (
        8, 16, 2, "los", 10.0,
    )
    pm = PowerModel("per-antenna", 0.5)
    assert (pm.mode, pm.noise_power) == ("per-antenna", 0.5)
    result = ExperimentResult(("a",), [(1,)], {"s": 1}, {"m": 2})
    assert (result.columns, result.rows, result.stats, result.meta) == (
        ("a",), [(1,)], {"s": 1}, {"m": 2},
    )


def test_results_never_share_dicts():
    first, second = ExperimentResult(("a",), []), ExperimentResult(("a",), [])
    assert first.stats == first.meta == {}
    first.stats["x"] = 1
    first.meta["elapsed_s"] = 0.5
    assert second.stats == second.meta == {}
    assert first.stats is not second.stats and first.meta is not second.meta
    first.rows = [(1,)]  # results stay mutable
    assert first.rows == [(1,)]


def _load_foo(tmp_path):
    path = tmp_path / "cb.txt"
    export_codebook(generate_codebook("deact", 4), path)
    path.write_text(path.read_text().replace("method deact", "method foo"))
    return load_codebook(path)


@pytest.mark.parametrize(
    "make, choices",
    [
        (lambda _: ExperimentConfig(methods=("foo",)), "bmw-ss, deact"),
        (lambda _: ExperimentConfig(power_mode="foo"), "total, per-antenna"),
        (lambda _: ExperimentConfig(channel="foo"), "los, nlos, both"),
        (lambda _: PowerModel("foo", 0.0), "total, per-antenna"),
        (lambda _: ChannelParams(8, 8, kind="foo"), "los, nlos"),
        (lambda _: generate_codebook("foo", 8), "bmw-ss, deact"),
        (_load_foo, "bmw-ss, deact"),
    ],
    ids=["methods", "power_mode", "channel", "PowerModel", "ChannelParams",
         "generate_codebook", "load_codebook"],
)
def test_unknown_choice_names_the_valid_ones(make, choices, tmp_path):
    with pytest.raises(ValueError, match=f"must be one of {choices}; got 'foo'"):
        make(tmp_path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("methods", "deact"),
        ("snr_db", 5.0),
        ("n_tx", 8.0),
        ("n_rx", 8.0),
        ("n_paths", 2.5),
        ("realizations", 2.5),
        ("seed", 1.0),
        ("jobs", 2.0),
    ],
)
def test_config_refuses_wrong_types(field, value):
    # A bare string or number is refused by name, not split or truncated.
    fields = {"n_tx": 8, "n_rx": 8, "realizations": 2, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {re.escape(repr(value))}$"):
        ExperimentConfig(**fields)


def test_config_takes_numpy_integers():
    cfg = ExperimentConfig(np.int64(8), np.int32(16), realizations=np.uint8(3), seed=np.uint64(7))
    assert (cfg.n_tx, cfg.n_rx, cfg.realizations, cfg.seed) == (8, 16, 3, 7)
    assert {type(x) for x in (cfg.n_tx, cfg.n_rx, cfg.realizations, cfg.seed)} == {int}


@pytest.mark.parametrize(
    "make, field, value",
    [
        (lambda v: ChannelParams(8, 8, v, "los"), "n_paths", 2.5),
        (lambda v: ChannelParams(v, 8), "n_tx", 8.5),
        (lambda v: ChannelParams(8, v), "n_rx", 8.0),
        (lambda v: generate_codebook("deact", v), "n", 8.0),
        (lambda v: validate_codebook(generate_codebook("deact", 8), grid_points=v),
         "grid_points", 4096.0),
    ],
    ids=["ChannelParams.n_paths", "ChannelParams.n_tx", "ChannelParams.n_rx",
         "generate_codebook", "validate_codebook"],
)
def test_library_refuses_non_integers(make, field, value):
    message = rf"^{field} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        make(value)


def test_library_takes_numpy_integers():
    params = ChannelParams(np.int64(8), np.int32(16), np.uint8(2))
    cb = generate_codebook("deact", np.int64(8))
    assert (params.n_tx, params.n_rx, params.n_paths, cb.n) == (8, 16, 2, 8)
    assert {type(x) for x in (params.n_tx, params.n_rx, params.n_paths, cb.n)} == {int}
    report = validate_codebook(cb, grid_points=np.int64(64))
    assert report.summary_lines() == validate_codebook(cb, grid_points=64).summary_lines()
