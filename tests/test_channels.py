import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from beamtrain import (
    Channel,
    ChannelKind,
    ChannelParams,
    Mpc,
    PowerModel,
    assemble_matrix,
    dump_channel,
    exhaustive_search,
    load_channel,
    sample_channel,
    steering_weights,
)
from beamtrain.arrays import MAX_PATHS


def literal_pair_scan(ch):
    """Double loop over every pair of last-layer steering vectors."""
    best = 0.0
    for i in range(ch.n_tx):
        w_t = steering_weights(ch.n_tx, -1 + (2 * (i + 1) - 1) / ch.n_tx)
        for j in range(ch.n_rx):
            w_r = steering_weights(ch.n_rx, -1 + (2 * (j + 1) - 1) / ch.n_rx)
            best = max(best, abs(ch.coupling(w_t, w_r)) ** 2)
    return best


def oracle_gain(ch):
    return exhaustive_search(ch, PowerModel.total(1.0, 0.0))[2]


class TestSampling:
    def test_requires_at_least_one_path(self):
        with pytest.raises(ValueError):
            ChannelParams(n_tx=4, n_rx=4, n_paths=0)

    def test_path_count_cap_boundary(self):
        # MAX_PATHS is the most accepted; checked before any path is drawn.
        assert ChannelParams(4, 4, MAX_PATHS).n_paths == MAX_PATHS
        with pytest.raises(ValueError, match="n_paths"):
            ChannelParams(4, 4, MAX_PATHS + 1)

    def test_matrix_matches_path_sum(self):
        params = ChannelParams(n_tx=16, n_rx=8, n_paths=4, kind=ChannelKind.NLOS)
        ch = sample_channel(params, np.random.default_rng(1))
        rebuilt = assemble_matrix(ch.n_tx, ch.n_rx, ch.mpcs)
        np.testing.assert_allclose(rebuilt, ch.matrix, atol=1e-12)

    def test_angles_within_domain(self):
        ch = sample_channel(ChannelParams(8, 8, 6), np.random.default_rng(2))
        for m in ch.mpcs:
            assert abs(m.omega) <= 1.0 and abs(m.psi) <= 1.0

    def test_deterministic_given_seed(self):
        params = ChannelParams(8, 8, 3)
        a = sample_channel(params, np.random.default_rng(42))
        b = sample_channel(params, np.random.default_rng(42))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_single_path_power_normalization(self):
        params = ChannelParams(4, 4, 1, kind=ChannelKind.NLOS)
        rng = np.random.default_rng(3)
        powers = [abs(sample_channel(params, rng).mpcs[0].coeff) ** 2 for _ in range(10_000)]
        assert np.mean(powers) == pytest.approx(1.0, abs=0.05)

    def test_dominant_path_power_gap(self):
        gap = 10.0 ** 1.5
        params = ChannelParams(4, 4, 3, kind=ChannelKind.LOS, eta_db=15.0)
        rng = np.random.default_rng(4)
        lead, diffuse = [], []
        for _ in range(4000):
            ch = sample_channel(params, rng)
            lead.append(abs(ch.mpcs[0].coeff) ** 2)
            diffuse.extend(abs(m.coeff) ** 2 for m in ch.mpcs[1:])
        # The dominant coefficient is deterministic with zero phase.
        assert np.std(lead) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(lead) / np.mean(diffuse) == pytest.approx(gap, rel=0.05)

    def test_total_power_normalized_for_both_kinds(self):
        for kind in (ChannelKind.NLOS, ChannelKind.LOS):
            params = ChannelParams(4, 4, 3, kind=kind, eta_db=15.0)
            rng = np.random.default_rng(5)
            totals = []
            for _ in range(5000):
                ch = sample_channel(params, rng)
                totals.append(sum(abs(m.coeff) ** 2 for m in ch.mpcs))
            se = np.std(totals, ddof=1) / np.sqrt(len(totals))
            assert abs(np.mean(totals) - 1.0) < 3 * se + 1e-9

    def test_cosine_angles_have_arcsine_law(self):
        params = ChannelParams(4, 4, 1)
        rng = np.random.default_rng(6)
        omegas = [sample_channel(params, rng).mpcs[0].omega for _ in range(4000)]
        # cos(uniform angle) has the arcsine distribution on [-1, 1]
        res = stats.kstest(omegas, stats.arcsine(loc=-1, scale=2).cdf)
        assert res.pvalue > 0.01


class TestMatrix:
    def test_all_ones_for_broadside_unit_path(self):
        ch = Channel(
            n_tx=4,
            n_rx=4,
            mpcs=(Mpc(coeff=1.0, omega=0.0, psi=0.0),),
            matrix=assemble_matrix(4, 4, [Mpc(coeff=1.0, omega=0.0, psi=0.0)]),
        )
        np.testing.assert_allclose(ch.matrix, np.ones((4, 4)), atol=1e-14)

    def test_single_path_is_outer_product_of_steering_weights(self):
        mpc = Mpc(coeff=0.3 - 0.4j, omega=0.37, psi=-0.81)
        a_rx = steering_weights(16, mpc.omega)
        a_tx = steering_weights(8, mpc.psi)
        want = math.sqrt(8 * 16) * (mpc.coeff * np.outer(a_rx, a_tx.conj()))
        assert np.array_equal(assemble_matrix(8, 16, [mpc]), want)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Channel(n_tx=4, n_rx=4, mpcs=(), matrix=np.zeros((2, 4), dtype=complex))


class TestBestPairGain:
    """The exhaustive oracle's gain against a literal scan of leaf pairs."""

    def test_on_grid_single_path(self):
        angle = -1 + 1 / 16  # first last-layer sample point on both sides
        mpc = Mpc(coeff=1.0, omega=angle, psi=angle)
        ch = Channel(16, 16, (mpc,), assemble_matrix(16, 16, [mpc]))
        assert oracle_gain(ch) == pytest.approx(256.0, rel=1e-12)

    def test_matches_literal_double_loop(self):
        params = ChannelParams(16, 16, 2)
        for seed in range(3):
            ch = sample_channel(params, np.random.default_rng(seed))
            assert oracle_gain(ch) == pytest.approx(literal_pair_scan(ch), rel=1e-10)

    def test_zero_matrix(self):
        ch = Channel(8, 8, (), np.zeros((8, 8), dtype=complex))
        assert oracle_gain(ch) == 0.0


class TestInputChecks:
    @pytest.mark.parametrize(
        "omega, psi", [(math.nan, 0.0), (0.0, math.nan), (1.5, 0.0), (0.0, -1.5)]
    )
    def test_mpc_rejects_angles_outside_domain(self, omega, psi):
        with pytest.raises(ValueError):
            Mpc(1.0, omega, psi)

    @pytest.mark.parametrize("eta_db", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_eta_db(self, eta_db):
        with pytest.raises(ValueError, match="eta_db"):
            ChannelParams(8, 8, 3, kind=ChannelKind.LOS, eta_db=eta_db)

    @pytest.mark.parametrize("eta_db", [4000.0, -4000.0])
    def test_params_reject_eta_db_out_of_float_range(self, eta_db):
        # 10**(eta_db/10) overflows (or underflows to zero, which leaves a
        # one-path LOS channel with no power to normalize).
        with pytest.raises(ValueError, match="eta_db"):
            ChannelParams(8, 8, 1, kind=ChannelKind.LOS, eta_db=eta_db)


class TestDumpFormat:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kind=st.sampled_from(list(ChannelKind)),
        n_paths=st.integers(1, 4),
        n_tx=st.integers(1, 64),
        n_rx=st.integers(1, 64),
        eta_db=st.floats(-20.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, tmp_path, kind, n_paths, n_tx, n_rx, eta_db, seed):
        params = ChannelParams(n_tx, n_rx, n_paths, kind=kind, eta_db=eta_db)
        ch = sample_channel(params, np.random.default_rng(seed))
        path = tmp_path / "ch.txt"
        dump_channel(ch, path)
        loaded = load_channel(path)
        assert loaded.n_tx == ch.n_tx and loaded.n_rx == ch.n_rx
        assert loaded.mpcs == ch.mpcs
        np.testing.assert_array_equal(loaded.matrix, ch.matrix)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("beamtrain-codebook-v1\n")
        with pytest.raises(ValueError):
            load_channel(path)

    @pytest.mark.parametrize("key", ["n_tx", "n_rx", "paths"])
    def test_missing_header_line_names_key(self, tmp_path, key):
        path = tmp_path / "ch.txt"
        dump_channel(sample_channel(ChannelParams(4, 8, 2), np.random.default_rng(0)), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"missing header line '{key}'"):
            load_channel(path)
