import math

import numpy as np
import pytest
from scipy import stats

import reference
from beamtrain import ChannelParams, PowerModel, draw_paths, steering_weights
from beamtrain.arrays import MAX_PATHS
from beamtrain.search import PathBlock, lockstep_exhaustive


def literal_pair_scan(h):
    """Double loop over every pair of last-layer steering vectors."""
    n_rx, n_tx = h.shape
    best = 0.0
    for i in range(n_tx):
        w_t = steering_weights(n_tx, -1 + (2 * (i + 1) - 1) / n_tx)
        for j in range(n_rx):
            w_r = steering_weights(n_rx, -1 + (2 * (j + 1) - 1) / n_rx)
            best = max(best, abs(w_r.conj() @ h @ w_t) ** 2)
    return best


def oracle_gain(n, coeff, omega, psi):
    """The engine's exhaustive gain for one realization's paths."""
    block = PathBlock(*(np.array([x]) for x in (coeff, omega, psi)), n, n)
    return lockstep_exhaustive(block, PowerModel("total", 0.0))[1][0]


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
        # The engine's per-path responses rebuild the dense channel.
        params = ChannelParams(n_tx=16, n_rx=8, n_paths=4, kind="nlos")
        coeff, omega, psi = draw_paths(params, np.random.default_rng(1))
        block = PathBlock(coeff[np.newaxis], omega[np.newaxis], psi[np.newaxis], 16, 8)
        a_rx, a_tx = block.a_rx[0], block.a_tx[0]  # (L, N) each
        rebuilt = math.sqrt(16 * 8) * (a_rx.T * coeff) @ a_tx.conj()
        want = reference.channel_matrix(16, 8, coeff, omega, psi)
        np.testing.assert_allclose(rebuilt, want, atol=1e-12)

    def test_angles_within_domain(self):
        _, omega, psi = draw_paths(ChannelParams(8, 8, 6), np.random.default_rng(2))
        assert np.all(np.abs(omega) <= 1.0) and np.all(np.abs(psi) <= 1.0)

    def test_deterministic_given_seed(self):
        params = ChannelParams(8, 8, 3)
        a = draw_paths(params, np.random.default_rng(42))
        b = draw_paths(params, np.random.default_rng(42))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_path_power_normalization(self):
        params = ChannelParams(4, 4, 1, kind="nlos")
        rng = np.random.default_rng(3)
        powers = [abs(draw_paths(params, rng)[0][0]) ** 2 for _ in range(10_000)]
        assert np.mean(powers) == pytest.approx(1.0, abs=0.05)

    def test_dominant_path_power_gap(self):
        gap = 10.0 ** 1.5
        params = ChannelParams(4, 4, 3, kind="los", eta_db=15.0)
        rng = np.random.default_rng(4)
        lead, diffuse = [], []
        for _ in range(4000):
            coeff = draw_paths(params, rng)[0]
            lead.append(abs(coeff[0]) ** 2)
            diffuse.extend(np.abs(coeff[1:]) ** 2)
        # The dominant coefficient is deterministic with zero phase.
        assert np.std(lead) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(lead) / np.mean(diffuse) == pytest.approx(gap, rel=0.05)

    def test_total_power_normalized_for_both_kinds(self):
        for kind in ("nlos", "los"):
            params = ChannelParams(4, 4, 3, kind=kind, eta_db=15.0)
            rng = np.random.default_rng(5)
            totals = [np.sum(np.abs(draw_paths(params, rng)[0]) ** 2) for _ in range(5000)]
            se = np.std(totals, ddof=1) / np.sqrt(len(totals))
            assert abs(np.mean(totals) - 1.0) < 3 * se + 1e-9

    def test_cosine_angles_have_arcsine_law(self):
        params = ChannelParams(4, 4, 1)
        rng = np.random.default_rng(6)
        omegas = [draw_paths(params, rng)[1][0] for _ in range(4000)]
        # cos(uniform angle) has the arcsine distribution on [-1, 1]
        res = stats.kstest(omegas, stats.arcsine(loc=-1, scale=2).cdf)
        assert res.pvalue > 0.01


class TestMatrix:
    """The reference's dense channel matrix."""

    def test_all_ones_for_broadside_unit_path(self):
        h = reference.channel_matrix(4, 4, [1.0], [0.0], [0.0])
        np.testing.assert_allclose(h, np.ones((4, 4)), atol=1e-14)

    def test_single_path_is_outer_product_of_steering_weights(self):
        coeff, omega, psi = 0.3 - 0.4j, 0.37, -0.81
        a_rx = steering_weights(16, omega)
        a_tx = steering_weights(8, psi)
        want = math.sqrt(8 * 16) * (coeff * np.outer(a_rx, a_tx.conj()))
        assert np.array_equal(reference.channel_matrix(8, 16, [coeff], [omega], [psi]), want)


class TestBestPairGain:
    """The exhaustive oracle's gain against a literal scan of leaf pairs."""

    def test_on_grid_single_path(self):
        angle = -1 + 1 / 16  # first last-layer sample point on both sides
        assert oracle_gain(16, [1.0], [angle], [angle]) == pytest.approx(256.0, rel=1e-12)

    def test_matches_literal_double_loop(self):
        params = ChannelParams(16, 16, 2)
        for seed in range(3):
            paths = draw_paths(params, np.random.default_rng(seed))
            h = reference.channel_matrix(16, 16, *paths)
            assert oracle_gain(16, *paths) == pytest.approx(literal_pair_scan(h), rel=1e-10)

    def test_zero_matrix(self):
        assert oracle_gain(8, [0.0], [0.0], [0.0]) == 0.0


class TestInputChecks:
    @pytest.mark.parametrize("eta_db", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_eta_db(self, eta_db):
        with pytest.raises(ValueError, match="eta_db"):
            ChannelParams(8, 8, 3, kind="los", eta_db=eta_db)

    @pytest.mark.parametrize("eta_db", [4000.0, -4000.0])
    def test_params_reject_eta_db_out_of_float_range(self, eta_db):
        # 10**(eta_db/10) overflows (or underflows to zero, which leaves a
        # one-path LOS channel with no power to normalize).
        with pytest.raises(ValueError, match="eta_db"):
            ChannelParams(8, 8, 1, kind="los", eta_db=eta_db)
