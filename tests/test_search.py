import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import (
    AdjudicationPolicy,
    Channel,
    ChannelKind,
    ChannelParams,
    Mpc,
    PowerMode,
    PowerModel,
    adjudicate,
    assemble_matrix,
    channel_from_paths,
    draw_paths,
    exhaustive_search,
    generate_codebook,
    hierarchical_search,
    leaf_angles,
    measure,
    nearest_leaf,
    sample_channel,
    steering_weights,
)
from beamtrain.search import (
    TRACE_COLUMNS,
    PathBlock,
    lockstep_adjudicate,
    lockstep_exhaustive,
    lockstep_search,
)


def unit_path_channel(n, omega, psi, coeff=1.0):
    mpc = Mpc(coeff=coeff, omega=omega, psi=psi)
    return Channel(n, n, (mpc,), assemble_matrix(n, n, [mpc]))


class TestPowerModel:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            PowerModel(PowerMode.TOTAL, 0.0, 1e-4)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            PowerModel(PowerMode.TOTAL, 1.0, -1e-4)

    def test_from_snr_db(self):
        pm = PowerModel.from_snr_db("total", 40.0)
        assert pm.power == 1.0
        assert pm.noise_power == pytest.approx(1e-4)

    @pytest.mark.parametrize("snr_db, power", [(-4000.0, 1.0), (-3000.0, 1e10)])
    def test_from_snr_db_rejects_overflowing_noise_floor(self, snr_db, power):
        with pytest.raises(ValueError, match="snr_db"):
            PowerModel.from_snr_db("total", snr_db, power)

    def test_tx_power_scaling(self):
        tot = PowerModel.total(2.0, 1e-4)
        per = PowerModel.per_antenna(2.0, 1e-4)
        assert tot.tx_power(64) == 2.0
        assert per.tx_power(64) == 128.0

    def test_gain_scaling(self):
        tot = PowerModel.total(1.0, 0.0)
        per = PowerModel.per_antenna(1.0, 0.0)
        assert tot.gain(0.5, 64) == 0.5
        assert per.gain(0.5, 64) == 32.0


class TestMeasure:
    def test_noiseless_total_power(self):
        ch = unit_path_channel(8, 0.3, -0.2)
        w_t = steering_weights(8, -0.2)
        w_r = steering_weights(8, 0.3)
        pm = PowerModel.total(1.0, 0.0)
        y_power, noiseless_gain = measure(
            w_t, w_r, ch, pm, np.random.default_rng(0)
        )
        want = abs(ch.coupling(w_t, w_r)) ** 2
        assert y_power == pytest.approx(want, rel=1e-12)
        assert noiseless_gain == pytest.approx(want, rel=1e-12)

    def test_per_antenna_gain_includes_active_count(self):
        ch = unit_path_channel(8, 0.3, -0.2)
        w_t = steering_weights(8, -0.2)
        w_r = steering_weights(8, 0.3)
        _, noiseless_gain = measure(
            w_t, w_r, ch, PowerModel.per_antenna(1.0, 0.0), np.random.default_rng(0)
        )
        assert noiseless_gain == pytest.approx(
            8 * abs(ch.coupling(w_t, w_r)) ** 2, rel=1e-12
        )

    def test_zero_channel_noise_expectation(self):
        # With a dead channel the measured power is pure combined noise,
        # whose expectation is the per-antenna noise power.
        n0 = 2.5e-3
        ch = Channel(4, 8, (), np.zeros((8, 4), dtype=complex))
        pm = PowerModel.total(1.0, n0)
        w_t, w_r = steering_weights(4, 0.0), steering_weights(8, 0.0)
        rng = np.random.default_rng(1)
        draws = np.array(
            [measure(w_t, w_r, ch, pm, rng)[0] for _ in range(100_000)]
        )
        # |y|^2 is exponential with mean n0, so the standard error is n0/sqrt(R).
        assert np.mean(draws) == pytest.approx(n0, abs=3 * n0 / np.sqrt(draws.size))

    def test_rejects_size_mismatch(self):
        ch = unit_path_channel(8, 0.0, 0.0)
        with pytest.raises(ValueError):
            measure(
                steering_weights(4, 0.0),
                steering_weights(8, 0.0),
                ch,
                PowerModel.total(),
                np.random.default_rng(0),
            )


class TestHierarchicalSearch:
    def test_trace_has_expected_shape(self):
        cb = generate_codebook("bmw-ss", 64)
        ch = sample_channel(ChannelParams(64, 64, 3), np.random.default_rng(2))
        out = hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(3))
        assert len(out.trace) == 12
        assert [s.side for s in out.trace] == ["rx"] * 6 + ["tx"] * 6
        assert [s.stage for s in out.trace] == list(range(1, 13))
        for row in out.trace:
            assert row.winner in (row.candidate_1, row.candidate_2)
            assert row.candidate_2 == row.candidate_1 + 1

    def test_zero_channel_still_completes(self):
        cb = generate_codebook("deact", 16)
        ch = Channel(16, 16, (), np.zeros((16, 16), dtype=complex))
        out = hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(4))
        assert len(out.trace) == 8
        assert 1 <= out.pair[0] <= 16 and 1 <= out.pair[1] <= 16

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    def test_noiseless_single_path_finds_best_pair(self, method):
        cb = generate_codebook(method, 16)
        pm = PowerModel.total(1.0, 0.0)
        params = ChannelParams(16, 16, 1)
        for seed in range(100):
            ch = sample_channel(params, np.random.default_rng((20, seed)))
            out = hierarchical_search(cb, cb, ch, pm, np.random.default_rng((21, seed)))
            tx, rx, _ = exhaustive_search(ch, pm)
            assert out.pair == (tx, rx)

    def test_rejects_mismatched_codebooks(self):
        cb = generate_codebook("deact", 8)
        ch = sample_channel(ChannelParams(16, 16, 1), np.random.default_rng(5))
        with pytest.raises(ValueError):
            hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(6))

    def test_distinct_array_sizes(self):
        cb_tx = generate_codebook("deact", 16)
        cb_rx = generate_codebook("deact", 8)
        ch = sample_channel(ChannelParams(16, 8, 2), np.random.default_rng(7))
        out = hierarchical_search(cb_tx, cb_rx, ch, PowerModel.total(), np.random.default_rng(8))
        assert len(out.trace) == 3 + 4
        assert 1 <= out.pair[0] <= 16 and 1 <= out.pair[1] <= 8


search_sizes = st.sampled_from([2**e for e in range(1, 7)])
search_methods = st.sampled_from(["deact", "bmw-ss"])


class TestSearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        method=search_methods,
        n_tx=search_sizes,
        n_rx=search_sizes,
        kind=st.sampled_from(list(ChannelKind)),
        n_paths=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 40.0),
    )
    def test_each_stage_splits_the_previous_winner(
        self, method, n_tx, n_rx, kind, n_paths, seed, snr_db
    ):
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        ch = sample_channel(ChannelParams(n_tx, n_rx, n_paths, kind), np.random.default_rng(seed))
        pm = PowerModel.from_snr_db("total", snr_db)
        out = hierarchical_search(cb_tx, cb_rx, ch, pm, np.random.default_rng(seed + 1))
        depth_rx, depth_tx = n_rx.bit_length() - 1, n_tx.bit_length() - 1
        rows = out.trace
        assert len(out.trace) == depth_rx + depth_tx
        assert [s.side for s in rows] == ["rx"] * depth_rx + ["tx"] * depth_tx
        for side, side_rows, offset in (
            ("rx", rows[:depth_rx], 0),
            ("tx", rows[depth_rx:], depth_rx),
        ):
            parent = 1
            for k, row in enumerate(side_rows, start=1):
                assert row.stage - offset == k
                assert (row.candidate_1, row.candidate_2) == (2 * parent - 1, 2 * parent)
                assert row.winner in (row.candidate_1, row.candidate_2)
                parent = row.winner
            assert out.pair[0 if side == "tx" else 1] == parent

    @settings(max_examples=30, deadline=None)
    @given(method=search_methods, n_tx=search_sizes, n_rx=search_sizes, seed=st.integers(0, 99))
    def test_zero_channel_ties_go_to_the_lower_child(self, method, n_tx, n_rx, seed):
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        ch = Channel(n_tx, n_rx, (), np.zeros((n_rx, n_tx), dtype=complex))
        pm = PowerModel.total(1.0, 0.0)
        out = hierarchical_search(cb_tx, cb_rx, ch, pm, np.random.default_rng(seed))
        assert out.pair == (1, 1)
        assert all(row.winner == row.candidate_1 for row in out.trace)

    @settings(max_examples=60, deadline=None)
    @given(method=search_methods, n_tx=search_sizes, n_rx=search_sizes, data=st.data())
    def test_noiseless_on_grid_path_reaches_exhaustive_pair(self, method, n_tx, n_rx, data):
        i_tx = data.draw(st.integers(0, n_tx - 1))
        i_rx = data.draw(st.integers(0, n_rx - 1))
        mpc = Mpc(coeff=1.0, omega=leaf_angles(n_rx)[i_rx], psi=leaf_angles(n_tx)[i_tx])
        ch = Channel(n_tx, n_rx, (mpc,), assemble_matrix(n_tx, n_rx, [mpc]))
        pm = PowerModel.total(1.0, 0.0)
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        out = hierarchical_search(cb_tx, cb_rx, ch, pm, np.random.default_rng(0))
        assert out.pair == exhaustive_search(ch, pm)[:2] == (i_tx + 1, i_rx + 1)


class TestLockstepMatchesReference:
    """The lockstep engine, realization by realization, against the scalar
    search, oracle and adjudication on the same paths and noise draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_tx=search_sizes,
        n_rx=search_sizes,
        mode=st.sampled_from(list(PowerMode)),
        kind=st.sampled_from(list(ChannelKind)),
        n_paths=st.integers(1, 4),
        noise_power=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_reference(
        self, n_tx, n_rx, mode, kind, n_paths, noise_power, blocks, seed
    ):
        params = ChannelParams(n_tx, n_rx, n_paths, kind)
        pm = PowerModel(mode, 1.0, noise_power)
        n_steps = n_tx.bit_length() + n_rx.bit_length() - 2
        drawn = [draw_paths(params, np.random.default_rng((seed, i))) for i in range(blocks)]
        block = PathBlock(*(np.stack(column) for column in zip(*drawn)), n_tx, n_rx)
        noise = np.stack(
            [
                np.random.default_rng((seed, i, 1)).standard_normal(4 * n_rx * n_steps)
                for i in range(blocks)
            ]
        ).reshape(blocks, n_steps, 2, 2, n_rx)
        channels = [channel_from_paths(n_tx, n_rx, *paths) for paths in drawn]

        best_pairs, best_gains = lockstep_exhaustive(block, pm)
        for i, ch in enumerate(channels):
            tx, rx, gain = exhaustive_search(ch, pm)
            assert tuple(best_pairs[i]) == (tx, rx)
            assert best_gains[i] == pytest.approx(gain, rel=1e-12)

        for method in ("deact", "bmw-ss"):
            cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
            out = lockstep_search(cb_tx, cb_rx, block, pm, noise)
            flags = {
                p: lockstep_adjudicate(out.pairs, block, p, best_pairs) for p in AdjudicationPolicy
            }
            for i, ch in enumerate(channels):
                ref = hierarchical_search(cb_tx, cb_rx, ch, pm, np.random.default_rng((seed, i, 1)))
                assert tuple(out.pairs[i]) == ref.pair
                assert out.winners[i].tolist() == [row.winner for row in ref.trace]
                # Relative, except at a winner near a null, where both sides
                # round at 1e-16 of the search's largest gain.
                want = [row.noiseless_gain for row in ref.trace]
                np.testing.assert_allclose(out.gains[i], want, rtol=1e-12, atol=1e-15 * max(want))
                for policy, flag in flags.items():
                    assert flag[i] == adjudicate(ref, ch, policy, tuple(best_pairs[i]))

    def test_rejects_mismatched_noise(self):
        cb = generate_codebook("deact", 8)
        paths = draw_paths(ChannelParams(8, 8, 2), np.random.default_rng(0))
        block = PathBlock(*(p[np.newaxis] for p in paths), 8, 8)
        with pytest.raises(ValueError, match="noise"):
            lockstep_search(cb, cb, block, PowerModel.total(), np.zeros((1, 6, 2, 2, 4)))

    def test_nearest_leaf_takes_arrays(self):
        angles = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 3))
        got = nearest_leaf(16, angles)
        assert got.shape == (5, 3)
        assert got.tolist() == [[nearest_leaf(16, a) for a in row] for row in angles]


class TestExhaustiveSearch:
    def test_on_grid_single_path(self):
        angs = -1 + (2 * np.arange(1, 9) - 1) / 8
        ch = unit_path_channel(8, angs[2], angs[5])
        tx, rx, gain = exhaustive_search(ch, PowerModel.total(1.0, 0.0))
        assert (tx, rx) == (6, 3)
        assert gain == pytest.approx(64.0, rel=1e-12)

    def test_matches_literal_double_loop(self):
        params = ChannelParams(16, 16, 3)
        pm = PowerModel.total(1.0, 0.0)
        for seed in range(3):
            ch = sample_channel(params, np.random.default_rng(seed))
            gains = np.empty((16, 16))
            for i in range(16):
                w_t = steering_weights(16, -1 + (2 * (i + 1) - 1) / 16)
                for j in range(16):
                    w_r = steering_weights(16, -1 + (2 * (j + 1) - 1) / 16)
                    gains[i, j] = abs(ch.coupling(w_t, w_r)) ** 2
            tx, rx, gain = exhaustive_search(ch, pm)
            assert gain == pytest.approx(gains.max(), rel=1e-10)
            assert gains[tx - 1, rx - 1] == pytest.approx(gains.max(), rel=1e-10)

    def test_pair_does_not_depend_on_power_model(self):
        ch = sample_channel(ChannelParams(16, 8, 3), np.random.default_rng(11))
        tx, rx, total = exhaustive_search(ch, PowerModel.total(1.0, 0.0))
        assert exhaustive_search(ch, PowerModel.per_antenna(1.0, 0.0)) == (tx, rx, 16 * total)

    def test_all_ties_resolve_to_first_pair(self):
        ch = Channel(8, 8, (), np.zeros((8, 8), dtype=complex))
        assert exhaustive_search(ch, PowerModel.total())[:2] == (1, 1)


class TestAdjudication:
    def test_nearest_leaf_basics(self):
        assert nearest_leaf(8, -1 + 1 / 8) == 1
        assert nearest_leaf(8, 1 - 1 / 8) == 8
        # Wrap-around: just past +1 is closest to the first leaf again.
        assert nearest_leaf(64, 0.9999) == 64
        assert nearest_leaf(64, -0.9999) == 1

    def test_on_grid_single_path_all_policies_succeed(self):
        angs = -1 + (2 * np.arange(1, 17) - 1) / 16
        ch = unit_path_channel(16, angs[4], angs[9])
        cb = generate_codebook("deact", 16)
        pm = PowerModel.total(1.0, 0.0)
        out = hierarchical_search(cb, cb, ch, pm, np.random.default_rng(0))
        best = exhaustive_search(ch, pm)[:2]
        for policy in AdjudicationPolicy:
            assert adjudicate(out, ch, policy, best)

    def test_match_exhaustive_compares_with_the_given_pair(self):
        cb = generate_codebook("deact", 8)
        ch = sample_channel(ChannelParams(8, 8, 2), np.random.default_rng(12))
        out = hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(13))
        tx, rx = out.pair
        assert adjudicate(out, ch, "match-exhaustive", (tx, rx))
        assert not adjudicate(out, ch, "match-exhaustive", (tx % 8 + 1, rx))

    def test_single_path_any_equals_strongest(self):
        cb = generate_codebook("bmw-ss", 16)
        pm = PowerModel.from_snr_db("total", 10.0)
        params = ChannelParams(16, 16, 1)
        for seed in range(50):
            ch = sample_channel(params, np.random.default_rng((30, seed)))
            out = hierarchical_search(cb, cb, ch, pm, np.random.default_rng((31, seed)))
            best = exhaustive_search(ch, pm)[:2]
            assert adjudicate(out, ch, "align-any-mpc", best) == adjudicate(
                out, ch, "align-strongest", best
            )

    def test_dominant_path_match_equals_strongest(self):
        # With a 40 dB dominant path and no noise the exhaustive winner is the
        # dominant path's bin pair, so the two notions of success coincide.
        cb = generate_codebook("bmw-ss", 32)
        pm = PowerModel.total(1.0, 0.0)
        params = ChannelParams(32, 32, 3, kind=ChannelKind.LOS, eta_db=40.0)
        agree = 0
        for seed in range(200):
            ch = sample_channel(params, np.random.default_rng((40, seed)))
            out = hierarchical_search(cb, cb, ch, pm, np.random.default_rng((41, seed)))
            best = exhaustive_search(ch, pm)[:2]
            agree += adjudicate(out, ch, "match-exhaustive", best) == adjudicate(
                out, ch, "align-strongest", best
            )
        assert agree >= 198

    def test_trace_rows_follow_schema(self):
        cb = generate_codebook("deact", 8)
        ch = sample_channel(ChannelParams(8, 8, 1), np.random.default_rng(50))
        out = hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(51))
        rows = out.trace
        assert len(rows) == 6
        assert len(TRACE_COLUMNS) == len(rows[0]) == 7
        assert rows[0][1] == "rx" and rows[-1][1] == "tx"

    def test_trace_cells_are_python_scalars(self):
        # The CSV writer formats floats with repr; a numpy scalar would
        # change the bytes.
        cb = generate_codebook("bmw-ss", 16)
        ch = sample_channel(ChannelParams(16, 16, 2), np.random.default_rng(52))
        out = hierarchical_search(cb, cb, ch, PowerModel.total(), np.random.default_rng(53))
        for row in out.trace:
            assert row._fields == TRACE_COLUMNS
            assert [type(cell) for cell in row] == [int, str, int, int, int, float, float]
