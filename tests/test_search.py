import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from beamtrain import (
    ChannelParams,
    PowerModel,
    draw_paths,
    generate_codebook,
    leaf_angles,
    nearest_leaf,
    steering_weights,
)
from beamtrain import ExperimentConfig, run_search
from beamtrain.experiments import TRACE_COLUMNS
from beamtrain.channels import KINDS
from beamtrain.search import (
    POLICIES,
    POWER_MODES,
    PathBlock,
    lockstep_adjudicate,
    lockstep_exhaustive,
    lockstep_search,
)


def path_block(n_tx, n_rx, coeff, omega, psi):
    """A block from (B, L) path arrays."""
    return PathBlock(
        np.asarray(coeff, dtype=complex), np.asarray(omega, dtype=float),
        np.asarray(psi, dtype=float), n_tx, n_rx,
    )


def drawn_block(params, seeds):
    """The block of the paths that ``draw_paths`` draws from each seed."""
    drawn = [draw_paths(params, np.random.default_rng(seed)) for seed in seeds]
    return path_block(params.n_tx, params.n_rx, *(np.stack(column) for column in zip(*drawn)))


def zero_block(n_tx, n_rx, b=1):
    """B realizations of one path with a zero coefficient: a dead channel."""
    return path_block(n_tx, n_rx, np.zeros((b, 1)), np.zeros((b, 1)), np.zeros((b, 1)))


def noise_for(cb_tx, cb_rx, seeds):
    """Each seed's standard normal draws, in the engine's noise layout."""
    shape = (cb_tx.depth + cb_rx.depth, 2, 2, cb_rx.n)
    return np.stack([np.random.default_rng(seed).standard_normal(shape) for seed in seeds])


def search(cb_tx, cb_rx, block, pm, seeds):
    return lockstep_search(cb_tx, cb_rx, block, pm, noise_for(cb_tx, cb_rx, seeds))


def demo_trace(**fields):
    """The ``search`` demo's trace, at its one default SNR point of 40 dB."""
    return run_search(ExperimentConfig(snr_db=(40.0,), realizations=1, **fields))


class TestPowerModel:
    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            PowerModel("total", -1e-4)

    def test_from_snr_db(self):
        pm = PowerModel.from_snr_db("total", 40.0)
        assert pm.mode == "total"
        assert pm.noise_power == pytest.approx(1e-4)

    def test_from_snr_db_rejects_overflowing_noise_floor(self):
        with pytest.raises(ValueError, match="snr_db"):
            PowerModel.from_snr_db("total", -4000.0)

    def test_tx_power_scaling(self):
        # One watt in all under total power, one per active antenna under per-antenna.
        assert PowerModel("total", 1e-4).scale(64) == 1
        assert PowerModel("per-antenna", 1e-4).scale(64) == 64

    def test_gain_scaling(self):
        # The scale multiplies the squared coupling, elementwise over active counts.
        active = np.array([1, 8, 64])
        for mode, want in (("total", [1, 1, 1]), ("per-antenna", [1, 8, 64])):
            pm = PowerModel(mode, 0.0)
            assert [pm.scale(n) for n in active.tolist()] == want
            np.testing.assert_array_equal(pm.scale(active) * 0.5, np.multiply(want, 0.5))


class TestMeasure:
    def test_noiseless_total_power(self):
        # Without noise each stage's measured power is its noiseless gain,
        # the squared coupling of the two codewords it measured.
        params = ChannelParams(8, 8, 3)
        block = drawn_block(params, range(4))
        cb = generate_codebook("bmw-ss", 8)
        out = search(cb, cb, block, PowerModel("total", 0.0), [(1, i) for i in range(4)])
        for i in range(4):
            h = reference.channel_matrix(8, 8, *draw_paths(params, np.random.default_rng(i)))
            rx = out.pairs[i, 1]
            for stage, winner in enumerate(out.winners[i]):
                if stage < cb.depth:  # the root transmits
                    w_tx, w_rx = cb.layers[0][0], cb.layers[stage + 1][winner - 1]
                else:  # the found receive leaf listens
                    w_tx, w_rx = cb.layers[stage - cb.depth + 1][winner - 1], cb.layers[-1][rx - 1]
                want = abs(w_rx.conj() @ h @ w_tx) ** 2
                assert out.y_power[i, stage] == pytest.approx(want, rel=1e-12)
                assert out.gains[i, stage] == pytest.approx(want, rel=1e-12)

    def test_per_antenna_gain_includes_active_count(self):
        block = drawn_block(ChannelParams(16, 16, 3), range(20))
        seeds = [(2, i) for i in range(20)]
        for method in ("deact", "bmw-ss"):
            cb = generate_codebook(method, 16)
            total = search(cb, cb, block, PowerModel("total", 0.0), seeds)
            per = search(cb, cb, block, PowerModel("per-antenna", 0.0), seeds)
            # Siblings share an active count, so the same children win.
            np.testing.assert_array_equal(per.winners, total.winners)
            active = np.empty_like(total.gains)
            active[:, : cb.depth] = cb.active_counts[0][0]  # the pinned root transmits
            for k in range(1, cb.depth + 1):
                stage = cb.depth + k - 1
                active[:, stage] = cb.active_counts[k][total.winners[:, stage] - 1]
            np.testing.assert_allclose(per.gains, active * total.gains, rtol=1e-12)

    def test_zero_channel_noise_expectation(self):
        # With a dead channel each measurement is pure combined noise, |y|^2
        # exponential with the per-antenna noise power n0 as its mean.  The
        # winner keeps the larger of two independent draws, whose mean is
        # 1.5 n0 and standard deviation sqrt(1.25) n0.
        n0, b = 2.5e-3, 4000
        cb_tx, cb_rx = generate_codebook("deact", 4), generate_codebook("deact", 8)
        noise = np.random.default_rng(1).standard_normal((b, 5, 2, 2, 8))
        out = lockstep_search(cb_tx, cb_rx, zero_block(4, 8, b), PowerModel("total", n0), noise)
        draws = out.y_power.ravel()
        assert np.mean(draws) == pytest.approx(
            1.5 * n0, abs=3 * np.sqrt(1.25) * n0 / np.sqrt(draws.size)
        )


class TestHierarchicalSearch:
    def test_trace_has_expected_shape(self):
        cb = generate_codebook("bmw-ss", 64)
        block = drawn_block(ChannelParams(64, 64, 3), range(5))
        out = search(cb, cb, block, PowerModel("total", 1e-4), [(3, i) for i in range(5)])
        assert out.pairs.shape == (5, 2)
        assert out.winners.shape == out.y_power.shape == out.gains.shape == (5, 12)
        layer_sizes = [2**k for k in range(1, 7)] * 2  # receive stages, then transmit
        assert np.all((out.winners >= 1) & (out.winners <= layer_sizes))

    def test_zero_channel_still_completes(self):
        cb = generate_codebook("deact", 16)
        out = search(cb, cb, zero_block(16, 16), PowerModel("total", 1e-4), [4])
        assert out.winners.shape == (1, 8)
        assert 1 <= out.pairs[0, 0] <= 16 and 1 <= out.pairs[0, 1] <= 16

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    def test_noiseless_single_path_finds_best_pair(self, method):
        cb = generate_codebook(method, 16)
        pm = PowerModel("total", 0.0)
        block = drawn_block(ChannelParams(16, 16, 1), [(20, seed) for seed in range(100)])
        out = search(cb, cb, block, pm, [(21, seed) for seed in range(100)])
        np.testing.assert_array_equal(out.pairs, lockstep_exhaustive(block, pm)[0])

    def test_rejects_mismatched_codebooks(self):
        cb = generate_codebook("deact", 8)
        block = drawn_block(ChannelParams(16, 16, 1), [5])
        with pytest.raises(ValueError, match="codebook sizes"):
            lockstep_search(cb, cb, block, PowerModel("total", 1e-4), np.zeros((1, 6, 2, 2, 16)))

    def test_distinct_array_sizes(self):
        cb_tx = generate_codebook("deact", 16)
        cb_rx = generate_codebook("deact", 8)
        block = drawn_block(ChannelParams(16, 8, 2), [7])
        out = search(cb_tx, cb_rx, block, PowerModel("total", 1e-4), [8])
        assert out.winners.shape == (1, 3 + 4)
        assert 1 <= out.pairs[0, 0] <= 16 and 1 <= out.pairs[0, 1] <= 8


search_sizes = st.sampled_from([2**e for e in range(1, 7)])
search_methods = st.sampled_from(["deact", "bmw-ss"])


def assert_each_stage_splits_the_previous_winner(out, depth_tx, depth_rx):
    for winners, pair in zip(out.winners.tolist(), out.pairs.tolist()):
        for side, stages in ((1, winners[:depth_rx]), (0, winners[depth_rx:])):
            parent = 1
            for winner in stages:
                assert winner in (2 * parent - 1, 2 * parent)
                parent = winner
            assert pair[side] == parent


class TestSearchProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        method=search_methods,
        n_tx=search_sizes,
        n_rx=search_sizes,
        kind=st.sampled_from(KINDS),
        n_paths=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        snr_db=st.floats(-10.0, 40.0),
    )
    def test_each_stage_splits_the_previous_winner(
        self, method, n_tx, n_rx, kind, n_paths, seed, snr_db
    ):
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        block = drawn_block(ChannelParams(n_tx, n_rx, n_paths, kind), [(seed, i) for i in range(3)])
        pm = PowerModel.from_snr_db("total", snr_db)
        out = search(cb_tx, cb_rx, block, pm, [(seed, i, 1) for i in range(3)])
        assert out.winners.shape == (3, cb_tx.depth + cb_rx.depth)
        assert_each_stage_splits_the_previous_winner(out, cb_tx.depth, cb_rx.depth)

    @settings(max_examples=30, deadline=None)
    @given(method=search_methods, n_tx=search_sizes, n_rx=search_sizes, seed=st.integers(0, 99))
    def test_zero_channel_ties_go_to_the_lower_child(self, method, n_tx, n_rx, seed):
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        out = search(cb_tx, cb_rx, zero_block(n_tx, n_rx), PowerModel("total", 0.0), [seed])
        assert out.pairs.tolist() == [[1, 1]]
        assert np.all(out.winners == 1)  # the lower child of the first row, every stage

    @settings(max_examples=60, deadline=None)
    @given(method=search_methods, n_tx=search_sizes, n_rx=search_sizes, data=st.data())
    def test_noiseless_on_grid_path_reaches_exhaustive_pair(self, method, n_tx, n_rx, data):
        i_tx = data.draw(st.integers(0, n_tx - 1))
        i_rx = data.draw(st.integers(0, n_rx - 1))
        omega, psi = leaf_angles(n_rx)[i_rx], leaf_angles(n_tx)[i_tx]
        block = path_block(n_tx, n_rx, [[1.0]], [[omega]], [[psi]])
        pm = PowerModel("total", 0.0)
        cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
        out = search(cb_tx, cb_rx, block, pm, [0])
        best, _ = lockstep_exhaustive(block, pm)
        assert out.pairs.tolist() == best.tolist() == [[i_tx + 1, i_rx + 1]]


class TestLockstepMatchesReference:
    """The lockstep engine, realization by realization, against the
    dense-matrix reference on the same paths and noise draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_tx=search_sizes,
        n_rx=search_sizes,
        mode=st.sampled_from(POWER_MODES),
        kind=st.sampled_from(KINDS),
        n_paths=st.integers(1, 4),
        noise_power=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_equals_reference(
        self, n_tx, n_rx, mode, kind, n_paths, noise_power, blocks, seed
    ):
        params = ChannelParams(n_tx, n_rx, n_paths, kind)
        pm = PowerModel(mode, noise_power)
        n_steps = n_tx.bit_length() + n_rx.bit_length() - 2
        drawn = [draw_paths(params, np.random.default_rng((seed, i))) for i in range(blocks)]
        block = path_block(n_tx, n_rx, *(np.stack(column) for column in zip(*drawn)))
        noise = np.stack(
            [
                np.random.default_rng((seed, i, 1)).standard_normal(4 * n_rx * n_steps)
                for i in range(blocks)
            ]
        ).reshape(blocks, n_steps, 2, 2, n_rx)
        matrices = [reference.channel_matrix(n_tx, n_rx, *paths) for paths in drawn]

        best_pairs, best_gains = lockstep_exhaustive(block, pm)
        for i, h in enumerate(matrices):
            pair, gain = reference.exhaustive(h, pm)
            assert tuple(best_pairs[i]) == pair
            assert best_gains[i] == pytest.approx(gain, rel=1e-12)

        found = []
        for method in ("deact", "bmw-ss"):
            cb_tx, cb_rx = generate_codebook(method, n_tx), generate_codebook(method, n_rx)
            out = lockstep_search(cb_tx, cb_rx, block, pm, noise)
            found.append(out.pairs)
            for i, h in enumerate(matrices):
                rng = np.random.default_rng((seed, i, 1))
                pair, stages = reference.search(cb_tx, cb_rx, h, pm, rng)
                winners, y_power, gains = (list(column) for column in zip(*stages))
                assert tuple(out.pairs[i]) == pair
                assert out.winners[i].tolist() == winners
                # Relative, except at a winner near a null, where both sides
                # round at 1e-16 of the search's largest value.
                np.testing.assert_allclose(out.gains[i], gains, rtol=1e-12, atol=1e-15 * max(gains))
                np.testing.assert_allclose(
                    out.y_power[i], y_power, rtol=1e-12, atol=1e-15 * max(y_power)
                )

        # One call adjudicates both methods under every policy, in POLICIES' order.
        flags = lockstep_adjudicate(np.stack(found, axis=1), block, best_pairs)
        assert flags.shape == (blocks, 2, 3)
        for i, m in np.ndindex(blocks, 2):
            pair, exhaustive_pair = tuple(found[m][i]), tuple(best_pairs[i])
            for p, policy in enumerate(POLICIES):
                assert flags[i, m, p] == reference.adjudicate(
                    pair, exhaustive_pair, n_tx, n_rx, drawn[i], policy
                )

    def test_rejects_mismatched_noise(self):
        cb = generate_codebook("deact", 8)
        block = drawn_block(ChannelParams(8, 8, 2), [0])
        with pytest.raises(ValueError, match="noise"):
            lockstep_search(cb, cb, block, PowerModel("total", 1e-4), np.zeros((1, 6, 2, 2, 4)))

    def test_nearest_leaf_takes_arrays(self):
        angles = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 3))
        got = nearest_leaf(16, angles)
        assert got.shape == (5, 3)
        assert got.tolist() == [[nearest_leaf(16, a) for a in row] for row in angles]


class TestExhaustiveSearch:
    def test_on_grid_single_path(self):
        angs = -1 + (2 * np.arange(1, 9) - 1) / 8
        block = path_block(8, 8, [[1.0]], [[angs[2]]], [[angs[5]]])
        pairs, gains = lockstep_exhaustive(block, PowerModel("total", 0.0))
        assert pairs.tolist() == [[6, 3]]
        assert gains[0] == pytest.approx(64.0, rel=1e-12)

    def test_matches_literal_double_loop(self):
        params = ChannelParams(16, 16, 3)
        pm = PowerModel("total", 0.0)
        pairs, best = lockstep_exhaustive(drawn_block(params, range(3)), pm)
        for seed in range(3):
            h = reference.channel_matrix(16, 16, *draw_paths(params, np.random.default_rng(seed)))
            gains = np.empty((16, 16))
            for i in range(16):
                w_t = steering_weights(16, -1 + (2 * (i + 1) - 1) / 16)
                for j in range(16):
                    w_r = steering_weights(16, -1 + (2 * (j + 1) - 1) / 16)
                    gains[i, j] = abs(w_r.conj() @ h @ w_t) ** 2
            tx, rx = pairs[seed]
            assert best[seed] == pytest.approx(gains.max(), rel=1e-10)
            assert gains[tx - 1, rx - 1] == pytest.approx(gains.max(), rel=1e-10)

    def test_pair_does_not_depend_on_power_model(self):
        block = drawn_block(ChannelParams(16, 8, 3), [11])
        pairs, total = lockstep_exhaustive(block, PowerModel("total", 0.0))
        per_pairs, per = lockstep_exhaustive(block, PowerModel("per-antenna", 0.0))
        np.testing.assert_array_equal(per_pairs, pairs)
        np.testing.assert_array_equal(per, 16 * total)

    def test_all_ties_resolve_to_first_pair(self):
        pairs, _ = lockstep_exhaustive(zero_block(8, 8), PowerModel("total", 1e-4))
        assert pairs.tolist() == [[1, 1]]


class TestAdjudication:
    def test_nearest_leaf_basics(self):
        assert nearest_leaf(8, -1 + 1 / 8) == 1
        assert nearest_leaf(8, 1 - 1 / 8) == 8
        # Wrap-around: just past +1 is closest to the first leaf again.
        assert nearest_leaf(64, 0.9999) == 64
        assert nearest_leaf(64, -0.9999) == 1

    def test_on_grid_single_path_all_policies_succeed(self):
        angs = -1 + (2 * np.arange(1, 17) - 1) / 16
        block = path_block(16, 16, [[1.0]], [[angs[4]]], [[angs[9]]])
        cb = generate_codebook("deact", 16)
        pm = PowerModel("total", 0.0)
        out = search(cb, cb, block, pm, [0])
        best, _ = lockstep_exhaustive(block, pm)
        assert lockstep_adjudicate(out.pairs[:, None], block, best).tolist() == [[[True] * 3]]

    def test_match_exhaustive_compares_with_the_given_pair(self):
        cb = generate_codebook("deact", 8)
        block = drawn_block(ChannelParams(8, 8, 2), [12])
        found = search(cb, cb, block, PowerModel("total", 1e-4), [13]).pairs
        other = found.copy()
        other[:, 0] = other[:, 0] % 8 + 1
        assert lockstep_adjudicate(found[:, None], block, found)[:, 0, 0].tolist() == [True]
        assert lockstep_adjudicate(found[:, None], block, other)[:, 0, 0].tolist() == [False]

    def test_single_path_any_equals_strongest(self):
        cb = generate_codebook("bmw-ss", 16)
        pm = PowerModel.from_snr_db("total", 10.0)
        block = drawn_block(ChannelParams(16, 16, 1), [(30, seed) for seed in range(50)])
        found = search(cb, cb, block, pm, [(31, seed) for seed in range(50)]).pairs
        best, _ = lockstep_exhaustive(block, pm)
        flags = lockstep_adjudicate(found[:, None], block, best)[:, 0]
        np.testing.assert_array_equal(flags[:, 1], flags[:, 2])  # align-any-mpc, align-strongest

    def test_dominant_path_match_equals_strongest(self):
        # With a 40 dB dominant path and no noise the exhaustive winner is the
        # dominant path's bin pair, so the two notions of success coincide.
        cb = generate_codebook("bmw-ss", 32)
        pm = PowerModel("total", 0.0)
        params = ChannelParams(32, 32, 3, kind="los", eta_db=40.0)
        block = drawn_block(params, [(40, seed) for seed in range(200)])
        found = search(cb, cb, block, pm, [(41, seed) for seed in range(200)]).pairs
        best, _ = lockstep_exhaustive(block, pm)
        flags = lockstep_adjudicate(found[:, None], block, best)[:, 0]
        agree = flags[:, 0] == flags[:, 2]  # match-exhaustive, align-strongest
        assert np.count_nonzero(agree) >= 198

    def test_trace_rows_follow_schema(self, tmp_path):
        trace = demo_trace(n_tx=8, n_rx=8, methods=("deact",), n_paths=1)
        rows = trace.rows
        assert len(rows) == 6
        assert len(TRACE_COLUMNS) == len(rows[0]) == 7
        assert rows[0][1] == "rx" and rows[-1][1] == "tx"
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)

    def test_trace_cells_are_python_scalars(self):
        # The CSV writer formats floats with repr; a numpy scalar would
        # change the bytes.
        rows = demo_trace(n_tx=16, n_rx=16, methods=("bmw-ss",), n_paths=2).rows
        for row in rows:
            assert [type(cell) for cell in row] == [int, str, int, int, int, float, float]

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"methods": ("bmw-ss", "deact"), "snr_db": (40.0,)}, "methods"),
            ({"methods": ("deact",)}, "snr_db"),  # the config's 9-point default grid
            ({"methods": ("deact",), "snr_db": (40.0,), "channel": "both"}, "channel"),
        ],
        ids=["two-methods", "nine-snr-points", "both-kinds"],
    )
    def test_run_search_takes_one_method_snr_point_and_kind(self, fields, field):
        with pytest.raises(ValueError, match=field):
            run_search(ExperimentConfig(n_tx=8, n_rx=8, **fields))
