import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    active_counts_reference,
    coverage_gains_reference,
    random_awv,
    subarray_phase_objective,
)
from beamtrain import (
    angle_grid,
    beam_gain,
    coverage_factor_rho,
    leaf_angles,
    rotate,
    steering_weights,
)
from beamtrain.arrays import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_CELLS,
    active_counts,
    MAX_GRID_POINTS,
    check_grid,
    coverage_gains,
    coverage_mask,
)


def single_coverage(w, rho, grid_points=DEFAULT_GRID_POINTS):
    """Coverage mask of the one weight vector ``w`` on ``angle_grid(grid_points)``."""
    return coverage_mask(coverage_gains(w, grid_points)[0], rho)


def brute_force_gain(weights, omega):
    """Term-by-term evaluation of sum_k w_k exp(-j pi (k-1) omega)."""
    total = 0j
    for k, w in enumerate(weights):
        total += w * np.exp(-1j * np.pi * k * omega)
    return total


class TestSteeringVector:
    def test_single_element(self):
        w = steering_weights(1, 0.37)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0)

    def test_zero_angle_all_equal(self):
        w = steering_weights(4, 0.0)
        np.testing.assert_allclose(w, 0.5 * np.ones(4), atol=1e-15)

    def test_periodic_in_angle(self):
        a = steering_weights(8, -0.3)
        b = steering_weights(8, -0.3 + 2.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unit_power_all_active(self):
        w = steering_weights(16, 0.123)
        assert active_counts(w) == 16
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_weights(0, 0.1)


    def test_vector_of_angles_stacks_scalar_vectors(self):
        angles = np.array([-0.9, -0.1, 0.3, 0.77])
        mat = steering_weights(16, angles)
        assert mat.shape == (16, 4)
        for i, angle in enumerate(angles):
            assert np.array_equal(mat[:, i], steering_weights(16, angle))


def check_outcome(check, weights):
    """A weight-set check's counts as (dtype, shape, bytes), or its refusal."""
    try:
        counts = np.asarray(check(weights))
    except ValueError as exc:
        return str(exc)
    return counts.dtype, counts.shape, counts.tobytes()


class TestAwv:
    @pytest.mark.parametrize(
        "weights, match",
        [
            ([0.5, 0.25, 0.0, 0.0], "amplitude"),
            ([0.0, 0.0, 0.0, 0.0], "no active entries"),
            ([np.nan, 0.0, 1.0, 0.0], "amplitude"),
        ],
        ids=["mixed-amplitudes", "all-zero", "nan-entry"],
    )
    def test_active_counts_rejects_non_member(self, weights, match):
        with pytest.raises(ValueError, match=match):
            active_counts(np.array(weights, dtype=complex))

    def test_active_counts_checks_every_row(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5j, 0.5]])
        np.testing.assert_array_equal(active_counts(rows), [1, 4])
        with pytest.raises(ValueError, match="no active entries"):
            active_counts(np.vstack([rows, np.zeros(4)]))
        with pytest.raises(ValueError, match="amplitude"):
            active_counts(np.vstack([rows, [0.5, 0.25, 0.0, 0.0]]))

    # An active entry's amplitude is 1/sqrt(count) moved by one of these: 0, inside
    # the 1e-9 tolerance, on it, just past it, or far off.
    OFFSETS = (0.0, 0.5e-9, -0.999e-9, 1e-9, -1e-9, 1.001e-9, -1.5e-9, 0.25)
    # Entries that no amplitude check should accept, subnormals included.
    SPECIALS = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0),
                5e-324, complex(0.0, -1e-310))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_active_counts_matches_gather_reference(self, data):
        # Same counts (bytes, dtype, shape) or the same refusal as the form
        # that gathers the active deviations, on (..., N) inputs.
        lead = data.draw(st.lists(st.integers(0, 3), max_size=2), label="lead")
        n = data.draw(st.integers(1, 8), label="n")
        dtype = data.draw(st.sampled_from(
            [np.complex128, np.float64, np.complex64, np.float32]), label="dtype")
        phases = [1, -1] if dtype in (np.float64, np.float32) else [1, -1, 1j, np.exp(0.3j)]
        rows = []
        for _ in range(int(np.prod(lead, dtype=int))):
            active = data.draw(st.one_of(
                st.just([False] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
            nu = 1.0 / np.sqrt(max(sum(active), 1))
            row = []
            for on in active:
                entry = 0.0
                if on:
                    entry = data.draw(st.one_of(
                        st.sampled_from(self.OFFSETS).map(lambda d: nu + d),
                        st.sampled_from(self.SPECIALS),
                    ))
                    entry = entry * data.draw(st.sampled_from(phases))
                row.append(entry)
            rows.append(row)
        w = np.array(rows, dtype=np.complex128).reshape((*lead, n))
        w = (w if np.iscomplexobj(np.zeros(0, dtype)) else w.real).astype(dtype)
        assert check_outcome(active_counts, w) == check_outcome(active_counts_reference, w)

    @pytest.mark.parametrize("weights", [
        [1, 0, 0], [[1, 0], [0, -1]], [1, 1], [[0, 0]], [True, False], [[2]],
        np.array([0.5, 0.5, 0.5, 0.5], dtype=np.float16), np.zeros((0, 3), dtype=np.int8),
    ])
    def test_active_counts_takes_any_numeric_dtype(self, weights):
        # Integer, bool and float16 weights are promoted as the reference's
        # subtraction promotes them: same counts, or the same refusal.
        assert check_outcome(active_counts, weights) == check_outcome(
            active_counts_reference, weights)

    def test_random_awv_is_member(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = random_awv(12, rng)
            amps = np.abs(w[w != 0])
            np.testing.assert_allclose(amps, 1 / np.sqrt(amps.size), atol=1e-12)
            assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0)


class TestBeamGain:
    def test_matched_steering_gain(self):
        w = steering_weights(16, 0.25)
        assert beam_gain(w, 0.25) == pytest.approx(4.0, abs=1e-12)

    def test_half_beamwidth_gain(self):
        # At one half beam width off center the gain drops to the coverage
        # factor times the peak; for 4 elements that is 0.653 * 2.
        w = steering_weights(4, 0.1)
        for sign in (+1, -1):
            g = abs(beam_gain(w, 0.1 + sign * 0.25))
            assert g == pytest.approx(coverage_factor_rho(4) * 2.0, abs=1e-12)

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(7)
        w = random_awv(8, rng)
        got = beam_gain(w, 0.1)
        want = brute_force_gain(w, 0.1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_vectorized_over_angles(self):
        rng = np.random.default_rng(8)
        w = random_awv(6, rng)
        omegas = rng.uniform(-1, 1, size=17)
        got = beam_gain(w, omegas)
        want = np.array([brute_force_gain(w, om) for om in omegas])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matched_filter_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            w = random_awv(16, rng)
            omegas = rng.uniform(-1, 1, size=50)
            assert np.all(
                np.abs(beam_gain(w, omegas)) <= np.sqrt(active_counts(w)) + 1e-9
            )


class TestCoverageFactor:
    def test_small_array_value(self):
        assert coverage_factor_rho(4) == pytest.approx(0.65, abs=0.005)

    def test_large_array_value(self):
        assert coverage_factor_rho(128) == pytest.approx(0.64, abs=0.01)

    def test_single_element(self):
        assert coverage_factor_rho(1) == pytest.approx(1.0)

    def test_converges_to_two_over_pi(self):
        for n in (8, 16, 64, 256, 1024):
            assert abs(coverage_factor_rho(n) - 2.0 / np.pi) < 0.01


class TestRotate:
    def test_zero_rotation_is_identity(self):
        rng = np.random.default_rng(3)
        w = random_awv(10, rng)
        np.testing.assert_array_equal(rotate(w, 0.0), w)

    def test_rotated_steering_is_steering(self):
        got = rotate(steering_weights(8, -0.25), 0.5)
        want = steering_weights(8, 0.25)
        np.testing.assert_allclose(got, want, atol=1e-14)
        # An array of psi gives one rotated row per psi, each the scalar rotation.
        psi = np.array([0.0, 0.5, -0.75])
        rows = rotate(steering_weights(8, -0.25), psi)
        assert rows.shape == (3, 8)
        for row, p in zip(rows, psi):
            assert row.tobytes() == rotate(steering_weights(8, -0.25), p).tobytes()
        np.testing.assert_allclose(rows, steering_weights(8, -0.25 + psi).T, atol=1e-14)

    def test_preserves_membership_and_pattern(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = random_awv(9, rng)
            r = rotate(w, rng.uniform(-2, 2))
            np.testing.assert_array_equal(r == 0, w == 0)
            assert np.sum(np.abs(r) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.25, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]],
        ids=["mixed-amplitudes", "two-rows"],
    )
    def test_rejects_non_member(self, weights):
        with pytest.raises(ValueError):
            rotate(np.array(weights, dtype=complex), 0.3)

    def test_coverage_shifts_with_rotation(self):
        # Grid-snapped rotations roll the coverage mask exactly.
        m = DEFAULT_GRID_POINTS
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = random_awv(16, rng)
            steps = int(rng.integers(m))
            psi = steps * 2.0 / m
            cov = single_coverage(w, 0.5, m)
            cov_rot = single_coverage(rotate(w, psi), 0.5, m)
            np.testing.assert_array_equal(cov_rot, np.roll(cov, steps))


def covered_span(mask):
    """(first, last) covered grid point; asserts the covered points are one run."""
    idx = np.flatnonzero(mask)
    assert np.all(np.diff(idx) == 1), "coverage is not one contiguous run"
    points = angle_grid(mask.size)
    return points[idx[0]], points[idx[-1]]


class TestBeamCoverage:
    def test_steering_coverage_matches_beam_width(self):
        step = 2.0 / DEFAULT_GRID_POINTS
        cov = single_coverage(steering_weights(16, 0.0), coverage_factor_rho(16))
        lo, hi = covered_span(cov)
        assert lo == pytest.approx(-1.0 / 16.0, abs=2 * step)
        assert hi == pytest.approx(1.0 / 16.0, abs=2 * step)

    def test_high_threshold_collapses_to_peak(self):
        cov = single_coverage(steering_weights(16, 0.0), 0.999)
        pts = angle_grid()[cov]
        assert pts.size < 20
        assert np.all(np.abs(pts) < 0.01)

    def test_padded_steering_matches_brute_force(self):
        # 4-element steering vector padded to 64 antennas, evaluated with a
        # literal summation oracle: coverage is its 2/4-wide beam.
        step = 2.0 / DEFAULT_GRID_POINTS
        w = np.concatenate([steering_weights(4, -0.75), np.zeros(60)])
        rho = coverage_factor_rho(4)
        gains = np.array([abs(brute_force_gain(w, om)) for om in angle_grid()])
        want_mask = gains > rho * gains.max()
        cov = single_coverage(w, rho)
        np.testing.assert_array_equal(cov, want_mask)
        lo, hi = covered_span(cov)
        assert lo == pytest.approx(-1.0, abs=2 * step)
        assert hi == pytest.approx(-0.5, abs=2 * step)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="too coarse"):
            single_coverage(steering_weights(64, 0.0), 0.5, 64)
        # Eight points per steering beam width is the least accepted.
        assert single_coverage(steering_weights(64, 0.0), 0.5, 8 * 64).shape == (512,)
        with pytest.raises(ValueError, match="too coarse"):
            single_coverage(steering_weights(64, 0.0), 0.5, 8 * 64 - 1)

    @pytest.mark.parametrize("grid_points", [1, MAX_GRID_POINTS + 1, 10**11])
    def test_rejects_grid_size_before_allocating(self, grid_points):
        w = steering_weights(4, 0.0)
        with pytest.raises(ValueError, match="grid_points"):
            coverage_gains(w, grid_points)
        with pytest.raises(ValueError, match="grid_points"):
            angle_grid(grid_points)

    def test_cell_budget_boundary(self):
        # M*N = MAX_GRID_CELLS is the largest accepted grid; checked without allocating.
        check_grid(MAX_GRID_CELLS // 1024, 1024)
        with pytest.raises(ValueError, match="grid_points"):
            check_grid(MAX_GRID_CELLS // 1024 + 1, 1024)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            single_coverage(steering_weights(4, 0.0), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        num_points=st.sampled_from([512, 1024, 4096]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fft_gains_match_beam_gain(self, n, num_points, seed):
        w = random_awv(n, np.random.default_rng(seed))
        got = coverage_gains(w, num_points)
        assert got.shape == (1, num_points)
        want = np.abs(beam_gain(w, angle_grid(num_points)))
        np.testing.assert_allclose(got[0], want, rtol=0.0, atol=1e-12 * np.sqrt(n))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 80),
        log2_n=st.integers(0, 8),
        oversampling=st.integers(8, 40),
        extra=st.integers(0, 7),
        one_d=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # 80 rows of M = 2051 make five full blocks of 15 rows and a partial sixth.
    @example(rows=80, log2_n=8, oversampling=8, extra=3, one_d=False, seed=0)
    def test_row_blocks_match_one_shot_transform(self, rows, log2_n, oversampling, extra,
                                                 one_d, seed):
        # M runs from 8N up, powers of two or not; rows cross block edges once M > 409.
        n, rng = 2**log2_n, np.random.default_rng(seed)
        grid_points = oversampling * n + extra
        w = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        if one_d:
            w = w[0]
        got = coverage_gains(w, grid_points)
        assert got.tobytes() == coverage_gains_reference(w, grid_points).tobytes()
        assert got.shape == (1 if one_d else rows, grid_points)


class TestSubarrayPhaseObjective:
    def test_two_element_value(self):
        # (1 + e^{-j pi/2}) + (1 + e^{j pi/2}) = 2
        assert subarray_phase_objective(2, 0.0) == pytest.approx(2.0 + 0.0j, abs=1e-12)

    def test_periodic(self):
        a = subarray_phase_objective(4, 0.7)
        b = subarray_phase_objective(4, 0.7 + 2 * np.pi)
        assert abs(a) == pytest.approx(abs(b), abs=1e-12)

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            subarray_phase_objective(3, 0.1)

    def test_stationary_phase_is_argmax(self):
        thetas = np.linspace(-np.pi, np.pi, 10_000)
        for n_sub in (2, 4, 8, 16):
            best = -np.pi * (n_sub - 1) / n_sub
            vals = np.abs([subarray_phase_objective(n_sub, t) for t in thetas])
            assert abs(subarray_phase_objective(n_sub, best)) >= vals.max()


class TestCoverageGrid:
    def test_uniform_grid_shape(self):
        points = angle_grid(1024)
        assert points.shape == (1024,)
        assert points[0] == -1.0
        assert points[-1] < 1.0
        np.testing.assert_array_equal(np.diff(points), 2.0 / 1024)
        assert angle_grid().size == DEFAULT_GRID_POINTS

    def test_leaf_angles_tile_domain(self):
        angs = leaf_angles(8)
        assert angs[0] == pytest.approx(-1 + 1 / 8)
        assert angs[-1] == pytest.approx(1 - 1 / 8)
        np.testing.assert_allclose(np.diff(angs), 2 / 8)
