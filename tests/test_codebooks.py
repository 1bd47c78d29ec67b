import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beamtrain import (
    Codebook,
    angle_grid,
    beam_gain,
    coverage_factor_rho,
    export_codebook,
    generate_bmw_ss,
    generate_codebook,
    generate_deact,
    load_codebook,
    rotate,
    steering_weights,
    validate_criterion1,
    validate_criterion2,
)
from beamtrain.arrays import MAX_GRID_CELLS, steering_matrix
from beamtrain.codebooks import check_array_size

GRID_POINTS = 4096
POINTS = angle_grid(GRID_POINTS)


def reference_reports(cb, gains, rho, parent_rho):
    """Criterion 1 gaps and criterion 2 violations from per-codeword gains."""

    def mask(g, r):
        return g > r * g.max()

    uncovered = []
    for layer in gains:
        union = np.zeros(GRID_POINTS, dtype=bool)
        for g in layer:
            union |= mask(g, rho)
        uncovered.append(POINTS[~union])
    violations = []
    for k in range(cb.depth):
        for i, (active, g) in enumerate(zip(cb.active_counts[k], gains[k])):
            if parent_rho is not None:
                p_rho = parent_rho
            elif active > 1:
                p_rho = coverage_factor_rho(active)
            else:
                p_rho = rho
            union = mask(gains[k + 1][2 * i], rho) | mask(gains[k + 1][2 * i + 1], rho)
            violations.append(POINTS[mask(g, p_rho) & ~union])
    return uncovered, violations


def hand_built_bmw_first(n, layer):
    """Independent evaluation of the first codeword of a sub-array layer."""
    depth = int(np.log2(n))
    ell = depth - layer
    m_sub = 2 ** ((ell + 1) // 2)
    n_sub = n // m_sub
    n_active = m_sub if ell % 2 == 0 else m_sub // 2
    w = np.zeros(n, dtype=complex)
    for m in range(1, n_active + 1):
        phase = np.exp(-1j * m * np.pi * (n_sub - 1) / n_sub)
        steer = np.exp(1j * np.pi * np.arange(n_sub) * (-1 + (2 * m - 1) / n_sub))
        w[(m - 1) * n_sub : m * n_sub] = phase * steer / np.sqrt(n_sub)
    return w / np.linalg.norm(w)


@pytest.mark.parametrize("method", ["deact", "bmw-ss"])
@pytest.mark.parametrize("n", [2**e for e in range(1, 9)])
def test_leaves_are_the_oracle_steering_columns(method, n):
    # The exhaustive oracle scans steering_matrix(n); the search ends on the
    # leaves.  Both must be the same vectors to the last bit.
    cb = generate_codebook(method, n)
    mat = steering_matrix(n)
    for i in range(n):
        assert np.array_equal(mat[:, i], cb.layers[-1][i])


class TestDeact:
    def test_two_antenna_root(self):
        cb = generate_deact(2)
        np.testing.assert_allclose(cb.layers[0][0], [1.0, 0.0], atol=1e-15)

    def test_four_antenna_layer1(self):
        cb = generate_deact(4)
        want = np.array([1.0, -1.0j, 0.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(cb.layers[1][0], want, atol=1e-14)

    def test_last_layer_is_steering(self):
        cb = generate_deact(8)
        for i in range(1, 9):
            want = steering_weights(8, -1 + (2 * i - 1) / 8)
            np.testing.assert_allclose(cb.layers[3][i - 1], want, atol=1e-14)

    def test_active_counts_double_per_layer(self):
        cb = generate_deact(64)
        for k, counts in enumerate(cb.active_counts):
            assert all(counts == 2**k)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            generate_deact(6)

    def test_single_antenna_degenerate(self):
        cb = generate_deact(1)
        assert cb.depth == 0
        assert cb.active_counts[0][0] == 1


class TestBmwSs:
    def test_four_antenna_layer1_structure(self):
        # One active sub-array of two antennas, scalar phase -pi/2.
        cb = generate_bmw_ss(4)
        want = np.exp(-1j * np.pi / 2) * np.array([1.0, -1.0j, 0, 0]) / np.sqrt(2)
        np.testing.assert_allclose(cb.layers[1][0], want, atol=1e-14)
        assert cb.active_counts[1][0] == 2

    def test_four_antenna_root_all_active(self):
        cb = generate_bmw_ss(4)
        assert cb.active_counts[0][0] == 4
        np.testing.assert_allclose(cb.layers[0][0], hand_built_bmw_first(4, 0), atol=1e-14)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_first_codewords_match_hand_construction(self, n):
        cb = generate_bmw_ss(n)
        for k in range(cb.depth):
            np.testing.assert_allclose(cb.layers[k][0], hand_built_bmw_first(n, k), atol=1e-13)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_active_counts_full_or_half(self, n):
        cb = generate_bmw_ss(n)
        for k in range(cb.depth):
            ell = cb.depth - k
            want = n if ell % 2 == 0 else n // 2
            # A single active antenna can occur only for the two-antenna array.
            want = max(want, 1)
            assert all(cb.active_counts[k] == want)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            generate_bmw_ss(12)
        with pytest.raises(ValueError):
            generate_bmw_ss(1)

    def test_two_antenna_root_single_active(self):
        cb = generate_bmw_ss(2)
        np.testing.assert_allclose(np.abs(cb.layers[0][0]), [1.0, 0.0], atol=1e-14)


class TestSharedStructure:
    @pytest.mark.parametrize("n", [8, 64])
    def test_methods_share_last_layer(self, n):
        cb_d, cb_b = generate_deact(n), generate_bmw_ss(n)
        np.testing.assert_allclose(cb_d.layers[-1], cb_b.layers[-1], atol=1e-12)

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    def test_layers_are_rotations_of_first(self, method):
        cb = generate_codebook(method, 32)
        for k, layer in enumerate(cb.layers):
            for i, row in enumerate(layer):
                want = rotate(layer[0], 2 * i / 2**k)
                np.testing.assert_allclose(row, want, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(method=st.sampled_from(["deact", "bmw-ss"]), log2_n=st.integers(1, 9), data=st.data())
    def test_rotated_rows_equal_rotate_bit_for_bit(self, method, log2_n, data):
        cb = generate_codebook(method, 2**log2_n)
        k = data.draw(st.integers(0, cb.depth - 1))
        layer = cb.layers[k]
        for i, row in enumerate(layer):
            assert row.tobytes() == rotate(layer[0], 2 * i / 2**k).tobytes()

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    def test_layers_are_read_only_c_arrays(self, method):
        cb = generate_codebook(method, 16)
        for layer, counts in zip(cb.layers, cb.active_counts):
            assert layer.flags.c_contiguous and not layer.flags.writeable
            assert not counts.flags.writeable

    def test_layer_sizes(self):
        cb = generate_codebook("bmw-ss", 16)
        assert [len(layer) for layer in cb.layers] == [1, 2, 4, 8, 16]


class TestCriterionValidation:
    @pytest.mark.parametrize("n", [8, 32])
    def test_deact_passes_both_criteria(self, n):
        cb = generate_deact(n)
        assert validate_criterion1(cb, 0.5, GRID_POINTS).passed
        assert validate_criterion2(cb, 0.5, GRID_POINTS).passed

    def test_missing_leaf_fails_with_gap(self):
        cb = generate_deact(16)
        # Overwrite leaf 5 with leaf 4; the layer union then misses roughly
        # leaf 5's 2/16-wide bin.
        leaves = cb.layers[-1].copy()
        leaves[4] = leaves[3]
        broken = Codebook(n=16, method=cb.method, layers=cb.layers[:-1] + (leaves,))
        report = validate_criterion1(broken, 0.5, GRID_POINTS)
        assert not report.passed
        gap = report.layers[-1].uncovered
        assert gap.size > 0
        width = gap.max() - gap.min()
        assert width == pytest.approx(2 / 16, abs=0.05)

    def test_swapped_children_fail_containment(self):
        cb = generate_deact(16)
        # Exchange the two children subtending different halves of the domain.
        layer1 = cb.layers[1][::-1]
        broken = Codebook(n=16, method=cb.method, layers=(cb.layers[0], layer1) + cb.layers[2:])
        assert not validate_criterion2(broken, 0.5, GRID_POINTS).passed

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_reports_match_beam_gain_reference(self, method, n):
        cb = generate_codebook(method, n)
        gains = [[np.abs(beam_gain(row, POINTS)) for row in layer] for layer in cb.layers]
        for rho in (0.5, 0.25):
            for parent_rho in (None, 0.5):
                uncovered, violations = reference_reports(cb, gains, rho, parent_rho)
                rep1 = validate_criterion1(cb, rho, GRID_POINTS)
                rep2 = validate_criterion2(cb, rho, GRID_POINTS, parent_rho=parent_rho)
                assert len(rep1.layers) == len(uncovered)
                for rep, want in zip(rep1.layers, uncovered):
                    np.testing.assert_array_equal(rep.uncovered, want)
                    assert rep.passed == (want.size == 0)
                assert len(rep2.parents) == len(violations)
                for rep, want in zip(rep2.parents, violations):
                    np.testing.assert_array_equal(rep.violations, want)
                    assert rep.passed == (want.size == 0)

    @pytest.mark.parametrize("n", [8, 64])
    def test_bmw_ss_validates_at_native_threshold(self, n):
        # Sub-array beams cross over near 0.3-0.4 of their peak, below the
        # steering-beam coverage factor, so 0.25 is their working threshold.
        cb = generate_bmw_ss(n)
        report1 = validate_criterion1(cb, 0.25, GRID_POINTS)
        for rep in report1.layers[1:]:
            assert rep.passed
        assert validate_criterion2(cb, 0.25, GRID_POINTS).passed

    @pytest.mark.parametrize("n", [8, 64])
    def test_bmw_ss_root_null_at_domain_seam(self, n):
        # The inter-sub-array phase progression cannot close around the
        # period-2 circle, leaving an exact null at omega = +/-1; the root
        # layer therefore never covers the seam neighbourhood.
        cb = generate_bmw_ss(n)
        rep = validate_criterion1(cb, 0.25, GRID_POINTS).layers[0]
        assert not rep.passed
        assert np.all(np.abs(rep.uncovered) > 0.9)


class TestExport:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(method=st.sampled_from(["deact", "bmw-ss"]), log2_n=st.integers(1, 7))
    def test_round_trip_bit_identical(self, tmp_path, method, log2_n):
        cb = generate_codebook(method, 2**log2_n)
        path = tmp_path / "cb.txt"
        export_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.n == cb.n and loaded.method == cb.method
        assert loaded.depth == cb.depth
        for k, layer in enumerate(cb.layers):
            np.testing.assert_array_equal(loaded.active_counts[k], cb.active_counts[k])
            np.testing.assert_array_equal(loaded.layers[k], layer)

    def test_file_shape_small_codebook(self, tmp_path):
        path = tmp_path / "cb.txt"
        export_codebook(generate_deact(4), path)
        lines = path.read_text().splitlines()
        records = [ln for ln in lines if ln.startswith("codeword ")]
        assert len(records) == 7  # layers of 1 + 2 + 4
        assert "depth 2" in lines

    def test_active_counts_recorded(self, tmp_path):
        path = tmp_path / "cb.txt"
        export_codebook(generate_bmw_ss(64), path)
        counts = {
            int(ln.split()[3])
            for ln in path.read_text().splitlines()
            if ln.startswith("codeword ")
        }
        assert counts == {32, 64}

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a codebook\n")
        with pytest.raises(ValueError):
            load_codebook(path)

    def test_rejects_truncated_file(self, tmp_path):
        cb = generate_deact(4)
        path = tmp_path / "cb.txt"
        export_codebook(cb, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_codebook(path)

    def test_rejects_depth_that_does_not_match_n(self, tmp_path):
        # Layers 0-2 of an N=16 codebook under "depth 2" are 4 wide beams,
        # not a codebook for 16 antennas: a search on them ends off the leaves.
        path = tmp_path / "cb.txt"
        export_codebook(generate_deact(16), path)
        lines = [
            "depth 2" if ln.startswith("depth ") else ln
            for ln in path.read_text().splitlines()
            if not ln.startswith(("codeword 3 ", "codeword 4 "))
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="layers"):
            load_codebook(path)

    @pytest.mark.parametrize(
        "extra, match",
        [("codeword 1", "layer, index and active count"), (None, "duplicate")],
        ids=["short-record", "duplicate-record"],
    )
    def test_rejects_malformed_record(self, tmp_path, extra, match):
        path = tmp_path / "cb.txt"
        export_codebook(generate_deact(4), path)
        lines = path.read_text().splitlines()
        lines.append(lines[-1] if extra is None else extra)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=match):
            load_codebook(path)

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    @pytest.mark.parametrize("n_layers", [1, 3, 4])
    def test_codebook_needs_log2_n_plus_one_layers(self, method, n_layers):
        layers = generate_codebook(method, 16).layers[:n_layers]
        with pytest.raises(ValueError, match="layers"):
            Codebook(n=16, method=method, layers=layers)

    def test_codebook_needs_power_of_two_n(self):
        with pytest.raises(ValueError, match="power of two"):
            Codebook(n=12, method="deact", layers=generate_deact(16).layers)

    def test_array_size_cap_boundary(self):
        # 4096 is the largest N whose (2N-1) x N codebook fits the cell budget.
        assert (2 * 4096 - 1) * 4096 <= MAX_GRID_CELLS < (2 * 8192 - 1) * 8192
        assert check_array_size(4096) == 12
        with pytest.raises(ValueError, match="cells"):
            check_array_size(8192)

    @pytest.mark.parametrize("key", ["n", "method", "depth"])
    def test_missing_header_line_names_key(self, tmp_path, key):
        path = tmp_path / "cb.txt"
        export_codebook(generate_deact(4), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"missing header line '{key}'"):
            load_codebook(path)
