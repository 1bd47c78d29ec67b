import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_python

from beamtrain import (
    Codebook,
    angle_grid,
    beam_gain,
    coverage_factor_rho,
    export_codebook,
    generate_codebook,
    load_codebook,
    rotate,
    steering_weights,
    validate_codebook,
)
from beamtrain.arrays import MAX_GRID_CELLS, coverage_gains, leaf_weights, steering_matrix
from beamtrain.cli import main
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
        parents = []
        for i, (active, g) in enumerate(zip(cb.active_counts[k], gains[k])):
            if parent_rho is not None:
                p_rho = parent_rho
            elif active > 1:
                p_rho = coverage_factor_rho(active)
            else:
                p_rho = rho
            union = mask(gains[k + 1][2 * i], rho) | mask(gains[k + 1][2 * i + 1], rho)
            parents.append(POINTS[mask(g, p_rho) & ~union])
        violations.append(parents)
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


# sha256 over every layer's bytes and active counts, in layer order, as
# generated with NumPy 2.4.6 on x86-64 Linux.  Any change to a construction's
# formulas or to the order of their operations moves a digest.
PINNED_DIGESTS = {
    ("deact", 1): "9d46201e65eaceb95c7df9099e3c8435ca30f49938658b1f0ae9ab28a96af2e3",
    ("deact", 2): "0bb3318cb04872e6c1dc0fa65e3db67096f63af91ca12b7a5cff98cb5313e9e0",
    ("deact", 4): "a20f7b38461cc1ed339d2eb1b39de9263081f4262ef53bd55c3118c50869ec79",
    ("deact", 8): "cc9b5b0c7183fa684ab24c9e915d1009aa2784e0076035a744bba83c014fa19c",
    ("deact", 16): "877bfd9499f56c3e78f9861417186d48307b6d44557f591e95cc9ac5a933931e",
    ("deact", 32): "c9798e9bd777198ee8eeb30a3119659790a9091475e72c270e6402eba6927f8b",
    ("deact", 64): "aa277bbe7dc0fc71933a2c11ea5d480bfaa1490ddcc91bb6c1bb1174e40ec4ea",
    ("deact", 128): "472cc4d9802c013103ac44c04d0bb58ba5168a52cba3f66fcf7a181418552786",
    ("deact", 256): "4df00328fbc1c5c3ce7a99d9ee9a1e66a812990e4a4a12934b687669381855a6",
    ("deact", 512): "cc214fefe719d65a0411d601c9ff2130941f50dff0b98f94b49b23d8e8862342",
    ("deact", 1024): "10291847cccf3c560a3e86e7e51355db14ab17d7a8b4ecb13eff40940e8307c0",
    ("bmw-ss", 2): "0bb3318cb04872e6c1dc0fa65e3db67096f63af91ca12b7a5cff98cb5313e9e0",
    ("bmw-ss", 4): "54181219d65bc92c9103b9c71e499a0241fceab3e5fa8d7c4aef5a1b74a91638",
    ("bmw-ss", 8): "3370df5992cb96c0748c24c1738487145ba674bf48060d3051c07041476ca460",
    ("bmw-ss", 16): "d285fcb31c3ac2be915ae53ff98c9527aadee92816497e8618389b65c584bb2e",
    ("bmw-ss", 32): "98f1914ff7725b241b75662ee5df890daaeb688619a9b080bcab90fccf2f3350",
    ("bmw-ss", 64): "bb9056fd8ce32ff6ea90708addc5e54980b8508511d29f39e3e4dab3058026cc",
    ("bmw-ss", 128): "d4b8415330deb18e7401798e5828f25c22af20557729903517db7b9a8751f987",
    ("bmw-ss", 256): "43277d7fdfe5625b12f9fce44e2c22122224b5025482715b90a8d29062cc08a1",
    ("bmw-ss", 512): "20fbcf2f93eac14eba8ad33bcb4464d7d131fa7085fe1e703b25b8a16b3acb94",
    ("bmw-ss", 1024): "4f6898d4b21cc3ab87a01865e97ead8b852f456d1f2c85a1ceaf2b04e09f284c",
}


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
        cb = generate_codebook("deact", 2)
        np.testing.assert_allclose(cb.layers[0][0], [1.0, 0.0], atol=1e-15)

    def test_four_antenna_layer1(self):
        cb = generate_codebook("deact", 4)
        want = np.array([1.0, -1.0j, 0.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(cb.layers[1][0], want, atol=1e-14)

    def test_last_layer_is_steering(self):
        cb = generate_codebook("deact", 8)
        for i in range(1, 9):
            want = steering_weights(8, -1 + (2 * i - 1) / 8)
            np.testing.assert_allclose(cb.layers[3][i - 1], want, atol=1e-14)

    def test_active_counts_double_per_layer(self):
        cb = generate_codebook("deact", 64)
        for k, counts in enumerate(cb.active_counts):
            assert all(counts == 2**k)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            generate_codebook("deact", 6)

    def test_single_antenna_degenerate(self):
        cb = generate_codebook("deact", 1)
        assert cb.depth == 0
        assert cb.active_counts[0][0] == 1


class TestBmwSs:
    def test_four_antenna_layer1_structure(self):
        # One active sub-array of two antennas, scalar phase -pi/2.
        cb = generate_codebook("bmw-ss", 4)
        want = np.exp(-1j * np.pi / 2) * np.array([1.0, -1.0j, 0, 0]) / np.sqrt(2)
        np.testing.assert_allclose(cb.layers[1][0], want, atol=1e-14)
        assert cb.active_counts[1][0] == 2

    def test_four_antenna_root_all_active(self):
        cb = generate_codebook("bmw-ss", 4)
        assert cb.active_counts[0][0] == 4
        np.testing.assert_allclose(cb.layers[0][0], hand_built_bmw_first(4, 0), atol=1e-14)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_first_codewords_match_hand_construction(self, n):
        cb = generate_codebook("bmw-ss", n)
        for k in range(cb.depth):
            np.testing.assert_allclose(cb.layers[k][0], hand_built_bmw_first(n, k), atol=1e-13)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_active_counts_full_or_half(self, n):
        cb = generate_codebook("bmw-ss", n)
        for k in range(cb.depth):
            ell = cb.depth - k
            want = n if ell % 2 == 0 else n // 2
            # A single active antenna can occur only for the two-antenna array.
            want = max(want, 1)
            assert all(cb.active_counts[k] == want)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            generate_codebook("bmw-ss", 12)
        with pytest.raises(ValueError):
            generate_codebook("bmw-ss", 1)

    def test_two_antenna_root_single_active(self):
        cb = generate_codebook("bmw-ss", 2)
        np.testing.assert_allclose(np.abs(cb.layers[0][0]), [1.0, 0.0], atol=1e-14)


class TestSharedStructure:
    @pytest.mark.parametrize("n", [8, 64])
    def test_methods_share_last_layer(self, n):
        cb_d, cb_b = generate_codebook("deact", n), generate_codebook("bmw-ss", n)
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

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    @pytest.mark.parametrize("n", [2, 64])
    def test_leaf_layer_is_the_cached_array_uncopied(self, method, n):
        leaves = leaf_weights(n)
        assert generate_codebook(method, n).layers[-1] is leaves
        assert leaves.flags.owndata and leaves.flags.c_contiguous
        assert leaves.tobytes() == np.ascontiguousarray(steering_matrix(n).T).tobytes()

    def test_build_caches_no_steering_matrix(self):
        # The leaves are built straight from the leaf angles; only the oracle
        # needs the N x N steering matrix, so a codebook-only run never makes it.
        probe = (
            "from beamtrain import generate_codebook\n"
            "from beamtrain.arrays import steering_matrix\n"
            "for method in ('deact', 'bmw-ss'):\n"
            "    generate_codebook(method, 64)\n"
            "print(steering_matrix.cache_info().currsize)\n"
        )
        proc = run_python("-c", probe, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_layer_sizes(self):
        cb = generate_codebook("bmw-ss", 16)
        assert [len(layer) for layer in cb.layers] == [1, 2, 4, 8, 16]

    @pytest.mark.parametrize("method, n", list(PINNED_DIGESTS))
    def test_layers_match_pinned_digests(self, method, n):
        cb = generate_codebook(method, n)
        digest = hashlib.sha256()
        for layer, counts in zip(cb.layers, cb.active_counts):
            digest.update(layer.tobytes())
            digest.update(counts.tobytes())
        assert digest.hexdigest() == PINNED_DIGESTS[method, n]


class TestCriterionValidation:
    @pytest.mark.parametrize("n", [8, 32])
    def test_deact_passes_both_criteria(self, n):
        report = validate_codebook(generate_codebook("deact", n), 0.5, GRID_POINTS)
        assert not any(gap.size for gap in report.uncovered)
        assert not any(points.size for parents in report.violations for points in parents)
        assert report.passed

    def test_missing_leaf_fails_with_gap(self):
        cb = generate_codebook("deact", 16)
        # Overwrite leaf 5 with leaf 4; the layer union then misses roughly
        # leaf 5's 2/16-wide bin.
        leaves = cb.layers[-1].copy()
        leaves[4] = leaves[3]
        broken = Codebook(n=16, method=cb.method, layers=cb.layers[:-1] + (leaves,))
        report = validate_codebook(broken, 0.5, GRID_POINTS)
        assert not report.passed
        gap = report.uncovered[-1]
        assert gap.size > 0
        width = gap.max() - gap.min()
        assert width == pytest.approx(2 / 16, abs=0.05)

    def test_swapped_children_fail_containment(self):
        cb = generate_codebook("deact", 16)
        # Exchange the two children subtending different halves of the domain.
        layer1 = cb.layers[1][::-1]
        broken = Codebook(n=16, method=cb.method, layers=(cb.layers[0], layer1) + cb.layers[2:])
        report = validate_codebook(broken, 0.5, GRID_POINTS)
        assert not report.passed
        # Each layer alone still covers the domain; only containment fails.
        assert not any(gap.size for gap in report.uncovered)
        assert any(points.size for parents in report.violations for points in parents)

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_reports_match_beam_gain_reference(self, method, n):
        cb = generate_codebook(method, n)
        gains = [[np.abs(beam_gain(row, POINTS)) for row in layer] for layer in cb.layers]
        for rho in (0.5, 0.25):
            for parent_rho in (None, 0.5):
                uncovered, violations = reference_reports(cb, gains, rho, parent_rho)
                report = validate_codebook(cb, rho, GRID_POINTS, parent_rho=parent_rho)
                assert report.rho == rho
                assert len(report.uncovered) == len(uncovered)
                for got, want in zip(report.uncovered, uncovered):
                    np.testing.assert_array_equal(got, want)
                assert len(report.violations) == len(violations)
                for got_layer, want_layer in zip(report.violations, violations):
                    assert len(got_layer) == len(want_layer)
                    for got, want in zip(got_layer, want_layer):
                        np.testing.assert_array_equal(got, want)
                clean = not any(want.size for want in uncovered) and not any(
                    want.size for layer in violations for want in layer
                )
                assert report.passed == clean

    @pytest.mark.parametrize("n", [8, 64])
    def test_bmw_ss_validates_at_native_threshold(self, n):
        # Sub-array beams cross over near 0.3-0.4 of their peak, below the
        # steering-beam coverage factor, so 0.25 is their working threshold.
        report = validate_codebook(generate_codebook("bmw-ss", n), 0.25, GRID_POINTS)
        for gap in report.uncovered[1:]:
            assert gap.size == 0
        assert not any(points.size for parents in report.violations for points in parents)

    @pytest.mark.parametrize("n", [8, 64])
    def test_bmw_ss_root_null_at_domain_seam(self, n):
        # The inter-sub-array phase progression cannot close around the
        # period-2 circle, leaving an exact null at omega = +/-1; the root
        # layer therefore never covers the seam neighbourhood.
        gap = validate_codebook(generate_codebook("bmw-ss", n), 0.25, GRID_POINTS).uncovered[0]
        assert gap.size > 0
        assert np.all(np.abs(gap) > 0.9)

    @pytest.mark.parametrize("method", ["deact", "bmw-ss"])
    def test_one_coverage_fft_per_layer(self, method, monkeypatch):
        calls = []

        def counted(weights, grid_points):
            calls.append(len(weights))
            return coverage_gains(weights, grid_points)

        monkeypatch.setattr("beamtrain.codebooks.coverage_gains", counted)
        cb = generate_codebook(method, 32)
        validate_codebook(cb, 0.5, GRID_POINTS, parent_rho=0.5)
        assert calls == [2**k for k in range(cb.depth + 1)]
        calls.clear()
        main(["codebook", "--method", method, "--n", "32", "--validate"])
        assert calls == [2**k for k in range(cb.depth + 1)]


@pytest.mark.parametrize("method", ["deact", "bmw-ss"])
def test_validation_holds_one_layer_of_gains(method):
    # Each layer's gains are reduced to masks and dropped before the next
    # layer's exist: the peak stays under twice the N=64 leaf layer's
    # 64 x 4096 float64 gains (2 MiB).
    cb = generate_codebook(method, 64)
    tracemalloc.start()
    try:
        validate_codebook(cb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("parent_rho", [math.nan, 0.0, 1.0, 7.0])
def test_bad_parent_rho_is_refused_before_any_layer(n, parent_rho, monkeypatch):
    monkeypatch.setattr("beamtrain.codebooks.coverage_gains", None)  # no layer is read
    with pytest.raises(ValueError, match="parent_rho must lie strictly between 0 and 1"):
        validate_codebook(generate_codebook("deact", n), parent_rho=parent_rho)


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
        export_codebook(generate_codebook("deact", 4), path)
        lines = path.read_text().splitlines()
        records = [ln for ln in lines if ln.startswith("codeword ")]
        assert len(records) == 7  # layers of 1 + 2 + 4
        assert "depth 2" in lines

    def test_active_counts_recorded(self, tmp_path):
        path = tmp_path / "cb.txt"
        export_codebook(generate_codebook("bmw-ss", 64), path)
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
        cb = generate_codebook("deact", 4)
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
        export_codebook(generate_codebook("deact", 16), path)
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
        export_codebook(generate_codebook("deact", 4), path)
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

    def test_caller_arrays_are_copied(self):
        # A writeable array, or a read-only view of one, stays the caller's:
        # changing it afterwards leaves the codebook as it was built.
        cb = generate_codebook("bmw-ss", 8)
        owned = [layer.copy() for layer in cb.layers]
        layers = [layer.view() if k % 2 else layer for k, layer in enumerate(owned)]
        for view in layers[1::2]:
            view.setflags(write=False)
        built = Codebook(n=8, method="bmw-ss", layers=layers)
        for layer in owned:
            layer[...] = 0
        assert [x.tobytes() for x in built.layers] == [x.tobytes() for x in cb.layers]

    def test_codebook_needs_power_of_two_n(self):
        with pytest.raises(ValueError, match="power of two"):
            Codebook(n=12, method="deact", layers=generate_codebook("deact", 16).layers)

    def test_array_size_cap_boundary(self):
        # 4096 is the largest N whose (2N-1) x N codebook fits the cell budget.
        assert (2 * 4096 - 1) * 4096 <= MAX_GRID_CELLS < (2 * 8192 - 1) * 8192
        assert check_array_size(4096) == 12
        with pytest.raises(ValueError, match="cells"):
            check_array_size(8192)

    @pytest.mark.parametrize("key", ["n", "method", "depth"])
    def test_missing_header_line_names_key(self, tmp_path, key):
        path = tmp_path / "cb.txt"
        export_codebook(generate_codebook("deact", 4), path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{key} ")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"missing header line '{key}'"):
            load_codebook(path)
