"""Thresholding and cleanup, checked against exhaustive-search and
flood-fill oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfcn import otsu_threshold, postproc, remove_small_regions, threshold_global
from mvfcn.errors import ConfigError, DataError, ShapeError
from mvfcn.postproc import label_components

from conftest import brute_force_otsu, flood_fill_components


class TestGlobalThreshold:
    def test_zero_tau_all_foreground(self):
        score = np.random.default_rng(0).uniform(size=(5, 5))
        assert threshold_global(score, 0.0).all()

    def test_tau_above_max_all_background(self):
        score = np.full((4, 4), 0.6)
        assert not threshold_global(score, 0.61).any()

    def test_definition(self):
        score = np.array([[0.2, 0.6]])
        assert np.array_equal(threshold_global(score, 0.5), [[0, 1]])

    def test_score_equal_tau_is_foreground(self):
        assert threshold_global(np.array([[0.5]]), 0.5)[0, 0] == 1

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            threshold_global(np.zeros((2, 2)), 1.5)

    @given(t1=st.floats(0, 1), t2=st.floats(0, 1))
    @settings(max_examples=40)
    def test_monotone(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        score = np.random.default_rng(17).uniform(size=(8, 8))
        tight = threshold_global(score, hi)
        loose = threshold_global(score, lo)
        assert not (tight & ~loose).any()  # mask(hi) subset of mask(lo)


class TestOtsu:
    def test_perfectly_bimodal(self):
        score = np.concatenate([np.zeros(50), np.ones(50)]).reshape(10, 10)
        result = otsu_threshold(score)
        assert 0.0 < result.tau <= 1.0
        mask = threshold_global(score, result.tau)
        assert np.array_equal(mask.ravel(), score.ravel() >= 0.5)
        assert result.sigma_w2 == pytest.approx(0.0, abs=1e-12)

    def test_constant_map_rejected(self):
        with pytest.raises(DataError, match="degenerate histogram"):
            otsu_threshold(np.full((6, 6), 0.4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1, 1.1])
    def test_value_outside_unit_interval_rejected(self, value):
        score = np.linspace(0, 1, 16).reshape(4, 4)
        score[2, 1] = value
        with pytest.raises(DataError, match=r"must lie in \[0, 1\]"):
            otsu_threshold(score)

    @pytest.mark.parametrize("shape", [(0,), (0, 5), (4, 0)])
    def test_empty_map_rejected(self, shape):
        with pytest.raises(DataError, match="empty score map"):
            otsu_threshold(np.zeros(shape, np.float32))

    def test_near_constant_single_bin_rejected(self):
        with pytest.raises(DataError):
            otsu_threshold(np.full((4, 4), 0.5001) + np.linspace(0, 1e-4, 16).reshape(4, 4))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        r = np.random.default_rng(seed)
        # random histogram realized as a score sample
        hist = r.integers(0, 30, size=256)
        hist[r.integers(0, 256)] += 100  # ensure structure
        values = np.repeat((np.arange(256) + 0.5) / 256, hist)
        if len(np.unique(values)) < 2:
            values = np.concatenate([values, [0.1, 0.9]])
        score = values.reshape(1, -1)
        result = otsu_threshold(score)
        best_t, best_val = brute_force_otsu(np.bincount(
            np.minimum((score * 256).astype(int), 255).ravel(), minlength=256))
        assert result.tau == pytest.approx(best_t / 256)
        assert result.sigma_w2 == pytest.approx(best_val, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_within_equals_between_class_choice(self, seed):
        r = np.random.default_rng(100 + seed)
        score = r.uniform(size=(16, 16))
        result = otsu_threshold(score)
        # maximize between-class variance, an independent selector
        hist = np.bincount(np.minimum((score * 256).astype(int), 255).ravel(),
                           minlength=256).astype(float)
        p = hist / hist.sum()
        centers = (np.arange(256) + 0.5) / 256
        best_t, best_between = None, -1.0
        for t in range(1, 256):
            w0, w1 = p[:t].sum(), p[t:].sum()
            if w0 == 0 or w1 == 0:
                continue
            mu0 = (p[:t] * centers[:t]).sum() / w0
            mu1 = (p[t:] * centers[t:]).sum() / w1
            between = w0 * w1 * (mu0 - mu1) ** 2
            if between > best_between + 1e-15:
                best_t, best_between = t, between
        assert result.tau == pytest.approx(best_t / 256)

    def test_invariant_to_within_bin_jitter(self):
        r = np.random.default_rng(7)
        score = r.uniform(size=(12, 12))
        bins = np.minimum((score * 256).astype(int), 255)
        jittered = (bins + r.uniform(0.05, 0.95, size=bins.shape)) / 256
        assert otsu_threshold(score).tau == otsu_threshold(jittered).tau


class TestRemoveSmallRegions:
    def test_blob_below_threshold_removed(self):
        mask = np.zeros((10, 10), np.uint8)
        mask[1:8, 1:8] = 1  # 49 pixels
        assert not remove_small_regions(mask, 50).any()

    def test_blob_at_threshold_survives(self):
        mask = np.zeros((12, 12), np.uint8)
        mask[1:6, 1:11] = 1  # exactly 50 pixels
        assert np.array_equal(remove_small_regions(mask, 50), mask)

    def test_mixed_blobs(self):
        mask = np.zeros((30, 30), np.uint8)
        mask[1:3, 1:6] = 1            # 10 pixels, removed
        mask[10:20, 10:30] = 1        # 200 pixels, kept
        out = remove_small_regions(mask, 50)
        assert not out[1:3, 1:6].any()
        assert out[10:20, 10:30].all()

    def test_diagonal_pixels_connect_with_8(self):
        mask = np.zeros((6, 6), np.uint8)
        mask[np.arange(5), np.arange(5)] = 1
        assert remove_small_regions(mask, 5, connectivity=8).sum() == 5
        assert remove_small_regions(mask, 5, connectivity=4).sum() == 0

    def test_min_area_zero_disables_cleanup(self):
        mask = (np.random.default_rng(0).uniform(size=(9, 9)) > 0.7).astype(np.uint8)
        assert np.array_equal(remove_small_regions(mask, 0), mask)

    def test_negative_min_area_rejected(self):
        with pytest.raises(ConfigError):
            remove_small_regions(np.zeros((2, 2), np.uint8), -1)

    @pytest.mark.parametrize("fill, min_area", [(0, 50), (1, 0), (1, 50)])
    def test_bad_connectivity_rejected_whatever_the_mask(self, fill, min_area):
        with pytest.raises(ConfigError, match="connectivity must be 4 or 8, got 5"):
            remove_small_regions(np.full((4, 4), fill, np.uint8), min_area, connectivity=5)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    @pytest.mark.parametrize("fill", [0, 1])
    def test_mask_not_2d_rejected_whatever_its_content(self, shape, fill):
        mask = np.zeros(shape, np.uint8)
        mask.flat[0] = fill
        with pytest.raises(ShapeError, match="mask must be 2-d"):
            remove_small_regions(mask, 5)

    def test_labels_through_the_module_binding(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return label_components(*args)

        monkeypatch.setattr(postproc, "label_components", counted)
        mask = np.zeros((6, 6), np.uint8)
        mask[1:3, 1:3] = 1
        assert not remove_small_regions(mask, 5).any()
        assert len(calls) == 1

    @given(seed=st.integers(0, 10_000), min_area=st.integers(1, 12),
           connectivity=st.sampled_from([4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_matches_flood_fill_oracle(self, seed, min_area, connectivity):
        r = np.random.default_rng(seed)
        mask = (r.uniform(size=(10, 12)) > 0.6).astype(np.uint8)
        out = remove_small_regions(mask, min_area, connectivity)
        expected = np.zeros_like(mask)
        for comp in flood_fill_components(mask, connectivity):
            if len(comp) >= min_area:
                for i, j in comp:
                    expected[i, j] = 1
        assert np.array_equal(out, expected)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_never_adds(self, seed):
        r = np.random.default_rng(seed)
        mask = (r.uniform(size=(12, 12)) > 0.55).astype(np.uint8)
        once = remove_small_regions(mask, 6)
        twice = remove_small_regions(once, 6)
        assert np.array_equal(once, twice)
        assert not (once & ~mask).any()


class TestLabelComponents:
    def test_two_blobs(self):
        mask = np.zeros((5, 5), np.uint8)
        mask[0, 0] = 1
        mask[3:5, 3:5] = 1
        labels, areas = label_components(mask, 8)
        assert labels.max() == 2
        assert sorted(areas[1:].tolist()) == [1, 4]

    def test_numbered_in_raster_order_of_first_pixel(self):
        # the right blob's first pixel (row 0) precedes the left one's (row 1)
        mask = np.array([[0, 0, 1],
                         [1, 0, 1],
                         [1, 0, 0]], np.uint8)
        labels, areas = label_components(mask, 4)
        assert labels.tolist() == [[0, 0, 1], [2, 0, 1], [2, 0, 0]]
        assert areas.tolist() == [5, 2, 2]

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
    def test_empty_mask_has_a_zero_background_count(self, shape):
        labels, areas = label_components(np.zeros(shape, np.uint8))
        assert labels.shape == shape
        assert areas.tolist() == [0]

    def test_full_pipeline_outputs_binary(self):
        score = np.random.default_rng(5).uniform(size=(20, 20))
        tau = otsu_threshold(score).tau
        mask = remove_small_regions(threshold_global(score, tau), 3)
        assert set(np.unique(mask)) <= {0, 1}


def assert_matches_ndimage(mask, connectivity):
    """labels (numbering included), their dtype and areas equal
    scipy.ndimage.label's, which also numbers components in raster order."""
    ndimage = pytest.importorskip("scipy.ndimage")
    structure = np.ones((3, 3)) if connectivity == 8 else None
    expected, _ = ndimage.label(mask, structure=structure)
    labels, areas = label_components(mask, connectivity)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, expected)
    assert np.array_equal(areas, np.bincount(expected.ravel()))


def _checkerboard(h, w):
    return (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(np.uint8)


def _spiral(n):
    """A one-pixel-wide clockwise square spiral, one pixel between turns."""
    mask = np.zeros((n, n), np.uint8)
    y = x = dy = turns = 0
    dx = 1
    mask[0, 0] = 1
    while turns < 2:
        ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        free = 0 <= ny < n and 0 <= nx < n and not mask[ny, nx]
        if free and not (0 <= ay < n and 0 <= ax < n and mask[ay, ax]):
            y, x, turns = ny, nx, 0
            mask[y, x] = 1
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return mask


def _serpentine(n):
    """Full even rows linked at alternate ends: one component of 2n runs."""
    mask = np.zeros((n, n), np.uint8)
    mask[::2] = 1
    mask[1::4, -1] = 1
    mask[3::4, 0] = 1
    return mask


def _comb(n):
    """Teeth on even columns that join only on the last row."""
    mask = np.zeros((n, n), np.uint8)
    mask[:, ::2] = 1
    mask[-1] = 1
    return mask


def _nested_u(n):
    """Concentric U shapes open at the top, one pixel apart."""
    mask = np.zeros((n, n), np.uint8)
    for lo in range(0, n // 2 - 1, 2):
        hi = n - 1 - lo
        mask[:hi + 1, lo] = mask[:hi + 1, hi] = mask[hi, lo:hi + 1] = 1
    return mask


FIXED_MASKS = {
    "row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], np.uint8),
    "column": np.array([[1], [0], [1], [1], [0], [1]], np.uint8),
    "background": np.zeros((7, 9), np.uint8),
    "foreground": np.ones((7, 9), np.uint8),
    "checkerboard": _checkerboard(8, 11),
    "diagonal": np.eye(9, dtype=np.uint8),
    "antidiagonal": np.eye(9, dtype=np.uint8)[::-1].copy(),
    # masks that take more than one hooking round or long pointer chains
    "spiral": _spiral(64),
    "serpentine": _serpentine(64),
    "comb": _comb(64),
    "nested_u": _nested_u(64),
    "half_density": (np.random.default_rng(0).uniform(size=(240, 320)) < 0.5).astype(np.uint8),
}


class TestLabelComponentsOracle:
    """label_components against scipy.ndimage.label (test-only dependency)."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(FIXED_MASKS))
    def test_fixed_masks(self, name, connectivity):
        assert_matches_ndimage(FIXED_MASKS[name], connectivity)

    @given(h=st.integers(1, 40), w=st.integers(1, 60), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), connectivity=st.sampled_from([4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_random_masks(self, h, w, density, seed, connectivity):
        mask = np.random.default_rng(seed).uniform(size=(h, w)) < density
        assert_matches_ndimage(mask.astype(np.uint8), connectivity)
