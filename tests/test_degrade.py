import numpy as np
import pytest

from ldlkit import threshold_degrade, topk_degrade
from ldlkit.degrade import degrade
from ldlkit.types import ThresholdDegrade, TopKDegrade

FIG_COLUMN = np.array([0.25, 0.4, 0.25, 0.1])


def test_threshold_hand_traced_example():
    # 0.4 selected first (H=0.4 <= 0.5), then the lower-index 0.25 (H=0.65 > 0.5)
    L = threshold_degrade(FIG_COLUMN[:, None], 0.5)
    np.testing.assert_array_equal(L.data[:, 0], [1, 1, 0, 0])


@pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.9, 0.999])
def test_threshold_one_hot_selects_single_label(t):
    L = threshold_degrade(np.array([[1.0], [0.0], [0.0]]), t)
    np.testing.assert_array_equal(L.data[:, 0], [1, 0, 0])


def test_threshold_uniform_four_labels():
    # prefix sums 0.25, 0.5, 0.75: equality at 0.5 keeps selecting, so 3 positives
    L = threshold_degrade(np.full((4, 1), 0.25), 0.5)
    assert L.data[:, 0].sum() == 3


def test_threshold_properties_random_columns():
    rng = np.random.default_rng(1)
    for _ in range(300):
        m = rng.integers(2, 12)
        d = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))
        t = rng.uniform(0.05, 0.95)
        L = threshold_degrade(d[:, None], t).data[:, 0]
        selected = d[L == 1]
        H = selected.sum()
        assert H > t
        # removing the last-selected (smallest selected) degree drops H to <= t
        assert H - selected.min() <= t + 1e-12


def test_topk_reference_example():
    # the three largest degrees {0.4, 0.25, 0.25} sit at indices 1, 0, 2
    L = topk_degrade(FIG_COLUMN[:, None], 3)
    np.testing.assert_array_equal(L.data[:, 0], [1, 1, 1, 0])


def test_topk_all_labels():
    rng = np.random.default_rng(2)
    d = rng.dirichlet(np.ones(5))
    L = topk_degrade(d[:, None], 5)
    assert L.data.sum() == 5


def test_topk_unique_maximum():
    L = topk_degrade(np.array([0.3, 0.3, 0.4])[:, None], 1)
    np.testing.assert_array_equal(L.data[:, 0], [0, 0, 1])


def test_topk_tie_breaks_toward_lower_index():
    L = topk_degrade(np.array([0.25, 0.4, 0.25, 0.1])[:, None], 2)
    np.testing.assert_array_equal(L.data[:, 0], [1, 1, 0, 0])


def test_topk_properties_random_columns():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m + 1))
        d = rng.dirichlet(np.ones(m))
        L = topk_degrade(d[:, None], k).data[:, 0]
        assert L.sum() == k
        if k < m:
            assert d[L == 1].min() >= d[L == 0].max()


def test_topk_k_exceeding_m_rejected():
    with pytest.raises(ValueError):
        topk_degrade(FIG_COLUMN[:, None], 5)


def test_permutation_equivariance_tie_free():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = 6
        d = rng.dirichlet(np.ones(m))
        while len(np.unique(d)) < m:        # keep the check tie-free
            d = rng.dirichlet(np.ones(m))
        perm = rng.permutation(m)
        for L, Lp in [
            (threshold_degrade(d[:, None], 0.5), threshold_degrade(d[perm][:, None], 0.5)),
            (topk_degrade(d[:, None], 3), topk_degrade(d[perm][:, None], 3)),
        ]:
            np.testing.assert_array_equal(L.data[perm, 0], Lp.data[:, 0])


def test_degrade_is_deterministic():
    rng = np.random.default_rng(5)
    D = rng.dirichlet(np.ones(7), size=40).T
    a = threshold_degrade(D, 0.4).data
    b = threshold_degrade(D, 0.4).data
    np.testing.assert_array_equal(a, b)
    a = topk_degrade(D, 3).data
    b = topk_degrade(D, 3).data
    np.testing.assert_array_equal(a, b)


def test_degrade_dispatch():
    D = FIG_COLUMN[:, None]
    np.testing.assert_array_equal(
        degrade(D, ThresholdDegrade(0.5)).data, threshold_degrade(D, 0.5).data
    )
    np.testing.assert_array_equal(
        degrade(D, TopKDegrade(2)).data, topk_degrade(D, 2).data
    )


def test_a_setting_that_is_not_a_degradation_is_a_type_error():
    with pytest.raises(TypeError, match="unknown degradation setting 'topk:2'"):
        degrade(FIG_COLUMN[:, None], "topk:2")


def test_a_bad_setting_is_named_before_a_bad_matrix():
    bad_D = np.array([[0.9], [0.9]])
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got 1.5"):
        threshold_degrade(bad_D, 1.5)
    with pytest.raises(ValueError, match="k must be a positive integer, got 0"):
        topk_degrade(bad_D, 0)
