import re
from dataclasses import fields

import numpy as np
import pytest

import ldlkit
from ldlkit import (
    FeatureMatrix,
    Hyperparams,
    LabelDistributionMatrix,
    MultiLabelMatrix,
    Standardizer,
    ThresholdDegrade,
    TopKDegrade,
    Variant,
    parse_degradation,
    validate_distribution_matrix,
)
from ldlkit.errors import ColumnNotSimplex, ShapeMismatch


def test_accepts_reference_distribution():
    D = np.array([[0.25, 0.4, 0.25, 0.1]]).T
    out = validate_distribution_matrix(D)
    assert isinstance(out, LabelDistributionMatrix)
    np.testing.assert_array_equal(out.data, D)


def test_accepts_one_hot_column():
    out = validate_distribution_matrix(np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(out.data, [[1.0], [0.0]])


def test_rejects_bad_column_sum():
    with pytest.raises(ColumnNotSimplex) as exc:
        validate_distribution_matrix(np.array([[0.6], [0.6]]))
    assert exc.value.index == 0
    assert exc.value.total == pytest.approx(1.2)


def test_rejects_negative_entry():
    with pytest.raises(ColumnNotSimplex):
        validate_distribution_matrix(np.array([[-0.2], [1.2]]))


def test_renormalizes_within_band():
    col = np.array([0.5, 0.5]) * (1 + 5e-7)
    with pytest.warns(UserWarning, match="renormalized"):
        out = validate_distribution_matrix(col[:, None])
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_rejects_beyond_band():
    # a 2% deficit is corrupt data, not rounding noise
    with pytest.raises(ColumnNotSimplex):
        validate_distribution_matrix(np.array([[0.49], [0.49]]))


def test_validated_invariants_hold_on_random_columns():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.integers(2, 12)
        n = rng.integers(1, 8)
        D = rng.dirichlet(np.ones(m), size=n).T
        out = validate_distribution_matrix(D)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0
        assert np.abs(out.data.sum(axis=0) - 1.0).max() <= 1e-9


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ShapeMismatch):
        FeatureMatrix(np.ones(3))


def test_multilabel_matrix_invariants():
    MultiLabelMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MultiLabelMatrix(np.array([[0.5], [0.5]]))
    with pytest.raises(ValueError):
        MultiLabelMatrix(np.array([[0.0], [0.0]]))


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1])
def test_threshold_range_enforced(bad):
    with pytest.raises(ValueError):
        ThresholdDegrade(bad)


def test_topk_requires_positive_integer():
    with pytest.raises(ValueError):
        TopKDegrade(0)
    assert TopKDegrade(3).k == 3


def test_parse_degradation():
    assert parse_degradation("threshold:0.4") == ThresholdDegrade(0.4)
    assert parse_degradation("topk:2") == TopKDegrade(2)
    with pytest.raises(ValueError, match=re.escape("in spec 'nope:1'")):
        parse_degradation("nope:1")
    with pytest.raises(ValueError):
        parse_degradation("threshold")
    for spec, needs in [("threshold:abc", "a number"), ("threshold:", "a number"),
                        ("topk:1.5", "an integer"), ("topk:", "an integer")]:
        with pytest.raises(ValueError, match=re.escape(f"degradation spec '{spec}' needs {needs}")):
            parse_degradation(spec)


def test_hyperparams_validation():
    Hyperparams()  # defaults are valid
    with pytest.raises(ValueError):
        Hyperparams(alpha=-1)
    with pytest.raises(ValueError):
        Hyperparams(lam=-0.5)
    with pytest.raises(ValueError):
        Hyperparams(max_iters=0)
    with pytest.raises(ValueError):
        Hyperparams(tol=0.0)


@pytest.mark.parametrize("make, name", [(FeatureMatrix, "feature matrix"),
                                        (LabelDistributionMatrix, "distribution matrix"),
                                        (MultiLabelMatrix, "multi-label matrix")])
def test_empty_matrix_is_a_shape_mismatch(make, name):
    with pytest.raises(ShapeMismatch, match=f"{name} must be non-empty"):
        make(np.zeros((3, 0)))


def test_hyperparams_reject_a_degradation_spec_string():
    with pytest.raises(TypeError, match="degradation must be ThresholdDegrade or TopKDegrade"):
        Hyperparams(degradation="threshold:0.5")


def test_variant_prints_as_its_value():
    assert [str(v) for v in Variant] == ["full", "ablation-a", "ablation-b"]
    assert f"{Variant.ABLATION_A}" == "ablation-a"


def test_standardizer_zero_variance_maps_to_zero():
    sc = Standardizer(mean=np.array([1.0, 2.0]), std=np.array([2.0, 0.0]))
    out = sc.transform(np.array([[3.0, 5.0], [1.0, 2.0]]))
    np.testing.assert_allclose(out[:, 0], [1.0, 0.0])
    np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])
    vec = sc.transform(np.array([3.0, 9.0]))
    np.testing.assert_allclose(vec, [1.0, 0.0])


def test_every_exported_name_resolves_and_removed_names_are_gone():
    for name in ldlkit.__all__:
        assert hasattr(ldlkit, name), name
    removed = {"solver": ("update_g", "update_multipliers"), "types": ("SolverState",),
               "data": ("standardize", "FileFormat", "infer_format"),
               "errors": ("DimensionMismatch",)}
    for module, names in removed.items():
        for name in names:
            assert not hasattr(ldlkit, name), name
            assert not hasattr(getattr(ldlkit, module), name), f"{module}.{name}"
    assert [f.name for f in fields(Hyperparams)] == ["alpha", "lam", "degradation",
                                                     "max_iters", "tol"]
