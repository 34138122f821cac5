import re
import subprocess
import sys

import numpy as np
import pytest

import ldlkit
from ldlkit import (
    Dataset,
    EvalReport,
    FeatureMatrix,
    FitResult,
    FoldPlan,
    Hyperparams,
    LabelDistributionMatrix,
    LdlModel,
    MultiLabelMatrix,
    Standardizer,
    ThresholdDegrade,
    TopKDegrade,
    Variant,
    degrade,
    fit,
    parse_degradation,
    validate_distribution_matrix,
)
from ldlkit.errors import ColumnNotSimplex, ShapeMismatch
from ldlkit.report import ResultRow


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


@pytest.mark.parametrize("column, total", [([5.0, 5.0, 5.0], 15.0), ([-3.0, 2.0, 2.0], 1.0)],
                         ids=["sum 15", "entry -3"])
def test_a_record_off_the_simplex_cannot_be_built(column, total):
    D = np.tile(np.array(column)[:, None], (1, 30))
    for build in (lambda: LabelDistributionMatrix(D),
                  lambda: fit(FeatureMatrix(np.ones((30, 2))), LabelDistributionMatrix(D)),
                  lambda: degrade(LabelDistributionMatrix(D), ThresholdDegrade())):
        with pytest.raises(ColumnNotSimplex, match=r"30 column\(s\) violate .*: col 0 ") as exc:
            build()
        assert (exc.value.index, exc.value.total) == (0, total)
        assert [i for i, _ in exc.value.columns] == list(range(30))


def test_the_record_renormalizes_a_column_within_the_band():
    col = np.array([0.5, 0.5]) * (1 + 5e-7)
    with pytest.warns(UserWarning, match="renormalized 1 column"):
        out = LabelDistributionMatrix(col[:, None])
    assert out.data.sum() == 1.0 and col.sum() != 1.0


def test_the_record_keeps_a_valid_float64_array_and_copies_to_clip():
    arr = np.random.default_rng(0).dirichlet(np.ones(4), size=6).T
    out = LabelDistributionMatrix(arr)
    assert out.data is arr and validate_distribution_matrix(arr).data is arr
    arr[:, 0] = [-1e-13, 0.5, 0.5 + 1e-13, -0.0]
    clipped = LabelDistributionMatrix(arr).data
    assert clipped is not arr and arr[0, 0] < 0
    np.testing.assert_array_equal(np.signbit(clipped), False)


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
    assert Hyperparams._fields == ("alpha", "lam", "degradation", "max_iters", "tol")


def test_every_public_name_is_exported_once():
    # The reverse of the check above: a name imported into the package but
    # left out of __all__ fails here. Submodules bound under their own names
    # (data, metrics, solver, types) are not exports; errors is one.
    public = [name for name, value in vars(ldlkit).items()
              if not name.startswith("_")
              and (name == "errors" or getattr(value, "__name__", None) != f"ldlkit.{name}")]
    assert len(set(ldlkit.__all__)) == len(ldlkit.__all__)
    assert sorted(ldlkit.__all__) == sorted(public)


def record_cases():
    """Per record: positional arguments for every field, its defaults, a valid
    change, a change its validation rejects (with the error), and the repr the
    record had as a dataclass."""
    fm = FeatureMatrix(np.array([[1.0, 2.0]]))
    rep_args = (0.1, 0.2, 0.3, 0.4, 0.9, 0.8, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 7)
    rep = EvalReport(*rep_args)
    model = LdlModel(np.array([[1.0, 0.5]]), Variant.FULL, Hyperparams(), None, True)
    hp_repr = ("Hyperparams(alpha=0.1, lam=0.1, degradation=ThresholdDegrade(t=0.5), "
               "max_iters=200, tol=1e-05)")
    model_repr = (f"LdlModel(W=array([[1. , 0.5]]), variant=<Variant.FULL: 'full'>, "
                  f"hyperparams={hp_repr}, standardizer=None, bias=True)")
    rep_repr = ("EvalReport(chebyshev=0.1, clark=0.2, canberra=0.3, kl=0.4, cosine=0.9, "
                "intersection=0.8, chebyshev_std=0.01, clark_std=0.02, canberra_std=0.03, "
                "kl_std=0.04, cosine_std=0.05, intersection_std=0.06, n_evaluated=7)")
    nan = np.array([[np.nan]])
    cases = [
        (FeatureMatrix, (fm.data,), {}, {"data": np.array([[3.0]])},
         ({"data": nan}, ValueError), "FeatureMatrix(data=array([[1., 2.]]))"),
        (LabelDistributionMatrix, (np.array([[0.25], [0.75]]),), {}, {"data": np.eye(1)},
         ({"data": nan}, ValueError),
         "LabelDistributionMatrix(data=array([[0.25],\n       [0.75]]))"),
        (MultiLabelMatrix, (np.array([[1.0], [0.0]]),), {}, {"data": np.eye(1)},
         ({"data": np.array([[0.5]])}, ValueError),
         "MultiLabelMatrix(data=array([[1.],\n       [0.]]))"),
        (ThresholdDegrade, (0.3,), {"t": 0.5}, {"t": 0.4}, ({"t": 2.0}, ValueError),
         "ThresholdDegrade(t=0.3)"),
        (TopKDegrade, (2,), {"k": 1}, {"k": 3}, ({"k": 0}, ValueError), "TopKDegrade(k=2)"),
        (Hyperparams, (0.2, 0.3, TopKDegrade(2), 50, 1e-4),
         {"alpha": 0.1, "lam": 0.1, "degradation": ThresholdDegrade(), "max_iters": 200,
          "tol": 1e-5},
         {"alpha": 0.5}, ({"alpha": -1}, ValueError),
         "Hyperparams(alpha=0.2, lam=0.3, degradation=TopKDegrade(k=2), max_iters=50, "
         "tol=0.0001)"),
        (Standardizer, (np.array([0.0]), np.array([1.0])), {}, {"std": np.array([2.0])},
         ({"mean": np.array([np.inf])}, ValueError),
         "Standardizer(mean=array([0.]), std=array([1.]))"),
        (LdlModel, (model.W, Variant.FULL, Hyperparams(), None, True),
         {"standardizer": None, "bias": True}, {"bias": False},
         ({"W": np.array([[np.nan, 1.0]])}, ValueError), model_repr),
        (Dataset, ("toy", fm, LabelDistributionMatrix(np.eye(1)), None), {"label_names": None},
         {"name": "other"}, ({"D": LabelDistributionMatrix(np.ones((1, 2)))}, ShapeMismatch),
         "Dataset(name='toy', X=FeatureMatrix(data=array([[1., 2.]])), "
         "D=LabelDistributionMatrix(data=array([[1.]])), label_names=None)"),
        (FoldPlan, (2, np.array([0, 1])), {}, {"k": 3}, ({"assignments": ["x"]}, ValueError),
         "FoldPlan(k=2, assignments=array([0, 1]))"),
        (FitResult, (model, 3, 0.5, [1.0, 0.5], True), {}, {"converged": False}, None,
         f"FitResult(model={model_repr}, iterations_run=3, final_primal_residual=0.5, "
         f"objective_trace=[1.0, 0.5], converged=True)"),
        (EvalReport, rep_args, {}, {"kl": 0.5}, None, rep_repr),
        (ResultRow, ("toy", "full", rep), {}, {"variant": "ablation-a"}, None,
         f"ResultRow(dataset='toy', variant='full', scores={rep_repr})"),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


HASHABLE = (ThresholdDegrade, TopKDegrade, Hyperparams, EvalReport, ResultRow)


@pytest.mark.parametrize("cls, args, defaults, change, bad, golden", record_cases())
def test_records_are_frozen_value_types(cls, args, defaults, change, bad, golden):
    a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert repr(a) == repr(b) == golden
    assert a == b and a is not b
    assert a.__eq__(golden) is NotImplemented and a != golden
    required = args[:len(args) - len(defaults)]
    assert cls._fields[len(required):] == tuple(defaults)
    assert {name: getattr(cls(*required), name) for name in defaults} == defaults
    if required:
        last = cls._fields[len(required) - 1]
        with pytest.raises(TypeError, match=f"missing argument '{last}'"):
            cls(*required[:-1])
    with pytest.raises(TypeError, match="unexpected argument 'bogus'"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for '{cls._fields[0]}'"):
        cls(*args, **{cls._fields[0]: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(args)} arguments"):
        cls(*args, None)
    with pytest.raises(AttributeError, match="cannot assign to or delete"):
        setattr(a, cls._fields[0], args[0])
    with pytest.raises(AttributeError, match="cannot assign to or delete"):
        delattr(a, cls._fields[0])
    c = a.replace(**change)
    assert type(c) is cls and repr(a) == golden and repr(c) != golden
    assert all(getattr(c, name) is getattr(a, name) for name in cls._fields if name not in change)
    if cls in HASHABLE:
        assert hash(a) == hash(b) and a != c
    else:                                   # an array or list field, as with a dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    if bad is not None:
        with pytest.raises(bad[1]):
            a.replace(**bad[0])


def test_replace_validates_and_converts_again():
    with pytest.raises(ValueError, match="alpha must be nonnegative, got -1"):
        Hyperparams().replace(alpha=-1)
    assert type(Hyperparams().replace(max_iters=5.0).max_iters) is int
    assert Hyperparams().degradation is Hyperparams().degradation


def test_importing_the_cli_loads_no_dataclasses():
    # The records are plain classes: defining them compiles no methods at import.
    script = "import sys, ldlkit.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
