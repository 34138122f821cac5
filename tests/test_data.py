from pathlib import Path

import numpy as np
import pytest

from ldlkit import (
    Dataset,
    FeatureMatrix,
    FileFormat,
    LabelDistributionMatrix,
    kfold,
    load_dataset,
    resolve_data_path,
    save_dataset,
    standardize,
    subset,
    synth_lowrank,
)
from ldlkit.errors import ColumnNotSimplex, ParseError, ShapeMismatch

MATRIX_TEXT = """3 2 2
1.0 2.0
3.0 4.0
5.0 6.0
0.7 0.3
0.2 0.8
0.5 0.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_matrix_text(tmp_path):
    ds = load_dataset(write(tmp_path, "tiny.txt", MATRIX_TEXT))
    assert (ds.n, ds.d, ds.m) == (3, 2, 2)
    np.testing.assert_array_equal(ds.X.data[1], [3.0, 4.0])
    np.testing.assert_array_equal(ds.D.data[:, 2], [0.5, 0.5])
    assert ds.name == "tiny"


def test_load_rejects_out_of_band_sums(tmp_path):
    bad = MATRIX_TEXT.replace("0.7 0.3", "0.68 0.3")  # sums to 0.98
    with pytest.raises(ColumnNotSimplex):
        load_dataset(write(tmp_path, "bad.txt", bad))


def test_load_renormalizes_tiny_deviation(tmp_path):
    text = MATRIX_TEXT.replace("0.7 0.3", "0.70000003 0.3")
    with pytest.warns(UserWarning):
        ds = load_dataset(write(tmp_path, "warn.txt", text))
    assert ds.D.data[:, 0].sum() == pytest.approx(1.0, abs=1e-12)


def test_truncated_file_reports_line(tmp_path):
    truncated = "\n".join(MATRIX_TEXT.splitlines()[:4]) + "\n"
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "trunc.txt", truncated))
    assert exc.value.line == 4


def test_malformed_header(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "h.txt", "3 2\n"))
    assert exc.value.line == 1


def test_wrong_width_row(tmp_path):
    bad = MATRIX_TEXT.replace("3.0 4.0", "3.0")
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "w.txt", bad))
    assert exc.value.line == 3


def test_matrix_text_round_trip_is_exact(tmp_path):
    ds = synth_lowrank(17, 5, 3, 2, 0.25, seed=9)
    X = ds.X.data.copy()
    X[0, :4] = [-0.0, 5e-324, 1e22, -1e-300]
    ds = Dataset(ds.name, FeatureMatrix(X), ds.D)
    path = tmp_path / "rt.txt"
    save_dataset(ds, path)
    # reference: every value written one by one with 17 significant digits
    lines = [f"{ds.n} {ds.d} {ds.m}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in (*X, *ds.D.data.T)]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    back = load_dataset(path)
    np.testing.assert_array_equal(back.X.data, ds.X.data)
    assert np.signbit(back.X.data[0, 0])
    np.testing.assert_array_equal(back.D.data, ds.D.data)


def test_csv_round_trip(tmp_path):
    ds = synth_lowrank(11, 4, 3, 2, 0.1, seed=1)
    path = tmp_path / "rt.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.label_names == ("y1", "y2", "y3")
    np.testing.assert_array_equal(back.X.data, ds.X.data)
    np.testing.assert_array_equal(back.D.data, ds.D.data)


def test_csv_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "e.csv", ""), fmt=FileFormat.CSV)
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "r.csv", "f1,y1\n0.5\n"), fmt=FileFormat.CSV)
    assert exc.value.line == 2


def test_synth_is_deterministic_and_valid():
    a = synth_lowrank(40, 6, 5, 2, 0.3, seed=11)
    b = synth_lowrank(40, 6, 5, 2, 0.3, seed=11)
    np.testing.assert_array_equal(a.X.data, b.X.data)
    np.testing.assert_array_equal(a.D.data, b.D.data)
    assert np.abs(a.D.data.sum(axis=0) - 1.0).max() < 1e-12
    c = synth_lowrank(40, 6, 5, 2, 0.3, seed=12)
    assert np.abs(a.D.data - c.D.data).max() > 1e-3


def test_synth_full_rank_at_r_equals_m():
    ds = synth_lowrank(60, 8, 4, 4, 0.0, seed=0)
    s = np.linalg.svd(ds.D.data, compute_uv=False)
    assert s[-1] > 1e-8


def test_synth_rejects_bad_sizes():
    with pytest.raises(ValueError):
        synth_lowrank(10, 3, 4, 5)
    with pytest.raises(ValueError):
        synth_lowrank(10, 3, 4, 2, noise=-1)


def test_kfold_equal_sizes():
    plan = kfold(10, 10, seed=0)
    sizes = np.bincount(plan.assignments, minlength=10)
    assert (sizes == 1).all()


def test_kfold_balanced_remainder():
    plan = kfold(25, 10, seed=3)
    sizes = sorted(np.bincount(plan.assignments, minlength=10))
    assert sizes == [2] * 5 + [3] * 5


def test_kfold_partitions_and_is_deterministic():
    plan = kfold(37, 5, seed=8)
    seen = np.zeros(37, dtype=int)
    for f in range(5):
        train, test = plan.split(f)
        seen[test] += 1
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 37
    assert (seen == 1).all()
    again = kfold(37, 5, seed=8)
    np.testing.assert_array_equal(plan.assignments, again.assignments)
    other = kfold(37, 5, seed=9)
    assert np.any(plan.assignments != other.assignments)


def test_kfold_rejects_small_n():
    with pytest.raises(ValueError):
        kfold(5, 10)
    with pytest.raises(ValueError):
        kfold(10, 1)


def test_standardize_train_statistics():
    rng = np.random.default_rng(13)
    Xtr = rng.normal(3.0, 2.5, size=(200, 4))
    Xte = rng.normal(3.0, 2.5, size=(50, 4))
    out_tr, out_te, scaler = standardize(Xtr, Xte)
    assert np.abs(out_tr.mean(axis=0)).max() <= 1e-10
    assert np.abs(out_tr.std(axis=0) - 1.0).max() <= 1e-10
    # test transform uses train statistics, not its own
    np.testing.assert_allclose(out_te, (Xte - Xtr.mean(0)) / Xtr.std(0))


def test_standardize_constant_feature():
    Xtr = np.column_stack([np.arange(10.0), np.full(10, 7.0)])
    Xte = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
    out_tr, out_te, _ = standardize(Xtr, Xte)
    assert (out_tr[:, 1] == 0).all()
    assert (out_te[:, 1] == 0).all()


def test_resolve_data_path_env(tmp_path, monkeypatch):
    target = tmp_path / "inside.txt"
    target.write_text("x", encoding="utf-8")
    monkeypatch.setenv("LDL_DATA_DIR", str(tmp_path))
    assert resolve_data_path("inside.txt") == target
    assert resolve_data_path("missing.txt") == Path("missing.txt")


def test_dataset_shape_consistency():
    X = FeatureMatrix(np.ones((3, 2)))
    D = LabelDistributionMatrix(np.full((2, 4), 0.5))
    with pytest.raises(ShapeMismatch):
        Dataset("x", X, D)


def test_subset():
    ds = synth_lowrank(20, 4, 3, 2, 0.1, seed=2)
    sub = subset(ds, [1, 5, 7])
    assert sub.n == 3
    np.testing.assert_array_equal(sub.X.data, ds.X.data[[1, 5, 7]])
    np.testing.assert_array_equal(sub.D.data, ds.D.data[:, [1, 5, 7]])
