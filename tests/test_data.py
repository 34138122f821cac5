import csv
import hashlib
import io
import json
import os
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from ldlkit import (
    Dataset,
    FeatureMatrix,
    LabelDistributionMatrix,
    fit,
    kfold,
    load_dataset,
    predict,
    resolve_data_path,
    save_dataset,
    subset,
    synth_lowrank,
)
from ldlkit import data as dio
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
    with pytest.raises(ParseError, match="header values must be positive, got '0 3 2'") as exc:
        load_dataset(write(tmp_path, "zero.txt", "0 3 2\n"))
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


def _edge_floats(shape, seed):
    A = np.random.default_rng(seed).standard_normal(shape)
    edges = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, 3.0, -12.0]
    A.flat[:min(A.size, len(edges))] = edges[:A.size]
    return A


def _savetxt(A, fmt, *sep_newline):
    out = io.StringIO()
    np.savetxt(out, A, fmt, *sep_newline)
    return out.getvalue()


def _write_rows(A, fmt, *sep_newline):
    out = io.StringIO()
    dio.write_rows(out, A, fmt, *sep_newline)
    return out.getvalue()


@pytest.mark.parametrize("shape", [(0, 3), (1, 4), (7, 1), (dio._WRITE_ROWS + 3, 3),
                                   (2 * dio._WRITE_ROWS, 2)])
@pytest.mark.parametrize("transposed", [False, True])
def test_write_rows_is_savetxt_byte_for_byte(shape, transposed):
    A = _edge_floats(shape[::-1], seed=sum(shape)).T if transposed else _edge_floats(shape, 4)
    assert A.shape == shape
    for sep_newline in [(), (",", "\r\n")]:     # MatrixText's and CSV's rows
        assert _write_rows(A, "%.17g", *sep_newline) == _savetxt(A, "%.17g", *sep_newline)


@pytest.mark.parametrize("shape", [(0, 3), (1, 5), (9, 1), (dio._WRITE_ROWS + 1, 4)])
def test_write_rows_d_is_savetxt_on_int8_and_binary_floats(shape):
    L = (np.random.default_rng(shape[0]).random(shape[::-1]) < 0.4).astype(np.float64).T
    expected = _savetxt(L, "%d")
    assert _write_rows(L, "%d") == expected
    assert _write_rows(L.astype(np.int8), "%d") == expected


def _csv_per_value(ds, path):
    """Reference CSV writer: each value formatted alone, each row written by
    ``csv.writer``."""
    labels = ds.label_names or tuple(f"y{j + 1}" for j in range(ds.m))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j + 1}" for j in range(ds.d)] + list(labels))
        for xrow, drow in zip(ds.X.data.tolist(), ds.D.data.T.tolist()):
            writer.writerow([f"{v:.17g}" for v in xrow] + [f"{v:.17g}" for v in drow])


CSV_DATASETS = {
    "1x1": lambda: synth_lowrank(1, 1, 1, 1, 0.1, seed=0),
    "30x4": lambda: synth_lowrank(30, 4, 3, 2, 0.1, seed=1),
    "two_blocks": lambda: synth_lowrank(dio._WRITE_ROWS + 1, 5, 3, 2, 0.1, seed=2),
    "5000x50": lambda: synth_lowrank(5000, 50, 6, 2, 0.1, seed=3),
    "edges_and_quoted_labels": lambda: Dataset(
        "edges", FeatureMatrix([[-0.0, 5e-324, 1.7976931348623157e308]]),
        LabelDistributionMatrix([[1 / 3], [2 / 3]]), ("calm", 'joy, "mild"')),
}


@pytest.mark.parametrize("case", CSV_DATASETS)
def test_csv_bytes_equal_the_per_value_writer(tmp_path, case):
    ds = CSV_DATASETS[case]()
    save_dataset(ds, tmp_path / "new.csv")
    _csv_per_value(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    ds = synth_lowrank(11, 4, 3, 2, 0.1, seed=1)
    path = tmp_path / "rt.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.label_names == ("y1", "y2", "y3")
    np.testing.assert_array_equal(back.X.data, ds.X.data)
    np.testing.assert_array_equal(back.D.data, ds.D.data)


def test_a_csv_suffix_in_any_case_selects_csv(tmp_path):
    ds = synth_lowrank(11, 4, 3, 2, 0.1, seed=1)
    for name in ["upper.CSV", "mixed.Csv"]:
        save_dataset(ds, tmp_path / name)
        assert (tmp_path / name).read_text(encoding="utf-8").startswith("f1,f2,f3,f4,y1,y2,y3\n")
        back = load_dataset(tmp_path / name)
        assert back.name == name.split(".")[0]
        np.testing.assert_array_equal(back.X.data, ds.X.data)
    save_dataset(ds, tmp_path / "plain.dat")
    assert (tmp_path / "plain.dat").read_text(encoding="utf-8").startswith("11 4 3\n")


def test_csv_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "e.csv", ""))
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "r.csv", "f1,y1\n0.5\n"))
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
    # a size below 1 is named before r is compared with min(m, n)
    for sizes in [(0, 3, 4, 2), (10, 0, 4, 2), (10, 3, 0, 2), (10, 3, 4, 0), (-1, 3, 4, 2)]:
        with pytest.raises(ValueError, match="must be positive, got " + ", ".join(map(str, sizes))):
            synth_lowrank(*sizes)
    for noise in [np.nan, np.inf, -np.inf]:
        with pytest.raises(ValueError, match=f"noise must be finite and nonnegative, got {noise}"):
            synth_lowrank(10, 3, 4, 2, noise=noise)
    with pytest.raises(ValueError, match=r"noise 1e\+308 overflows the label scores"):
        synth_lowrank(10, 3, 4, 2, noise=1e308)


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


def simplex_projection(raw):
    """predict's clamp-and-renormalize, for score columns with a positive entry."""
    raw = np.maximum(raw, 0.0)
    return raw / raw.sum(axis=0)


def test_standardize_train_statistics():
    rng = np.random.default_rng(13)
    Xtr = rng.normal(3.0, 2.5, size=(200, 4))
    Xte = rng.normal(3.0, 2.5, size=(50, 4))
    D = rng.dirichlet(np.ones(3), size=200).T
    model = fit(Xtr, D).model
    np.testing.assert_array_equal(model.standardizer.mean, Xtr.mean(0))
    np.testing.assert_array_equal(model.standardizer.std, Xtr.std(0))
    out_tr = model.standardizer.transform(Xtr)
    assert np.abs(out_tr.mean(axis=0)).max() <= 1e-10
    assert np.abs(out_tr.std(axis=0) - 1.0).max() <= 1e-10
    # test rows are scaled with the train statistics, not their own
    Z = np.hstack([(Xte - Xtr.mean(0)) / Xtr.std(0), np.ones((50, 1))])
    np.testing.assert_allclose(predict(model, Xte), simplex_projection(model.W @ Z.T),
                               rtol=1e-12, atol=1e-15)


def test_standardize_constant_feature():
    rng = np.random.default_rng(14)
    Xtr = np.column_stack([np.arange(10.0), np.full(10, 7.0)])
    Xte = np.column_stack([np.arange(4.0), [7.0, -50.0, 1e6, 7.5]])
    model = fit(Xtr, rng.dirichlet(np.ones(3), size=10).T).model
    assert (model.standardizer.transform(Xte)[:, 1] == 0).all()
    Z = np.column_stack([(Xte[:, 0] - Xtr[:, 0].mean()) / Xtr[:, 0].std(), np.zeros(4),
                         np.ones(4)])
    np.testing.assert_allclose(predict(model, Xte), simplex_projection(model.W @ Z.T),
                               rtol=1e-12, atol=1e-15)


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
    assert (sub.n, sub.name) == (3, ds.name)
    np.testing.assert_array_equal(sub.X.data, ds.X.data[[1, 5, 7]])
    np.testing.assert_array_equal(sub.D.data, ds.D.data[:, [1, 5, 7]])


# MatrixText variants that must parse exactly as float() reads each token.
# Each is (text, feature rows, distribution rows) with the rows as tokens.
def _variant(feat, dist, sep=" ", nl="\n", pad="", blank=""):
    rows = [f"{len(feat)} {len(feat[0])} {len(dist[0])}"]
    for i, row in enumerate(feat + dist):
        if i in (1, len(feat) + 1):
            rows.append(blank)
        rows.append(pad + sep.join(row) + pad)
    return nl.join(rows) + nl, feat, dist


_FEAT = [["1.0", "2.0"], ["3.5", "-4"], ["5e-3", "6"]]
_DIST = [["0.7", "0.3"], ["0.2", "0.8"], ["0.5", "0.5"]]
WELL_FORMED = {
    "blank_lines": _variant(_FEAT, _DIST, blank=""),
    "whitespace_lines": _variant(_FEAT, _DIST, blank=" \t "),
    "trailing_blank_lines": (_variant(_FEAT, _DIST)[0] + "\n  \n\t\n", _FEAT, _DIST),
    "crlf": _variant(_FEAT, _DIST, nl="\r\n", blank=" "),
    "tabs": _variant(_FEAT, _DIST, sep="\t"),
    "padded": _variant(_FEAT, _DIST, sep=" \t  ", pad="  "),
    "n1": _variant([["1", "2", "3"]], [["0.25", "0.75"]]),
    "d1": _variant([["1"], ["2"], ["3"]], _DIST),
    "m1": _variant(_FEAT, [["1"], ["1.0"], ["1e0"]]),
    "n1_d1_m1": _variant([["-7"]], [["1"]]),
    "extreme_values": _variant([["-0.0", "5e-324"], ["1e22", "-1e-300"], ["0", "0"]], _DIST),
    "no_final_newline": (_variant(_FEAT, _DIST)[0].rstrip("\n"), _FEAT, _DIST),
}
UNDERSCORE = _variant([["1_0", "2"], ["3", "4"]], [["0.5", "0.5"], ["1", "0"]])


def _reference(rows):
    return np.array([[float(v) for v in row] for row in rows])


@pytest.mark.parametrize("case", [*WELL_FORMED, "underscore"])
def test_matrix_text_variants_parse_like_float(tmp_path, case):
    text, feat, dist = UNDERSCORE if case == "underscore" else WELL_FORMED[case]
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("utf-8"))
    ds = load_dataset(path)
    assert ds.X.data.tobytes() == _reference(feat).tobytes()
    assert ds.D.data.T.tobytes() == _reference(dist).tobytes()


@pytest.mark.parametrize("case", [*WELL_FORMED, "saved"])
def test_well_formed_matrix_text_skips_line_parser(tmp_path, monkeypatch, case):
    def fail(*args):
        raise AssertionError("well-formed file reached the line parser")

    path = tmp_path / "v.txt"
    if case == "saved":
        save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=0), path)
    else:
        path.write_bytes(WELL_FORMED[case][0].encode("utf-8"))
    monkeypatch.setattr(dio, "_parse_rows", fail)
    load_dataset(path)


# (text, line, message after "line N: "); the lines are those the
# line-by-line parser has always reported.
MALFORMED = {
    "hash_line": (MATRIX_TEXT.replace("3.0 4.0\n", "# note\n3.0 4.0\n"), 8,
                  "expected 6 data lines, found 7"),
    "hash_line_distribution": (MATRIX_TEXT.replace("0.2 0.8\n", "# note\n0.2 0.8\n"), 8,
                               "expected 6 data lines, found 7"),
    "hash_header": ("# data\n" + MATRIX_TEXT, 1, "header must be 'n d m', got '# data'"),
    "hash_value": (MATRIX_TEXT.replace("3.0 4.0", "3.0 #4.0"), 3,
                   "non-numeric feature value '#4.0' in column 2"),
    "extra_line": (MATRIX_TEXT + "0.5 0.5\n", 8, "expected 6 data lines, found 7"),
    "short_row": (MATRIX_TEXT.replace("3.0 4.0", "3.0"), 3, "expected 2 feature values, got 1"),
    "long_row": (MATRIX_TEXT.replace("0.2 0.8", "0.2 0.8 0.0"), 6,
                 "expected 2 distribution values, got 3"),
    "wide_block": (MATRIX_TEXT.replace(".0\n", ".0 0\n"), 2,
                   "expected 2 feature values, got 3"),
    "bad_feature": (MATRIX_TEXT.replace("5.0 6.0", "5.0 x"), 4,
                    "non-numeric feature value 'x' in column 2"),
    "bad_distribution": (MATRIX_TEXT.replace("0.2 0.8", "abc 0.8"), 6,
                         "non-numeric distribution value 'abc' in column 1"),
    "bad_header": (MATRIX_TEXT.replace("3 2 2", "3 2"), 1, "header must be 'n d m', got '3 2'"),
    "float_header": (MATRIX_TEXT.replace("3 2 2", "3 2.0 2"), 1,
                     "header values must be integers, got '3 2.0 2'"),
    "empty": ("", 1, "empty file"),
    "blank": ("\n  \n", 1, "empty file"),
    "truncated": ("\n".join(MATRIX_TEXT.splitlines()[:4]) + "\n", 4,
                  "expected 6 data lines, found 3"),
    "header_overstates_n": (MATRIX_TEXT.replace("3 2 2", "1000000000 2 2"), 7,
                            "expected 2000000000 data lines, found 6"),
    "header_beyond_int64": (MATRIX_TEXT.replace("3 2 2", f"{2**63} 2 2"), 7,
                            f"expected {2**64} data lines, found 6"),
    "nan_feature": (MATRIX_TEXT.replace("3.0 4.0", "3.0 nan"), 3,
                    "non-finite feature value 'nan' in column 2"),
    "inf_distribution": (MATRIX_TEXT.replace("0.2 0.8", "inf 0.8"), 6,
                         "non-finite distribution value 'inf' in column 1"),
    "overflow": (MATRIX_TEXT.replace("5.0 6.0", "1e400 6.0"), 4,
                 "non-finite feature value '1e400' in column 1"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_matrix_text_reports_line(tmp_path, case):
    text, line, reason = MALFORMED[case]
    path = write(tmp_path, "bad.txt", text)
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line == line
    assert exc.value.reason == reason
    assert str(exc.value) == f"{path}: line {line}: {reason}"


def test_non_utf8_byte_reports_line(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(MATRIX_TEXT.replace("5.0 6.0", "5.0 6.0 \xe9").encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line == 4
    assert exc.value.reason == "byte 0xe9 is not valid UTF-8 (invalid continuation byte)"


def test_loadtxt_notes_stay_off_stderr(tmp_path):
    spaced = MATRIX_TEXT.replace("\n", "\n\n  \n")
    truncated = "\n".join(MATRIX_TEXT.splitlines()[:4]) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(write(tmp_path, "spaced.txt", spaced))
        with pytest.raises(ParseError):
            load_dataset(write(tmp_path, "trunc.txt", truncated))
    np.testing.assert_array_equal(ds.X.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_dataset_errors_name_the_file(tmp_path):
    path = write(tmp_path, "sums.txt", MATRIX_TEXT.replace("0.7 0.3", "0.68 0.3"))
    with pytest.raises(ColumnNotSimplex) as exc:
        load_dataset(path)
    assert str(exc.value).startswith(f"{path}: 1 column(s) violate")
    with pytest.raises(ParseError) as exc:
        load_dataset(write(tmp_path, "r.csv", "f1,y1\n0.5\n"))
    assert exc.value.line == 2
    assert str(exc.value) == f"{tmp_path / 'r.csv'}: line 2: expected 2 columns, got 1"


CSV = b"f1,y1\n0.5,1\n0.25,1\n"
# (bytes, line, message after "line N: ") for the CSV reader.
MALFORMED_CSV = {
    "bad_byte": (CSV.replace(b"0.25", b"0.2\xff"), 3,
                 "byte 0xff is not valid UTF-8 (invalid start byte)"),
    "bad_value": (CSV.replace(b"0.25,1", b"0.25,x"), 3, "non-numeric value 'x' in column 2"),
    "empty_value": (CSV.replace(b"0.25,1", b",1"), 3, "non-numeric value '' in column 1"),
    "short_row": (b"f1,y1\n0.5\n", 2, "expected 2 columns, got 1"),
    "nan": (CSV.replace(b"0.25", b"nan"), 3, "non-finite value 'nan' in column 1"),
    "overflow": (CSV.replace(b"0.5,1", b"0.5,1e400"), 2, "non-finite value '1e400' in column 2"),
    "header_only": (b"f1,y1\n", 2, "no data rows"),
    "no_feature_column": (b"y1,y2\n0.5,0.5\n", 1,
                          "header must name f1..fd then y1..ym columns, got ['y1', 'y2']"),
    "no_label_column": (b"f1,f2\n0.5,0.5\n", 1,
                        "header must name f1..fd then y1..ym columns, got ['f1', 'f2']"),
    "after_blank_records": (b"f1,y1\n\n , \n0.5,x\n", 4, "non-numeric value 'x' in column 2"),
    "huge_field": (b"f1,y1\n0.5,1\n" + b"1" * 200_000 + b",1\n", 3,
                   "field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", MALFORMED_CSV)
def test_malformed_csv_reports_line(tmp_path, case):
    data, line, reason = MALFORMED_CSV[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line == line
    assert exc.value.reason == reason
    assert str(exc.value) == f"{path}: line {line}: {reason}"


def test_csv_skips_blank_records(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_bytes(b"f1,y1\n\n0.5,1\r\n , \n\n0.25,1\n\n")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X.data, [[0.5], [0.25]])
    np.testing.assert_array_equal(ds.D.data, [[1.0, 1.0]])
    assert ds.label_names == ("y1",)


# The parse cache; each test has its own, empty one (see conftest.py).
def _no_parse(monkeypatch):
    def fail(data):
        raise AssertionError("a cache hit parsed the file")

    monkeypatch.setattr(dio, "_load_matrix_text", fail)
    monkeypatch.setattr(dio, "_load_csv", fail)


def _assert_same_arrays(a, b):
    for x, y in ((a.X.data, b.X.data), (a.D.data, b.D.data)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.strides == y.strides
        assert x.tobytes() == y.tobytes()


LABELED_CSV = 'f1,f2,calm,"joy, mild",z\x00\n1,-0.0,0.5,0.25,0.25\n3e-300,4,1,0,0\n'


@pytest.mark.parametrize("name", ["hit.txt", "hit.csv"])
def test_a_cache_hit_is_the_parse_bit_for_bit(tmp_path, monkeypatch, parse_cache, name):
    path = tmp_path / name
    save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=3), path)
    cold = load_dataset(path)
    assert len(list(parse_cache.glob("*.npys"))) == 1
    _no_parse(monkeypatch)
    warm = load_dataset(path)
    _assert_same_arrays(cold, warm)
    assert cold.D.data.flags.f_contiguous and warm.label_names == cold.label_names


def test_a_hit_opens_no_zip_archive_and_parses_nothing(tmp_path, monkeypatch, parse_cache):
    path = tmp_path / "hit.csv"
    save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=3), path)
    cold = load_dataset(path)
    _no_parse(monkeypatch)
    archives = []
    monkeypatch.setattr(zipfile, "ZipFile", lambda *a, **k: archives.append(a))
    _assert_same_arrays(cold, load_dataset(path))
    assert archives == []


def test_an_entry_is_npy_records_of_the_digest_sizes_and_parse(tmp_path, parse_cache):
    # Each record is a .npy file's bytes, one after another, so numpy reads
    # them in turn: the SHA-256 of the parser version, format and file bytes;
    # the CRC-32s of the next three records and n, d, m and the JSON's
    # length; X, Drows and the labels' JSON.
    path = write(tmp_path, "labels.csv", LABELED_CSV)
    ds = load_dataset(path)
    (entry,) = parse_cache.iterdir()
    digest, sizes, X, Drows, text = _records(entry)
    salt = f"{dio.PARSE_VERSION} CSV\n".encode()
    assert digest.tobytes() == hashlib.sha256(salt + path.read_bytes()).digest()
    assert X.tobytes() == ds.X.data.tobytes() and Drows.tobytes() == ds.D.data.T.tobytes()
    assert text.tobytes() == b'["calm", "joy, mild", "z\\u0000"]'
    assert sizes.dtype == np.uint64 and sizes.tolist() == [
        zlib.crc32(X.tobytes()), zlib.crc32(Drows.tobytes()), zlib.crc32(text.tobytes()),
        2, 2, 3, len(text)]


def test_csv_label_names_survive_a_hit(tmp_path, monkeypatch):
    path = write(tmp_path, "labels.csv", LABELED_CSV)
    cold = load_dataset(path)
    _no_parse(monkeypatch)
    warm = load_dataset(path)
    assert warm.label_names == cold.label_names == ("calm", "joy, mild", "z\x00")
    _assert_same_arrays(cold, warm)


@pytest.mark.parametrize("name, text", [("plain.txt", MATRIX_TEXT), ("labels.csv", LABELED_CSV)])
def test_entries_keep_the_bytes_of_json_dumps_and_hit(tmp_path, monkeypatch, parse_cache,
                                                      name, text):
    # The labels record is json.dumps of the label names, None (no names)
    # included, as entries have always been written: such an entry, built
    # here record by record, is the one the cache writes, and it hits.
    path = write(tmp_path, name, text)
    cold = load_dataset(path)
    (entry,) = parse_cache.iterdir()
    digest, _, X, Drows, _ = _records(entry)
    labels = np.frombuffer(json.dumps(cold.label_names).encode(), np.uint8)
    sizes = np.array([zlib.crc32(X), zlib.crc32(Drows), zlib.crc32(labels),
                      *X.shape, Drows.shape[1], len(labels)], np.uint64)
    built = io.BytesIO()
    for record in (digest, sizes, X, Drows, labels):
        np.save(built, record)
    assert entry.read_bytes() == built.getvalue()
    _no_parse(monkeypatch)
    warm = load_dataset(path)
    assert warm.label_names == cold.label_names
    _assert_same_arrays(cold, warm)


def test_changed_bytes_or_parser_version_are_parsed_again(tmp_path, monkeypatch,
                                                           parse_cache):
    path = write(tmp_path, "tiny.txt", MATRIX_TEXT)
    load_dataset(path)
    write(tmp_path, "tiny.txt", MATRIX_TEXT.replace("5.0 6.0", "5.0 6.5"))
    np.testing.assert_array_equal(load_dataset(path).X.data[2], [5.0, 6.5])
    assert len(list(parse_cache.glob("*.npys"))) == 1   # one entry per file
    calls, parse = [], dio._load_matrix_text
    monkeypatch.setattr(dio, "_load_matrix_text", lambda data: calls.append(1) or parse(data))
    load_dataset(path)
    assert calls == []
    monkeypatch.setattr(dio, "PARSE_VERSION", dio.PARSE_VERSION + 1)
    load_dataset(path)
    assert calls == [1]


def _records(entry):
    with open(entry, "rb") as fh:
        return [np.load(fh) for _ in range(5)]


def _damage(entry, how):
    data = entry.read_bytes()
    if how == "truncated":
        entry.write_bytes(data[:len(data) // 2])
    elif how == "flipped":                          # a byte of X's data
        middle = len(data) // 2
        entry.write_bytes(data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:])
    elif how == "garbage":
        entry.write_bytes(b"\x93NUMPY\x01\x00garbage")
    elif how == "array":                            # a foreign .npy file
        with open(entry, "wb") as fh:
            np.save(fh, np.eye(3))
    else:
        digest, sizes, X, Drows, text = _records(entry)
        with open(entry, "wb") as fh:
            for name, record in [("digest", digest), ("sizes", sizes), ("X", X),
                                 ("Drows", Drows), ("text", text)]:
                if how == "missing key" and name == "Drows":   # a missing record
                    continue
                if how == "fortran order" and name == "X":   # the same bytes in F order
                    fh.write(dio._npy_header(X.dtype, X.shape).replace(b"False", b"True "))
                    fh.write(X.tobytes(order="F"))
                    continue
                if how == "float32" and name == "Drows":
                    record = record.astype(np.float32)
                dio._write_record(fh, record)


@pytest.mark.parametrize("how", ["truncated", "flipped", "garbage", "array",
                                 "missing key", "fortran order", "float32"])
def test_a_damaged_entry_is_parsed_again_silently(tmp_path, parse_cache, how):
    path = tmp_path / "ds.txt"
    save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=3), path)
    cold = load_dataset(path)
    (entry,) = parse_cache.glob("*.npys")
    _damage(entry, how)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_arrays(cold, load_dataset(path))
        _assert_same_arrays(cold, load_dataset(path))   # from the rewritten entry


@pytest.mark.parametrize("name, text", [("tiny.txt", MATRIX_TEXT), ("labels.csv", LABELED_CSV)],
                         ids=["tiny.txt", "labels.csv"])
def test_every_flipped_byte_of_an_entry_means_a_parse(tmp_path, monkeypatch, parse_cache,
                                                      name, text):
    path = write(tmp_path, name, text)
    cold = load_dataset(path)
    (entry,) = parse_cache.iterdir()
    original = entry.read_bytes()
    calls, parse = [], dio._load_csv if name.endswith(".csv") else dio._load_matrix_text
    monkeypatch.setattr(dio, parse.__name__, lambda data: calls.append(1) or parse(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pos in range(len(original)):
            flipped = bytearray(original)
            flipped[pos] ^= 0x20 if pos % 2 else 0x01
            entry.write_bytes(flipped)
            warm = load_dataset(path)
            _assert_same_arrays(cold, warm)
            assert warm.label_names == cold.label_names
            assert len(calls) == pos + 1, pos
    assert entry.read_bytes() == original


def test_entries_of_the_zip_format_are_removed(tmp_path, parse_cache):
    parse_cache.mkdir(parents=True)
    old = parse_cache / f"{dio._cache_entry(tmp_path / 'tiny.txt').stem}.npz"
    np.savez(old, digest=np.str_("0" * 64))
    load_dataset(write(tmp_path, "tiny.txt", MATRIX_TEXT))
    assert [entry.suffix for entry in parse_cache.iterdir()] == [".npys"]


def test_a_piped_dataset_loads_and_leaves_the_cache_empty(tmp_path, parse_cache):
    path = write(tmp_path, "tiny.txt", MATRIX_TEXT)
    expected = load_dataset(path)
    for entry in parse_cache.iterdir():
        entry.unlink()
    read, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(path.read_bytes())
    try:
        piped = load_dataset(f"/dev/fd/{read}")
    finally:
        os.close(read)
    _assert_same_arrays(expected, piped)
    assert list(parse_cache.iterdir()) == []


def test_an_unwritable_cache_is_passed_over_silently(tmp_path, monkeypatch, parse_cache):
    path = write(tmp_path, "tiny.txt", MATRIX_TEXT)
    expected = load_dataset(path)

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    for target, name in [(dio.tempfile, "mkstemp"), (dio.os, "replace")]:
        with monkeypatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(target, name, refuse)
            for entry in parse_cache.iterdir():
                entry.unlink()
            _assert_same_arrays(expected, load_dataset(path))
            assert list(parse_cache.iterdir()) == []     # no entry, no temporary file
    parse_cache.rmdir()
    parse_cache.write_bytes(b"")                           # the cache directory is a file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_arrays(expected, load_dataset(path))


def test_a_parse_error_is_raised_again_and_leaves_no_entry(tmp_path, parse_cache):
    path = write(tmp_path, "bad.txt", MALFORMED["bad_feature"][0])
    for _ in range(2):
        with pytest.raises(ParseError, match="line 4: non-numeric feature value 'x'"):
            load_dataset(path)
    assert not parse_cache.exists() or list(parse_cache.iterdir()) == []


def test_validation_runs_on_every_hit(tmp_path, monkeypatch):
    path = write(tmp_path, "warn.txt", MATRIX_TEXT.replace("0.7 0.3", "0.70000003 0.3"))
    bad = write(tmp_path, "sums.txt", MATRIX_TEXT.replace("0.7 0.3", "0.68 0.3"))
    with pytest.warns(UserWarning, match="renormalized 1 column"):
        cold = load_dataset(path)
    with pytest.raises(ColumnNotSimplex):
        load_dataset(bad)
    _no_parse(monkeypatch)
    with pytest.warns(UserWarning, match="renormalized 1 column"):
        warm = load_dataset(path)
    _assert_same_arrays(cold, warm)
    with pytest.raises(ColumnNotSimplex, match="sums.txt: 1 column"):
        load_dataset(bad)


def test_relative_cache_paths_are_not_used(tmp_path, monkeypatch):
    # XDG base directories must be absolute; with no absolute home either,
    # nothing is cached, rather than cached under the working directory.
    path = write(tmp_path, "tiny.txt", MATRIX_TEXT)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.setenv("HOME", "home")
    assert load_dataset(path).n == 3
    assert list(work.iterdir()) == []


def test_the_cache_keeps_its_most_recently_used_entries(tmp_path, monkeypatch, parse_cache):
    n = dio._CACHE_ENTRIES
    paths = [write(tmp_path, f"t{i}.txt", MATRIX_TEXT) for i in range(n + 2)]
    for path in paths[:n]:
        load_dataset(path)
    load_dataset(paths[0])                                 # a hit: now the most recent
    for path in paths[n:]:
        load_dataset(path)
    kept = {dio._cache_entry(p) for p in [paths[0], *paths[3:]]}
    assert set(parse_cache.glob("*.npys")) == kept
    assert len({entry.stat().st_mtime_ns for entry in kept}) == n   # no ties
    _no_parse(monkeypatch)

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(dio.os, "utime", refuse)           # a hit stays a hit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_dataset(paths[0]).n == 3
