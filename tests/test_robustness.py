"""Bad input fails early with an error that names the culprit."""
import io
import random
import re
import struct
import warnings
import zipfile

import numpy as np
import pytest

from ldlkit import (Dataset, FeatureMatrix, Hyperparams, TopKDegrade, fit, load_dataset,
                    load_model, predict, save_dataset, save_model, solver, synth_lowrank)
from ldlkit.errors import NonFiniteIterate, ShapeMismatch, SingularSystem
from ldlkit.cli import main


@pytest.mark.parametrize("field, value, name", [
    ("alpha", np.nan, "alpha"),
    ("alpha", np.inf, "alpha"),
    ("lam", np.nan, "lambda"),
    ("lam", np.inf, "lambda"),
    ("tol", np.nan, "tol"),
    ("tol", np.inf, "tol"),
])
def test_hyperparams_reject_non_finite_values(field, value, name):
    with pytest.raises(ValueError, match=name):
        Hyperparams(**{field: value})


@pytest.mark.parametrize("field, name", [("alpha", "alpha"), ("lam", "lambda"), ("tol", "tol")])
@pytest.mark.parametrize("value", ["0.1", True, np.bool_(True), 1j])
def test_hyperparams_reject_a_value_that_is_not_a_real_number(field, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        Hyperparams(**{field: value})


@pytest.mark.parametrize("value", [1e308, np.float64(9e307)])
def test_hyperparams_reject_a_lambda_whose_double_overflows(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"lambda must be at most 8.98847e\+307, got "):
            Hyperparams(lam=value)
    assert Hyperparams(lam=8.9e307).lam == 8.9e307


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, "5", None])
def test_hyperparams_reject_non_integral_max_iters(value):
    with pytest.raises(ValueError, match="max_iters"):
        Hyperparams(max_iters=value)


@pytest.mark.parametrize("value", [True, np.bool_(True)])
def test_a_bool_is_not_an_integer(value):
    with pytest.raises(ValueError, match=f"^max_iters must be an integer, got {value!r}$"):
        Hyperparams(max_iters=value)
    with pytest.raises(ValueError, match="^k must be a positive integer, got True$"):
        TopKDegrade(value)


@pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), 7.0])
def test_hyperparams_accept_integral_max_iters(value):
    hp = Hyperparams(max_iters=value)
    assert hp.max_iters == 7 and type(hp.max_iters) is int


@pytest.mark.parametrize("variant, schedule", [
    ("full", dict(MU_MAX=1e300, MU_GROWTH=1e10)),
    ("full", dict(MU0=1e307, MU_MAX=1e308, MU_GROWTH=10.0)),
    ("ablation-a", dict(MU0=1e307, MU_MAX=1e308, MU_GROWTH=10.0)),
])
def test_overflowing_iterate_is_a_typed_error(monkeypatch, variant, schedule):
    for name, value in schedule.items():
        monkeypatch.setattr(solver, name, value)
    ds = synth_lowrank(60, 5, 3, 2, 0.1, seed=0)
    hp = Hyperparams(alpha=1.0, max_iters=60)
    with warnings.catch_warnings(), \
            pytest.raises(NonFiniteIterate, match=r"not finite at iteration \d+ "):
        warnings.simplefilter("error")              # the typed error is the only report
        fit(ds.X, ds.D, hp, variant)


def test_the_culprit_of_a_non_finite_iterate_is_named(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(solver, "MU0", 1e307)
    monkeypatch.setattr(solver, "MU_MAX", 1e308)
    monkeypatch.setattr(solver, "MU_GROWTH", 10.0)
    path = tmp_path / "d.txt"
    save_dataset(synth_lowrank(60, 5, 3, 2, 0.1, seed=0), path)
    code = main(["train", str(path), "--model-out", str(tmp_path / "m.npz"),
                 "--alpha", "0.5", "--lambda", "0.25"])
    assert code == 1 and not (tmp_path / "m.npz").exists()
    assert re.fullmatch(r"error: iterate is not finite at iteration \d+ \(relative primal"
                        r" residual \S+, W change \S+\) at alpha=0\.5 lambda=0\.25\n",
                        capsys.readouterr().err)


def test_singular_w_step_core_is_a_typed_error(monkeypatch):
    # I + F'Y is SPD in exact arithmetic, and no input found reaches it
    # singular before the O-step's own system is: the core (the only solve
    # with m right-hand sides) is handed a singular matrix instead.
    ds = synth_lowrank(12, 4, 2, 1, 0.1, seed=1)
    solve, cores = np.linalg.solve, []

    def singular_core(A, b):
        if b.shape[1] == ds.D.m:
            cores.append(A.shape)
            A = np.zeros(A.shape)
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", singular_core)
    with pytest.raises(SingularSystem, match="W-step system is numerically singular"):
        fit(ds.X, ds.D, Hyperparams(lam=1e-6))
    assert cores == [(4, 4)]


def test_singular_o_step_is_a_typed_error(monkeypatch, capsys, tmp_path):
    # Iteration 1's W-step is diagonal (O = I), so a full fit's first solve is
    # the O-step's 2m x 2m system; LAPACK is made to find it singular.
    ds = synth_lowrank(12, 4, 2, 1, 0.1, seed=1)
    save_dataset(ds, tmp_path / "s.txt")
    systems = []

    def singular(A, b):
        systems.append(A.shape)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="O-step system is numerically singular"):
        fit(ds.X, ds.D, Hyperparams(lam=0.1))
    assert systems == [(4, 4)]
    code = main(["train", str(tmp_path / "s.txt"), "--model-out", str(tmp_path / "m.npz")])
    assert code == 1 and not (tmp_path / "m.npz").exists()
    assert capsys.readouterr() == ("", "error: O-step system is numerically singular\n")


def test_feature_overflowing_standardization_is_a_clean_error(capsys, tmp_path):
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=0)
    X = ds.X.data.copy()
    X[7, 2] = 1e160
    save_dataset(Dataset(ds.name, FeatureMatrix(X), ds.D), tmp_path / "big.txt")
    code = main(["train", str(tmp_path / "big.txt"), "--model-out", str(tmp_path / "m.npz")])
    assert code == 1 and not (tmp_path / "m.npz").exists()
    assert capsys.readouterr().err == (
        "error: feature column 3 overflows standardization: its std is inf\n")


@pytest.mark.parametrize("command", [["train", "--variant", "full"],
                                     ["train", "--variant", "ablation-a"],
                                     ["train", "--variant", "ablation-b"],
                                     ["cv", "--folds", "2"]])
def test_feature_overflowing_the_gram_is_a_clean_error(capsys, tmp_path, command):
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=0)
    X = ds.X.data.copy()
    X[:, 2] *= 1e160
    save_dataset(Dataset(ds.name, FeatureMatrix(X), ds.D), tmp_path / "big.txt")
    out = ["--model-out", str(tmp_path / "m.npz")] if command[0] == "train" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], str(tmp_path / "big.txt"), *command[1:], *out,
                     "--no-standardize"])
    assert code == 1 and not (tmp_path / "m.npz").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: feature column 3 overflows X'X: ") and err.count("\n") == 1


@pytest.fixture()
def model_files(tmp_path):
    """A dataset, a saved model on it and its entries, for corrupted copies."""
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=0)
    save_dataset(ds, tmp_path / "ds.txt")
    save_model(fit(ds.X, ds.D, variant="ablation-b").model, tmp_path / "good.npz")
    with np.load(tmp_path / "good.npz") as z:
        entries = dict(z)
    return tmp_path, entries


def evaluate_error(capsys, tmp_path, model):
    code = main(["evaluate", str(tmp_path / "ds.txt"), "--model", str(model)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(model) in err
    return err


@pytest.mark.parametrize("content", [b"", b"hello world\n", b"PK\x03\x04garbage"])
def test_junk_model_file_is_a_clean_error(capsys, model_files, content):
    tmp_path, _ = model_files
    path = tmp_path / "junk.npz"
    path.write_bytes(content)
    assert "is not an ldlkit model file" in evaluate_error(capsys, tmp_path, path)


def test_array_file_is_not_a_model(capsys, model_files):
    tmp_path, _ = model_files
    path = tmp_path / "array.npy"
    np.save(path, np.eye(3))
    assert "is not an ldlkit model file" in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("key", ["W", "format_version", "bias", "feature_std", "alpha"])
def test_model_file_missing_an_entry_names_it(capsys, model_files, key):
    tmp_path, entries = model_files
    del entries[key]
    path = tmp_path / "partial.npz"
    np.savez(path, **entries)
    assert f"has no {key!r} entry" in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("key", ["format_version", "alpha", "bias", "variant"])
def test_model_entry_holding_many_values_is_a_clean_error(capsys, model_files, key):
    tmp_path, entries = model_files
    entries[key] = np.repeat(entries[key], 3)
    path = tmp_path / "vector.npz"
    np.savez(path, **entries)
    assert f"entry {key!r} holds 3 values" in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("change, expected", [
    ("wider W", "with bias=True the standardizer needs 6 entries"),
    ("bias off", "with bias=False the standardizer needs 6 entries"),
    ("short std", "got mean (5,) and std (4,)"),
])
def test_model_width_disagreeing_with_standardizer_is_a_shape_mismatch(
        capsys, model_files, change, expected):
    tmp_path, entries = model_files
    if change == "wider W":
        entries["W"] = np.hstack([entries["W"], entries["W"][:, :1]])
    elif change == "bias off":
        entries["bias"] = np.bool_(False)
    else:
        entries["feature_std"] = entries["feature_std"][:-1]
    path = tmp_path / "mismatch.npz"
    np.savez(path, **entries)
    with pytest.raises(ShapeMismatch, match=re.escape(expected)):
        load_model(path)
    assert expected in evaluate_error(capsys, tmp_path, path)


def test_bias_column_alone_is_a_shape_mismatch(capsys, model_files):
    tmp_path, entries = model_files
    entries["W"] = entries["W"][:, -1:]
    entries["has_standardizer"] = np.bool_(False)
    path = tmp_path / "bias_only.npz"
    np.savez(path, **entries)
    with pytest.raises(ShapeMismatch):
        load_model(path)
    assert "no feature column" in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("key", ["W", "alpha"])
def test_model_entry_of_python_objects_is_a_clean_error(capsys, model_files, key):
    tmp_path, entries = model_files
    entries[key] = np.array([None], dtype=object)
    path = tmp_path / "objects.npz"
    np.savez(path, **entries)
    assert f"model entry {key!r} cannot be read" in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("key, value, expected", [
    ("alpha", np.str_("0.1"), "alpha must be a real number, got '0.1'"),
    ("lam", np.str_("0.1"), "lambda must be a real number, got '0.1'"),
    ("tol", np.str_("1e-05"), "tol must be a real number, got '1e-05'"),
    ("bias", np.str_("maybe"), "model entry 'bias' must be a bool, got 'maybe'"),
    ("bias", np.int64(7), "model entry 'bias' must be a bool, got 7"),
    ("has_standardizer", np.str_("maybe"),
     "model entry 'has_standardizer' must be a bool, got 'maybe'"),
    ("has_standardizer", np.int64(7), "model entry 'has_standardizer' must be a bool, got 7"),
    ("format_version", np.str_("1"), "model entry 'format_version' must be an int, got '1'"),
    ("format_version", np.bool_(True), "model entry 'format_version' must be an int, got True"),
    ("max_iters", np.bool_(True), "max_iters must be an integer, got True"),
])
def test_model_entry_of_the_wrong_type_is_a_clean_error(capsys, model_files, key, value,
                                                        expected):
    tmp_path, entries = model_files
    entries[key] = value
    path = tmp_path / "typed.npz"
    np.savez(path, **entries)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
        load_model(path)
    for command in ("evaluate", "predict"):
        assert main([command, str(tmp_path / "ds.txt"), "--model", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {expected}\n"


def _damaged_member(data: bytes, member: str, how: str) -> bytes:
    """A saved model's bytes with one member damaged: its last data byte
    flipped, or a field of its central-directory record overwritten."""
    data = bytearray(data)
    if how == "bad crc":
        info = zipfile.ZipFile(io.BytesIO(bytes(data))).getinfo(member)
        name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
        end = info.header_offset + 30 + name_len + extra_len + info.compress_size
        data[end - 1] ^= 0xFF
        return bytes(data)
    record = data.index(b"PK\x01\x02")
    while data[record + 46:record + 46 + len(member)] != member.encode():
        record = data.index(b"PK\x01\x02", record + 4)
    offset, value = {"zip version": (6, 99), "encrypted": (8, 1), "compression": (10, 99)}[how]
    struct.pack_into("<H", data, record + offset, value)
    return bytes(data)


@pytest.mark.parametrize("how, expected", [
    ("bad crc", "model entry 'tol' cannot be read: Bad CRC-32 for file 'tol.npy'"),
    ("encrypted", "model entry 'tol' cannot be read: File 'tol.npy' is encrypted"),
    ("compression", "model entry 'tol' cannot be read: That compression method"),
    ("zip version", "is not an ldlkit model file"),
])
def test_damaged_model_member_is_a_clean_error(capsys, model_files, how, expected):
    tmp_path, _ = model_files
    path = tmp_path / "damaged.npz"
    path.write_bytes(_damaged_member((tmp_path / "good.npz").read_bytes(), "tol.npy", how))
    assert expected in evaluate_error(capsys, tmp_path, path)


@pytest.mark.parametrize("key, value, expected", [
    ("feature_std", np.inf, "feature column 2 overflows standardization: its std is inf"),
    ("feature_mean", np.nan, "feature column 2 overflows standardization: its mean is nan"),
    ("feature_std", -0.5, "feature column 2 has a negative std -0.5"),
])
def test_model_with_non_finite_standardizer_is_a_clean_error(capsys, model_files, key, value,
                                                             expected):
    tmp_path, entries = model_files
    entries[key] = entries[key].copy()
    entries[key][1] = value
    path = tmp_path / "scaler.npz"
    np.savez(path, **entries)
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_model(path)
    assert expected in evaluate_error(capsys, tmp_path, path)


def test_model_with_a_non_finite_weight_is_a_clean_error(capsys, model_files):
    tmp_path, entries = model_files
    entries["W"] = entries["W"].copy()
    entries["W"][1, 2] = np.nan
    path = tmp_path / "nan_w.npz"
    np.savez(path, **entries)
    assert evaluate_error(capsys, tmp_path, path) == (
        f"error: {path}: W must be a finite 2-D matrix\n")


def test_model_of_unknown_variant_is_a_clean_error(capsys, model_files):
    tmp_path, entries = model_files
    entries["variant"] = np.str_("bogus")
    path = tmp_path / "bogus.npz"
    np.savez(path, **entries)
    assert "'bogus' is not a valid Variant" in evaluate_error(capsys, tmp_path, path)


def test_model_of_another_format_version_is_a_clean_error(capsys, model_files):
    tmp_path, entries = model_files
    entries["format_version"] = np.int64(2)
    path = tmp_path / "v2.npz"
    np.savez(path, **entries)
    assert "unsupported model format version 2" in evaluate_error(capsys, tmp_path, path)


def test_predict_rejects_non_finite_features():
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=0)
    model = fit(ds.X, ds.D, variant="ablation-b").model
    X = ds.X.data.copy()
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="features contain non-finite entries"):
        predict(model, X)


@pytest.mark.parametrize("variant", ["full", "ablation-a", "ablation-b"])
def test_model_file_carrying_the_old_penalty_schedule_still_loads(tmp_path, variant):
    # Model files once also stored the coupling penalty's schedule, which is
    # now a solver constant; those entries are ignored on load.
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=0)
    model = fit(ds.X, ds.D, Hyperparams(alpha=0.3, lam=0.05), variant).model
    save_model(model, tmp_path / "new.npz")
    with np.load(tmp_path / "new.npz") as z:
        entries = dict(z)
    assert not {"mu0", "mu_max", "mu_growth"} & set(entries)
    old = dict(entries, mu0=np.asarray(0.1), mu_max=np.asarray(1e6), mu_growth=np.asarray(1.1))
    np.savez(tmp_path / "old.npz", **old)
    back = load_model(tmp_path / "old.npz")
    np.testing.assert_array_equal(back.W, model.W)
    assert back.hyperparams == model.hyperparams and back.variant is model.variant
    np.testing.assert_array_equal(predict(back, ds.X.data), predict(model, ds.X.data))


# Seeded byte mutations of each kind of file a command reads.  Pieces that
# readers treat specially (line ends, Unicode spaces, NUL, a non-UTF-8 byte,
# digit separators, non-finite and huge values, comment marks) are spliced in,
# alongside deletions and random bytes.
_PIECES = [b"\r", b"\n", b"\x0b", b"\x0c", b"\x1c", "\u0085".encode(), "\u3000".encode(),
           b"\x00", b"\xff", b"1_0", b"nan", b"1e400", b"e300", b"#", b" ", b"-", b"0", b","]


def _mutate(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(data) + 1)
        piece = rng.choice(_PIECES) if rng.random() < 0.7 else bytes([rng.randrange(256)])
        op = rng.randrange(3)
        if op == 0:
            data[pos:pos] = piece
        elif op == 1:
            del data[pos:pos + rng.randint(1, 4)]
        else:
            data[pos:pos + len(piece)] = piece
    return bytes(data)


def _run(capsys, argv):
    """Run a command; it must exit 0, or 1 with exactly one ``error:`` line,
    and warn of nothing but a renormalized distribution column."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") or (
        code == 1 and err.startswith("error: ") and err.count("\n") == 1), (argv, code, err)
    assert all(str(w.message).startswith("renormalized ") for w in caught), caught
    return out


@pytest.mark.parametrize("kind, seed", [("model", 1), ("ds.txt", 2), ("ds.csv", 3),
                                        ("cache entry", 4), ("scaled.txt", 5)])
def test_mutated_files_end_in_a_result_or_one_error_line(capsys, tmp_path, parse_cache,
                                                         kind, seed):
    rng = random.Random(seed)
    ds = synth_lowrank(20, 3, 3, 2, 0.1, seed=seed)
    data, model = tmp_path / "ds.txt", tmp_path / "model.npz"
    save_dataset(ds, data)
    save_model(fit(ds.X, ds.D, variant="ablation-b").model, model)
    fresh = load_dataset(data)
    (entry,) = parse_cache.glob("*.npys")
    expected = _run(capsys, ["degrade", str(data)])
    target = {"model": model, "cache entry": entry}.get(kind, tmp_path / kind)
    if kind.endswith((".txt", ".csv")):
        save_dataset(ds, target)
    original = target.read_bytes()
    train = ["train", str(target), "--model-out", str(tmp_path / "out.npz")]
    for case in range(100):
        if kind == "scaled.txt":                    # one feature scaled by up to 1e199
            X = ds.X.data.copy()
            X[:, rng.randrange(ds.d)] *= 10.0 ** rng.randrange(200)
            save_dataset(Dataset(ds.name, FeatureMatrix(X), ds.D), target)
            _run(capsys, [*train, "--variant", rng.choice(["full", "ablation-a", "ablation-b"]),
                          "--no-standardize", "--max-iters", "5"])
            continue
        mutated = _mutate(rng, original)
        target.write_bytes(mutated)
        if kind == "cache entry":
            back = load_dataset(data)
            for a, b in ((fresh.X.data, back.X.data), (fresh.D.data, back.D.data)):
                assert (a.dtype, a.shape, a.strides, a.tobytes()) == \
                    (b.dtype, b.shape, b.strides, b.tobytes())
            entry.write_bytes(mutated)
            assert _run(capsys, ["degrade", str(data)]) == expected
        elif kind == "model":
            _run(capsys, ["evaluate", str(data), "--model", str(model)])
        else:
            _run(capsys, [*train, "--variant", "ablation-b",
                          *(["--no-standardize"] if case % 2 else [])])
