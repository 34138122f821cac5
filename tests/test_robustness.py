"""Bad input fails early with an error that names the culprit."""
import re
import warnings

import numpy as np
import pytest

from ldlkit import (Hyperparams, fit, load_model, predict, save_dataset, save_model, solver,
                    synth_lowrank)
from ldlkit.errors import NonFiniteIterate, ShapeMismatch
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


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, "5", None])
def test_hyperparams_reject_non_integral_max_iters(value):
    with pytest.raises(ValueError, match="max_iters"):
        Hyperparams(max_iters=value)


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


def test_model_of_unknown_variant_is_a_clean_error(capsys, model_files):
    tmp_path, entries = model_files
    entries["variant"] = np.str_("bogus")
    path = tmp_path / "bogus.npz"
    np.savez(path, **entries)
    assert "'bogus' is not a valid Variant" in evaluate_error(capsys, tmp_path, path)


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
