import subprocess
import sys

import numpy as np
import pytest

from ldlkit import (Dataset, FeatureMatrix, LabelDistributionMatrix, Variant, evaluate,
                    fit, load_dataset, load_model, predict, save_dataset, synth_lowrank)
from ldlkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "synth.txt"
    save_dataset(synth_lowrank(60, 6, 4, 2, 0.1, seed=0), path)
    return str(path)


def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    code, stdout, _ = run(capsys, "synth", "--n", "30", "--d", "4", "--m", "3",
                          "--r", "2", "--seed", "1", "--out", str(out))
    assert code == 0
    assert out.exists()
    assert "n=30 d=4 m=3" in stdout


def test_train_reports_and_writes_model(tmp_path, capsys, synth_file):
    model_path = tmp_path / "model.npz"
    code, stdout, _ = run(capsys, "train", synth_file, "--model-out", str(model_path),
                          "--format", "csv")
    assert code == 0
    assert model_path.exists()
    assert "iterations=" in stdout and "converged=yes" in stdout
    assert "dataset,variant,metric,mean,std" in stdout


def test_train_variant_tag_round_trips(tmp_path, capsys, synth_file):
    model_path = tmp_path / "b.npz"
    code, _, _ = run(capsys, "train", synth_file, "--model-out", str(model_path),
                     "--variant", "ablation-b")
    assert code == 0
    assert load_model(model_path).variant is Variant.ABLATION_B


def test_invalid_threshold_is_a_clean_error(tmp_path, capsys, synth_file):
    code, _, stderr = run(capsys, "train", synth_file, "--model-out",
                          str(tmp_path / "x.npz"), "--degrade", "threshold:1.5")
    assert code != 0
    assert "threshold" in stderr and "(0, 1)" in stderr


def test_missing_dataset_is_a_clean_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "evaluate", str(tmp_path / "nope.txt"),
                          "--model", str(tmp_path / "nope.npz"))
    assert code != 0
    assert "error:" in stderr


def test_predict_and_evaluate_round_trip(tmp_path, capsys, synth_file):
    model_path = tmp_path / "model.npz"
    run(capsys, "train", synth_file, "--model-out", str(model_path))
    pred_path = tmp_path / "pred.txt"
    code, _, _ = run(capsys, "predict", synth_file, "--model", str(model_path),
                     "--out", str(pred_path))
    assert code == 0
    rows = np.loadtxt(pred_path)
    assert rows.shape == (60, 4)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    code, stdout, _ = run(capsys, "predict", synth_file, "--model", str(model_path))
    assert code == 0
    assert stdout.encode("utf-8") == pred_path.read_bytes()
    code, stdout, _ = run(capsys, "evaluate", synth_file, "--model", str(model_path),
                          "--format", "csv")
    assert code == 0
    assert stdout.count("\n") == 7  # header + six metrics


@pytest.mark.parametrize("m", [3, 5])
def test_evaluate_on_another_label_count_names_both_counts(tmp_path, capsys, synth_file, m):
    model_path = tmp_path / "model.npz"
    run(capsys, "train", synth_file, "--model-out", str(model_path))
    other = tmp_path / "other.txt"
    save_dataset(synth_lowrank(30, 6, m, 2, 0.1, seed=1), other)
    code, stdout, stderr = run(capsys, "evaluate", str(other), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: model predicts 4 labels, but the dataset has {m}\n"


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "n, d, m, r must be positive, got 0, 20, 6, 2"),
    (["--noise", "nan"], "noise must be finite and nonnegative, got nan"),
    (["--noise", "inf"], "noise must be finite and nonnegative, got inf"),
])
def test_synth_names_the_bad_argument(tmp_path, capsys, args, message):
    out = tmp_path / "ds.txt"
    code, stdout, stderr = run(capsys, "synth", *args, "--out", str(out))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("spec, needs", [
    ("threshold:abc", "a number"), ("threshold:", "a number"), ("topk:1.5", "an integer"),
])
def test_bad_degradation_value_names_the_spec(capsys, synth_file, spec, needs):
    code, stdout, stderr = run(capsys, "degrade", synth_file, "--degrade", spec)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: degradation spec {spec!r} needs {needs} after ':'\n"


def test_cv_three_variants_row_shape(capsys, synth_file):
    code, stdout, _ = run(capsys, "cv", synth_file, "--variants",
                          "full,ablation-a,ablation-b", "--folds", "4", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "dataset,variant,metric,mean,std"
    assert len(lines) == 1 + 3 * 6
    variants = {line.split(",")[1] for line in lines[1:]}
    assert variants == {"full", "ablation-a", "ablation-b"}


def test_cv_is_byte_deterministic(capsys, synth_file):
    args = ("cv", synth_file, "--folds", "4", "--seed", "9", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cv_two_label_dataset_smoke(tmp_path, capsys):
    # smallest label count that occurs in published benchmarks
    path = tmp_path / "m2.txt"
    save_dataset(synth_lowrank(50, 5, 2, 2, 0.2, seed=3), path)
    code, stdout, _ = run(capsys, "cv", str(path), "--folds", "5", "--format", "csv")
    assert code == 0
    cheb = [float(line.split(",")[3]) for line in stdout.strip().splitlines()[1:]
            if line.split(",")[2] == "chebyshev"]
    assert 0.0 <= cheb[0] <= 1.0


def test_cv_with_grid_search(capsys, tmp_path):
    path = tmp_path / "tiny.txt"
    save_dataset(synth_lowrank(40, 4, 3, 2, 0.1, seed=4), path)
    code, stdout, _ = run(capsys, "cv", str(path), "--folds", "3", "--format", "csv",
                          "--grid", "alpha=0.05,0.1;lambda=0.1")
    assert code == 0
    assert len(stdout.strip().splitlines()) == 7


def test_ablate_emits_three_variants(capsys, synth_file):
    code, stdout, _ = run(capsys, "ablate", synth_file, "--holdout", "0.25",
                          "--seed", "2", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 1 + 3 * 6
    assert lines[1].startswith("synth,full,chebyshev,")


def test_ablate_holdout_std_is_over_the_test_instances(capsys, synth_file):
    code, stdout, _ = run(capsys, "ablate", synth_file, "--holdout", "0.25",
                          "--seed", "2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    ds = load_dataset(synth_file)
    test = np.random.default_rng(2).permutation(ds.n)[:15]
    train = np.setdiff1d(np.arange(ds.n), test)
    for variant in Variant:
        res = fit(ds.X.data[train], ds.D.data[:, train], variant=variant)
        rep = evaluate(ds.D.data[:, test], predict(res.model, ds.X.data[test]))
        for _, _, metric, mean, std in (row for row in rows if row[1] == variant.value):
            assert float(mean) == pytest.approx(rep.mean(metric), rel=1e-5)
            assert float(std) == pytest.approx(rep.std(metric), rel=1e-5)
            assert float(std) > 0


def test_degrade_counts_and_matrix_file(tmp_path, capsys):
    # single Fig.-1-style instance: threshold 0.5 selects two labels
    path = tmp_path / "one.txt"
    path.write_text("1 1 4\n0.0\n0.25 0.4 0.25 0.1\n", encoding="utf-8")
    out = tmp_path / "L.txt"
    code, stdout, _ = run(capsys, "degrade", str(path), "--degrade", "threshold:0.5",
                          "--out", str(out), "--format", "csv")
    assert code == 0
    assert stdout.splitlines()[0] == "instance,positives"
    assert stdout.splitlines()[1] == "0,2"
    body = out.read_text(encoding="utf-8").splitlines()
    assert body[0] == "1 4"
    assert body[1] == "1 1 0 0"


def test_sweep_emits_row_per_candidate(capsys, tmp_path):
    path = tmp_path / "s.txt"
    save_dataset(synth_lowrank(40, 4, 3, 2, 0.1, seed=5), path)
    code, stdout, _ = run(capsys, "sweep", str(path), "--param", "alpha",
                          "--folds", "3", "--format", "md")
    assert code == 0
    lines = [l for l in stdout.strip().splitlines() if l.startswith("| s |")]
    assert len(lines) == 7  # default candidate set
    assert "full[alpha=0.005]" in lines[0]


def test_nonconvergence_is_reported_not_an_error(tmp_path, capsys, synth_file):
    # starving the solver of iterations must not flip the exit code
    code, stdout, _ = run(capsys, "train", synth_file, "--model-out",
                          str(tmp_path / "nc.npz"), "--max-iters", "1")
    assert code == 0
    assert "converged=NO" in stdout


def test_sweep_csv_variant_tags(capsys, tmp_path):
    path = tmp_path / "s2.txt"
    save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=6), path)
    code, stdout, _ = run(capsys, "sweep", str(path), "--param", "lambda",
                          "--values", "0.1,1", "--folds", "3", "--format", "csv")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 1 + 2 * 6
    assert lines[1].split(",")[1] == "full[lambda=0.1]"


@pytest.mark.parametrize("spec, component", [("alpha=", "alpha="),
                                             ("lambda=,;alpha=1", "lambda=,")])
def test_grid_component_without_values_is_a_clean_error(capsys, synth_file, spec, component):
    code, _, stderr = run(capsys, "cv", synth_file, "--folds", "3", "--grid", spec)
    assert code == 1
    assert f"grid component {component!r} lists no values" in stderr


def test_repeated_grid_key_is_a_clean_error(capsys, synth_file):
    code, stdout, stderr = run(capsys, "cv", synth_file, "--folds", "3",
                               "--grid", "alpha=1;lambda=0.1;alpha=0.1")
    assert code == 1
    assert stdout == ""
    assert "grid spec names 'alpha' more than once" in stderr


@pytest.mark.parametrize("variants", [",", ""])
def test_empty_variants_list_is_a_clean_error(capsys, synth_file, variants):
    code, stdout, stderr = run(capsys, "cv", synth_file, "--variants", variants,
                               "--folds", "3", "--format", "csv")
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: --variants {variants!r} lists no variants\n"


def csv_rows(capsys, *argv):
    code, stdout, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    return [line.split(",") for line in stdout.strip().splitlines()[1:]]


def test_ablate_rows_equal_cv_rows_of_the_three_variants(capsys, synth_file):
    common = ("--folds", "3", "--seed", "5")
    ablate = csv_rows(capsys, "ablate", synth_file, *common)
    cv = csv_rows(capsys, "cv", synth_file, "--variants", "full,ablation-a,ablation-b", *common)
    assert len(ablate) == 3 * 6
    assert ablate == cv


def test_single_value_sweep_equals_cv_but_for_the_tag(capsys, synth_file):
    sweep = csv_rows(capsys, "sweep", synth_file, "--param", "alpha", "--values", "0.05",
                     "--folds", "3")
    cv = csv_rows(capsys, "cv", synth_file, "--alpha", "0.05", "--folds", "3")
    assert {row[1] for row in sweep} == {"full[alpha=0.05]"}
    assert [row[:1] + row[2:] for row in sweep] == [row[:1] + row[2:] for row in cv]


def test_single_candidate_grid_equals_fixed_hyperparameters(capsys, synth_file):
    grid = csv_rows(capsys, "cv", synth_file, "--grid", "alpha=0.05", "--folds", "3")
    fixed = csv_rows(capsys, "cv", synth_file, "--alpha", "0.05", "--folds", "3")
    assert grid == fixed


@pytest.mark.parametrize("values, message", [
    ("0.1,x", "--values '0.1,x' entry 'x' is not a number"),
    (",, ,", "--values ',, ,' lists no values"),
])
def test_bad_sweep_values_are_a_clean_error(capsys, synth_file, values, message):
    code, _, stderr = run(capsys, "sweep", synth_file, "--param", "alpha",
                          "--values", values, "--folds", "3")
    assert code == 1
    assert message in stderr


def test_sweep_values_skip_empty_entries(capsys, synth_file):
    argv = ("sweep", synth_file, "--param", "alpha", "--folds", "3")
    assert csv_rows(capsys, *argv, "--values", "0.1,,1,") == \
        csv_rows(capsys, *argv, "--values", "0.1,1")


def test_grid_tunes_each_variant_as_it_would_alone(capsys, synth_file):
    # The variants of one outer split are tuned together on its inner splits.
    argv = ("cv", synth_file, "--folds", "3", "--grid", "alpha=0.01,1;lambda=0.05,0.5")
    together = csv_rows(capsys, *argv, "--variants", "full,ablation-a,ablation-b")
    alone = [row for variant in ("full", "ablation-a", "ablation-b")
             for row in csv_rows(capsys, *argv, "--variants", variant)]
    assert together == alone


def test_lambda_zero_run_beside_a_positive_one_still_fails_alone(tmp_path, capsys):
    # Each training split has 24 rows and b = 21 + 8 >= 24, so the lambda = 0
    # run shares the split's eigendecomposition of X'X with the lambda = 0.1
    # run, and must still find X'X singular: feature 8 repeats feature 3.
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 20))
    X[:, 7] = X[:, 2]
    path = tmp_path / "dup.txt"
    save_dataset(Dataset("dup", FeatureMatrix(X),
                         LabelDistributionMatrix(rng.dirichlet(np.ones(4), size=30).T)), path)
    argv = ("sweep", str(path), "--param", "lambda", "--folds", "5", "--values")
    assert run(capsys, *argv, "0.1")[0] == 0
    code, stdout, stderr = run(capsys, *argv, "0.1,0")
    assert (code, stdout) == (1, "")
    assert "W-step system is rank-deficient" in stderr


def test_holdout_leaving_one_training_instance_is_a_clean_error(capsys, synth_file):
    code, stdout, stderr = run(capsys, "ablate", synth_file, "--holdout", "0.99")
    assert code == 1
    assert stdout == ""
    assert "--holdout 0.99 leaves 1 of 60 instances for training" in stderr


def loaded_modules(*argv):
    """Modules a fresh ``python -m ldlkit`` process imports, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ldlkit", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_no_command_loads_scipy(tmp_path):
    ds, model = str(tmp_path / "ds.txt"), str(tmp_path / "model.npz")
    commands = [
        ("synth", "--n", "40", "--d", "4", "--m", "3", "--out", ds),
        ("train", ds, "--model-out", model),
        ("cv", ds, "--variants", "full,ablation-a,ablation-b", "--folds", "3"),
        ("ablate", ds, "--folds", "3"),
        ("sweep", ds, "--param", "alpha", "--values", "0.1,1", "--folds", "3"),
        ("predict", ds, "--model", model, "--out", str(tmp_path / "p.txt")),
        ("evaluate", ds, "--model", model),
        ("degrade", ds, "--out", str(tmp_path / "ml.txt")),
    ]
    for argv in commands:
        scipy_modules = {name for name in loaded_modules(*argv)
                         if name.split(".")[0] == "scipy"}
        assert not scipy_modules, (argv[0], sorted(scipy_modules))


def test_fitting_runs_where_scipy_cannot_be_imported(tmp_path):
    script = """
import sys
sys.modules["scipy"] = None
import ldlkit
from ldlkit.cli import main

ds = ldlkit.synth_lowrank(40, 4, 3, 2, 0.1, seed=0)
for variant in ("full", "ablation-a", "ablation-b"):
    assert ldlkit.fit(ds.X, ds.D, variant=variant).converged, variant
ldlkit.save_dataset(ds, sys.argv[1])
sys.exit(main(["cv", sys.argv[1], "--variants", "full,ablation-a,ablation-b",
               "--folds", "3", "--format", "csv"]))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "ds.txt")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 3 * 6


def test_dataset_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 2\n1 2\n3 4\n0.5 0.5\n0.5 0.5\n0.5 0.5\n", encoding="utf-8")
    code, stdout, stderr = run(capsys, "degrade", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == f"error: {bad}: line 6: expected 4 data lines, found 5\n"


def test_non_utf8_dataset_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(b"2 2 2\n1 2\n3 \xff\n0.5 0.5\n0.5 0.5\n")
    code, stdout, stderr = run(capsys, "degrade", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == f"error: {bad}: line 3: byte 0xff is not valid UTF-8 (invalid start byte)\n"


BAD_DATASETS = {
    "nan.txt": (b"2 2 2\n1 2\n3 nan\n0.5 0.5\n0.5 0.5\n",
                "line 3: non-finite feature value 'nan' in column 2"),
    "nan.csv": (b"f1,y1\n0.5,1\nnan,1\n", "line 3: non-finite value 'nan' in column 1"),
    "bytes.csv": (b"f1,y1\n0.5,1\n0.\xff,1\n",
                  "line 3: byte 0xff is not valid UTF-8 (invalid start byte)"),
}


@pytest.mark.parametrize("name", BAD_DATASETS)
def test_bad_value_or_byte_names_file_and_line(tmp_path, capsys, name):
    data, message = BAD_DATASETS[name]
    bad = tmp_path / name
    bad.write_bytes(data)
    code, stdout, stderr = run(capsys, "degrade", str(bad))
    assert code == 1 and stdout == ""
    assert stderr == f"error: {bad}: {message}\n"
