import gc
import importlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldlkit import (Dataset, FeatureMatrix, Hyperparams, LabelDistributionMatrix, TopKDegrade,
                    Variant, degrade, evaluate, fit, load_dataset, load_model, parse_degradation,
                    predict, save_dataset, save_model, synth_lowrank)
from ldlkit import cli, solver
from ldlkit import data as dio
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


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_another_feature_count_names_both_counts_and_the_dataset(tmp_path, capsys, synth_file,
                                                                 command):
    model_path = tmp_path / "model.npz"
    run(capsys, "train", synth_file, "--model-out", str(model_path))
    other = tmp_path / "other.txt"
    save_dataset(synth_lowrank(30, 5, 4, 2, 0.1, seed=1), other)
    code, stdout, stderr = run(capsys, command, str(other), "--model", str(model_path))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: model takes 6 features, but the dataset {other} has 5\n"


def test_degrade_writes_n_m_then_the_binary_rows(tmp_path, capsys, synth_file):
    out = tmp_path / "L.txt"
    code, _, _ = run(capsys, "degrade", synth_file, "--degrade", "topk:2", "--out", str(out))
    assert code == 0
    L = degrade(load_dataset(synth_file).D, TopKDegrade(2)).data.T
    expected = "60 4\n" + "".join(" ".join(str(int(v)) for v in row) + "\n" for row in L)
    assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("argv", [["synth", "--n", "30"], ["degrade", "{data}"],
                                  ["predict", "{data}", "--model", "{model}"]])
def test_every_out_file_is_plain_text_whatever_its_name(tmp_path, capsys, synth_file, argv):
    model_path = tmp_path / "model.npz"
    run(capsys, "train", synth_file, "--model-out", str(model_path))
    argv = [a.format(data=synth_file, model=model_path) for a in argv]
    written = []
    for name in ["out.txt", "out.gz", "out.txt.gz"]:
        assert run(capsys, *argv, "--out", str(tmp_path / name))[0] == 0
        written.append((tmp_path / name).read_bytes())
    assert written[0][:2] != b"\x1f\x8b" and written[1] == written[2] == written[0]


@pytest.mark.parametrize("argv, out, header_lines, data_rows", [
    (["synth", "--n", "30", "--d", "4", "--m", "3"], "ds.txt", 1, 60),
    (["synth", "--n", "30", "--d", "4", "--m", "3"], "ds.csv", 1, 30),
    (["predict", "{data}", "--model", "{model}"], "pred.txt", 0, 60),
    (["degrade", "{data}"], "labels.txt", 1, 60),
])
def test_every_out_file_writes_its_rows_through_write_rows(tmp_path, capsys, monkeypatch,
                                                            synth_file, argv, out, header_lines,
                                                            data_rows):
    model_path = tmp_path / "model.npz"
    run(capsys, "train", synth_file, "--model-out", str(model_path))
    chunks, write_rows = [], dio.write_rows

    def spy(fh, A, *args, **kwargs):
        text = io.StringIO()
        write_rows(text, A, *args, **kwargs)
        chunks.append(text.getvalue())
        fh.write(chunks[-1])

    monkeypatch.setattr(dio, "write_rows", spy)
    argv = [a.format(data=synth_file, model=model_path) for a in argv]
    assert run(capsys, *argv, "--out", str(tmp_path / out))[0] == 0
    written, rows = (tmp_path / out).read_bytes().decode("utf-8"), "".join(chunks)
    assert written.endswith(rows) and len(rows.splitlines()) == data_rows
    assert written[:len(written) - len(rows)].count("\n") == header_lines


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "n, d, m, r must be positive, got 0, 20, 6, 2"),
    (["--noise", "nan"], "noise must be finite and nonnegative, got nan"),
    (["--noise", "inf"], "noise must be finite and nonnegative, got inf"),
    (["--noise", "1e308"], "noise 1e+308 overflows the label scores"),
])
def test_synth_names_the_bad_argument(tmp_path, capsys, args, message):
    out = tmp_path / "ds.txt"
    code, stdout, stderr = run(capsys, "synth", *args, "--out", str(out))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_synth_with_a_large_finite_noise_still_writes(tmp_path, capsys):
    out = tmp_path / "ds.txt"
    code, _, stderr = run(capsys, "synth", "--noise", "1e307", "--out", str(out))
    assert (code, stderr) == (0, "")
    assert load_dataset(out).n == 200


def test_out_of_memory_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    message = "Unable to allocate 14.6 TiB for an array with shape (2, 1000000000000)"

    def cmd_synth(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_synth", cmd_synth)
    code, stdout, stderr = run(capsys, "synth", "--out", str(tmp_path / "ds.txt"))
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


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


@pytest.mark.parametrize("argv, message", [
    (["--folds", "1"], "--folds must be at least 2, got 1"),
    (["--variants", "full,bogus"], "--variants: 'bogus' is not a valid Variant; "
                                   "choose from full, ablation-a, ablation-b"),
    (["--grid", "beta=1"], "bad grid component 'beta=1'"),
    (["--grid", ";"], "empty grid spec"),
])
def test_bad_cv_argument_is_named(capsys, synth_file, argv, message):
    code, stdout, stderr = run(capsys, "cv", synth_file, "--folds", "3", *argv)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")


def test_a_grid_search_a_training_split_cannot_hold_is_named(tmp_path, capsys):
    # Two folds of 9 instances leave training splits of 5 and 4 instances,
    # too few for the 5 folds of --grid's inner search.
    path = tmp_path / "nine.txt"
    save_dataset(synth_lowrank(9, 3, 3, 2, 0.1, seed=0), path)
    code, stdout, stderr = run(capsys, "cv", str(path), "--folds", "2", "--grid", "alpha=0.1")
    assert (code, stdout, stderr) == (1, "", "error: --grid's inner 5-fold search cannot "
                                      "split a training split of 4 instances into 5 folds\n")


@pytest.mark.parametrize("argv", [
    ("cv", "{ds}", "--folds", "3"),
    ("sweep", "{ds}", "--param", "alpha", "--values", "0.1", "--folds", "3"),
    ("ablate", "{ds}", "--folds", "3"),
    ("ablate", "{ds}", "--holdout", "0.3"),
    ("synth", "--out", "{out}"),
])
def test_a_negative_seed_is_named(tmp_path, capsys, synth_file, argv):
    out = tmp_path / "ds.txt"
    argv = [arg.format(ds=synth_file, out=out) for arg in argv]
    code, stdout, stderr = run(capsys, *argv, "--seed", "-1")
    assert (code, stdout, stderr) == (1, "", "error: seed must be a nonnegative integer, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("holdout", ["1.5", "0", "1"])
def test_holdout_outside_the_unit_interval_is_a_clean_error(capsys, synth_file, holdout):
    code, stdout, stderr = run(capsys, "ablate", synth_file, "--holdout", holdout)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: --holdout must lie in (0, 1), got {float(holdout)}\n"


def test_topk_model_round_trips_through_train_and_evaluate(tmp_path, capsys, synth_file):
    model_path = tmp_path / "topk.npz"
    code, stdout, _ = run(capsys, "train", synth_file, "--model-out", str(model_path),
                          "--degrade", "topk:2", "--format", "csv")
    assert code == 0
    assert load_model(model_path).hyperparams.degradation == TopKDegrade(2)
    train_rows = stdout.splitlines()[2:8]
    code, stdout, _ = run(capsys, "evaluate", synth_file, "--model", str(model_path),
                          "--format", "csv")
    assert code == 0
    assert [row.replace("full[train]", "full") for row in train_rows] == stdout.splitlines()[1:]


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


def test_only_commands_that_fit_a_stack_load_the_loop(tmp_path):
    ds, model = str(tmp_path / "ds.txt"), str(tmp_path / "model.npz")
    commands = [
        (("synth", "--n", "40", "--d", "4", "--m", "3", "--out", ds), False),
        (("train", ds, "--variant", "ablation-b", "--model-out", model), False),
        (("predict", ds, "--model", model, "--out", str(tmp_path / "p.txt")), False),
        (("evaluate", ds, "--model", model), False),
        (("degrade", ds, "--out", str(tmp_path / "ml.txt")), False),
        (("train", ds, "--model-out", model), True),
        (("cv", ds, "--folds", "3"), True),
    ]
    for argv, loads in commands:
        assert ("ldlkit._lockstep" in loaded_modules(*argv)) is loads, argv[:3]


def test_only_label_names_import_json(tmp_path, parse_cache):
    ds = synth_lowrank(40, 4, 3, 2, 0.1, seed=0)
    for name, imported in (("ds.txt", False), ("ds.csv", True)):   # a CSV names its labels
        save_dataset(ds, tmp_path / name)
        for load in ("miss", "hit"):
            assert ("json" in loaded_modules("degrade", str(tmp_path / name))) is imported, load
    assert len(list(parse_cache.iterdir())) == 2


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


def test_the_process_entry_freezes_the_import_time_heap_and_main_does_not(
        tmp_path, capsys, synth_file):
    # The entry ends the process by os._exit, which the script wraps to see
    # the exit code and the frozen heap.
    script = """
import gc, os, runpy, sys
exit_now = os._exit
def report_and_exit(code):
    print(code, gc.get_freeze_count() > 0, file=sys.stderr, flush=True)
    exit_now(code)
os._exit = report_and_exit
sys.argv = ["ldlkit", "degrade", *sys.argv[1:]]
runpy.run_module("ldlkit", run_name="__main__")
"""
    proc = subprocess.run([sys.executable, "-c", script, synth_file, "--out",
                           str(tmp_path / "ml.txt")], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "0 True\n")
    assert run(capsys, "degrade", synth_file)[0] == 0
    assert gc.get_freeze_count() == 0


def test_exit_codes_through_the_process_entry(tmp_path, synth_file):
    def run_m(*argv):
        proc = subprocess.run([sys.executable, "-m", "ldlkit", *argv],
                              capture_output=True, text=True)
        return proc.returncode, proc.stderr

    assert run_m("degrade", synth_file) == (0, "")
    code, stderr = run_m("degrade", str(tmp_path / "missing.txt"))
    assert code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1
    code, stderr = run_m("degrade", synth_file, "--no-such-flag")
    assert code == 2 and stderr.startswith("usage: ldlkit [-h] ")
    assert stderr.endswith("\nldlkit: error: unrecognized arguments: --no-such-flag\n")


ENTRY_SCRIPT = """
import atexit, runpy, sys
atexit.register(print, "atexit ran", file=sys.stderr)
{hook}
sys.argv = ["ldlkit", "degrade", *sys.argv[1:]]
runpy.run_module("ldlkit", run_name="__main__")
"""


@pytest.mark.parametrize("hook, stderr", [
    ("", ""),                                       # os._exit: no teardown, no atexit
    ("sys.setprofile(lambda *args: None)", "atexit ran\n"),
    ("sys.settrace(lambda *args: None)", "atexit ran\n")])
def test_only_an_unhooked_process_skips_the_interpreter_teardown(synth_file, hook, stderr):
    proc = subprocess.run([sys.executable, "-c", ENTRY_SCRIPT.format(hook=hook), synth_file],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, stderr)
    assert proc.stdout.startswith("| instance | positives |\n")


def test_profiler_and_interactive_runs_end_through_the_interpreter(tmp_path, synth_file):
    stats = tmp_path / "degrade.prof"
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(stats),
                           "-m", "ldlkit", "degrade", synth_file], capture_output=True)
    assert proc.returncode == 0 and stats.stat().st_size > 0       # written after the run
    proc = subprocess.run([sys.executable, "-i", "-m", "ldlkit", "degrade", synth_file],
                          input="print('still interactive')\n", capture_output=True,
                          text=True)
    assert proc.stdout.endswith("still interactive\n")


def test_a_large_output_to_a_pipe_arrives_whole(tmp_path, capsys):
    ds_path, model_path = tmp_path / "ds.txt", tmp_path / "model.npz"
    ds = synth_lowrank(3000, 5, 6, 2, 0.1, seed=0)
    save_dataset(ds, ds_path)
    save_model(fit(ds.X, ds.D, variant="ablation-a").model, model_path)
    argv = ["predict", str(ds_path), "--model", str(model_path)]
    proc = subprocess.run([sys.executable, "-m", "ldlkit", *argv], capture_output=True)
    code, stdout, stderr = run(capsys, *argv)
    assert (proc.returncode, proc.stderr) == (code, stderr.encode()) == (0, b"")
    assert len(proc.stdout) > 300_000 and proc.stdout == stdout.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_on_a_full_device_is_one_error_line(synth_file):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ldlkit", "degrade", synth_file],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, written", [
    (["degrade", "--format", "csv", "--out"], "ml.txt"),
    (["predict", "--model", "model.npz"], None),
    (["train", "--model-out"], "new.npz")])
def test_a_closed_stdout_is_one_error_line_before_any_work(tmp_path, parse_cache, synth_file,
                                                           argv, written):
    ds = load_dataset(synth_file)
    save_model(fit(ds.X, ds.D, variant="ablation-b").model, tmp_path / "model.npz")
    for entry in parse_cache.iterdir():
        entry.unlink()
    argv = [str(tmp_path / a) if a.endswith((".npz", ".txt")) else a for a in argv]
    if written:
        argv.append(str(tmp_path / written))
    proc = subprocess.run([sys.executable, "-m", "ldlkit", argv[0], synth_file, *argv[1:]],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (1, "error: standard output is closed\n")
    assert list(parse_cache.iterdir()) == []                     # the dataset was not read
    assert written is None or not (tmp_path / written).exists()


def test_the_process_entry_prints_a_warning_as_one_line_naming_the_file(tmp_path, capsys):
    # A distribution column whose sum is off by 5e-8 is renormalized with a
    # warning: in process a UserWarning, from the process entry one line.
    path = tmp_path / "off.txt"
    path.write_text("2 1 2\n1.0\n2.0\n0.70000005 0.3\n0.5 0.5\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "ldlkit", "degrade", str(path)],
                          capture_output=True, text=True)
    message = f"renormalized 1 column(s) whose sums deviated from 1 by up to 5.00e-08 in {path}"
    assert (proc.returncode, proc.stderr) == (0, f"warning: {message}\n")
    with pytest.warns(UserWarning) as caught:
        assert run(capsys, "degrade", str(path)) == (0, proc.stdout, "")
    assert [str(w.message) for w in caught] == [message]


def test_the_console_script_starts_through_the_entry_python_dash_m_calls(monkeypatch):
    tomllib = pytest.importorskip("tomllib")            # Python 3.11+
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["ldlkit"]
    module, _, name = target.partition(":")
    started = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: started.append(1) or 7)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ldlkit", run_name="__main__")
    assert (exc.value.code, started) == (7, [1])


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


@pytest.mark.parametrize("argv, tags", [
    (["cv", "--variants", "full,full"], ["full", "full"]),
    (["sweep", "--param", "alpha", "--values", "0.1,0.1"], ["full[alpha=0.1]"] * 2),
])
def test_runs_sharing_a_tag_keep_a_markdown_line_each(capsys, synth_file, argv, tags):
    args = (argv[0], synth_file, *argv[1:], "--folds", "3")
    code, md, _ = run(capsys, *args, "--format", "md")
    assert code == 0
    md_lines = md.splitlines()[2:]
    records = csv_rows(capsys, *args)
    assert [line.split(" | ")[1] for line in md_lines] == tags
    assert len(records) == 12 and records[:6] == records[6:]
    for line, run_records in zip(md_lines, (records[:6], records[6:])):
        cells = [c.strip() for c in line.strip("|").split("|")][2:]
        assert cells == [f"{mean}±{std}" for _, _, _, mean, std in run_records]


def test_a_line_break_in_a_dataset_name_keeps_one_markdown_line(tmp_path, capsys):
    path = tmp_path / "a\nb.txt"
    save_dataset(synth_lowrank(30, 4, 3, 2, 0.1, seed=1), path)
    code, stdout, _ = run(capsys, "train", str(path), "--model-out", str(tmp_path / "m.npz"),
                          "--format", "md")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 5
    assert lines[3].startswith("| a b | full[train] | ")


@pytest.mark.parametrize("argv", [["train", "--model-out", "m.npz"], ["cv"], ["ablate"],
                                  ["sweep", "--param", "alpha"]])
def test_fitting_commands_default_to_the_default_hyperparameters(argv):
    args = cli.build_parser().parse_args([argv[0], "ds.txt", *argv[1:]])
    assert cli._hyperparams(args) == Hyperparams()


def test_degrade_defaults_to_the_default_degradation():
    args = cli.build_parser().parse_args(["degrade", "ds.txt"])
    assert parse_degradation(args.degrade_spec) == Hyperparams().degradation


def test_train_keeps_its_seed_flag():
    args = cli.build_parser().parse_args(["train", "ds.txt", "--model-out", "m.npz",
                                          "--seed", "7919"])
    assert args.seed == 7919


# Each subcommand's required arguments only, then with every flag it takes given once.
COMMAND_ARGV = {
    "synth": (["--out", "x.txt"],
              ["--n", "30", "--d", "3", "--m", "2", "--r", "1", "--noise", "0", "--seed", "1",
               "--out", "x.txt"]),
    "train": (["ds.txt", "--model-out", "m.npz"],
              ["ds.txt", "--model-out", "m.npz", "--alpha", "0.5", "--lambda", "0.1",
               "--degrade", "topk:2", "--max-iters", "9", "--tol", "1e-3",
               "--variant", "ablation-a", "--seed", "3", "--format", "csv",
               "--no-standardize"]),
    "predict": (["ds.txt", "--model", "m.npz"], ["ds.txt", "--model", "m.npz", "--out", "p"]),
    "evaluate": (["ds.txt", "--model", "m.npz"],
                 ["ds.txt", "--model", "m.npz", "--format", "csv"]),
    "cv": (["ds.txt"], ["ds.txt", "--variants", "full,ablation-b", "--folds", "3",
                        "--grid", "alpha=1", "--alpha", "2", "--seed", "5", "--format", "csv"]),
    "ablate": (["ds.txt"], ["ds.txt", "--folds", "4", "--holdout", "0.2", "--lambda", "0.1",
                            "--no-standardize"]),
    "degrade": (["ds.txt"], ["ds.txt", "--degrade", "topk:2", "--out", "l.txt",
                             "--format", "csv"]),
    "sweep": (["ds.txt", "--param", "alpha"],
              ["ds.txt", "--param", "lambda", "--values", "0.1,1", "--folds", "3",
               "--variant", "ablation-b", "--tol", "1e-4"]),
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_one_commands_parser_parses_it_as_the_full_parser_does(capsys, command):
    one, full = cli.build_parser(command), cli.build_parser()
    for argv in COMMAND_ARGV[command]:
        expected = full.parse_args([command, *argv])
        assert one.parse_args([command, *argv]) == expected
        assert expected.func is getattr(cli, f"cmd_{command}")
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        helps.append((exc.value.code, capsys.readouterr()))
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].out.startswith(f"usage: ldlkit {command} [-h]")


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["bogus"], 2), (["--help"], 0), (["-h", "train"], 0),
    (["degrade", "ds.txt", "--no-such-flag"], 2), (["--no-such-flag", "degrade", "ds.txt"], 2),
    (["--", "degrade", "ds.txt"], 2), (["train", "ds.txt"], 2)])
def test_usage_and_errors_are_the_full_parsers_byte_for_byte(capsys, argv, code):
    outcomes = []
    for parse in (cli.build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == code


def test_a_handler_replaced_after_import_is_the_one_main_calls(monkeypatch, synth_file):
    calls = []
    monkeypatch.setattr(cli, "cmd_degrade", lambda args: calls.append(args.dataset) or 5)
    assert main(["degrade", synth_file]) == 5 and calls == [synth_file]


@pytest.mark.parametrize("argv", [["train", "--model-out", "m.npz"], ["cv"], ["ablate"],
                                  ["sweep", "--param", "alpha"]])
def test_no_bias_is_not_a_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "ds.txt", *argv[1:], "--no-bias"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-bias" in capsys.readouterr().err


def test_a_model_fit_without_bias_still_predicts_and_evaluates(tmp_path, capsys, synth_file):
    ds = load_dataset(synth_file)
    model = fit(ds.X, ds.D, add_bias=False).model
    model_path = tmp_path / "no-bias.npz"
    save_model(model, model_path)
    assert load_model(model_path).bias is False
    code, stdout, stderr = run(capsys, "predict", synth_file, "--model", str(model_path))
    assert (code, stderr) == (0, "")
    np.testing.assert_array_equal(np.loadtxt(io.StringIO(stdout)), predict(model, ds.X.data).T)
    code, stdout, stderr = run(capsys, "evaluate", synth_file, "--model", str(model_path))
    assert (code, stderr) == (0, "") and "| full |" in stdout


def test_a_reader_closing_stdout_early_ends_predict_quietly(tmp_path):
    ds_path, model_path = tmp_path / "ds.txt", tmp_path / "model.npz"
    ds = synth_lowrank(3000, 5, 6, 2, 0.1, seed=0)
    save_dataset(ds, ds_path)
    save_model(fit(ds.X, ds.D, variant="ablation-a").model, model_path)
    # 3000 rows of six 17-digit values are ~350 KB: far more than a pipe holds,
    # so predict is still writing when the reader goes.
    with subprocess.Popen([sys.executable, "-m", "ldlkit", "predict", str(ds_path),
                           "--model", str(model_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert len(first.split()) == 6
    assert (code, stderr) == (1, b"")


def test_failed_svd_is_one_error_line(monkeypatch, tmp_path, capsys, synth_file):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, stdout, stderr = run(capsys, "train", synth_file, "--model-out",
                               str(tmp_path / "m.npz"))
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: SVD did not converge on a ") and stderr.count("\n") == 1


# The CSV output of each fold command on synth_lowrank(40, 5, 3, 2, 0.1, seed=4),
# as fitting its runs one at a time writes it.
FOLD_OUTPUTS = [
    (("cv", "--variants", "full,ablation-a,ablation-b", "--folds", "4"),
     "dataset,variant,metric,mean,std\n"
     "small,full,chebyshev,0.187885,0.0175152\n"
     "small,full,clark,0.932353,0.113848\n"
     "small,full,canberra,1.34181,0.174607\n"
     "small,full,kl,0.187452,0.0310912\n"
     "small,full,cosine,0.951222,0.00959879\n"
     "small,full,intersection,0.812115,0.0175152\n"
     "small,ablation-a,chebyshev,0.187982,0.0176812\n"
     "small,ablation-a,clark,0.931345,0.113911\n"
     "small,ablation-a,canberra,1.33634,0.172415\n"
     "small,ablation-a,kl,0.187729,0.0314877\n"
     "small,ablation-a,cosine,0.95107,0.00989412\n"
     "small,ablation-a,intersection,0.812018,0.0176812\n"
     "small,ablation-b,chebyshev,0.187921,0.018626\n"
     "small,ablation-b,clark,0.94366,0.126765\n"
     "small,ablation-b,canberra,1.36319,0.195581\n"
     "small,ablation-b,kl,0.193174,0.0378835\n"
     "small,ablation-b,cosine,0.951866,0.00939106\n"
     "small,ablation-b,intersection,0.812079,0.018626\n"),
    (("sweep", "--param", "alpha", "--values", "0.01,0.1,1", "--folds", "4"),
     "dataset,variant,metric,mean,std\n"
     "small,full[alpha=0.01],chebyshev,0.187973,0.0185386\n"
     "small,full[alpha=0.01],clark,0.943231,0.126963\n"
     "small,full[alpha=0.01],canberra,1.36239,0.196326\n"
     "small,full[alpha=0.01],kl,0.19315,0.0377736\n"
     "small,full[alpha=0.01],cosine,0.951779,0.00942304\n"
     "small,full[alpha=0.01],intersection,0.812027,0.0185386\n"
     "small,full[alpha=0.1],chebyshev,0.187885,0.0175152\n"
     "small,full[alpha=0.1],clark,0.932353,0.113848\n"
     "small,full[alpha=0.1],canberra,1.34181,0.174607\n"
     "small,full[alpha=0.1],kl,0.187452,0.0310912\n"
     "small,full[alpha=0.1],cosine,0.951222,0.00959879\n"
     "small,full[alpha=0.1],intersection,0.812115,0.0175152\n"
     "small,full[alpha=1],chebyshev,0.234403,0.0436504\n"
     "small,full[alpha=1],clark,1.00599,0.10261\n"
     "small,full[alpha=1],canberra,1.45309,0.142519\n"
     "small,full[alpha=1],kl,0.499519,0.231234\n"
     "small,full[alpha=1],cosine,0.904196,0.0364834\n"
     "small,full[alpha=1],intersection,0.765597,0.0436504\n"),
    (("sweep", "--param", "lambda", "--values", "0.01,1", "--variant", "ablation-a",
      "--folds", "3"),
     "dataset,variant,metric,mean,std\n"
     "small,ablation-a[lambda=0.01],chebyshev,0.200662,0.0403966\n"
     "small,ablation-a[lambda=0.01],clark,0.966031,0.112774\n"
     "small,ablation-a[lambda=0.01],canberra,1.39965,0.16617\n"
     "small,ablation-a[lambda=0.01],kl,0.231935,0.0429336\n"
     "small,ablation-a[lambda=0.01],cosine,0.939401,0.0176583\n"
     "small,ablation-a[lambda=0.01],intersection,0.799338,0.0403966\n"
     "small,ablation-a[lambda=1],chebyshev,0.202946,0.0392143\n"
     "small,ablation-a[lambda=1],clark,0.948446,0.112531\n"
     "small,ablation-a[lambda=1],canberra,1.37833,0.172521\n"
     "small,ablation-a[lambda=1],kl,0.226723,0.0516979\n"
     "small,ablation-a[lambda=1],cosine,0.938765,0.0174251\n"
     "small,ablation-a[lambda=1],intersection,0.797054,0.0392143\n"),
    (("ablate", "--folds", "4"),
     "dataset,variant,metric,mean,std\n"
     "small,full,chebyshev,0.187885,0.0175152\n"
     "small,full,clark,0.932353,0.113848\n"
     "small,full,canberra,1.34181,0.174607\n"
     "small,full,kl,0.187452,0.0310912\n"
     "small,full,cosine,0.951222,0.00959879\n"
     "small,full,intersection,0.812115,0.0175152\n"
     "small,ablation-a,chebyshev,0.187982,0.0176812\n"
     "small,ablation-a,clark,0.931345,0.113911\n"
     "small,ablation-a,canberra,1.33634,0.172415\n"
     "small,ablation-a,kl,0.187729,0.0314877\n"
     "small,ablation-a,cosine,0.95107,0.00989412\n"
     "small,ablation-a,intersection,0.812018,0.0176812\n"
     "small,ablation-b,chebyshev,0.187921,0.018626\n"
     "small,ablation-b,clark,0.94366,0.126765\n"
     "small,ablation-b,canberra,1.36319,0.195581\n"
     "small,ablation-b,kl,0.193174,0.0378835\n"
     "small,ablation-b,cosine,0.951866,0.00939106\n"
     "small,ablation-b,intersection,0.812079,0.018626\n"),
    (("cv", "--variants", "full,ablation-a", "--folds", "3", "--grid", "alpha=0.1,1;lambda=0.1,1",
      "--max-iters", "40"),
     "dataset,variant,metric,mean,std\n"
     "small,full,chebyshev,0.203925,0.0424109\n"
     "small,full,clark,0.961244,0.0795265\n"
     "small,full,canberra,1.38957,0.128423\n"
     "small,full,kl,0.21862,0.0471041\n"
     "small,full,cosine,0.937589,0.0189068\n"
     "small,full,intersection,0.796075,0.0424109\n"
     "small,ablation-a,chebyshev,0.204873,0.04347\n"
     "small,ablation-a,clark,0.951636,0.103421\n"
     "small,ablation-a,canberra,1.38023,0.154715\n"
     "small,ablation-a,kl,0.237818,0.0584222\n"
     "small,ablation-a,cosine,0.929121,0.0276174\n"
     "small,ablation-a,intersection,0.795127,0.04347\n"),
]


@pytest.mark.parametrize("argv, want", FOLD_OUTPUTS)
def test_fold_commands_write_the_bytes_of_fits_one_at_a_time(tmp_path, capsys, argv, want):
    path = tmp_path / "small.txt"
    save_dataset(synth_lowrank(40, 5, 3, 2, 0.1, seed=4), path)
    assert run(capsys, argv[0], str(path), *argv[1:], "--format", "csv") == (0, want, "")


@pytest.mark.parametrize("values, error", [
    ("1e300,0.1,0", "iterate is not finite at iteration 2 (relative primal residual nan, "
                    "W change nan) at alpha=1 lambda=0.1"),
    ("1e300,0,0.1", "O-step system is rank-deficient; a positive lambda is required"),
])
def test_a_sweep_reports_the_error_of_its_first_failing_run(monkeypatch, tmp_path, capsys,
                                                            values, error):
    # With the penalty starting at 1e307, lambda = 0.1 overflows in the loop,
    # lambda = 0 fails the O-step's rank check before it, and lambda = 1e300
    # fits. The runs are stacked, but the error is the first failing run's in
    # the order of values, as when the runs were fit one at a time.
    for name, value in dict(MU0=1e307, MU_MAX=1e308, MU_GROWTH=10.0).items():
        monkeypatch.setattr(solver, name, value)
    path = tmp_path / "e.txt"
    save_dataset(synth_lowrank(60, 5, 3, 2, 0.1, seed=0), path)
    assert run(capsys, "sweep", str(path), "--param", "lambda", "--values", values,
               "--folds", "3", "--alpha", "1") == (1, "", f"error: {error}\n")
