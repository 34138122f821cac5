import subprocess
import sys

import numpy as np
import pytest

from ldlkit import (Dataset, FeatureMatrix, Hyperparams, LabelDistributionMatrix, TopKDegrade,
                    Variant, degrade, evaluate, fit, load_dataset, load_model, parse_degradation,
                    predict, save_dataset, synth_lowrank)
from ldlkit import cli
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


def test_failed_svd_is_one_error_line(monkeypatch, tmp_path, capsys, synth_file):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, stdout, stderr = run(capsys, "train", synth_file, "--model-out",
                               str(tmp_path / "m.npz"))
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: SVD did not converge on a ") and stderr.count("\n") == 1
