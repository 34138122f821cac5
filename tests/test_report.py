import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from ldlkit import evaluate, synth_lowrank
from ldlkit.metrics import METRIC_NAMES
from ldlkit.report import ResultRow, fmt, render, render_counts, report_row


def sample_reports(count=1):
    ds = synth_lowrank(30, 4, 3, 2, 0.1, seed=0)
    rng = np.random.default_rng(1)
    return [evaluate(ds.D.data, rng.dirichlet(np.ones(3), size=30).T) for _ in range(count)]


def sample_rows():
    return [report_row("synth", "full", sample_reports())]


def csv_records(rows):
    return list(csv.reader(render(rows, "csv").splitlines()))


def md_cells(line):
    return [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]


def test_rows_cover_all_metrics_in_order():
    assert [fields[2] for fields in csv_records(sample_rows())[1:]] == [
        "chebyshev", "clark", "canberra", "kl", "cosine", "intersection",
    ]


def test_one_split_row_is_that_split_report():
    report = sample_reports()[0]
    assert report_row("synth", "full", [report]) == ResultRow("synth", "full", report)


def test_several_splits_give_the_mean_and_std_of_the_split_means():
    reports = sample_reports(3)
    row = report_row("synth", "full", reports)
    for name in METRIC_NAMES:
        means = np.array([rep.mean(name) for rep in reports])
        assert row.scores.mean(name) == float(np.mean(means))
        assert row.scores.std(name) == float(np.std(means))
    assert row.scores.n_evaluated == 90


def test_csv_layout():
    lines = render(sample_rows(), "csv").strip().splitlines()
    assert lines[0] == "dataset,variant,metric,mean,std"
    assert len(lines) == 7
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_csv_quotes_a_name_holding_a_comma_or_quote():
    rows = [replace(r, dataset='a,"b"') for r in sample_rows()]
    lines = render(rows, "csv").splitlines()
    assert lines[1].startswith('"a,""b""",full,chebyshev,')
    parsed = list(csv.reader(lines))
    assert [len(fields) for fields in parsed] == [5] * 7
    assert {fields[0] for fields in parsed[1:]} == {'a,"b"'}


def test_markdown_escapes_a_pipe_in_a_name():
    rows = [replace(r, dataset="a|b", variant="x|y") for r in sample_rows()]
    line = render(rows, "md").splitlines()[2]
    assert line.startswith("| a\\|b | x\\|y | ")
    assert len(re.split(r"(?<!\\)\|", line)) == 2 + 2 + 6


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\nb"])
def test_markdown_makes_a_line_break_in_a_name_a_space(name):
    rows = [replace(r, dataset=name) for r in sample_rows()]
    lines = render(rows, "md").splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("| a b | full | ")


def test_markdown_layout():
    lines = render(sample_rows(), "md").splitlines()
    assert lines[0] == "| dataset | variant | " + " | ".join(METRIC_NAMES) + " |"
    assert lines[1] == "|" + "---|" * 8
    assert len(lines) == 3


def test_csv_and_markdown_agree_numerically():
    # both views must render the same 6-significant-digit values
    rows = sample_rows()
    csv_vals = {metric: (mean, std) for _, _, metric, mean, std in csv_records(rows)[1:]}
    cells = md_cells(render(rows, "md").splitlines()[2])[2:]
    assert [tuple(cell.split("±")) for cell in cells] == [csv_vals[m] for m in METRIC_NAMES]
    score = rows[0].scores
    assert csv_vals["kl"] == (fmt(score.kl), fmt(score.kl_std))


def test_fmt_is_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(123456.789) == "123457"
    assert fmt(1e-7) == "1e-07"
    assert fmt(0.0) == "0"


def test_render_counts_csv_and_md():
    csv_out = render_counts([2, 1, 3], "csv")
    assert csv_out.splitlines()[0] == "instance,positives"
    assert csv_out.splitlines()[2] == "1,1"
    assert len(csv_out.splitlines()) == 4
    md_out = render_counts([2], "md")
    assert md_out == "| instance | positives |\n|---|---|\n| 0 | 2 |\n"


def test_markdown_groups_variants():
    other = report_row("other", "ablation-b", sample_reports(2))
    md = render(sample_rows() + [other], "md")
    data_lines = md.strip().splitlines()[2:]   # skip header and rule
    assert len(data_lines) == 2
    assert data_lines[0].split("|")[2].strip() == "full"
    assert data_lines[1].split("|")[2].strip() == "ablation-b"


def test_runs_sharing_a_tag_keep_a_line_each():
    # e.g. `cv --variants full,full` or `sweep --values 0.1,0.1`
    row = sample_rows()[0]
    rows = [row, replace(row, scores=replace(row.scores, kl=0.5))]
    md_lines = render(rows, "md").splitlines()[2:]
    records = csv_records(rows)[1:]
    assert len(md_lines) == 2 and len(records) == 12
    for line, run_records in zip(md_lines, (records[:6], records[6:])):
        cells = md_cells(line)
        assert cells[:2] == ["synth", "full"]
        assert cells[2:] == [f"{mean}±{std}" for _, _, _, mean, std in run_records]
    assert md_cells(md_lines[1])[2 + METRIC_NAMES.index("kl")].startswith("0.5±")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'yaml'"):
        render(sample_rows(), "yaml")


def test_render_counts_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'yaml'"):
        render_counts([1, 2], "yaml")
