import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from ldlkit import evaluate, synth_lowrank
from ldlkit.report import (
    ResultRow,
    fmt,
    render_counts,
    render_csv,
    render_markdown,
    report_rows,
)


def sample_rows():
    ds = synth_lowrank(30, 4, 3, 2, 0.1, seed=0)
    rng = np.random.default_rng(1)
    pred = rng.dirichlet(np.ones(3), size=30).T
    return report_rows(ds.name, "full", [evaluate(ds.D.data, pred)])


def test_rows_cover_all_metrics_in_order():
    rows = sample_rows()
    assert [r.metric for r in rows] == [
        "chebyshev", "clark", "canberra", "kl", "cosine", "intersection",
    ]


def test_csv_layout():
    rows = sample_rows()
    out = render_csv(rows)
    lines = out.strip().splitlines()
    assert lines[0] == "dataset,variant,metric,mean,std"
    assert len(lines) == 7
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_csv_quotes_a_name_holding_a_comma_or_quote():
    rows = [replace(r, dataset='a,"b"') for r in sample_rows()]
    lines = render_csv(rows).splitlines()
    assert lines[1].startswith('"a,""b""",full,chebyshev,')
    parsed = list(csv.reader(lines))
    assert [len(fields) for fields in parsed] == [5] * 7
    assert {fields[0] for fields in parsed[1:]} == {'a,"b"'}


def test_markdown_escapes_a_pipe_in_a_name():
    rows = [replace(r, dataset="a|b", variant="x|y") for r in sample_rows()]
    line = render_markdown(rows).splitlines()[2]
    assert line.startswith("| a\\|b | x\\|y | ")
    assert len(re.split(r"(?<!\\)\|", line)) == 2 + 2 + 6


def test_csv_and_markdown_agree_numerically():
    # both emitters must render the same 6-significant-digit values
    rows = sample_rows()
    csv_vals = {}
    for line in render_csv(rows).strip().splitlines()[1:]:
        _, _, metric, mean, std = line.split(",")
        csv_vals[metric] = (mean, std)
    md = render_markdown(rows)
    body = [l for l in md.splitlines() if l.startswith("|") and "full" in l][0]
    cells = [c.strip() for c in body.strip("|").split("|")][2:]
    for metric, cell in zip(csv_vals, cells):
        mean, std = cell.split("±")
        assert (mean, std) == csv_vals[metric]


def test_fmt_is_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(123456.789) == "123457"
    assert fmt(1e-7) == "1e-07"
    assert fmt(0.0) == "0"


def test_render_counts_csv_and_md():
    csv_out = render_counts([2, 1, 3], "csv")
    assert csv_out.splitlines()[0] == "instance,positives"
    assert csv_out.splitlines()[2] == "1,1"
    md_out = render_counts([2], "md")
    assert "| 0 | 2 |" in md_out


def test_markdown_groups_variants():
    rows = sample_rows() + [
        ResultRow("other", "ablation-b", m, 0.5, 0.1)
        for m in ["chebyshev", "clark", "canberra", "kl", "cosine", "intersection"]
    ]
    md = render_markdown(rows)
    data_lines = md.strip().splitlines()[2:]   # skip header and rule
    assert len(data_lines) == 2
    assert data_lines[0].split("|")[2].strip() == "full"
    assert data_lines[1].split("|")[2].strip() == "ablation-b"


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        from ldlkit.report import render
        render(sample_rows(), "yaml")
