"""Result-table emitters shared by the CLI and the evaluation module.

Long-form rows carry (dataset, variant, metric, mean, std).  The CSV and
Markdown renderers format every number with 6 significant digits so the two
views always agree; CSV output is byte-deterministic for fixed inputs.  A
name holding a comma, quote or line break is quoted in CSV as ``csv.writer``
quotes it, and a ``|`` is escaped in Markdown cells.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .metrics import METRIC_NAMES, EvalReport


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    variant: str
    metric: str
    mean: float
    std: float


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_rows(dataset: str, variant: str, reports: Sequence[EvalReport]) -> List[ResultRow]:
    """One row per metric for a run's reports, one per split: the mean and std
    of the split means, or one split's mean and std over its test instances."""
    rows = []
    for name in METRIC_NAMES:
        means = np.array([rep.mean(name) for rep in reports])
        std = reports[0].std(name) if len(reports) == 1 else np.std(means)
        rows.append(ResultRow(dataset, variant, name, float(np.mean(means)), float(std)))
    return rows


def render_csv(rows: Iterable[ResultRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dataset", "variant", "metric", "mean", "std"])
    for r in rows:
        writer.writerow([r.dataset, r.variant, r.metric, fmt(r.mean), fmt(r.std)])
    return out.getvalue()


def render_markdown(rows: Sequence[ResultRow]) -> str:
    """Wide table: one line per (dataset, variant), metric columns as mean±std."""
    keys: List[Tuple[str, str]] = []
    cells = {}
    for r in rows:
        key = (r.dataset, r.variant)
        if key not in cells:
            keys.append(key)
            cells[key] = {}
        cells[key][r.metric] = f"{fmt(r.mean)}±{fmt(r.std)}"
    header = "| dataset | variant | " + " | ".join(METRIC_NAMES) + " |"
    rule = "|" + "---|" * (2 + len(METRIC_NAMES))
    lines = [header, rule]
    for dataset, variant in keys:
        row = cells[(dataset, variant)]
        body = " | ".join(row.get(name, "") for name in METRIC_NAMES)
        dataset, variant = (name.replace("|", "\\|") for name in (dataset, variant))
        lines.append(f"| {dataset} | {variant} | {body} |")
    return "\n".join(lines) + "\n"


def render(rows: Sequence[ResultRow], fmt_name: str) -> str:
    if fmt_name == "csv":
        return render_csv(rows)
    if fmt_name == "md":
        return render_markdown(rows)
    raise ValueError(f"unknown output format {fmt_name!r}")


def render_counts(counts: Sequence[int], fmt_name: str) -> str:
    """Per-instance positive-label counts (degrade command output)."""
    if fmt_name == "csv":
        lines = ["instance,positives"]
        lines += [f"{i},{c}" for i, c in enumerate(counts)]
        return "\n".join(lines) + "\n"
    lines = ["| instance | positives |", "|---|---|"]
    lines += [f"| {i} | {c} |" for i, c in enumerate(counts)]
    return "\n".join(lines) + "\n"
