"""Result tables shared by the CLI and the evaluation module.

A run's result is one :class:`ResultRow`: dataset, variant tag and an
:class:`EvalReport`.  One writer, ``_table``, emits every table: CSV through
``csv.writer``, which quotes a name holding a comma, quote or line break, and
Markdown with ``|`` escaped in its cells and each line break (CR, LF or CRLF)
made a space.  A run is six CSV lines (metric, mean, std) and one Markdown line
of mean±std cells; both format numbers with 6 significant digits, so the two
views always agree.  Output is byte-deterministic for fixed inputs.
"""
from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence

import numpy as np

from .metrics import METRIC_NAMES, EvalReport
from .types import Record


class ResultRow(Record):
    """One run's scores on one dataset."""

    dataset: str
    variant: str
    scores: EvalReport


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_row(dataset: str, variant: str, reports: Sequence[EvalReport]) -> ResultRow:
    """A run's row from its reports, one per split: one split's report as it
    is, or each metric's mean and std of the split means."""
    if len(reports) == 1:
        return ResultRow(dataset, variant, reports[0])
    means = [np.array([rep.mean(name) for rep in reports]) for name in METRIC_NAMES]
    return ResultRow(dataset, variant, EvalReport(
        *(float(np.mean(m)) for m in means), *(float(np.std(m)) for m in means),
        n_evaluated=sum(rep.n_evaluated for rep in reports)))


def _table(header: Sequence[str], rows: Iterable[Sequence[object]], fmt_name: str) -> str:
    if fmt_name == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    if fmt_name == "md":
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join([_md_cell(str(c)) for c in row]) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt_name!r}")


def _md_cell(text: str) -> str:
    text = text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")
    return text.replace("|", "\\|")


def render(rows: Sequence[ResultRow], fmt_name: str) -> str:
    """CSV: one line per run and metric; Markdown: one line per run."""
    if fmt_name == "csv":
        header = ["dataset", "variant", "metric", "mean", "std"]
        lines = [[r.dataset, r.variant, name, fmt(r.scores.mean(name)), fmt(r.scores.std(name))]
                 for r in rows for name in METRIC_NAMES]
    else:
        header = ["dataset", "variant", *METRIC_NAMES]
        lines = [[r.dataset, r.variant, *(f"{fmt(r.scores.mean(name))}±{fmt(r.scores.std(name))}"
                                          for name in METRIC_NAMES)] for r in rows]
    return _table(header, lines, fmt_name)


def render_counts(counts: Sequence[int], fmt_name: str) -> str:
    """Per-instance positive-label counts (degrade command output)."""
    return _table(["instance", "positives"], enumerate(counts), fmt_name)
