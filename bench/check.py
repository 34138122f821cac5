"""Output checker: every CLI command the benchmark runs is checked here, and
a command that fails a check counts as failed.

Two kinds of check apply:

* invariants, at any seed: result tables have the expected rows and finite
  values, predicted columns are non-negative and sum to 1 within 1e-9, the
  ``evaluate`` means equal the metrics recomputed here from the ``predict``
  output, and ``degrade`` rows are binary with at least one label each;
* at the default seed only: every reported mean is within 1e-4 relative of
  ``reference.json``, recorded from the program's own output.

The six metrics are implemented again here, independently of ldlkit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from workloads import Plan, Step

METRIC_NAMES = ("chebyshev", "clark", "canberra", "kl", "cosine", "intersection")
SIMPLEX_TOL = 1e-9
KL_EPS = 1e-12
# Table means carry 6 significant digits.
TABLE_RTOL = 1e-5
REFERENCE_RTOL = 1e-4
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class CheckError(Exception):
    """A command's output broke an invariant or missed its reference."""


def load_distributions(path: Path) -> np.ndarray:
    """Read the (m, n) distribution block of a MatrixText file."""
    with open(path, "r", encoding="utf-8") as fh:
        n, d, m = (int(v) for v in fh.readline().split())
        lines = [line for line in fh.read().split("\n") if line.strip()]
    if len(lines) != 2 * n:
        raise CheckError(f"{path}: expected {2 * n} data lines, found {len(lines)}")
    D = np.array(" ".join(lines[n:]).split(), dtype=np.float64)
    return D.reshape(n, m).T


def recompute_means(Dt: np.ndarray, Dp: np.ndarray) -> Dict[str, float]:
    """Means over instances (columns) of the six measures."""
    diff, total = Dt - Dp, Dt + Dp
    safe = np.where(total > 0, total, 1.0)
    ratio = np.where(total > 0, diff / safe, 0.0)
    q = np.maximum(Dp, KL_EPS)
    q = q / q.sum(axis=0)
    kl = np.where(Dt > 0, Dt * np.log(np.where(Dt > 0, Dt, 1.0) / q), 0.0)
    per = {
        "chebyshev": np.abs(diff).max(axis=0),
        "clark": np.sqrt((ratio ** 2).sum(axis=0)),
        "canberra": np.abs(ratio).sum(axis=0),
        "kl": kl.sum(axis=0),
        "cosine": (Dt * Dp).sum(axis=0)
        / (np.linalg.norm(Dt, axis=0) * np.linalg.norm(Dp, axis=0)),
        "intersection": np.minimum(Dt, Dp).sum(axis=0),
    }
    return {k: float(v.mean()) for k, v in per.items()}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b) + 1e-12


def _option(argv: List[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_table(lines: List[str], tags: List[str]) -> Dict[str, float]:
    """Check a long-form CSV table and return its means keyed 'tag/metric'.
    Columns added after the first five are allowed."""
    expected = [(t, m) for t in tags for m in METRIC_NAMES]
    header = lines[0].split(",") if lines else []
    if header[:5] != ["dataset", "variant", "metric", "mean", "std"]:
        raise CheckError(f"bad table header {lines[:1]!r}")
    body = lines[1:]
    if len(body) != len(expected):
        raise CheckError(f"expected {len(expected)} table rows, got {len(body)}")
    means = {}
    for line, (tag, metric) in zip(body, expected):
        parts = line.split(",")
        if len(parts) != len(header) or (parts[1], parts[2]) != (tag, metric):
            raise CheckError(f"unexpected table row {line!r}, wanted {tag},{metric}")
        mean, std = float(parts[3]), float(parts[4])
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise CheckError(f"non-finite value in row {line!r}")
        means[f"{tag}/{metric}"] = mean
    return means


@dataclass
class Checker:
    """Checks the outputs of one workload's commands against its input."""

    plan: Plan
    reference: Optional[Dict[str, float]] = None
    D: np.ndarray = field(init=False)
    pred: Optional[np.ndarray] = field(default=None, init=False)
    means: Dict[str, float] = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.D = load_distributions(self.plan.data)

    def check(self, step: Step, rc: int, stdout: str) -> None:
        """Raise CheckError unless ``step`` succeeded with a correct output."""
        if rc != 0:
            raise CheckError(f"{step.command} exited with {rc}")
        lines = stdout.splitlines()
        means = getattr(self, f"_check_{step.command}")(step.argv, lines)
        for key, value in (means or {}).items():
            key = f"{step.command}/{key}"
            if self.reference is not None:
                if key not in self.reference:
                    raise CheckError(f"{key} has no reference value")
                if not _close(value, self.reference[key], REFERENCE_RTOL):
                    raise CheckError(
                        f"{key}={value!r} differs from reference {self.reference[key]!r}")
            self.means[key] = value

    def _check_cv(self, argv, lines):
        return parse_table(lines, _option(argv, "--variants", "full").split(","))

    def _check_sweep(self, argv, lines):
        variant, param = _option(argv, "--variant", "full"), _option(argv, "--param", "")
        values = _option(argv, "--values", "").split(",")
        return parse_table(lines, [f"{variant}[{param}={float(v):g}]" for v in values])

    def _check_ablate(self, argv, lines):
        return parse_table(lines, ["full", "ablation-a", "ablation-b"])

    def _check_train(self, argv, lines):
        variant = _option(argv, "--variant", "full")
        if len(lines) < 3 or not lines[0].startswith(f"variant={variant} iterations="):
            raise CheckError(f"bad train summary {lines[:1]!r}")
        if lines[-1] != f"model written to {self.plan.model}":
            raise CheckError(f"bad train trailer {lines[-1:]!r}")
        if not self.plan.model.is_file():
            raise CheckError("train wrote no model file")
        return parse_table(lines[1:-1], [f"{variant}[train]"])

    def _check_predict(self, argv, lines):
        m, n = self.D.shape
        self.pred = None
        if lines != [f"wrote {n} predictions to {self.plan.pred}"]:
            raise CheckError(f"bad predict output {lines[:1]!r}")
        P = np.loadtxt(self.plan.pred, ndmin=2)
        if P.shape != (n, m):
            raise CheckError(f"predictions have shape {P.shape}, expected {(n, m)}")
        if not np.all(np.isfinite(P)) or np.any(P < 0):
            raise CheckError("predictions are negative or non-finite")
        worst = float(np.abs(P.sum(axis=1) - 1.0).max())
        if worst > SIMPLEX_TOL:
            raise CheckError(f"a predicted distribution sums to 1 only within {worst:.3g}")
        self.pred = P.T
        return None

    def _check_evaluate(self, argv, lines):
        if self.pred is None:
            raise CheckError("evaluate ran before any predict output was checked")
        means = parse_table(lines, [self.plan.workload.train_variant])
        expected = recompute_means(self.D, self.pred)
        for key, value in means.items():
            metric = key.split("/")[1]
            if not _close(value, expected[metric], TABLE_RTOL):
                raise CheckError(
                    f"evaluate {metric}={value!r}, recomputed {expected[metric]!r}")
        return means

    def _check_degrade(self, argv, lines):
        m, n = self.D.shape
        if lines[:1] != ["instance,positives"] or len(lines) != n + 2:
            raise CheckError("bad degrade table")
        if lines[-1] != f"multi-label matrix written to {self.plan.labels}":
            raise CheckError(f"bad degrade trailer {lines[-1:]!r}")
        counts = [int(line.split(",")[1]) for line in lines[1:-1]]
        with open(self.plan.labels, "r", encoding="utf-8") as fh:
            if fh.readline().split() != [str(n), str(m)]:
                raise CheckError("bad multi-label header")
            L = np.loadtxt(fh, ndmin=2)
        if L.shape != (n, m) or not np.all((L == 0) | (L == 1)):
            raise CheckError("multi-label rows are not binary of width m")
        sums = L.sum(axis=1)
        if np.any(sums < 1):
            raise CheckError("a multi-label row has no relevant label")
        if sums.astype(int).tolist() != counts:
            raise CheckError("degrade counts disagree with the written matrix")
        return None


def check_exit(rc: int, stderr: str) -> None:
    if rc != 0:
        raise CheckError(f"exited with {rc}: {stderr[-200:]!r}")


def check_synth(plan: Plan, rc: int, stdout: str) -> None:
    shape = plan.shape
    if rc != 0 or not stdout.startswith("wrote "):
        raise CheckError(f"synth failed ({rc}): {stdout[:80]!r}")
    with open(plan.data, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
    if header != [str(shape["n"]), str(shape["d"]), str(shape["m"])]:
        raise CheckError(f"synth wrote header {header}")


def load_reference(plan: Plan) -> Dict[str, float]:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)[plan.workload.name][str(plan.index)]
