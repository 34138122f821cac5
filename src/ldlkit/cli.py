"""Command-line front end.

Subcommands: train, predict, evaluate, cv, ablate, degrade, sweep, synth.
Every command taking --seed is fully deterministic in its output bytes.
Non-convergence of the solver is never signalled through the exit code:
train reports it in its output, while cv, ablate and sweep do not report it
yet.  Module errors print a diagnostic and exit nonzero.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import data as dio
from .degrade import degrade
from .errors import LdlError, ShapeMismatch
from .metrics import METRIC_NAMES, EvalReport, evaluate
from .report import ResultRow, render, render_counts, report_rows
from .solver import _fit_split, fit, load_model, predict, save_model
from .types import Hyperparams, Variant, parse_degradation

PARAM_GRID_DEFAULT = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0)

Split = Tuple[np.ndarray, np.ndarray]
Run = Tuple[Variant, Hyperparams]


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.1, help="nuclear-norm weight")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1, help="ridge weight")
    p.add_argument("--degrade", dest="degrade_spec", default="threshold:0.5",
                   metavar="KIND:VALUE", help="threshold:T or topk:K")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)


def _add_common(p: argparse.ArgumentParser, variant: bool = True) -> None:
    if variant:
        p.add_argument("--variant", choices=[v.value for v in Variant], default="full")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip z-scoring of features")
    p.add_argument("--no-bias", action="store_true",
                   help="do not append a constant-1 feature column")


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(
        alpha=args.alpha,
        lam=args.lam,
        degradation=parse_degradation(args.degrade_spec),
        max_iters=args.max_iters,
        tol=args.tol,
    )


def _fit_kwargs(args) -> dict:
    return {
        "standardize_features": not args.no_standardize,
        "add_bias": not args.no_bias,
    }


def _splits(n: int, folds: int, seed: int, holdout: Optional[float] = None) -> List[Split]:
    """(train, test) index pairs: k folds, or one shuffled holdout split."""
    if holdout is not None:
        perm = np.random.default_rng(seed).permutation(n)
        n_test = max(1, int(round(n * holdout)))
        return [(perm[n_test:], perm[:n_test])]
    plan = dio.kfold(n, folds, seed)
    return [plan.split(f) for f in range(plan.k)]


def _fold_reports(ds, splits: Sequence[Split], runs: Sequence[Run], fit_kwargs: dict,
                  tune=None) -> List[List[EvalReport]]:
    """Each run's test-set scores on each split.  A split's runs are fit
    together on its training part, which they share; ``tune(train, runs)``
    picks the runs' hyperparameters from that training part."""
    reports: List[List[EvalReport]] = [[] for _ in runs]
    for train, test in splits:
        results = _fit_split(ds.X.data[train], ds.D.data[:, train],
                             tune(train, runs) if tune else runs, **fit_kwargs)
        for run_reports, res in zip(reports, results):
            run_reports.append(evaluate(ds.D.data[:, test], predict(res.model, ds.X.data[test])))
    return reports


def _rows(ds, runs, splits: Sequence[Split], fit_kwargs: dict, tune=None) -> List[ResultRow]:
    """Mean±std rows over the splits for each (tag, variant, hp) run; with a
    single split the std is over its test instances."""
    rows: List[ResultRow] = []
    all_reports = _fold_reports(ds, splits, [(variant, hp) for _, variant, hp in runs],
                                fit_kwargs, tune)
    for (tag, _, _), reports in zip(runs, all_reports):
        for name in METRIC_NAMES:
            means = np.array([rep.mean(name) for rep in reports])
            std = reports[0].std(name) if len(reports) == 1 else np.std(means)
            rows.append(ResultRow(ds.name, tag, name, float(np.mean(means)), float(std)))
    return rows


def _parse_values(text: str, what: str) -> Tuple[float, ...]:
    """Parse a comma list of numbers, skipping empty entries."""
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(float(entry))
        except ValueError:
            raise ValueError(f"{what} entry {entry.strip()!r} is not a number") from None
    if not values:
        raise ValueError(f"{what} lists no values")
    return tuple(values)


def _parse_grid(spec: str) -> dict:
    """Parse 'alpha=0.005,0.01;lambda=0.1,1' into value tuples."""
    grid = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, values = part.partition("=")
        key = key.strip().lower()
        if not sep or key not in ("alpha", "lambda"):
            raise ValueError(f"bad grid component {part!r}")
        if key in grid:
            raise ValueError(f"grid spec names {key!r} more than once")
        grid[key] = _parse_values(values, f"grid component {part!r}")
    if not grid:
        raise ValueError("empty grid spec")
    return grid


def cmd_synth(args) -> int:
    ds = dio.synth_lowrank(args.n, args.d, args.m, args.r, args.noise, args.seed)
    dio.save_dataset(ds, args.out)
    print(f"wrote {ds.name}: n={ds.n} d={ds.d} m={ds.m} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = dio.load_dataset(args.dataset)
    hp = _hyperparams(args)
    res = fit(ds.X, ds.D, hp, args.variant, **_fit_kwargs(args))
    save_model(res.model, args.model_out)
    conv = "yes" if res.converged else "NO (max iterations reached)"
    print(f"variant={args.variant} iterations={res.iterations_run} "
          f"residual={res.final_primal_residual:.6g} converged={conv}")
    pred = predict(res.model, ds.X.data)
    rows = report_rows(ds.name, f"{args.variant}[train]", evaluate(ds.D.data, pred))
    print(render(rows, args.fmt), end="")
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = dio.load_dataset(args.dataset)
    pred = predict(model, ds.X.data)
    np.savetxt(args.out or sys.stdout, pred.T, fmt="%.17g")
    if args.out:
        print(f"wrote {pred.shape[1]} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = dio.load_dataset(args.dataset)
    if ds.m != model.m:
        raise ShapeMismatch(f"model predicts {model.m} labels, but the dataset has {ds.m}")
    pred = predict(model, ds.X.data)
    rows = report_rows(ds.name, model.variant.value, evaluate(ds.D.data, pred))
    print(render(rows, args.fmt), end="")
    return 0


def cmd_cv(args) -> int:
    ds = dio.load_dataset(args.dataset)
    hp = _hyperparams(args)
    variants = [Variant(v.strip()) for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ValueError(f"--variants {args.variants!r} lists no variants")
    fit_kwargs = _fit_kwargs(args)
    tune = None
    if args.grid:
        grid = _parse_grid(args.grid)

        def tune(train, runs: Sequence[Run]) -> List[Run]:
            """Inner 5-fold search on the training split, for each run; the
            first candidate with the lowest mean KL wins."""
            sub = dio.subset(ds, train)
            inner = _splits(sub.n, 5, args.seed)
            cands = [(variant, replace(hp, alpha=a, lam=l)) for variant, hp in runs
                     for a, l in itertools.product(grid.get("alpha", (hp.alpha,)),
                                                   grid.get("lambda", (hp.lam,)))]
            kl = [np.mean([rep.kl for rep in reports])
                  for reports in _fold_reports(sub, inner, cands, fit_kwargs)]
            per_run = len(cands) // len(runs)
            return [cands[start + int(np.argmin(kl[start:start + per_run]))]
                    for start in range(0, len(cands), per_run)]

    runs = [(v.value, v, hp) for v in variants]
    rows = _rows(ds, runs, _splits(ds.n, args.folds, args.seed), fit_kwargs, tune)
    print(render(rows, args.fmt), end="")
    return 0


def cmd_ablate(args) -> int:
    if args.holdout is not None and not (0.0 < args.holdout < 1.0):
        raise ValueError(f"--holdout must lie in (0, 1), got {args.holdout}")
    ds = dio.load_dataset(args.dataset)
    hp = _hyperparams(args)
    runs = [(v.value, v, hp) for v in (Variant.FULL, Variant.ABLATION_A, Variant.ABLATION_B)]
    splits = _splits(ds.n, args.folds, args.seed, args.holdout)
    n_train = len(splits[0][0])
    if n_train < 2:
        raise ValueError(f"--holdout {args.holdout} leaves {n_train} of {ds.n} instances "
                         "for training; at least 2 are needed")
    print(render(_rows(ds, runs, splits, _fit_kwargs(args)), args.fmt), end="")
    return 0


def cmd_degrade(args) -> int:
    ds = dio.load_dataset(args.dataset)
    setting = parse_degradation(args.degrade_spec)
    L = degrade(ds.D, setting)
    counts = L.data.sum(axis=0).astype(int)
    if args.out:
        np.savetxt(args.out, L.data.T, fmt="%d", header=f"{L.n} {L.m}", comments="")
    print(render_counts(list(counts), args.fmt), end="")
    if args.out:
        print(f"multi-label matrix written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    ds = dio.load_dataset(args.dataset)
    hp = _hyperparams(args)
    values = (_parse_values(args.values, f"--values {args.values!r}")
              if args.values is not None else PARAM_GRID_DEFAULT)
    variant = Variant(args.variant)
    field = "alpha" if args.param == "alpha" else "lam"
    runs = [(f"{variant.value}[{args.param}={value:g}]", variant, replace(hp, **{field: value}))
            for value in values]
    rows = _rows(ds, runs, _splits(ds.n, args.folds, args.seed), _fit_kwargs(args))
    print(render(rows, args.fmt), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldlkit",
        description="Label-distribution learning with low-rank auxiliary multi-label structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on a full dataset")
    p.add_argument("dataset")
    p.add_argument("--model-out", required=True)
    _add_hp_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict distributions for a dataset's features")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved model on a dataset")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cv", help="k-fold cross-validation, optionally with grid search")
    p.add_argument("dataset")
    p.add_argument("--variants", default="full",
                   help="comma list from full,ablation-a,ablation-b")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--grid", help="e.g. 'alpha=0.005,0.1;lambda=0.1,1'")
    _add_hp_flags(p)
    _add_common(p, variant=False)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("ablate", help="compare full vs ablation variants")
    p.add_argument("dataset")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--holdout", type=float,
                   help="use a single holdout split of this fraction instead of k "
                   "folds; the std columns are then over its test instances")
    _add_hp_flags(p)
    _add_common(p, variant=False)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("degrade", help="degrade distributions to a multi-label matrix")
    p.add_argument("dataset")
    p.add_argument("--degrade", dest="degrade_spec", default="threshold:0.5",
                   metavar="KIND:VALUE")
    p.add_argument("--out", help="write the binary matrix to this file")
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("sweep", help="metric-vs-value table for alpha or lambda")
    p.add_argument("dataset")
    p.add_argument("--param", choices=["alpha", "lambda"], required=True)
    p.add_argument("--values", help="comma list; defaults to the 7-point candidate set")
    p.add_argument("--folds", type=int, default=10)
    _add_hp_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LdlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
