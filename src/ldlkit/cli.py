"""Command-line front end.

Subcommands: train, predict, evaluate, cv, ablate, degrade, sweep, synth.
Every command taking --seed is fully deterministic in its output bytes, and
every fit appends a constant-1 feature column.  Non-convergence of the solver
is never signalled through the exit code: train reports it in its output,
while cv, ablate and sweep do not report it yet.  Their fits, unlike train's,
record no objective, which no command prints.  Module errors print a
diagnostic and exit nonzero; a reader closing stdout early (``| head``) ends
a command quietly with exit code 1, its unread output sent to devnull, and a
closed stdout is an error before any input is read.  A process builds only
its command's arguments, and :func:`entry` ends it with no teardown.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import data as dio
from .degrade import degrade
from .errors import LdlError, ShapeMismatch
from .metrics import evaluate
from .report import ResultRow, render, render_counts, report_row
from .solver import _fit_split, fit, load_model, predict, save_model
from .types import Hyperparams, Variant, parse_degradation

PARAM_GRID_DEFAULT = (0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0)
HP_DEFAULT = Hyperparams()

Split = Tuple[np.ndarray, np.ndarray]
Run = Tuple[str, Variant, Hyperparams]


def _add_hp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=HP_DEFAULT.alpha, help="nuclear-norm weight")
    p.add_argument("--lambda", dest="lam", type=float, default=HP_DEFAULT.lam,
                   help="ridge weight")
    p.add_argument("--degrade", dest="degrade_spec", default=str(HP_DEFAULT.degradation),
                   metavar="KIND:VALUE", help="threshold:T or topk:K")
    p.add_argument("--max-iters", type=int, default=HP_DEFAULT.max_iters)
    p.add_argument("--tol", type=float, default=HP_DEFAULT.tol)


def _add_common(p: argparse.ArgumentParser, variant: bool = True) -> None:
    if variant:
        p.add_argument("--variant", choices=[v.value for v in Variant], default="full")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip z-scoring of features")


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(
        alpha=args.alpha,
        lam=args.lam,
        degradation=parse_degradation(args.degrade_spec),
        max_iters=args.max_iters,
        tol=args.tol,
    )


def _splits(n: int, folds: int, seed: int, holdout: Optional[float] = None) -> List[Split]:
    """(train, test) index pairs: k folds, or one shuffled holdout split."""
    if holdout is not None:
        perm = dio._rng(seed).permutation(n)
        n_test = max(1, int(round(n * holdout)))
        return [(perm[n_test:], perm[:n_test])]
    if folds < 2:
        raise ValueError(f"--folds must be at least 2, got {folds}")
    plan = dio.kfold(n, folds, seed)
    return [plan.split(f) for f in range(plan.k)]


def _rows(ds, runs: Sequence[Run], splits: Sequence[Split], standardize: bool,
          tune=None) -> List[ResultRow]:
    """Each (tag, variant, hp) run's row of test-set scores over the splits.
    The runs are fit on every split's training part in one call, which stacks
    them; with ``tune(train, runs)``, which picks the runs' hyperparameters
    from a training part, each split is a call of its own."""
    calls = (((tune(train, runs), [train]) for train, _ in splits) if tune else
             [(runs, [train for train, _ in splits])])
    results = [res for split_runs, trains in calls for res in _fit_split(
        ds.X, ds.D, [(variant, hp) for _, variant, hp in split_runs], standardize,
        trace=False, splits=trains)]
    return [report_row(ds.name, tag, [
        evaluate(ds.D.data[:, test], predict(res.model, ds.X.data[test]))
        for (_, test), res in zip(splits, results[j::len(runs)])])
        for j, (tag, _, _) in enumerate(runs)]


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
    res = fit(ds.X, ds.D, hp, args.variant, not args.no_standardize)
    save_model(res.model, args.model_out)
    conv = "yes" if res.converged else "NO (max iterations reached)"
    print(f"variant={args.variant} iterations={res.iterations_run} "
          f"residual={res.final_primal_residual:.6g} converged={conv}")
    pred = predict(res.model, ds.X.data)
    rows = [ResultRow(ds.name, f"{args.variant}[train]", evaluate(ds.D.data, pred))]
    print(render(rows, args.fmt), end="")
    print(f"model written to {args.model_out}")
    return 0


def _load_model_and_dataset(args):
    """The saved model and a dataset with the model's feature count."""
    model = load_model(args.model)
    ds = dio.load_dataset(args.dataset)
    if ds.d != model.d_in:
        raise ShapeMismatch(f"model takes {model.d_in} features, but the dataset "
                            f"{args.dataset} has {ds.d}")
    return model, ds


def cmd_predict(args) -> int:
    model, ds = _load_model_and_dataset(args)
    pred = predict(model, ds.X.data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dio.write_rows(fh, pred.T, "%.17g")
        print(f"wrote {pred.shape[1]} predictions to {args.out}")
    else:
        dio.write_rows(sys.stdout, pred.T, "%.17g")
    return 0


def cmd_evaluate(args) -> int:
    model, ds = _load_model_and_dataset(args)
    if ds.m != model.m:
        raise ShapeMismatch(f"model predicts {model.m} labels, but the dataset has {ds.m}")
    pred = predict(model, ds.X.data)
    rows = [ResultRow(ds.name, model.variant.value, evaluate(ds.D.data, pred))]
    print(render(rows, args.fmt), end="")
    return 0


def cmd_cv(args) -> int:
    ds = dio.load_dataset(args.dataset)
    hp = _hyperparams(args)
    try:
        variants = [Variant(v.strip()) for v in args.variants.split(",") if v.strip()]
    except ValueError as exc:
        choices = ", ".join(v.value for v in Variant)
        raise ValueError(f"--variants: {exc}; choose from {choices}") from None
    if not variants:
        raise ValueError(f"--variants {args.variants!r} lists no variants")
    grid = _parse_grid(args.grid) if args.grid else None
    splits = _splits(ds.n, args.folds, args.seed)
    tune = None
    if grid:
        n_train = min(len(train) for train, _ in splits)
        if n_train < 5:
            raise ValueError(f"--grid's inner 5-fold search cannot split a training split "
                             f"of {n_train} instances into 5 folds")

        def tune(train, runs: Sequence[Run]) -> List[Run]:
            """Inner 5-fold search on the training split, for each run; the
            first candidate with the lowest mean KL wins."""
            inner = [(train[a], train[b]) for a, b in _splits(len(train), 5, args.seed)]
            cands = [(tag, variant, hp.replace(alpha=a, lam=l)) for tag, variant, hp in runs
                     for a, l in itertools.product(grid.get("alpha", (hp.alpha,)),
                                                   grid.get("lambda", (hp.lam,)))]
            kl = [row.scores.kl for row in _rows(ds, cands, inner, not args.no_standardize)]
            per_run = len(cands) // len(runs)
            return [cands[start + int(np.argmin(kl[start:start + per_run]))]
                    for start in range(0, len(cands), per_run)]

    runs = [(v.value, v, hp) for v in variants]
    rows = _rows(ds, runs, splits, not args.no_standardize, tune)
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
    print(render(_rows(ds, runs, splits, not args.no_standardize), args.fmt), end="")
    return 0


def cmd_degrade(args) -> int:
    ds = dio.load_dataset(args.dataset)
    setting = parse_degradation(args.degrade_spec)
    L = degrade(ds.D, setting)
    counts = L.data.sum(axis=0).astype(int)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"{L.n} {L.m}\n")
            # '%d' formats Python ints fastest: the 0/1 entries go as int8.
            dio.write_rows(fh, L.data.T.astype(np.int8), "%d")
    print(render_counts(counts.tolist(), args.fmt), end="")
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
    runs = [(f"{variant.value}[{args.param}={value:g}]", variant, hp.replace(**{field: value}))
            for value in values]
    rows = _rows(ds, runs, _splits(ds.n, args.folds, args.seed), not args.no_standardize)
    print(render(rows, args.fmt), end="")
    return 0


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Every subcommand, with the arguments of ``command`` only (of all if None):
    adding them is most of the build.  Handlers are looked up now, not at import."""
    parser = argparse.ArgumentParser(
        prog="ldlkit",
        description="Label-distribution learning with low-rank auxiliary multi-label structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        if command not in (None, name):          # its arguments are never read
            return argparse.Namespace(add_argument=lambda *args, **kwargs: None)
        p.set_defaults(func=func)
        return p

    p = add("synth", cmd_synth, "generate a synthetic dataset file")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, "fit a model on a full dataset")
    p.add_argument("dataset")
    p.add_argument("--model-out", required=True)
    _add_hp_flags(p)
    _add_common(p)

    p = add("predict", cmd_predict, "predict distributions for a dataset's features")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    p = add("evaluate", cmd_evaluate, "score a saved model on a dataset")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")

    p = add("cv", cmd_cv, "k-fold cross-validation, optionally with grid search")
    p.add_argument("dataset")
    p.add_argument("--variants", default="full",
                   help="comma list from full,ablation-a,ablation-b")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--grid", help="e.g. 'alpha=0.005,0.1;lambda=0.1,1'")
    _add_hp_flags(p)
    _add_common(p, variant=False)

    p = add("ablate", cmd_ablate, "compare full vs ablation variants")
    p.add_argument("dataset")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--holdout", type=float,
                   help="use a single holdout split of this fraction instead of k "
                   "folds; the std columns are then over its test instances")
    _add_hp_flags(p)
    _add_common(p, variant=False)

    p = add("degrade", cmd_degrade, "degrade distributions to a multi-label matrix")
    p.add_argument("dataset")
    p.add_argument("--degrade", dest="degrade_spec", default=str(HP_DEFAULT.degradation),
                   metavar="KIND:VALUE")
    p.add_argument("--out", help="write the binary matrix to this file")
    p.add_argument("--format", dest="fmt", choices=["csv", "md"], default="md")

    p = add("sweep", cmd_sweep, "metric-vs-value table for alpha or lambda")
    p.add_argument("dataset")
    p.add_argument("--param", choices=["alpha", "lambda"], required=True)
    p.add_argument("--values", help="comma list; defaults to the 7-point candidate set")
    p.add_argument("--folds", type=int, default=10)
    _add_hp_flags(p)
    _add_common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option values, so its first other word is the command.
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (LdlError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def entry() -> int:
    """``python -m ldlkit`` and the ``ldlkit`` script: :func:`main` on sys.argv,
    with the import-time heap frozen so no collection scans it again, and each
    warning printed as one ``warning:`` line.  It then flushes both streams
    and ends the process by ``os._exit``, skipping teardown and atexit, unless
    a flush fails or a tool hooks the interpreter (settrace, setprofile, -i,
    sys.monitoring).  :func:`main`, run in process, does none of this."""
    gc.freeze()
    warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except (OSError, ValueError):
        return code
    monitoring = getattr(sys, "monitoring", None)                 # Python 3.12+
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect or \
            monitoring and any(map(monitoring.get_tool, range(6))):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
