"""Workload definitions: the synthetic input of each workload and the CLI
commands one closed-loop pass runs on it.

Every workload ends with the same four commands (train, predict, evaluate,
degrade), so that their wall times are end-to-end metrics on all three input
shapes; the commands before them are what makes each workload distinct:

* ``cv_full``: n=500, d=20. ``cv`` of the full variant. The n x n O-step
  solve takes ~90% of fit time; import and parsing stay under 10%. Every
  fit converges (~34 iterations), none is capped.
* ``sweep_wide``: SJAFFE's shape, n=213, d=243. ``sweep`` over alpha and
  ``ablate``. d ~ n, so the W-step and O-step split fit time, and the
  alpha=1 fits stop at max_iters: ~80% of iterations fall in capped fits.
* ``large_n``: n=10000, d=50. Only the four common commands, with the
  ablation-a variant, so the full-variant O-step never runs. Time goes to
  import, parsing the 12 MB file, output formatting and the dual update.

The common ``train`` is plain ridge (ablation-b) on the two small inputs,
which keeps their fits those of the commands above. On ``large_n`` it runs
a fixed budget of 10 ablation-a iterations (a tolerance no fit reaches in
10): converging, that fit took 5 to 21 iterations depending on the seed,
which would make ``train_s`` measure the seed rather than the program.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Seed at which outputs are compared with ``reference.json``.
DEFAULT_SEED = 0
#: Seed kept out of tuning; a claimed gain is confirmed on it.
HELD_OUT_SEED = 7919
#: Inputs synthesized per run; passes take them in turn. Fits on different
#: inputs of one shape take different numbers of iterations (cv_full: 300 to
#: 367 over its ten folds), so one input per run would make the run-to-run
#: spread mostly a matter of which input the seed drew.
INPUTS = 3

COMMANDS = ("cv", "sweep", "ablate", "train", "predict", "evaluate", "degrade")


@dataclass(frozen=True)
class Workload:
    name: str
    synth: Tuple[Tuple[str, object], ...]
    head: Tuple[Tuple[str, Tuple[str, ...]], ...]
    train_variant: str
    train_args: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cv_full",
            (("n", 500), ("d", 20), ("m", 6), ("r", 2), ("noise", 0.1)),
            (("cv", ("--variants", "full", "--folds", "10")),),
            "ablation-b",
        ),
        Workload(
            "sweep_wide",
            (("n", 213), ("d", 243), ("m", 6), ("r", 2), ("noise", 0.1)),
            (
                ("sweep", ("--param", "alpha", "--values", "0.01,0.1,1", "--folds", "5")),
                ("ablate", ("--folds", "5")),
            ),
            "ablation-b",
        ),
        Workload(
            "large_n",
            (("n", 10000), ("d", 50), ("m", 10), ("r", 3), ("noise", 0.1)),
            (),
            "ablation-a",
            ("--max-iters", "10", "--tol", "1e-12"),
        ),
    )
}


@dataclass(frozen=True)
class Step:
    command: str
    argv: List[str]


@dataclass(frozen=True)
class Plan:
    """Concrete file paths and argument lists of one input of a workload."""

    workload: Workload
    seed: int
    index: int
    synth_seed: int
    fold_seed: int
    data: Path
    model: Path
    pred: Path
    labels: Path

    @property
    def shape(self) -> Dict[str, object]:
        return dict(self.workload.synth)

    def synth_argv(self) -> List[str]:
        argv = ["synth"]
        for key, value in self.workload.synth:
            argv += [f"--{key}", str(value)]
        return argv + ["--seed", str(self.synth_seed), "--out", str(self.data)]

    def steps(self) -> List[Step]:
        data, seed = str(self.data), ["--seed", str(self.fold_seed)]
        steps = [
            Step(cmd, [cmd, data, *args, "--format", "csv", *seed])
            for cmd, args in self.workload.head
        ]
        steps += [
            Step("train", ["train", data, "--variant", self.workload.train_variant,
                           *self.workload.train_args, "--model-out", str(self.model),
                           "--format", "csv", *seed]),
            Step("predict", ["predict", data, "--model", str(self.model),
                             "--out", str(self.pred)]),
            Step("evaluate", ["evaluate", data, "--model", str(self.model),
                              "--format", "csv"]),
            Step("degrade", ["degrade", data, "--out", str(self.labels),
                             "--format", "csv"]),
        ]
        return steps


def make_plans(name: str, seed: int, workdir: Path) -> List[Plan]:
    """One plan per input; the fold seed and each input's synth seed are
    derived from the workload seed."""
    fold_seed, *synth_seeds = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(1 + INPUTS))
    workdir.mkdir(parents=True, exist_ok=True)
    return [
        Plan(
            workload=WORKLOADS[name],
            seed=seed,
            index=i,
            synth_seed=synth_seed,
            fold_seed=fold_seed,
            data=workdir / f"data{i}.txt",
            model=workdir / "model.npz",
            pred=workdir / "pred.txt",
            labels=workdir / "labels.txt",
        )
        for i, synth_seed in enumerate(synth_seeds)
    ]
