#!/usr/bin/env python3
"""Self-test of the output checker: correct outputs pass, and each kind of
corrupted output is counted as at least one failed command.

    python3 bench/selftest.py

Runs the real CLI in this process on a small synthetic input, then replays
its outputs through the checker, first as produced and then corrupted one
way at a time. Exits 1 if a corruption goes uncounted or a correct output
fails.
"""
import sys
from dataclasses import replace
from pathlib import Path

from check import Checker, check_synth
from run import OUT, SRC, Outcome, Tally, run_in_process
from workloads import Workload, make_plans

SMALL = Workload(
    "selftest",
    (("n", 40), ("d", 5), ("m", 4), ("r", 2), ("noise", 0.1)),
    (("cv", ("--variants", "full", "--folds", "3")),),
    "full",
)


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _replace_mean(stdout: str, metric: str, factor: float) -> str:
    out = []
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 5 and parts[2] == metric:
            parts[3] = repr(float(parts[3]) * factor)
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def replay(plan, outputs, reference=None, edit_files=None) -> int:
    """Check recorded outputs; return the number of failed commands."""
    tally = Tally()
    checker = Checker(plan, reference)
    for step, o in outputs:
        if edit_files is not None and step.command in edit_files:
            edit_files[step.command]()
        tally.record(step.command, lambda: checker.check(step, o.rc, o.stdout))
    return len(tally.failures)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from ldlkit import cli

    plan = replace(make_plans("cv_full", 3, OUT / "work" / "selftest")[0], workload=SMALL)
    o = run_in_process(cli, plan.synth_argv())
    check_synth(plan, o.rc, o.stdout)
    outputs = [(step, run_in_process(cli, step.argv)) for step in plan.steps()]
    pred_text = plan.pred.read_text(encoding="utf-8")
    labels_text = plan.labels.read_text(encoding="utf-8")

    def restore():
        plan.pred.write_text(pred_text, encoding="utf-8")
        plan.labels.write_text(labels_text, encoding="utf-8")

    def with_stdout(command, edit):
        return [(s, Outcome(o.wall, o.rc, edit(o.stdout), o.stderr) if s.command == command
                 else o) for s, o in outputs]

    def with_rc(command, rc):
        return [(s, Outcome(o.wall, rc, o.stdout, o.stderr) if s.command == command else o)
                for s, o in outputs]

    def shift_prediction(lines):
        vals = [float(v) for v in lines[0].split()]
        vals[0] += 1e-6
        lines[0] = " ".join(repr(v) for v in vals)

    def negative_prediction(lines):
        vals = [float(v) for v in lines[0].split()]
        vals[0], vals[1] = -vals[0], vals[1] + 2 * vals[0]
        lines[0] = " ".join(repr(v) for v in vals)

    def empty_label_row(lines):
        lines[1] = " ".join("0" for _ in lines[1].split())

    def non_binary_label(lines):
        lines[1] = "2" + lines[1][1:]

    clean = Checker(plan)
    for step, o in outputs:
        clean.check(step, o.rc, o.stdout)
    off_reference = dict(clean.means)
    off_reference["cv/full/kl"] *= 1 + 1e-3

    cases = [
        ("command exits nonzero", with_rc("train", 1), None, None),
        ("NaN in a cv mean", with_stdout("cv", lambda s: _replace_mean(s, "kl", float("nan"))),
         None, None),
        ("cv table missing a row", with_stdout("cv", lambda s: "".join(
            s.splitlines(keepends=True)[:-1])), None, None),
        ("predicted column sums to 1+1e-6", outputs, None,
         {"predict": lambda: _rewrite(plan.pred, shift_prediction)}),
        ("negative predicted entry", outputs, None,
         {"predict": lambda: _rewrite(plan.pred, negative_prediction)}),
        ("evaluate mean off by 1%", with_stdout("evaluate",
                                                lambda s: _replace_mean(s, "cosine", 1.01)),
         None, None),
        ("degrade row with no label", outputs, None,
         {"degrade": lambda: _rewrite(plan.labels, empty_label_row)}),
        ("degrade entry not binary", outputs, None,
         {"degrade": lambda: _rewrite(plan.labels, non_binary_label)}),
        ("mean 1e-3 from its reference", outputs, off_reference, None),
    ]
    ok = True
    failed = replay(plan, outputs, reference=clean.means)
    print(f"{'correct outputs':<34} failed={failed} (want 0)")
    ok &= failed == 0
    for label, outs, reference, edits in cases:
        restore()
        failed = replay(plan, outs, reference, edits)
        print(f"{label:<34} failed={failed} (want at least 1)")
        ok &= failed >= 1
    restore()
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
