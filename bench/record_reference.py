#!/usr/bin/env python3
"""Record ``reference.json``: every mean each workload's commands report at
the default seed, with the invariant checks applied.

    python3 bench/record_reference.py

Run it again only when a change to the program is meant to change these
numbers, and say so in the change's notes.
"""
import json
import sys
import time

from check import REFERENCE_FILE, Checker, check_synth
from run import OUT, RUN_BUDGET_S, cli_env, run_subprocess
from workloads import DEFAULT_SEED, WORKLOADS, make_plans


def main() -> int:
    env = cli_env()
    python = [sys.executable, "-m", "ldlkit"]
    reference = {}
    for name in WORKLOADS:
        reference[name] = {}
        for plan in make_plans(name, DEFAULT_SEED, OUT / "work" / name):
            o = run_subprocess(python + plan.synth_argv(), env, RUN_BUDGET_S)
            check_synth(plan, o.rc, o.stdout)
            checker = Checker(plan)
            for step in plan.steps():
                start = time.perf_counter()
                o = run_subprocess(python + step.argv, env, RUN_BUDGET_S)
                checker.check(step, o.rc, o.stdout)
                print(f"{name} input {plan.index} {step.command}: "
                      f"{time.perf_counter() - start:.2f} s")
            reference[name][str(plan.index)] = checker.means
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
