#!/usr/bin/env python3
"""Benchmark of the ldlkit command-line tool.

    python3 bench/run.py --workload cv_full --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` each CLI command runs as a subprocess, one at a
time in a closed loop (a command starts when the previous one exits), and
the end-to-end metrics are wall times, peak RSS and the share of commands
that passed their output checks. With ``--trace 1`` the same commands run
in this process with every public function of each module wrapped, and the
metrics are per-layer counts and times (see ``tracing.py``). Every command's
output is checked (see ``check.py``).

Wall times vary by a third within a minute on a shared host, and the same
slowdown shows in a short probe of interpreted and BLAS work. So each
end-to-end time is reported scaled to the host's speed: the command's wall
time times ``CAL_REF_S`` over the probe time measured just before and just
after it. The raw wall times are kept in the full record as ``raw.*``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. A fuller record, with every sample
and the host's library versions, goes to ``bench/out/BENCH_*.json`` and the
spans of a traced run to ``bench/out/trace_*.jsonl``.
"""
import os

# One BLAS/OpenMP thread, set before numpy is first imported, for this
# process and every command it starts: with two threads on two cores,
# identical fits varied by a factor of five between runs.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from check import Checker, check_exit, check_synth, load_reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Plan, make_plans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
IMPORT_REPEATS = 3
# Nominal probe time, the scale of the end-to-end times; on a 2-core x86
# host the probe takes 15-21 ms.
CAL_REF_S = 0.02
# Stop starting passes once one more could end past this many seconds, so
# that a run exits well within its 180-second limit.
RUN_BUDGET_S = 150.0


@dataclass
class Outcome:
    wall: float
    rc: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0
    cal_s: float = CAL_REF_S

    @property
    def scaled(self) -> float:
        """Wall time scaled to a host whose speed probe takes CAL_REF_S."""
        return self.wall * CAL_REF_S / self.cal_s


class SpeedProbe:
    """A fixed mix of float parsing, interpreted arithmetic and BLAS work,
    the kinds of work the commands do; its time tracks the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._text = " ".join(repr(float(v)) for v in rng.standard_normal(20000))
        M = rng.standard_normal((300, 300))
        self._spd = M @ M.T + 300 * np.eye(300)

    def _once(self) -> float:
        start = time.perf_counter()
        values = [float(v) for v in self._text.split()]
        sum(v * v for v in values)
        for _ in range(3):
            np.linalg.cholesky(self._spd)
            self._spd @ self._spd
        return time.perf_counter() - start

    def measure(self) -> float:
        return median(self._once() for _ in range(3))


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, check: Callable[[], None]) -> None:
        self.attempted += 1
        try:
            check()
        except Exception as exc:  # any error while checking is a failed command
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


def cli_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_subprocess(cmd: List[str], env: Dict[str, str], timeout: float) -> Outcome:
    """Run ``cmd`` to completion; wall time from start to reap, and its peak RSS."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, proc.returncode, out.read().decode(), err.read().decode(),
                       usage.ru_maxrss / 1024.0)


def run_in_process(cli, argv: List[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed command, like a traceback would be
            traceback.print_exc()
            rc = 1
    return Outcome(time.perf_counter() - start, rc, out.getvalue(), err.getvalue())


def _room_for_pass(t0: float, last_pass_s: float) -> bool:
    return time.perf_counter() - t0 + 1.5 * last_pass_s < RUN_BUDGET_S


def _checker(plan: Plan) -> Checker:
    return Checker(plan, load_reference(plan) if plan.seed == DEFAULT_SEED else None)


def measure_subprocesses(plans: List[Plan], seconds: float, tally: Tally, t0: float):
    """Closed loop over the workload's commands, each a fresh process; pass
    k runs on input k mod len(plans)."""
    env = cli_env()
    python = [sys.executable, "-m", "ldlkit"]
    probe = SpeedProbe()
    before = probe.measure()

    def run(argv):
        nonlocal before
        o = run_subprocess(python + argv, env, RUN_BUDGET_S + 20 - (time.perf_counter() - t0))
        after = probe.measure()
        o.cal_s = (before + after) / 2
        before = after
        return o

    setup = []
    for plan in plans:
        o = run(plan.synth_argv())
        tally.record(f"setup {plan.index}", lambda: check_synth(plan, o.rc, o.stdout))
        setup.append(o)
    checkers = [_checker(plan) for plan in plans]
    passes: List[Dict[str, Outcome]] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or (time.perf_counter() - start < seconds and _room_for_pass(t0, last)):
        pass_start = time.perf_counter()
        checker = checkers[len(passes) % len(plans)]
        sample = {}
        for step in checker.plan.steps():
            o = run(step.argv)
            tally.record(f"pass {len(passes)} {step.command}",
                         lambda: checker.check(step, o.rc, o.stdout))
            sample[step.command] = o
        passes.append(sample)
        last = time.perf_counter() - pass_start

    metrics = {"peak_rss_mb": median([max(o.rss_mb for o in p.values()) for p in passes])}
    for prefix, time_of in (("", lambda o: o.scaled), ("raw.", lambda o: o.wall)):
        metrics[f"{prefix}pass_s"] = median([sum(map(time_of, p.values())) for p in passes])
        metrics[f"{prefix}setup_s"] = median([time_of(o) for o in setup])
        for cmd in passes[0]:
            metrics[f"{prefix}{cmd}_s"] = median([time_of(p[cmd]) for p in passes])
    samples = {
        "setup": [{"wall_s": o.wall, "probe_s": o.cal_s} for o in setup],
        "passes": [{cmd: {"wall_s": o.wall, "probe_s": o.cal_s, "rss_mb": o.rss_mb}
                    for cmd, o in p.items()} for p in passes],
    }
    return metrics, samples


def measure_traced(plans: List[Plan], seconds: float, tally: Tally, t0: float):
    """Pairs of passes in this process, untraced then traced, on one input
    per pair; per-layer metrics are medians over the traced passes."""
    timed_import = ("import time; t = time.perf_counter(); import ldlkit; "
                    "print(time.perf_counter() - t)")
    imports = []
    for i in range(IMPORT_REPEATS):
        o = run_subprocess([sys.executable, "-c", timed_import], cli_env(), 60.0)
        tally.record(f"import {i}", lambda: check_exit(o.rc, o.stderr))
        imports.append(float(o.stdout) if o.rc == 0 else float("nan"))

    sys.path.insert(0, str(SRC))
    from ldlkit import cli

    tracer = Tracer()
    saves = []
    for plan in plans:
        first = len(tracer.spans)
        tracer.trace_id += 1
        with tracer.installed():
            o = run_in_process(cli, plan.synth_argv())
        tally.record(f"setup {plan.index}", lambda: check_synth(plan, o.rc, o.stdout))
        saves.append(sum(s["end"] - s["start"] for s in tracer.spans[first:]
                         if s["name"] == "data.save_dataset"))
    checkers = [_checker(plan) for plan in plans]

    plain: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    start = time.perf_counter()
    last = 0.0
    while not traced or not plain or (time.perf_counter() - start < seconds
                                      and _room_for_pass(t0, last)):
        pass_start = time.perf_counter()
        use_trace = len(traced) < len(plain)
        checker = checkers[len(traced) % len(plans)]
        first = len(tracer.spans)
        wall = 0.0
        for step in checker.plan.steps():
            tracer.trace_id += 1
            with tracer.installed() if use_trace else nullcontext():
                o = run_in_process(cli, step.argv)
            wall += o.wall
            tally.record(f"{'traced' if use_trace else 'plain'} {step.command}",
                         lambda: checker.check(step, o.rc, o.stdout))
        if use_trace:
            traced.append(wall)
            layers.append(layer_metrics(tracer.spans[first:]))
        else:
            plain.append(wall)
        last = time.perf_counter() - pass_start
    tracer.write(OUT / f"trace_{plans[0].workload.name}_seed{plans[0].seed}.jsonl")

    metrics = {key: median([sample[key] for sample in layers]) for key in layers[0]}
    metrics["cli.import_s"] = median(imports)
    metrics["data.save_dataset.s"] = median(saves)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    samples = {"import_s": imports, "save_dataset_s": saves,
               "traced_pass_s": traced, "plain_pass_s": plain, "layers": layers}
    return metrics, samples


def host_info() -> dict:
    import scipy

    def blas(mod):
        dep = mod.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ldlkit" / "__init__.py").is_file():
        print(f"error: no ldlkit source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    plans = make_plans(args.workload, args.seed, OUT / "work" / args.workload)
    tally = Tally()
    measure = measure_traced if args.trace else measure_subprocesses
    metrics, samples = measure(plans, args.seconds, tally, t0)
    failed = len(tally.failures)
    metrics["fail_ratio"] = failed / tally.attempted
    metrics["pass_ratio"] = 1.0 - metrics["fail_ratio"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({f"{c}_s": "s" for c in ("cv", "sweep", "ablate")}, fail_ratio="ratio")
    units.update({k: "s" for k in metrics if k.startswith("raw.")})
    for name, value in metrics.items():
        note = " (computed from shapes)" if name.endswith(".gflop") else ""
        print(f"{args.workload:<11} {name:<40} {value:>12.6g} {units.get(name, '')}{note}")
    for failure in tally.failures:
        print(f"FAILED {failure}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "synth_seeds": [p.synth_seed for p in plans], "fold_seed": plans[0].fold_seed,
        "trace": args.trace, "seconds": args.seconds,
        "host": host_info(), "attempted": tally.attempted, "failed": failed,
        "failures": tally.failures, "metrics": metrics, "units": units, "samples": samples,
    }
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
