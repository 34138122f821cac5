#!/usr/bin/env python3
"""One-off scaling report, not gated: a full-variant fit on
``synth_lowrank(n, 20, 6, 2, 0.1, seed=0)`` at default hyperparameters, for
n in {200, 1000}, with one BLAS thread and with one per core.

    python3 bench/scaling.py

Each configuration is a single fit in a fresh process. It prints iterations,
fit time, ms per iteration and each ADMM step's self time per iteration, and
writes ``bench/out/SCALING.json``. n=2000 is left out: it takes ~24 s with one
thread, and n=5000 would take minutes.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SIZES = (200, 1000)
STEPS = ("update_g", "svt", "update_w", "update_o", "update_multipliers")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fit_once(n: int) -> dict:
    sys.path.insert(0, str(SRC))
    import ldlkit
    from tracing import Tracer, layer_metrics

    ds = ldlkit.synth_lowrank(n, 20, 6, 2, 0.1, seed=0)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        res = ldlkit.fit(ds.X, ds.D)
        wall = time.perf_counter() - start
    layers = layer_metrics(tracer.spans)
    iters = res.iterations_run
    return {
        "n": n, "fit_s": wall, "iterations": iters, "converged": bool(res.converged),
        "ms_per_iter": 1e3 * wall / iters,
        "step_ms_per_iter": {s: 1e3 * layers[f"solver.{s}.self_s"] / iters for s in STEPS},
    }


def main() -> int:
    threads = sorted({1, os.cpu_count() or 1})
    rows = []
    for n in SIZES:
        for t in threads:
            env = {**os.environ, **{v: str(t) for v in THREAD_VARS}}
            out = subprocess.run([sys.executable, __file__, "--fit", str(n)], env=env,
                                 capture_output=True, text=True, check=True, timeout=300)
            row = {"threads": t, **json.loads(out.stdout)}
            rows.append(row)
            steps = " ".join(f"{s}={v:.2f}" for s, v in row["step_ms_per_iter"].items())
            print(f"n={n:<5} threads={t} fit={row['fit_s']:.3f} s iterations={row['iterations']} "
                  f"{row['ms_per_iter']:.2f} ms/iter; per-step ms/iter: {steps}")
    print("ROADMAP's baseline row of 1.33 s at n=200 was measured with the default "
          "BLAS threading (2 threads on 2 cores).")
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "SCALING.json", "w", encoding="utf-8") as fh:
        json.dump({"nproc": os.cpu_count(), "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--fit"]:
        print(json.dumps(fit_once(int(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
