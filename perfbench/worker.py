"""One pass of a workload in a fresh interpreter.

Usage (started by run.py, not by hand):
    python3 worker.py <workload> <seed> <trace 0|1> <smoke 0|1> <spawn_time> <result.json>

Imports the seven hpkernels modules (set-up time is measured from the
parent's spawn time, on the shared monotonic clock), optionally installs
the span recorder, runs the job list once and writes one JSON result.
Every job failure is caught, counted and reported; the pass goes on.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

MODULES = ("specfun", "weights_opuc", "kernels", "sampling", "ergodics",
           "infmeasures", "cli")


def _digest(out) -> str:
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(out, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _machine() -> dict:
    import platform

    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv) -> int:
    workload, seed, trace, smoke, spawn_time, result_path = argv
    mods = {name: importlib.import_module(f"hpkernels.{name}") for name in MODULES}
    setup_s = time.perf_counter() - float(spawn_time)
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.realpath(mods["cli"].__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"hpkernels imported from {mods['cli'].__file__}, not from {src}", file=sys.stderr)
        return 2

    import jobs as joblist
    import tracing

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracer.install(mods)

    job_list = joblist.build(workload, int(seed), smoke == "1")
    n_stat = sum(j.statistical for j in job_list)
    ctx = joblist.Ctx(data_dir=os.environ["HPK_DATA_DIR"],
                      alpha=joblist.FAMILY_ALPHA / max(n_stat, 1))
    records = []
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    for idx, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = idx
        rec = {"name": job.name, "ok": True, "error": None, "p": None, "digest": None}
        t0 = time.perf_counter()
        try:
            res = job.fn(ctx)
        except Exception as exc:  # every failure is counted and the pass goes on
            rec["s"] = time.perf_counter() - t0
            rec["ok"] = False
            rec["error"] = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            rec["s"] = time.perf_counter() - t0
            rec["p"] = res.get("p")
            rec["digest"] = _digest(res["out"])
        records.append(rec)
    wall_s = time.perf_counter() - t_start
    cpu_s = time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
        "n_statistical": n_stat,
        "alpha_each": ctx.alpha,
        "machine": _machine(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.aggregate(tracer.spans, wall_s, ctx.counters)
        result["n_spans"] = len(tracer.spans)
        tracing.dump(tracer.spans, result_path + ".spans.tsv")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
