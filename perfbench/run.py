"""hpkernels benchmark: one command, one workload, closed loop.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs the workload's job list
back to back; each pass of the list runs in a fresh interpreter (so the
module caches start empty, as they do for every ``hpk`` call) with its own
``HPK_DATA_DIR``, and passes repeat until ``--seconds`` is used up.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` one untraced pass is followed by traced passes and it prints
the per-layer metrics.  The last line of standard output is one JSON
object; the full report (provenance, job digests, p-values, layer shares)
goes to ``.perfbench_out/<workload>-seed<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("montecarlo", "moments", "limit")
PASS_TIMEOUT_S = 150.0
MIN_PASSES = 3  # medians need three; with --trace 1 the first is the untraced one
BLAS_THREADS = 1  # one client, one BLAS thread: steadier on a shared machine than nproc


def tail_latency(values):
    """Highest-percentile sample with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten or fewer samples
    no percentile qualifies, and the maximum is returned with none beyond."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, 0
    idx = n - 11
    return v[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _metric_spec(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)[kind]


def run_pass(workload, seed, trace, smoke, run_dir, index):
    """One fresh-interpreter pass; returns its result dict or raises."""
    data_dir = tempfile.mkdtemp(prefix=f"pass{index}-", dir=run_dir)
    result_path = os.path.join(run_dir, f"pass{index}.json")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PERFBENCH_SRC": SRC,
        "HPK_DATA_DIR": data_dir,
        "TMPDIR": data_dir,
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
    })
    try:
        spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
             str(int(trace)), str(int(smoke)), repr(spawn), result_path],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def run_passes(args, run_dir):
    """Untraced (and, with --trace 1, traced) passes until time is used up."""
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) > 0
        res = run_pass(args.workload, args.seed, traced, args.smoke, run_dir, len(passes))
        res["traced"] = traced
        passes.append(res)
        elapsed = time.perf_counter() - t0
        mean = elapsed / len(passes)
        if args.smoke and len(passes) >= 1 + args.trace:
            break
        if len(passes) >= MIN_PASSES and elapsed + 0.5 * mean > args.seconds:
            break
    return passes


def end_to_end(passes):
    # job latencies of the first MIN_PASSES passes: a fixed sample count keeps
    # the tail percentile on the same jobs however many passes fit
    lat = [j["s"] for p in passes[:MIN_PASSES] for j in p["jobs"]]
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "job_p50_s": _median(lat),
        "job_tail_s": tail,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }
    notes = {"job_tail_percentile": pct, "job_tail_beyond": beyond, "job_samples": len(lat)}
    return metrics, notes


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    names = traced[0]["layers"].keys()
    metrics = {}
    for k in names:
        vals = [p["layers"][k] for p in traced]
        # counts repeat exactly; keep them whole numbers
        metrics[k] = vals[0] if len(set(vals)) == 1 else _median(vals)
    metrics["process.cpu_s"] = _median([p["cpu_s"] for p in traced])
    metrics["process.tracing_overhead_s"] = (
        _median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in plain]))
    counts_repeat = all(
        p["layers"][k] == traced[0]["layers"][k]
        for p in traced for k in names if isinstance(traced[0]["layers"][k], int))
    return metrics, {"counts_repeat_across_passes": counts_repeat,
                     "spans_per_pass": traced[0]["n_spans"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of the first job only (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    # a terminated benchmark still kills and reaps its worker (subprocess.run does
    # that on any exception, SystemExit included)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "hpkernels", "__init__.py")):
        print(f"no hpkernels sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("seed must be non-negative", file=sys.stderr)
        return 2
    spec = _metric_spec("per_layer" if args.trace else "end_to_end")

    run_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        passes = run_passes(args, run_dir)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    metrics, notes = per_layer(passes) if args.trace else end_to_end(passes)
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 3
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not j["ok"] for p in passes for j in p["jobs"])
    first = passes[0]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "notes": notes, "machine": first["machine"],
        "alpha_each": first["alpha_each"], "metrics": metrics,
        "jobs": [{k: j[k] for k in ("name", "ok", "error", "p", "digest")} for j in first["jobs"]],
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} jobs, {failed} failed "
          f"(fail_frac {failed / attempted:.4g})")
    print("  machine: " + ", ".join(f"{k} {v}" for k, v in first["machine"].items()))
    for k, v in notes.items():
        print(f"  {k}: {v}")
    for m in spec:
        print(f"  {m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    for i, p in enumerate(passes):
        for j in p["jobs"]:
            if not j["ok"]:
                print(f"  FAILED pass {i} {j['name']}: {j['error']}")
    print(f"  report: {os.path.relpath(os.path.join(run_dir, 'report.json'), ROOT)}")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in spec}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
