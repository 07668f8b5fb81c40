"""Tests of the benchmark itself: span arithmetic, the tail rule, the
wrapper installer, and a smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_of_nested_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child
    # [6, 8]; an overlapping sibling pair under one parent counts once
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("kernels.check_projection", 1.0, 4.0, 0),
        _span("kernels.check_projection", 5.0, 9.0, 0),
        _span("specfun.bessel_j", 6.0, 8.0, 2),
        _span("specfun.bessel_j", 2.0, 3.0, 1),
        _span("specfun.bessel_j", 2.5, 3.5, 1),
    ]
    st = tracing.self_times(spans)
    assert st == pytest.approx([3.0, 1.5, 2.0, 2.0, 1.0, 1.0])


def test_covered_merges_overlaps():
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.covered([]) == 0.0


def test_layer_shares_from_aggregate():
    spans = [
        _span("ergodics.variance_bound_check", 0.0, 4.0, -1),
        _span("FiniteKernel.kernel_matrix", 1.0, 3.0, 0),
        _span("OPUCBasis.eval_all", 1.5, 2.0, 1),
        _span("FiniteKernel.rho1", 3.0, 3.5, 0),
    ]
    spans[1][5] = {"rows": 10, "entries": 100}
    spans[2][5] = {"rows": 40}
    spans[3][5] = {"rows": 10}
    m = tracing.aggregate(spans, 5.0, {})
    assert m["ergodics.share"] == pytest.approx(1.5 / 5.0)
    assert m["kernels.share"] == pytest.approx(2.0 / 5.0)
    assert m["weights_opuc.share"] == pytest.approx(0.5 / 5.0)
    assert m["kernels.kernel_entries"] == 100
    assert m["ergodics.cells"] == 1
    assert m["ergodics.quad_nodes"] == 10  # diagonal evaluations only


@pytest.mark.parametrize("n,idx,pct", [(11, 0, 100 / 11), (100, 89, 90.0), (250, 239, 96.0)])
def test_tail_has_ten_beyond(n, idx, pct):
    values = [float(i) for i in range(n)][::-1]
    value, percentile, beyond = run.tail_latency(values)
    assert value == float(idx)
    assert beyond == 10
    assert percentile == pytest.approx(pct)
    assert sum(v > value for v in values) == 10


def test_tail_with_few_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_installer_wraps_every_import_site_and_restores():
    def f(x):
        return g(x) + 1

    def g(x):
        return 2 * x

    home = types.ModuleType("home")
    home.__all__ = ["f", "g"]
    home.f, home.g = f, g
    user = types.ModuleType("user")
    user.g = g
    tr = tracing.Tracer()
    assert tr.install({"specfun": home, "cli": user}) == 2
    assert user.g is home.g and user.g is not g
    tr.job = 7
    assert home.f(3) == 7 and user.g(1) == 2
    names = [sp[0] for sp in tr.spans]
    assert names == ["specfun.f", "specfun.g"]
    assert tr.spans[0][4] == 7 and tr.spans[1][3] == -1  # f reaches g by closure, not through the module
    tr.uninstall()
    assert home.f is f and user.g is g


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_exactly_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in ("run.py", "worker.py", "jobs.py", "tracing.py"):
        with open(os.path.join(BENCH, name), "rb") as src, \
                open(tmp_path / "perfbench" / name, "wb") as dst:
            dst.write(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src, \
            open(tmp_path / "BENCHMARK.json", "wb") as dst:
        dst.write(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
