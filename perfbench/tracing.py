"""Span recording around the public functions of each hpkernels module.

The recorder wraps functions from outside the package: every function
named in a module's ``__all__`` (at every import site inside the package),
plus a few methods of the basis and kernel classes.  Each call becomes one
span ``(name, start, end, parent, job, attrs)``; spans stay in memory until
the worker dumps them once at the end of a pass.  ``aggregate`` turns the
spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "weights_opuc", "kernels", "sampling", "ergodics",
          "infmeasures", "cli")

METHODS = {
    "weights_opuc": {"OPUCBasis": ("eval_all",), "MonicLineBasis": ("eval_all",)},
    "kernels": {"FiniteKernel": ("feature_matrix", "kernel_matrix", "rho1")},
}

DIAGONAL_EVALS = ("FiniteKernel.rho1", "weights_opuc.cd_sum_circle",
                  "kernels.eval_limit_kernel")

# ranks the montecarlo workload draws at; each gets its own throughput metric
DPP_RANKS = (4, 6, 8, 12, 21, 32, 64)


def _nrows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    try:
        return len(a)
    except TypeError:
        return 1


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def _attrs(name, args, kwargs, result):
    """Work counts of one call, read from its arguments and result."""
    if name == "specfun.bessel_j":
        return {"points": int(np.size(_arg(args, kwargs, 1, "x")))}
    if name in ("weights_opuc.build_opuc", "weights_opuc.build_monic_line"):
        key = (name,) + tuple(repr(a) for a in args)
        return {"n": int(result.degree_count), "key": "|".join(key),
                "gram": float(getattr(result, "gram_residual", 0.0))}
    if name in ("OPUCBasis.eval_all", "MonicLineBasis.eval_all"):
        return {"rows": _nrows(args[1]) * int(args[0].degree_count)}
    if name.startswith("FiniteKernel."):
        rows = _nrows(args[1])
        if name == "FiniteKernel.kernel_matrix":
            return {"rows": rows, "entries": rows * _nrows(args[2])}
        return {"rows": rows}
    if name == "kernels.limit_kernel_matrix":
        return {"rows": _nrows(args[1]), "entries": _nrows(args[1]) * _nrows(args[2])}
    if name == "kernels.eval_limit_kernel":
        k, x, y = args[0], float(args[1]), float(args[2])
        fd = abs(x - y) < k.h_diag * max(abs(x), abs(y))
        return {"rows": 1, "entries": 1, "fd": int(fd)}
    if name == "kernels.check_projection":
        res, bound = result
        return {"ratio": float(res / bound) if bound > 0 else math.inf}
    if name == "weights_opuc.cd_sum_circle":
        return {"rows": 1}
    if name == "sampling.sequential_projection_draws":
        Q = args[0]
        return {"draws": int(_arg(args, kwargs, 3, "n_draws")),
                "rank": int(Q.shape[1]), "grid": int(Q.shape[0])}
    if name == "sampling.mcmc_draws":
        stats = _arg(args, kwargs, 4, "stats")
        acc = stats.get("acceptance_rate") if stats else None
        return {"draws": int(_arg(args, kwargs, 3, "n_draws")),
                "acceptance": float(acc) if acc is not None else None}
    if name == "sampling.sample_hp_matrix_s0_batch":
        return {"draws": int(_arg(args, kwargs, 2, "n_draws"))}
    if name == "sampling.sample_hp_matrix_s0":
        return {"draws": 1}
    if name == "infmeasures.make_damped_grid":
        return {"nodes": int(result.size)}
    return None


class Tracer:
    """In-memory span recorder; ``job`` tags every span opened under it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self._undo: list = []

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.job, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[5] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> int:
        """Wrap every public function of ``modules`` (layer -> module) at
        every import site among them, and the methods in METHODS.
        Returns the number of wrapped names."""
        count = 0
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for site in modules.values():
                    if getattr(site, attr, None) is fn:
                        self._undo.append((site, attr, fn))
                        setattr(site, attr, wrapped)
                count += 1
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._undo.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(f"{cls_name}.{meth}", fn))
                    count += 1
        return count

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    if head in ("OPUCBasis", "MonicLineBasis"):
        return "weights_opuc"
    if head == "FiniteKernel":
        return "kernels"
    return head


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp[3] >= 0:
            children[sp[3]].append((sp[1], sp[2]))
    return [sp[2] - sp[1] - covered(children.get(i, ())) for i, sp in enumerate(spans)]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def aggregate(spans, job_wall_s: float, counters: dict) -> dict:
    """Per-layer metrics of one traced pass; ``counters`` holds what the
    jobs counted themselves (bytes written, exit codes, residuals)."""
    st = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for i, sp in enumerate(spans):
        by_name[sp[0]].append(i)
        layer_self[layer_of(sp[0])] += st[i]

    def self_of(*names):
        return sum(st[i] for n in names for i in by_name.get(n, ()))

    def dur_of(*names):
        return sum(spans[i][2] - spans[i][1] for n in names for i in by_name.get(n, ()))

    def attr_sum(key, *names):
        return sum((spans[i][5] or {}).get(key, 0) or 0
                   for n in names for i in by_name.get(n, ()))

    m = {}
    bessel = by_name.get("specfun.bessel_j", [])
    m["specfun.bessel_calls"] = len(bessel)
    m["specfun.bessel_points"] = attr_sum("points", "specfun.bessel_j")
    m["specfun.self_s"] = layer_self["specfun"]
    m["specfun.points_per_s"] = _rate(m["specfun.bessel_points"], self_of("specfun.bessel_j"))

    builds = ("weights_opuc.build_opuc", "weights_opuc.build_monic_line")
    build_idx = [i for n in builds for i in by_name.get(n, ())]
    m["weights_opuc.build_calls"] = len(build_idx)
    m["weights_opuc.build_distinct"] = len({spans[i][5]["key"] for i in build_idx})
    m["weights_opuc.build_s"] = self_of(*builds)
    slowest = max(build_idx, key=lambda i: st[i], default=None)
    m["weights_opuc.build_s_max"] = st[slowest] if slowest is not None else 0.0
    m["weights_opuc.build_max_n"] = spans[slowest][5]["n"] if slowest is not None else 0
    evals = ("OPUCBasis.eval_all", "MonicLineBasis.eval_all")
    m["weights_opuc.eval_pairs"] = attr_sum("rows", *evals)
    m["weights_opuc.eval_s"] = self_of(*evals)
    m["weights_opuc.eval_pairs_per_s"] = _rate(m["weights_opuc.eval_pairs"], m["weights_opuc.eval_s"])
    m["weights_opuc.gram_residual_max"] = max(
        ((spans[i][5] or {}).get("gram", 0.0) for i in build_idx), default=0.0)
    m["weights_opuc.self_s"] = layer_self["weights_opuc"]

    m["kernels.feature_rows"] = attr_sum("rows", "FiniteKernel.feature_matrix")
    m["kernels.feature_s"] = self_of("FiniteKernel.feature_matrix")
    m["kernels.kernel_entries"] = attr_sum("entries", "FiniteKernel.kernel_matrix")
    m["kernels.kernel_matrix_s"] = self_of("FiniteKernel.kernel_matrix")
    lim = ("kernels.limit_kernel_matrix", "kernels.eval_limit_kernel")
    m["kernels.limit_entries"] = attr_sum("entries", *lim)
    m["kernels.limit_s"] = self_of(*lim)
    m["kernels.limit_diag_fd"] = attr_sum("fd", "kernels.eval_limit_kernel")
    m["kernels.projection_checks"] = len(by_name.get("kernels.check_projection", []))
    m["kernels.projection_s"] = dur_of("kernels.check_projection")
    m["kernels.residual_to_bound_max"] = max(
        (spans[i][5]["ratio"] for i in by_name.get("kernels.check_projection", [])),
        default=0.0)
    m["kernels.self_s"] = layer_self["kernels"]

    draw_idx = by_name.get("sampling.sequential_projection_draws", [])
    m["sampling.dpp_draws"] = attr_sum("draws", "sampling.sequential_projection_draws")
    m["sampling.dpp_draw_s"] = self_of("sampling.sequential_projection_draws")
    for rank in DPP_RANKS:
        sel = [i for i in draw_idx if spans[i][5]["rank"] == rank]
        m[f"sampling.dpp_draws_per_s.N{rank}"] = _rate(
            sum(spans[i][5]["draws"] for i in sel), sum(st[i] for i in sel))
    m["sampling.grid_rows"] = sum(spans[i][5]["grid"] for i in draw_idx)
    m["sampling.grid_prep_s"] = self_of("sampling.sample_projection_dpp_batch")
    m["sampling.mcmc_draws"] = attr_sum("draws", "sampling.mcmc_draws")
    m["sampling.mcmc_s"] = dur_of("sampling.mcmc_draws")
    accs = [spans[i][5]["acceptance"] for i in by_name.get("sampling.mcmc_draws", [])
            if spans[i][5]["acceptance"] is not None]
    m["sampling.mcmc_acceptance"] = statistics.fmean(accs) if accs else 0.0
    mats = ("sampling.sample_hp_matrix_s0_batch", "sampling.sample_hp_matrix_s0")
    m["sampling.matrix_draws"] = attr_sum("draws", *mats)
    m["sampling.matrix_s"] = dur_of(*mats)
    m["sampling.archive_bytes"] = counters.get("archive_bytes", 0)
    m["sampling.archive_s"] = dur_of("sampling.write_sample_archive",
                                     "sampling.read_sample_archive")
    m["sampling.self_s"] = layer_self["sampling"]

    cells = ("ergodics.rho1_second_moment", "ergodics.circle_moment_JN",
             "ergodics.tail_mass", "ergodics.limit_tail_mass",
             "ergodics.variance_bound_check")
    n_cells = sum(len(by_name.get(n, ())) for n in cells)
    # quadrature nodes = diagonal evaluations made directly by a cell
    cell_idx = {i for n in cells for i in by_name.get(n, ())}
    nodes = sum((sp[5] or {}).get("rows", 0) for sp in spans
                if sp[3] in cell_idx and sp[0] in DIAGONAL_EVALS)
    m["ergodics.cells"] = n_cells
    m["ergodics.self_s"] = layer_self["ergodics"]
    m["ergodics.quad_nodes"] = nodes / n_cells if n_cells else 0.0
    m["ergodics.limit_tail_s"] = dur_of("ergodics.limit_tail_mass")

    m["infmeasures.grid_nodes"] = attr_sum("nodes", "infmeasures.make_damped_grid")
    m["infmeasures.projection_s"] = dur_of("infmeasures.damped_projection")
    damped = [i for i in draw_idx
              if spans[i][3] >= 0 and spans[spans[i][3]][0] == "infmeasures.sample_damped_dpp"]
    m["infmeasures.dpp_draws_per_s"] = _rate(
        sum(spans[i][5]["draws"] for i in damped), sum(st[i] for i in damped))
    m["infmeasures.idempotency_residual"] = counters.get("idempotency", 0.0)
    m["infmeasures.self_s"] = layer_self["infmeasures"]

    m["cli.commands"] = len(by_name.get("cli.main", []))
    m["cli.self_s"] = layer_self["cli"]
    m["cli.bytes_written"] = counters.get("cli_bytes", 0)
    m["cli.nonzero_exits"] = counters.get("cli_nonzero", 0)

    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / job_wall_s if job_wall_s > 0 else 0.0
    return m


def dump(spans, path: str) -> None:
    """Write spans as tab-separated lines: name, start, end, parent, job."""
    with open(path, "w", encoding="ascii") as f:
        for sp in spans:
            f.write(f"{sp[0]}\t{sp[1]:.9f}\t{sp[2]:.9f}\t{sp[3]}\t{sp[4]}\n")
