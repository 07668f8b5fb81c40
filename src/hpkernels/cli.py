"""Batch command-line front end.

Four commands: `check` runs a module's invariant suite and reports each
check as value/bound/pass; `table` tabulates kernels, weights, V-functions
or circle polynomials to CSV; `sample` runs a sampler into a replayable
archive; `experiment` drives the decomposition and tail studies into JSON
reports.  Every run is deterministic given its RunSpec, every artifact
carries the RunSpec as provenance, and exit codes are machine-checkable:
0 pass, 1 failed checks or runtime failure, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeError,
    DiscretizationWarning,
    DomainError,
    GridTooCoarse,
    MomentDivergence,
    NearSingular,
    PoleError,
    QuadFailure,
    SingularCayley,
)
from .specfun import bessel_j, gamma_fn, jsq_over_t_integral
from .weights_opuc import (
    HPParam,
    build_monic_line,
    build_opuc,
    cd_identity_residual,
    eval_line_weight,
    top_log_gammas,
)
from .kernels import (
    _PROJECTION_S_MIN,
    LimitKernel,
    VFunction,
    _finite_recurrence_residuals,
    build_finite_kernel,
    check_limit_recurrence,
    check_projection,
    eval_V,
    eval_limit_kernel,
    log_v_norm_sq,
    phi_n_matrix,
)
from .sampling import (
    Configuration,
    SamplerConfig,
    mcmc_draws,
    read_sample_sidecar,
    sample_projection_dpp_batch,
    write_sample_archive,
)
from .ergodics import rho1_second_moment, tail_mass, variance_bound_check
from .ergodics import gamma1_balance_experiment
from .infmeasures import (
    VBasis,
    contraction_norm,
    damped_projection,
    eval_v_basis,
    growth_certificate,
    make_damped_grid,
    tail_growth_slope,
)

__all__ = ["RunSpec", "main"]

_RUNTIME_ERRORS = (
    PoleError,
    DomainError,
    MomentDivergence,
    DegreeError,
    GridTooCoarse,
    NearSingular,
    SingularCayley,
    QuadFailure,
    OverflowError,
    MemoryError,
    np.linalg.LinAlgError,
)


class SpecError(ValueError):
    """Invalid RunSpec: bad flag value, unknown config key, precondition."""


@dataclass(frozen=True)
class RunSpec:
    """Resolved parameters of one command invocation.

    Built by merging flags over config-file entries over defaults; output
    plumbing (out/config/replay paths, jobs) is excluded from provenance so
    identical computations stamp identical artifacts.
    """

    command: str
    params: dict

    def provenance(self) -> str:
        skip = {"out", "config", "replay", "jobs"}
        parts = []
        for k in sorted(self.params):
            v = self.params[k]
            if k in skip or v is None:
                continue
            parts.append(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}")
        return self.command + " " + " ".join(parts)


def _fmt17(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ---------------------------------------------------------------------------
# RunSpec assembly

# per-command parameter tables: name -> (caster, default).  The parser is
# built from them: suite, kind and name are positional, every other name
# x_y is the flag --x-y (and the config key x_y).
_COMMON = {
    "jobs": (int, 1),
    "out": (str, None),
    "config": (str, None),
}

_PARAMS = {
    "check": {
        "suite": (str, None),
        "s": (float, 0.0),
        "N": (int, 8),
        **_COMMON,
    },
    "table": {
        "kind": (str, None),
        "s": (float, 0.0),
        "N": (int, 8),
        "n": (int, 4),
        "grid": (str, "0.2:3:20"),
        **_COMMON,
    },
    "sample": {
        "s": (float, 0.0),
        "N": (int, 4),
        "method": (str, "spectral"),
        "draws": (int, 100),
        "seed": (int, 0),
        "burn_in": (int, 2000),
        "thinning": (int, 10),
        "chains": (int, 32),
        "step_scale": (float, 0.5),
        "replay": (str, None),
        **_COMMON,
    },
    "experiment": {
        "name": (str, None),
        "s": (float, 0.0),
        "eps": (float, 0.2),
        "sigma": (float, 1.0),
        "sprime": (float, 0.5),
        "M": (int, 64),
        "draws": (int, 60),
        "seed": (int, 0),
        **_COMMON,
    },
}

# what each run reads besides jobs, out, config and its positional, by
# command and by suite, kind, experiment name (the positional's choices, in
# --help order) or sampling mode; a flag or config key outside its run's
# entry is refused
_SAMPLE_READS = ("s", "N", "method", "draws", "seed")
_READS = {
    "check": {"infinite": (), "kernels": ("s", "N"), "opuc": ("s", "N"), "specfun": ()},
    "table": {"kernel": ("s", "N", "grid"), "weight": ("s", "N", "grid"),
              "vfunction": ("s", "grid"), "phi_n": ("s", "n", "grid")},
    "sample": {"spectral": _SAMPLE_READS,
               "mcmc": (*_SAMPLE_READS, "burn_in", "thinning", "chains", "step_scale"),
               "replay": ("replay",)},
    "experiment": {"contraction": ("sprime", "sigma"), "gamma1": ("M", "draws", "seed"),
                   "gamma2": ("s",), "tails": ("s",), "variance": ("s", "eps")},
}
_POSITIONAL = {"check": "suite", "table": "kind", "experiment": "name"}


def _run_of(command: str, p: dict) -> str:
    """The _READS entry of a run: its positional, or the sampling mode."""
    if command != "sample":
        return p[_POSITIONAL[command]]
    if p["replay"] is not None:
        return "replay"
    return "mcmc" if p["method"] == "mcmc" else "spectral"


def _read_config(path: str) -> dict:
    kv = {}
    try:
        with io.open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{ln}: expected key=value")
                k, v = line.split("=", 1)
                kv[k.strip()] = v.strip()
    except OSError as e:
        raise SpecError(f"cannot read config {path}: {e}") from e
    return kv


def _merge_runspec(args: argparse.Namespace) -> RunSpec:
    command = args.command
    table = _PARAMS[command]
    params = {}
    file_kv = {}
    if getattr(args, "config", None):
        file_kv = _read_config(args.config)
        unknown = set(file_kv) - set(table)
        if unknown:
            raise SpecError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for name, (cast, default) in table.items():
        flag = getattr(args, name, None)
        if flag is not None:
            params[name] = flag
        elif name in file_kv:
            try:
                params[name] = cast(file_kv[name])
            except ValueError as e:
                raise SpecError(f"config key {name}: {e}") from e
        else:
            params[name] = default
    run = _run_of(command, params)
    reads = {_POSITIONAL.get(command), *_COMMON, *_READS[command][run]}
    unread = [n for n in table
              if n not in reads and (getattr(args, n, None) is not None or n in file_kv)]
    if unread:
        raise SpecError(f"{command} {run} takes no {', '.join(unread)}")
    return RunSpec(command, params)


# the kernel and phi_n tables form a count x count complex matrix; a grid
# whose matrix would take more bytes than this is refused before any work
_TABLE_BYTES = 1 << 28


def _parse_grid(spec: str, square: bool = False) -> np.ndarray:
    try:
        a_s, b_s, n_s = spec.split(":")
        a, b, count = float(a_s), float(b_s), int(n_s)
    except ValueError as e:
        raise SpecError(f"grid must be 'a:b:count', got {spec!r}") from e
    if not (math.isfinite(a) and math.isfinite(b)):
        raise SpecError("grid ends must be finite")
    if count < 2 or not a < b:
        raise SpecError("grid needs a < b and count >= 2")
    nbytes = count * count * np.dtype(complex).itemsize
    if square and nbytes > _TABLE_BYTES:
        raise SpecError(f"a {count} x {count} table takes {nbytes >> 20} MiB, "
                        f"over the {_TABLE_BYTES >> 20} MiB budget")
    pts = np.linspace(a, b, count)
    if np.any(pts == 0.0):
        raise SpecError("grid must exclude 0")
    return pts


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecError(msg)


# the range of s the finite-ensemble commands take, set by the bases'
# precision (the circle weight is formed without overflow at any s): their
# recurrence coefficients tend to 1 as s grows and the two kernel routes
# drift apart, from 1e-13 relative at s = 600 to 2.5e-11 at s = 5000 (N = 16)
_S_MAX = 512.0

# experiment variance runs windows up to 2 eps at N = 12; its theta-rule
# grows like log(N eps), but the nodes x = tan(theta/2)/N near the window's
# edge keep about -log10(2e-16 N eps) digits, 11 at eps = 2000
_EPS_MAX = 1000.0


# the largest natural logarithm a double holds
_LN_MAX = math.log(sys.float_info.max)


def _require_s(p: dict, what: str) -> None:
    _require(-0.5 < p["s"] < _S_MAX, f"{what} requires -1/2 < s < {_S_MAX:g}")


def _validate(spec: RunSpec) -> None:
    p = spec.params
    for name, (cast, _) in _PARAMS[spec.command].items():
        if cast is float:
            _require(math.isfinite(p[name]), f"{name} must be finite")
    _require(p["jobs"] >= 1, "jobs >= 1 required")
    if spec.command == "check":
        if p["suite"] in ("kernels", "opuc"):
            _require_s(p, f"suite {p['suite']}")
            _require(p["N"] >= 2, "N >= 2 required")
        if p["suite"] == "kernels":
            _require(p["s"] >= _PROJECTION_S_MIN,
                     f"suite kernels: the projection check requires s >= {_PROJECTION_S_MIN}")
            # the finite shift identity divides by ||V||^2 and the projection
            # tail bound divides by Gamma(s+3/2): both must be doubles
            _require(log_v_norm_sq(p["s"], p["N"]) < _LN_MAX
                     and math.lgamma(p["s"] + 1.5) < _LN_MAX,
                     f"suite kernels: ||V||^2 or Gamma(s+3/2) overflows a double "
                     f"at s = {p['s']:g}, N = {p['N']}")
    elif spec.command == "table":
        _require_s(p, "table")
        _require(p["N"] >= 1, "N >= 1 required")
        _require(p["n"] >= 1, "n >= 1 required")
        grid = _parse_grid(p["grid"], square=p["kind"] in ("kernel", "phi_n"))
        if p["kind"] == "vfunction":
            s = p["s"]
            _require((s + 0.5) * math.log(2.0) + math.lgamma(s + 1.5) < _LN_MAX,
                     f"vfunction: 2^(s+1/2) Gamma(s+3/2) overflows a double at s = {s:g}")
        if p["kind"] == "phi_n":
            _require(bool(np.all(np.abs(grid) < p["n"] * np.pi)),
                     f"phi_n needs grid points in (-n pi, n pi), n = {p['n']}")
    elif spec.command == "sample":
        if p["replay"] is None:
            _require_s(p, "sampling")
            _require(p["N"] >= 1, "N >= 1 required")
            _require(p["method"] in ("spectral", "spectral_dpp", "mcmc"),
                     f"unknown method {p['method']!r}")
        _require(p["draws"] >= 1, "draws >= 1 required")
        _require(0 <= p["seed"] < 2**64, "0 <= seed < 2^64 required")
        _require(p["burn_in"] >= 1, "burn_in >= 1 required")
        _require(p["thinning"] >= 1, "thinning >= 1 required")
        _require(p["chains"] >= 1, "chains >= 1 required")
        _require(p["step_scale"] > 0, "step_scale > 0 required")
    elif spec.command == "experiment":
        name = p["name"]
        if name in ("gamma2", "tails", "variance"):
            _require_s(p, f"experiment {name}")
        if name == "variance":
            _require(0 < p["eps"] <= _EPS_MAX, f"0 < eps <= {_EPS_MAX:g} required")
        if name == "contraction":
            _require(-0.5 < p["sprime"] < _S_MAX,
                     f"experiment contraction requires -1/2 < sprime < {_S_MAX:g}")
            _require(p["sigma"] > 0, "sigma > 0 required")
        if name == "gamma1":
            _require(p["M"] >= 8, "M >= 8 required")
            _require(p["draws"] >= 1, "draws >= 1 required")
            _require(0 <= p["seed"] < 2**64, "0 <= seed < 2^64 required")


def _out_path(spec: RunSpec, default_name: str) -> str:
    out = spec.params.get("out") or default_name
    if not os.path.isabs(out):
        out = os.path.join(os.environ.get("HPK_DATA_DIR", "."), out)
    d = os.path.dirname(out)
    if d:
        os.makedirs(d, exist_ok=True)
    return out


def _write_csv(path: str, spec: RunSpec, header: list[str], rows) -> int:
    n = 0
    with io.open(path, "w", encoding="ascii") as f:
        f.write(f"# runspec: {spec.provenance()}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt17(v) for v in row) + "\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# check

def _chk(name: str, value: float, bound: float, ok: bool | None = None) -> dict:
    if ok is None:
        ok = value <= bound
    return {"name": name, "value": float(value), "bound": float(bound),
            "pass": bool(ok)}


def _suite_specfun(p: dict) -> list[dict]:
    checks = []
    for s in (0.0, 0.5, 1.3):
        got = jsq_over_t_integral(s + 0.5)
        want = gamma_fn(s + 0.5) / (2.0 * gamma_fn(s + 1.5))
        checks.append(_chk(f"watson_s{s}", abs(got - want), 1e-8))
    for z in (0.3, 1.1, 2.5, 4.2):
        lhs = gamma_fn(z) * gamma_fn(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi) * gamma_fn(2.0 * z)
        checks.append(_chk(f"duplication_z{z}", abs(lhs - rhs) / abs(rhs), 1e-11))
    x = np.linspace(0.1, 50.0, 400)
    r_half = np.max(np.abs(bessel_j(0.5, x) - np.sqrt(2.0 / (np.pi * x)) * np.sin(x)))
    r_mhalf = np.max(np.abs(bessel_j(-0.5, x) - np.sqrt(2.0 / (np.pi * x)) * np.cos(x)))
    checks.append(_chk("half_order_sin", float(r_half), 1e-12))
    checks.append(_chk("half_order_cos", float(r_mhalf), 1e-12))
    return checks


# Christoffel-Darboux residual bound relative to sum_k |p_k(z)| |p_k(w)|,
# which grows without bound with s; at --N 64 and s in {0, 0.5, 1.3} it is
# tighter than the absolute 1e-10 (sums <= 67)
_CD_REL = 1e-12


def _suite_opuc(p: dict) -> list[dict]:
    s, N = p["s"], p["N"]
    basis = build_opuc(HPParam(s), N + 1)
    # int lambda dphi/2pi by the one-node Gauss-Jacobi rule in x = cos phi
    # (alpha = s - 1/2, beta = -1/2), exact for p_0 = 1: node x_1 = -s/(s+1),
    # weight mu_0 = 2^s Gamma(s+1/2) sqrt(pi)/Gamma(s+1); eval_weighted
    # carries lambda = c_s 2^s (1-x)^s, which the rule's weight already holds
    one_minus = (2.0 * s + 1.0) / (s + 1.0)
    psi0 = basis.eval_weighted(2.0 * math.asin(math.sqrt(0.5 * one_minus)))[0, 0]
    mass = abs(psi0) ** 2 * math.exp(
        s * math.log(2.0 / one_minus) + math.lgamma(s + 0.5) - math.lgamma(s + 1.0)
        - 0.5 * math.log(math.pi))
    checks = [_chk("moment0_normalized", abs(mass - 1.0), 1e-12)]
    for th, ta in ((0.3, 0.9), (1.2, -0.7), (2.0, 0.4)):
        P = np.abs(basis.eval_all(np.exp(1j * np.array([th, ta])))[:, :N])
        checks.append(_chk(f"cd_identity_t{th}", cd_identity_residual(basis, N, th, ta),
                           _CD_REL * float(P[0] @ P[1])))
    # h_{N-1} by its closed form and by the recurrence h_0 b_1 ... b_{N-1},
    # in logs: h_{N-1} itself underflows at s = 300, N = 1000
    line = build_monic_line(HPParam(s), N, N - 1)
    log_rec = math.log(line.sq_norms[0]) + float(np.sum(np.log(line.b[1:])))
    checks.append(_chk("top_norm_log", abs(log_rec - math.log(math.pi) - top_log_gammas(s, N)),
                       1e-11 + 1e-13 * N))
    return checks


def _suite_kernels(p: dict) -> list[dict]:
    s, N = p["s"], p["N"]
    checks = []
    rec = max(check_limit_recurrence(s, x, y)
              for x in (0.2, 1.0, 2.4) for y in (0.5, 1.7, 3.0))
    checks.append(_chk("limit_recurrence_grid", rec, 1e-10))
    pairs = ((0.7, 1.3), (-1.1, 0.4))
    for (x, y), res in zip(pairs, _finite_recurrence_residuals(s, N, pairs)):
        checks.append(_chk(f"finite_recurrence_{x}_{y}", res, 1e-8))
    k = LimitKernel(HPParam(s))
    for x, y in ((0.7, 1.3), (-0.9, 0.5), (1.8, 2.6)):
        res, bnd = check_projection(k, x, y, 100.0)
        checks.append(_chk(f"projection_{x}_{y}", res, bnd + 1e-12))
    if s == 0.0:
        dg = max(abs(eval_limit_kernel(k, float(x), float(x)) - 1.0 / (math.pi * x * x))
                 for x in (0.3, 0.8, 1.5, 2.2, 3.0))
        checks.append(_chk("diag_inverse_square", dg, 1e-10))
    return checks


def _suite_infinite(p: dict) -> list[dict]:
    grid = make_damped_grid()
    checks = []
    val = contraction_norm(0.5, 1.0, grid)
    checks.append(_chk("contraction_sp0.5_sig1", val, 1.0, ok=val < 1.0))
    dp = damped_projection(HPParam(-1.0), 1.0, grid, 8)
    checks.append(_chk("damped_idempotency", dp.idempotency_residual(), 1e-8))
    checks.append(_chk("damped_trace_rank", abs(dp.trace() - dp.rank), 0.05))
    vb = VBasis(HPParam(-1.0))
    exponent, _ = growth_certificate(vb, 1)
    slope = tail_growth_slope(vb, 1)
    checks.append(_chk("growth_slope_s-1", abs(slope - (2 * exponent + 1)), 0.1))
    x0 = 2.0 / math.pi
    checks.append(_chk("v1_oracle", abs(eval_v_basis(vb, 1, x0) - x0), 1e-12))
    return checks


_SUITES = {
    "specfun": _suite_specfun,
    "opuc": _suite_opuc,
    "kernels": _suite_kernels,
    "infinite": _suite_infinite,
}


def cmd_check(spec: RunSpec):
    checks = _SUITES[spec.params["suite"]](spec.params)
    passed = all(c["pass"] for c in checks)
    report = {"command": "check", "suite": spec.params["suite"],
              "runspec": spec.provenance(), "checks": checks, "passed": passed}
    return report, passed


# ---------------------------------------------------------------------------
# table

def cmd_table(spec: RunSpec):
    p = spec.params
    kind = p["kind"]
    grid = _parse_grid(p["grid"])
    param = HPParam(p["s"])
    # every value is computed before the file is opened; a non-finite one
    # (an overflow inside the evaluation) fails the run instead
    with np.errstate(all="ignore"):
        if kind == "kernel":
            vals = build_finite_kernel(param, p["N"]).kernel_matrix(grid, grid)
            rows = ((float(x), float(y), float(vals[i, j]))
                    for i, x in enumerate(grid) for j, y in enumerate(grid))
            header = ["x", "y", "value"]
        elif kind == "weight":
            vals = eval_line_weight(param, p["N"], grid)
            rows = ((float(x), float(v)) for x, v in zip(grid, vals))
            header = ["x", "weight"]
        elif kind == "vfunction":
            vals = eval_V(VFunction(param, "limit"), grid)
            rows = ((float(x), float(v)) for x, v in zip(grid, vals))
            header = ["x", "V"]
        else:  # phi_n
            vals = phi_n_matrix(build_finite_kernel(param, p["n"]), grid, grid)
            rows = ((float(a), float(b), float(vals[i, j].real), float(vals[i, j].imag))
                    for i, a in enumerate(grid) for j, b in enumerate(grid))
            header = ["alpha", "beta", "re", "im"]
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise OverflowError(f"{bad} of {vals.size} {kind} values are not finite")
    path = _out_path(spec, f"table_{kind}.csv")
    n = _write_csv(path, spec, header, rows)
    report = {"command": "table", "kind": kind, "runspec": spec.provenance(),
              "path": path, "rows": n}
    return report, True


# ---------------------------------------------------------------------------
# sample

def _canonical_method(m: str) -> str:
    return "spectral_dpp" if m in ("spectral", "spectral_dpp") else "mcmc"


def cmd_sample(spec: RunSpec):
    p = spec.params
    if p["replay"] is not None:
        try:
            cfg, side = read_sample_sidecar(p["replay"])
        except (OSError, ValueError, TypeError) as e:
            raise SpecError(f"cannot read sidecar {p['replay']}: {e}") from e
        if side is None:
            raise SpecError(f"{p['replay']} lacks the run parameters of a sample archive")
        s, N, draws, prov = side["s"], side["N"], side["draws"], side["runspec"]
    else:
        cfg = SamplerConfig(
            seed=p["seed"], method=_canonical_method(p["method"]),
            burn_in=p["burn_in"], thinning=p["thinning"], n_chains=p["chains"],
            step_scale=p["step_scale"],
        )
        s, N, draws = p["s"], p["N"], p["draws"]
        prov = RunSpec("sample", {**p, "method": cfg.method, "replay": None}).provenance()
    stats: dict = {}
    if cfg.method == "spectral_dpp":
        arr = sample_projection_dpp_batch(build_finite_kernel(HPParam(s), N), cfg, draws)
    else:
        arr = mcmc_draws(HPParam(s), N, cfg, draws, stats)
    path = _out_path(spec, "samples.csv")
    write_sample_archive(path, [Configuration(tuple(row)) for row in arr], cfg,
                         s=s, N=N, runspec=prov)
    report = {"command": "sample", "runspec": prov, "path": path,
              "rows": draws, "method": cfg.method, "replay": bool(p["replay"])}
    if stats:
        report["acceptance_rate"] = stats["acceptance_rate"]
        report["step_scale"] = stats["step_scale"]
    return report, True


# ---------------------------------------------------------------------------
# experiment

def _run_cell(cell):
    fn, s, N, x = cell
    return fn(HPParam(s), N, x)


def _pmap(fn, items, jobs: int):
    """fn(HPParam(s), N, x) over the (s, N, x) items, in order; with
    jobs > 1 in a process pool of at most one worker per item."""
    cells = [(fn, *it) for it in items]
    if jobs <= 1:
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as ex:
        return list(ex.map(_run_cell, cells))


def _experiment_gamma2(p: dict):
    s, jobs = p["s"], p["jobs"]
    fit_eps = (0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0)
    fit_vals = _pmap(rho1_second_moment, [(s, 10, e) for e in fit_eps], jobs)
    C = max(v / e for v, e in zip(fit_vals, fit_eps))
    cells_in = [(s, N, e) for N in (20, 50) for e in (0.025, 0.05, 0.1)]
    vals = _pmap(rho1_second_moment, cells_in, jobs)
    cells = []
    for (s_, N, e), v in zip(cells_in, vals):
        cells.append({"N": N, "eps": e, "value": v, "ratio": v / e,
                      "bound": 3.0 * C, "pass": v / e <= 3.0 * C})
    passed = all(c["pass"] for c in cells)
    return {"name": "gamma2", "s": s, "C_fit_N10": C,
            "slack": 3.0 * C - max(c["ratio"] for c in cells),
            "cells": cells, "passed": passed}, passed


def _experiment_tails(p: dict):
    s, jobs = p["s"], p["jobs"]
    power = min(1.0, 1.0 + 2.0 * s)
    Rs = (5.0, 10.0, 20.0)
    fit_vals = _pmap(tail_mass, [(s, 10, R) for R in Rs], jobs)
    C = max(v * R**power for v, R in zip(fit_vals, Rs))
    cells_in = [(s, N, R) for N in (20, 50) for R in Rs]
    vals = _pmap(tail_mass, cells_in, jobs)
    cells = []
    for (s_, N, R), v in zip(cells_in, vals):
        scaled = v * R**power
        cells.append({"N": N, "R": R, "tail_mass": v, "scaled": scaled,
                      "bound": 3.0 * C, "pass": scaled <= 3.0 * C})
    passed = all(c["pass"] for c in cells)
    return {"name": "tails", "s": s, "power": power, "C_fit_N10": C,
            "cells": cells, "passed": passed}, passed


def _experiment_variance(p: dict):
    s, jobs = p["s"], p["jobs"]
    cells_in = [(s, N, e) for N in (6, 12) for e in (p["eps"], 2.0 * p["eps"])]
    vals = _pmap(variance_bound_check, cells_in, jobs)
    cells = []
    for (s_, N, e), (T, bound) in zip(cells_in, vals):
        ok = -1e-12 <= T <= bound + 1e-12
        cells.append({"N": N, "eps": e, "T": T, "bound": bound, "pass": ok})
    passed = all(c["pass"] for c in cells)
    return {"name": "variance", "s": s, "cells": cells, "passed": passed}, passed


def _experiment_gamma1(p: dict):
    M = p["M"]
    N_list = [max(2, M // 4), max(2, M // 2), M]
    rep = gamma1_balance_experiment(M, N_list, (2, 3, 4), p["draws"], seed=p["seed"])
    by_key = {(c["N"], c["n"]): c for c in rep["cells"]}
    cells = [by_key[k] for k in zip(N_list, (2, 3, 4))]
    diag = [c["median_gap"] for c in cells]
    trend = all(a > b for a, b in zip(diag, diag[1:]))
    # reported, never asserted: the trend is a desk-scale shadow
    return {"name": "gamma1", "M": M, "report": rep,
            "diagonal_medians": diag, "diagonal_decreasing": trend,
            "diagonal_tent_medians": [c["median_tent_gap"] for c in cells],
            "passed": True}, True


def _experiment_contraction(p: dict):
    grid = make_damped_grid()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = contraction_norm(p["sprime"], p["sigma"], grid)
    near_one = any(issubclass(w.category, DiscretizationWarning) for w in caught)
    k = build_finite_kernel(HPParam(p["sprime"]), 64)
    rho = k.rho1(grid.nodes)
    damp = -np.expm1(-p["sigma"] * grid.nodes**2)
    trace = float(np.sum(grid.weights * damp * rho))
    # the norm tests nothing once the proxy's mass has left the grid: ask
    # for half the proxy rank, the rule _kernel_eigenbasis applies per mode
    mass = float(np.sum(grid.weights * rho))
    ok = val < 1.0 and mass >= 32.0
    return {"name": "contraction", "sprime": p["sprime"], "sigma": p["sigma"],
            "norm": val, "trace_bound": trace, "grid_mass": mass,
            "near_one_warning": near_one, "passed": ok}, ok


_EXPERIMENTS = {
    "gamma2": _experiment_gamma2,
    "gamma1": _experiment_gamma1,
    "tails": _experiment_tails,
    "variance": _experiment_variance,
    "contraction": _experiment_contraction,
}


def cmd_experiment(spec: RunSpec):
    body, passed = _EXPERIMENTS[spec.params["name"]](spec.params)
    report = {"command": "experiment", "runspec": spec.provenance(), **body}
    return report, passed


# ---------------------------------------------------------------------------
# entry point

_HELP = {
    "check": "run a module invariant suite",
    "table": "tabulate a function to CSV",
    "sample": "run a sampler into an archive",
    "experiment": "run a study into a JSON report",
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hpk", description="ensemble kernels, samplers and experiments"
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, table in _PARAMS.items():
        p = sub.add_parser(command, help=_HELP[command])
        for name, (cast, _) in table.items():
            if name == _POSITIONAL.get(command):
                p.add_argument(name, choices=list(_READS[command]))
            else:
                p.add_argument("--" + name.replace("_", "-"), type=cast, dest=name)
    return ap


_COMMANDS = {
    "check": cmd_check,
    "table": cmd_table,
    "sample": cmd_sample,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _merge_runspec(args)
        _validate(spec)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    try:
        report, passed = _COMMANDS[spec.command](spec)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    text = json.dumps(report, sort_keys=True)
    out = spec.params.get("out")
    if out and spec.command in ("check", "experiment"):
        path = _out_path(spec, out)
        with io.open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's own flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if passed else 1
