"""Parameter points of the decomposition, balancedness sums, and the
uniform-in-N moment experiments.

An OmegaPoint carries the finite data (alpha^+, alpha^-, gamma_1, delta);
its characteristic function is the classification product.  The moment and
tail operations express the two sides of the angle/line change of
variables and the uniform estimates the scaling limit rests on; every
"bounded by a constant times" claim is probed by fitting the constant on
the smallest instance and asserting on larger ones with fixed slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .kernels import LimitKernel, _limit_diag, build_finite_kernel
from .quadrature import graded_nodes, panel_nodes
from .sampling import Configuration, SamplerConfig, sample_hp_matrix_s0_batch
from .weights_opuc import HPParam

__all__ = [
    "OmegaPoint",
    "BalanceReport",
    "char_function",
    "tent",
    "truncated_sum",
    "principal_value_sums",
    "rho1_second_moment",
    "circle_moment_JN",
    "tail_mass",
    "limit_tail_mass",
    "variance_bound_check",
    "gamma1_balance_experiment",
]


def _check_decreasing_nonneg(seq, name: str) -> tuple:
    vals = tuple(float(v) for v in seq)
    if any(not math.isfinite(v) or v < 0.0 for v in vals):
        raise DomainError(f"{name} must be finite and nonnegative")
    if any(a < b for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} must be weakly decreasing")
    return tuple(v for v in vals if v != 0.0)  # zeros carry no point mass


@dataclass(frozen=True)
class OmegaPoint:
    """Finite representation of a decomposition parameter point.

    Zero entries of the alpha sequences are dropped on construction, so
    points with equal nonzero content compare equal.  gamma2 is derived:
    delta minus the sum of squares, and must be nonnegative.
    """

    alpha_plus: tuple
    alpha_minus: tuple
    gamma1: float
    delta: float

    def __post_init__(self):
        object.__setattr__(
            self, "alpha_plus", _check_decreasing_nonneg(self.alpha_plus, "alpha_plus")
        )
        object.__setattr__(
            self, "alpha_minus", _check_decreasing_nonneg(self.alpha_minus, "alpha_minus")
        )
        g1 = float(self.gamma1)
        d = float(self.delta)
        if not (math.isfinite(g1) and math.isfinite(d)) or d < 0.0:
            raise DomainError("gamma1 must be finite, delta finite nonnegative")
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "delta", d)
        if self._raw_gamma2() < -1e-9 * max(1.0, d):
            raise DomainError("delta smaller than the sum of squared alphas")

    def _raw_gamma2(self) -> float:
        sq = math.fsum(a * a for a in self.alpha_plus + self.alpha_minus)
        return self.delta - sq

    @property
    def gamma2(self) -> float:
        return max(0.0, self._raw_gamma2())

    def points(self) -> tuple:
        """Signed point configuration: alpha^+ positive, alpha^- negated."""
        return tuple(sorted(
            tuple(-a for a in self.alpha_minus) + self.alpha_plus
        ))

    @classmethod
    def from_configuration(cls, config: Configuration) -> "OmegaPoint":
        """Normal form with gamma2 = 0 and gamma1 the stabilized full sum."""
        pts = config.points
        ap = tuple(sorted((p for p in pts if p > 0), reverse=True))
        am = tuple(sorted((-p for p in pts if p < 0), reverse=True))
        return cls(ap, am, math.fsum(pts), math.fsum(p * p for p in pts))


def char_function(omega: OmegaPoint, r) -> complex:
    """Product over the arguments r_j of
    exp(i gamma1 r - gamma2 r^2) prod_x exp(-i x r) / (1 - i x r)."""
    rs = (r,) if np.ndim(r) == 0 else tuple(r)
    g2 = omega.gamma2
    out = complex(1.0)
    for rj in rs:
        rj = float(rj)
        f = complex(np.exp(1j * omega.gamma1 * rj - g2 * rj * rj))
        for x in omega.points():
            denom = 1.0 - 1j * x * rj
            if denom == 0:
                raise PoleError("factor pole at 1 - i x r = 0")
            f *= complex(np.exp(-1j * x * rj)) / denom
        out *= f
    return out


# ---------------------------------------------------------------------------
# Balancedness


def tent(n: int, x):
    """Piecewise-linear window: 0 inside |x| <= 1/(2n^2), 1 outside
    |x| >= 1/n^2, the line 2n^2|x| - 1 between."""
    if n < 1:
        raise DomainError("n >= 1 required")
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.clip(2.0 * n * n * ax - 1.0, 0.0, 1.0)
    return float(out) if np.ndim(x) == 0 else out


def truncated_sum(points, n: int, R: float | None = None) -> float:
    """Hard-cutoff sum: points with |x| >= 1/n^2 (and |x| < R if given).

    The cutoff is closed at 1/n^2 so a point sitting exactly on the
    threshold is counted.
    """
    thr = 1.0 / (n * n)
    tot = 0.0
    for p in points:
        if abs(p) >= thr and (R is None or abs(p) < R):
            tot += p
    return tot


@dataclass(frozen=True)
class BalanceReport:
    """Partial sums of a configuration under both cutoff families."""

    ns: tuple
    hard: tuple
    tent: tuple

    def hard_diffs(self) -> tuple:
        return tuple(b - a for a, b in zip(self.hard, self.hard[1:]))

    def tent_diffs(self) -> tuple:
        return tuple(b - a for a, b in zip(self.tent, self.tent[1:]))

    def stabilized(self, tol: float = 0.0) -> bool:
        return (abs(self.hard[-1] - self.hard[-2]) <= tol
                and abs(self.tent[-1] - self.tent[-2]) <= tol)


def principal_value_sums(config: Configuration, n_max: int) -> BalanceReport:
    """Both cutoff families for n = 1..n_max; for a finite configuration
    both stabilize at the full sum once 1/n^2 drops below min |x|."""
    if n_max < 2:
        raise DomainError("n_max >= 2 required")
    pts = np.asarray(config.points)
    ns = tuple(range(1, n_max + 1))
    hard = tuple(truncated_sum(pts, n) for n in ns)
    tents = tuple(float(np.sum(pts * tent(n, pts))) for n in ns)
    return BalanceReport(ns, hard, tents)


# ---------------------------------------------------------------------------
# Uniform moment estimates


def _half_window_nodes(eps: float, N: int, levels: int = 12, order: int = 20):
    """Nodes on (0, eps], graded dyadically toward 0; order Gauss nodes per
    panel, each dyadic piece cut into panels of width <= 2/N (the kernel
    oscillates on the scale 1/N in x, and likewise in theta)."""
    return graded_nodes(eps, levels, order, density=0.5 * N)


def rho1_second_moment(param: HPParam, N: int, eps: float) -> float:
    """Integral of x^2 K_N(x, x) over (-eps, eps); even integrand doubled."""
    if eps <= 0:
        raise DomainError("eps > 0 required")
    k = build_finite_kernel(param, N)
    x, w = _half_window_nodes(eps, N)
    return 2.0 * float(np.sum(w * x * x * k.rho1(x)))


def circle_moment_JN(param: HPParam, N: int, eps: float) -> float:
    """The same second moment computed on the angle side:
    (1/N^2) int tan^2(theta/2) times the circle density d theta / 2 pi over
    |theta| <= 2 arctan(N eps).  Equals rho1_second_moment exactly in the
    continuum; the two quadratures agree to far better than 1e-6."""
    if eps <= 0:
        raise DomainError("eps > 0 required")
    theta_eps = 2.0 * math.atan(N * eps)
    t, w = _half_window_nodes(theta_eps, N)
    vals = build_finite_kernel(param, N).rho1_theta(t)
    integrand = np.tan(t / 2.0) ** 2 * vals / (2.0 * math.pi)
    return 2.0 * float(np.sum(w * integrand)) / (N * N)


def _geometric_tail(diag, s: float, R: float, growth: float, panels: int) -> float:
    """Integral of the even diagonal diag over |x| >= R: geometric pieces
    [R growth^j, R growth^(j+1)] out to T = R growth^panels, then the
    power-law remainder T diag(T) / (1 + 2s) matching the x^(-2-2s) decay."""
    total = 0.0
    lo = R
    for _ in range(panels):
        hi = lo * growth
        x, w = panel_nodes(lo, hi, 20)
        total += float(np.sum(w * diag(x)))
        lo = hi
    tail = lo * float(diag(np.array([lo]))[0]) / (1.0 + 2.0 * s)
    return 2.0 * (total + tail)


def tail_mass(param: HPParam, N: int, R: float, growth: float = 2.0,
              panels: int = 14) -> float:
    """Integral of K_N(x, x) over |x| >= R (see _geometric_tail)."""
    if R <= 0:
        raise DomainError("R > 0 required")
    k = build_finite_kernel(param, N)
    return _geometric_tail(k.rho1, param.s, R, growth, panels)


def limit_tail_mass(param: HPParam, R: float, growth: float = 2.0,
                    panels: int = 14) -> float:
    """Same tail integral for the scaling-limit kernel diagonal."""
    if R <= 0:
        raise DomainError("R > 0 required")
    LimitKernel(param)  # DomainError unless s > -1/2
    s = param.s
    return _geometric_tail(lambda x: _limit_diag(s, x), s, R, growth, panels)


def variance_bound_check(param: HPParam, N: int, eps: float):
    """Number-variance identity for the statistic sum of x over |x| <= eps.

    T = int x^2 K(x,x) - double-int x y K(x,y)^2 over the window, always
    between 0 and the claimed bound 2 int x^2 K(x,x).  Returns (T, bound).
    """
    if eps <= 0:
        raise DomainError("eps > 0 required")
    k = build_finite_kernel(param, N)
    xh, wh = _half_window_nodes(eps, N, levels=10, order=16)
    x = np.concatenate([-xh[::-1], xh])
    w = np.concatenate([wh[::-1], wh])
    rho = k.rho1(x)
    diag = float(np.sum(w * x * x * rho))
    K = k.kernel_matrix(x, x)
    wx = w * x
    cross = float(wx @ (K * K) @ wx)
    return diag - cross, 2.0 * diag


# ---------------------------------------------------------------------------
# Matrix-level balance experiment


def gamma1_balance_experiment(M: int, N_list, n_list, draws: int,
                              seed: int = 0, R: float | None = None) -> dict:
    """Corner-trace sequence against truncated eigenvalue sums.

    For each draw of an M x M matrix from the s=0 ensemble and each corner
    size N: c_N = tr(X_N)/N versus the hard-cutoff sums of the rescaled
    corner spectrum at each n.  Cells report the gap distribution across
    draws; the (N_i, n_i) diagonal with both lists increasing is where the
    gap median shrinks (the cutoff 1/n^2 has to fall with the spectral
    resolution for the sums to capture c_N).
    """
    if draws < 1:
        raise DomainError("draws >= 1 required")
    N_list = [int(N) for N in N_list]
    n_list = [int(n) for n in n_list]
    if any(N < 1 or N > M for N in N_list) or any(n < 1 for n in n_list):
        raise DomainError("corner sizes must lie in [1, M], cutoffs >= 1")
    Xs = sample_hp_matrix_s0_batch(M, SamplerConfig(seed=seed), draws)
    gaps = {(N, n): [] for N in N_list for n in n_list}
    for X in Xs:
        for N in N_list:
            ev = np.linalg.eigvalsh(X[:N, :N]) / N
            c = float(np.trace(X[:N, :N]).real) / N
            for n in n_list:
                gaps[(N, n)].append(abs(c - truncated_sum(ev, n, R)))
    cells = []
    for (N, n), g in sorted(gaps.items()):
        arr = np.array(g)
        cells.append({
            "N": N,
            "n": n,
            "median_gap": float(np.median(arr)),
            "q25": float(np.percentile(arr, 25)),
            "q75": float(np.percentile(arr, 75)),
            "mean_gap": float(np.mean(arr)),
        })
    return {
        "experiment": "gamma1_balance",
        "params": {"M": M, "N_list": N_list, "n_list": n_list,
                   "draws": draws, "seed": seed, "R": R},
        "cells": cells,
    }
