"""Principal-value sums, the uniform-in-N moment experiments, and the
corner-trace balance experiment.

The principal value of a configuration is the limit of its cutoff sums,
under a hard cutoff or a tent window; for the rescaled corner spectra of
the s = 0 ensemble it is the gamma_1 parameter of the ergodic component,
which the balance experiment compares with the corner trace.  The moment
and tail operations express the two sides of the angle/line change of
variables and the uniform estimates the scaling limit rests on; every
"bounded by a constant times" claim is probed by fitting the constant on
the smallest instance and asserting on larger ones with fixed slack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .kernels import LimitKernel, _limit_diag, build_finite_kernel
from .quadrature import gauss_panels, graded_nodes
from .sampling import SamplerConfig, _matrix_stream
from .weights_opuc import HPParam

__all__ = [
    "cutoff_sums",
    "rho1_second_moment",
    "circle_moment_JN",
    "tail_mass",
    "limit_tail_mass",
    "variance_bound_check",
    "gamma1_balance_experiment",
]


# ---------------------------------------------------------------------------
# Balancedness


def _running_sum(a):
    """Sum over the last axis in index order (np.sum adds pairwise)."""
    return np.cumsum(a, axis=-1)[..., -1] if a.shape[-1] else a.sum(axis=-1)


def cutoff_sums(points, ns):
    """Principal-value sums of one configuration (last axis of points) or a
    batch of them, under both cutoff families, for each index n in ns.

    hard counts the points with |x| >= 1/n^2 (closed, so a point on the
    threshold is counted); tent weights each point by the window that is 0
    inside |x| <= 1/(2n^2), 1 outside |x| >= 1/n^2 and the line
    2n^2|x| - 1 between.  Both are running sums in the order of the points,
    so they agree exactly when no point lies on a ramp.  For a finite
    configuration both stabilize at the full sum once 1/n^2 drops below
    min |x|.  Returns (hard, tent), each of shape points.shape[:-1] + (len(ns),).
    """
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise DomainError("cutoff indices n >= 1 required")
    x = np.asarray(points, dtype=float)[..., None, :]
    ax = np.abs(x)
    hard = np.where(ax >= (1.0 / (ns * ns))[:, None], x, 0.0)
    window = np.clip((2.0 * ns * ns)[:, None] * ax - 1.0, 0.0, 1.0)
    return _running_sum(hard), _running_sum(x * window)


# ---------------------------------------------------------------------------
# Uniform moment estimates


def _half_window_nodes(eps: float, N: int, levels: int = 12, order: int = 20):
    """Nodes on (0, eps], graded dyadically toward 0; order Gauss nodes per
    panel, each dyadic piece cut into panels of width <= 2/N.

    For integrals of the diagonal only: rho_1 is smooth on these panels,
    but K(x, y) off the diagonal oscillates with the point spacing, pi/N^2
    in x near 0, which they do not resolve (see _window_edges)."""
    return graded_nodes(eps, levels, order, density=0.5 * N)


def _window_edges(eps: float, N: int) -> np.ndarray:
    """Panel edges on [0, theta_eps], theta_eps = 2 arctan(N eps), for
    window integrals of off-diagonal kernel values in theta = 2 arctan(N x),
    where the points are about 2pi/N apart at every x.

    max(4, ceil(N theta_eps / 4pi)) equal panels; the top one is bisected
    toward theta_eps until it is no wider than its distance to theta = pi,
    the image of x = infinity, where the integrand is singular."""
    theta_eps = 2.0 * math.atan(N * eps)
    n = max(4, math.ceil(N * theta_eps / (4.0 * math.pi)))
    width = theta_eps / n
    top = [theta_eps]
    while width > math.pi - theta_eps:
        width *= 0.5
        top.insert(-1, theta_eps - width)
    return np.concatenate((np.linspace(0.0, theta_eps, n + 1)[:-1], top))


def _window_nodes(eps: float, N: int):
    """Nodes and weights on (-eps, eps): 16 Gauss nodes per panel of
    _window_edges, mapped by x = tan(theta/2)/N, dx = (1 + N^2 x^2)/(2N)
    d theta, and mirrored."""
    theta, wt = gauss_panels(_window_edges(eps, N))
    xh = np.tan(0.5 * theta) / N
    wh = wt * (1.0 + (N * xh) ** 2) / (2.0 * N)
    return np.concatenate((-xh[::-1], xh)), np.concatenate((wh[::-1], wh))


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


_PIECE_PANELS = 20  # equal Gauss panels per geometric tail piece


def _geometric_tail(diag, s: float, R: float, growth: float, panels: int) -> float:
    """Integral of the even diagonal diag over |x| >= R: geometric pieces
    [R growth^j, R growth^(j+1)] of _PIECE_PANELS equal panels each, out to
    T = R growth^panels, then the power-law remainder T diag(T) / (1 + 2s)
    matching the x^(-2-2s) decay.  diag is called once, on every node and
    T; the pieces are summed one by one, in order."""
    bounds = [R]
    for _ in range(panels):
        bounds.append(bounds[-1] * growth)
    T = bounds[-1]
    edges = [np.linspace(lo, hi, _PIECE_PANELS + 1)[:-1] for lo, hi in zip(bounds, bounds[1:])]
    x, w = gauss_panels(np.concatenate([*edges, [T]]))
    vals = diag(np.append(x, T))
    total = 0.0
    for piece in np.split(w * vals[:-1], panels or 1):  # panels = 0: one empty piece
        total += float(np.sum(piece))
    tail = T * float(vals[-1]) / (1.0 + 2.0 * s)
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
    x, w = _window_nodes(eps, N)
    k = build_finite_kernel(param, N)
    diag = float(np.sum(w * x * x * k.rho1(x)))
    F = k.feature_matrix(x)  # K = F F^H
    # double-int x y K(x,y)^2 = ||F^H diag(w x) F||_F^2: O(nodes N^2), no
    # nodes x nodes kernel matrix
    G = F.conj().T @ ((w * x)[:, None] * F)
    cross = float(np.sum(np.abs(G) ** 2))
    return diag - cross, 2.0 * diag


# ---------------------------------------------------------------------------
# Matrix-level balance experiment


def gamma1_balance_experiment(M: int, N_list, n_list, draws: int,
                              seed: int = 0) -> dict:
    """Corner-trace sequence against the principal-value sums.

    For each draw of an M x M matrix from the s=0 ensemble and each corner
    size N: c_N = tr(X_N)/N versus the cutoff sums of the rescaled corner
    spectrum at each n, hard and tent.  Cells report the distribution of
    the hard-cutoff gap across draws and the median tent gap.  The
    hard-cutoff gap is |sum of the points with |x| < 1/n^2|, a marginal
    statistic of the N-point ensemble whose law depends on the cutoff n and
    hardly on N (exact medians at s = 0: 0.02930 at (N, n) = (64, 4),
    0.02947 at (256, 4)); the gap median shrinking along the (N_i, n_i)
    diagonal with both lists increasing is the falling cutoff's effect.
    """
    if draws < 1:
        raise DomainError("draws >= 1 required")
    N_list = [int(N) for N in N_list]
    n_list = [int(n) for n in n_list]
    if any(N < 1 or N > M for N in N_list) or any(n < 1 for n in n_list):
        raise DomainError("corner sizes must lie in [1, M], cutoffs >= 1")
    Ns, ns = sorted(set(N_list)), sorted(set(n_list))
    spectra = {N: [] for N in Ns}
    traces = {N: [] for N in Ns}
    # one M x M matrix held at a time: 60 of them take 3.75 GiB at M = 2048
    for X in _matrix_stream(M, SamplerConfig(seed=seed), draws):
        for N in Ns:
            spectra[N].append(np.linalg.eigvalsh(X[:N, :N]) / N)
            traces[N].append(float(np.trace(X[:N, :N]).real) / N)
    cells = []
    for N in Ns:
        hard, tent = cutoff_sums(np.array(spectra[N]), ns)
        c = np.array(traces[N])
        for j, n in enumerate(ns):
            gap = np.abs(c - hard[:, j])
            cells.append({
                "N": N,
                "n": n,
                "median_gap": float(np.median(gap)),
                "q25": float(np.percentile(gap, 25)),
                "q75": float(np.percentile(gap, 75)),
                "mean_gap": float(np.mean(gap)),
                "median_tent_gap": float(np.median(np.abs(c - tent[:, j]))),
            })
    return {
        "experiment": "gamma1_balance",
        "params": {"M": M, "N_list": N_list, "n_list": n_list,
                   "draws": draws, "seed": seed},
        "cells": cells,
    }
