"""Independent references used only by the tests."""

import math

import mpmath
import numpy as np

from hpkernels.kernels import LimitKernel, eval_limit_kernel
from hpkernels.quadrature import panel_nodes
from hpkernels.specfun import bessel_j
from hpkernels.weights_opuc import HPParam, _root_weight


def de_nodes(n: int, t_max: float = 4.2):
    """Double-exponential (tanh-sinh) nodes/weights on (-1, 1).

    Handles integrable algebraic endpoint singularities; n nodes on the
    uniform t-grid [-t_max, t_max].
    """
    t = np.linspace(-t_max, t_max, n)
    h = t[1] - t[0]
    u = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(x) > 1e-17  # drop nodes indistinguishable from the ends
    return x[keep], w[keep]


def trig_moment(param, k: int) -> float:
    """Normalized trigonometric moment m_k = int e^{ik theta} lambda(theta) d theta/2pi
    of the circle weight: m_0 = 1 and m_k = prod_{j=1..k} (s+1-j)/(s+j)."""
    s = param.s
    k = abs(int(k))
    m = 1.0
    for j in range(1, k + 1):
        m *= (s + 1.0 - j) / (s + j)
    return m


def cd_sum_circle(basis, N: int, alpha: float, beta: float) -> complex:
    """Projection kernel on the circle at the angle pair (alpha, beta) in
    (-pi, pi), summed directly:
    sqrt(lambda(alpha) lambda(beta)) sum_{k<N} p_k(e^{i alpha}) conj(p_k(e^{i beta})),
    with its own weight lambda = c_s (2 + 2cos theta)^s, probability-normalized
    against d theta/2pi."""
    s = basis.param.s
    c_s = math.exp(2.0 * math.lgamma(s + 1.0) - math.lgamma(2.0 * s + 1.0))
    la, lb = (c_s * (2.0 + 2.0 * math.cos(t)) ** s for t in (alpha, beta))
    pa = basis.eval_all(np.exp(1j * alpha))[0, :N]
    pb = basis.eval_all(np.exp(1j * beta))[0, :N]
    return complex(math.sqrt(la * lb) * np.sum(pa * np.conj(pb)))


def szego_diag_extended(s: float, N: int, phi, factor=1.0) -> np.ndarray:
    """sum_{k<N} |factor sqrt(lambda) p_k|^2 at z = -e^{i phi}, as
    OPUCBasis.diag_weighted defines it, from the two-state Szego recursion
    (p_k, p*_k) run in np.clongdouble (a 64-bit mantissa on x86) on the same
    float phi, with alpha_k = (-1)^k s/(k+s+1) formed in long double.  The
    sum is multiplied by the code's own (root factor)^2 2^(2e), root 2^e from
    weights_opuc._root_weight, so it checks the sum, not the weight."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    root, e = _root_weight(s, phi)
    z = -np.exp(1j * phi.astype(np.longdouble))
    p = star = np.ones(phi.size, dtype=np.clongdouble)
    acc = np.ones(phi.size, dtype=np.longdouble)
    s_ld = np.longdouble(s)
    for k in range(N - 1):
        a = (-1) ** k * s_ld / (k + s_ld + 1)
        r = np.sqrt(1 - a * a)
        zp = z * p
        p, star = (zp - a * star) / r, (star - a * zp) / r
        acc += p.real ** 2 + p.imag ** 2
    scale = np.longdouble(root * factor)
    return np.ldexp(acc * scale * scale, 2 * e).astype(float)


def szego_sq_sum_mp(s: float, N: int, z):
    """sum_{k<N} |p_k(z)|^2 at mpmath's working precision: the Szego
    recursion from alpha_k = (-1)^k s/(k+s+1)."""
    ms = mpmath.mpf(s)
    p = star = mpmath.mpc(1)
    acc = mpmath.mpf(1)
    for k in range(N - 1):
        a = (-1) ** k * ms / (k + ms + 1)
        r = mpmath.sqrt(1 - a * a)
        zp = z * p
        p, star = (zp - a * star) / r, (star - a * zp) / r
        acc += abs(p) ** 2
    return acc


def reflected_phi_n(s: float, n: int, alpha: float, beta: float) -> complex:
    """The n-fold rescaled circle kernel built on its own weight: the
    reflected weight (4 sin^2(theta/2))^s c_s, singular at 0, and its
    orthonormal basis from the Verblunsky coefficients -s/(k+s+1) through
    the Szego recursion; then
    (1/n) e^{-i(n-1)alpha/(2n)} K_w(alpha/n, beta/n) e^{+i(n-1)beta/(2n)}."""
    c_s = math.exp(2.0 * math.lgamma(s + 1.0) - math.lgamma(2.0 * s + 1.0))
    wa, wb = alpha / n, beta / n
    z = np.exp(1j * np.array([wa, wb]))
    P = np.empty((2, n), dtype=complex)
    P[:, 0] = 1.0
    star = np.ones(2, dtype=complex)
    for k in range(n - 1):
        a = -s / (k + s + 1.0)
        r = math.sqrt(1.0 - a * a)
        zp = z * P[:, k]
        P[:, k + 1] = (zp - a * star) / r
        star = (star - a * zp) / r
    weight = (4.0 * np.sin(np.array([wa, wb]) / 2.0) ** 2) ** s * c_s
    core = np.sum(P[0] * np.conj(P[1])) * math.sqrt(weight[0] * weight[1]) / (2.0 * np.pi)
    phase = np.exp(-1j * (n - 1) * (alpha - beta) / (2.0 * n))
    return complex(phase * core / n)


def piecewise_tail(diag, s: float, R: float, growth: float, panels: int) -> float:
    """The geometric tail integral of ergodics._geometric_tail, one diag call
    per piece of 20 panels and one for the remainder at T."""
    total, lo = 0.0, R
    for _ in range(panels):
        hi = lo * growth
        x, w = panel_nodes(lo, hi, 20)
        total += float(np.sum(w * diag(x)))
        lo = hi
    tail = lo * float(diag(np.array([lo]))[0]) / (1.0 + 2.0 * s)
    return 2.0 * (total + tail)


def per_panel_damped_grid(R=6.0, delta=0.08, t_max=80.0, t_panel=2.5, x_panel=0.25):
    """(nodes, weights) of the damped grid built one Gauss-Legendre panel of
    16 nodes at a time: panels t_panel wide in t = 1/x on (1/t_max, delta],
    x_panel wide on [delta, R], the last of each cut at t_max and R, then
    mirrored.  The defaults are infmeasures.make_damped_grid's."""
    xs, ws = [], []
    t_edges = np.arange(1.0 / delta, t_max + t_panel, t_panel)
    for a, b in zip(t_edges[:-1], t_edges[1:]):
        t, wt = panel_nodes(a, min(b, t_max), 1)
        xs.append(1.0 / t)
        ws.append(wt / (t * t))
    edges = np.arange(delta, R + x_panel, x_panel)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = panel_nodes(a, min(b, R), 1)
        xs.append(x)
        ws.append(w)
    xp, wp = np.concatenate(xs), np.concatenate(ws)
    return np.concatenate([-xp[::-1], xp]), np.concatenate([wp[::-1], wp])


def limit_recurrence_composed(s: float, x: float, y: float) -> float:
    """The residual of kernels.check_limit_recurrence composed from the
    public pieces: K^(s) and K^(s+1) by eval_limit_kernel, and the rank-one
    term from two scalar bessel_j calls."""
    lhs = eval_limit_kernel(LimitKernel(HPParam(s)), x, y)
    sg = math.copysign(1.0, x) * math.copysign(1.0, y)
    jx = bessel_j(s + 0.5, 1.0 / abs(x))
    jy = bessel_j(s + 0.5, 1.0 / abs(y))
    rank1 = (s + 0.5) / math.sqrt(abs(x * y)) * jx * jy
    rhs = sg * (eval_limit_kernel(LimitKernel(HPParam(s + 1.0)), x, y) + rank1)
    return abs(lhs - rhs)
