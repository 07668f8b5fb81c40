"""Finite-rank projection kernels on circle and line, their scaling limit,
and the rank-one V-functions linking consecutive parameters.

The finite kernel of the 1/N-rescaled eigenvalue ensemble is built on two
independent routes:

- circle_cayley (default): orthonormal circle polynomials transported
  through x = tan(theta/2)/N, with the phase gauge gamma(t) =
  (N-1) * arg(i+t) pulled out so the kernel is real.  No angle theta is
  formed: t = N x enters as the signed angle from the weight's singular
  point, phi = -sgn(t) 2 arctan(1/|t|), which keeps its relative precision
  however large |x| is;
- line_direct: monic line polynomials against (1+x^2)^(-s-N) directly.

Both produce the orthogonal projection onto the same N-dimensional
subspace of L^2(R), so they agree pointwise; tests exploit that as a
dual-construction check.

The n-fold rescaled circle kernel phi_n lives on the circle weight rotated
by pi.  Rotation by pi multiplies Verblunsky coefficients by (-1)^{k+1}
(Simon, OPUC, 2005), so the rotated basis is (-1)^k p_k(-z) and phi_n is
read off the circle route's own basis at the rotated angles: the angle a/n
of the weight singular at 0 is itself the angle from the singular point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError, QuadFailure
from .quadrature import gauss_panels, panel_nodes
from .specfun import bessel_j, gamma_fn, jsq_over_t_tail
from .weights_opuc import (
    HPParam,
    MonicLineBasis,
    OPUCBasis,
    build_monic_line,
    build_opuc,
    top_log_gammas,
)

__all__ = [
    "FiniteKernel",
    "LimitKernel",
    "VFunction",
    "build_finite_kernel",
    "phi_n_matrix",
    "eval_limit_kernel",
    "limit_kernel_matrix",
    "eval_V",
    "v_norm_sq_closed",
    "v_norm_sq_quadrature",
    "check_projection",
    "ProjectionQuad",
    "check_limit_recurrence",
    "check_finite_recurrence",
    "convergence_profile",
]


# ---------------------------------------------------------------------------
# Finite kernel


@dataclass(frozen=True)
class FiniteKernel:
    """Rank-N projection kernel of the 1/N-rescaled eigenvalue ensemble."""

    param: HPParam
    N: int
    route: str
    opuc: OPUCBasis | None = None
    monic: MonicLineBasis | None = None

    def feature_matrix(self, x) -> np.ndarray:
        """Rows of orthonormal functions: returns (len(x), N).

        K(x, y) = sum_k M[x, k] conj(M[y, k]); for the circle route the
        phase gauge is already fixed so that the sum is real up to roundoff.
        """
        t = self._scaled(x)
        N = self.N
        if self.route == "line_direct":
            return self.monic.eval_weighted(t) * math.sqrt(N)
        phi, factor = _cayley(N, t)
        P = self.opuc.eval_weighted(phi)
        # gauge e^{i gamma}, gamma = (N-1) arg(i+t), makes the kernel real
        gauge = np.exp(1j * (N - 1) * (0.5 * np.pi - np.arctan(t)))
        P *= (gauge * factor)[:, None]
        return P

    def _scaled(self, x) -> np.ndarray:
        """t = N x, refusing x = 0."""
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xx == 0.0):
            raise DomainError("kernel features are defined on R*")
        return self.N * xx

    def kernel_matrix(self, x, y) -> np.ndarray:
        """K on the grid x (rows) by y (columns); real part returned, the
        imaginary part of the gauged circle route is roundoff only."""
        Mx = self.feature_matrix(x)
        My = self.feature_matrix(y)
        K = Mx @ My.conj().T
        return np.ascontiguousarray(K.real)

    def rho1(self, x) -> np.ndarray:
        """First correlation function rho_1(x) = K(x, x) (diagonal).

        On the circle route the sum over degrees is kept during the one
        Szego pass, so no (len(x), N) feature matrix is formed.
        """
        if self.route == "line_direct":
            return np.sum(np.abs(self.feature_matrix(x)) ** 2, axis=1)
        return self.opuc.diag_weighted(*_cayley(self.N, self._scaled(x)))

    def rho1_theta(self, theta) -> np.ndarray:
        """Circle-side density lambda(theta) sum |p_k|^2 w.r.t. d theta/2pi."""
        if self.route != "circle_cayley":
            raise DomainError("circle-side density needs the circle route")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.opuc.diag_weighted(theta - np.copysign(np.pi, theta))


def _cayley(N: int, t: np.ndarray):
    """z = (1 + i t)/(1 - i t) = -e^{i phi}: returns the signed angle phi
    from the singular point, and sqrt(N/pi) / |1 - i t|, which turns circle
    functions into line functions of x = t/N."""
    phi = -np.copysign(2.0 * np.arctan(1.0 / np.abs(t)), t)
    return phi, math.sqrt(N / math.pi) / np.hypot(1.0, t)


def build_finite_kernel(param: HPParam, N: int, route: str = "circle_cayley") -> FiniteKernel:
    if param.s <= -0.5:
        raise DomainError("finite kernel requires s > -1/2")
    if N < 1:
        raise DomainError("N >= 1 required")
    if route == "circle_cayley":
        return FiniteKernel(param, N, route, opuc=build_opuc(param, N))
    if route == "line_direct":
        return FiniteKernel(param, N, route, monic=build_monic_line(param, N))
    raise DomainError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# Rescaled circle kernel


def phi_n_matrix(k: FiniteKernel, alphas, betas) -> np.ndarray:
    """n-fold rescaled circle kernel, n = k.N, on alphas (rows) by betas
    (columns) in (-n pi, n pi): (1/n) e^{-i(n-1)alpha/(2n)} K_w(alpha/n,
    beta/n) e^{+i(n-1)beta/(2n)}, with K_w the rank-n kernel of the weight
    singular at 0, that is the circle route's kernel at a/n + pi brought
    into [-pi, pi].  The phases, a gauge, make s=0 the ratio-of-sines kernel.
    """
    if k.route != "circle_cayley":
        raise DomainError("phi_n needs the circle route")
    n = k.N

    def rows(a):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if np.any(np.abs(a) >= n * np.pi):
            raise DomainError(f"angles must lie in (-{n}pi, {n}pi)")
        P = k.opuc.eval_weighted(a / n)
        P *= (np.exp(-1j * (n - 1) * a / (2.0 * n)) / math.sqrt(2.0 * np.pi))[:, None]
        return P

    return rows(alphas) @ rows(betas).conj().T / n


# ---------------------------------------------------------------------------
# Limit kernel


@dataclass(frozen=True)
class LimitKernel:
    """Scaling limit of the sign-corrected finite kernels; built from the
    component functions F(x) = J_{s-1/2}(1/|x|)/(2 sqrt|x|) and
    G(x) = sgn(x) J_{s+1/2}(1/|x|)/sqrt|x|."""

    param: HPParam
    # relative distance |x-y| / max(|x|,|y|) below which an entry is taken
    # as the diagonal at the midpoint: the difference quotient loses about
    # -log10(h_diag) digits there, the midpoint value is off by O(h_diag^2)
    h_diag: ClassVar[float] = 1e-5

    def __post_init__(self):
        if self.param.s <= -0.5:
            raise DomainError("limit kernel requires s > -1/2")


def _limit_ab(s: float, z: np.ndarray, jv=None):
    """(J_{s-1/2}(z), J_{s+1/2}(z)) with J_{s+1/2} evaluated once; below
    order -1/2, J_{s-1/2}(z) = ((2s+1)/z) J_{s+1/2}(z) - J_{s+3/2}(z)
    (DLMF 10.6.1) takes J_{s-1/2} one step down from it.  jv(nu, z) stands
    in for bessel_j when given."""
    jv = jv or bessel_j
    nu = s - 0.5
    b = jv(s + 0.5, z)
    if nu >= -0.5:
        return jv(nu, z), b
    return (2.0 * s + 1.0) / z * b - jv(s + 1.5, z), b


def _limit_FG(s: float, x: np.ndarray):
    return _FG_ab(x, *_limit_ab(s, 1.0 / np.abs(x)))


def _FG_ab(x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """F, G at x from a = J_{s-1/2}(1/|x|) and b = J_{s+1/2}(1/|x|)."""
    ax = np.abs(x)
    return a / (2.0 * np.sqrt(ax)), np.sign(x) * b / np.sqrt(ax)


def _limit_diag(s: float, x: np.ndarray) -> np.ndarray:
    """K(x, x) = F'(x) G(x) - F(x) G'(x) in closed form.

    With z = 1/|x|, a = J_{s-1/2}(z), b = J_{s+1/2}(z) and
    J'_nu = (nu/z) J_nu - J_{nu+1}, J'_{nu+1} = J_nu - ((nu+1)/z) J_{nu+1}
    (DLMF 10.6.2) this is z^2 ((z/2)(a^2 + b^2) - s a b), even in x;
    at s = 0 it is 1/(pi x^2).
    """
    z = 1.0 / np.abs(x)
    return _diag_ab(s, z, *_limit_ab(s, z))


def _diag_ab(s: float, z, a, b):
    """The closed-form diagonal of _limit_diag from z, a and b."""
    return z * z * (0.5 * z * (a * a + b * b) - s * a * b)


def _near(x: float, y: float) -> bool:
    """Whether limit_kernel_matrix takes the (x, y) entry as the diagonal at
    the midpoint."""
    return abs(x - y) < LimitKernel.h_diag * max(abs(x), abs(y))


def _entry(s: float, x: float, y: float, FGxy) -> float:
    """K(x, y) from F, G at [x, y], formed as limit_kernel_matrix forms its
    entry: the closed-form diagonal at the midpoint where _near holds."""
    if _near(x, y):
        return float(_limit_diag(s, np.array([0.5 * (x + y)]))[0])
    (Fx, Fy), (Gx, Gy) = FGxy
    return float((Fx * Gy - Fy * Gx) / (x - y))


def eval_limit_kernel(k: LimitKernel, x: float, y: float) -> float:
    """(F(x)G(y) - F(y)G(x))/(x - y); the 1x1 case of limit_kernel_matrix."""
    return float(limit_kernel_matrix(k, [x], [y])[0, 0])


def limit_kernel_matrix(k: LimitKernel, xs, ys) -> np.ndarray:
    """Kernel on a grid: the difference quotient off the diagonal, and the
    closed-form diagonal at the midpoint for entries with
    |x - y| < h_diag max(|x|, |y|)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs == 0.0) or np.any(ys == 0.0):
        raise DomainError("limit kernel is defined on R*")
    s = k.param.s
    Fx, Gx = _limit_FG(s, xs)
    Fy, Gy = _limit_FG(s, ys)
    num = Fx[:, None] * Gy[None, :] - Fy[None, :] * Gx[:, None]
    den = xs[:, None] - ys[None, :]
    scale = np.maximum(np.abs(xs)[:, None], np.abs(ys)[None, :])
    near = np.abs(den) < k.h_diag * scale
    out = np.empty_like(num)
    np.divide(num, den, out=out, where=~near)
    if near.any():
        out[near] = _limit_diag(s, 0.5 * (xs[:, None] + ys[None, :])[near])
    return out


# ---------------------------------------------------------------------------
# V-functions


@dataclass(frozen=True)
class VFunction:
    """Rank-one function linking parameters s and s+1.

    flavor "limit": V(x) = sgn(x) 2^{s+1/2} Gamma(s+3/2) J_{s+1/2}(1/|x|)/sqrt|x|;
    flavor "prelimit": V(x) = N^{1+s} sgn(x)^N p_{N-1}(Nx) sqrt(phi_N(Nx)).
    """

    param: HPParam
    flavor: str = "limit"
    N: int = 0
    # the prelimit flavor's line basis, built in __post_init__
    monic: MonicLineBasis | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if self.param.s <= -0.5:
            raise DomainError("V requires s > -1/2")
        if self.flavor not in ("limit", "prelimit"):
            raise DomainError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "prelimit":
            if self.N < 2:
                raise DomainError("prelimit flavor needs N >= 2")
            object.__setattr__(self, "monic", build_monic_line(self.param, self.N))


def eval_V(v: VFunction, x):
    """V at points of R* (vectorized)."""
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xx == 0.0):
        raise DomainError("V is defined on R*")
    s = v.param.s
    if v.flavor == "limit":
        ax = np.abs(xx)
        out = (
            np.sign(xx)
            * 2.0 ** (s + 0.5)
            * gamma_fn(s + 1.5)
            * bessel_j(s + 0.5, 1.0 / ax)
            / np.sqrt(ax)
        )
    else:
        N = v.N
        # p_{N-1}(t) sqrt(phi_N(t)) = sqrt(h_{N-1}) times the orthonormal
        # function; N^{1+s} sqrt(h_{N-1}) is taken in logs, as its factors
        # overflow separately where the product does not
        scale = math.exp(0.5 * (log_v_norm_sq(s, N) + math.log(N)))
        out = scale * np.sign(xx) ** N * v.monic.eval_weighted(N * xx)[:, N - 1]
    return float(out[0]) if np.ndim(x) == 0 else out


def v_norm_sq_closed(v: VFunction) -> float:
    """Closed form of the squared L^2 norm: 2^{2s+1} Gamma(s+1/2)^2 (s+1/2)
    for the limit flavor, N^{1+2s} h_{N-1} for the prelimit flavor."""
    s = v.param.s
    if v.flavor == "limit":
        return float(2.0 ** (2.0 * s + 1.0) * gamma_fn(s + 0.5) ** 2 * (s + 0.5))
    return math.exp(log_v_norm_sq(s, v.N))


def log_v_norm_sq(s: float, N: int) -> float:
    """ln(N^{1+2s} h_{N-1}), finite where the prelimit norm overflows."""
    return (1.0 + 2.0 * s) * math.log(N) + math.log(math.pi) + top_log_gammas(s, N)


def v_norm_sq_quadrature(v: VFunction) -> float:
    """Squared norm by quadrature of eval_V itself.

    Limit flavor: substitute u = 1/x, integrate V(1/u)^2/u^2 by panel GL on
    (0, T] (panel length ~pi tracks the oscillation) plus the closed
    asymptotic tail of the resulting J^2/u integrand beyond T.
    Prelimit flavor: t = Nx panels on [0, T] plus the monic-leading tail
    T^(-2s-1)/(2s+1) (relative error O(T^-2)).  T = 2000.
    """
    s, T = v.param.s, 2000.0
    if v.flavor == "limit":
        n_panels = max(8, int(math.ceil(T / math.pi)))
        u, wq = panel_nodes(0.0, T, n_panels, 16)
        vals = eval_V(v, 1.0 / u)
        main = float(np.sum(wq * vals**2 / (u * u)))
        c2 = (2.0 ** (s + 0.5) * gamma_fn(s + 1.5)) ** 2
        return 2.0 * (main + c2 * jsq_over_t_tail(s + 0.5, T))
    N = v.N
    n_panels = max(64, int(T))  # weight varies on unit scale in t = Nx
    t, wq = panel_nodes(0.0, T, n_panels, 12)
    vals = eval_V(v, t / N)
    # substitution t = Nx: integral of V^2 dx = integral of V(t/N)^2 dt / N;
    # beyond T the monic leading term gives N^{2+2s} t^{-2s-2}, hence the
    # closed tail below (relative error O(T^-2))
    main = float(np.sum(wq * vals**2)) / N
    tail = N ** (1.0 + 2.0 * s) * T ** (-(2.0 * s + 1.0)) / (2.0 * s + 1.0)
    return 2.0 * (main + tail)


# ---------------------------------------------------------------------------
# Identity checks


# the projection check's plan: |gamma| < _PROJ_DELTA in t = 1/gamma, then
# panels of _PROJ_NODES Gauss nodes graded like the wavelength ~ pi gamma^2
_PROJ_DELTA, _PROJ_NODES = 0.05, 8


@dataclass(frozen=True)
class ProjectionQuad:
    """Quadrature plan for the projection check: the inner region
    |gamma| < _PROJ_DELTA is integrated in t = 1/gamma up to t = t_max,
    which sets the unresolved window |gamma| < 1/t_max of the bound."""

    t_max: float = 2.0e4


def _graded_edges(a: float, b: float) -> np.ndarray:
    edges = [a]
    g = a
    while g < b:
        g = g + 0.5 * g * g
        edges.append(min(g, b))
    return np.asarray(edges)


def _pm_products(x: float, y: float, FGxy, a: np.ndarray, F, G):
    """K(x,g) K(g,y) at g = +a and at g = -a, from F, G evaluated once at
    a > 0 by parity: F(-g) = F(g), G(-g) = -G(g); FGxy holds F, G at
    [x, y].  The products Fx G, F Gx, F Gy and Fy G serve both signs, as
    Fx (-G) = -(Fx G) bit for bit.  Nodes within 1e-9 of x or y add
    exactly 0; that mask is built only for a sign whose nodes come within
    1e-8 of x or y (the wider margin leaves no case to rounding)."""
    (Fx, Fy), (Gx, Gy) = FGxy
    lo, hi = a.min() - 1e-8, a.max() + 1e-8
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # two products at a time: at most six node-sized arrays are live
        p, q = Fx * G, F * Gx
        lefts = p - q, -p - q
        p, q = F * Gy, Fy * G
        rights = p - q, p + q
        del p, q
        for sgn, vals, right in zip((1.0, -1.0), lefts, rights):
            g = sgn * a
            # in place: each array serves one sign only
            vals /= x - g
            right /= g - y
            vals *= right
            if lo <= sgn * x <= hi or lo <= sgn * y <= hi:
                keep = (np.abs(g - x) > 1e-9) & (np.abs(g - y) > 1e-9)
                vals = np.where(keep, vals, 0.0)
            out.append(vals)
    return out


@functools.lru_cache(maxsize=4)
def _inner_table(s: float, q: ProjectionQuad):
    """Nodes t, weights w and F, G at g = 1/t on the inner region |g| <
    _PROJ_DELTA of check_projection; independent of (x, y), hence kept per
    (s, plan) and read-only."""
    t0 = 1.0 / _PROJ_DELTA
    n_panels = int(math.ceil((q.t_max - t0) / math.pi))
    tg, tw = panel_nodes(t0, q.t_max, n_panels, _PROJ_NODES)
    table = (tg, tw, *_limit_FG(s, 1.0 / tg))
    for arr in table:
        arr.flags.writeable = False
    return table


# the smallest s check_projection takes; `hpk check kernels` refuses below it
_PROJECTION_S_MIN = -0.49


def check_projection(
    k: LimitKernel,
    x: float,
    y: float,
    R_trunc: float = 100.0,
    quad: ProjectionQuad | None = None,
):
    """Residual of the reproducing identity int K(x,g) K(g,y) dg = K(x,y)
    truncated to |g| <= R_trunc; returns (residual, certified tail bound).

    The bound has two certified pieces: the |g| > R tail via Cauchy-Schwarz
    with the envelope |J_nu(z)| <= (z/2)^nu e^{z^2/4}/Gamma(nu+1), which is
    ~ R^(-2s-1) (O(1/R) at s=0 and dominant there), plus the unresolved
    window |g| < 1/t_max inside the oscillatory region, a floor ~ 1e-5 at
    the default plan that only matters once the tail piece is smaller.

    F and G are evaluated once per node |g| and shared by g = +|g| and
    g = -|g| through their parity.  The inner region |g| < _PROJ_DELTA
    does not depend on (x, y): its nodes, weights and F, G are held per
    (s, plan), about 1.6 MB at the default plan, at most 4 entries.  F and
    G at x and y are evaluated once and serve the products, the target
    K(x, y) and both pieces of the bound.
    """
    s = k.param.s
    if s < _PROJECTION_S_MIN:
        raise DomainError(f"projection check requires s >= {_PROJECTION_S_MIN}")
    q = quad or ProjectionQuad()
    if R_trunc <= 2.0 * max(abs(x), abs(y), 1.0):
        raise DomainError("R_trunc too small for the tail estimate")
    FGxy = _limit_FG(s, np.array([x, y]))
    total = 0.0
    # inner oscillatory region via t = 1/gamma on both sides
    tg, tw, F, G = _inner_table(s, q)
    for vals in _pm_products(x, y, FGxy, 1.0 / tg, F, G):
        total += float(np.sum(tw * vals / (tg * tg)))
    # graded panels on _PROJ_DELTA <= |gamma| <= R
    g_nodes, g_w = gauss_panels(_graded_edges(_PROJ_DELTA, R_trunc), _PROJ_NODES)
    for vals in _pm_products(x, y, FGxy, g_nodes, *_limit_FG(s, g_nodes)):
        total += float(np.sum(g_w * vals))
    if not math.isfinite(total):
        raise QuadFailure("projection quadrature produced non-finite value")
    target = _entry(s, x, y, FGxy)
    residual = abs(total - target)

    def tail_l2(Fp, Gp, pt: float) -> float:
        # int_{|g|>R} K(pt,g)^2 dg <= closed bound from the small-argument
        # Bessel envelopes at |g| >= R
        R = R_trunc
        e = math.exp(1.0 / (4.0 * R * R))
        cF = 2.0 ** (-s - 0.5) * e / abs(gamma_fn(s + 0.5))
        cG = 2.0 ** (-s - 0.5) * e / gamma_fn(s + 1.5)
        amp = cF * abs(Gp) + cG * abs(Fp) / R
        geom = (1.0 - abs(pt) / R) ** (-2.0)
        return 2.0 * geom * amp * amp * R ** (-2.0 * s - 1.0) / (2.0 * s + 1.0)

    # unresolved inner window |g| < 1/t_max: large-argument envelope
    # |J_nu(z)| <= 1.1 sqrt(2/(pi z)) for z >= 20 makes the product bounded
    def near_zero_amp(Fp, Gp, pt: float) -> float:
        return (0.88 * abs(Fp) + 0.44 * abs(Gp)) / (abs(pt) - 1.0 / q.t_max)

    (Fx, Fy), (Gx, Gy) = FGxy
    inner = 2.0 / q.t_max * near_zero_amp(Fx, Gx, x) * near_zero_amp(Fy, Gy, y)
    bound = math.sqrt(tail_l2(Fx, Gx, x) * tail_l2(Fy, Gy, y)) + inner
    return residual, bound


def check_limit_recurrence(s: float, x: float, y: float) -> float:
    """Residual of the parameter-shift identity
    K^(s)(x,y) = sgn(x)sgn(y) [K^(s+1)(x,y) +
                 (s+1/2)/sqrt|xy| J_{s+1/2}(1/|x|) J_{s+1/2}(1/|y|)].

    z = 1/|[x, y]| is formed once (with the midpoint appended where the
    entries are the diagonal there), and bessel_j is called once per
    distinct order on it: K^(s), K^(s+1) and the rank-one term all read
    those values, which equal what eval_limit_kernel and scalar bessel_j
    calls give, so the residual does too, bit for bit.
    """
    if s <= -0.5:
        raise DomainError("requires s > -1/2")
    if x == 0.0 or y == 0.0:
        raise DomainError("defined on R*")
    near = _near(x, y)
    pts = np.array([x, y, 0.5 * (x + y)] if near else [x, y])
    z = 1.0 / np.abs(pts)
    J = {}

    def jv(nu, _z):
        # the orders are keyed as floats: (s+1) - 1/2 need not equal s + 1/2
        if nu not in J:
            J[nu] = bessel_j(nu, z)
        return J[nu]

    def kernel(t: float) -> float:
        a, b = _limit_ab(t, z, jv)
        if near:
            return float(_diag_ab(t, z[2], a[2], b[2]))
        return _entry(t, x, y, _FG_ab(pts, a, b))

    lhs = kernel(s)
    sg = math.copysign(1.0, x) * math.copysign(1.0, y)
    jx, jy = (float(v) for v in J[s + 0.5][:2])
    rank1 = (s + 0.5) / math.sqrt(abs(x * y)) * jx * jy
    rhs = sg * (kernel(s + 1.0) + rank1)
    return abs(lhs - rhs)


def _kernel_at(F: np.ndarray, i: int) -> float:
    """K(x, y) from the feature rows F[i] (at x) and F[i + 1] (at y), the
    product formed as kernel_matrix forms it."""
    return float((F[i:i + 1] @ F[i + 1:i + 2].conj().T).real[0, 0])


def check_finite_recurrence(s: float, N: int, x: float, y: float) -> float:
    """Residual of the finite-N shift identity: with P_N = sgn-corrected
    kernel, P_N^(s)(x,y) = sgn(x)sgn(y) (N/(N-1)) P_{N-1}^(s+1)(Nx/(N-1),
    Ny/(N-1)) + V(x)V(y)/||V||^2.

    The two kernels are built on different routes (circle transport vs
    direct line construction) so the identity doubles as a cross check.
    """
    return _finite_recurrence_residuals(s, N, [(x, y)])[0]


def _finite_recurrence_residuals(s: float, N: int, pairs) -> list[float]:
    """check_finite_recurrence at each (x, y) of pairs, each of the three
    bases evaluated once at all the points."""
    if N < 2:
        raise DomainError("N >= 2 required")
    pts = np.array(pairs, dtype=float).ravel()  # x0, y0, x1, y1, ...
    if np.any(pts == 0.0):
        raise DomainError("defined on R*")
    kN = build_finite_kernel(HPParam(s), N, "circle_cayley")
    kM = build_finite_kernel(HPParam(s + 1.0), N - 1, "line_direct")
    v = VFunction(HPParam(s), "prelimit", N)
    uw = N * pts / (N - 1.0)
    FN = kN.feature_matrix(pts)
    FM = kM.feature_matrix(uw)
    V = eval_V(v, pts)
    norm = v_norm_sq_closed(v)
    out = []
    for i in range(0, pts.size, 2):
        x, y = pts[i], pts[i + 1]
        sx, sy = math.copysign(1.0, x), math.copysign(1.0, y)
        lhs = sx**N * sy**N * _kernel_at(FN, i)
        pi_small = (
            math.copysign(1.0, uw[i]) ** (N - 1)
            * math.copysign(1.0, uw[i + 1]) ** (N - 1)
            * _kernel_at(FM, i)
        )
        rank1 = float(V[i] * V[i + 1]) / norm
        rhs = sx * sy * (N / (N - 1.0)) * pi_small + rank1
        out.append(abs(lhs - rhs))
    return out


def convergence_profile(s: float, N_list, grid) -> list[tuple[int, float]]:
    """Sup over the grid square of |sgn^N-corrected K_N - limit kernel|,
    reported per N (trend table; the limit is approached without a stated
    rate, so tests assert monotonicity with slack, not speed)."""
    grid = np.asarray(grid, dtype=float)
    lim = LimitKernel(HPParam(s))
    target = limit_kernel_matrix(lim, grid, grid)
    out = []
    for N in N_list:
        kN = build_finite_kernel(HPParam(s), int(N))
        K = kN.kernel_matrix(grid, grid)
        sg = np.sign(grid) ** N
        corrected = sg[:, None] * sg[None, :] * K
        out.append((int(N), float(np.max(np.abs(corrected - target)))))
    return out
