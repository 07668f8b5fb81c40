"""Weights on the line and circle, and orthonormal bases for both.

Line weight (1+x^2)^{-s-N}; one circle weight c_s (2+2cos theta)^s, singular
at z = -1 and normalized against d theta/2pi.  Both bases are stored as
recurrence coefficients and evaluated by recurrence in double precision,
and each has one weighted evaluation, the orthonormal functions
sqrt(weight) p_k: the line basis at t, the circle basis at the signed angle
phi from the singular point, z = -e^{i phi}, so a point next to it keeps
its relative precision:

- circle: the closed-form Verblunsky coefficients of the circular Jacobi
  weight, alpha_k = (-1)^k s/(k+s+1), run through the Szego recursion
  (Simon, OPUC, 2005; Bourgade-Nikeghbali-Rouault, IMRN 2009);
- line: the monic pseudo-Jacobi (Romanovski) three-term recurrence
  p_{k+1} = x p_k - b_k p_{k-1}, b_k = k(2a-k)/((2a-2k-1)(2a-2k+1)),
  a = s+N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "HPParam",
    "OPUCBasis",
    "MonicLineBasis",
    "eval_line_weight",
    "build_opuc",
    "cd_identity_residual",
    "build_monic_line",
]


@dataclass(frozen=True)
class HPParam:
    """Real ensemble parameter s with its shifted representative.

    n_s is the smallest non-negative integer with s + n_s > -1/2, so the
    shifted parameter s_prime = s + n_s always lies in (-1/2, 1/2] when
    s <= -1/2 and equals s otherwise.
    """

    s: float
    n_s: int = field(init=False)
    s_prime: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.s, complex) or not math.isfinite(self.s):
            raise DomainError(f"s must be real and finite, got {self.s!r}")
        n = 0 if self.s > -0.5 else math.ceil(-0.5 - self.s + 1e-15)
        while self.s + n <= -0.5:  # guard the boundary s + n = -1/2 exactly
            n += 1
        object.__setattr__(self, "n_s", n)
        object.__setattr__(self, "s_prime", self.s + n)


def eval_line_weight(param: HPParam, N: int, x) -> float | np.ndarray:
    """(1 + x^2)^(-s-N); invariant under (s, N) -> (s+m, N-m)."""
    if N < 1:
        raise DomainError("N >= 1 required")
    xx = np.asarray(x, dtype=float)
    out = (1.0 + xx * xx) ** (-(param.s + N))
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# OPUC basis


@dataclass(frozen=True)
class OPUCBasis:
    """Orthonormal polynomials p_0..p_{n-1} for the circle weight lambda.

    alpha holds the (real) Verblunsky coefficients alpha_0..alpha_{n-2};
    the diagnostic gram_residual is computed on first read.
    """

    param: HPParam
    degree_count: int
    alpha: np.ndarray

    @functools.cached_property
    def gram_residual(self) -> float:
        """max |G - I| over the first m = min(n, 32) degrees, G the Gram of
        eval_weighted rows against d phi/2pi.

        In x = cos phi the weight is (1-x)^(s-1/2) (1+x)^(-1/2) up to a
        constant, so the m-node Gauss-Jacobi rule, mirrored to +-phi, is
        exact for G and the value measures rounding only.  Raises
        DomainError where the rule is not representable, as s -> -1/2.
        """
        from scipy.special import roots_jacobi

        s = self.param.s
        m = min(self.degree_count, 32)
        if s - 0.5 <= -1.0:
            raise DomainError(f"no Gauss-Jacobi rule in double precision at s={s!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            x, w = roots_jacobi(m, s - 0.5, -0.5)
            one_minus = 1.0 - x
            # w (1-x)^(-s) undoes the weight that eval_weighted carries
            wt = np.exp(np.log(w) - s * np.log(one_minus) - math.log(2.0 * math.pi))
        if not (np.all(w > 0) and np.all(one_minus > 0) and np.all(np.isfinite(wt))):
            raise DomainError(f"no Gauss-Jacobi rule in double precision at s={s!r}")
        phi = 2.0 * np.arcsin(np.sqrt(0.5 * one_minus))
        P = self.eval_weighted(np.concatenate((phi, -phi)))[:, :m]
        G = (P.conj().T * np.concatenate((wt, wt))) @ P
        return float(np.max(np.abs(G - np.eye(m))))

    def eval_all(self, z) -> np.ndarray:
        """Evaluate all basis polynomials: returns (len(z), degree_count)."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        return _szego(self.alpha, zz)[0]

    def eval_weighted(self, phi) -> np.ndarray:
        """Orthonormal functions sqrt(lambda) p_k at z = -e^{i phi}, phi in
        [-pi, pi] the signed angle from the singular point -1: returns
        (len(phi), degree_count).  sqrt(lambda) comes from _root_weight, so
        nothing overflows at any s; DomainError at phi = 0 when s < 0.
        """
        ff = np.atleast_1d(np.asarray(phi, dtype=float))
        root, e = _root_weight(self.param.s, ff)
        P = self.eval_all(-np.exp(1j * ff))
        # scaled in place: a fresh (points, degrees) product costs page faults
        P *= root[:, None]
        if np.any(e):
            flat = P.view(float)
            np.ldexp(flat, e[:, None], out=flat)
        return P

    def diag_weighted(self, phi, factor=1.0) -> np.ndarray:
        """The weighted diagonal sum_k |factor sqrt(lambda) p_k|^2 at
        z = -e^{i phi}, over all degree_count degrees: the row sums of
        |factor eval_weighted(phi)|^2, in O(points) memory.

        One Szego pass adds each weighted |p_k|^2 to a per-point sum.  The
        weight and factor enter every term before it is squared, never the
        sum: sum |p_k|^2 alone overflows near phi = 0 at s = 300, n = 1000,
        and where a term falls below the normal range it rounds as the same
        entry of factor eval_weighted(phi) does.
        """
        ff = np.atleast_1d(np.asarray(phi, dtype=float))
        root, e = _root_weight(self.param.s, ff)
        acc = _szego_sq_sum(self.alpha, -np.exp(1j * ff), root * factor)
        return np.ldexp(acc, 2 * e)


def _root_weight(s: float, phi: np.ndarray):
    """sqrt(lambda(phi)) = root 2^e, lambda = c_s |2 sin(phi/2)|^(2s), phi in
    [-pi, pi] the signed angle from the singular point -1: returns (root, e).

    root is formed from phi itself, as sqrt(c_s 4^s) |sin(phi/2)|^s: c_s 4^s
    ~ sqrt(pi s) and the power is at most 1, so neither overflows at any s;
    e = 0.  Where that root falls below the normal range (from s ~ 100) it
    has lost digits: it is formed in logs instead, with half its binary
    exponent moved into e, so root p_k and its square stay in range.
    Raises DomainError at phi = 0 when s < 0, where the weight blows up
    (integrably).
    """
    if np.any(np.abs(phi) > np.pi):
        raise DomainError("phi must lie in [-pi, pi]")
    if s < 0 and np.any(phi == 0.0):
        raise DomainError(f"weight singular at z = -1 for s={s}")
    # c_s = Gamma(s+1)^2 / Gamma(2s+1), in logs with the 4^s folded in
    root_c = math.exp(math.lgamma(s + 1.0) - 0.5 * math.lgamma(2.0 * s + 1.0)
                      + s * math.log(2.0))
    sin_half = np.abs(np.sin(0.5 * phi))
    root = sin_half ** s * root_c
    e = np.zeros(root.shape, dtype=int)
    low = (root < np.finfo(float).tiny) & (sin_half > 0.0)
    if np.any(low):
        log2 = s * np.log2(sin_half[low]) + math.log2(root_c)
        e[low] = np.floor(0.5 * log2)
        root[low] = np.exp2(log2 - e[low])
    return root, e


def _szego(alpha: np.ndarray, z: np.ndarray):
    """Szego recursion at the points z: returns (P, star) with P[:, k] =
    p_k(z) for k = 0..len(alpha) and star = p*_{len(alpha)}(z)."""
    rho = np.sqrt(1.0 - alpha * alpha)
    P = np.empty((z.size, alpha.size + 1), dtype=complex)
    P[:, 0] = 1.0
    star = np.ones(z.size, dtype=complex)
    for k, (a, r) in enumerate(zip(alpha, rho)):
        zp = z * P[:, k]
        P[:, k + 1] = (zp - a * star) / r
        star = (star - a * zp) / r
    return P, star


_SUM_RUN = 32  # degrees summed apart before _szego_sq_sum adds them in


def _szego_sq_sum(alpha: np.ndarray, z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """sum_{k <= len(alpha)} |scale p_k(z)|^2 by the arithmetic of _szego,
    holding only p_k, p*_k and two sums: each run of _SUM_RUN terms is
    summed on its own and then added to the total, so rounding grows like
    _SUM_RUN + n/_SUM_RUN, not n: one running sum drifts 2.7e-14 relative
    from the pairwise row sums at s = 0, n = 1000."""
    rho = np.sqrt(1.0 - alpha * alpha)
    total = np.zeros(z.size)
    run = scale * scale
    p = star = np.ones(z.size, dtype=complex)
    for k, (a, r) in enumerate(zip(alpha, rho), 1):
        if k % _SUM_RUN == 0:
            total += run
            run = np.zeros(z.size)
        zp = z * p
        p = (zp - a * star) / r
        star = (star - a * zp) / r
        run += np.abs(p * scale) ** 2
    return total + run


def build_opuc(param: HPParam, n: int) -> OPUCBasis:
    """Orthonormal p_0..p_{n-1} from the closed-form Verblunsky coefficients
    alpha_k = (-1)^k s/(k+s+1)."""
    s = param.s
    if s <= -0.5:
        raise DomainError("build_opuc requires s > -1/2")
    if n < 1:
        raise DomainError("degree count must be >= 1")
    k = np.arange(n - 1)
    alpha = s / (k + s + 1.0)
    alpha = np.where(k % 2 == 0, alpha, -alpha)
    return OPUCBasis(param=param, degree_count=n, alpha=alpha)


def cd_identity_residual(basis: OPUCBasis, theta: float, tau: float) -> float:
    """Residual of the Christoffel-Darboux identity
    sum_{k<n} p_k(z) conj(p_k(w)) = (conj(p*_n(w)) p*_n(z) - conj(p_n(w)) p_n(z)) / (1 - z conj(w))
    at z = e^{i theta}, w = e^{i tau}, with n = degree_count - 1: the sum
    runs over all degrees but the top one, which the right side reads."""
    n = basis.degree_count - 1
    z = np.exp(1j * theta)
    wz = np.exp(1j * tau)
    if abs(z - wz) < 1e-14:
        raise DomainError("coincident angles: identity denominator vanishes")
    P, star = _szego(basis.alpha[:n], np.array([z, wz]))
    direct = np.sum(P[0, :n] * np.conj(P[1, :n]))
    closed = (np.conj(star[1]) * star[0] - np.conj(P[1, n]) * P[0, n]) / (
        1.0 - z * np.conj(wz)
    )
    return float(abs(direct - closed))


# ---------------------------------------------------------------------------
# Monic line basis


_LN2 = math.log(2.0)
_LN_TINY = math.log(np.finfo(float).tiny)  # ln of the smallest normal double


@dataclass(frozen=True)
class MonicLineBasis:
    """Monic orthogonal polynomials for the line weight (1+x^2)^(-s-N).

    Only degrees 0..N-1 are square-integrable against the weight, and the
    basis holds exactly those.  b[k] is the recurrence coefficient b_k
    (b[0] = 0); sq_norms[k] is the squared weight-norm h_k = h_0 b_1 ... b_k.
    """

    param: HPParam
    N: int
    b: np.ndarray
    sq_norms: np.ndarray

    @property
    def degree_count(self) -> int:
        return self.N

    def eval_all(self, x) -> np.ndarray:
        """Evaluate all polynomials: returns (len(x), degree_count)."""
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        P = np.empty((xx.size, self.degree_count))
        P[:, 0] = 1.0
        for k in range(1, self.degree_count):
            P[:, k] = xx * P[:, k - 1]
            if k > 1:
                P[:, k] -= self.b[k - 1] * P[:, k - 2]
        return P

    def eval_weighted(self, t) -> np.ndarray:
        """Orthonormal functions p_k(t) sqrt(w(t)/h_k), w = (1+t^2)^(-s-N):
        returns (len(t), degree_count).

        The orthonormal recurrence runs on r_k = p_k(t) (1+t^2)^(-k/2)/sqrt(h_k),
        rescaled by a power of two at every step; the remaining weight power
        (1+t^2)^((k-s-N)/2) enters per degree.  Nothing overflows or
        underflows before the final product, even for t = N x at N ~ 1000.
        Where a half_log passes -ln(tiny), the weight power itself can fall
        below the normal range: on those rows it is taken as
        2^q exp((k - a) half_log - q ln 2) and q joins the final exponent.
        """
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        a = self.param.s + self.N
        half_log = 0.5 * np.log1p(tt * tt)
        u = tt / np.sqrt(1.0 + tt * tt)
        c2 = 1.0 / (1.0 + tt * tt)
        rb = np.sqrt(self.b)
        out = np.empty((tt.size, self.degree_count))
        prev = np.zeros_like(tt)
        cur = np.full_like(tt, 1.0 / math.sqrt(self.sq_norms[0]))
        expo = np.zeros(tt.shape, dtype=int)
        deep = np.flatnonzero(a * half_log > -_LN_TINY)
        for k in range(self.degree_count):
            if k:
                prev, cur = cur, (u * cur - rb[k - 1] * c2 * prev) / rb[k]
                _, e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
                prev, cur, expo = np.ldexp(prev, -e), np.ldexp(cur, -e), expo + e
            w = (k - a) * half_log
            power, shift = np.exp(w), expo
            if deep.size:
                q = np.floor(w[deep] / _LN2)
                power[deep] = np.exp(w[deep] - q * _LN2)
                shift = expo.copy()
                shift[deep] += q.astype(int)
            out[:, k] = np.ldexp(cur * power, shift)
        return out


def top_log_gammas(s: float, N: int) -> float:
    """ln(h_{N-1}/pi) = ln of 2^(-2s) Gamma(2s+1) Gamma(2s+2) Gamma(N) /
    (Gamma(s+1)^2 Gamma(N+1+2s)); each Gamma overflows past 171."""
    return (
        -2.0 * s * math.log(2.0)
        + math.lgamma(2.0 * s + 1.0)
        + math.lgamma(2.0 * s + 2.0)
        - 2.0 * math.lgamma(s + 1.0)
        + math.lgamma(N)
        - math.lgamma(N + 1.0 + 2.0 * s)
    )


def build_monic_line(param: HPParam, N: int) -> MonicLineBasis:
    """Monic pseudo-Jacobi polynomials p_0..p_{N-1}, the N-dimensional space
    the finite kernel projects onto (higher degrees are not square-integrable
    against the weight), from the closed form
    b_k = k(2a-k)/((2a-2k-1)(2a-2k+1)), a = s+N, and
    h_0 = sqrt(pi) Gamma(a-1/2)/Gamma(a)."""
    s = param.s
    if s <= -0.5:
        raise DomainError("build_monic_line requires effective s > -1/2")
    if N < 1:
        raise DomainError("N >= 1 required")
    a = s + N
    k = np.arange(1, N)
    # 2a - 2k -+ 1 formed from 2s + 1: at k = N-1 and s -> -1/2 it is 2s + 1,
    # whose digits 2a - 2k - 1 loses to 2a
    c = 2.0 * s + 1.0
    b = np.concatenate(([0.0], k * (2 * a - k) / ((c + 2 * (N - 1 - k)) * (c + 2 * (N - k)))))
    log_h0 = 0.5 * math.log(math.pi) + math.lgamma(a - 0.5) - math.lgamma(a)
    # the product h_0 b_1 ... b_k is summed in logs: mid-range h_k drop
    # below the double-precision range at N ~ 1000 while h_{N-1} does not
    log_h = log_h0 + np.concatenate(([0.0], np.cumsum(np.log(b[1:]))))
    return MonicLineBasis(param, N, b, np.exp(log_h))
