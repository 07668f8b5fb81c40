"""Machinery for the parameter range s <= -1/2, where the weight stops
being normalizable and the process is described by a sigma-finite family.

The shifted parameter s' = s + n_s lands back in the probability regime;
what is lost is spanned by the n_s extra functions v_k(x) = x^k V_{s'}(x),
which grow too fast to be square-integrable.  Everything observable at
desk scale goes through the Gaussian damping g(x) = exp(-sigma x^2):
  - the damped subspace sqrt(g) (kernel modes + v-functions) has an
    honest orthogonal grid projection (idempotent, finite rank),
  - the operator sqrt(1-g) Pi sqrt(1-g) is strictly contractive, which is
    what makes the damped object well posed,
  - the weight exp(-sigma S_2) is the multiplicative functional tying the
    damped process to configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscretizationWarning,
    DomainError,
    NearSingular,
    QuadFailure,
)
from .kernels import VFunction, build_finite_kernel, eval_V
from .quadrature import gauss_panels, panel_nodes
from .sampling import sequential_projection_draws
from .weights_opuc import HPParam

import warnings

__all__ = [
    "VBasis",
    "DampedGrid",
    "DampedProjectionGrid",
    "make_damped_grid",
    "eval_v_basis",
    "growth_certificate",
    "l2_verdict_from_exponent",
    "tail_growth_slope",
    "contraction_norm",
    "damped_projection",
    "s2_functional",
    "sample_damped_dpp",
]

# rank of the finite-N kernel that stands in for the limit kernel on a grid
PROXY_N = 64


@dataclass(frozen=True)
class VBasis:
    """The n_s functions v_k(x) = x^k V_{s'}(x), k = 1..n_s."""

    param: HPParam

    def __post_init__(self):
        if self.param.n_s < 1:
            raise DomainError("v-basis exists only for s <= -1/2 (n_s >= 1)")

    @property
    def size(self) -> int:
        return self.param.n_s

    def _limit_v(self) -> VFunction:
        return VFunction(HPParam(self.param.s_prime), "limit")


def eval_v_basis(vb: VBasis, k: int, x):
    """v_k(x) = x^k V_{s'}(x) on R*; DomainError at 0."""
    if not 1 <= k <= vb.size:
        raise DomainError(f"index k={k} outside 1..{vb.size}")
    xx = np.asarray(x, dtype=float)
    out = xx**k * eval_V(vb._limit_v(), x)
    return float(out) if np.ndim(x) == 0 else out


def l2_verdict_from_exponent(exponent: float) -> str:
    """Calculus threshold: |x|^e is square-integrable at infinity iff
    e < -1/2."""
    return "square-integrable" if exponent < -0.5 else "not-square-integrable"


def growth_certificate(vb: VBasis, k: int):
    """(growth exponent k - 1 - s', L2 verdict) for v_k at infinity."""
    if not 1 <= k <= vb.size:
        raise DomainError(f"index k={k} outside 1..{vb.size}")
    exponent = k - 1.0 - vb.param.s_prime
    return exponent, l2_verdict_from_exponent(exponent)


def tail_growth_slope(vb: VBasis, k: int) -> float:
    """Log-log slope of T -> integral of v_k^2 over [1, T], T = 2 4^j, j < 10.

    For a non-square-integrable v_k the integral follows the power law
    T^(2 exponent + 1); the slope is fit on the last four T.
    """
    Ts = [2.0 * 4.0**j for j in range(10)]
    vals = []
    total = 0.0
    lo = 1.0
    for T in Ts:
        x, w = panel_nodes(lo, T, 32)
        fx = eval_v_basis(vb, k, x)
        total += float(np.sum(w * fx * fx))
        vals.append(total)
        lo = T
    if vals[-1] <= 0 or not all(math.isfinite(v) for v in vals):
        raise QuadFailure("tail integral did not produce finite positive values")
    logT = np.log(Ts[-4:])
    logI = np.log(vals[-4:])
    slope, _ = np.polyfit(logT, logI, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class DampedGrid:
    """Symmetric quadrature grid on [-R, R] minus a hole at 0.

    Inner nodes come from Gauss panels in t = 1/x (uniform in t resolves
    the 1/x oscillation); bulk nodes from Gauss panels in x.  Sums of
    f(nodes) * weights are quadratures of f over the covered window.
    """

    nodes: np.ndarray
    weights: np.ndarray
    R: float

    @property
    def size(self) -> int:
        return len(self.nodes)


def make_damped_grid() -> DampedGrid:
    """The damped regime's grid: [-R, R] = [-6, 6] minus the hole
    |x| < 1/t_max = 1/80, with 16 Gauss nodes a panel, panels 2.5 wide in
    t = 1/x on (1/t_max, delta] = (1/80, 0.08] and 0.25 wide in x on the
    bulk [delta, R], the last of each cut at t_max and R, mirrored."""
    R, delta, t_max = 6.0, 0.08, 80.0
    # oscillatory region (1/t_max, delta]: panels uniform in t = 1/x
    t, wt = gauss_panels(np.minimum(np.arange(1.0 / delta, t_max + 2.5, 2.5), t_max))
    # bulk [delta, R]
    x, w = gauss_panels(np.minimum(np.arange(delta, R + 0.25, 0.25), R))
    xp = np.concatenate([1.0 / t, x])
    wp = np.concatenate([wt / (t * t), w])
    nodes = np.concatenate([-xp[::-1], xp])
    weights = np.concatenate([wp[::-1], wp])
    return DampedGrid(nodes, weights, float(R))


def _proxy_features(s_prime: float, grid: DampedGrid, proxy_N: int) -> np.ndarray:
    """Orthonormal grid columns spanning the finite-N proxy of the limit
    kernel: rows of the feature matrix scaled by sqrt(weights)."""
    k = build_finite_kernel(HPParam(s_prime), proxy_N)
    F = k.feature_matrix(grid.nodes)  # (n, N), K = F F^H
    return F * np.sqrt(grid.weights)[:, None]


def _kernel_eigenbasis(s_prime: float, grid: DampedGrid, m: int,
                       proxy_N: int) -> np.ndarray:
    """Top-m eigenvectors of the real discretized proxy kernel
    sqrt(w) K sqrt(w), eigenvalues descending, each vector's largest
    entry made positive.  The kernel is B B^T with B = [Re A, Im A]
    (gauge phases cancel), so the dense eigenproblem reduces to the
    small Gram B^T B.  The top eigenvalues must stay near 1 (grid must
    actually carry m modes); far-smaller ones signal too small a window."""
    A = _proxy_features(s_prime, grid, proxy_N)
    if m > proxy_N:
        raise DomainError(f"degree cap {m} above proxy rank {proxy_N}")
    B = np.hstack([A.real, A.imag])
    lam, W = np.linalg.eigh(B.T @ B)
    lam, W = lam[::-1], W[:, ::-1]
    if lam[m - 1] < 0.5:
        raise DomainError(
            f"grid supports only modes with eigenvalue >= 0.5; "
            f"mode {m} has {lam[m - 1]:.3e}"
        )
    U = B @ (W[:, :m] / np.sqrt(lam[:m]))
    for j in range(m):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U


def contraction_norm(s_prime: float, sigma: float, grid: DampedGrid) -> float:
    """Largest eigenvalue of sqrt(1-g) Pi sqrt(1-g) on the grid, with the
    rank-PROXY_N kernel standing in for the limit kernel.  Strictly below 1;
    DiscretizationWarning if within 1e-3 of 1."""
    if sigma <= 0:
        raise DomainError("sigma > 0 required")
    if s_prime <= -0.5:
        raise DomainError("s' > -1/2 required")
    A = _proxy_features(s_prime, grid, PROXY_N)
    root = np.sqrt(-np.expm1(-sigma * grid.nodes**2))
    B = A * root[:, None]
    # spectrum of the conjugated kernel via the small Gram matrix B^H B
    val = float(np.linalg.eigvalsh(B.conj().T @ B)[-1].real)
    if val > 1.0 - 1e-3:
        warnings.warn(
            f"contraction eigenvalue {val:.6f} within 1e-3 of 1",
            DiscretizationWarning,
        )
    return val


@dataclass(frozen=True)
class DampedProjectionGrid:
    """Orthogonal grid projection onto sqrt(g) (span of m proxy-kernel
    modes + the n_s v-functions), held as its orthonormal columns basis:
    the grid matrix is P = basis basis^T, and every quantity is read from
    basis or from its rank x rank Gram matrix."""

    param: HPParam
    sigma: float
    grid: DampedGrid
    m: int
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.m + self.param.n_s

    @property
    def matrix(self) -> np.ndarray:
        """The dense grid matrix basis basis^T, formed on each access."""
        return self.basis @ self.basis.T

    def trace(self) -> float:
        return float(np.sum(self.basis**2))

    def diagonal(self) -> np.ndarray:
        """Continuous-kernel diagonal K(x, x) at the grid nodes: the matrix
        diagonal with the quadrature weights divided back out."""
        return np.einsum("ij,ij->i", self.basis, self.basis) / self.grid.weights

    def idempotency_residual(self) -> float:
        """||P^2 - P||_F / ||P||_F.  With G = basis^T basis,
        P^2 - P = basis (G - I) G basis^T, so the ratio is
        ||(G - I) G||_F / ||G||_F."""
        G = self.basis.T @ self.basis
        return float(np.linalg.norm((G - np.eye(len(G))) @ G) / np.linalg.norm(G))


def damped_projection(param: HPParam, sigma: float, grid: DampedGrid,
                      m: int, proxy_N: int = PROXY_N) -> DampedProjectionGrid:
    """Build the damped projection P = Q + (v-part).

    Q is the projection onto sqrt(g) times the span of the top-m proxy
    modes, computed in the m-dimensional basis: with U the orthonormal
    modes and M = U^T g U, Q = sqrt(g) U M^{-1} U^T sqrt(g) (equal to the
    resolvent formula sqrt(g) Pi (1+(g-1)Pi)^{-1} Pi sqrt(g) by the
    push-through identity).  The n_s damped v-functions are then
    orthogonalized against Q and appended as rank-one pieces.
    """
    if sigma <= 0:
        raise DomainError("sigma > 0 required")
    if m < 1:
        raise DomainError("degree cap m >= 1 required")
    U = _kernel_eigenbasis(param.s_prime, grid, m, proxy_N)
    g = np.exp(-sigma * grid.nodes**2)
    sg = np.sqrt(g)
    B = U * sg[:, None]
    lam, E = np.linalg.eigh(B.T @ B)
    # condition number at most 1e10; written negated so NaN fails too
    if not lam[0] > 1e-10 * lam[-1]:
        raise NearSingular(f"damped Gram eigenvalues {lam[0]:.3e} .. {lam[-1]:.3e}")
    C = B @ (E / np.sqrt(lam)) @ E.T  # B M^{-1/2}: orthonormal columns
    cols = [C]
    if param.n_s >= 1:
        vb = VBasis(param)
        for k in range(1, param.n_s + 1):
            vk = eval_v_basis(vb, k, grid.nodes)
            b = vk * sg * np.sqrt(grid.weights)
            nb = np.linalg.norm(b)
            r = b - C @ (C.T @ b)
            for extra in cols[1:]:
                r = r - extra * float(extra @ r)
            nr = np.linalg.norm(r)
            if nr < 1e-8 * nb:
                raise NearSingular(
                    f"damped v_{k} nearly inside the kernel block"
                )
            cols.append(r / nr)
    return DampedProjectionGrid(param, float(sigma), grid, int(m),
                                np.column_stack(cols))


def s2_functional(config, sigma: float):
    """(S2, damping weight): S2 = sum of x^2, weight = exp(-sigma S2)."""
    if sigma <= 0:
        raise DomainError("sigma > 0 required")
    s2 = math.fsum(p * p for p in config.points)
    return s2, math.exp(-sigma * s2)


def sample_damped_dpp(dp: DampedProjectionGrid, seed: int, n_draws: int) -> np.ndarray:
    """Exact draws of the rank-(m+n_s) damped process on the grid: the
    projection's orthonormal basis feeds the same sequential conditioning
    used for the finite-N samplers.  NearSingular if the basis has drifted
    from orthonormal."""
    if dp.idempotency_residual() > 1e-8:
        raise NearSingular("damped projection basis is not orthonormal")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return sequential_projection_draws(dp.basis, dp.grid.nodes, rng, n_draws)
