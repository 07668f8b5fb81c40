"""Samplers for the finite-N ensembles.

Three routes into the same family: an exact grid-discretized sampler for
the projection kernel (sequential conditioning), a random-walk Metropolis
chain on the unscaled ensemble, and the s=0 matrix-level construction via
the unitary transform of a Haar matrix.  Archives store draws for replay.
"""

from __future__ import annotations

import io
import json
import math
import warnings
import dataclasses
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, NonConvergenceWarning, SingularCayley
from .kernels import FiniteKernel
from .weights_opuc import HPParam

__all__ = [
    "Configuration",
    "SamplerConfig",
    "sample_projection_dpp_batch",
    "sequential_projection_draws",
    "mcmc_draws",
    "sample_hp_matrix_s0_batch",
    "write_sample_archive",
    "read_sample_sidecar",
    "read_sample_archive",
]


@dataclass(frozen=True)
class Configuration:
    """Finite point configuration on R*: sorted, zero-free, square-summable."""

    points: tuple

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if any(p == 0.0 for p in pts):
            raise DomainError("configurations live on R*")
        if any(not math.isfinite(p) for p in pts):
            raise DomainError("non-finite point")
        object.__setattr__(self, "points", tuple(sorted(pts)))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    method: str = "spectral_dpp"
    step_scale: float = 0.5
    burn_in: int = 2000
    thinning: int = 10
    n_chains: int = 32

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must fit in 64 bits")
        if self.method not in ("spectral_dpp", "mcmc"):
            raise DomainError(f"unknown method {self.method!r}")
        if min(self.step_scale, self.burn_in, self.thinning, self.n_chains) <= 0:
            raise DomainError("chain parameters must be positive")


# ---------------------------------------------------------------------------
# Grid-based exact DPP sampler

# angle midpoints of the first grid; a grid missing mass is doubled, 4 times at most
GRID_POINTS = 4096


def _dpp_grid(k: FiniteKernel, M: int):
    """Midpoint angle grid with the orthonormal feature rows.

    Returns (x positions, A) where A is (M, N) with A^H A = I exactly after
    the thin-QR polish; the pre-polish mass deficit measures discretization.
    """
    N = k.N
    delta = 2.0 * np.pi / M
    theta = -np.pi + (np.arange(M) + 0.5) * delta  # never hits 0 or +-pi
    A = k.opuc.eval_weighted(theta - np.copysign(np.pi, theta))[:, :N]
    A *= math.sqrt(delta / (2.0 * np.pi))
    x = np.tan(theta / 2.0) / N
    deficit = N - float(np.sum(np.abs(A) ** 2))
    return x, A, deficit


# the last polished grid, (key, x, Q) with x and Q read-only, or None
_grid_slot = None


def _prepare_grid(k: FiniteKernel):
    """(x, Q) of the polished grid, served from _grid_slot when it holds
    this grid; else built, then kept there in place of the old one."""
    global _grid_slot
    if k.route != "circle_cayley":
        raise DomainError("grid sampler needs the circle route")
    # the grid depends on N and the basis alone (its weight and coefficients):
    # a kernel may carry any OPUCBasis
    key = (k.opuc.param, k.N, k.opuc.alpha[:k.N - 1].tobytes())
    held = _grid_slot
    if held is not None and held[0] == key:
        return held[1:]
    held = _grid_slot = None  # the old Q is freed before the new grid's temporaries
    for M in (GRID_POINTS << j for j in range(5)):
        x, A, deficit = _dpp_grid(k, M)
        if abs(deficit) < 1e-4:
            break
    if abs(deficit) >= 0.01:
        raise GridTooCoarse(f"grid mass deficit {deficit:.3e} at {M} nodes")
    # polish to an exact discrete projection so cardinality is exact
    Q = np.ascontiguousarray(np.linalg.qr(A)[0])
    x.flags.writeable = Q.flags.writeable = False
    _grid_slot = (key, x, Q)
    return x, Q


# bytes the per-chunk arrays of sequential_projection_draws may take
_CHUNK_BYTES = 1 << 23


def _block_len(M: int, N: int) -> int:
    """Rows per block: the least power of two L with L^2 >= M if 2 N^2 < M, else 1."""
    return 1 << ((M - 1).bit_length() + 1) // 2 if 2 * N * N < M else 1


def _draw_bytes(M: int, N: int, itemsize: int) -> int:
    """Per-chunk bytes one draw adds: its N x N vectors and the flat step
    buffers (25 bytes + 1 item a grid row), or two-level block masses (25 bytes
    a block), block rows and residuals (2 N items + 33 bytes a row), N^2 items."""
    L = _block_len(M, N)
    if L == 1:
        return M * (25 + itemsize) + N * N * itemsize
    return 25 * -(-M // L) + L * (33 + 2 * N * itemsize) + 2 * N * N * itemsize


def _reach(c: np.ndarray, target: np.ndarray, out=None) -> np.ndarray:
    """Per row of the cumulative sums c, the first index reaching target in [ulp(0), total]."""
    cap = np.minimum(np.maximum(target, math.ulp(0.0)), c[:, -1])
    return np.count_nonzero(np.less(c, cap[:, None], out=out), axis=1)


def sequential_projection_draws(
    Q: np.ndarray, x: np.ndarray, rng: np.random.Generator, n_draws: int
) -> np.ndarray:
    """Exact draws from the discrete projection DPP of the orthonormal
    feature rows Q (grid size M, rank N): (n_draws, N) sorted positions.

    The chain rule of Hough-Krishnapur-Peres-Virag in Gram-Schmidt form:
    each draw picks row i with probability proportional to its residual
    |Q[i]|^2 - sum_k |Q[i] . w_k|^2, where w_1, w_2, ... are its earlier
    picks conj(Q[i]) made orthonormal (classical Gram-Schmidt, applied
    twice).  Draws run in chunks that fit _CHUNK_BYTES (8 MiB, by
    _draw_bytes).  When 2 N^2 < M, steps after the shared first one pick
    in two levels, a tree search two deep (Gillenwater et al. 2019): the
    rows fall in nb blocks of L (the last one zero-padded), L the least
    power of two with L^2 >= M, whose N x N Grams are formed once; a step
    lowers each block's mass by its new vector's quadratic form, picks a
    block from the cumulative masses, then a row from that block's L
    residuals, at O(nb N^2 + L N step) per draw.  Else (L = 1) one
    (chunk, N) @ (N, M) product updates all M residuals, O(M N) per draw.

    The uniforms are rng.random((n_draws, N)), one scalar per step draw
    after draw; the rule per step is unchanged (clamp at 0, cumulative sum,
    first index with cdf >= u cdf[-1] > 0), so the draws are those of the
    one-draw-at-a-time rank-one update of Q save where u cdf[-1] is within
    rounding of a row boundary (block masses and row residuals round apart;
    a block left with no positive residual loses its mass, pick redone).
    """
    M, N = Q.shape
    u = rng.random((n_draws, N))
    row_p = np.einsum("ij,ij->i", Q, Q.conj()).real
    cdf = np.cumsum(np.maximum(row_p, 0.0))
    picks = np.empty((n_draws, N), dtype=np.int64)
    picks[:, 0] = np.searchsorted(cdf, np.clip(u[:, 0] * cdf[-1], math.ulp(0.0), cdf[-1]))
    L = _block_len(M, N)
    if L > 1:
        # row b of G.T is conj(H_b), H_b = Q_b^T conj(Q_b), flattened to reals,
        # so (w conj(w)).view(float64) @ G = Re(sum H_b w conj(w)) = |Q_b w|^2
        G = np.stack([Qb.conj().T @ Qb for Qb in np.split(Q, range(L, M, L))])
        G = G.reshape(-1, N * N).view(np.float64).T
        row_p = np.append(row_p, np.zeros(-M % L)).reshape(-1, L)
        full, tail = Q[:M - M % L].reshape(-1, L, N), np.zeros((L, N), Q.dtype)
        tail[:M % L] = Q[M - M % L:]
    B = max(1, _CHUNK_BYTES // _draw_bytes(M, N, Q.itemsize))
    # buffers that every step writes into, allocated once at the first chunk's
    # size and sliced for each chunk: a fresh (chunk, M) temporary per step
    # costs page faults once the allocator maps it, and a chunk's own set
    # formed while the previous chunk's is bound would overrun the budget
    n0 = min(B, n_draws)
    bufs = [np.empty((n0, N - 1, N), dtype=Q.dtype)]
    if L == 1:
        bufs += [np.empty((n0, M), dtype=t) for t in (float, Q.dtype, float, float, bool)]
    else:
        bufs += [np.empty((n0, len(row_p))), np.empty((n0, L, N), dtype=Q.dtype)]
    for start in range(0, n_draws, B):
        U = u[start:start + B]
        chunk = picks[start:start + B]
        rows = np.arange(len(U))
        if L == 1:
            W, p, prod, sq, cdf, below = (a[:len(U)] for a in bufs)
            p[:] = row_p
        else:
            W, mass, Qg = (a[:len(U)] for a in bufs)
            mass[:] = row_p.sum(axis=1)
        for step in range(1, N):
            i = chunk[:, step - 1]
            v = Q[i].conj()
            Wk = W[:, :step - 1]
            for _ in range(2):
                h = np.einsum("bkn,bn->bk", Wk, v.conj()).conj()
                v -= np.einsum("bk,bkn->bn", h, Wk)
            v /= np.linalg.norm(v, axis=1)[:, None]
            W[:, step - 1] = v
            if L == 1:
                np.matmul(v, Q.T, out=prod)
                np.square(np.abs(prod, out=sq), out=sq)
                np.subtract(p, sq, out=p)
                p[rows, i] = 0.0
                np.maximum(p, 0.0, out=p)
                np.cumsum(p, axis=1, out=cdf)
                chunk[:, step] = _reach(cdf, U[:, step] * cdf[:, -1], out=below)
                continue
            np.maximum(mass - (v[:, :, None] * v.conj()[:, None, :]).reshape(len(U), -1)
                       .view(np.float64) @ G, 0.0, out=mass)
            for _ in range(len(row_p)):
                cm = np.cumsum(mass, axis=1)
                t = U[:, step] * cm[:, -1]
                b = _reach(cm, t)
                np.take(full, b, axis=0, out=Qg, mode="clip")
                Qg[b == len(full)] = tail
                P = (Qg @ W[:, :step].transpose(0, 2, 1)).view(np.float64)
                r = row_p[b] - np.einsum("blk,blk->bl", P, P)
                del P  # freed before the next one is formed: the chunk budget
                d, k = np.nonzero(chunk[:, :step] // L == b[:, None])  # earlier picks
                r[d, chunk[d, k] % L] = 0.0
                c = np.cumsum(np.maximum(r, 0.0, out=r), axis=1)
                j = _reach(c, t - np.where(b > 0, cm[rows, b - 1], 0.0))
                if np.all(c[:, -1] > 0.0):
                    break
                mass[rows, b] *= c[:, -1] > 0.0
            chunk[:, step] = b * L + j
    return np.sort(x[picks], axis=1)


def sample_projection_dpp_batch(
    k: FiniteKernel, cfg: SamplerConfig, n_draws: int
) -> np.ndarray:
    """n_draws independent configurations as a (n_draws, N) sorted array.

    The polished grid of the last call is kept, read-only, and serves a
    following call at the same k.N and basis; another grid replaces it, so
    one grid is held at a time.
    """
    x, Q = _prepare_grid(k)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    return sequential_projection_draws(Q, x, rng, n_draws)


# ---------------------------------------------------------------------------
# Random-walk Metropolis on the unscaled ensemble


def mcmc_draws(param: HPParam, N: int, cfg: SamplerConfig, n_draws: int,
               stats: dict | None = None) -> np.ndarray:
    """First n_draws thinned Metropolis states targeting the ensemble,
    rescaled by 1/N, as a (n_draws, N) array with sorted rows.

    Runs cfg.n_chains independent chains in lockstep.  Each sweep updates
    one coordinate at a time with a Cauchy step (single-coordinate moves
    are what lets the heavy x^-2 tails mix); the step scale adapts toward
    0.3 acceptance during burn-in, then freezes.  Each thinned sweep
    contributes one row per chain, in chain order.  Warns
    NonConvergenceWarning if the frozen acceptance rate leaves
    [0.1, 0.6].  A caller-supplied stats dict receives the running
    acceptance_rate and step_scale.

    A move's log acceptance ratio takes the proposal and the current value
    as the two rows of one array, so log|x_i - x_j| is evaluated once for
    both.
    """
    s = param.s
    if s <= -0.5:
        raise DomainError("MCMC targets the probability regime s > -1/2")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    C = cfg.n_chains
    x = rng.standard_cauchy((C, N))
    scale = cfg.step_scale
    accepted = 0
    proposed = 0
    sweep = 0
    warned = False
    out = np.empty((n_draws, N))
    filled = 0
    col = np.empty((2, C))  # row 0 the proposal, row 1 the current value
    lo = np.empty((2, C, N))
    with np.errstate(divide="ignore"):  # log 0 at coinciding points is -inf
        while filled < n_draws:
            for j in range(N):
                np.add(x[:, j], scale * rng.standard_cauchy(C), out=col[0])
                col[1] = x[:, j]
                # the log-density terms that involve coordinate j, at both rows
                np.log(np.abs(np.subtract(x, col[:, :, None], out=lo), out=lo), out=lo)
                lo[:, :, j] = 0.0
                terms = 2.0 * np.add.reduce(lo, axis=2) - (s + N) * np.log1p(col * col)
                acc = np.log(rng.random(C)) < terms[0] - terms[1]
                np.copyto(x[:, j], col[0], where=acc)
                accepted += np.count_nonzero(acc)
                proposed += C
            sweep += 1
            if sweep <= cfg.burn_in:
                if sweep % 50 == 0:
                    rate = accepted / proposed
                    scale = float(np.clip(scale * math.exp(rate - 0.3), 1e-3, 50.0))
                    accepted = proposed = 0
                    if stats is not None:
                        stats["acceptance_rate"] = rate
                        stats["step_scale"] = scale
                continue
            if not warned and sweep == cfg.burn_in + 500:
                rate = accepted / proposed
                if not 0.1 <= rate <= 0.6:
                    warnings.warn(
                        f"acceptance rate {rate:.3f} outside [0.1, 0.6]",
                        NonConvergenceWarning,
                    )
                warned = True
                if stats is not None:
                    stats["acceptance_rate"] = rate
                    stats["step_scale"] = scale
            if (sweep - cfg.burn_in) % cfg.thinning == 0:
                take = min(C, n_draws - filled)
                pts = x[:take] / N
                pts[np.any(pts == 0.0, axis=1)] += 1e-300  # measure-zero; off the origin
                if not np.all(np.isfinite(pts)):
                    raise DomainError("non-finite point")
                out[filled:filled + take] = np.sort(pts, axis=1)
                filled += take
    return out


# ---------------------------------------------------------------------------
# Matrix-level sampler at s=0


def _haar_unitary(M: int, rng: np.random.Generator) -> np.ndarray:
    Z = (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / math.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))[None, :]


def _matrix_draw(M: int, rng: np.random.Generator) -> np.ndarray:
    for _ in range(5):
        U = _haar_unitary(M, rng)
        eye = np.eye(M, dtype=complex)
        try:
            X = np.linalg.solve(eye - U, 1j * (eye + U))
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(X)):
            continue
        return 0.5 * (X + X.conj().T)
    raise SingularCayley("1-U numerically singular in repeated draws")


def sample_hp_matrix_s0_batch(M: int, cfg: SamplerConfig, n_draws: int) -> list:
    """n_draws Hermitian matrices, in order from one seeded stream, whose
    spectra follow the s=0 ensemble at N=M.

    X = i(1+U)(1-U)^{-1} for Haar unitary U, symmetrized exactly.  The
    measure-zero event of 1-U being numerically singular is retried a few
    times before SingularCayley escapes.
    """
    return list(_matrix_stream(M, cfg, n_draws))


def _matrix_stream(M: int, cfg: SamplerConfig, n_draws: int):
    """The draws of sample_hp_matrix_s0_batch, yielded one at a time."""
    if M < 1:
        raise DomainError("M >= 1 required")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    for _ in range(n_draws):
        yield _matrix_draw(M, rng)


# ---------------------------------------------------------------------------
# Archives


# keys an `hpk sample` sidecar adds to the SamplerConfig fields for replay
_PROVENANCE = ("s", "N", "draws", "runspec")


def write_sample_archive(path: str, configs, cfg: SamplerConfig, *, s: float | None = None,
                         N: int | None = None, runspec: str | None = None) -> None:
    """CSV, one configuration per row (variable length), plus a JSON sidecar
    with the full SamplerConfig for replay.

    An `hpk sample` archive also passes its s, N and runspec: the sidecar
    then records them with draws = len(configs), and the runspec heads the
    CSV as a `# runspec:` comment line.
    """
    configs = list(configs)
    with io.open(path, "w", encoding="ascii") as f:
        if runspec is not None:
            f.write(f"# runspec: {runspec}\n")
        for c in configs:
            f.write(",".join(f"{p:.17g}" for p in c.points) + "\n")
    side = asdict(cfg)
    if runspec is not None:
        side.update(s=float(s), N=int(N), draws=len(configs), runspec=runspec)
    with io.open(path + ".json", "w", encoding="ascii") as f:
        json.dump(side, f, indent=1, sort_keys=True)
        f.write("\n")


def read_sample_sidecar(path: str):
    """(SamplerConfig, provenance) from the JSON sidecar at path.

    provenance maps s, N, draws and runspec as an `hpk sample` archive
    records them (float, int, int, str), or is None if the sidecar lacks
    any (a bare archive).  Other keys are ignored.
    """
    with io.open(path, "r", encoding="ascii") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise DomainError(f"sidecar {path} is not a JSON object")
    names = {f.name for f in dataclasses.fields(SamplerConfig)}
    cfg = SamplerConfig(**{k: v for k, v in raw.items() if k in names})
    if not all(k in raw for k in _PROVENANCE):
        return cfg, None
    return cfg, {"s": float(raw["s"]), "N": int(raw["N"]),
                 "draws": int(raw["draws"]), "runspec": str(raw["runspec"])}


def read_sample_archive(path: str):
    """Inverse of write_sample_archive: (configurations, SamplerConfig).

    Comment lines and sidecar keys beyond the SamplerConfig fields are
    ignored.
    """
    configs = []
    with io.open(path, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                configs.append(Configuration(tuple(float(t) for t in line.split(","))))
    return configs, read_sample_sidecar(path + ".json")[0]
