"""Sampler tests: exact cardinality, distributional agreement across the
three routes, corner interlacing, archive round trips.

Seeds are frozen after a validation pass; KS gates are at the 0.01 level
with the sample sizes chosen so that passing margins are wide.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hpkernels import sampling
from hpkernels.cli import main
from hpkernels.errors import DomainError, GridTooCoarse, NonConvergenceWarning
from hpkernels.infmeasures import damped_projection, make_damped_grid
from hpkernels.kernels import build_finite_kernel
from hpkernels.quadrature import panel_nodes
from hpkernels.sampling import (
    Configuration,
    SamplerConfig,
    mcmc_draws,
    read_sample_archive,
    read_sample_sidecar,
    sample_hp_matrix_s0_batch,
    sample_projection_dpp_batch,
    sequential_projection_draws,
    write_sample_archive,
)
from hpkernels.weights_opuc import HPParam, build_opuc

KS01 = 1.6276  # asymptotic KS critical coefficient at the 0.01 level


def ks_crit(n: int, m: int | None = None) -> float:
    if m is None:
        return KS01 / math.sqrt(n)
    return KS01 * math.sqrt((n + m) / (n * m))


class TestConfiguration:
    def test_sorted_on_construction(self):
        c = Configuration((3.0, -1.0, 0.5))
        assert c.points == (-1.0, 0.5, 3.0)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Configuration((1.0, 0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            Configuration((1.0, float("inf")))

    def test_len(self):
        assert len(Configuration((1.0, 2.0, 3.0))) == 3

    @given(st.lists(st.floats(-50, 50).filter(lambda v: v != 0.0),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant(self, pts):
        a = Configuration(tuple(pts))
        b = Configuration(tuple(reversed(pts)))
        assert a.points == b.points


class TestSamplerConfig:
    def test_defaults_valid(self):
        cfg = SamplerConfig()
        assert cfg.method == "spectral_dpp" and sampling.GRID_POINTS == 4096

    @pytest.mark.parametrize("kw", [
        {"seed": -1},
        {"seed": 2**64},
        {"n_chains": 0},
        {"step_scale": -1.0},
        {"method": "exact"},
        {"thinning": 0},
        {"burn_in": -5},
        {"step_scale": 0.0},
    ])
    def test_invalid_fields(self, kw):
        with pytest.raises(DomainError):
            SamplerConfig(**kw)


class TestProjectionDPP:
    def test_cardinality_exact(self):
        k = build_finite_kernel(HPParam(0.5), 4)
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=2), 200)
        assert arr.shape == (200, 4)
        assert np.all(np.diff(arr, axis=1) > 0)  # sorted, no ties
        assert np.all(arr != 0.0)

    def test_rank_one_matches_density(self):
        # N=1 the process is a single point with density K(x, x)
        k = build_finite_kernel(HPParam(0.5), 1)
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=13), 100_000)
        pts = arr[:, 0]
        edges = np.linspace(-3.0, 3.0, 25)
        counts, _ = np.histogram(pts, bins=edges)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            xs, ws = panel_nodes(a, b, 24)
            p = float(np.sum(ws * k.rho1(xs)))
            mu = len(pts) * p
            sig = math.sqrt(len(pts) * p * (1 - p))
            assert abs(counts[i] - mu) < 3.0 * sig + 1.0

    def test_rank_one_s0_is_cauchy(self):
        k = build_finite_kernel(HPParam(0.0), 1)
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=29), 100_000)
        stat = stats.kstest(arr[:, 0], stats.cauchy.cdf).statistic
        assert stat < ks_crit(100_000)

    def test_rho1_binned(self):
        # s=0, N=4: binned occupation vs quadrature of the exact density
        k = build_finite_kernel(HPParam(0.0), 4)
        draws = 10_000
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=11), draws)
        edges = np.linspace(-2.0, 2.0, 21)
        counts, _ = np.histogram(arr.ravel(), bins=edges)
        n_trials = draws * k.N
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            xs, ws = panel_nodes(a, b, 24)
            mass = float(np.sum(ws * k.rho1(xs)))
            p = mass / k.N
            mu = n_trials * p
            sig = math.sqrt(n_trials * p * (1 - p))
            assert abs(counts[i] - mu) < 3.0 * sig + 1.0

    def test_sign_flip_exchangeable(self):
        # the ensemble is even; max and -min are equidistributed
        k = build_finite_kernel(HPParam(0.5), 4)
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=17), 4000)
        stat = stats.ks_2samp(arr.max(axis=1), -arr.min(axis=1)).statistic
        assert stat < ks_crit(4000, 4000)

    def test_seed_reproducible(self):
        k = build_finite_kernel(HPParam(0.5), 3)
        a = sample_projection_dpp_batch(k, SamplerConfig(seed=99), 50)
        b = sample_projection_dpp_batch(k, SamplerConfig(seed=99), 50)
        assert np.array_equal(a, b)

    def test_grid_too_coarse(self):
        # singular endpoint weight needs more nodes than the cap allows; the
        # message names the last grid built, 4096 doubled four times
        k = build_finite_kernel(HPParam(-0.3), 4)
        with pytest.raises(GridTooCoarse, match=r"deficit 1\.145e-02 at 65536 nodes$"):
            sample_projection_dpp_batch(k, SamplerConfig(seed=1), 1)

    def test_line_route_rejected(self):
        k = build_finite_kernel(HPParam(0.5), 3, route="line_direct")
        with pytest.raises(DomainError):
            sample_projection_dpp_batch(k, SamplerConfig(seed=1), 1)


def reference_draws(Q, x, rng, n_draws):
    """The chain rule one draw at a time: rank-one updates of a copy of Q,
    one scalar uniform per step (density sampling at rank one)."""
    N = Q.shape[1]
    out = np.empty((n_draws, N))
    if N == 1:
        p = np.abs(Q[:, 0]) ** 2
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        out[:, 0] = x[np.searchsorted(cdf, rng.random(n_draws))]
        return out
    for d in range(n_draws):
        A = Q.copy()
        p = np.einsum("ij,ij->i", A, A.conj()).real
        picks = np.empty(N, dtype=np.int64)
        for step in range(N):
            p = np.maximum(p, 0.0)
            cdf = np.cumsum(p)
            i = min(int(np.searchsorted(cdf, rng.random() * cdf[-1])), len(x) - 1)
            picks[step] = i
            p[i] = 0.0
            if step == N - 1:
                break
            v = A[i].conj()
            v = v / np.linalg.norm(v)
            c = A @ v
            A -= np.outer(c, v.conj())
            p -= np.abs(c) ** 2
            p[picks[: step + 1]] = 0.0
        out[d] = np.sort(x[picks])
    return out


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.fixture(scope="module")
def circle_grid():
    cache = {}

    def get(s, N):
        if (s, N) not in cache:
            k = build_finite_kernel(HPParam(s), N)
            cache[s, N] = sampling._prepare_grid(k)
        return cache[s, N]
    return get


@pytest.fixture(scope="module")
def damped_basis():
    dp = damped_projection(HPParam(-1.0), 1.0, make_damped_grid(), 20)
    return dp.grid.nodes, dp.basis


class TestGridPolish:
    @pytest.mark.parametrize("s, N", [(-0.25, 6), (-0.25, 12), (0.0, 6), (0.0, 12),
                                      (0.5, 6), (0.5, 12), (0.0, 64), (0.5, 64)])
    def test_polished_rows_are_an_orthonormal_basis_of_the_grid_rows(self, circle_grid, s, N):
        # the polish keeps the span of the grid's feature rows A and makes
        # the columns orthonormal: Q^H Q = I and Q Q^H A = A
        x, Q = circle_grid(s, N)
        x_rows, A, _ = sampling._dpp_grid(build_finite_kernel(HPParam(s), N), x.size)
        assert np.array_equal(x_rows, x)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(N))) <= 1e-13
        assert np.linalg.norm(A - Q @ (Q.conj().T @ A)) <= 1e-12 * np.linalg.norm(A)


class TestBatchedDraws:
    """The chunked sampler equals the one-draw-at-a-time loop bit for bit."""

    @pytest.mark.parametrize("s, N", [(0.5, 1), (0.0, 2), (0.5, 6), (0.0, 12), (0.0, 64)])
    @pytest.mark.parametrize("n_draws", [0, 2, 3, 8])
    def test_matches_reference_across_chunks(self, circle_grid, monkeypatch, s, N, n_draws):
        # chunks of 3 draws: below one chunk, exactly one, and three chunks
        x, Q = circle_grid(s, N)
        monkeypatch.setattr(sampling, "_CHUNK_BYTES",
                            3 * sampling._draw_bytes(*Q.shape, Q.itemsize))
        got = sequential_projection_draws(Q, x, _philox(n_draws + N), n_draws)
        assert got.shape == (n_draws, N)
        assert np.array_equal(got, reference_draws(Q, x, _philox(n_draws + N), n_draws))

    def test_matches_reference_at_default_budget(self, circle_grid):
        x, Q = circle_grid(0.5, 6)
        B = sampling._CHUNK_BYTES // sampling._draw_bytes(*Q.shape, Q.itemsize)
        assert B > 1
        for n_draws in (B - 1, B, 2 * B + 1):
            got = sequential_projection_draws(Q, x, _philox(n_draws), n_draws)
            assert np.array_equal(got, reference_draws(Q, x, _philox(n_draws), n_draws))

    @pytest.mark.parametrize("n_draws", [0, 2, 3, 8])
    def test_real_basis_matches_reference(self, damped_basis, monkeypatch, n_draws):
        x, Q = damped_basis
        assert Q.dtype == np.float64
        monkeypatch.setattr(sampling, "_CHUNK_BYTES",
                            3 * sampling._draw_bytes(*Q.shape, Q.itemsize))
        got = sequential_projection_draws(Q, x, _philox(7), n_draws)
        assert np.array_equal(got, reference_draws(Q, x, _philox(7), n_draws))

    def test_memory_bounded_by_chunk_budget(self):
        # rank 256 on 4096 rows: the N x N vectors dominate each draw.  The
        # 24 draws fill four chunks; a budget blind to the vectors would put
        # them in one chunk whose vectors alone take 25 MB.
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4096, 256)) + 1j * rng.standard_normal((4096, 256))
        Q = np.ascontiguousarray(np.linalg.qr(Z)[0])
        del Z
        assert _draw_peak(Q, 1, 24) <= sampling._CHUNK_BYTES + Q.nbytes

    @pytest.mark.parametrize("N", [46, 64])
    def test_flat_pick_memory_bounded_by_chunk_budget(self, N):
        # flat-pick ranks with small N x N vectors: the (chunk, M) buffers
        # dominate, and three chunks plus one draw make every later chunk,
        # the short last one too, take the place of the one before it
        Q = _basis(4096, N, N)
        assert sampling._block_len(*Q.shape) == 1
        B = sampling._CHUNK_BYTES // sampling._draw_bytes(4096, N, Q.itemsize)
        assert _draw_peak(Q, 1, 3 * B + 1) <= sampling._CHUNK_BYTES + Q.nbytes


def _draw_peak(Q, seed, n_draws):
    """tracemalloc peak of sequential_projection_draws on Q over a uniform
    x, whose draws are checked for shape and distinct points."""
    x = np.linspace(-1.0, 1.0, len(Q))
    tracemalloc.start()
    try:
        out = sequential_projection_draws(Q, x, _philox(seed), n_draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n_draws, Q.shape[1])
    assert np.all(np.diff(out, axis=1) > 0)
    return peak


def _basis(M, N, seed, live=None):
    """A random complex (M, N) orthonormal basis, exactly zero off the rows
    marked live."""
    rng = np.random.default_rng(seed)
    live = np.ones(M, dtype=bool) if live is None else live
    Q = np.zeros((M, N), dtype=complex)
    Z = rng.standard_normal((live.sum(), N)) + 1j * rng.standard_normal((live.sum(), N))
    Q[live] = np.linalg.qr(Z)[0]
    return Q


class _Forced:
    """Generator stand-in whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


class TestTwoLevelDraws:
    """The two-level pick (block masses, then one block's rows) at 2 N^2 < M."""

    def test_block_rule(self):
        assert sampling._block_len(4096, 45) == 64
        assert sampling._block_len(4096, 46) == 1  # 2 N^2 >= M: flat
        assert sampling._block_len(1632, 21) == 64
        assert sampling._block_len(1000, 5) == 32
        assert sampling._block_len(16, 2) == 4

    @pytest.mark.parametrize("N", [21, 32])
    @pytest.mark.parametrize("n_draws", [2, 3, 8])
    def test_matches_reference_across_chunks(self, circle_grid, damped_basis, monkeypatch,
                                             N, n_draws):
        # rank 21 is the damped basis (real, 1632 rows: a ragged last block)
        x, Q = damped_basis if N == 21 else circle_grid(0.5, N)
        assert Q.shape[1] == N and sampling._block_len(*Q.shape) == 64
        monkeypatch.setattr(sampling, "_CHUNK_BYTES",
                            3 * sampling._draw_bytes(*Q.shape, Q.itemsize))
        got = sequential_projection_draws(Q, x, _philox(N + n_draws), n_draws)
        assert np.array_equal(got, reference_draws(Q, x, _philox(N + n_draws), n_draws))

    def test_ragged_last_block(self):
        # 1000 rows in blocks of 32: the last block holds 8 rows
        Q = _basis(1000, 5, 4)
        x = np.arange(1.0, 1001.0)
        got = sequential_projection_draws(Q, x, _philox(3), 400)
        assert np.array_equal(got, reference_draws(Q, x, _philox(3), 400))
        assert np.any(got > 992.0)  # rows of the ragged block are picked

    def test_zero_mass_rows_never_picked(self):
        # whole blocks of zero rows, and blocks holding one live row each
        M = 4096
        live = np.zeros(M, dtype=bool)
        live[:64 * 20:7] = True
        live[64 * 40::64] = True
        Q = _basis(M, 8, 5, live)
        x = np.arange(1.0, M + 1.0)
        got = sequential_projection_draws(Q, x, _philox(9), 500)
        assert np.all(live[got.astype(int) - 1])
        assert np.array_equal(got, reference_draws(Q, x, _philox(9), 500))

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_extreme_uniforms(self, circle_grid, damped_basis, monkeypatch, u):
        # u = 0 must not pick a row of zero mass; u -> 1 must not run past
        # the chosen block's rows when their direct sum falls short of the
        # target by rounding.  Picks stay distinct and of positive mass.
        # With one live row a block, a picked row's block keeps a rounding
        # residue of mass but no positive residual: u = 0 chooses such
        # blocks, and the pick is redone.
        one_per_block = np.zeros(4096, dtype=bool)
        one_per_block[np.arange(64) * 64 + np.arange(64) % 7] = True
        calls = []
        reach = sampling._reach

        def counted(c, target, out=None):
            calls.append(1)
            return reach(c, target, out)
        monkeypatch.setattr(sampling, "_reach", counted)
        extra = 0
        for seed, (_, Q) in enumerate([circle_grid(0.5, 6), circle_grid(0.0, 12),
                                       damped_basis]
                                      + [(None, _basis(4096, 8, k, one_per_block))
                                         for k in range(8)]):
            assert sampling._block_len(*Q.shape) > 1
            calls.clear()
            idx = sequential_projection_draws(Q, np.arange(1.0, len(Q) + 1.0),
                                              _Forced(u), 2).astype(int) - 1
            assert np.all(np.diff(idx, axis=1) > 0), seed
            assert np.all(np.abs(Q[idx]).max(axis=2) > 0.0), seed
            extra += len(calls) - 2 * (Q.shape[1] - 1)  # two per step, more if redone
        if u == 0.0:
            assert extra > 0

    def test_reach_clips_the_target(self):
        c = np.cumsum([[0.0, 0.5, 0.0, 0.25, 0.0]], axis=1)
        pick = lambda t: int(sampling._reach(c, np.array([t]))[0])  # noqa: E731
        assert pick(0.0) == 1  # the first positive weight, not row 0
        assert pick(0.5) == 1
        assert pick(0.5 + 2.0**-40) == 3
        assert pick(0.75) == 3
        assert pick(0.75 * (1.0 + 2.0**-52)) == 3  # past the total by rounding

    def test_memory_bounded_by_chunk_budget(self):
        # rank 45 on 4096 rows, the largest two-level rank there; the 200
        # draws fill four chunks, and the block Grams come on top of them
        Q = _basis(4096, 45, 6)
        assert sampling._block_len(*Q.shape) == 64
        assert 3 * (sampling._CHUNK_BYTES // sampling._draw_bytes(4096, 45, 16)) < 200
        assert _draw_peak(Q, 2, 200) <= sampling._CHUNK_BYTES + Q.nbytes


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestFrozenBits:
    """Frozen sha256 digests of draws: a grid served from the slot and the
    fused Metropolis log-ratio give the draws of a fresh grid and of one
    log-density pass per value, bit for bit."""

    @pytest.mark.parametrize("s, N, chains, seed, digest", [
        (0.5, 4, 64, 3, "72b0de2966a6ffd8b6cc18e634e2093e4fb4d92ac082291d8a427e09b013bd0f"),
        (0.0, 3, 32, 9, "b6b8d7295857c5aaba0e69ba0d15881bbb8518d10aeb59a950081199d92d081a"),
        (1.3, 7, 16, 5, "bbc4035b2f5ed097d725729ae1ccb8794a3539bda743d71fc787d918beb08c5d"),
        (-0.3, 2, 64, 11, "2f9a1ed7e08c4a155c61493d3892b1890c58dd8e80cb284224ad68c5c6200348"),
    ])
    def test_mcmc_draws(self, s, N, chains, seed, digest):
        cfg = SamplerConfig(seed=seed, burn_in=100, thinning=3, n_chains=chains)
        assert _sha(mcmc_draws(HPParam(s), N, cfg, 4 * chains)) == digest

    def test_dpp_batches_revisiting_a_grid(self, monkeypatch):
        builds = []
        real = sampling._dpp_grid

        def counted(k, M):
            assert sampling._grid_slot is None  # the old grid freed first
            builds.append((k.param.s, k.N, M))
            return real(k, M)
        monkeypatch.setattr(sampling, "_dpp_grid", counted)
        monkeypatch.setattr(sampling, "_grid_slot", None)
        digests = []
        for s, N, n_draws in ((0.5, 6, 40), (0.0, 64, 1), (0.5, 6, 40)):
            k = build_finite_kernel(HPParam(s), N)
            cfg = SamplerConfig(seed=N + 1)
            digests.append(_sha(sample_projection_dpp_batch(k, cfg, n_draws)))
            key, x, Q = sampling._grid_slot  # one grid held: the last one
            assert key[:2] == (HPParam(s), N)
            assert not x.flags.writeable and not Q.flags.writeable
            with pytest.raises(ValueError):
                Q[0, 0] = 0.0
            x2, Q2 = sampling._prepare_grid(k)
            assert x2 is x and Q2 is Q
        assert builds == [(0.5, 6, 4096), (0.0, 64, 4096), (0.5, 6, 4096)]
        assert digests == [
            "0517e472d0b5e7fa6e9e6602257c8e9ce81f48e4451794247e185afa33ca75bd",
            "19ce77b84058273babd39d79bcac8ab880e3eb53b81995860f16ff5688662298",
            "0517e472d0b5e7fa6e9e6602257c8e9ce81f48e4451794247e185afa33ca75bd",
        ]

    def test_slot_keyed_by_the_basis(self, monkeypatch):
        # a kernel carrying another basis at the same (s, N) is not served
        # the kept grid: its own grid is built, with the basis's own weight
        builds = []
        real = sampling._dpp_grid

        def counted(k, M):
            builds.append(k.opuc.param.s)
            return real(k, M)
        monkeypatch.setattr(sampling, "_dpp_grid", counted)
        monkeypatch.setattr(sampling, "_grid_slot", None)
        k = build_finite_kernel(HPParam(0.5), 6)
        Q = sampling._prepare_grid(k)[1]
        other = dataclasses.replace(k, opuc=build_opuc(HPParam(1.0), 6))
        Q2 = sampling._prepare_grid(other)[1]
        assert builds == [0.5, 1.0] and Q2 is not Q
        assert sampling._prepare_grid(other)[1] is Q2 and builds == [0.5, 1.0]

    def test_cli_sample_and_replay(self, tmp_path, monkeypatch):
        # in one process the replay is served the kept grid
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sample", "--s", "0.5", "--N", "6", "--draws", "40",
                         "--seed", "7", "--out", "a.csv"]) == 0
            assert main(["sample", "--replay", str(tmp_path / "a.csv.json"),
                         "--out", "b.csv"]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert hashlib.sha256(a).hexdigest() == (
            "fe83d9c0aa14154465452e34cfb721223251205b5af392a76d476de8927f0738")


class TestMCMC:
    def test_n1_s0_cauchy(self):
        cfg = SamplerConfig(seed=7, burn_in=1000, thinning=10, n_chains=64)
        d = mcmc_draws(HPParam(0.0), 1, cfg, 100_000)
        stat = stats.kstest(d.ravel(), stats.cauchy.cdf).statistic
        assert stat < ks_crit(100_000)

    def test_n3_s0_halfline_count(self):
        cfg = SamplerConfig(seed=5, burn_in=2000, thinning=10, n_chains=64)
        d = mcmc_draws(HPParam(0.0), 3, cfg, 20_000)
        frac = float(np.mean(np.sum(d > 0, axis=1)))
        # quadrature of rho_1 over (0, T] plus a tail bound below 1e-3
        k = build_finite_kernel(HPParam(0.0), 3)
        total = 0.0
        for a, b in zip(np.geomspace(1e-3, 300.0, 40)[:-1],
                        np.geomspace(1e-3, 300.0, 40)[1:]):
            xs, ws = panel_nodes(a, b, 24)
            total += float(np.sum(ws * k.rho1(xs)))
        xs, ws = panel_nodes(1e-6, 1e-3, 16)
        total += float(np.sum(ws * k.rho1(xs)))
        assert abs(total - 1.5) < 1e-2  # evenness check on the quadrature
        assert abs(frac - total) < 0.03

    def test_cross_dpp_max_point(self):
        p = HPParam(0.5)
        k = build_finite_kernel(p, 4)
        dpp = sample_projection_dpp_batch(k, SamplerConfig(seed=17), 4000)
        mc = mcmc_draws(p, 4, SamplerConfig(seed=23, burn_in=2000,
                                            thinning=10, n_chains=64), 4000)
        stat = stats.ks_2samp(dpp.max(axis=1), mc.max(axis=1)).statistic
        assert stat < ks_crit(4000, 4000)

    def test_nonconvergence_warning(self):
        # absurd proposal scale freezes into a near-zero acceptance rate
        cfg = SamplerConfig(seed=1, step_scale=5e4, burn_in=49,
                            thinning=600, n_chains=8)
        with pytest.warns(NonConvergenceWarning):
            mcmc_draws(HPParam(0.0), 1, cfg, 8)

    def test_bad_parameter_rejected(self):
        with pytest.raises(DomainError):
            mcmc_draws(HPParam(-0.5), 2, SamplerConfig(), 1)
        with pytest.raises(DomainError):
            mcmc_draws(HPParam(1 + 2j), 2, SamplerConfig(), 1)

    def test_seed_reproducible(self):
        cfg = SamplerConfig(seed=77, burn_in=100, thinning=2, n_chains=8)
        a = mcmc_draws(HPParam(0.5), 2, cfg, 40)
        b = mcmc_draws(HPParam(0.5), 2, cfg, 40)
        assert np.array_equal(a, b)


class TestMatrixSampler:
    def test_hermitian_exact(self):
        X = sample_hp_matrix_s0_batch(8, SamplerConfig(seed=9), 1)[0]
        assert np.abs(X - X.conj().T).max() < 1e-12
        assert X.shape == (8, 8)

    def test_m1_cauchy(self):
        Xs = sample_hp_matrix_s0_batch(1, SamplerConfig(seed=21), 50_000)
        vals = np.array([x[0, 0].real for x in Xs])
        stat = stats.kstest(vals, stats.cauchy.cdf).statistic
        assert stat < ks_crit(50_000)

    def test_m8_matches_dpp_spectrum(self):
        # eigenvalues over N against the exact grid sampler, pooled
        N = 8
        k = build_finite_kernel(HPParam(0.0), N)
        dpp = sample_projection_dpp_batch(k, SamplerConfig(seed=41), 4000)
        Xs = sample_hp_matrix_s0_batch(N, SamplerConfig(seed=31), 4000)
        eig = np.array([np.linalg.eigvalsh(X) / N for X in Xs])
        stat = stats.ks_2samp(dpp.ravel(), eig.ravel()).statistic
        assert stat < ks_crit(4000 * N, 4000 * N)

    def test_m8_trace_matches_mcmc(self):
        N = 8
        Xs = sample_hp_matrix_s0_batch(N, SamplerConfig(seed=31), 4000)
        tr = np.array([np.trace(X).real / N for X in Xs])
        mc = mcmc_draws(HPParam(0.0), N,
                        SamplerConfig(seed=101, burn_in=5000,
                                      thinning=25, n_chains=64), 4000)
        stat = stats.ks_2samp(tr, mc.sum(axis=1)).statistic
        assert stat < ks_crit(4000, 4000)

    def test_seed_reproducible(self):
        a = sample_hp_matrix_s0_batch(5, SamplerConfig(seed=123), 1)[0]
        b = sample_hp_matrix_s0_batch(5, SamplerConfig(seed=123), 1)[0]
        assert np.array_equal(a, b)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            sample_hp_matrix_s0_batch(0, SamplerConfig(seed=1), 1)


    def test_interlacing_per_draw(self):
        X = sample_hp_matrix_s0_batch(6, SamplerConfig(seed=55), 1)[0]
        prev = None
        for N in range(1, 7):
            ev = np.sort(np.linalg.eigvalsh(X[:N, :N]))
            if prev is not None:
                # Cauchy interlacing of unscaled corner spectra
                assert np.all(ev[:-1] <= prev + 1e-10)
                assert np.all(prev <= ev[1:] + 1e-10)
            prev = ev

class TestArchive:
    def test_round_trip(self, tmp_path):
        cfgs = [Configuration((0.5, -1.25)), Configuration((2.0, 0.125, -0.75))]
        sc = SamplerConfig(seed=42, thinning=3)
        path = os.path.join(tmp_path, "draws.csv")
        write_sample_archive(path, cfgs, sc)
        back, sc2 = read_sample_archive(path)
        assert sc2 == sc
        assert [c.points for c in back] == [c.points for c in cfgs]

    def test_sidecar_exists(self, tmp_path):
        path = os.path.join(tmp_path, "a.csv")
        write_sample_archive(path, [Configuration((1.0,))], SamplerConfig())
        assert os.path.exists(path + ".json")

    def test_provenance_round_trip(self, tmp_path):
        cfgs = [Configuration((0.5, -1.25)), Configuration((2.0, -0.75))]
        sc = SamplerConfig(seed=7)
        bare = os.path.join(tmp_path, "bare.csv")
        write_sample_archive(bare, cfgs, sc)
        assert read_sample_sidecar(bare + ".json") == (sc, None)
        path = os.path.join(tmp_path, "run.csv")
        write_sample_archive(path, cfgs, sc, s=0.5, N=2, runspec="sample N=2 s=0.5")
        with open(path) as f:
            assert f.readline() == "# runspec: sample N=2 s=0.5\n"
        assert read_sample_sidecar(path + ".json") == (
            sc, {"s": 0.5, "N": 2, "draws": 2, "runspec": "sample N=2 s=0.5"})
        back, sc2 = read_sample_archive(path)
        assert sc2 == sc
        assert [c.points for c in back] == [c.points for c in cfgs]

    def test_exact_floats(self, tmp_path):
        pts = (1.0 / 3.0, -math.pi)
        path = os.path.join(tmp_path, "b.csv")
        write_sample_archive(path, [Configuration(pts)], SamplerConfig())
        back, _ = read_sample_archive(path)
        assert back[0].points == tuple(sorted(pts))
