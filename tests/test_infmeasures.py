"""v-basis growth obstruction, damped projections, contraction norms, S2 weight."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpkernels.errors import DiscretizationWarning, DomainError, NearSingular
from hpkernels.infmeasures import (
    DampedProjectionGrid,
    VBasis,
    _kernel_eigenbasis,
    contraction_norm,
    damped_projection,
    eval_v_basis,
    growth_certificate,
    l2_verdict_from_exponent,
    make_damped_grid,
    s2_functional,
    sample_damped_dpp,
    tail_growth_slope,
)
from hpkernels.kernels import build_finite_kernel
from hpkernels.quadrature import panel_nodes
from hpkernels.sampling import Configuration, sequential_projection_draws
from hpkernels.weights_opuc import HPParam


@pytest.fixture(scope="module")
def grid():
    return make_damped_grid()


@pytest.fixture(scope="module")
def bulk_grid():
    # hole below x = 0.1: keeps N*x >= 1.6 for every proxy N used below,
    # so the proxy kernels are past their pre-asymptotic region everywhere
    return make_damped_grid(t_max=10.0, delta=0.2)


@pytest.fixture(scope="module")
def dp_s1(grid):
    return damped_projection(HPParam(-1.0), 1.0, grid, 20)


@pytest.fixture(scope="module")
def draws_s1(dp_s1):
    return sample_damped_dpp(dp_s1, seed=5, n_draws=200)


class TestVBasis:
    def test_v1_at_two_over_pi(self):
        # s = -1 has s' = 0 and V_0(x) = sin(1/x): v_1(2/pi) = 2/pi
        vb = VBasis(HPParam(-1.0))
        x = 2.0 / math.pi
        assert abs(eval_v_basis(vb, 1, x) - x) < 1e-12

    def test_v1_bounded_near_infinity(self):
        vb = VBasis(HPParam(-1.0))
        xs = np.linspace(10.0, 100.0, 2001)
        sup = float(np.max(np.abs(eval_v_basis(vb, 1, xs))))
        assert sup <= 1.0 + 1e-12
        assert sup > 0.99

    def test_v1_even(self):
        vb = VBasis(HPParam(-1.0))
        xs = np.linspace(0.05, 30.0, 500)
        np.testing.assert_allclose(
            eval_v_basis(vb, 1, xs), eval_v_basis(vb, 1, -xs), atol=1e-14
        )

    @pytest.mark.parametrize("s,ns", [(-1.0, 1), (-1.6, 2), (-2.6, 3)])
    def test_size_counts_lost_directions(self, s, ns):
        assert VBasis(HPParam(s)).size == ns

    def test_vector_eval(self):
        vb = VBasis(HPParam(-1.6))
        out = eval_v_basis(vb, 2, np.array([0.5, 1.0, 2.0]))
        assert out.shape == (3,)
        assert float(out[1]) == pytest.approx(eval_v_basis(vb, 2, 1.0))

    def test_rejects_probability_regime(self):
        with pytest.raises(DomainError):
            VBasis(HPParam(-0.4))

    def test_rejects_bad_index_and_origin(self):
        vb = VBasis(HPParam(-1.0))
        with pytest.raises(DomainError):
            eval_v_basis(vb, 0, 1.0)
        with pytest.raises(DomainError):
            eval_v_basis(vb, 2, 1.0)
        with pytest.raises(DomainError):
            eval_v_basis(vb, 1, 0.0)


class TestGrowth:
    def test_certificate_shift_one(self):
        vb = VBasis(HPParam(-1.0))
        exponent, verdict = growth_certificate(vb, 1)
        assert exponent == 0.0
        assert verdict == "not-square-integrable"

    def test_certificate_shift_two(self):
        vb = VBasis(HPParam(-1.6))
        e1, v1 = growth_certificate(vb, 1)
        e2, v2 = growth_certificate(vb, 2)
        assert e1 == pytest.approx(-0.4)
        assert e2 == pytest.approx(0.6)
        assert v1 == v2 == "not-square-integrable"

    def test_threshold(self):
        assert l2_verdict_from_exponent(-0.51) == "square-integrable"
        assert l2_verdict_from_exponent(-0.5) == "not-square-integrable"

    def test_tail_slope_linear(self):
        # exponent 0: integral of v_1^2 over [1, T] grows like T
        vb = VBasis(HPParam(-1.0))
        assert abs(tail_growth_slope(vb, 1) - 1.0) < 0.1

    def test_tail_slope_fractional(self):
        # s = -0.6: exponent -0.4, tail integral ~ T^0.2
        vb = VBasis(HPParam(-0.6))
        assert abs(tail_growth_slope(vb, 1) - 0.2) < 0.1


class TestDampedGrid:
    def test_symmetry_hole_window(self, grid):
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.all(grid.weights > 0)
        assert float(np.min(np.abs(grid.nodes))) > 1.0 / 80.0
        assert float(np.max(np.abs(grid.nodes))) < grid.R == 6.0

    def test_total_length(self, grid):
        # Gauss panels are exact on constants: sum of weights = window length
        assert float(np.sum(grid.weights)) == pytest.approx(
            2.0 * (6.0 - 1.0 / 80.0), abs=1e-10
        )

    def test_gaussian_moment(self, grid):
        # integral of x^2 e^{-x^2} over the window, antiderivative
        # sqrt(pi) erf(x)/4 - x e^{-x^2}/2
        def F(x):
            return math.sqrt(math.pi) * math.erf(x) / 4.0 - 0.5 * x * math.exp(-x * x)

        got = float(np.sum(grid.weights * grid.nodes**2 * np.exp(-grid.nodes**2)))
        assert got == pytest.approx(2.0 * (F(6.0) - F(1.0 / 80.0)), abs=1e-10)

    def test_default_size(self, grid):
        assert grid.size == 1632

    @pytest.mark.parametrize("kw", [
        {},
        {"t_max": 10.0, "delta": 0.2},
        {"R": 3.0, "t_panel": 1.7, "x_panel": 0.3},  # last panels cut at t_max, R
    ])
    def test_equals_per_panel_construction(self, kw):
        # one Gauss-Legendre panel of 16 nodes between consecutive edges,
        # each panel built on its own
        p = {"R": 6.0, "delta": 0.08, "t_max": 80.0, "t_panel": 2.5,
             "x_panel": 0.25, **kw}
        xs, ws = [], []
        t_edges = np.arange(1.0 / p["delta"], p["t_max"] + p["t_panel"], p["t_panel"])
        for a, b in zip(t_edges[:-1], t_edges[1:]):
            t, wt = panel_nodes(a, min(b, p["t_max"]), 1)
            xs.append(1.0 / t)
            ws.append(wt / (t * t))
        edges = np.arange(p["delta"], p["R"] + p["x_panel"], p["x_panel"])
        for a, b in zip(edges[:-1], edges[1:]):
            x, w = panel_nodes(a, min(b, p["R"]), 1)
            xs.append(x)
            ws.append(w)
        xp, wp = np.concatenate(xs), np.concatenate(ws)
        grid = make_damped_grid(**kw)
        assert np.array_equal(grid.nodes, np.concatenate([-xp[::-1], xp]))
        assert np.array_equal(grid.weights, np.concatenate([wp[::-1], wp]))

    @pytest.mark.parametrize("kw", [
        {"delta": 7.0},
        {"delta": -0.1},
        {"t_max": 10.0, "delta": 0.05},
    ])
    def test_invalid(self, kw):
        with pytest.raises(DomainError):
            make_damped_grid(**kw)


class TestContraction:
    def test_value_strictly_inside(self, grid):
        val = contraction_norm(0.5, 1.0, grid)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(0.385838, abs=1e-3)

    def test_monotone_in_sigma(self, grid):
        vals = [contraction_norm(0.5, s, grid) for s in (1.0, 0.5, 0.1)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_trace_bound(self, grid):
        # trace of the damped operator against an independent fine quadrature
        # of (1 - e^{-sigma x^2}) K(x, x); the top eigenvalue sits below it
        k = build_finite_kernel(HPParam(0.5), 64)
        g = np.exp(-grid.nodes**2)
        tr_grid = float(np.sum(grid.weights * (1.0 - g) * k.rho1(grid.nodes)))
        tr_ref = 0.0
        for a, b in ((1.0 / 80.0, 6.0), (-6.0, -1.0 / 80.0)):
            xq, wq = panel_nodes(a, b, 480)
            tr_ref += float(np.sum(wq * (-np.expm1(-xq**2)) * k.rho1(xq)))
        assert abs(tr_grid - tr_ref) < 1e-6
        assert contraction_norm(0.5, 1.0, grid) < tr_grid

    def test_warns_near_one(self, grid):
        with pytest.warns(DiscretizationWarning):
            val = contraction_norm(0.5, 1000.0, grid)
        assert 0.99 < val < 1.0 + 1e-3

    @pytest.mark.parametrize("sp,sig", [(0.5, 0.0), (0.5, -1.0), (-0.5, 1.0)])
    def test_invalid(self, grid, sp, sig):
        with pytest.raises(DomainError):
            contraction_norm(sp, sig, grid)


class TestDampedProjection:
    def test_idempotent_symmetric(self, dp_s1):
        assert dp_s1.idempotency_residual() < 1e-8

    @pytest.mark.parametrize("perturb", [
        lambda Q, rng: 0.3 * Q,
        lambda Q, rng: Q * np.where(np.arange(Q.shape[1]) == 3, 0.9, 1.0),
        lambda Q, rng: Q + 1e-3 * rng.standard_normal(Q.shape),
    ], ids=["scaled", "one_column", "noise"])
    def test_residual_matches_dense(self, dp_s1, perturb):
        # the Gram form against ||P^2 - P||_F / ||P||_F on the dense matrix
        bad = DampedProjectionGrid(HPParam(-1.0), 1.0, dp_s1.grid, 20,
                                   perturb(dp_s1.basis, np.random.default_rng(3)))
        P = bad.matrix
        dense = float(np.linalg.norm(P @ P - P) / np.linalg.norm(P))
        assert bad.idempotency_residual() == pytest.approx(dense, rel=1e-12)

    def test_memory_below_one_grid_matrix(self, grid, dp_s1):
        # the projection is held as its basis: building it and reading the
        # trace, residual, diagonal and 30 draws allocate far less than one
        # n x n matrix (dp_s1 has already run the lazy scipy imports, which
        # would otherwise count)
        tracemalloc.start()
        try:
            dp = damped_projection(HPParam(-1.0), 1.0, grid, 20)
            dp.trace()
            dp.idempotency_residual()
            dp.diagonal()
            sample_damped_dpp(dp, seed=1, n_draws=30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size**2 * 8

    def test_trace_matches_rank(self, dp_s1):
        assert dp_s1.rank == 21
        assert abs(dp_s1.trace() - 21.0) < 0.05

    def test_two_lost_directions(self, grid):
        dp = damped_projection(HPParam(-1.6), 1.0, grid, 10)
        assert dp.rank == 12
        assert abs(dp.trace() - 12.0) < 0.05
        assert dp.idempotency_residual() < 1e-8

    def test_degenerate_matches_resolvent_formula(self, grid):
        # no lost directions above -1/2: the build must equal
        # sqrt(g) Pi (1 + (g-1) Pi)^{-1} Pi sqrt(g) evaluated head-on
        dp = damped_projection(HPParam(-0.4), 1.0, grid, 12)
        U = _kernel_eigenbasis(-0.4, grid, 12, 64)
        g = np.exp(-grid.nodes**2)
        Pi = U @ U.T
        W = np.eye(grid.size) + (g[:, None] - 1.0) * Pi
        Q = np.sqrt(g)[:, None] * (Pi @ np.linalg.solve(W, Pi)) * np.sqrt(g)[None, :]
        assert float(np.max(np.abs(dp.matrix - Q))) < 1e-10
        assert abs(dp.trace() - 12.0) < 0.05

    def test_deterministic_rebuild(self, grid, dp_s1):
        again = damped_projection(HPParam(-1.0), 1.0, grid, 20)
        assert np.array_equal(dp_s1.matrix, again.matrix)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_damped_v_stays_transversal(self, grid, sigma):
        # projection of the damped v_1 onto the damped kernel block is
        # strictly shorter: the angle stays bounded away from zero
        block = damped_projection(HPParam(0.0), sigma, grid, 20)
        vb = VBasis(HPParam(-1.0))
        b = (
            eval_v_basis(vb, 1, grid.nodes)
            * np.exp(-0.5 * sigma * grid.nodes**2)
            * np.sqrt(grid.weights)
        )
        ratio = float(np.linalg.norm(block.matrix @ b) / np.linalg.norm(b))
        assert ratio < 0.5

    def test_collapsed_damping_raises(self, grid):
        with pytest.raises(NearSingular):
            damped_projection(HPParam(-1.0), 1e5, grid, 20)

    def test_invalid_arguments(self, grid):
        with pytest.raises(DomainError):
            damped_projection(HPParam(-1.0), 0.0, grid, 20)
        with pytest.raises(DomainError):
            damped_projection(HPParam(-1.0), 1.0, grid, 0)
        with pytest.raises(DomainError):
            damped_projection(HPParam(-1.0), 1.0, grid, 70)

    def test_window_mode_capacity_guard(self, grid):
        # the window carries well under 40 solid modes; asking for more
        # must fail loudly instead of returning junk eigenvectors
        with pytest.raises(DomainError):
            damped_projection(HPParam(-1.0), 1.0, grid, 40)


class TestBoundaryReduction:
    def test_proxy_refinement_settles(self, bulk_grid):
        diags = {}
        for N in (16, 32, 64):
            dp = damped_projection(HPParam(-0.4), 1.0, bulk_grid, 4, proxy_N=N)
            diags[N] = np.diagonal(dp.matrix) / bulk_grid.weights
        w = bulk_grid.weights
        l1_coarse = float(np.sum(np.abs(diags[16] - diags[32]) * w))
        l1_fine = float(np.sum(np.abs(diags[32] - diags[64]) * w))
        sup_coarse = float(np.max(np.abs(diags[16] - diags[32])))
        sup_fine = float(np.max(np.abs(diags[32] - diags[64])))
        assert l1_fine < 0.7 * l1_coarse
        assert sup_fine < sup_coarse


class TestS2Functional:
    def test_empty(self):
        assert s2_functional(Configuration(()), 0.5) == (0.0, 1.0)

    def test_pair(self):
        s2, w = s2_functional(Configuration((1.0, -2.0)), 0.5)
        assert s2 == 5.0
        assert w == pytest.approx(math.exp(-2.5), rel=1e-15)

    @given(st.lists(
        st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-6),
        max_size=8, unique=True,
    ), st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_weight_in_unit_interval(self, pts, sigma):
        s2, w = s2_functional(Configuration(tuple(pts)), sigma)
        assert s2 >= 0.0
        assert 0.0 < w <= 1.0

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            s2_functional(Configuration((1.0,)), 0.0)


class TestDiagonal:
    def test_mass_equals_rank(self, grid, dp_s1):
        d = dp_s1.diagonal()
        assert float(np.sum(d * grid.weights)) == pytest.approx(21.0, abs=0.05)

    def test_nonnegative(self, dp_s1):
        d = dp_s1.diagonal()
        assert float(np.min(d)) > -1e-12

    def test_matches_dense_matrix(self, grid, dp_s1):
        dense = np.diagonal(dp_s1.matrix) / grid.weights
        assert np.allclose(dp_s1.diagonal(), dense, rtol=1e-14, atol=0.0)

    def test_clouds_follow_diagonal(self, grid, dp_s1, draws_s1):
        d = dp_s1.diagonal()
        pts = np.abs(draws_s1.ravel())
        x = np.abs(grid.nodes)
        edges = [1.0 / 80.0, 0.1, 0.5, 1.0, 2.0, 6.0]
        for a, b in zip(edges[:-1], edges[1:]):
            mask = (x >= a) & (x < b)
            expect = 200.0 * float(np.sum((d * grid.weights)[mask]))
            obs = int(np.sum((pts >= a) & (pts < b)))
            assert abs(obs - expect) <= 3.0 * math.sqrt(max(expect, 1.0))


class TestSampleDamped:
    def test_shape_window_distinct(self, dp_s1, draws_s1):
        assert draws_s1.shape == (200, 21)
        assert float(np.max(np.abs(draws_s1))) <= 6.0
        assert all(len(set(row)) == len(row) for row in draws_s1)
        again = sample_damped_dpp(dp_s1, seed=5, n_draws=200)
        assert np.array_equal(draws_s1, again)

    def test_range_basis_reproduces_projection(self, dp_s1):
        Q = dp_s1.basis
        assert Q.shape == (dp_s1.grid.size, dp_s1.rank)
        assert float(np.max(np.abs(Q.T @ Q - np.eye(dp_s1.rank)))) < 1e-13
        assert float(np.max(np.abs(Q @ Q.T - dp_s1.matrix))) < 1e-13

    def test_draws_match_dense_eigenbasis(self, dp_s1, draws_s1):
        # the dense eigh route: same range, so the same draws
        lam, V = np.linalg.eigh(dp_s1.matrix)
        Q = np.ascontiguousarray(V[:, -dp_s1.rank:])
        rng = np.random.Generator(np.random.Philox(key=5))
        ref = sequential_projection_draws(Q, dp_s1.grid.nodes, rng, 200)
        assert np.array_equal(draws_s1, ref)

    def test_corrupt_projection_rejected(self, grid, dp_s1):
        bad = DampedProjectionGrid(HPParam(-1.0), 1.0, grid, 20, 0.3 * dp_s1.basis)
        with pytest.raises(NearSingular):
            sample_damped_dpp(bad, seed=0, n_draws=1)
