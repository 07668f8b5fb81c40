"""Kernel tests against frozen high-precision references.

Reference values were generated offline with an arbitrary-precision package
at 40 working digits: finite-kernel values through an exact-moment
Gram-Schmidt construction, limit-kernel values through arbitrary-precision
Bessel evaluation, and the diagonal through the analytic derivative.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpkernels.errors import DomainError
from hpkernels import kernels as kernels_mod
from hpkernels import weights_opuc as wo
from hpkernels.kernels import (
    FiniteKernel,
    LimitKernel,
    ProjectionQuad,
    VFunction,
    build_finite_kernel,
    check_finite_recurrence,
    check_limit_recurrence,
    _finite_recurrence_residuals,
    _inner_table,
    _limit_FG,
    _pm_products,
    check_projection,
    convergence_profile,
    eval_limit_kernel,
    eval_V,
    limit_kernel_matrix,
    phi_n_matrix,
    v_norm_sq_closed,
    v_norm_sq_quadrature,
)
from oracles import (
    de_nodes,
    limit_recurrence_composed,
    reflected_phi_n,
    szego_diag_extended,
    szego_sq_sum_mp,
)
from hpkernels.weights_opuc import HPParam, eval_line_weight

# frozen references (40-digit offline generator)
K_S0_N2 = "0.38197186342054880584532103209403"  # = 6/(5 pi), x=0.5 y=1.0
K_S1_N3_OFF = "0.36875236903459214750165026969551"  # x=0.7 y=-0.4
K_S1_N3_DIAG = "2.375622973103150312634513224219"  # x=y=0.25
LIM_S05_OFF = "0.13601964279160835699043340402703"  # s=0.5 (0.8, 1.7)
LIM_DIAG = {
    (0.5, 1.3): "0.10577748759424901430215110904987",
    (0.25, 0.6): "0.89238526707132800242826527110213",
    (1.0, 2.0): "0.0064143111969159361689951276700502",
}
PHI_S1_N3 = "0.046233261662489697661079633626973"  # (alpha,beta)=(2,-1), real
PHI_S0_N2 = "0.11253953951963825869439989887584"  # (pi, 0) = 1/(2 sqrt2 pi)
V_LIM_S05 = "0.9995330489689080081001110470353"  # s=0.5 at x=0.9
V_PRE_S05_N4 = "1.3054459303776500098312674556371"  # s=0.5 N=4 at x=0.6


class TestFiniteKernel:
    @pytest.mark.parametrize("route", ["circle_cayley", "line_direct"])
    def test_frozen_value_s0(self, route):
        k = build_finite_kernel(HPParam(0.0), 2, route)
        got = float(k.kernel_matrix([0.5], [1.0])[0, 0])
        assert got == pytest.approx(float(K_S0_N2), rel=1e-14)

    @pytest.mark.parametrize("route", ["circle_cayley", "line_direct"])
    def test_frozen_values_s1(self, route):
        k = build_finite_kernel(HPParam(1.0), 3, route)
        assert float(k.kernel_matrix([0.7], [-0.4])[0, 0]) == pytest.approx(
            float(K_S1_N3_OFF), rel=1e-13
        )
        assert float(k.kernel_matrix([0.25], [0.25])[0, 0]) == pytest.approx(
            float(K_S1_N3_DIAG), rel=1e-13
        )

    @pytest.mark.parametrize("s", [-0.3, 0.3])
    def test_overflowing_t_reads_zero(self, s):
        # t = N x overflows at |x| = 1e307: the angle is taken from x, so
        # s < 0 stays off the weight's singular point.  At subnormal x,
        # 1/|t| overflows to the angle -+pi, as at x = 1e-300.  Neither warns.
        k = build_finite_kernel(HPParam(s), 100)
        x = np.array([1e307, -1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(k.rho1(x), [0.0, 0.0])
            assert np.array_equal(k.kernel_matrix(x, x), np.zeros((2, 2)))
            near_zero = k.rho1([1e-320, -1e-320])
        assert np.array_equal(near_zero, k.rho1([1e-300, -1e-300]))

    def test_routes_agree_on_grid(self):
        g = np.array([-2.3, -0.7, 0.31, 0.9, 1.9])
        a = build_finite_kernel(HPParam(0.5), 4, "circle_cayley")
        b = build_finite_kernel(HPParam(0.5), 4, "line_direct")
        Ka = a.kernel_matrix(g, g)
        Kb = b.kernel_matrix(g, g)
        assert np.max(np.abs(Ka - Kb)) < 1e-12

    @pytest.mark.parametrize("s", [-0.3, 0.3, 1.0])
    def test_routes_agree_at_large_N(self, s):
        # t = N x reaches 3000: the line route must neither overflow nor underflow
        rng = np.random.default_rng(1000)
        g = rng.uniform(0.1, 3.0, 16) * rng.choice([-1.0, 1.0], 16)
        Ka = build_finite_kernel(HPParam(s), 1000, "circle_cayley").kernel_matrix(g, g)
        Kb = build_finite_kernel(HPParam(s), 1000, "line_direct").kernel_matrix(g, g)
        assert np.all(np.isfinite(Kb))
        assert np.max(np.abs(Ka - Kb)) < 1e-11 * max(1.0, np.max(np.abs(Ka)))

    @pytest.mark.parametrize("s", [-0.3, 0.7, 3.0])
    def test_routes_agree_far_out(self, s):
        # the circle route forms no angle near the weight's singular point:
        # rho_1 keeps its relative precision, and s < 0 raises nothing;
        # next to the origin, far from that point, the kernel keeps its
        # absolute error
        a = build_finite_kernel(HPParam(s), 16, "circle_cayley")
        b = build_finite_kernel(HPParam(s), 16, "line_direct")
        x = np.array([1e2, 1e8, 1e12, 1e15, 1e30])
        x = np.concatenate([x, -x])
        assert np.all(np.abs(a.rho1(x) - b.rho1(x)) <= 1e-13 * b.rho1(x))
        g = np.array([-3e-6, -1e-6, 1e-6, 2e-6, 1e-5])
        Ka, Kb = a.kernel_matrix(g, g), b.kernel_matrix(g, g)
        assert np.max(np.abs(Ka - Kb)) <= 1e-14 * np.max(np.abs(Kb))

    @pytest.mark.parametrize("s", [600.0, 1000.0])
    def test_routes_agree_at_large_s(self, s):
        # the circle weight's factors c_s and 4^s are combined in logs:
        # nothing overflows where the mass sits
        x = np.array([1e-3, 5e-3, 1e-2, 2e-2])
        a = build_finite_kernel(HPParam(s), 16, "circle_cayley").rho1(x)
        b = build_finite_kernel(HPParam(s), 16, "line_direct").rho1(x)
        assert np.all(np.abs(a - b) <= 1e-12 * b)

    def test_symmetry_and_evenness(self):
        g = np.linspace(0.1, 3.0, 50)
        g = np.concatenate([-g[::2], g[1::2]])
        k = build_finite_kernel(HPParam(0.5), 6)
        K = k.kernel_matrix(g, g)
        assert np.max(np.abs(K - K.T)) < 1e-14
        Kn = k.kernel_matrix(-g, -g)
        assert np.max(np.abs(K - Kn)) < 1e-12

    def test_evenness_exact_line_route(self):
        g = np.array([0.2, 0.7, 1.4])
        k = build_finite_kernel(HPParam(1.0), 4, "line_direct")
        assert np.array_equal(k.kernel_matrix(g, g), k.kernel_matrix(-g, -g))

    @pytest.mark.parametrize("s,N", [(0.0, 5), (0.5, 6), (1.0, 3)])
    def test_trace_is_N(self, s, N):
        # angle-variable quadrature of the diagonal; the substitution is
        # measure-exact, so only quadrature error remains
        k = build_finite_kernel(HPParam(s), N)
        th, wt = de_nodes(16000)
        th, wt = th * np.pi, wt * np.pi
        tr = float(np.sum(wt * k.rho1_theta(th)) / (2 * np.pi))
        assert tr == pytest.approx(N, abs=1e-6)

    def test_reproducing_property(self):
        # int K(x,g) K(g,y) dg = K(x,y), integrated in the angle variable
        s, N = 0.5, 4
        k = build_finite_kernel(HPParam(s), N)
        th, wt = de_nodes(8000)
        th, wt = th * np.pi, wt * np.pi
        g = np.tan(th / 2.0) / N
        M = k.feature_matrix(g)  # rows ~ features at the quadrature nodes
        jac = (1.0 + (N * g) ** 2) / (2.0 * N)  # dx/dtheta at the nodes
        G = (M.conj() * (wt * jac)[:, None]).T @ M
        assert np.max(np.abs(G - np.eye(N))) < 1e-8
        x, y = 0.37, -1.21
        fx = k.feature_matrix([x])[0]
        fy = k.feature_matrix([y])[0]
        lhs = (fx @ G @ fy.conj()).real
        rhs = float(k.kernel_matrix([x], [y])[0, 0])
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_rank(self):
        k = build_finite_kernel(HPParam(0.5), 5)
        g = np.linspace(-2.0, 2.0, 41)
        g = g[g != 0.0]
        K = k.kernel_matrix(g, g)
        sv = np.linalg.svd(K, compute_uv=False)
        assert np.sum(sv > sv[0] * 1e-10) == 5

    def test_positive_diagonal(self):
        k = build_finite_kernel(HPParam(-0.3), 4)
        x = np.linspace(0.05, 4.0, 30)
        assert np.all(k.rho1(x) > 0)

    def test_domain_errors(self):
        k = build_finite_kernel(HPParam(0.5), 3)
        with pytest.raises(DomainError):
            k.kernel_matrix([0.0], [1.0])
        with pytest.raises(DomainError):
            build_finite_kernel(HPParam(-0.7), 3)
        with pytest.raises(DomainError):
            build_finite_kernel(HPParam(0.5), 3, "other")


def _assert_no_less_accurate(got, rows, exact):
    """got is no further from the extended-precision sum than the float row
    sums, up to 1e-14 relative, on normal-range values; below the normal
    range it equals the row sums."""
    normal = exact >= np.finfo(float).tiny
    assert np.any(normal)

    def worst(v):
        return np.max(np.abs(v[normal] - exact[normal]) / exact[normal])

    assert worst(got) <= worst(rows) + 1e-14
    assert np.array_equal(got[~normal], rows[~normal])


class TestDiagonalRoute:
    """rho1 and rho1_theta on the circle route sum |p_k|^2 inside their own
    Szego pass; the references are the row sums of the feature rows and,
    where those carry the larger rounding, the sum in extended precision."""

    @pytest.mark.parametrize("s", [-0.45, -0.3, 0.0, 0.5, 7.0, 300.0])
    @pytest.mark.parametrize("N", [1, 2, 64, 1000])
    def test_rho1_matches_feature_rows(self, s, N):
        k = build_finite_kernel(HPParam(s), N)
        x = np.geomspace(1e-6, 1e30, 72)
        x = np.concatenate([x, -x])
        got = k.rho1(x)
        ref = np.sum(np.abs(k.feature_matrix(x)) ** 2, axis=1)
        if N == 1000 or (N, s) == (64, 300.0):
            phi, factor = kernels_mod._cayley(N, x, N * x)
            _assert_no_less_accurate(got, ref, szego_diag_extended(s, N, phi, factor))
            return
        # at s = 300 the weight underflows far out: both read exactly 0
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("s", [-0.45, -0.3, 0.0, 0.5, 7.0, 300.0])
    @pytest.mark.parametrize("N", [1, 2, 64, 1000])
    def test_rho1_theta_matches_weighted_rows(self, s, N):
        k = build_finite_kernel(HPParam(s), N)
        th = np.concatenate([np.geomspace(1e-6, np.pi - 1e-6, 36),
                             np.pi + np.geomspace(1e-6, np.pi - 1e-6, 36)])
        th = np.concatenate([th, -th])
        got = k.rho1_theta(th)
        P = k.opuc.eval_weighted(th - np.copysign(np.pi, th))
        ref = np.sum(np.abs(P) ** 2, axis=1)
        if N == 1000 or (N, s) == (64, 300.0):
            exact = szego_diag_extended(s, N, th - np.copysign(np.pi, th))
            _assert_no_less_accurate(got, ref, exact)
            return
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("s, phi", [(-0.3, [4.8e-6, -0.3]), (0.0, [4.8e-6, 2.5]),
                                        (7.0, [-1e-3, 1.0]), (300.0, [0.3, -3.0])])
    def test_extended_reference_matches_40_digits(self, s, phi):
        # the Szego recursion and the weight's own square at 40 digits
        N = 1000
        got = szego_diag_extended(s, N, phi)
        root, e = wo._root_weight(s, np.array(phi))
        with mpmath.workdps(40):
            for i, f in enumerate(phi):
                acc = szego_sq_sum_mp(s, N, -mpmath.expj(mpmath.mpf(f)))
                ref = acc * (mpmath.mpf(float(root[i])) * mpmath.mpf(2) ** int(e[i])) ** 2
                assert ref > np.finfo(float).tiny
                assert abs(got[i] - ref) <= 2.5e-16 * ref

    def test_weight_below_normal_range_keeps_digits(self):
        # at s = 300 the weight root falls below 1e-308 from x ~ 0.0112
        # (N = 1000) while rho_1 is still representable: reference, the
        # Szego recursion and the weight at 30 digits
        s, N = 300.0, 1000
        x = [0.005, 0.01116, 0.01187, 0.0183]
        ref = []
        with mpmath.workdps(30):
            ms = mpmath.mpf(s)
            c_s = mpmath.gamma(ms + 1) ** 2 / mpmath.gamma(2 * ms + 1)
            for xi in x:
                t = N * mpmath.mpf(xi)
                phi = -2 * mpmath.atan(1 / t)
                z = -mpmath.expj(phi)
                p = star = mpmath.mpc(1)
                acc = mpmath.mpf(1)
                for k in range(N - 1):
                    a = (-1) ** k * ms / (k + ms + 1)
                    r = mpmath.sqrt(1 - a * a)
                    zp = z * p
                    p, star = (zp - a * star) / r, (star - a * zp) / r
                    acc += abs(p) ** 2
                lam = c_s * abs(2 * mpmath.sin(phi / 2)) ** (2 * ms)
                ref.append(float(lam * acc * N / mpmath.pi / (1 + t * t)))
        got = build_finite_kernel(HPParam(s), N).rho1(x)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.array(ref))

    def test_line_route_below_normal_weight(self):
        # at s = 300, N = 1000 the line route's weight power (1+t^2)^((k-a)/2)
        # leaves the normal range from x ~ 0.0108 while rho_1 does not:
        # reference, the monic recurrence and the weight at 40 digits
        s, N = 300.0, 1000
        x = [0.0105, 0.01112, 0.0128, 0.0183]
        ref = []
        with mpmath.workdps(40):
            a = mpmath.mpf(s) + N
            for xi in x:
                t = N * mpmath.mpf(xi)
                h = mpmath.sqrt(mpmath.pi) * mpmath.gamma(a - 0.5) / mpmath.gamma(a)
                prev, p = mpmath.mpf(0), mpmath.mpf(1)
                acc = 1 / h
                for k in range(1, N):
                    b = [(j * (2 * a - j)) / ((2 * a - 2 * j - 1) * (2 * a - 2 * j + 1))
                         for j in (k - 1, k)]
                    prev, p = p, t * p - b[0] * prev
                    h *= b[1]
                    acc += p * p / h
                ref.append(float(N * acc * (1 + t * t) ** (-a)))
        ref = np.array(ref)
        assert np.all(ref > np.finfo(float).tiny)
        got = build_finite_kernel(HPParam(s), N, "line_direct").rho1(x)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_routes_agree_where_line_weight_is_deep(self):
        # wherever rho_1 is normal the routes agree; each keeps a few 1e-13
        # of its own against the references above, so 2e-12 between them
        s, N = 300.0, 1000
        x = np.geomspace(1e-4, 1.0, 400)
        x = np.concatenate([x, -x])
        a = build_finite_kernel(HPParam(s), N).rho1(x)
        b = build_finite_kernel(HPParam(s), N, "line_direct").rho1(x)
        normal = a > np.finfo(float).tiny
        assert normal.sum() > 400
        assert np.all(np.abs(a - b)[normal] <= 2e-12 * a[normal])

    def test_domain_errors_unchanged(self):
        k = build_finite_kernel(HPParam(-0.3), 4)
        with pytest.raises(DomainError, match="R\\*"):
            k.rho1([1.0, 0.0])
        with pytest.raises(DomainError, match="lie in"):
            k.rho1_theta([2.0 * np.pi + 0.1])
        with pytest.raises(DomainError, match="singular"):
            k.rho1_theta([np.pi])  # phi = 0, the singular point, at s < 0
        assert np.isfinite(build_finite_kernel(HPParam(0.3), 4).rho1_theta([np.pi])).all()
        with pytest.raises(DomainError, match="circle route"):
            build_finite_kernel(HPParam(0.3), 4, "line_direct").rho1_theta([1.0])

    def test_memory_is_per_point(self):
        # the (4481, 4000) complex feature matrix would take 287 MB
        import tracemalloc

        k = build_finite_kernel(HPParam(0.7), 4000)
        x = np.geomspace(3.0, 3.0 * 2.0**14, 4481)
        tracemalloc.start()
        try:
            k.rho1(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestDensityTransport:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_joint_density_ratio_constant(self, s):
        # product-form joint density maps to the torus one with the
        # |dtheta/dx| factors; the ratio must be tuple-independent
        rng = np.random.Generator(np.random.Philox(key=7))
        N = 5
        ratios = []
        for _ in range(6):
            x = rng.standard_cauchy(N)
            th = 2.0 * np.arctan(x)  # e^{i theta} = (i - x)/(i + x)
            vand_line = 1.0
            vand_circ = 1.0
            for i in range(N):
                for j in range(i + 1, N):
                    vand_line *= (x[i] - x[j]) ** 2
                    vand_circ *= abs(np.exp(1j * th[i]) - np.exp(1j * th[j])) ** 2
            wl = np.prod((1.0 + x**2) ** (-(s + N)))
            wc = np.prod((2.0 + 2.0 * np.cos(th)) ** s)
            jac = np.prod(2.0 / (1.0 + x * x))  # d theta/dx
            ratios.append((vand_circ * wc * jac) / (vand_line * wl))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-10


def phi_at(k, alpha, beta):
    """phi_n at one angle pair, as the 1x1 grid."""
    return complex(phi_n_matrix(k, [alpha], [beta])[0, 0])


class TestPhiN:
    def test_s0_closed_form(self):
        k = build_finite_kernel(HPParam(0.0), 5)
        for a, b in [(2.0, -3.0), (7.5, 1.2), (12.0, -12.0)]:
            got = phi_at(k, a, b)
            want = math.sin((a - b) / 2) / (2 * math.pi * 5 * math.sin((a - b) / 10))
            assert got.real == pytest.approx(want, abs=1e-12)
            assert abs(got.imag) < 1e-12

    def test_frozen_value_s0(self):
        k = build_finite_kernel(HPParam(0.0), 2)
        got = phi_at(k, math.pi, 0.0)
        assert got.real == pytest.approx(float(PHI_S0_N2), rel=1e-12)

    def test_frozen_value_s1(self):
        k = build_finite_kernel(HPParam(1.0), 3)
        got = phi_at(k, 2.0, -1.0)
        assert got.real == pytest.approx(float(PHI_S1_N3), rel=1e-12)
        assert abs(got.imag) < 1e-14

    def test_diagonal_real_nonnegative(self):
        k = build_finite_kernel(HPParam(0.5), 4)
        for a in np.linspace(-11.0, 11.0, 9):
            v = phi_at(k, a, a)
            assert abs(v.imag) < 1e-14
            assert v.real >= 0.0

    def test_hermitian(self):
        k = build_finite_kernel(HPParam(0.5), 4)
        v = phi_at(k, 1.3, -2.7)
        w = phi_at(k, -2.7, 1.3)
        assert v == pytest.approx(np.conj(w), rel=1e-13)

    def test_window(self):
        k = build_finite_kernel(HPParam(0.5), 3)
        with pytest.raises(DomainError):
            phi_at(k, 3 * math.pi, 0.0)
        with pytest.raises(DomainError):
            phi_at(k, 0.0, -9.5)

    @pytest.mark.parametrize("s", [-0.3, 0.0, 0.5, 1.3, 7.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_rotation_matches_reflected_weight(self, s, n):
        # the weight is formed from a/n itself, the angle from the singular
        # point, so the angles next to it keep their relative precision
        rng = np.random.default_rng(20)
        k = build_finite_kernel(HPParam(s), n)
        near_singular = [[1e-3 * n, 0.5 * n], [-2e-3 * n, -1e-3 * n], [1e-8 * n, -0.5 * n]]
        for a, b in np.vstack([rng.uniform(-n * np.pi, n * np.pi, (20, 2)), near_singular]):
            ref = reflected_phi_n(s, n, a, b)
            assert abs(phi_at(k, a, b) - ref) <= 1e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("s", [-0.3, 0.5])
    def test_grid_matches_pointwise(self, s):
        k = build_finite_kernel(HPParam(s), 5)
        grid = np.linspace(-15.0, 15.0, 12)
        G = phi_n_matrix(k, grid, grid)
        one = np.array([[phi_at(k, a, b) for b in grid] for a in grid])
        assert np.all(np.abs(G - one) <= 1e-15 * np.maximum(1.0, np.abs(one)))

    def test_line_route_rejected(self):
        k = build_finite_kernel(HPParam(0.5), 4, "line_direct")
        with pytest.raises(DomainError):
            phi_n_matrix(k, [1.0], [2.0])

    def test_singular_angle_for_negative_s(self):
        # the rotated weight blows up at angle 0, as the reflected one did
        k = build_finite_kernel(HPParam(-0.3), 4)
        with pytest.raises(DomainError):
            phi_n_matrix(k, [0.0], [1.0])


class TestLimitKernel:
    def test_frozen_off_diagonal(self):
        k = LimitKernel(HPParam(0.5))
        got = eval_limit_kernel(k, 0.8, 1.7)
        assert got == pytest.approx(float(LIM_S05_OFF), rel=1e-13)

    def test_frozen_diagonals(self):
        for (s, x), ref in LIM_DIAG.items():
            k = LimitKernel(HPParam(s))
            got = eval_limit_kernel(k, x, x)
            assert got == pytest.approx(float(ref), rel=1e-8), (s, x)

    def test_s0_diagonal_closed_form(self):
        # 1/(pi x^2) at twenty points
        k = LimitKernel(HPParam(0.0))
        for x in np.linspace(0.5, 3.0, 20):
            got = eval_limit_kernel(k, float(x), float(x))
            assert abs(got - 1.0 / (math.pi * x * x)) < 1e-10

    def test_s0_diagonal_closed_form_to_roundoff(self):
        # the closed-form diagonal, down to x = 0.05 (Bessel argument 20)
        k = LimitKernel(HPParam(0.0))
        for x in np.linspace(0.05, 3.0, 60):
            got = eval_limit_kernel(k, float(x), float(x))
            assert got == pytest.approx(1.0 / (math.pi * x * x), rel=1e-12)

    @pytest.mark.parametrize("s", [-0.3, 0.7])
    def test_diagonal_matches_mpmath_derivative(self, s):
        # K(x, x) = F'G - FG', differentiated numerically at 40 digits
        k = LimitKernel(HPParam(s))

        def F(t):
            return mpmath.besselj(s - 0.5, 1 / t) / (2 * mpmath.sqrt(t))

        def G(t):
            return mpmath.besselj(s + 0.5, 1 / t) / mpmath.sqrt(t)

        with mpmath.workdps(40):
            for x in (0.05, 0.13, 0.4, 0.9, 1.7, 3.0):
                t = mpmath.mpf(x)
                ref = float(mpmath.diff(F, t) * G(t) - F(t) * mpmath.diff(G, t))
                assert eval_limit_kernel(k, x, x) == pytest.approx(ref, rel=1e-12)
                assert eval_limit_kernel(k, -x, -x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.45, -0.3])
    def test_F_below_order_minus_half_matches_mpmath(self, s):
        # J_{s-1/2} is one recurrence step down from J_{s+1/2} here, and it
        # has zeros in range: the error is measured against the size of the
        # two terms of the step, ((2s+1)/z) J_{s+1/2}(z) and J_{s+3/2}(z)
        xs = np.geomspace(0.05, 20.0, 40)
        F, _ = _limit_FG(s, np.concatenate([xs, -xs]))
        with mpmath.workdps(40):
            nu = mpmath.mpf(s) - 0.5
            for i, x in enumerate(xs):
                t = mpmath.mpf(x)
                half = 2 * mpmath.sqrt(t)
                ref = float(mpmath.besselj(nu, 1 / t) / half)
                size = float((abs((2 * nu + 2) * t * mpmath.besselj(nu + 1, 1 / t))
                              + abs(mpmath.besselj(nu + 2, 1 / t))) / half)
                assert abs(F[i] - ref) <= 1e-13 * size, x
                assert F[i + xs.size] == F[i]

    def test_near_diagonal_matrix_entries_equal_scalar(self):
        k = LimitKernel(HPParam(0.7))
        xs = np.array([0.6, 0.6 * (1 + 4e-6), 1.3, 1.3 + 2e-9, -2.2, -2.2 * (1 - 9e-6)])
        M = limit_kernel_matrix(k, xs, xs)
        near = np.abs(xs[:, None] - xs[None, :]) < k.h_diag * np.maximum(
            np.abs(xs)[:, None], np.abs(xs)[None, :])
        assert np.count_nonzero(near & ~np.eye(xs.size, dtype=bool)) == 6
        for i, j in zip(*np.nonzero(near)):
            assert M[i, j] == eval_limit_kernel(k, float(xs[i]), float(xs[j]))

    def test_sine_kernel_transport(self):
        # after the gauge with sgn(xy), the s=0 kernel matches the
        # sine kernel under alpha = -2/x
        k = LimitKernel(HPParam(0.0))
        for x, y in [(1.0, -1.0), (0.7, 2.2), (-0.5, -1.3), (0.3, 0.9)]:
            a, b = -2.0 / x, -2.0 / y
            sine = math.sin((a - b) / 2) / (math.pi * (a - b))
            lhs = 2.0 / abs(x * y) * sine
            rhs = math.copysign(1.0, x * y) * eval_limit_kernel(k, x, y)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_symmetry_bitwise(self):
        k = LimitKernel(HPParam(0.7))
        assert eval_limit_kernel(k, 1.4, -0.6) == eval_limit_kernel(k, -0.6, 1.4)
        # near-diagonal path is symmetric through the midpoint
        assert eval_limit_kernel(k, 1.0, 1.0 + 1e-7) == eval_limit_kernel(
            k, 1.0 + 1e-7, 1.0
        )

    def test_evenness(self):
        k = LimitKernel(HPParam(0.5))
        assert eval_limit_kernel(k, 0.8, 1.7) == pytest.approx(
            eval_limit_kernel(k, -0.8, -1.7), rel=1e-14
        )

    def test_matrix_agrees_with_scalar(self):
        k = LimitKernel(HPParam(0.25))
        xs = np.array([0.5, 1.0, -1.5])
        M = limit_kernel_matrix(k, xs, xs)
        for i, xv in enumerate(xs):
            for j, yv in enumerate(xs):
                assert M[i, j] == pytest.approx(
                    eval_limit_kernel(k, float(xv), float(yv)), rel=1e-13
                )

    def test_domain_errors(self):
        k = LimitKernel(HPParam(0.5))
        with pytest.raises(DomainError):
            eval_limit_kernel(k, 0.0, 1.0)
        with pytest.raises(DomainError):
            LimitKernel(HPParam(-0.6))

    @given(
        st.floats(-0.4, 2.0),
        st.floats(0.25, 4.0),
        st.floats(0.25, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry_property(self, s, x, y):
        k = LimitKernel(HPParam(s))
        assert eval_limit_kernel(k, x, y) == eval_limit_kernel(k, y, x)


class TestVFunction:
    @pytest.mark.parametrize("s", [-0.3, 0.5, 3.0])
    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_prelimit_scale_from_logs(self, s, N):
        # N^{1+s} sqrt(h_{N-1}) comes from lgamma; against the 40-digit
        # closed form of h_{N-1} and against the product N^{1+s} times the
        # recurrence's sqrt(h_{N-1}), each route carries up to ~2e-14 at N = 64
        v = VFunction(HPParam(s), "prelimit", N)
        x = np.array([-2.3, -0.7, -0.05, 0.01, 0.4, 1.0, 3.3, 17.0])
        unit = np.sign(x) ** N * v.monic.eval_weighted(N * x)[:, N - 1]
        with mpmath.workdps(40):
            S = mpmath.mpf(s)
            h = (mpmath.pi * 2 ** (-2 * S) * mpmath.gamma(2 * S + 1) * mpmath.gamma(2 * S + 2)
                 * mpmath.gamma(N) / (mpmath.gamma(S + 1) ** 2 * mpmath.gamma(N + 1 + 2 * S)))
            exact = float(mpmath.mpf(N) ** (1 + S) * mpmath.sqrt(h))
        product = N ** (1.0 + s) * math.sqrt(v.monic.sq_norms[N - 1])
        got = eval_V(v, x)
        np.testing.assert_allclose(got, exact * unit, rtol=4e-14, atol=0)
        np.testing.assert_allclose(got, product * unit, rtol=4e-14, atol=0)

    def test_sine_special_case(self):
        v = VFunction(HPParam(0.0))
        assert eval_V(v, 2.0 / math.pi) == pytest.approx(1.0, rel=1e-13)
        x = np.array([0.3, 0.9, 2.4])
        np.testing.assert_allclose(eval_V(v, x), np.sin(1.0 / x), rtol=1e-12)

    def test_frozen_values(self):
        v = VFunction(HPParam(0.5))
        assert eval_V(v, 0.9) == pytest.approx(float(V_LIM_S05), rel=1e-13)
        vp = VFunction(HPParam(0.5), "prelimit", 4)
        assert eval_V(vp, 0.6) == pytest.approx(float(V_PRE_S05_N4), rel=1e-13)

    def test_odd(self):
        for v in (VFunction(HPParam(0.8)), VFunction(HPParam(0.5), "prelimit", 5)):
            x = np.array([0.2, 0.7, 1.9])
            np.testing.assert_allclose(eval_V(v, -x), -eval_V(v, x), rtol=1e-14)

    def test_norm_closed_anchors(self):
        # s=0 gives pi, s=1/2 gives 4
        assert v_norm_sq_closed(VFunction(HPParam(0.0))) == pytest.approx(
            math.pi, rel=1e-14
        )
        assert v_norm_sq_closed(VFunction(HPParam(0.5))) == pytest.approx(
            4.0, rel=1e-13
        )
        assert v_norm_sq_closed(VFunction(HPParam(0.5), "prelimit", 4)) == (
            pytest.approx(3.2, rel=1e-13)
        )

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_norm_quadrature_limit(self, s):
        v = VFunction(HPParam(s))
        q = v_norm_sq_quadrature(v)
        c = v_norm_sq_closed(v)
        assert abs(q - c) / c < 1e-6

    @pytest.mark.parametrize("s,N", [(0.0, 4), (0.5, 5)])
    def test_norm_quadrature_prelimit(self, s, N):
        v = VFunction(HPParam(s), "prelimit", N)
        q = v_norm_sq_quadrature(v)
        c = v_norm_sq_closed(v)
        assert abs(q - c) / c < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            VFunction(HPParam(-0.7))
        with pytest.raises(DomainError):
            VFunction(HPParam(0.5), "prelimit", 1)
        with pytest.raises(DomainError):
            eval_V(VFunction(HPParam(0.5)), 0.0)


class TestProjection:
    def test_residual_within_bound(self):
        k = LimitKernel(HPParam(0.0))
        r, b = check_projection(k, 1.0, 2.0, 100.0)
        assert r < 1e-3
        assert r <= b
        k5 = LimitKernel(HPParam(0.5))
        r5, b5 = check_projection(k5, 0.7, 0.7, 100.0)
        assert r5 < 1e-3
        assert r5 <= b5
        # below s = 0 the tail decays like R^(-2s-1) and J_{s-1/2} comes
        # from the recurrence step: only the certified bound holds
        k3 = LimitKernel(HPParam(-0.3))
        r3, b3 = check_projection(k3, 1.0, 2.0, 100.0)
        assert r3 <= b3

    def test_warm_table_equals_cold(self):
        # bit for bit, and an entry serves only its own (s, plan)
        runs = [(0.5, None), (0.5, ProjectionQuad(t_max=200.0)), (0.0, None)]

        def run(s, q):
            return check_projection(LimitKernel(HPParam(s)), 1.2, -0.8, 100.0, q)

        cold = []
        for s, q in runs:
            _inner_table.cache_clear()
            cold.append(run(s, q))
        assert [run(s, q) for s, q in runs] == cold

    def test_table_is_read_only(self):
        for arr in _inner_table(0.5, ProjectionQuad()):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_parity_matches_direct_products(self):
        # F, G at +a serve g = -a bit for bit: each product equals the one
        # built from the kernel at the signed node
        s, x, y = 0.25, 1.3, -0.6
        k = LimitKernel(HPParam(s))
        a = np.linspace(0.07, 9.0, 23)
        FGxy = _limit_FG(s, np.array([x, y]))
        plus, minus = _pm_products(x, y, FGxy, a, *_limit_FG(s, a))
        for sgn, got in ((1.0, plus), (-1.0, minus)):
            g = sgn * a
            want = limit_kernel_matrix(k, [x], g)[0] * limit_kernel_matrix(k, g, [y])[:, 0]
            assert np.array_equal(got, want)

    def test_parity_without_mask_matches_direct_products(self):
        # a node range holding neither +-x nor +-y takes the maskless branch
        s, x, y = 0.25, 1.3, -0.6
        k = LimitKernel(HPParam(s))
        FGxy = _limit_FG(s, np.array([x, y]))
        for a in (np.linspace(0.07, 0.5, 23), np.linspace(1.5, 9.0, 23)):
            plus, minus = _pm_products(x, y, FGxy, a, *_limit_FG(s, a))
            for sgn, got in ((1.0, plus), (-1.0, minus)):
                g = sgn * a
                want = limit_kernel_matrix(k, [x], g)[0] * limit_kernel_matrix(k, g, [y])[:, 0]
                assert np.array_equal(got, want)

    def test_node_at_x_adds_zero_without_warning(self):
        s, x, y = 0.5, 0.4, 2.0
        a = np.array([0.3, x, 1.1])
        FGxy = _limit_FG(s, np.array([x, y]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plus, minus = _pm_products(x, y, FGxy, a, *_limit_FG(s, a))
        assert plus[1] == 0.0
        assert np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))
        assert np.all(minus != 0.0)

    def test_halving_at_s0(self):
        # the certified chain is O(1/R) and tight at s=0
        k = LimitKernel(HPParam(0.0))
        r1, _ = check_projection(k, 1.0, 2.0, 100.0)
        r2, _ = check_projection(k, 1.0, 2.0, 200.0)
        assert 0.35 * r1 <= r2 <= 0.65 * r1

    def test_truncation_tail_is_real(self):
        # at R=50 the honest deficit exceeds 1e-3; the bound tracks it
        k = LimitKernel(HPParam(0.0))
        r, b = check_projection(k, 1.0, 2.0, 50.0)
        assert 1e-3 < r < 2.5e-3
        assert r <= b < 2.5e-3

    def test_small_R_rejected(self):
        k = LimitKernel(HPParam(0.0))
        with pytest.raises(DomainError):
            check_projection(k, 1.0, 2.0, 3.0)


def _count_basis_passes(monkeypatch) -> list:
    """(method, basis id, points) of every OPUCBasis.eval_all and
    MonicLineBasis.eval_weighted call from here on."""
    passes = []
    for cls in (wo.OPUCBasis, wo.MonicLineBasis):
        name = "eval_all" if cls is wo.OPUCBasis else "eval_weighted"
        real = getattr(cls, name)

        def counted(self, t, real=real, name=name):
            passes.append((name, id(self), np.size(t)))
            return real(self, t)
        monkeypatch.setattr(cls, name, counted)
    return passes


class TestRecurrences:
    def test_limit_grid(self):
        for s in (0.0, 0.25, 0.8):
            for x in (0.2, 1.0, 2.6):
                for y in (0.4, 1.7, 3.0):
                    assert check_limit_recurrence(s, x, y) < 1e-10

    def test_limit_mixed_signs_and_diagonal(self):
        assert check_limit_recurrence(0.5, 0.5, -0.5) < 1e-10
        assert check_limit_recurrence(0.5, -1.1, 0.8) < 1e-10
        assert check_limit_recurrence(0.25, 2.0, 2.0) < 1e-8
        assert check_limit_recurrence(0.25, 1.0, 1.0 + 1e-7) < 1e-8

    @pytest.mark.parametrize("s", [-0.45, -0.3, 0.0, 0.25, 0.8, 1.3])
    def test_limit_equals_composed_residual(self, s):
        # bit for bit the residual of two eval_limit_kernel calls and two
        # scalar bessel_j calls: mixed signs, x = y, and pairs inside the
        # midpoint switch
        rng = np.random.default_rng(2001)
        pts = rng.uniform(0.05, 4.0, 12) * rng.choice([-1.0, 1.0], 12)
        pairs = [(float(x), float(y)) for x in pts for y in pts[:4]]
        pairs += [(float(x), float(x) * (1.0 + 1e-7)) for x in pts]
        pairs += [(float(x), -float(x)) for x in pts[:4]]
        for x, y in pairs:
            assert check_limit_recurrence(s, x, y) == limit_recurrence_composed(s, x, y)

    @pytest.mark.parametrize("s", [-0.45, -0.3, 0.0, 0.5, 1.3])
    @pytest.mark.parametrize("x,y", [(0.7, -1.9), (1.1, 1.1), (2.0, 2.0 * (1.0 + 1e-7))])
    def test_limit_bessel_calls_per_check(self, monkeypatch, s, x, y):
        # one bessel_j call per distinct order on the points, at most 4
        calls = []
        real = kernels_mod.bessel_j

        def counted(nu, z):
            calls.append(np.size(z))
            return real(nu, z)
        monkeypatch.setattr(kernels_mod, "bessel_j", counted)
        check_limit_recurrence(s, x, y)
        assert 1 <= len(calls) <= 4
        assert set(calls) == {2 if x != y and abs(x - y) > 1e-5 * abs(x) else 3}

    def test_finite_examples(self):
        assert check_finite_recurrence(0.0, 3, 0.4, -0.9) < 1e-8
        assert check_finite_recurrence(0.5, 5, 0.85, 0.85) < 1e-8

    def test_finite_more_points(self):
        for x, y in [(0.2, 1.4), (-0.6, -0.3), (1.0, -2.0)]:
            assert check_finite_recurrence(0.3, 4, x, y) < 1e-8

    def test_finite_one_pass_per_basis(self, monkeypatch):
        # each of the three bases (circle kernel, line kernel, V) is
        # evaluated once, at both points of its pair
        passes = _count_basis_passes(monkeypatch)
        assert check_finite_recurrence(0.3, 6, 0.7, -1.2) < 1e-8
        assert sorted(p[0] for p in passes) == ["eval_all", "eval_weighted", "eval_weighted"]
        assert len({p[1] for p in passes}) == 3
        assert all(p[2] == 2 for p in passes)

    def test_finite_pairs_one_pass_per_basis(self, monkeypatch):
        # several pairs share one pass per basis over all their points, and
        # each residual equals the one-pair check's bit for bit
        pairs = [(0.7, -1.2), (1.1, 0.4), (-2.5, -0.3)]
        single = [check_finite_recurrence(0.3, 6, x, y) for x, y in pairs]
        passes = _count_basis_passes(monkeypatch)
        assert _finite_recurrence_residuals(0.3, 6, pairs) == single
        assert len(passes) == 3 and len({p[1] for p in passes}) == 3
        assert all(p[2] == 6 for p in passes)

    def test_rank_one_integrates_to_one(self):
        # the V/||V|| term contributes exactly one unit of trace
        for s, N in [(0.0, 4), (0.5, 5)]:
            v = VFunction(HPParam(s), "prelimit", N)
            ratio = v_norm_sq_quadrature(v) / v_norm_sq_closed(v)
            assert ratio == pytest.approx(1.0, abs=1e-6)


class TestConvergenceProfile:
    def test_s0_strictly_decreasing(self):
        grid = np.linspace(0.5, 3.0, 20)
        prof = convergence_profile(0.0, [4, 8, 16, 32], grid)
        gaps = [g for _, g in prof]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2

    def test_monotone_with_slack(self):
        grid = np.linspace(0.5, 3.0, 12)
        prof = convergence_profile(0.5, [4, 8, 16], grid)
        gaps = [g for _, g in prof]
        # allow 20 percent slack on strict monotonicity
        assert all(b < 1.2 * a for a, b in zip(gaps, gaps[1:]))
