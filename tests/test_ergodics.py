"""Principal-value sums, uniform moment estimates, variance bounds and the
corner-trace balance experiment."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpkernels import ergodics
from hpkernels.ergodics import (
    circle_moment_JN,
    cutoff_sums,
    gamma1_balance_experiment,
    limit_tail_mass,
    rho1_second_moment,
    tail_mass,
    variance_bound_check,
)
from hpkernels.errors import DomainError
from hpkernels.kernels import LimitKernel, _limit_diag, build_finite_kernel, eval_limit_kernel
from hpkernels.quadrature import graded_nodes, panel_nodes
from hpkernels.sampling import (
    SamplerConfig,
    sample_hp_matrix_s0_batch,
    sample_projection_dpp_batch,
)
from hpkernels.weights_opuc import HPParam, build_opuc
from oracles import cd_sum_circle, piecewise_tail, szego_sq_sum_mp


class TestTent:
    """The tent window, read off one-point configurations: tent sum / x."""

    def test_boundary_values(self):
        xs = np.array([1.0 / 8.0, 3.0 / 16.0, 0.5])
        _, tent = cutoff_sums(xs[:, None], [2])
        assert list(tent[:, 0] / xs) == [0.0, 0.5, 1.0]

    def test_even_and_vectorized(self):
        xs = np.array([-0.5, -3.0 / 16.0, 0.0, 3.0 / 16.0, 0.5])
        hard, tent = cutoff_sums(xs[:, None], [2])
        assert tent.shape == hard.shape == (5, 1)
        assert np.array_equal(tent[:, 0], -tent[::-1, 0])
        assert tent[2, 0] == 0.0

    @given(st.integers(1, 50), st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_range(self, n, x):
        _, tent = cutoff_sums([x], [n])
        v = tent[0]
        assert abs(v) <= abs(x) and v * x >= 0.0  # window in [0, 1]

    def test_bad_index(self):
        with pytest.raises(DomainError):
            cutoff_sums([0.5], [0])
        with pytest.raises(DomainError):
            cutoff_sums([0.5], [2, 0])


class TestPrincipalValueSums:
    def test_symmetric_pair_vanishes(self):
        hard, tent = cutoff_sums((1.0, -1.0), range(1, 7))
        assert all(v == 0.0 for v in hard)
        assert all(v == 0.0 for v in tent)

    def test_threshold_arithmetic(self):
        hard, _ = cutoff_sums((0.01, 0.5), range(1, 13))
        assert hard[4] == 0.5  # n=5: 1/25 = 0.04 > 0.01
        assert hard[9] == 0.51  # n=10: 1/100 = 0.01, closed cutoff
        assert hard[-1] == 0.51

    def test_stabilization(self):
        pts = (-0.2, 0.07, 0.3)
        hard, tent = cutoff_sums(pts, range(1, 11))
        # 1/n^2 < 0.07 from n=4 on: the sums sit at the full sum
        full = math.fsum(pts)
        assert hard[-1] == pytest.approx(full, abs=1e-15)
        assert tent[-1] == pytest.approx(full, abs=1e-15)
        assert hard[-1] == hard[-2] and tent[-1] == tent[-2]

    def test_hard_tent_agree_off_ramp(self):
        # no point of the configuration lies in [1/(2 n^2), 1/n^2] for n=2
        hard, tent = cutoff_sums((-0.3, 0.05, 0.5), [1, 2, 3])
        assert hard[1] == tent[1]

    def test_sampled_configuration_agreement(self):
        X = sample_hp_matrix_s0_batch(64, SamplerConfig(seed=3), 1)[0]
        pts = np.linalg.eigvalsh(X) / 64
        ns = range(1, 13)
        hard, tent = cutoff_sums(pts, ns)
        ax = np.abs(pts)
        for i, n in enumerate(ns):
            lo, hi = 1.0 / (2.0 * n * n), 1.0 / (n * n)
            if not np.any((ax >= lo) & (ax <= hi)):
                assert hard[i] == tent[i]

    def test_batch_rows_match_single_configurations(self):
        X = sample_hp_matrix_s0_batch(16, SamplerConfig(seed=5), 4)
        pts = np.linalg.eigvalsh(X) / 16
        hard, tent = cutoff_sums(pts, [1, 3, 9])
        assert hard.shape == tent.shape == (4, 3)
        for row, h, t in zip(pts, hard, tent):
            h1, t1 = cutoff_sums(row, [1, 3, 9])
            assert np.array_equal(h, h1) and np.array_equal(t, t1)

    def test_hard_sum_in_point_order(self):
        # a running sum, term by term in the given order, like a plain loop
        rng = np.random.default_rng(8)
        pts = rng.standard_normal(300) * 10.0 ** rng.integers(-4, 3, 300)
        hard, _ = cutoff_sums(pts, [1, 4, 30])
        for h, n in zip(hard, [1, 4, 30]):
            tot = 0.0
            for p in pts:
                if abs(p) >= 1.0 / (n * n):
                    tot += p
            assert h == tot

    def test_empty_configuration(self):
        hard, tent = cutoff_sums(np.zeros(0), [1, 2])
        assert list(hard) == list(tent) == [0.0, 0.0]


def _circle_moment_30_digits(s, N, t, w):
    """(2/N^2) sum_i w_i tan^2(t_i/2) lambda(t_i) sum_{k<N} |p_k(e^{i t_i})|^2 / 2pi
    at 30 digits: the Szego recursion from alpha_k = (-1)^k s/(k+s+1) and
    lambda = c_s (2 + 2cos t)^s, on the float nodes and weights as given."""
    with mpmath.workdps(30):
        ms = mpmath.mpf(s)
        c_s = mpmath.gamma(ms + 1) ** 2 / mpmath.gamma(2 * ms + 1)
        total = mpmath.mpf(0)
        for ti, wi in zip(t, w):
            th = mpmath.mpf(ti)
            lam = c_s * (2 + 2 * mpmath.cos(th)) ** ms
            density = lam * szego_sq_sum_mp(s, N, mpmath.expj(th)) / (2 * mpmath.pi)
            total += mpmath.mpf(wi) * mpmath.tan(th / 2) ** 2 * density
        return 2 * total / (N * N)


class TestSecondMoment:
    def test_transport_equality(self):
        # line-side and angle-side quadratures of the same moment
        for s, N, eps in [(0.0, 8, 0.2), (0.5, 6, 0.3), (-0.3, 10, 0.1), (1.0, 20, 0.1)]:
            a = rho1_second_moment(HPParam(s), N, eps)
            b = circle_moment_JN(HPParam(s), N, eps)
            assert abs(a - b) < 1e-6
            assert a >= 0.0

    def test_circle_moment_matches_pointwise_cd_sums(self):
        # references: the circle density node by node through cd_sum_circle,
        # and the same quadrature sum with the density (the Szego recursion
        # and the weight) at 30 digits; circle_moment_JN is at most 1 ulp
        # further from the latter than the float reference is
        for s, N, eps in [(0.5, 6, 0.3), (-0.3, 10, 0.1)]:
            basis = build_opuc(HPParam(s), N)
            t, w = ergodics._half_window_nodes(2.0 * math.atan(N * eps), N)
            vals = np.array([cd_sum_circle(basis, N, ti, ti).real for ti in t])
            ref = 2.0 * float(np.sum(w * np.tan(t / 2.0) ** 2 * vals / (2.0 * math.pi)))
            exact = float(_circle_moment_30_digits(s, N, t, w))
            ulps = [abs(v - exact) / math.ulp(exact)
                    for v in (circle_moment_JN(HPParam(s), N, eps), ref / (N * N))]
            assert ulps[0] <= ulps[1] + 1.0

    def test_uniform_ratio_window(self):
        # sup_N of value/eps: stable within 3x once N*eps is order one
        ratios = [rho1_second_moment(HPParam(0.0), N, 0.2) / 0.2
                  for N in (10, 20, 50, 100)]
        assert max(ratios) / min(ratios) < 3.0

    def test_ratio_approaches_sup(self):
        # at eps = 0.05 the small-N cells are pre-asymptotic: the ratio
        # climbs toward its supremum 2/pi instead of staying within 3x
        ratios = [rho1_second_moment(HPParam(0.0), N, 0.05) / 0.05
                  for N in (10, 20, 50, 100)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= (2.0 / math.pi) * 1.05
        assert max(ratios) / min(ratios) > 3.0  # the 3x window needs N*eps >= 1

    def test_eps_scaling(self):
        v1 = rho1_second_moment(HPParam(0.0), 100, 0.05)
        v2 = rho1_second_moment(HPParam(0.0), 100, 0.1)
        assert 0.3 <= v1 / v2 <= 0.7

    def test_case_bounds_fitted(self):
        for s in (1.0, -0.3):
            eps = 0.1
            C = circle_moment_JN(HPParam(s), 10, eps) / eps
            val = circle_moment_JN(HPParam(s), 20, eps)
            assert val <= 3.0 * C * eps

    def test_bad_eps(self):
        with pytest.raises(DomainError):
            rho1_second_moment(HPParam(0.0), 5, 0.0)


class TestTailMass:
    def test_s0_one_over_R(self):
        C = tail_mass(HPParam(0.0), 10, 5.0) * 5.0
        assert abs(C - 2.0 / math.pi) < 0.01
        for N in (20, 50):
            v = tail_mass(HPParam(0.0), N, 5.0) * 5.0
            assert C / 3.0 <= v <= 3.0 * C

    def test_negative_s_decay(self):
        s = -0.3
        expn = 1.0 + 2.0 * s
        C = tail_mass(HPParam(s), 10, 4.0) * 4.0 ** expn
        for R in (8.0, 16.0):
            v = tail_mass(HPParam(s), 10, R) * R ** expn
            assert C / 3.0 <= v <= 3.0 * C

    def test_limit_kernel_tail(self):
        v = limit_tail_mass(HPParam(0.0), 5.0)
        assert abs(v - 2.0 / (5.0 * math.pi)) < 1e-6
        assert 0.0 < limit_tail_mass(HPParam(0.5), 3.0) < math.inf

    @pytest.mark.parametrize("s", [0.0, 0.7])
    def test_limit_tail_matches_pointwise_kernel(self, s):
        # the same quadrature with one eval_limit_kernel call per node
        lk = LimitKernel(HPParam(s))
        total, lo = 0.0, 5.0
        for _ in range(14):
            x, w = panel_nodes(lo, 2.0 * lo, 20)
            total += float(np.sum(w * np.array([eval_limit_kernel(lk, t, t) for t in x])))
            lo *= 2.0
        tail = lo * eval_limit_kernel(lk, lo, lo) / (1.0 + 2.0 * s)
        assert limit_tail_mass(HPParam(s), 5.0) == 2.0 * (total + tail)

    @pytest.mark.parametrize("s", [-0.3, 0.0, 1.3])
    @pytest.mark.parametrize("panels", [0, 1, 14])
    def test_one_pass_tail_sums_as_the_piece_loop(self, s, panels):
        # one diagonal call on all nodes, summed piece by piece in the
        # loop's order: the limit tail keeps every bit; tail_mass has the
        # shipped 14 pieces
        got = limit_tail_mass(HPParam(s), 3.0, panels)
        ref = piecewise_tail(lambda x: _limit_diag(s, x), s, 3.0, 2.0, panels)
        assert got.hex() == ref.hex()
        if panels == 14:
            k = build_finite_kernel(HPParam(s), 20)
            assert tail_mass(HPParam(s), 20, 3.0) == pytest.approx(
                piecewise_tail(k.rho1, s, 3.0, 2.0, panels), rel=1e-15)

    def test_bad_R(self):
        with pytest.raises(DomainError):
            tail_mass(HPParam(0.0), 5, -1.0)

    def test_limit_tail_bad_parameter(self):
        with pytest.raises(DomainError):
            limit_tail_mass(HPParam(-0.5), 5.0)


class TestVarianceBound:
    def test_bound_holds(self):
        T, bound = variance_bound_check(HPParam(0.0), 6, 0.3)
        assert 0.0 <= T <= bound

    @staticmethod
    def _assert_bisection_converged(s, N, eps, monkeypatch):
        # the same identity with every theta panel bisected
        T, bound = variance_bound_check(HPParam(s), N, eps)
        edges = ergodics._window_edges
        e = edges(eps, N)
        assert e[0] == 0.0 and np.all(np.diff(e) > 0.0)
        assert np.all(np.diff(e) <= math.pi - e[1:])  # no panel reaches pi

        def bisected(eps, N):
            e = edges(eps, N)
            return np.sort(np.concatenate((e, 0.5 * (e[1:] + e[:-1]))))

        monkeypatch.setattr(ergodics, "_window_edges", bisected)
        T_ref, bound_ref = variance_bound_check(HPParam(s), N, eps)
        assert abs(T - T_ref) <= 1e-12 * abs(T_ref)
        assert abs(bound - bound_ref) <= 1e-12 * abs(bound_ref)

    @pytest.mark.parametrize("N", [6, 64])
    def test_window_rule_converged(self, N, monkeypatch):
        self._assert_bisection_converged(0.5, N, 0.3, monkeypatch)

    def test_window_rule_converged_next_to_pi(self, monkeypatch):
        # the window ends 0.21 short of theta = pi, where the integrand is
        # singular: only the bisected top panels hold 1e-12
        self._assert_bisection_converged(-0.3, 12, 0.8, monkeypatch)

    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_large_N_matches_dense_x_rule(self, s):
        # near x = 0 the points are pi/N^2 apart: the x-rule graded to
        # 2^-30 eps at 16 panels per 1/N resolves the cross term, where the
        # former rule (10 levels, 1 panel per 2/N) read T 26% low at N = 256
        N, eps = 256, 1.0 / 16.0
        k = build_finite_kernel(HPParam(s), N)
        xh, wh = graded_nodes(eps, 30, 20, density=8.0 * N)
        x = np.concatenate([-xh[::-1], xh])
        w = np.concatenate([wh[::-1], wh])
        F = k.feature_matrix(x)
        diag = float(np.sum(w * x * x * np.sum(np.abs(F) ** 2, axis=1)))
        T_ref = diag - float(np.sum(np.abs(F.conj().T @ ((w * x)[:, None] * F)) ** 2))
        T, bound = variance_bound_check(HPParam(s), N, eps)
        assert abs(T - T_ref) <= 1e-9 * T_ref
        assert abs(bound - 2.0 * diag) <= 1e-12 * bound

    @pytest.mark.parametrize("s, N, eps", [
        (0.0, 6, 0.2), (0.5, 12, 0.4), (-0.3, 12, 0.8), (1.0, 40, 0.3),
    ])
    def test_gram_form_matches_dense_kernel(self, s, N, eps):
        # reference: the nodes x nodes kernel matrix, cross = (w x)^T (K*K) (w x)
        k = build_finite_kernel(HPParam(s), N)
        x, w = ergodics._window_nodes(eps, N)
        diag = float(np.sum(w * x * x * k.rho1(x)))
        K = k.kernel_matrix(x, x)
        T_ref = diag - float((w * x) @ (K * K) @ (w * x))
        T, bound = variance_bound_check(HPParam(s), N, eps)
        assert bound == 2.0 * diag
        assert abs(T - T_ref) <= 1e-12 * abs(T_ref)

    def test_first_moment_vanishes(self):
        # evenness kills the window first moment
        k = build_finite_kernel(HPParam(0.0), 6)
        from hpkernels.quadrature import panel_nodes
        x, w = panel_nodes(1e-9, 0.3, 48)
        val = np.sum(w * x * k.rho1(x)) - np.sum(w * x * k.rho1(-x))
        assert abs(val) < 1e-10

    def test_monte_carlo_agreement(self):
        eps = 0.3
        T, _ = variance_bound_check(HPParam(0.0), 6, eps)
        k = build_finite_kernel(HPParam(0.0), 6)
        arr = sample_projection_dpp_batch(k, SamplerConfig(seed=19), 10_000)
        stat = np.sum(np.where(np.abs(arr) <= eps, arr, 0.0), axis=1)
        v = np.var(stat, ddof=1)
        m4 = np.mean((stat - stat.mean()) ** 4)
        se = math.sqrt(max(m4 - v * v, 0.0) / len(stat))
        assert abs(v - T) < 3.0 * se


class TestBalanceExperiment:
    def test_report_shape_and_trend(self):
        rep = gamma1_balance_experiment(64, [16, 32, 64], [2, 3, 4],
                                        draws=60, seed=12)
        assert rep["experiment"] == "gamma1_balance"
        assert len(rep["cells"]) == 9
        cell = {(c["N"], c["n"]): c["median_gap"] for c in rep["cells"]}
        diag = [cell[(16, 2)], cell[(32, 3)], cell[(64, 4)]]
        assert all(a > b for a, b in zip(diag, diag[1:]))

    def test_alternating_diagonal_matrix(self):
        X = np.diag([(-1.0) ** j for j in range(8)])
        for N in (4, 5):
            ev = np.linalg.eigvalsh(X[:N, :N]) / N
            c = float(np.trace(X[:N, :N]).real) / N
            assert c in (0.0, 1.0 / N)
            assert cutoff_sums(ev, [4])[0][0] == c  # 1/16 below 1/N for N <= 8

    def test_stabilization_per_draw(self):
        X = sample_hp_matrix_s0_batch(16, SamplerConfig(seed=44), 1)[0]
        ev = np.linalg.eigvalsh(X) / 16
        nz = np.min(np.abs(ev))
        n_star = int(math.ceil(1.0 / math.sqrt(nz))) + 1
        full = float(np.sum(ev))
        hard, _ = cutoff_sums(ev, [n_star, n_star + 3])
        assert hard[0] == pytest.approx(full, abs=1e-14)
        assert hard[1] == pytest.approx(full, abs=1e-14)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            gamma1_balance_experiment(8, [9], [2], draws=1)
        with pytest.raises(DomainError):
            gamma1_balance_experiment(8, [4], [2], draws=0)

    def test_every_cell_carries_tent_gap(self):
        rep = gamma1_balance_experiment(8, [4, 8], [2, 5], draws=3, seed=1)
        assert "R" not in rep["params"]
        Xs = sample_hp_matrix_s0_batch(8, SamplerConfig(seed=1), 3)
        for cell in rep["cells"]:
            N, n = cell["N"], cell["n"]
            c = np.array([np.trace(X[:N, :N]).real / N for X in Xs])
            ev = np.array([np.linalg.eigvalsh(X[:N, :N]) / N for X in Xs])
            _, tent = cutoff_sums(ev, [n])
            assert cell["median_tent_gap"] == pytest.approx(
                float(np.median(np.abs(c - tent[:, 0]))), rel=1e-12, abs=1e-15)

    def test_json_csv_output(self):
        rep = gamma1_balance_experiment(8, [4, 8], [2], draws=3, seed=1)
        assert json.loads(json.dumps(rep)) == rep


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: HPParam(NAN),
    lambda: HPParam(INF),
    lambda: HPParam(-INF),
    lambda: rho1_second_moment(HPParam(0.0), 10, NAN),
    lambda: circle_moment_JN(HPParam(0.0), 10, NAN),
    lambda: variance_bound_check(HPParam(0.0), 10, NAN),
    lambda: variance_bound_check(HPParam(0.0), 10, INF),
    lambda: tail_mass(HPParam(0.0), 10, NAN),
    lambda: tail_mass(HPParam(0.0), 10, INF),
    lambda: limit_tail_mass(HPParam(0.0), NAN),
    lambda: limit_tail_mass(HPParam(0.0), INF),
], ids=["s-nan", "s-inf", "s-minus-inf", "moment-eps-nan", "circle-eps-nan",
        "variance-eps-nan", "variance-eps-inf", "tail-R-nan", "tail-R-inf",
        "limit-tail-R-nan", "limit-tail-R-inf"])
def test_non_finite_input_is_refused_at_entry(call):
    # a DomainError, never a number or another error from deeper down
    with pytest.raises(DomainError):
        call()
