"""Tests for circle/line weights and the two orthogonal-polynomial builders.

Frozen reference tables were generated offline with an arbitrary-precision
package at 40 working digits, from the normalized trigonometric moment
product and exact Gamma-ratio line moments, through an independent
Cholesky / Gram-Schmidt construction.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from hpkernels.errors import DomainError
from oracles import cd_sum_circle, de_nodes, trig_moment
from hpkernels.weights_opuc import (
    HPParam,
    build_monic_line,
    build_opuc,
    cd_identity_residual,
    eval_line_weight,
    top_log_gammas,
)

# fixed evaluation points for the frozen coefficient rows: the origin (the
# constant coefficients) and points of the unit circle
FROZEN_Z = np.concatenate(([0.0], np.exp(1j * np.array([-2.4, -0.3, 0.9, 2.1]))))
FROZEN_X = np.array([-1.7, -0.4, 0.0, 0.3, 1.1, 2.5])

# orthonormal circle polynomials, weight (2+2cos)^s, s=1, first three rows
OPUC_S1_ROWS = [
    ["1.0"],
    ["-0.57735026918962576450914878050196", "1.1547005383792515290182975610039"],
    [
        "0.40824829046386301636621401245098",
        "-0.81649658092772603273242802490196",
        "1.2247448713915890490986420373529",
    ],
]

# same construction for the reflected weight (2-2cos)^s at s=1/2, the
# rotation of (2+2cos)^s by pi
OPUC_W_S05_ROWS = [
    ["1.0"],
    ["0.35355339059327376220042218105242", "1.0606601717798212866012665431573"],
    [
        "0.21650635094610966169093079268823",
        "0.43301270189221932338186158537647",
        "1.0825317547305483084546539634412",
    ],
]

# monic line polynomials for (1+x^2)^(-s-N), s=1/2, N=6: coefficients and
# squared norms by degree
MONIC_S05_N6 = {
    0: ([1.0], "0.73881673881673881673881673881674"),
    1: ([0.0, 1.0], "0.073881673881673881673881673881674"),
    2: ([-0.1, 0.0, 1.0], "0.02031746031746031746031746031746"),
    3: ([0.0, -0.375, 0.0, 1.0], "0.012698412698412698412698412698413"),
    4: ([0.0625, 0.0, -1.0, 0.0, 1.0], "0.019047619047619047619047619047619"),
}


class TestParam:
    def test_shift_count(self):
        # smallest non-negative integer pushing s past -1/2
        assert HPParam(1.0).n_s == 0
        assert HPParam(0.0).n_s == 0
        assert HPParam(-0.3).n_s == 0
        assert HPParam(-0.7).n_s == 1
        assert HPParam(-2.25).n_s == 2
        # boundary: s + n = -1/2 exactly is still outside, need one more
        assert HPParam(-0.5).n_s == 1
        assert HPParam(-1.5).n_s == 2

    def test_shifted_param(self):
        p = HPParam(-2.25)
        assert p.s_prime == pytest.approx(-0.25, abs=1e-15)

    def test_complex_s(self):
        with pytest.raises(DomainError, match="s must be real"):
            HPParam(complex(-0.7, 2.0))


def circle_weight(s, theta):
    """lambda(theta) read off the weighted basis: p_0 = 1, and theta is the
    angle from the singular point minus +-pi."""
    theta = np.asarray(theta, dtype=float)
    row = build_opuc(HPParam(s), 1).eval_weighted(theta - np.copysign(np.pi, theta))
    return np.abs(row[:, 0]) ** 2


class TestCircleWeight:
    def test_values(self):
        # probability-normalized: c_1 = Gamma(2)^2/Gamma(3) = 1/2
        assert circle_weight(1.0, 0.0)[0] == pytest.approx(2.0, rel=1e-15)
        assert circle_weight(1.0, math.pi / 2)[0] == pytest.approx(1.0, rel=1e-14)

    def test_singular_endpoint(self):
        with pytest.raises(DomainError):
            build_opuc(HPParam(-0.3), 3).eval_weighted(0.0)
        # positive s: zero, not singular
        assert np.all(build_opuc(HPParam(0.5), 3).eval_weighted(0.0) == 0.0)

    def test_out_of_range_angle(self):
        with pytest.raises(DomainError):
            build_opuc(HPParam(0.5), 3).eval_weighted(3.5)

    def test_normalization_constant(self):
        # the normalized weight integrates to one against d theta/2pi
        for s in (0.5, 1.0, 1.7):
            th, wt = de_nodes(4000)
            th, wt = th * np.pi, wt * np.pi
            total = np.sum(wt * circle_weight(s, th)) / (2 * np.pi)
            assert total == pytest.approx(1.0, rel=1e-11)


class TestLineWeight:
    def test_values(self):
        p = HPParam(0.5)
        assert eval_line_weight(p, 2, 0.0) == 1.0
        assert eval_line_weight(p, 2, 1.0) == pytest.approx(2.0 ** (-2.5), rel=1e-15)

    def test_shift_identity_exact(self):
        # (s, N) and (s+m, N-m) give bitwise-identical weights
        x = np.linspace(-7.0, 7.0, 101)
        for m in (1, 2, 3):
            a = eval_line_weight(HPParam(-1.2), 8, x)
            b = eval_line_weight(HPParam(-1.2 + m), 8 - m, x)
            assert np.array_equal(a, b)

class TestTrigMoments:
    def test_product_values(self):
        p = HPParam(1.0)
        assert trig_moment(p, 0) == 1.0
        assert trig_moment(p, 1) == pytest.approx(0.5, rel=1e-15)
        assert trig_moment(p, 2) == 0.0  # (s+1-2) = 0 at s=1

    @pytest.mark.parametrize("s", [0.5, 1.7, -0.3])
    def test_against_quadrature(self, s):
        th, wt = de_nodes(6000)
        th, wt = th * np.pi, wt * np.pi
        lam = circle_weight(s, th)
        # the blowup endpoint caps double-precision quadrature near
        # (1e-16)^(1+2s) for s < 0; smooth cases resolve fully
        tol = 1e-5 if s < 0 else 5e-11
        for k in range(1, 5):
            num = np.sum(wt * lam * np.exp(-1j * k * th)) / (2 * np.pi)
            got = trig_moment(HPParam(s), k)
            assert num.real == pytest.approx(got, abs=tol)
            assert abs(num.imag) < tol

    def test_negative_index(self):
        # for real s the moments are real, so m_{-k} = conj(m_k) = m_k
        assert trig_moment(HPParam(0.8), -2) == pytest.approx(
            trig_moment(HPParam(0.8), 2), rel=1e-15
        )

    @given(st.floats(-0.45, 3.0), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_one(self, s, k):
        # normalized moments of a probability measure
        assert abs(trig_moment(HPParam(s), k)) <= 1.0 + 1e-15


class TestOPUC:
    def test_frozen_rows_lambda(self):
        b = build_opuc(HPParam(1.0), 3)
        P = b.eval_all(FROZEN_Z)
        for i, row in enumerate(OPUC_S1_ROWS):
            want = polyval(FROZEN_Z, np.array([float(c) for c in row]))
            np.testing.assert_allclose(P[:, i], want, rtol=1e-14, atol=1e-15)

    def test_frozen_rows_w(self):
        # the reflected weight's basis is the rotated one, (-1)^k p_k(-z)
        b = build_opuc(HPParam(0.5), 3)
        P = b.eval_all(-FROZEN_Z) * np.array([1.0, -1.0, 1.0])
        for i, row in enumerate(OPUC_W_S05_ROWS):
            want = polyval(FROZEN_Z, np.array([float(c) for c in row]))
            np.testing.assert_allclose(P[:, i], want, rtol=1e-14, atol=1e-15)

    def test_s_zero_is_monomials(self):
        # short dyadic points: every power is exact, whatever the rounding path
        z = np.array([0.0, 1.0, -1.0, 1j, -0.5 + 0.75j, 1.5 - 0.25j])
        b = build_opuc(HPParam(0.0), 6)
        powers = np.cumprod(np.repeat(z[:, None], 5, axis=1), axis=1)
        want = np.hstack([np.ones((z.size, 1)), powers])
        assert np.array_equal(b.eval_all(z), want)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_gram_orthonormality(self, s):
        # double-exponential quadrature resolves the endpoint corner
        b = build_opuc(HPParam(s), 40)
        th, wt = de_nodes(10000)
        th, wt = th * np.pi, wt * np.pi
        lam = circle_weight(s, th)
        P = b.eval_all(np.exp(1j * th))
        G = (P.conj().T * (wt * lam)) @ P / (2 * np.pi)
        assert np.max(np.abs(G - np.eye(40))) < 1e-10

    def test_gram_orthonormality_negative_s(self):
        # endpoint blowup limits double precision to ~(1e-16)^(1+2s)
        s = -0.3
        b = build_opuc(HPParam(s), 40)
        th, wt = de_nodes(10000)
        th, wt = th * np.pi, wt * np.pi
        lam = circle_weight(s, th)
        P = b.eval_all(np.exp(1j * th))
        G = (P.conj().T * (wt * lam)) @ P / (2 * np.pi)
        assert np.max(np.abs(G - np.eye(40))) < 1e-6

    def test_certified_residual(self):
        b = build_opuc(HPParam(0.8), 50)
        assert b.gram_residual < 1e-8

    @pytest.mark.parametrize("s", [-0.45, -0.3, 0.0, 0.5, 1.0, 5.0, 20.0, 100.0, 300.0, 511.0])
    def test_gram_residual_measures_rounding(self, s):
        # the Gauss-Jacobi rule is exact at these degrees: what is left is
        # rounding, at every s the commands take
        assert build_opuc(HPParam(s), 64).gram_residual <= 1e-10

    def test_gram_residual_catches_a_perturbed_coefficient(self):
        b = build_opuc(HPParam(0.7), 64)
        alpha = b.alpha.copy()
        alpha[10] *= 1.0 + 1e-8
        assert dataclasses.replace(b, alpha=alpha).gram_residual > 1e-10

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8, 1e-13, 1e-15, 2.0**-54])
    def test_gram_residual_near_minus_half_is_finite_or_refused(self, eps):
        # the rule's weights leave double precision as s -> -1/2
        b = build_opuc(HPParam(-0.5 + eps), 64)
        try:
            value = b.gram_residual
        except DomainError:
            return
        assert math.isfinite(value)

    def test_gram_residual_is_computed_on_first_read(self):
        b = build_opuc(HPParam(0.5), 16)
        assert "gram_residual" not in vars(b)
        value = b.gram_residual
        assert vars(b)["gram_residual"] == value

    def test_degree_bounds(self):
        with pytest.raises(DomainError):
            build_opuc(HPParam(0.5), 0)
        with pytest.raises(DomainError):
            build_opuc(HPParam(-0.6), 4)


class TestCDSums:
    def test_identity_residual_small(self):
        b = build_opuc(HPParam(0.7), 6)
        for th, ta in [(1.1, -0.4), (2.5, 0.3), (0.2, 3.0)]:
            assert cd_identity_residual(b, th, ta) < 1e-12

    def test_coincidence_rejected(self):
        b = build_opuc(HPParam(0.7), 4)
        with pytest.raises(DomainError):
            cd_identity_residual(b, 1.0, 1.0)

    def test_diagonal_positive(self):
        b = build_opuc(HPParam(0.4), 6)
        for th in np.linspace(-3.0, 3.0, 11):
            v = cd_sum_circle(b, 6, th, th)
            assert v.imag == pytest.approx(0.0, abs=1e-13)
            assert v.real > 0

    def test_dirichlet_at_s_zero(self):
        # flat weight reduces the sum to the Dirichlet kernel
        b = build_opuc(HPParam(0.0), 7)
        a, t = 1.3, 0.4
        got = cd_sum_circle(b, 7, a, t)
        want = np.exp(1j * 3.5 * (a - t) - 0.5j * (a - t)) * np.sin(
            3.5 * (a - t)
        ) / np.sin(0.5 * (a - t))
        assert abs(got - want) < 1e-12


class TestGolinskiiEnvelope:
    @pytest.mark.parametrize("s", [-0.3, 0.5, 1.0])
    def test_sandwich_constants_persist(self, s):
        # constants fitted at n=10 keep sandwiching |p_n| for larger n
        def golinskii_envelope(p, n, theta):
            # (|1+e^{i theta}| + 1/(n+1))^(-s), the size of |p_n| near the singular angle
            return (np.abs(1.0 + np.exp(1j * theta)) + 1.0 / (n + 1.0)) ** (-p.s)

        p = HPParam(s)
        b = build_opuc(p, 101)
        th = np.linspace(-3.1, 3.1, 200)
        P = np.abs(b.eval_all(np.exp(1j * th)))
        r10 = P[:, 10] / golinskii_envelope(p, 10, th)
        c1, c2 = r10.min(), r10.max()
        assert c2 / c1 < 50.0
        for n in (25, 50, 100):
            r = P[:, n] / golinskii_envelope(p, n, th)
            assert r.min() >= c1 * (1 - 1e-12)
            assert r.max() <= c2 * (1 + 1e-12)


class TestMonicLine:
    def test_frozen_table(self):
        b = build_monic_line(HPParam(0.5), 6)
        P = b.eval_all(FROZEN_X)
        for d, (coeffs, h) in MONIC_S05_N6.items():
            want = polyval(FROZEN_X, np.array(coeffs))
            np.testing.assert_allclose(P[:, d], want, rtol=1e-13, atol=1e-15)
            assert b.sq_norms[d] == pytest.approx(float(h), rel=1e-13)

    def test_degree_one_is_x(self):
        b = build_monic_line(HPParam(1.3), 5)
        P = b.eval_all(FROZEN_X)
        assert np.array_equal(P[:, 0], np.ones_like(FROZEN_X))
        assert np.array_equal(P[:, 1], FROZEN_X)

    def test_weighted_matches_plain_recurrence(self):
        # the rescaled, weight-carrying recurrence against the plain one
        s, N = 0.7, 9
        b = build_monic_line(HPParam(s), N)
        x = np.linspace(-4.0, 4.0, 33)
        phi = eval_line_weight(HPParam(s), N, x)
        want = b.eval_all(x) * np.sqrt(phi)[:, None] / np.sqrt(b.sq_norms)
        np.testing.assert_allclose(b.eval_weighted(x), want, rtol=1e-13, atol=1e-14)

    def test_parity(self):
        b = build_monic_line(HPParam(0.9), 7)
        x = np.linspace(0.2, 2.0, 9)
        P = b.eval_all(x)
        Q = b.eval_all(-x)
        for d in range(6):
            np.testing.assert_allclose(Q[:, d], (-1.0) ** d * P[:, d], rtol=1e-14)

    def test_top_norm_closed_form(self):
        # ln h_{N-1} against the Gamma-ratio closed form
        for s, N in [(0.0, 1), (0.0, 3), (0.5, 4), (1.0, 5), (-0.3, 6)]:
            b = build_monic_line(HPParam(s), N)
            want = math.log(math.pi) + top_log_gammas(s, N)
            assert math.log(b.sq_norms[N - 1]) == pytest.approx(want, abs=1e-12)

    def test_top_norm_values(self):
        # s=0, N=1: integral of (1+x^2)^(-1) = pi
        assert math.pi * math.exp(top_log_gammas(0.0, 1)) == pytest.approx(math.pi, rel=1e-14)
        assert math.pi * math.exp(top_log_gammas(0.5, 4)) == pytest.approx(0.2, rel=1e-13)

    def test_last_factor_keeps_its_digits_near_minus_half(self):
        # at s = -1/2 + 2^-54, s + N rounds to N - 1/2, and 2a - 2k - 1 formed
        # from it is 0 at k = N-1; formed from 2s + 1 it keeps b_{N-1} finite
        s, N = -0.49999999999999994, 8
        b = build_monic_line(HPParam(s), N)
        log_rec = math.log(b.sq_norms[0]) + float(np.sum(np.log(b.b[1:])))
        assert log_rec == pytest.approx(math.log(math.pi) + top_log_gammas(s, N), abs=1e-12)

    def test_orthogonality_quadrature(self):
        s, N = 0.5, 6
        b = build_monic_line(HPParam(s), N)
        from hpkernels.quadrature import panel_nodes

        # degrees 0..4: degree 5 decays only like x^-3, too slowly for the
        # cut at 400
        x, w = panel_nodes(0.0, 400.0, 2000, 12)
        P = b.eval_all(x)[:, :5]
        phi = eval_line_weight(HPParam(s), N, x)
        # even integrands: double the half-line integral where parity allows
        G = (P.T * (w * phi)) @ P
        Podd = b.eval_all(-x)[:, :5]
        G = G + (Podd.T * (w * phi)) @ Podd
        h = b.sq_norms[:5]
        D = G / np.sqrt(np.outer(h, h))
        assert np.max(np.abs(D - np.eye(5))) < 5e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_monic_line(HPParam(-0.6), 5)
        with pytest.raises(DomainError):
            build_monic_line(HPParam(0.5), 0)
