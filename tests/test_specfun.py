"""Gamma / Bessel accuracy against frozen 32-digit reference values and
an mpmath oracle.

References were generated offline with an arbitrary-precision package at
35 working digits (ascending series summed exactly, Gamma via its internal
high-precision routine) and frozen here as strings.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpkernels.errors import DomainError, PoleError
from hpkernels.specfun import bessel_j, gamma_fn, jsq_over_t_integral

GAMMA_REAL = [
    (0.3, "2.9915689876875906283125165159049"),
    (1.1, "0.95135076986687318362924871772654"),
    (2.4, "1.2421693445043054049130702522683"),
    (7.7, "2769.8303623273136602741777372145"),
    (-0.7, "-4.2736699824108437547321664512927"),
    (-3.2, "0.68905641200597974291922404016836"),
]

BESSEL = [
    (0.0, 0.5, "0.93846980724081290422840467359971"),
    (0.0, 8.3, "0.096006100895010426326267224074734"),
    (0.0, 37.0, "0.010862369724899694740993821310851"),
    (0.3, 2.7, "0.07484269582778452008991118879501"),
    (0.3, 16.1, "-0.12827146324788987416484832109715"),
    (0.5, 12.0, "-0.12358853595594194375456894335781"),
    (1.0, 0.1, "0.049937526036241997556336552437806"),
    (1.8, 15.9, "0.19725538234399015615647427099759"),
    (1.8, 45.0, "-0.099547671597780381355549244735777"),
    (2.3, 5.5, "0.0045031453123487382013370184011433"),
    (-0.5, 3.3, "-0.43372184717936259413938523280729"),
    (3.5, 20.0, "0.02151781813134124896424042055698"),
]


@pytest.mark.parametrize("z,ref", GAMMA_REAL)
def test_gamma_real_points(z, ref):
    assert abs(gamma_fn(z) - float(ref)) <= 1e-13 * abs(float(ref))


def test_gamma_poles_raise():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma_fn(z)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma_fn(200.0)


def test_gamma_duplication():
    # Gamma(z) Gamma(z+1/2) = 2^{1-2z} sqrt(pi) Gamma(2z)
    for z in (0.3, 0.5, 1.1, 2.4):
        lhs = gamma_fn(z) * gamma_fn(z + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * z) * math.sqrt(math.pi) * gamma_fn(2.0 * z)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


@pytest.mark.parametrize("nu,x,ref", BESSEL)
def test_bessel_reference_points(nu, x, ref):
    r = float(ref)
    assert abs(bessel_j(nu, x) - r) <= 1e-13 + 5e-13 * abs(r)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-0.6, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_j(0.5, -2.0)


@pytest.mark.parametrize("x", [math.nan, [1.0, math.nan], np.array([[2.0], [math.nan]])])
def test_bessel_refuses_nan(x):
    # NaN fails every comparison, so a guard on x <= 0 alone lets it through
    with pytest.raises(DomainError, match="x > 0"):
        bessel_j(0.5, x)


def test_bessel_half_order_closed_forms():
    # small and large arguments alike, on [0.1, 50]
    xs = np.linspace(0.1, 50.0, 997)
    amp = np.sqrt(2.0 / (np.pi * xs))
    assert np.max(np.abs(bessel_j(0.5, xs) - amp * np.sin(xs))) < 1e-12
    assert np.max(np.abs(bessel_j(-0.5, xs) - amp * np.cos(xs))) < 1e-12
    j32 = amp * (np.sin(xs) / xs - np.cos(xs))
    assert np.max(np.abs(bessel_j(1.5, xs) - j32)) < 1e-12


def test_bessel_vector_matches_scalar():
    xs = np.array([0.4, 3.0, 15.99, 16.01, 80.0])
    vec = bessel_j(1.3, xs)
    for x, v in zip(xs, vec):
        assert v == bessel_j(1.3, float(x))


@settings(max_examples=60, deadline=None)
@given(
    nu=st.floats(min_value=0.5, max_value=3.0),
    x=st.floats(min_value=0.5, max_value=40.0),
)
# near a zero of J_nu a fixed floor on the scale turned the relative bound
# into an absolute 1e-14, below the roundoff of the terms themselves
@example(nu=0.8399905725636305, x=19.375)
def test_bessel_three_term_recurrence(nu, x):
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x), measured against the
    # size of the terms summed
    lo, hi = bessel_j(nu - 1.0, x), bessel_j(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_j(nu, x)
    assert abs(lo + hi - rhs) <= 1e-11 * (abs(lo) + abs(hi))


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(min_value=-0.5, max_value=2.3),
    x=st.floats(min_value=0.01, max_value=200.0),
)
def test_bessel_matches_mpmath_oracle(nu, x):
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(nu, x))
    assert abs(bessel_j(nu, x) - ref) <= 1e-13


def test_watson_integral():
    # integral of J_{s+1/2}(t)^2/t over (0, inf) = Gamma(s+1/2)/(2 Gamma(s+3/2))
    for s in (0.0, 0.5, 1.3):
        got = jsq_over_t_integral(s + 0.5)
        want = gamma_fn(s + 0.5) / (2.0 * gamma_fn(s + 1.5))
        assert abs(got - want) < 1e-8


@pytest.mark.parametrize("nu", [0.536, 0.8, 1.3])
def test_watson_integral_fractional_order(nu):
    # 2 nu not an integer: J_nu^2/t ~ t^(2 nu - 1) at 0 must be resolved
    assert abs(jsq_over_t_integral(nu) - 1.0 / (2.0 * nu)) < 1e-8
