"""Compounded Gauss-Legendre panels."""

import numpy as np
import pytest

from hpkernels.quadrature import _legendre_rule, gauss_panels, panel_nodes


@pytest.mark.parametrize("a, b, n_panels, n_nodes", [
    (0.0, 1.0, 1, 16),
    (-2.5, 7.0, 13, 8),
    (1e-9, 0.3, 48, 20),
])
def test_equal_panels_are_panel_nodes(a, b, n_panels, n_nodes):
    edges = np.linspace(a, b, n_panels + 1)
    x, w = gauss_panels(edges, n_nodes)
    px, pw = panel_nodes(a, b, n_panels, n_nodes)
    assert np.array_equal(x, px)
    assert np.array_equal(w, pw)
    # panel by panel, the affine image of the Gauss-Legendre rule
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        part = slice(i * n_nodes, (i + 1) * n_nodes)
        assert np.array_equal(x[part], 0.5 * (hi + lo) + 0.5 * (hi - lo) * gl_x)
        assert np.array_equal(w[part], 0.5 * (hi - lo) * gl_w)


def test_uneven_panels_integrate_polynomials_exactly():
    # n Gauss nodes per panel integrate degree 2n - 1 exactly on each panel
    edges = np.array([0.05, 0.1, 0.4, 1.3, 2.0])
    x, w = gauss_panels(edges, 4)
    assert len(x) == 16
    assert float(np.sum(w * x**7)) == pytest.approx((2.0**8 - 0.05**8) / 8.0, rel=1e-14)


def test_legendre_rule_is_cached_read_only():
    # one rule per order, shared by every caller: no caller may write it
    x, w = _legendre_rule(20)
    assert _legendre_rule(20)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(20)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
