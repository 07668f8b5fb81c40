"""Shared quadrature helpers: compounded and graded Gauss-Legendre panels."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["gauss_panels", "panel_nodes", "graded_nodes"]


def gauss_panels(edges, n_nodes: int = 16):
    """Gauss-Legendre nodes/weights compounded over the panels
    [edges[i], edges[i+1]]."""
    gl_x, gl_w = _legendre_rule(n_nodes)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int):
    """The n_nodes-point Gauss-Legendre rule on [-1, 1], computed once per
    order; read-only, since every caller shares it."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(a: float, b: float, n_panels: int, n_nodes: int = 16):
    """Gauss-Legendre nodes/weights compounded over equal panels of [a, b]."""
    return gauss_panels(np.linspace(a, b, n_panels + 1), n_nodes)


def graded_nodes(b: float, levels: int, n_nodes: int = 16, density: float = 0.0):
    """Gauss-Legendre nodes/weights on (0, b], graded dyadically toward 0.

    The pieces [0, b 2^-levels], [b 2^-levels, b 2^(1-levels)], ..., [b/2, b]
    each get 1 + ceil(density * width) equal panels of n_nodes nodes, so an
    algebraic endpoint behaviour at 0 and an oscillation of wavelength
    ~ 1/density are both resolved.
    """
    bounds = b * 2.0 ** np.arange(-levels, 1.0)
    edges = [np.linspace(lo, hi, 2 + math.ceil(density * (hi - lo)))[:-1]
             for lo, hi in zip([0.0, *bounds[:-1]], bounds)]
    return gauss_panels(np.append(np.concatenate(edges), bounds[-1]), n_nodes)

