"""Quadrature used only by the tests as an independent reference."""

import numpy as np


def de_nodes(n: int, t_max: float = 4.2):
    """Double-exponential (tanh-sinh) nodes/weights on (-1, 1).

    Handles integrable algebraic endpoint singularities; n nodes on the
    uniform t-grid [-t_max, t_max].
    """
    t = np.linspace(-t_max, t_max, n)
    h = t[1] - t[0]
    u = 0.5 * np.pi * np.sinh(t)
    x = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(x) > 1e-17  # drop nodes indistinguishable from the ends
    return x[keep], w[keep]
