"""Below the integrability floor: the damped-projection surrogate.

For s <= -1/2 the ensemble's defining measure has infinite mass and the
would-be extra basis functions grow too fast to be square integrable.  This
walk-through certifies that growth, shows the Gaussian damping contracting
the offending modes, and builds the damped projection whose normalized DPP
realizes the regime at desk scale.
"""

import numpy as np

from hpkernels.weights_opuc import HPParam
from hpkernels.infmeasures import (
    VBasis,
    contraction_norm,
    damped_projection,
    growth_certificate,
    make_damped_grid,
    sample_damped_dpp,
    tail_growth_slope,
)


def main():
    grid = make_damped_grid()
    print(f"damped grid: {grid.size} nodes on [{1/80:.4f}, {grid.R}] (mirrored)")

    for s in (-1.0, -1.6):
        param = HPParam(s)
        vb = VBasis(param)
        print(f"\ns = {s}: {vb.size} extra mode(s), shifted parameter {param.s_prime}")
        for k in range(1, vb.size + 1):
            exponent, verdict = growth_certificate(vb, k)
            slope = tail_growth_slope(vb, k)
            print(f"  mode {k}: growth exponent {exponent:+.2f} ({verdict}), "
                  f"measured tail slope {slope:.4f} vs 2e+1 = {2*exponent+1:.2f}")

    print("\ncontraction norm of the damped kernel operator (must stay < 1):")
    for sigma in (0.1, 0.5, 1.0, 2.0):
        val = contraction_norm(0.5, sigma, grid)
        print(f"  sigma = {sigma:4.1f}   norm = {val:.6f}")

    dp = damped_projection(HPParam(-1.0), 1.0, grid, 20)
    print(f"\ndamped projection at s = -1, 20 interior modes:")
    print(f"  rank = {dp.rank}, trace = {dp.trace():.6f}")
    print(f"  idempotency residual = {dp.idempotency_residual():.3e}")

    rho = dp.diagonal()
    mass = float(np.sum(grid.weights * rho))
    print(f"  intensity mass = {mass:.4f} (equals the rank)")

    draws = sample_damped_dpp(dp, seed=11, n_draws=50)
    print(f"  50 exact draws, each {draws.shape[1]} points, "
          f"widest point at |x| = {np.max(np.abs(draws)):.3f}")


if __name__ == "__main__":
    main()
