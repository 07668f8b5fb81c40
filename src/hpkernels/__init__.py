"""Pseudo-Jacobi eigenvalue ensembles and their Bessel-type scaling limits.

Library layout:

- ``specfun``      Gamma and Bessel J over scipy.special, Watson integral
- ``weights_opuc`` circle and line weights, orthonormal bases on both sides
- ``kernels``      finite-rank projection kernels, their scaling limit, V
- ``sampling``     exact projection-DPP, MCMC, and matrix-model samplers
- ``ergodics``     decomposition parameters, moment and tail diagnostics
- ``infmeasures``  growth certificates, damped projections, contractions
- ``cli``          ``hpk`` command-line entry point
"""

__version__ = "0.1.0"
