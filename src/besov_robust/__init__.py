"""Robust wavelet density estimation under Huber contamination.

Subpackages: wavelets (periodized bases), coefficients (trees, models, exact
and empirical coefficients), besov (norms, dual IPM, witnesses), estimators
(linear / thresholded / adaptive series estimators behind one `estimate`),
contamination (the Huber sampler and two-point adversarial constructions),
harness (Monte Carlo rate checks), cli (command-line interface).
"""

__version__ = "0.1.0"
