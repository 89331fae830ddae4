"""Exception taxonomy shared by every module in the package.

All exceptions derive from :class:`BesovRobustError` so callers can catch the
package's failures with a single except clause. Errors raised for bad
arguments additionally derive from ValueError.
"""

from __future__ import annotations


class BesovRobustError(Exception):
    """Base class for all errors raised by this package."""


class EmptySample(BesovRobustError, ValueError):
    """A sample array with zero rows was passed where data is required."""


class OutOfDomain(BesovRobustError, ValueError):
    """A point lies outside the closed unit cube [0, 1]^D."""


class QuadratureFailure(BesovRobustError):
    """An exact cell integral needs cell edges off the wavelet's value grid."""


class MalformedTree(BesovRobustError, ValueError):
    """A coefficient tree file does not follow the besov-robust-tree JSONL format."""


class UnstableFilter(BesovRobustError, ValueError):
    """A Daubechies filter of the requested order cannot be built to working accuracy."""


class IncompatibleTrees(BesovRobustError, ValueError):
    """Two coefficient trees disagree on dimension, wavelet family or block size."""


class ZeroDelta(BesovRobustError, ValueError):
    """A witness was requested for two trees with identical coefficients."""


class NotSupBounded(BesovRobustError, ValueError):
    """Besov parameters do not imply a finite sup-norm bound (needs sigma > D/p)."""


class RegimeMismatch(BesovRobustError, ValueError):
    """Parameters violate the preconditions of the requested regime or schedule."""


class InfeasibleEpsilon(BesovRobustError, ValueError):
    """No valid contaminating pair exists at the requested contamination level."""


class BallViolation(BesovRobustError):
    """A constructed density falls outside the Besov ball it must belong to."""


class DegenerateFit(BesovRobustError):
    """Too few usable cells, or degenerate values, for a log-log rate fit."""
