"""Periodized orthonormal wavelet bases on the unit cube.

Families: Haar ("haar") and the extremal-phase Daubechies families ("db2"
to "db8"; higher orders raise UnstableFilter). Daubechies low-pass filters
are built by spectral factorization of the halfband polynomial, and
scaling-function values are computed exactly on the dyadic grid of spacing
2^-m (m = cascade_depth) by the two-scale recursion. Haar is evaluated in
closed form (its jumps make interpolation of grid values wrong at cell
boundaries).

Coefficients are taken in the filter-bank basis with a top level J: the
level-J father is the piecewise-linear interpolant of the grid values, and
every coarser father and mother follows from it by the two-scale relations
phi(x) = sum_l sqrt(2) h_l phi(2x - l) and psi(x) = sum_l sqrt(2) g_l
phi(2x - l), which is what the periodic filter bank with the taps `taps`
computes. The grid values are exact, so the level-j father and mother of
this basis are the piecewise-linear interpolants at depth m + J - j:
`wavelet_family(name, m + J - j)` evaluates them. Empirical coefficients
up to level j1 use J = j1 + 1, exact truth trees up to j_max use
J = j_max + 1. The gap between the two is small: on the benchmark truths
(db2 to db4, j1 = 2, 4, 6) the truth's levels up to j1 move by at most
3.4e-10 between J = j1 + 1 and J = j1 + 3, against risks of 1e-2 to 1e-1.
Point evaluation (`eval_wavelet`, `CoefficientTree.evaluate`) uses the
depth-m interpolant at every level. Against the depth-20 interpolant, the
unit-scale mother at depth 14 is off by up to 6.7e-3 (db2), 2.8e-5 (db3)
and 7.5e-7 (db4), at depth 15 by 4.3e-3, 9.4e-6 and 2.1e-7. Haar has no
depth: its basis is exact at every level. Both evaluations share one
coordinate rule (`_torus_points`), one translate rule (`_translates`) and
one index rule (`_position`, which `CoefficientTree.set` applies too).

Basis layout on the torus [0,1)^D: periodization turns the level-0 father
into the constant function 1 (a single index), and every detail level j >= 0
carries (2^D - 1) * 2^{Dj} indices: translates k in {0..2^j-1}^D and
orientations e in {0,1}^D minus the all-zero tuple. The daughter at (j, k, e)
is 2^{Dj/2} prod_i f_{e_i}(2^j x_i - k_i) wrapped around the torus, where f_0
is the father and f_1 the mother.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterator, NamedTuple

import numpy as np

from .errors import OutOfDomain, UnstableFilter

_SQRT2 = math.sqrt(2.0)
# Largest accepted max_l |sum_k h_k h_{k+2l} - delta_l| of a built filter.
ORTHONORMALITY_TOL = 1e-12
# The largest order whose filter meets ORTHONORMALITY_TOL. Higher orders are
# refused before any work: building db500 takes seconds, and from db516 on
# the halfband coefficients overflow a float.
MAX_ORDER = 8


class WaveletIndex(NamedTuple):
    """Position of one daughter function: level, translate vector, orientation."""

    j: int
    k: tuple[int, ...]
    e: tuple[int, ...]


def orientations(dim: int) -> Iterator[tuple[int, ...]]:
    """All 2^D - 1 nonzero orientation tuples, lexicographic."""
    for e in itertools.product((0, 1), repeat=dim):
        if any(e):
            yield e


def daubechies_filter(n_moments: int) -> np.ndarray:
    """Extremal-phase Daubechies low-pass filter with `n_moments` vanishing moments.

    Length 2*n_moments, sums to sqrt(2). Built by spectral factorization: the
    roots of the halfband polynomial inside the unit circle are kept, after a
    few Newton polish steps. n_moments=1 is Haar.

    The orthonormality identities sum_k h_k h_{k+2l} = delta_{l,0} are
    checked after construction. Their largest residual is ~2e-16 through db5
    and grows with the order (3e-13 at db8, 1e-12 at db9, 0.1 at db23), so
    a residual above ORTHONORMALITY_TOL, a failed root selection or an
    order above MAX_ORDER raises UnstableFilter.
    """
    n = int(n_moments)
    if n < 1:
        raise ValueError("n_moments must be a positive integer")
    if n > MAX_ORDER:
        raise UnstableFilter(f"db{n} is above db{MAX_ORDER}, the largest supported order")
    if n == 1:
        return np.array([1.0, 1.0]) / _SQRT2

    # Q(z) = z^{n-1} P(y(z)) with P(y) = sum_{k<n} C(n-1+k, k) y^k and
    # y(z) = (2 - z - 1/z)/4, so z*y = (-z^2 + 2z - 1)/4.
    zy = np.array([-0.25, 0.5, -0.25])
    q = np.zeros(2 * n - 1)
    for k in range(n):
        term = np.array([float(math.comb(n - 1 + k, k))])
        for _ in range(k):
            term = np.convolve(term, zy)
        term = np.concatenate([term, np.zeros(n - 1 - k)])
        q[-term.size :] += term

    roots = np.roots(q)
    dq = np.polyder(q)
    for _ in range(3):
        roots = roots - np.polyval(q, roots) / np.polyval(dq, roots)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size != n - 1:
        raise UnstableFilter(f"root selection failed for db{n}: {inside.size} inside roots")

    h = np.array([1.0])
    for _ in range(n):
        h = np.convolve(h, [0.5, 0.5])
    h = np.convolve(h, np.real(np.poly(inside)))
    h = h * (_SQRT2 / h.sum())
    # canonical extremal-phase orientation: energy front-loaded
    if np.sum(h[:n] ** 2) < np.sum(h[n:] ** 2):
        h = h[::-1].copy()
    residual = max(abs(float(np.dot(h[: h.size - 2 * l], h[2 * l :])) - (l == 0)) for l in range(n))
    if residual > ORTHONORMALITY_TOL:
        raise UnstableFilter(
            f"db{n} filter misses orthonormality by {residual:.2g} "
            f"(tolerance {ORTHONORMALITY_TOL:g})"
        )
    return h


def _integer_values(h: np.ndarray) -> np.ndarray:
    """Exact father values at the integers 0..W, from the refinement fixed point."""
    w = h.size - 1
    a = np.zeros((w - 1, w - 1))
    for i in range(1, w):
        for j in range(1, w):
            k = 2 * i - j
            if 0 <= k <= w:
                a[i - 1, j - 1] = _SQRT2 * h[k]
    vals, vecs = np.linalg.eig(a)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    v = v / v.sum()
    out = np.zeros(w + 1)
    out[1:w] = v
    return out


def _two_scale(out: np.ndarray, coarse: np.ndarray, taps: np.ndarray, shift: int, step: int) -> None:
    """out[i] += sqrt(2) taps[k] coarse[step (i + 1) - 1 - k shift], tap by tap,
    as one sliced add over the run of i whose index lies in `coarse`."""
    for k in range(taps.size):
        offset = step - 1 - k * shift
        first, last = max(0, -(offset // step)), min(out.size, (coarse.size - 1 - offset) // step + 1)
        if first < last:
            out[first:last] += _SQRT2 * taps[k] * coarse[step * first + offset :: step][: last - first]


def _refine(values: np.ndarray, h: np.ndarray, levels: int) -> np.ndarray:
    """Push exact dyadic values down `levels` times via the two-scale relation."""
    v = values
    for t in range(1, levels + 1):
        new = np.zeros(2 * v.size - 1)
        new[::2] = v
        acc = np.zeros(v.size - 1)
        _two_scale(acc, v, h, 2 ** (t - 1), 2)
        new[1::2] = acc
        v = new
    return v


def pl_lookup(padded: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolant of a padded value table at t, in place.

    `padded` holds the values of a function on the grid nodes 0..N-1 (the
    wavelet tables over [0, W] at spacing 2^-depth, N = W 2^depth + 1)
    followed by one trailing +0.0; both end values are +0.0, as for every
    compactly supported father and mother. t holds positions in grid units
    (u * 2^depth, an exact scaling) and is overwritten with the interpolant
    table[i] * (1 - f) + table[i + 1] * f, i = floor(t), f = t - i, in
    exactly this floating-point order, so the value at a point does not
    depend on the shape or blocking of the array it arrives in. Returns t.

    Points outside the open support (0, N-1) get +0.0, NaN included: t is
    clamped into [0, N-1] with fmax/fmin (which map NaN to 0), and at the
    two end nodes the formula adds +0.0 * 1 to +-0.0 * 0, which is +0.0. The
    pad is read only at t = N-1. The clamp takes two passes where an
    outside mask would take two comparisons and two masked writes, and
    every output bit, zero signs included, is the one the mask gives.
    """
    np.fmax(t, 0.0, out=t)
    np.fmin(t, padded.size - 2, out=t)
    cell = np.floor(t)
    i0 = cell.astype(np.intp)
    t -= cell
    hi = padded[1:][i0]
    hi *= t
    np.subtract(1.0, t, out=t)
    lo = padded[i0]
    lo *= t
    return np.add(lo, hi, out=t)


class WaveletFamily:
    """One 1-d father/mother pair plus everything precomputed for fast evaluation.

    Attributes of note: `n_moments` (vanishing moments of the mother),
    `regularity` = n_moments - 1, `support_width` W = 2*n_moments - 1,
    `h`/`g` the low/high-pass filters, `taps` the filter bank's unnormalized
    taps [sqrt(2) h, sqrt(2) g], `phi_values`/`psi_values` the exact
    values on the dyadic grid of spacing 2^-cascade_depth over [0, W]
    (None for Haar; views of the padded tables `pl_lookup` reads),
    `phi_cum` the trapezoid integrals of phi_values from 0 to each grid
    point (None for Haar; the exact truth's cell integrals read it),
    `phi_sup`/`psi_sup`, and the periodization bounds
    `pb_phi`/`pb_psi` = sup_x sum_k |f(x - k)|.
    """

    def __init__(self, name: str, n_moments: int, cascade_depth: int = 14):
        self.name = name
        self.n_moments = int(n_moments)
        self.regularity = self.n_moments - 1
        self.support_width = 2 * self.n_moments - 1
        self.cascade_depth = int(cascade_depth)
        self.is_haar = self.n_moments == 1
        self.h = daubechies_filter(self.n_moments)
        w = self.support_width
        self.g = np.array([(-1) ** k * self.h[w - k] for k in range(w + 1)])
        # exactly [1, 1] and [1, -1] for Haar
        self.taps = np.stack([_SQRT2 * self.h, _SQRT2 * self.g])

        if self.is_haar:
            self.phi_values = self._phi_padded = self.phi_cum = None
            self.psi_values = self._psi_padded = None
            self.phi_sup = 1.0
            self.psi_sup = 1.0
            self.pb_phi = 1.0
            self.pb_psi = 1.0
        else:
            m = self.cascade_depth
            # the lookup tables carry one trailing +0.0 (see pl_lookup); the
            # value arrays are views without it, so nothing is held twice
            self._phi_padded = np.zeros(w * 2**m + 2)
            self._psi_padded = np.zeros(w * 2**m + 2)
            self.phi_values = self._phi_padded[:-1]
            self.phi_values[:] = _refine(_integer_values(self.h), self.h, m)
            phi_coarse = self.phi_values[::2]
            self.psi_values = self._psi_padded[:-1]
            _two_scale(self.psi_values, phi_coarse, self.g, 2 ** (m - 1), 1)

            tab = self.phi_values
            self.phi_cum = np.concatenate([[0.0], np.cumsum((tab[:-1] + tab[1:]) / 2.0)]) * 2.0**-m
            self.phi_sup = float(np.max(np.abs(self.phi_values)))
            self.psi_sup = float(np.max(np.abs(self.psi_values)))
            grid = 2**m
            self.pb_phi = float(
                np.max(np.abs(self.phi_values[:-1]).reshape(w, grid).sum(axis=0))
            )
            self.pb_psi = float(
                np.max(np.abs(self.psi_values[:-1]).reshape(w, grid).sum(axis=0))
            )

    def __repr__(self) -> str:
        return f"WaveletFamily({self.name!r})"

    def daughter_sup(self, index: WaveletIndex) -> float:
        """2^{Dj/2} prod_i (psi_sup if e_i else phi_sup), multiplied in that
        order: the sup of the daughter `index` for Haar, a bound otherwise."""
        sup = 2.0 ** (len(index.k) * index.j / 2.0)
        for ei in index.e:
            sup *= self.psi_sup if ei else self.phi_sup
        return sup

    # raw (non-periodized) evaluation at unit scale, vectorized; +0.0
    # outside the open support (Haar: outside [0, 1)), NaN included

    def father_values(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.is_haar:
            return ((u >= 0.0) & (u < 1.0)).astype(float)
        return pl_lookup(self._phi_padded, np.multiply(u, 2**self.cascade_depth, out=np.empty_like(u)))

    def mother_values(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.is_haar:
            out = np.zeros_like(u)
            out[(u >= 0.0) & (u < 0.5)] = 1.0
            out[(u >= 0.5) & (u < 1.0)] = -1.0
            return out
        return pl_lookup(self._psi_padded, np.multiply(u, 2**self.cascade_depth, out=np.empty_like(u)))


_CACHE: dict[tuple[str, int], WaveletFamily] = {}


def wavelet_family(name: str, cascade_depth: int = 14) -> WaveletFamily:
    """Look up a family by name: exactly "haar" or "dbN", N a positive
    integer in ASCII digits with no sign, space or leading zero; "db1" is
    Haar, and orders above 8 raise UnstableFilter. Instances are cached."""
    key = (name, cascade_depth)
    if key not in _CACHE:
        order = re.fullmatch(r"haar|db([1-9][0-9]*)", name)
        if order is None:
            raise ValueError(f"unknown wavelet family {name!r}")
        n = int(order[1] or 1)
        _CACHE[key] = WaveletFamily("haar" if n == 1 else name, n, cascade_depth)
    return _CACHE[key]


def _is_int(x) -> bool:
    """Whether x is an integer, and not a bool, which is a mask to numpy."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _indexable(j, dim: int):
    """Whether level j of a D-dim basis (2^(jD) translates per orientation;
    j may be an array) can be indexed by int64; checked before 2^j is computed."""
    return j * dim < 63


def _position(index: WaveletIndex, dim: int) -> tuple[int, ...]:
    """The position (o, k...) of index in a D-dim level array, o = (e read in
    binary) - 1 in `orientations` order; ValueError unless j is an integer
    (not a bool) that int64 can index, e nonzero integers 0/1 and k in
    0..2^j - 1."""
    j, k, e = index.j, tuple(index.k), tuple(index.e)
    bits = len(e) == dim and any(e) and all(_is_int(b) and b in (0, 1) for b in e)
    if not _is_int(j) or j < 0 or len(k) != dim or not bits:
        raise ValueError(f"bad index {index} for dimension {dim}")
    if not _indexable(j, dim):
        raise ValueError(f"level {j} is too large to index")
    size = 2**j
    for kk in k:
        if not (_is_int(kk) and 0 <= kk < size):
            raise ValueError(f"translate out of range in {index}")
    return (sum(int(b) << (dim - 1 - i) for i, b in enumerate(e)) - 1,) + k


def _torus_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Points x of shape (D,) or (m, D) as torus coordinates u in [0, 1)^D,
    shape (m, D), and whether x was one point; ValueError for another D,
    OutOfDomain for a NaN or infinite coordinate. u = x - floor(x), and a u
    that rounds up to 1.0 (x = -tiny) is its torus point 0.0."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, need {dim}")
    if not np.isfinite(pts).all():
        raise OutOfDomain("points contain non-finite values")
    u = pts - np.floor(pts)
    u[u >= 1.0] = 0.0
    return u, x.ndim == 1


def _translates(u: np.ndarray, j: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-j translates k = (c - t) mod 2^j that the torus coordinates
    u of one axis, shape (m,), meet, and the unit-scale positions frac + t
    where they meet them, both shape (m, W): c = floor(2^j u) < 2^j, frac =
    2^j u - c, shifts t in {0..W-1}, the periodization wraps included when
    2^j < W."""
    two_j = 2**j
    scaled = u * two_j
    c = scaled.astype(np.int64)
    shifts = np.arange(width)[:, None]
    # built (W, m) and handed out transposed: numpy's passes over a short last axis are slow
    return ((c - shifts) & (two_j - 1)).T, ((scaled - c) + shifts).T


def eval_wavelet(family: WaveletFamily, index: WaveletIndex, x) -> np.ndarray:
    """Periodized daughter at `index` (checked by `_position`, D = len(index.k)),
    evaluated at points x of shape (D,) or (m, D) (`_torus_points`). An axis
    factor sums, in shift order, the father or mother at the `_translates`
    positions whose translate is k_i: one term for Haar."""
    dim = len(index.k)
    k = _position(index, dim)[1:]
    u, single = _torus_points(x, dim)
    out = np.full(u.shape[0], 2.0 ** (dim * index.j / 2.0))
    for i in range(dim):
        ks, pos = _translates(u[:, i], index.j, family.support_width)
        f = family.mother_values if index.e[i] else family.father_values
        out *= np.where(ks == k[i], f(pos), 0.0).sum(axis=1)
    return float(out[0]) if single else out
