"""Periodized orthonormal wavelet bases on the unit cube.

Families: Haar ("haar") and the extremal-phase Daubechies families ("db2"
to "db8"; higher orders fail the filter check). Daubechies low-pass filters
are built by spectral factorization of the halfband polynomial,
scaling-function values are computed exactly on a dyadic grid by the
two-scale recursion, and points between grid nodes are
filled by linear interpolation. The piecewise-linear interpolant is *the*
implemented wavelet: evaluation, integration tables and coefficient
computations all refer to the same function. Haar is evaluated in closed form
(its jumps make interpolation of grid values wrong at cell boundaries).

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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import UnstableFilter

_SQRT2 = math.sqrt(2.0)
# Largest accepted max_l |sum_k h_k h_{k+2l} - delta_l| of a built filter.
ORTHONORMALITY_TOL = 1e-12


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
    a residual above ORTHONORMALITY_TOL, or a failed root selection, raises
    UnstableFilter: db8 is the largest accepted order.
    """
    n = int(n_moments)
    if n < 1:
        raise ValueError("n_moments must be a positive integer")
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
            f"(tolerance {ORTHONORMALITY_TOL:g}); db8 is the largest supported order"
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


def _refine(values: np.ndarray, h: np.ndarray, levels: int) -> np.ndarray:
    """Push exact dyadic values down `levels` times via the two-scale relation."""
    w = h.size - 1
    v = values
    for t in range(1, levels + 1):
        coarse_len = w * 2 ** (t - 1)
        new = np.zeros(w * 2**t + 1)
        new[::2] = v
        f_odd = np.arange(1, new.size, 2)
        acc = np.zeros(f_odd.size)
        for k in range(w + 1):
            src = f_odd - k * 2 ** (t - 1)
            ok = (src >= 0) & (src <= coarse_len)
            acc[ok] += _SQRT2 * h[k] * v[src[ok]]
        new[1::2] = acc
        v = new
    return v


def pl_lookup(table: np.ndarray, u: np.ndarray, depth: int) -> np.ndarray:
    """Piecewise-linear interpolant of `table` at u, computed in place.

    `table` holds values on the grid of spacing 2^-depth over [0, W], with
    W = (table.size - 1) / 2^depth. Every entry of the float array u is
    overwritten with the interpolant at that point, or with +0.0 when it lies
    outside the open support (0, W). Each inside value is
    table[i] * (1 - f) + table[i + 1] * f with t = u * 2^depth, i = floor(t)
    and f = t - i, in exactly this floating-point order, so the value at a
    point does not depend on the shape or blocking of the array it arrives
    in. Returns u.
    """
    t = np.multiply(u, 2**depth, out=u)
    outside = ~((t > 0.0) & (t < table.size - 1))
    np.copyto(t, 0.0, where=outside)
    cell = np.floor(t)
    i0 = cell.astype(np.intp)
    t -= cell
    hi = table[1:][i0]
    hi *= t
    np.subtract(1.0, t, out=t)
    lo = table[i0]
    lo *= t
    np.add(lo, hi, out=u)
    np.copyto(u, 0.0, where=outside)
    return u


class WaveletFamily:
    """One 1-d father/mother pair plus everything precomputed for fast evaluation.

    Attributes of note: `n_moments` (vanishing moments of the mother),
    `regularity` = n_moments - 1, `support_width` W = 2*n_moments - 1,
    `h`/`g` the low/high-pass filters, `phi_values`/`psi_values` the exact
    values on the dyadic grid of spacing 2^-cascade_depth over [0, W]
    (None for Haar), `phi_sup`/`psi_sup`, and the periodization bounds
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

        if self.is_haar:
            self.phi_values = None
            self.psi_values = None
            self.phi_sup = 1.0
            self.psi_sup = 1.0
            self.pb_phi = 1.0
            self.pb_psi = 1.0
        else:
            m = self.cascade_depth
            phi_coarse = _refine(_integer_values(self.h), self.h, m - 1)
            self.phi_values = np.zeros(w * 2**m + 1)
            self.phi_values[::2] = phi_coarse
            odd = np.arange(1, self.phi_values.size, 2)
            accp = np.zeros(odd.size)
            accq = np.zeros(w * 2**m + 1)
            f_all = np.arange(w * 2**m + 1)
            for k in range(w + 1):
                src = odd - k * 2 ** (m - 1)
                ok = (src >= 0) & (src <= w * 2 ** (m - 1))
                accp[ok] += _SQRT2 * self.h[k] * phi_coarse[src[ok]]
                src2 = f_all - k * 2 ** (m - 1)
                ok2 = (src2 >= 0) & (src2 <= w * 2 ** (m - 1))
                accq[ok2] += _SQRT2 * self.g[k] * phi_coarse[src2[ok2]]
            self.phi_values[1::2] = accp
            self.psi_values = accq

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

    # raw (non-periodized) evaluation at unit scale, vectorized

    def father_values(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.is_haar:
            return ((u >= 0.0) & (u < 1.0)).astype(float)
        return pl_lookup(self.phi_values, u.copy(), self.cascade_depth)

    def mother_values(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.is_haar:
            out = np.zeros_like(u)
            out[(u >= 0.0) & (u < 0.5)] = 1.0
            out[(u >= 0.5) & (u < 1.0)] = -1.0
            return out
        return pl_lookup(self.psi_values, u.copy(), self.cascade_depth)

    def periodized_factor(self, mother: bool, j: int, k: int, x) -> np.ndarray:
        """One axis factor f((2^j x - k) mod-wrapped to the torus), unit normalization."""
        x = np.asarray(x, dtype=float)
        u = x - np.floor(x)
        s = (2**j) * u - k
        w = self.support_width
        f = self.mother_values if mother else self.father_values
        # wraps t with s + t*2^j intersecting [0, W]; s ranges over [-k, 2^j - k]
        t_lo = int(math.floor((0.0 - (2**j - k)) / 2**j))
        t_hi = int(math.ceil((w + k) / 2**j))
        out = np.zeros_like(u)
        for t in range(t_lo, t_hi + 1):
            shifted = s + t * 2**j
            if np.any((shifted > 0.0 if not self.is_haar else shifted >= 0.0) & (shifted < w + 1e-12)):
                out += f(shifted)
        return out

    # exact moments of the underlying fixed-point functions (not the interpolant)

    def father_moments(self, max_order: int) -> np.ndarray:
        """Moments int x^a phi(x) dx for a = 0..max_order, exact filter recursion."""
        mom = np.zeros(max_order + 1)
        mom[0] = 1.0
        ks = np.arange(self.h.size, dtype=float)
        for a in range(1, max_order + 1):
            s = 0.0
            for b in range(a):
                s += math.comb(a, b) * mom[b] * float(np.sum(self.h * ks ** (a - b)))
            mom[a] = (2.0 ** (-a - 1) * _SQRT2 * s) / (1.0 - 2.0**-a)
        return mom

    def mother_moments(self, max_order: int) -> np.ndarray:
        """Moments int x^a psi(x) dx for a = 0..max_order; the first n_moments vanish."""
        mphi = self.father_moments(max_order)
        ks = np.arange(self.g.size, dtype=float)
        out = np.zeros(max_order + 1)
        for a in range(max_order + 1):
            s = 0.0
            for b in range(a + 1):
                s += math.comb(a, b) * mphi[b] * float(np.sum(self.g * ks ** (a - b)))
            out[a] = 2.0 ** (-a - 1) * _SQRT2 * s
        return out


_CACHE: dict[tuple[str, int], WaveletFamily] = {}


def wavelet_family(name: str, cascade_depth: int = 14) -> WaveletFamily:
    """Look up a family by name: "haar" or "dbN" for 2 <= N <= 8 (higher orders
    raise UnstableFilter). Instances are cached."""
    key = (name, cascade_depth)
    if key in _CACHE:
        return _CACHE[key]
    if name == "haar":
        fam = WaveletFamily("haar", 1, cascade_depth)
    elif name.startswith("db"):
        try:
            n = int(name[2:])
        except ValueError:
            raise ValueError(f"unknown wavelet family {name!r}") from None
        if n < 1:
            raise ValueError(f"unknown wavelet family {name!r}")
        if n == 1:
            fam = WaveletFamily("haar", 1, cascade_depth)
        else:
            fam = WaveletFamily(name, n, cascade_depth)
    else:
        raise ValueError(f"unknown wavelet family {name!r}")
    _CACHE[key] = fam
    return fam


def eval_wavelet(family: WaveletFamily, index: WaveletIndex, x) -> np.ndarray:
    """Periodized daughter at `index`, evaluated at points x of shape (..., D).

    Coordinates are wrapped to the torus, so x = 1.0 is the same point as 0.0.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    dim = len(index.k)
    if pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, index has {dim}")
    if len(index.e) != dim or not any(index.e):
        raise ValueError("orientation must be a nonzero 0/1 tuple matching the dimension")
    if index.j < 0 or not all(0 <= kk < 2**index.j for kk in index.k):
        raise ValueError("need j >= 0 and 0 <= k < 2^j in every axis")
    out = np.full(pts.shape[0], 2.0 ** (dim * index.j / 2.0))
    for i in range(dim):
        out *= family.periodized_factor(bool(index.e[i]), index.j, index.k[i], pts[:, i])
    return float(out[0]) if single else out


def pl_inner(values_a: np.ndarray, values_b: np.ndarray, spacing: float) -> float:
    """Exact integral of the product of two piecewise-linear functions sampled
    on the same uniform grid (the product is piecewise quadratic)."""
    a0, a1 = values_a[:-1], values_a[1:]
    b0, b1 = values_b[:-1], values_b[1:]
    return float(spacing / 6.0 * np.sum(2 * a0 * b0 + a0 * b1 + a1 * b0 + 2 * a1 * b1))
