"""Coefficient trees, density models, exact and empirical coefficients.

A `CoefficientTree` stores the periodized wavelet coefficients of a function
on the torus [0,1)^D: one father coefficient `alpha` (the periodized level-0
father is the constant 1, so alpha is the integral of the function) plus one
float64 array per stored detail level j, of shape (2^D - 1, 2^j, ..., 2^j).
The first axis runs over the orientations in `wavelets.orientations` order,
the others over the translate k. A zero entry means "absent": values below
PRUNE_TOL in magnitude are stored as zero, and a level whose entries are all
zero is dropped, so `levels`, `n_coefficients` and `items` see only stored
coefficients, in (j, e, row-major k) order.

Density models (`PiecewiseConstant`, `SmoothBump`, `SpikePerturbation`,
`GenericDensity`) share a small duck-typed protocol: a `dim` attribute,
`pdf(points)` and `sample(n, rng)`. `exact_coeffs` computes their coefficient
trees against the *implemented* wavelets (the piecewise-linear interpolants),
exactly where closed forms exist and by certified polynomial-proxy quadrature
for smooth factors. The Huber mixture of two models is sampled by
`contamination.sample_huber`.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    EmptySample,
    IncompatibleTrees,
    MalformedTree,
    OutOfDomain,
    QuadratureFailure,
    RejectionBudgetExceeded,
)
from .wavelets import (
    WaveletFamily,
    WaveletIndex,
    eval_wavelet,
    orientations,
    pl_lookup,
    wavelet_family,
)

PRUNE_TOL = 1e-14
_SQRT2 = math.sqrt(2.0)
# Points handled per pass of `CoefficientTree.evaluate`, and records parsed
# per `json.loads` call in `CoefficientTree.from_jsonl`.
_EVAL_ROWS = 4096
_PARSE_ROWS = 2048


def _prune(arr: np.ndarray) -> bool:
    """Zero the entries of arr below PRUNE_TOL in place; whether any remain."""
    arr[np.abs(arr) < PRUNE_TOL] = 0.0
    return bool(arr.any())


def _json_float(v: float) -> str:
    """A float exactly as `json.dumps` writes it."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


# orientation tuple -> position on a level's first axis, per dimension
_ORIENT_POS: dict[int, dict[tuple[int, ...], int]] = {}


def _orientation_positions(dim: int) -> dict[tuple[int, ...], int]:
    if dim not in _ORIENT_POS:
        _ORIENT_POS[dim] = {e: o for o, e in enumerate(orientations(dim))}
    return _ORIENT_POS[dim]


class CoefficientTree:
    """Periodized wavelet coefficients of a function on [0,1)^D, one array per level."""

    def __init__(self, family: WaveletFamily, dim: int, alpha: float = 0.0):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.family = family
        self.dim = int(dim)
        self.alpha = float(alpha)
        self._opos = _orientation_positions(self.dim)
        self._orients = list(self._opos)
        self._levels: dict[int, np.ndarray] = {}

    def _shape(self, j: int) -> tuple[int, ...]:
        return (len(self._orients),) + (2**j,) * self.dim

    def _adopt(self, j: int, arr: np.ndarray) -> None:
        """Store arr (float64, level shape, owned by the tree from now on) as
        level j. Pruning one orientation at a time bounds the temporaries."""
        if any([_prune(part) for part in arr]):
            self._levels[j] = arr
        else:
            self._levels.pop(j, None)

    # -- mutation and access ------------------------------------------------

    def set(self, index: WaveletIndex, value: float) -> None:
        """Store one coefficient; magnitudes below 1e-14 are stored as absent."""
        j, k = index.j, tuple(index.k)
        o = self._opos.get(tuple(index.e))
        if j < 0 or len(k) != self.dim or o is None:
            raise ValueError(f"bad index {index} for dimension {self.dim}")
        size = 2**j
        for kk in k:
            if not (isinstance(kk, (int, np.integer)) and 0 <= kk < size):
                raise ValueError(f"translate out of range in {index}")
        lev = self._levels.get(j)
        if abs(value) < PRUNE_TOL:
            if lev is not None:
                lev[(o,) + k] = 0.0
                if not lev.any():
                    del self._levels[j]
            return
        if lev is None:
            lev = self._levels[j] = np.zeros(self._shape(j))
        lev[(o,) + k] = value

    def set_level_array(self, j: int, values) -> None:
        """Store the whole level j, shape (2^D - 1, 2^j, ..., 2^j). A float64
        array is kept as it is, not copied: the tree owns it from now on."""
        arr = np.asarray(values, dtype=float)
        if j < 0 or arr.shape != self._shape(j):
            raise ValueError(f"level {j} needs shape {self._shape(max(j, 0))}, got {arr.shape}")
        self._adopt(j, arr)

    def level_array(self, j: int) -> np.ndarray | None:
        """The stored level j (zeros are absent entries), or None. This is the
        tree's own array, not a copy: read it, never write into it."""
        return self._levels.get(j)

    def get(self, index: WaveletIndex) -> float:
        lev = self._levels.get(index.j)
        if lev is None:
            return 0.0
        k = tuple(index.k)
        o = self._opos.get(tuple(index.e))
        if o is None or len(k) != self.dim:
            return 0.0
        side = lev.shape[1]
        for kk in k:
            if not 0 <= kk < side:
                return 0.0
        return lev.item((o,) + k)

    def levels(self) -> list[int]:
        return sorted(self._levels)

    @property
    def max_level(self) -> int:
        return max(self._levels) if self._levels else -1

    @property
    def n_coefficients(self) -> int:
        return sum(int(np.count_nonzero(lev)) for lev in self._levels.values())

    def _stored(self, j: int) -> tuple[list, list, list]:
        """(orientation positions, translate tuples, values) of level j's
        entries, in row-major order."""
        lev = self._levels[j]
        flat = lev.ravel().nonzero()[0]
        pos = np.unravel_index(flat, lev.shape)
        return pos[0].tolist(), list(zip(*[a.tolist() for a in pos[1:]])), lev.ravel()[flat].tolist()

    def items(self) -> Iterator[tuple[WaveletIndex, float]]:
        """Stored coefficients in (j, e, row-major k) order."""
        orients = self._orients
        for j in self.levels():
            for o, k, v in zip(*self._stored(j)):
                yield WaveletIndex(j, k, orients[o]), v

    def copy(self) -> "CoefficientTree":
        out = CoefficientTree(self.family, self.dim, self.alpha)
        out._levels = {j: lev.copy() for j, lev in self._levels.items()}
        return out

    def check_compatible(self, other: "CoefficientTree") -> None:
        if (
            self.family.name != other.family.name
            or self.family.cascade_depth != other.family.cascade_depth
            or self.dim != other.dim
        ):
            raise IncompatibleTrees(
                f"({self.family.name}@{self.family.cascade_depth}, D={self.dim}) vs "
                f"({other.family.name}@{other.family.cascade_depth}, D={other.dim})"
            )

    def evaluate(self, x) -> np.ndarray:
        """Synthesize the series at points x of shape (..., D).

        Coordinates wrap to the torus. Per level, each point meets W^D
        translates per orientation (W the support width): the ones with
        k = (c - t) mod 2^j for the cell c holding the point and shifts t in
        {0..W-1}^D, which also sums the periodization wraps when 2^j < W.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, tree has {self.dim}")
        out = np.full(pts.shape[0], self.alpha)
        for start in range(0, pts.shape[0], _EVAL_ROWS):
            block = pts[start : start + _EVAL_ROWS]
            u = block - np.floor(block)
            u[u >= 1.0] = 0.0  # -tiny wraps to 1.0, the torus point 0
            out[start : start + _EVAL_ROWS] += sum(
                self._synthesize_level(j, u) for j in self.levels()
            )
        return float(out[0]) if single else out

    def _synthesize_level(self, j: int, u: np.ndarray) -> np.ndarray:
        """Level j's part of the series at torus points u of shape (m, D)."""
        fam, d, two_j = self.family, self.dim, 2**j
        shifts = np.arange(fam.support_width)
        scaled = u * two_j
        c = np.minimum(scaled.astype(np.int64), two_j - 1)
        frac = scaled - c
        # per axis: the W translates each point meets and the factor values there
        kb = [(c[:, i, None] - shifts) & (two_j - 1) for i in range(d)]
        factors = (fam.father_values, fam.mother_values)
        needed = {(e[i], i) for e in self._orients for i in range(d)}
        vals = {(m, i): factors[m](frac[:, i, None] + shifts) for m, i in needed}
        lev = self._levels[j]
        total = np.zeros(u.shape[0])
        for o, e in enumerate(self._orients):
            prod = np.ones((u.shape[0],) + (1,) * d)
            k_idx = []
            for i in range(d):
                axis = [slice(None)] + [None] * d
                axis[1 + i] = slice(None)
                prod = prod * vals[(e[i], i)][tuple(axis)]
                k_idx.append(kb[i][tuple(axis)])
            total += (lev[o][tuple(k_idx)] * prod).reshape(u.shape[0], -1).sum(axis=1)
        return total * 2.0 ** (d * j / 2.0)

    # -- serialization: one JSON record per line ----------------------------

    def to_jsonl(self, path_or_fp) -> None:
        """Header line, then one record per stored coefficient in `items` order.

        Records carry sorted keys and floats as `json.dumps` writes them, so
        the bytes equal `json.dumps(record, sort_keys=True)` line by line.
        """
        header = {
            "format": "besov-robust-tree",
            "version": 1,
            "family": self.family.name,
            "cascade_depth": self.family.cascade_depth,
            "dim": self.dim,
            "alpha": self.alpha,
        }
        lines = [json.dumps(header, sort_keys=True)]
        e_text = [", ".join(map(str, e)) for e in self._orients]
        for j in self.levels():
            for o, k, v in zip(*self._stored(j)):
                lines.append(
                    f'{{"e": [{e_text[o]}], "j": {j}, "k": [{", ".join(map(str, k))}], '
                    f'"v": {_json_float(v)}}}'
                )
        text = "\n".join(lines) + "\n"
        if hasattr(path_or_fp, "write"):
            path_or_fp.write(text)
        else:
            with open(path_or_fp, "w") as fp:
                fp.write(text)

    @classmethod
    def from_jsonl(cls, path_or_fp) -> "CoefficientTree":
        if hasattr(path_or_fp, "read"):
            text = path_or_fp.read()
        else:
            with open(path_or_fp) as fp:
                text = fp.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise MalformedTree("empty tree file")
        line = lines[0]
        try:
            header = json.loads(line)
            if header.get("format") != "besov-robust-tree" or header.get("version") != 1:
                raise MalformedTree(f"unrecognized tree header: {line[:80]}")
            fam = wavelet_family(header["family"], header["cascade_depth"])
            out = cls(fam, header["dim"], header["alpha"])
        except MalformedTree:
            raise
        except KeyError as err:
            raise MalformedTree(f"record lacks field {err}: {line[:80]}") from None
        except (AttributeError, TypeError, ValueError) as err:
            raise MalformedTree(f"bad record ({err}): {line[:80]}") from None
        if not out._load_records(lines[1:]):
            out._levels.clear()
            for line in lines[1:]:
                try:
                    rec = json.loads(line)
                    out.set(WaveletIndex(rec["j"], tuple(rec["k"]), tuple(rec["e"])), rec["v"])
                except KeyError as err:
                    raise MalformedTree(f"record lacks field {err}: {line[:80]}") from None
                except (AttributeError, TypeError, ValueError) as err:
                    raise MalformedTree(f"bad record ({err}): {line[:80]}") from None
        return out

    def _load_records(self, lines: list[str]) -> bool:
        """Bulk-parse coefficient records into the levels.

        Returns False, leaving the levels to be rebuilt, whenever a record is
        not a plain well-formed one; `from_jsonl` then replays the records one
        at a time with `set`, which names the bad line.
        """
        if not lines:
            return True
        cols: dict[str, list] = {f: [] for f in "jkev"}
        try:
            # a few thousand records per json.loads keeps the parsed objects small
            for start in range(0, len(lines), _PARSE_ROWS):
                recs = json.loads("[" + ",".join(lines[start : start + _PARSE_ROWS]) + "]")
                for f, col in cols.items():
                    col.append(np.array([r[f] for r in recs]))
            js, ks, es, vs = (np.concatenate(cols[f]) for f in "jkev")
        except (KeyError, TypeError, ValueError):
            return False
        n, d = len(lines), self.dim
        if (
            js.dtype.kind != "i" or ks.dtype.kind != "i" or es.dtype.kind != "i"
            or vs.dtype.kind not in "biuf" or ks.shape != (n, d) or es.shape != (n, d)
        ):
            return False
        if np.any(js < 0) or np.any((es != 0) & (es != 1)) or not np.all(es.any(axis=1)):
            return False
        vs = vs.astype(float)
        o = es @ (1 << np.arange(d - 1, -1, -1)) - 1
        for j in sorted(set(js.tolist())):
            rows = js == j
            kj = ks[rows]
            if np.any(kj < 0) or np.any(kj >= 2**j):
                return False
            try:
                flat = np.ravel_multi_index((o[rows],) + tuple(kj.T), self._shape(j))
                lev = np.zeros(self._shape(j))
            except ValueError:  # a level too large to hold
                return False
            # a repeated index keeps its last record, as a loop of `set` would
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            last = np.append(flat[1:] != flat[:-1], True)
            lev.flat[flat[last]] = vs[rows][order][last]
            self._adopt(j, lev)
        return True


def tree_axpy(a: float, x: CoefficientTree, y: CoefficientTree) -> CoefficientTree:
    """a*x + y as a new tree. Trees must share family, depth and dimension.

    Every stored entry is the single IEEE result a*x_i + y_i (absent entries
    are 0.0), and results below PRUNE_TOL are dropped. `a` must be finite,
    so that absent entries stay absent.
    """
    x.check_compatible(y)
    if not math.isfinite(a):
        raise ValueError(f"axpy needs a finite scalar, got {a}")
    out = CoefficientTree(x.family, x.dim, a * x.alpha + y.alpha)
    for j in sorted(set(x._levels) | set(y._levels)):
        xs, ys = x._levels.get(j), y._levels.get(j)
        if xs is None:
            lev = ys.copy()
        elif ys is None:
            lev = a * xs
        else:
            lev = a * xs
            lev += ys
        out._adopt(j, lev)
    return out


def difference_levels(x: CoefficientTree, y: CoefficientTree) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, level j of x - y) in increasing j, one level at a time.

    Entries are those of `tree_axpy(-1.0, y, x)`, with results below
    PRUNE_TOL zeroed; all-zero levels are yielded too. A level stored in one
    tree only is yielded as that tree's array, without the sign flip for y,
    so use the levels where the sign does not matter, as in a norm.
    """
    y.check_compatible(x)
    for j in sorted(set(x._levels) | set(y._levels)):
        a, b = x._levels.get(j), y._levels.get(j)
        if a is None or b is None:
            yield j, b if a is None else a
            continue
        d = a - b
        for part in d:
            _prune(part)
        yield j, d


# -- density models ---------------------------------------------------------


def _fold_points(x: np.ndarray) -> np.ndarray:
    """Validate points in [0,1]^D and identify 1.0 with 0.0 (torus)."""
    if np.any(~np.isfinite(x)):
        raise OutOfDomain("points contain non-finite values")
    if np.any(x < 0.0) or np.any(x > 1.0):
        bad = x[(x < 0.0) | (x > 1.0)]
        raise OutOfDomain(f"points outside [0,1]^D, e.g. {bad.flat[0]}")
    return np.where(x == 1.0, 0.0, x)


class PiecewiseConstant:
    """Density that is constant on the cells of a dyadic 2^s grid on [0,1)^D.

    `values` holds the density value per cell, shape (2^s,)*D. Values must be
    finite, nonnegative and average to 1 (cell volume is 2^{-sD}); small
    normalization drift is corrected exactly.
    """

    def __init__(self, values, scale_level: int):
        values = np.asarray(values, dtype=float)
        s = int(scale_level)
        if s < 0 or values.shape != (2**s,) * values.ndim:
            raise ValueError(f"values shape {values.shape} does not match scale 2^{s}")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("density values must be finite and nonnegative")
        mean = values.mean()
        if abs(mean - 1.0) > 1e-9:
            raise ValueError(f"cell values average to {mean}, not a density")
        self.values = values / mean
        self.scale_level = s
        self.dim = values.ndim

    def pdf(self, x) -> np.ndarray:
        x = _fold_points(np.atleast_2d(np.asarray(x, dtype=float)))
        s = self.scale_level
        idx = np.minimum((x * 2**s).astype(np.int64), 2**s - 1)
        return self.values[tuple(idx[:, i] for i in range(self.dim))]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        s, d = self.scale_level, self.dim
        probs = self.values.ravel() * 2.0 ** (-s * d)
        probs = probs / probs.sum()
        cells = rng.choice(probs.size, size=n, p=probs)
        corners = np.column_stack(np.unravel_index(cells, self.values.shape))
        return (corners + rng.random((n, d))) / 2**s

    def min_value(self) -> float:
        return float(self.values.min())

    def sup_bound(self) -> float:
        return float(self.values.max())


def uniform_density(dim: int) -> PiecewiseConstant:
    """The uniform density on the unit cube."""
    return PiecewiseConstant(np.ones((1,) * dim), 0)


def _hann_cdf(u: np.ndarray) -> np.ndarray:
    """CDF of the raised-cosine density (1+cos(pi u))/2 on [-1, 1]."""
    u = np.clip(u, -1.0, 1.0)
    return (u + 1.0) / 2.0 + np.sin(np.pi * u) / (2.0 * np.pi)


class SmoothBump:
    """Mixture of tensor raised-cosine bumps plus a uniform background.

    Each bump b has center c_b, per-axis half-widths w_b and total mass
    m_b; its density is prod_i hann((x_i - c_i)/w_i)/w_i with
    hann(u) = (1+cos(pi u))/2 on [-1,1]. Bump supports must lie inside the
    cube. background + sum of masses must equal 1.
    """

    def __init__(self, centers, widths, masses, background: float = 0.0):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        widths = np.atleast_2d(np.asarray(widths, dtype=float))
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        if centers.shape != widths.shape or centers.shape[0] != masses.size:
            raise ValueError("centers, widths and masses must agree in shape")
        if np.any(widths <= 0.0) or np.any(masses < 0.0) or background < 0.0:
            raise ValueError("widths must be positive, masses nonnegative")
        if np.any(centers - widths < -1e-12) or np.any(centers + widths > 1.0 + 1e-12):
            raise ValueError("bump support must lie inside the unit cube")
        total = background + masses.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses plus background sum to {total}, not 1")
        self.centers = centers
        self.widths = widths
        self.masses = masses / total
        self.background = background / total
        self.dim = centers.shape[1]

    def pdf(self, x) -> np.ndarray:
        x = _fold_points(np.atleast_2d(np.asarray(x, dtype=float)))
        out = np.full(x.shape[0], self.background)
        for b in range(self.masses.size):
            u = (x - self.centers[b]) / self.widths[b]
            inside = np.all(np.abs(u) < 1.0, axis=1)
            vals = np.prod((1.0 + np.cos(np.pi * u)) / 2.0 / self.widths[b], axis=1)
            out += self.masses[b] * np.where(inside, vals, 0.0)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        comp_probs = np.concatenate([[self.background], self.masses])
        comp = rng.choice(comp_probs.size, size=n, p=comp_probs / comp_probs.sum())
        out = rng.random((n, self.dim))  # background draws; bump rows overwritten
        for b in range(self.masses.size):
            rows = np.where(comp == b + 1)[0]
            if rows.size == 0:
                continue
            q = rng.random((rows.size, self.dim))
            # invert the hann CDF by bisection: deterministic, ~1e-15 accurate
            lo = np.full_like(q, -1.0)
            hi = np.full_like(q, 1.0)
            for _ in range(52):
                mid = (lo + hi) / 2.0
                below = _hann_cdf(mid) < q
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            u = (lo + hi) / 2.0
            out[rows] = self.centers[b] + self.widths[b] * u
        return out

    def sup_bound(self) -> float:
        return float(self.background + np.sum(self.masses / np.prod(self.widths, axis=1)))


class SpikePerturbation:
    """A base density plus `coeff` times one daughter wavelet.

    Nonnegativity is enforced with the conservative bound
    min(base) >= |coeff| * sup|daughter|.
    """

    def __init__(self, base, family: WaveletFamily, index: WaveletIndex, coeff: float):
        if len(index.k) != base.dim:
            raise ValueError("index dimension does not match the base density")
        sup = 2.0 ** (base.dim * index.j / 2.0)
        for ei in index.e:
            sup *= family.psi_sup if ei else family.phi_sup
        base_min = base.min_value() if hasattr(base, "min_value") else 0.0
        if abs(coeff) * sup > base_min + 1e-12:
            raise ValueError(
                f"spike amplitude {coeff} times daughter sup {sup:.3g} exceeds "
                f"the base density minimum {base_min}"
            )
        self.base = base
        self.family = family
        self.index = index
        self.coeff = float(coeff)
        self.dim = base.dim

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.base.pdf(x) + self.coeff * eval_wavelet(self.family, self.index, x)

    def as_piecewise_constant(self) -> PiecewiseConstant:
        """Exact flat representation; Haar spikes on piecewise-constant bases only."""
        if not self.family.is_haar or not isinstance(self.base, PiecewiseConstant):
            raise ValueError("flat representation needs a Haar spike on a flat base")
        s = max(self.base.scale_level, self.index.j + 1)
        grid = (np.indices((2**s,) * self.dim).reshape(self.dim, -1).T + 0.5) / 2**s
        vals = self.pdf(grid).reshape((2**s,) * self.dim)
        vals = np.maximum(vals, 0.0)  # clip float dust at exact zeros
        return PiecewiseConstant(vals, s)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.family.is_haar and isinstance(self.base, PiecewiseConstant):
            return self.as_piecewise_constant().sample(n, rng)
        return rejection_sample(self, n, rng)

    def sup_bound(self) -> float:
        base_sup = self.base.sup_bound()
        sup = 2.0 ** (self.dim * self.index.j / 2.0)
        for ei in self.index.e:
            sup *= self.family.psi_sup if ei else self.family.phi_sup
        return float(base_sup + abs(self.coeff) * sup)

    def min_value(self) -> float:
        if self.family.is_haar and isinstance(self.base, PiecewiseConstant):
            return self.as_piecewise_constant().min_value()
        raise NotImplementedError


class GenericDensity:
    """Arbitrary density given by a callable, with a known sup bound."""

    def __init__(self, dim: int, pdf, sup_bound: float):
        self.dim = int(dim)
        self._pdf = pdf
        self._sup = float(sup_bound)

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self._pdf(x), dtype=float)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rejection_sample(self, n, rng)

    def sup_bound(self) -> float:
        return self._sup


def rejection_sample(model, n: int, rng: np.random.Generator, budget_factor: int = 400) -> np.ndarray:
    """Uniform-proposal rejection sampling on the cube, batch sized by the sup bound."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if n == 0:
        return np.zeros((0, model.dim))
    m = model.sup_bound()
    if not np.isfinite(m) or m <= 0:
        raise ValueError("rejection sampling needs a positive finite sup bound")
    budget = max(10**6, budget_factor * n * max(1, int(m)))
    got: list[np.ndarray] = []
    have = 0
    spent = 0
    while have < n:
        batch = min(budget - spent, max(2048, int(1.5 * (n - have) * m)))
        if batch <= 0:
            raise RejectionBudgetExceeded(
                f"accepted {have}/{n} after {spent} proposals (sup bound {m})"
            )
        pts = rng.random((batch, model.dim))
        keep = rng.random(batch) * m < model.pdf(pts)
        got.append(pts[keep])
        have += int(keep.sum())
        spent += batch
    return np.concatenate(got)[:n]


# -- empirical coefficients -------------------------------------------------


# Rows of the sample handled per pass of the Daubechies transform. About 2k
# rows keep every per-block temporary in cache and under the allocator's
# mmap threshold.
_BLOCK_ROWS = 2048
# Cap on the floats held by one orientation's per-shift sums; levels whose
# W^D shift rows of 2^{Dj} bins exceed it are summed a group of rows at a time.
_SUM_CELLS = 2**20


def empirical_coeffs(samples, family: WaveletFamily, j0: int, j1: int) -> CoefficientTree:
    """Sample-mean coefficients beta_hat = (1/n) sum psi(X_i) for levels 0..j1.

    The father coefficient is exactly 1 (the periodized father is constant).
    j0 is validated against j1 but all levels from 0 are computed, since every
    estimator keeps the low levels.

    The result is fixed bit for bit, independent of blocking. For each level,
    orientation e and shift vector t in {0..W-1}^D (W the support width,
    product order), the terms prod_i f_{e_i}(frac_i + t_i) go to bin
    k = (c - t) mod 2^j and are summed one at a time in sample order,
    starting from 0.0; the W^D per-shift arrays are then added in shift order
    onto zeros and scaled by 2^{Dj/2}/n. Daubechies families get there by
    walking the sample in blocks of _BLOCK_ROWS rows with `np.add.at`, which
    adds repeated indices one at a time in index order, so block after block
    continues each bin's sample-order sum. For Haar every term is 0 or +-1,
    so every such sum is an exact integer in floating point; the Haar path
    counts the points per cell at level j1+1 once and forms every level from
    integer pair sums (father) and differences (mother), which are the same
    integers.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("samples must have shape (n, D)")
    if x.shape[0] == 0:
        raise EmptySample("no samples given")
    if not (0 <= j0 <= j1):
        raise ValueError(f"need 0 <= j0 <= j1, got ({j0}, {j1})")
    x = _fold_points(x)
    n, d = x.shape
    tree = CoefficientTree(family, d, alpha=1.0)
    if family.is_haar:
        sums = _haar_count_sums(x, j1)
    else:
        xt = np.ascontiguousarray(x.T)
        sums = {j: _shift_sums(xt, family, j) for j in range(j1 + 1)}
    for j in range(0, j1 + 1):
        sums[j] *= 2.0 ** (d * j / 2.0) / n
        tree.set_level_array(j, sums[j].reshape((-1,) + (2**j,) * d))
    return tree


def _shift_sums(xt: np.ndarray, family: WaveletFamily, j: int) -> np.ndarray:
    """Unscaled level-j sums of the sample given as xt, shape (D, n): one row
    of 2^{Dj} bins per orientation."""
    d, n = xt.shape
    w = family.support_width
    two_j = 2**j
    bins = two_j**d
    rows = w**d
    per_pass = max(1, min(rows, _SUM_CELLS // bins))
    es = list(orientations(d))
    kinds = sorted({m for e in es for m in e})  # 0 father, 1 mother; D=1 needs only 1
    tables = (family.phi_values, family.psi_values)
    # shift-major layout (shift, axis, sample): inner loops run over samples
    shifts = np.arange(w).reshape(w, 1, 1)
    accs = np.zeros((len(es), bins))
    for r0 in range(0, rows, per_pass):
        r1 = min(rows, r0 + per_pass)
        row_offset = (np.arange(r1 - r0) * bins)[:, None]
        parts = [np.zeros((r1 - r0) * bins) for _ in es]
        for start in range(0, n, _BLOCK_ROWS):
            scaled = xt[:, start : start + _BLOCK_ROWS] * two_j
            b = scaled.shape[1]
            c = scaled.astype(np.int64)
            np.minimum(c, two_j - 1, out=c)
            frac = scaled - c
            vals = {m: pl_lookup(tables[m], frac + shifts, family.cascade_depth) for m in kinds}
            kb = (c - shifts) & (two_j - 1)  # (c - t) mod 2^j
            # row r = t_0 W^{D-1} + ... + t_{D-1} is the product order of shift vectors
            k_lin = kb[:, 0]
            for i in range(1, d):
                k_lin = (k_lin[:, None] * two_j + kb[None, :, i]).reshape(-1, b)
            k_lin = (k_lin[r0:r1] + row_offset).ravel()
            for e, part in zip(es, parts):
                prod = vals[e[0]][:, 0]
                for i in range(1, d):
                    prod = (prod[:, None] * vals[e[i]][None, :, i]).reshape(-1, b)
                np.add.at(part, k_lin, prod[r0:r1].ravel())
        for acc, part in zip(accs, parts):
            for row in part.reshape(r1 - r0, bins):
                acc += row
    return accs


def _haar_split(c: np.ndarray, norm) -> dict[tuple[int, ...], np.ndarray]:
    """One separable Haar analysis step: along every axis, pair entries 2k and
    2k+1 into (a + b) / norm (orientation bit 0) and (a - b) / norm (bit 1)."""
    arrs = {(): c}
    for ax in range(c.ndim):
        new = {}
        for bits, arr in arrs.items():
            a = np.take(arr, np.arange(0, arr.shape[ax], 2), axis=ax)
            b = np.take(arr, np.arange(1, arr.shape[ax], 2), axis=ax)
            new[bits + (0,)] = (a + b) / norm
            new[bits + (1,)] = (a - b) / norm
        arrs = new
    return arrs


def _haar_count_sums(x: np.ndarray, j1: int) -> dict[int, np.ndarray]:
    """Unscaled Haar sums for levels 0..j1 from point counts at level j1+1.

    Entries are float64 holding exact integers, one flat row per orientation.
    """
    n, d = x.shape
    top = 2 ** (j1 + 1)
    c = (x * top).astype(np.int64)
    np.minimum(c, top - 1, out=c)
    cell = c[:, 0]
    for i in range(1, d):
        cell = cell * top + c[:, i]
    counts = np.bincount(cell, minlength=top**d).reshape((top,) * d)
    out = {}
    for j in range(j1, -1, -1):
        split = _haar_split(counts, 1)
        out[j] = np.stack([split[e].ravel() for e in orientations(d)])
        counts = split[(0,) * d]
    return out


# -- exact coefficients -----------------------------------------------------


def _haar_pyramid(values: np.ndarray, j_max: int) -> dict[int, list[np.ndarray]]:
    """Exact multilevel Haar transform of cell averages: j -> orientation arrays."""
    d = values.ndim
    s = int(round(math.log2(values.shape[0]))) if values.shape[0] > 1 else 0
    c = values.astype(float) * 2.0 ** (-s * d / 2.0)
    levels = {}
    for j in range(s - 1, -1, -1):
        arrs = _haar_split(c, _SQRT2)
        c = arrs[(0,) * d]
        if j <= j_max:
            levels[j] = [arrs[e] for e in orientations(d)]
    return levels


def _axis_cell_integral_matrix(
    family: WaveletFamily, mother: bool, j: int, s: int
) -> np.ndarray:
    """I[k, c] = integral over dyadic cell c (scale 2^-s) of the periodized
    unit-normalized axis factor f(2^j x - k), exact for the implemented
    piecewise-linear wavelet. Requires cell edges on the value grid."""
    w, m = family.support_width, family.cascade_depth
    if s > j + m:
        raise QuadratureFailure(f"cell scale 2^-{s} finer than the value grid at level {j}")
    table = family.psi_values if mother else family.phi_values
    cum = np.concatenate([[0.0], np.cumsum((table[:-1] + table[1:]) / 2.0)]) * 2.0**-m

    def cum_at(u: np.ndarray) -> np.ndarray:
        idx = np.clip(u, 0.0, w) * 2**m
        ridx = np.rint(idx)
        if np.max(np.abs(idx - ridx)) > 1e-6:
            raise QuadratureFailure("cell edge does not land on the wavelet value grid")
        return cum[ridx.astype(np.int64)]

    edges = np.arange(2**s + 1) * 2.0 ** (j - s)
    ks = np.arange(2**j)[:, None]
    out = np.zeros((2**j, 2**s))
    t_lo = -1
    t_hi = int(math.ceil((w + 2**j) / 2**j))
    for t in range(t_lo, t_hi + 1):
        lo = edges[None, :-1] - ks + t * 2**j
        hi = edges[None, 1:] - ks + t * 2**j
        if np.all(hi <= 0.0) or np.all(lo >= w):
            continue
        out += cum_at(hi) - cum_at(lo)
    return out * 2.0**-j


def _pwc_tree(model: PiecewiseConstant, family: WaveletFamily, j_max: int) -> CoefficientTree:
    d, s = model.dim, model.scale_level
    tree = CoefficientTree(family, d, alpha=1.0)
    if family.is_haar:
        for j, parts in _haar_pyramid(model.values, j_max).items():
            tree.set_level_array(j, parts)
        return tree
    for j in range(0, j_max + 1):
        mats = {
            0: _axis_cell_integral_matrix(family, False, j, s),
            1: _axis_cell_integral_matrix(family, True, j, s),
        }
        lev = np.empty((2**d - 1,) + (2**j,) * d)
        for o, e in enumerate(orientations(d)):
            arr = model.values
            for ax in range(d):
                arr = np.tensordot(mats[e[ax]], arr, axes=([1], [ax]))
            # tensordot prepends the contracted axis: axes are reversed overall
            arr = np.transpose(arr, axes=tuple(range(d - 1, -1, -1)))
            lev[o] = arr * 2.0 ** (d * j / 2.0)
        tree.set_level_array(j, lev)
    return tree


class _PanelRule:
    """Quadrature nodes/weights integrating f against one axis factor.

    For the factor f_w(u) on [0, W] (the implemented PL father or mother),
    builds panels between the given node-aligned edges and per-panel Chebyshev
    nodes u_i with weights w_i such that sum_i w_i g(u_i) equals
    int g(u) f_w(u) du exactly whenever g is a polynomial of degree <=
    `degree` on every panel.
    """

    def __init__(self, family: WaveletFamily, mother: bool, edges: np.ndarray, degree: int):
        deg = degree
        cheb = np.cos(np.pi * (2 * np.arange(deg + 1) + 1) / (2 * (deg + 1)))  # in (-1,1)
        v = np.vander(cheb, deg + 1, increasing=True).T
        if family.is_haar:
            moments = self._haar_moments_all(mother, edges, deg)
        else:
            moments = self._pl_moments_all(family, mother, edges, deg)
        keep = np.any(np.abs(moments) > 0.0, axis=1)
        moments = moments[keep]
        mid = ((edges[:-1] + edges[1:]) / 2.0)[keep]
        half = ((edges[1:] - edges[:-1]) / 2.0)[keep]
        if moments.shape[0] == 0:
            self.nodes = np.zeros(0)
            self.weights = np.zeros(0)
            return
        wts = np.linalg.solve(v, moments.T).T
        self.nodes = (mid[:, None] + half[:, None] * cheb[None, :]).ravel()
        self.weights = wts.ravel()

    @staticmethod
    def _haar_moments_all(mother: bool, edges: np.ndarray, deg: int) -> np.ndarray:
        """Per-panel moments int xi^q f du for Haar factors, closed form."""
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        q = np.arange(deg + 1)

        def seg(lo: float, hi: float, sign: float) -> np.ndarray:
            clo = np.clip(edges[:-1], lo, hi)
            chi = np.clip(edges[1:], lo, hi)
            xl = (clo - mid) / half
            xh = np.maximum((chi - mid) / half, xl)
            return sign * half[:, None] * (xh[:, None] ** (q + 1) - xl[:, None] ** (q + 1)) / (q + 1)

        if not mother:
            return seg(0.0, 1.0, 1.0)
        return seg(0.0, 0.5, 1.0) + seg(0.5, 1.0, -1.0)

    @staticmethod
    def _pl_moments_all(
        family: WaveletFamily, mother: bool, edges: np.ndarray, deg: int
    ) -> np.ndarray:
        """Per-panel moments int xi^q f du, exact per linear cell, vectorized."""
        m = family.cascade_depth
        table = family.psi_values if mother else family.phi_values
        grid = 2**m
        eidx = np.rint(edges * grid).astype(np.int64)
        if np.max(np.abs(edges * grid - eidx)) > 1e-9:
            raise QuadratureFailure("panel edges must lie on the value grid")
        counts = np.diff(eidx)
        if np.any(counts < 1):
            raise QuadratureFailure("empty quadrature panel")
        h = 2.0**-m
        cells = np.arange(eidx[0], eidx[-1])
        lo_vals = table[cells]
        hi_vals = table[cells + 1]
        x_lo = cells * h
        mid = np.repeat((edges[:-1] + edges[1:]) / 2.0, counts)
        half = np.repeat((edges[1:] - edges[:-1]) / 2.0, counts)
        starts = (eidx[:-1] - eidx[0]).astype(np.intp)
        gl_nodes, gl_wts = np.polynomial.legendre.leggauss((deg + 3) // 2 + 1)
        out = np.zeros((counts.size, deg + 1))
        for t, wt in zip(gl_nodes, gl_wts):
            lam = (t + 1.0) / 2.0
            x = x_lo + lam * h
            f = (lo_vals + lam * (hi_vals - lo_vals)) * wt
            xi = (x - mid) / half
            pw = np.ones_like(xi)
            for qq in range(deg + 1):
                out[:, qq] += np.add.reduceat(f * pw, starts)
                pw = pw * xi
        return out * (h / 2.0)


_RULE_CACHE: dict = {}


def _panel_rule(
    family: WaveletFamily,
    mother: bool,
    panel_exp: int,
    degree: int,
    extra_edges: tuple[float, ...] = (),
) -> _PanelRule:
    """Cached rule with uniform dyadic panels of width 2^panel_exp plus extra
    node-aligned edge positions (kinks of the smooth factor, shifted by every
    integer so that one layout serves all translates at a level)."""
    w, m = family.support_width, family.cascade_depth
    if panel_exp < -m:
        raise QuadratureFailure("panel width below the wavelet value grid")
    grid = 2**m
    edge_ints = set(range(0, w * grid + 1, 2 ** (m + panel_exp)))
    edge_ints.add(w * grid)
    for pos in extra_edges:
        frac = pos - math.floor(pos)
        for i in range(w):
            edge_ints.add(int(round((frac + i) * grid)))
    key = (family.name, m, mother, degree, tuple(sorted(edge_ints)))
    if key not in _RULE_CACHE:
        edges = np.array(sorted(edge_ints)) / grid
        edges = edges[(edges >= 0.0) & (edges <= w)]
        _RULE_CACHE[key] = _PanelRule(family, mother, edges, degree)
    return _RULE_CACHE[key]


def _axis_integrals_at(
    family: WaveletFamily,
    mother: bool,
    j: int,
    factor,
    panel_exp: int,
    degree: int,
    extra_edges: tuple[float, ...] = (),
) -> np.ndarray:
    """A[k] = int_0^1 f(2^j x - k, periodized) factor(x) dx for all k at level j,
    with u-panels of width 2^panel_exp."""
    rule = _panel_rule(family, mother, panel_exp, degree, extra_edges)
    ks = np.arange(2**j)[:, None]
    y = (rule.nodes[None, :] + ks) / 2**j
    fy = factor(y - np.floor(y))
    return (fy @ rule.weights) * 2.0**-j


def _smooth_axis_integrals(
    family: WaveletFamily,
    mother: bool,
    j: int,
    factor,
    factor_scale: float,
    degree: int = 16,
    kinks_x: tuple[float, ...] = (),
) -> np.ndarray:
    """Axis integrals with panels at most a quarter of `factor_scale` wide in x.

    `kinks_x` lists x positions where the factor is not smooth; panel edges
    are snapped there so the polynomial proxy stays accurate.
    """
    panel_exp = min(0, j + int(math.floor(math.log2(max(factor_scale, 2.0**-40)))) - 2)
    panel_exp = max(panel_exp, -family.cascade_depth)
    extra = tuple((2**j) * x for x in kinks_x)
    return _axis_integrals_at(family, mother, j, factor, panel_exp, degree, extra)


def _bump_tree(model: SmoothBump, family: WaveletFamily, j_max: int) -> CoefficientTree:
    d = model.dim
    tree = CoefficientTree(family, d, alpha=1.0)
    for j in range(0, j_max + 1):
        per_bump_axis: list[dict[tuple[int, int], np.ndarray]] = []
        for b in range(model.masses.size):
            cache: dict[tuple[int, int], np.ndarray] = {}
            for i in range(d):
                c, wdt = model.centers[b, i], model.widths[b, i]

                def factor(xx, c=c, wdt=wdt):
                    u = (xx - c) / wdt
                    return np.where(np.abs(u) < 1.0, (1.0 + np.cos(np.pi * u)) / 2.0 / wdt, 0.0)

                for mother in (0, 1):
                    cache[(i, mother)] = _smooth_axis_integrals(
                        family,
                        bool(mother),
                        j,
                        factor,
                        float(wdt),
                        kinks_x=(c - wdt, c + wdt),
                    )
            per_bump_axis.append(cache)
        lev = np.empty((2**d - 1,) + (2**j,) * d)
        for o, e in enumerate(orientations(d)):
            arr = np.zeros((2**j,) * d)
            for b in range(model.masses.size):
                part = model.masses[b]
                block = None
                for i in range(d):
                    ax = per_bump_axis[b][(i, e[i])]
                    block = ax if block is None else np.multiply.outer(block, ax)
                arr = arr + part * block
            lev[o] = arr * 2.0 ** (d * j / 2.0)
        tree.set_level_array(j, lev)
    return tree


def _generic_tree(
    model: GenericDensity, family: WaveletFamily, j_max: int, tol: float
) -> CoefficientTree:
    if model.dim != 1:
        raise QuadratureFailure("generic quadrature trees are implemented for D=1")

    def factor(y):
        return model.pdf(y.reshape(-1, 1)).reshape(y.shape)

    # the integral of the density must be 1; it becomes the father coefficient
    mass = _integrate_unit(factor, min(tol, 1e-10))
    if abs(mass - 1.0) > 1e-7:
        raise QuadratureFailure(f"pdf integrates to {mass}, not a density")
    tree = CoefficientTree(family, 1, alpha=1.0)
    for j in range(0, j_max + 1):
        prev = None
        vals = None
        converged = False
        for panel_exp in range(0, -family.cascade_depth - 1, -1):
            vals = _axis_integrals_at(family, True, j, factor, panel_exp, degree=16)
            if prev is not None and np.max(np.abs(vals - prev)) < tol:
                converged = True
                break
            prev = vals
        if not converged:
            raise QuadratureFailure(
                f"level {j} coefficients did not converge to {tol} under panel refinement"
            )
        tree.set_level_array(j, (vals * 2.0 ** (j / 2.0))[None])
    return tree


def _integrate_unit(f, tol: float) -> float:
    """Adaptive composite Gauss-Legendre integral of f over [0,1]."""
    nodes, wts = np.polynomial.legendre.leggauss(12)
    prev = None
    for k in range(2, 16):
        edges = np.linspace(0.0, 1.0, 2**k + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1] - edges[0]) / 2.0
        x = mid[:, None] + half * nodes[None, :]
        val = float(np.sum(f(x.ravel()).reshape(x.shape) @ wts) * half)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
    raise QuadratureFailure(f"integral did not converge to {tol}")


def exact_coeffs(model, family: WaveletFamily, j_max: int, tol: float = 1e-10) -> CoefficientTree:
    """Coefficient tree of a density model for levels 0..j_max.

    Uses the exact pyramid for Haar x piecewise-constant, exact cell-integral
    tables for Daubechies x piecewise-constant, certified polynomial-proxy
    quadrature for smooth bump factors, and adaptive quadrature for generic
    callables (D=1). Spike perturbations are exact for Haar.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if isinstance(model, PiecewiseConstant):
        return _pwc_tree(model, family, j_max)
    if isinstance(model, SmoothBump):
        return _bump_tree(model, family, j_max)
    if isinstance(model, SpikePerturbation):
        if model.family.name != family.name or model.family.cascade_depth != family.cascade_depth:
            raise IncompatibleTrees("spike wavelet family differs from the requested basis")
        if family.is_haar and isinstance(model.base, PiecewiseConstant):
            base = _pwc_tree(model.base, family, j_max)
            if model.index.j <= j_max:
                base.set(model.index, base.get(model.index) + model.coeff)
            return base
        raise QuadratureFailure(
            "exact spike trees need the Haar family on a flat base; "
            "interpolated wavelets are only near-orthonormal"
        )
    if isinstance(model, GenericDensity):
        return _generic_tree(model, family, j_max, tol)
    raise TypeError(f"no exact coefficient rule for {type(model).__name__}")
