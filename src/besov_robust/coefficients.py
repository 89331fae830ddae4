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

A tree may also hold the coefficients of a block of T Monte-Carlo trials
(`trials=T`): `alpha` is then an array of shape (T,), level j one array of
shape (T, 2^D - 1, 2^j, ...), trial t's tree in row t, and a level is
stored while any trial has an entry in it. Such a block is built by
`empirical_coeffs` and the estimators. The norms, `in_ball`, the pairing
and the IPM of `besov` return one value per trial on a block. `set`, `get`,
`items`, `evaluate`, `to_jsonl`, `tree_axpy` and `besov.ipm_witness`
address a single tree only and raise ValueError on a block;
`check_compatible` rejects two blocks of different sizes. Every path of the
package works on whole levels, the one tree-file reader `from_jsonl` too;
`set`, `get` and `items` address one coefficient, for tests and by hand.
`tree_axpy` and `besov.besov_ipm` combine trees level by level through one
generator, `axpy_levels`. `evaluate` and `wavelets.eval_wavelet` share their
coordinate, translate and index rules, and `set` checks an index by the same rule.

Density models (`PiecewiseConstant`, `SpikePerturbation`) share a small
duck-typed protocol: a `dim` attribute, `pdf(points)` and
`sample(n, rng, out=None)`, which draws the (n, D) sample into `out` when
it is given and returns it. `empirical_coeffs` and `exact_coeffs` share one
transform: father sums or integrals at a top level J, then the periodic
filter bank (`_bank_level`) down to level 0; an exact truth banks the 1-d
father integrals of the cells, one table that every axis shares, and
assembles its levels in one place (`_separable_tree`).
Their coefficients are those of the filter-bank basis of `wavelets` with
that J, in closed form: every model is piecewise constant. The Huber
mixture of two models is sampled by `contamination.sample_huber`.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Iterator

import numpy as np

from .errors import EmptySample, IncompatibleTrees, MalformedTree, OutOfDomain, QuadratureFailure
from .wavelets import (
    WaveletFamily,
    WaveletIndex,
    _indexable,
    _position,
    _torus_points,
    _translates,
    eval_wavelet,
    orientations,
    wavelet_family,
)

PRUNE_TOL = 1e-14
# Points handled per pass of `CoefficientTree.evaluate`, and lines matched
# per `findall` in `CoefficientTree.from_jsonl`, which bounds the matched
# strings held at once.
_EVAL_ROWS = 4096
_PARSE_ROWS = 2048
# The largest `dim` of a tree file's header: a tree of dimension D builds its
# 2^D - 1 orientations before any record is read (0.1 s and 16 MB at D = 16;
# memory runs out near D = 30); no command writes a tree above D of about 9.
_MAX_DIM = 16
# The most bins a D = 1 Haar chunk counts by comparing its points with the
# cell edges, one pass per inner edge, not by building cells for
# `np.bincount`: for 2^14 points, 2 and 4 bins take 14 and 25 us against
# 62 and 53 us, and 8 bins tie (53 against 51 us).
_COMPARE_BINS = 4


def _prune_level(arr: np.ndarray) -> bool:
    """Zero the entries below PRUNE_TOL of a level with a leading trial axis
    in place, one orientation at a time, which bounds the temporaries of
    deep levels; whether any entry remains."""
    for o in range(arr.shape[1]):
        part = arr[:, o]
        part[np.abs(part) < PRUNE_TOL] = 0.0
    return bool(arr.any())


def _midpoints(m: int, dim: int) -> np.ndarray:
    """The m^dim cell midpoints (k + 0.5)/m of the uniform grid on [0, 1)^dim,
    shape (m^dim, dim), in row-major cell order."""
    return (np.indices((m,) * dim).reshape(dim, -1).T + 0.5) / m


def _json_float(v: float) -> str:
    """A float exactly as `json.dumps` writes it."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def _record_pattern(dim: int) -> re.Pattern:
    """The coefficient records `to_jsonl` writes for a D-dim tree, one per
    line under re.M, with the groups e, j, k and v.

    The form is a subset of JSON that `json.loads` reads to the same values:
    e holds D digits 0 or 1, j and k integers without leading zeros, and v a
    float literal (with a fraction or an exponent, as `repr` writes one),
    NaN, Infinity or -Infinity. It admits no booleans and no other spacing
    or key order.
    """
    num = "(?:0|[1-9][0-9]*)"
    e = ", ".join(["[01]"] * dim)
    k = ", ".join([num] * dim)
    v = rf"-?{num}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)|NaN|-?Infinity"
    return re.compile(rf'^\{{"e": \[({e})\], "j": ({num}), "k": \[({k})\], "v": ({v})\}}$', re.M)


class CoefficientTree:
    """Periodized wavelet coefficients of a function on [0,1)^D, one array per level."""

    def __init__(self, family: WaveletFamily, dim: int, alpha: float | np.ndarray = 0.0, trials: int | None = None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if trials is not None and trials < 1:
            raise ValueError("a block needs at least one trial")
        self.family = family
        self.dim = int(dim)
        self.alpha = float(alpha) if trials is None else np.full(trials, alpha, dtype=float)
        self.trials = trials
        self._orients = list(orientations(self.dim))
        self._levels: dict[int, np.ndarray] = {}

    def _shape(self, j: int) -> tuple[int, ...]:
        lead = () if self.trials is None else (self.trials,)
        return lead + (len(self._orients),) + (2**j,) * self.dim

    def _adopt(self, j: int, arr: np.ndarray) -> None:
        """Store arr (float64, level shape, owned by the tree from now on) as
        level j, pruned by `_prune_level`."""
        if _prune_level(arr if self.trials is not None else arr[None]):
            self._levels[j] = arr
        else:
            self._levels.pop(j, None)

    def _single(self, what: str) -> None:
        """Raise ValueError if the tree is a block: `what` reads one tree."""
        if self.trials is not None:
            raise ValueError(f"{what} needs a single tree, not a block of {self.trials} trials")

    # -- mutation and access ------------------------------------------------

    def set(self, index: WaveletIndex, value: float) -> None:
        """Store one coefficient; magnitudes below 1e-14 are stored as absent.

        `set`, `get` and `items` stay public to build and inspect a tree
        index by index, as tests do; no path of the package calls them."""
        self._single("set")
        pos = _position(index, self.dim)
        lev = self._levels.get(index.j)
        if abs(value) < PRUNE_TOL:
            if lev is not None:
                lev[pos] = 0.0
                if not lev.any():
                    del self._levels[index.j]
            return
        if lev is None:
            lev = self._levels[index.j] = np.zeros(self._shape(index.j))
        lev[pos] = value

    def set_level_array(self, j: int, values) -> None:
        """Store the whole level j, shape (2^D - 1, 2^j, ..., 2^j), after the
        trial axis in a block. A float64 array is kept as it is, not copied:
        the tree owns it from now on."""
        arr = np.asarray(values, dtype=float)
        if j < 0 or arr.shape != self._shape(j):
            raise ValueError(f"level {j} needs shape {self._shape(max(j, 0))}, got {arr.shape}")
        self._adopt(j, arr)

    def level_array(self, j: int) -> np.ndarray | None:
        """The stored level j (zeros are absent entries), or None: the tree's own
        array. Only whoever built the tree may edit it, then hand it back to
        `set_level_array`."""
        return self._levels.get(j)

    def get(self, index: WaveletIndex) -> float:
        """The coefficient at index; 0.0 if it is absent or not an index of the tree."""
        self._single("get")
        lev = self._levels.get(index.j)
        try:
            return 0.0 if lev is None else lev.item(_position(index, self.dim))
        except ValueError:
            return 0.0

    def _trial_levels(self, j: int) -> np.ndarray | None:
        """Level j with a leading trial axis (of length 1 for a single tree),
        or None."""
        lev = self._levels.get(j)
        return lev[None] if lev is not None and self.trials is None else lev

    def levels(self) -> list[int]:
        return sorted(self._levels)

    @property
    def n_coefficients(self) -> int:
        return sum(int(np.count_nonzero(lev)) for lev in self._levels.values())

    def _entries(self) -> Iterator[tuple[int, tuple, list, np.ndarray]]:
        """(j, e, translate lists, values) of the stored entries of each
        level and orientation of a single tree: levels ascending,
        orientations in `orientations` order, translates row-major."""
        for j in self.levels():
            for e, part in zip(self._orients, self._levels[j]):
                ks = part.nonzero()
                yield j, e, [k.tolist() for k in ks], part[ks]

    def items(self) -> Iterator[tuple[WaveletIndex, float]]:
        """Stored coefficients in (j, e, row-major k) order."""
        self._single("items")
        return (
            (WaveletIndex(j, k, e), v)
            for j, e, ks, vals in self._entries()
            for k, v in zip(zip(*ks), vals.tolist())
        )

    def copy(self) -> "CoefficientTree":
        out = CoefficientTree(self.family, self.dim, self.alpha, self.trials)
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
        if None not in (self.trials, other.trials) and self.trials != other.trials:
            raise IncompatibleTrees(f"blocks of {self.trials} and {other.trials} trials")

    def evaluate(self, x) -> np.ndarray:
        """Synthesize the series at points x of shape (D,) or (m, D)
        (`wavelets._torus_points`). Per level, each point meets the W^D
        translates per orientation that `wavelets._translates` gives per axis."""
        self._single("evaluate")
        u, single = _torus_points(x, self.dim)
        out = np.full(u.shape[0], self.alpha)
        for start in range(0, u.shape[0], _EVAL_ROWS):
            block = u[start : start + _EVAL_ROWS]
            out[start : start + _EVAL_ROWS] += sum(
                self._synthesize_level(j, block) for j in self.levels()
            )
        return float(out[0]) if single else out

    def _synthesize_level(self, j: int, u: np.ndarray) -> np.ndarray:
        """Level j's part of the series at torus points u of shape (m, D)."""
        fam, d = self.family, self.dim
        # per axis: the W translates each point meets and the factor values there
        kb, pos = zip(*(_translates(u[:, i], j, fam.support_width) for i in range(d)))
        factors = (fam.father_values, fam.mother_values)
        needed = {(e[i], i) for e in self._orients for i in range(d)}
        vals = {(m, i): factors[m](pos[i]) for m, i in needed}
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
        Each (level, orientation) fills one %-template, so a record costs the
        text of its numbers; `from_jsonl` reads these lines back in bulk.
        """
        self._single("to_jsonl")
        header = {
            "format": "besov-robust-tree",
            "version": 1,
            "family": self.family.name,
            "cascade_depth": self.family.cascade_depth,
            "dim": self.dim,
            "alpha": self.alpha,
        }
        lines = [json.dumps(header, sort_keys=True)]
        k_form = ", ".join(["%d"] * self.dim)
        for j, e, ks, vals in self._entries():
            # %s writes a finite float as its repr, as json.dumps does
            vs = vals.tolist() if np.isfinite(vals).all() else list(map(_json_float, vals.tolist()))
            form = f'{{"e": [{", ".join(map(str, e))}], "j": {j}, "k": [{k_form}], "v": %s}}'
            lines += map(form.__mod__, zip(*ks, vs))
        text = "\n".join(lines) + "\n"
        if hasattr(path_or_fp, "write"):
            path_or_fp.write(text)
        else:
            with open(path_or_fp, "w") as fp:
                fp.write(text)

    @classmethod
    def from_jsonl(cls, path_or_fp) -> "CoefficientTree":
        """Read a tree file: the header line, then one JSON record per line.

        One reader loads every file: each record line becomes a row
        (orientation position, j, k, v). A chunk of _PARSE_ROWS lines in the
        form `to_jsonl` writes goes through one `_record_pattern` findall,
        any other chunk line by line through `json.loads` (`_record`).
        Then each level is filled once; a repeated index keeps its last
        record. A bad header (its form, a field's type, a `dim` above
        _MAX_DIM), the first bad record and the first record that stores a
        value in a level too large to hold raise MalformedTree naming the line.
        """
        if hasattr(path_or_fp, "read"):
            text = path_or_fp.read()
        else:
            with open(path_or_fp) as fp:
                text = fp.read()
        lines = list(filter(str.strip, text.splitlines()))  # blank lines are skipped
        if not lines:
            raise MalformedTree("empty tree file")
        line, lines = lines[0], lines[1:]
        try:
            header = json.loads(line)
            if header.get("format") != "besov-robust-tree" or header.get("version") != 1:
                raise MalformedTree(f"unrecognized tree header: {line[:80]}")
            for key, kind in (("version", int), ("cascade_depth", int), ("dim", int), ("alpha", (int, float))):
                value = header.get(key, 0)  # a missing field is named below
                if isinstance(value, bool) or not isinstance(value, kind):
                    need = "a number" if key == "alpha" else "an integer"
                    raise ValueError(f"header field {key} must be {need}, not {json.dumps(value)}")
            if header.get("dim", 0) > _MAX_DIM:
                raise ValueError(f"header field dim must be at most {_MAX_DIM}, not {header['dim']}")
            fam = wavelet_family(header["family"], header["cascade_depth"])
            out = cls(fam, header["dim"], header["alpha"])
        except MalformedTree:
            raise
        except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as err:
            raise _malformed(line, err) from None
        d = out.dim
        pattern = _record_pattern(d)
        cols = []
        for start in range(0, len(lines), _PARSE_ROWS):
            chunk = lines[start : start + _PARSE_ROWS]
            found = pattern.findall("\n".join(chunk))
            if len(found) == len(chunk):
                e, j, k, v = zip(*found)
                es = np.fromstring(", ".join(e), dtype=np.int64, sep=",").reshape(-1, d)
                o = es @ (1 << np.arange(d - 1, -1, -1)) - 1
                js = np.array(j, dtype=float)  # a j beyond int64 is a float too large to index
                # a k beyond int64 saturates, then fails the range check
                ks = np.fromstring(", ".join(k), dtype=np.int64, sep=",").reshape(-1, d)
                if np.all((o >= 0) & _indexable(js, d)) and np.all(ks < (1 << js.astype(np.int64))[:, None]):
                    cols.append((o, js.astype(np.int64), ks, np.array(v, dtype=float)))
                    continue
            cols.append(tuple(map(np.array, zip(*[out._record(line) for line in chunk]))))
        if not cols:
            return out
        o, js, ks, vs = map(np.concatenate, zip(*cols))
        stored = ~(np.abs(vs) < PRUNE_TOL)  # a NaN is stored, as by `set`
        for j in sorted(set(js.tolist())):
            rows = np.flatnonzero(js == j)
            if not stored[rows].any():
                continue  # as with `set`, records that all prune allocate nothing
            try:
                lev = np.zeros(out._shape(j))
            except (ValueError, MemoryError) as err:  # a level too large to hold
                raise _malformed(lines[rows[stored[rows]][0]], err) from None
            flat = np.ravel_multi_index((o[rows],) + tuple(ks[rows].T), lev.shape)
            # a repeated index keeps its last record, as a loop of `set` would
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            last = np.append(flat[1:] != flat[:-1], True)
            lev.flat[flat[last]] = vs[rows][order][last]
            out._adopt(j, lev)
        return out

    def _record(self, line: str) -> tuple[int, int, list[int], float]:
        """The row (orientation position, j, k, v) of one record line, read by
        `json.loads` with the checks of `set` (a v below PRUNE_TOL is 0.0);
        MalformedTree names a bad line."""
        try:
            rec = json.loads(line)
            index = WaveletIndex(rec["j"], tuple(rec["k"]), tuple(rec["e"]))
            v = rec["v"]
            if any(isinstance(x, bool) for x in (index.j, *index.k, *index.e, v)):
                raise ValueError("a JSON boolean is not a number")
            o, *k = _position(index, self.dim)
            return o, index.j, k, 0.0 if abs(v) < PRUNE_TOL else float(v)
        except (KeyError, AttributeError, TypeError, ValueError, OverflowError) as err:
            raise _malformed(line, err) from None


def _malformed(line: str, err: Exception) -> MalformedTree:
    """The MalformedTree that names a bad line of a tree file and its error."""
    if isinstance(err, KeyError):
        return MalformedTree(f"record lacks field {err}: {line[:80]}")
    return MalformedTree(f"bad record ({err}): {line[:80]}")


def tree_axpy(a: float, x: CoefficientTree, y: CoefficientTree) -> CoefficientTree:
    """a*x + y as a new tree (`axpy_levels`). Trees must share family, depth
    and dimension. `a` must be finite, so that absent entries stay absent.
    """
    x._single("tree_axpy")
    y._single("tree_axpy")
    x.check_compatible(y)
    if not math.isfinite(a):
        raise ValueError(f"axpy needs a finite scalar, got {a}")
    out = CoefficientTree(x.family, x.dim, a * x.alpha + y.alpha)
    for j, lev in axpy_levels(a, x, y):
        if lev.any():
            out._levels[j] = lev[0] if j in x._levels else lev[0].copy()
    return out


def axpy_levels(a: float, x: CoefficientTree, y: CoefficientTree) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, level j of a*x + y) in increasing j, with a leading trial
    axis (`CoefficientTree._trial_levels`), for trees the caller has checked.

    Every entry is the single IEEE result a*x_i + y_i (absent entries are
    0.0), with results below PRUNE_TOL zeroed; all-zero levels are yielded
    too. A level stored in y alone is y's own array, not a copy: never write
    into it.
    """
    for j in sorted(set(x._levels) | set(y._levels)):
        xs, ys = x._trial_levels(j), y._trial_levels(j)
        if xs is None:
            yield j, ys
            continue
        lev = a * xs
        if ys is not None:
            lev = np.add(lev, ys, out=lev if lev.shape == ys.shape else None)
        _prune_level(lev)
        yield j, lev


# -- density models ---------------------------------------------------------


def _fold_points(x: np.ndarray) -> np.ndarray:
    """Validate points in [0,1]^D and identify 1.0 with 0.0 (torus).

    Points that are all finite and in [0, 1), the common case for drawn
    samples, are returned as they are: one min and one max decide that
    (NaN fails both comparisons). Anything else, a rounded-up 1.0 included,
    takes the full checks and gets a folded copy.
    """
    if x.size and 0.0 <= x.min() and x.max() < 1.0:
        return x
    if np.any(~np.isfinite(x)):
        raise OutOfDomain("points contain non-finite values")
    if np.any(x < 0.0) or np.any(x > 1.0):
        bad = x[(x < 0.0) | (x > 1.0)]
        raise OutOfDomain(f"points outside [0,1]^D, e.g. {bad.flat[0]}")
    return np.where(x == 1.0, 0.0, x)


class _CellSearch:
    """Draws of the index i with probability probs[i] (probs sum to 1), with
    the search built once per model.

    A draw has the same bits and the same stream use as rng.choice(probs.size,
    size=n, p=probs), without its argument checks: the cumulative sums,
    rescaled by their last entry, are searched for n uniforms u, and the
    index is the number of cdf entries <= u. A guide table (Chen & Asau
    1974; Devroye 1986, section III.2.4) answers most of the search without
    the branch mispredictions of `searchsorted`: with B a power of two,
    b = floor(u B) is exact, so b/B <= u < (b+1)/B; `lo[b]` counts the cdf
    entries <= b/B and is the answer unless a cdf entry lies inside bucket
    b, and the few uniforms in such buckets (`amb`) are searched. B is the
    smallest power of two with 64 buckets per cell, capped at 2^16, so a
    large model builds no large table.

    `only` is the index of the one cell of positive probability, if there
    is one, else None: the cdf is then 0.0 before it and exactly 1.0 from
    it on, so every u in [0, 1) picks it.
    """

    def __init__(self, probs: np.ndarray):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        mass = np.flatnonzero(probs)
        self.only = int(mass[0]) if mass.size == 1 else None
        self.buckets = min(1 << (64 * cdf.size - 1).bit_length(), 2**16)
        edges = np.arange(self.buckets + 1) / self.buckets
        self.lo = cdf.searchsorted(edges[:-1], side="right")
        self.amb = cdf.searchsorted(edges[1:], side="left") > self.lo

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(n)
        b = (u * self.buckets).astype(np.intp)
        cells = self.lo.take(b)
        redo = np.flatnonzero(self.amb.take(b))
        cells[redo] = self.cdf.searchsorted(u.take(redo), side="right")
        return cells


class PiecewiseConstant:
    """Density that is constant on the cells of a dyadic 2^s grid on [0,1)^D.

    `values` holds the density value per cell, shape (2^s,)*D. Values must be
    finite, nonnegative and average to 1 (cell volume is 2^{-sD}); small
    normalization drift is corrected exactly.

    The cell search (`_CellSearch`) is built at construction, so a draw
    costs its uniforms and a table lookup; the cells keep the bits and the
    stream use of `Generator.choice`. A model whose mass sits in one cell
    (the uniform density among them) skips the search: every uniform picks
    that cell, so its n uniforms are stepped over, not used. A draw adds
    the corners to its uniforms and scales them by 2^-s in place, in `out`
    when given. A model is not changed after it is built: `values` must
    not be written to.
    """

    def __init__(self, values, scale_level: int):
        values = np.asarray(values, dtype=float)
        s = int(scale_level)
        # a side of 2^s cells is a power of two of bit length s + 1; 2**s
        # itself is never built, since s can be as large as int64 allows
        if s < 0 or any(m & (m - 1) or m.bit_length() != s + 1 for m in values.shape):
            raise ValueError(f"values shape {values.shape} does not match scale 2^{s}")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("density values must be finite and nonnegative")
        mean = values.mean()
        if abs(mean - 1.0) > 1e-9:
            raise ValueError(f"cell values average to {mean}, not a density")
        self.values = values / mean
        self.scale_level = s
        self.dim = values.ndim
        probs = self.values.ravel() * 2.0 ** (-s * self.dim)
        self._cells = _CellSearch(probs / probs.sum())

    def pdf(self, x) -> np.ndarray:
        x = _fold_points(np.atleast_2d(np.asarray(x, dtype=float)))
        s = self.scale_level
        idx = np.minimum((x * 2**s).astype(np.int64), 2**s - 1)
        return self.values[tuple(idx[:, i] for i in range(self.dim))]

    def sample(self, n: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        s, d = self.scale_level, self.dim
        only = self._cells.only
        if only is not None:
            # the cell draw is n uniforms that all pick cell `only`: skip
            # their n 64-bit outputs. A PCG64 `advance` would drop a buffered
            # 32-bit half, so a stream holding one, or of another kind, draws
            # them. The uniform model's corner 0 and scale 1 leave u itself
            bits = rng.bit_generator
            if type(bits) is np.random.PCG64 and bits.state["has_uint32"] == 0:
                bits.advance(n)
            else:
                rng.random(n)
            u = rng.random((n, d), out=out)
            if s > 0:
                u += np.unravel_index(only, self.values.shape)
                u /= 2**s
            return u
        cells = self._cells.draw(n, rng)
        u = rng.random((n, d), out=out)
        # (corners + u) / 2^s, in place: the same two roundings
        u += cells[:, None] if d == 1 else np.column_stack(np.unravel_index(cells, self.values.shape))
        u /= 2**s
        return u

    def min_value(self) -> float:
        return float(self.values.min())

    def sup_bound(self) -> float:
        return float(self.values.max())


def uniform_density(dim: int) -> PiecewiseConstant:
    """The uniform density on the unit cube."""
    return PiecewiseConstant(np.ones((1,) * dim), 0)


class SpikePerturbation:
    """A flat base density plus `coeff` times one Haar daughter wavelet.

    Both lower-bound constructions perturb the uniform density this way, so
    every spike is exactly piecewise constant. Nonnegativity is enforced
    with the conservative bound min(base) >= |coeff| * sup|daughter|. The
    flat model that `sample` draws from is built once, at construction.
    """

    def __init__(self, base, family: WaveletFamily, index: WaveletIndex, coeff: float):
        if not family.is_haar or not isinstance(base, PiecewiseConstant):
            raise ValueError("a spike is a Haar daughter on a piecewise-constant base")
        if len(index.k) != base.dim:
            raise ValueError("index dimension does not match the base density")
        sup = family.daughter_sup(index)
        base_min = base.min_value()
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
        # exact on the finer of the base grid and the daughter's half-cells
        s = max(base.scale_level, index.j + 1)
        vals = self.pdf(_midpoints(2**s, self.dim)).reshape((2**s,) * self.dim)
        self._flat = PiecewiseConstant(np.maximum(vals, 0.0), s)  # clip float dust at exact zeros

    def pdf(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.base.pdf(x) + self.coeff * eval_wavelet(self.family, self.index, x)

    def as_piecewise_constant(self) -> PiecewiseConstant:
        """The exact flat representation, built at construction; not to be changed."""
        return self._flat

    def sample(self, n: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        return self._flat.sample(n, rng, out)

    def sup_bound(self) -> float:
        return float(self.base.sup_bound() + abs(self.coeff) * self.family.daughter_sup(self.index))


# -- the filter bank ---------------------------------------------------------


def _bank_step(a: np.ndarray, taps: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One periodic analysis step along `axis`: for the low- and high-pass
    rows f of taps (`WaveletFamily.taps`), out[k] = sum_l f[l] a[(2k + l) mod N],
    k < N/2.

    The terms are added one elementwise pass per tap, in tap order, so the
    bits depend neither on BLAS nor on the other axes of a. The temporaries
    stay at a few times the size of a, whatever the filter length.
    """
    front = a.swapaxes(0, axis)
    size, width = front.shape[0], taps.shape[1]
    ext = front[np.arange(size + width - 2) % size]  # periodic extension
    cols = taps.reshape(taps.shape + (1,) * front.ndim)
    out = ext[0:size:2] * cols[:, 0]
    for l in range(1, width):
        out += ext[l : l + size : 2] * cols[:, l]
    return out[0].swapaxes(0, axis), out[1].swapaxes(0, axis)


def _bank_level(a: np.ndarray, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level-j father sums, shape (T, 2^j, ..., 2^j), and detail sums,
    shape (T, 2^D - 1, 2^j, ..., 2^j), from the level-(j+1) father sums a
    of T trials (or axis factors), shape (T, 2^(j+1), ..., 2^(j+1)). The
    step runs axis after axis, low-pass then high-pass, so the parts come
    out in product order of the orientation bits, the all-zero father first
    and then the details in `orientations` order.

    The details are copied into one row-major buffer, whatever layout the
    bank's steps leave the parts in, so an estimate's levels lie like every
    other tree's."""
    parts = [a]
    for ax in range(1, a.ndim):
        parts = [out for arr in parts for out in _bank_step(arr, taps, ax)]
    details = np.empty((a.shape[0], len(parts) - 1) + parts[0].shape[1:])
    for o, part in enumerate(parts[1:]):
        details[:, o] = part
    return parts[0], details


# -- empirical coefficients -------------------------------------------------


def empirical_coeffs(samples, family: WaveletFamily, j0: int, j1: int, trials: int | None = None) -> CoefficientTree:
    """Sample-mean coefficients beta_hat = (1/n) sum psi(X_i) for levels 0..j1.

    The father coefficient is exactly 1 (the periodized father is constant).
    j0 is validated against j1 but all levels from 0 are computed, since every
    estimator keeps the low levels. With `trials=T`, samples holds the
    samples of T trials one after another, n rows each, and the result is
    the block of their T trees (see `CoefficientTree`); a single sample is
    the block of one trial, returned as a plain tree.

    `samples` is one numpy array of shape (T n, D) or (T n,), or chunks of
    it: an iterable of such arrays, each holding whole trials, with the
    `shape` of the sample they stack. Each chunk is binned as it arrives
    and its points are not kept, so a block of many trials never holds all
    its points at once. n is the stacked rows over T (`_trial_size`), which
    binning a chunk needs before the later chunks arrive.

    The basis is the filter-bank basis of `wavelets` with top level
    J = j1 + 1. The result is fixed bit for bit by this summation order:
    `_father_sums` bins the sample once into the unnormalized father sums
    S_J[k] = sum_i phi(2^J X_i - k); the periodic bank then takes S_{j+1}
    to S_j and the detail sums of level j with the taps sqrt(2) h and
    sqrt(2) g, one axis at a time and one tap at a time (`_bank_step`),
    and level j is scaled by 2^{Dj/2}/n. For Haar, S_J holds point counts
    and the taps are +-1, so every sum is an exact integer: the same one
    that summing +-1 over the sample level by level gives.

    A block gives each trial the bits of its own sample alone, however it
    is chunked: trial t's points go to bins of their own (cell index +
    t 2^{DJ}), `np.bincount` adds each bin's weights in input order, which
    is the trial's sample order, and the bank and the scaling act entry by
    entry on the stacked sums.
    """
    if not (0 <= j0 <= j1):
        raise ValueError(f"need 0 <= j0 <= j1, got ({j0}, {j1})")
    n = _trial_size(samples, trials)
    parts, d = [], None
    for chunk in [samples] if isinstance(samples, np.ndarray) else samples:
        x = np.asarray(chunk, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or d not in (None, x.shape[1]):
            raise ValueError("samples must have shape (n, D), with one D for every chunk")
        d = x.shape[1]
        if x.shape[0] % n:
            raise ValueError(f"a chunk of {x.shape[0]} rows does not hold whole trials of {n} points")
        parts.append(_father_sums(_fold_points(x), family, j1 + 1, x.shape[0] // n))
    sums = parts[0] if len(parts) == 1 else np.concatenate(parts)
    tree = CoefficientTree(family, d, alpha=1.0, trials=trials)
    for j in range(j1, -1, -1):
        sums, details = _bank_level(sums, family.taps)
        details *= 2.0 ** (d * j / 2.0) / n
        tree.set_level_array(j, details if trials is not None else details[0])
    return tree


def _trial_size(samples, trials: int | None) -> int:
    """The rows n of each of the `trials` trials (one if None) that
    `samples`, an array or its chunks (`empirical_coeffs`), stacks."""
    shape = getattr(samples, "shape", None)
    if shape is None:
        raise TypeError("a sample comes as an array, or as chunks in an iterable with a shape")
    if len(shape) not in (1, 2):
        raise ValueError("samples must have shape (n, D)")
    if shape[0] == 0:
        raise EmptySample("no samples given")
    block = 1 if trials is None else trials
    if block < 1 or shape[0] % block:
        raise ValueError(f"{shape[0]} sample rows do not split into {trials} trials")
    return shape[0] // block


def _father_sums(x: np.ndarray, family: WaveletFamily, top: int, trials: int = 1) -> np.ndarray:
    """Unnormalized periodized father sums S[t, k] = sum_i prod_a phi(2^top x_ia - k_a)
    of the folded sample x, whose rows are the samples of `trials` trials
    one after another; shape (trials,) + (2^top,)*D.

    A point in cell c = floor(2^top x) meets the translates k = (c - t) mod
    2^top, t in {0..W-1}^D, with the factors phi(frac_a + t_a). Every shift
    shares the point's grid cell i = floor(frac 2^m) and weight f = frac 2^m - i,
    so phi(frac + t) = table[i + t 2^m] (1 - f) + table[i + 1 + t 2^m] f.
    For each shift vector t in product order, one `np.bincount` over the
    cells c adds the weights prod_a phi(frac_a + t_a) (left to right over
    the axes) in sample order, and the bins, moved to k = c - t, are added
    in shift order. Trial t's cells are offset by t 2^{D top}, a pass that
    a one-trial block skips. x < 1 and 2^top x is exact, so c < 2^top needs
    no clamp. For Haar the sums are the point counts per cell, by
    `np.bincount`; a D = 1 chunk of at most _COMPARE_BINS bins (trials
    times 2^top) builds no cells: each trial counts its points below each
    inner edge b 2^-top, and the cell counts are the differences. Since
    2^top x is exact, c < b exactly when x < b 2^-top, so both give the
    same exact integers.
    """
    d = x.shape[1]
    size = 2**top
    shape = (trials,) + (size,) * d
    bins = trials * size**d
    if family.is_haar and d == 1 and bins <= _COMPARE_BINS:
        counts = []
        for row in x.reshape(trials, -1):
            below = [0, *(np.count_nonzero(row < b / size) for b in range(1, size)), row.size]
            counts += [hi - lo for lo, hi in zip(below, below[1:])]
        return np.array(counts, dtype=float).reshape(shape)
    scaled = np.ascontiguousarray(x.T) * size
    c = scaled.astype(np.int64)
    cell = c[0]
    for i in range(1, d):
        cell = cell * size + c[i]
    if trials > 1:
        cell = cell + np.repeat(np.arange(trials) * size**d, x.shape[0] // trials)
    if family.is_haar:
        return np.bincount(cell, minlength=bins).astype(float).reshape(shape)
    grid = 2**family.cascade_depth
    pos = (scaled - c) * grid
    node = np.floor(pos)
    weight = pos - node
    node = node.astype(np.intp)
    rest = 1.0 - weight
    table = family.phi_values

    def factor(i: int, t: int) -> np.ndarray:
        shifted = table[t * grid :]
        lo = shifted.take(node[i])  # the gather of shifted[node[i]], with less overhead
        lo *= rest[i]
        hi = shifted[1:].take(node[i])
        hi *= weight[i]
        lo += hi
        return lo

    later = [[factor(i, t) for t in range(family.support_width)] for i in range(1, d)]
    # moved[t][k] = (k + t) mod 2^top: bin c = k + t of a shift-t count goes to k
    moved = [(np.arange(size) + t) & (size - 1) for t in range(family.support_width)]
    sums = None
    for t0 in range(family.support_width):
        first = factor(0, t0)
        for rest_t in itertools.product(range(family.support_width), repeat=d - 1):
            weights = first
            for i, t in enumerate(rest_t):
                weights = weights * later[i][t]
            part = np.bincount(cell, weights=weights, minlength=bins).reshape(shape)
            for ax, t in enumerate((t0,) + rest_t, start=1):
                part = part.take(moved[t], axis=ax)
            if sums is None:
                sums = part
            else:
                sums += part
    return sums


# -- exact coefficients -----------------------------------------------------


def _father_cell_matrix(family: WaveletFamily, j: int, s: int) -> np.ndarray:
    """I[k, c] = integral over dyadic cell c (scale 2^-s) of the periodized
    father phi(2^j x - k), exact for the level-j piecewise-linear father
    (Haar: the indicator). Requires cell edges on its value grid."""
    w, m = family.support_width, family.cascade_depth
    if family.is_haar:

        def cum_at(u: np.ndarray) -> np.ndarray:
            return np.clip(u, 0.0, 1.0)

    else:
        if s > j + m:
            raise QuadratureFailure(f"cell scale 2^-{s} finer than the value grid at level {j}")
        cum = family.phi_cum

        def cum_at(u: np.ndarray) -> np.ndarray:
            idx = np.clip(u, 0.0, w) * 2**m
            ridx = np.rint(idx)
            if np.max(np.abs(idx - ridx)) > 1e-6:
                raise QuadratureFailure("cell edge does not land on the wavelet value grid")
            return cum[ridx.astype(np.int64)]

    edges = np.arange(2**s + 1) * 2.0 ** (j - s)
    if j >= s:
        # cell c is cell 0 moved by c 2^(j-s) translates, so column c is
        # column 0 rolled down that far: integrate column 0 alone
        edges = edges[:2]
    ks = np.arange(2**j)[:, None]
    out = np.zeros((2**j, edges.size - 1))
    t_lo = -1
    t_hi = int(math.ceil((w + 2**j) / 2**j))
    for t in range(t_lo, t_hi + 1):
        lo = edges[None, :-1] - ks + t * 2**j
        hi = edges[None, 1:] - ks + t * 2**j
        if np.all(hi <= 0.0) or np.all(lo >= w):
            continue
        out += cum_at(hi) - cum_at(lo)
    out *= 2.0**-j
    if j >= s:
        col = out[:, 0]
        out = np.empty((2**j, 2**s))
        for c in range(2**s):
            out[:, c] = np.roll(col, c * 2 ** (j - s))
    return out


def _separable_tree(values: np.ndarray, table: np.ndarray, family: WaveletFamily, j_max: int) -> CoefficientTree:
    """The tree, levels 0..j_max, of the density with cell values `values`,
    shape (R,)*D, from the father integrals table[r, k] of the R cells of
    one axis at level j_max + 1, shape (R, 2^(j_max+1)), which every axis
    shares.

    The table goes down the estimator's bank (`_bank_level`, the cells as
    trials) once per level, not once per axis, and is overwritten level by
    level, so one level is held at a time. Level j contracts the values
    with the father (bit 0) or mother (bit 1) integrals along each axis in
    axis order, one orientation at a time, and hands tensordot C-contiguous
    (2^j, R) operands: BLAS would round the products of a transposed view
    otherwise.
    """
    d = values.ndim
    tree = CoefficientTree(family, d, alpha=1.0)
    for j in range(j_max, -1, -1):
        table, details = _bank_level(table, family.taps)
        mats = (np.ascontiguousarray(table.T), np.ascontiguousarray(details[:, 0].T))
        lev = np.empty((2**d - 1,) + (2**j,) * d)
        for o, e in enumerate(orientations(d)):
            arr = values
            for ax in range(d):
                arr = np.tensordot(mats[e[ax]], arr, axes=([1], [ax]))
            # tensordot prepends the contracted axis: axes are reversed overall
            lev[o] = np.transpose(arr, axes=tuple(range(d - 1, -1, -1))) * 2.0 ** (d * j / 2.0)
        tree.set_level_array(j, lev)
    return tree


def _pwc_tree(model: PiecewiseConstant, family: WaveletFamily, j_max: int) -> CoefficientTree:
    s = model.scale_level
    if family.is_haar:
        # a Haar mother of level j >= s lies in one cell, where the model is
        # flat: its integral is exactly 0, and the bank from level s gives
        # the lower levels bit for bit as from any higher top
        j_max = min(j_max, s - 1)
    return _separable_tree(model.values, _father_cell_matrix(family, j_max + 1, s).T, family, j_max)


def exact_coeffs(model, family: WaveletFamily, j_max: int) -> CoefficientTree:
    """Coefficient tree of a density model for levels 0..j_max, in the
    filter-bank basis with top level j_max + 1.

    The exact father integrals of a piecewise-constant model's cells at
    level j_max + 1 (`_father_cell_matrix`) go down the estimator's bank
    and are assembled in one place (`_separable_tree`). Spike perturbations
    add their one Haar coefficient to the base's tree.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if isinstance(model, PiecewiseConstant):
        return _pwc_tree(model, family, j_max)
    if isinstance(model, SpikePerturbation):
        if model.family.name != family.name or model.family.cascade_depth != family.cascade_depth:
            raise IncompatibleTrees("spike wavelet family differs from the requested basis")
        base = _pwc_tree(model.base, family, j_max)
        j = model.index.j
        if j <= j_max:
            lev = base.level_array(j)
            lev = np.zeros(base._shape(j)) if lev is None else lev.copy()
            lev[_position(model.index, base.dim)] += model.coeff
            base.set_level_array(j, lev)
        return base
    raise TypeError(f"no exact coefficient rule for {type(model).__name__}")
