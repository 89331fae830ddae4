"""Tests for coefficient trees, density models, and coefficient computation.

Coefficients are those of the filter-bank basis, whose level j is read from
the value tables at depth m + J - j. Empirical coefficients are checked
against sample means of those tables, exact ones against a brute-force
quadrature oracle that integrates them with panels aligned to their value
grid, where Gauss-Legendre is exact.
"""

import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from besov_robust import coefficients
from besov_robust.besov import (
    BesovParams,
    besov_ipm,
    besov_norm,
    conjugate,
    in_ball,
    ipm_witness,
    pairing,
)
from besov_robust.coefficients import (
    PRUNE_TOL,
    CoefficientTree,
    PiecewiseConstant,
    SpikePerturbation,
    empirical_coeffs,
    exact_coeffs,
    level_bits,
    tree_axpy,
    uniform_density,
)
from besov_robust.contamination import sample_huber
from besov_robust.errors import (
    EmptySample,
    IncompatibleTrees,
    MalformedTree,
    OutOfDomain,
    QuadratureFailure,
)
from besov_robust.estimators import EstimatorConfig, estimate
from besov_robust.harness import benchmark_suite
from besov_robust.wavelets import WaveletIndex, eval_wavelet, orientations, wavelet_family

INF = math.inf
HAAR = wavelet_family("haar")
DB2 = wavelet_family("db2")
DB4 = wavelet_family("db4")
# shallow value tables make the oracles affordable; exactness claims are
# per-family, so the comparison is just as strict
DB2_S = wavelet_family("db2", cascade_depth=8)
DB2_XS = wavelet_family("db2", cascade_depth=7)


# A tree file as the dict-backed tree wrote it (levels sorted, insertion
# order within a level).
LEGACY_TREE_JSONL = """\
{"alpha": 1.0526315789473684, "cascade_depth": 14, "dim": 2, "family": "db2", "format": "besov-robust-tree", "version": 1}
{"e": [0, 1], "j": 0, "k": [0, 0], "v": 0.25}
{"e": [0, 1], "j": 1, "k": [1, 0], "v": -1.0000000000000002}
{"e": [0, 1], "j": 1, "k": [0, 1], "v": 7.0}
{"e": [1, 1], "j": 2, "k": [3, 1], "v": -0.0123456789012345}
{"e": [1, 0], "j": 2, "k": [0, 2], "v": 3.5e-07}
{"e": [0, 1], "j": 2, "k": [0, 2], "v": 2e-14}
"""


def deep_family(family, top, j):
    """The family whose value tables define level j of the filter-bank basis
    with top level `top`: the piecewise-linear interpolant at depth
    m + top - j, m the cascade depth of `family`."""
    return wavelet_family(family.name, family.cascade_depth + top - j)


def brute_coeffs_1d(model, family, indices, top, cap: int = 18) -> list[float]:
    """Quadrature oracle for coefficients of the filter-bank basis with top
    level `top`: GL-10 panels aligned to the value grid of their levels.
    Level j's tables have depth m + top - j, so every level's grid is the
    one of spacing 2^-(m + top), and its panels (at most 2^cap) serve all
    the indices: the density is evaluated on them once. Each daughter is
    summed over the panels that meet its support [k, k + W] 2^-j (mod 1),
    with one more panel on each side."""
    nseg = 2 ** min(family.cascade_depth + top, cap)
    gl_x, gl_w = leggauss(10)
    edges = np.linspace(0.0, 1.0, nseg + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = 0.5 / nseg
    pts = mid[:, None] + half * gl_x[None, :]
    wf = gl_w * half * model.pdf(pts.reshape(-1, 1)).reshape(nseg, -1)
    out = []
    for idx in indices:
        per = nseg / 2**idx.j  # panels per unit of 2^j x
        lo = math.floor(idx.k[0] * per) - 1
        hi = math.ceil((idx.k[0] + family.support_width) * per) + 1
        segs = np.arange(lo, hi + 1) % nseg if hi - lo < nseg else np.arange(nseg)
        psi = eval_wavelet(deep_family(family, top, idx.j), idx, pts[segs].reshape(-1, 1))
        out.append(float(np.sum(wf[segs].ravel() * psi)))
    return out


def brute_coeff_2d(model, family, index, top) -> float:
    """Tensor GL oracle on the value grid of the level's tables (see
    `brute_coeffs_1d`); fine enough for shallow tables."""
    family = deep_family(family, top, index.j)
    nseg = 2 ** min(family.cascade_depth + index.j, 9)
    gl_x, gl_w = leggauss(3)
    edges = np.linspace(0.0, 1.0, nseg + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = 0.5 / nseg
    axis_pts = (mid[:, None] + half * gl_x[None, :]).ravel()
    axis_wts = np.tile(gl_w * half, nseg)
    xx, yy = np.meshgrid(axis_pts, axis_pts, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    w2 = np.outer(axis_wts, axis_wts).ravel()
    f = model.pdf(pts)
    psi = eval_wavelet(family, index, pts)
    return float(np.sum(w2 * f * psi))


def random_pwc(rng, scale, dim):
    vals = rng.uniform(0.2, 2.0, size=(2**scale,) * dim)
    vals = vals / vals.mean()
    return PiecewiseConstant(vals, scale)


def assert_levels_bitwise_equal(got, want):
    """Same stored levels, and every level array equal bit for bit."""
    assert got.levels() == want.levels()
    for j in want.levels():
        a, b = got.level_array(j), want.level_array(j)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_blocks_identical(got, want):
    """Two blocks of the same trials, alpha and levels equal bit for bit."""
    assert got.trials == want.trials
    assert np.array_equal(got.alpha, want.alpha)
    assert_levels_bitwise_equal(got, want)


def random_tree(rng, family, dim, j_max, n_coeffs=8):
    tree = CoefficientTree(family, dim, alpha=float(rng.normal()))
    es = list(orientations(dim))
    for _ in range(n_coeffs):
        j = int(rng.integers(0, j_max + 1))
        k = tuple(int(rng.integers(0, 2**j)) for _ in range(dim))
        e = es[int(rng.integers(len(es)))]
        tree.set(WaveletIndex(j, k, e), float(rng.normal()))
    return tree


# v texts for edited records: JSON ones in and out of the bulk form, and
# spellings that are not JSON at all
ODD_VALUES = [
    "NaN", "Infinity", "-Infinity", "1e-300", "-0.0", "5e-324", "1", "1E5", "0.75",
    "true", "01.5", "nan", "-inf", "+0.5",
]


@st.composite
def tree_strategy(draw):
    """A small single tree of D = 1, 2 or 3 whose values and alpha may be any
    float: NaN, infinities and subnormals (which are stored as absent) too.
    A NaN is the one that JSON's NaN reads back as."""
    floats = st.floats(allow_nan=False) | st.just(math.nan)
    dim = draw(st.sampled_from([1, 2, 3]))
    tree = CoefficientTree(HAAR, dim, alpha=draw(floats))
    es = list(orientations(dim))
    for _ in range(draw(st.integers(0, 12))):
        j = draw(st.integers(0, 3))
        k = tuple(draw(st.integers(0, 2**j - 1)) for _ in range(dim))
        tree.set(WaveletIndex(j, k, draw(st.sampled_from(es))), draw(floats))
    return tree


def _edit_one(records, data, edit):
    """records with one drawn record line replaced by edit(line)."""
    if not records:
        return records
    i = data.draw(st.integers(0, len(records) - 1))
    return records[:i] + [edit(records[i])] + records[i + 1 :]


def _shuffle(records, data):
    return data.draw(st.permutations(records))


def _with_value(data):
    """An edit that writes one of ODD_VALUES as a line's v."""
    odd = data.draw(st.sampled_from(ODD_VALUES))
    return lambda line: re.sub(r'"v": [^}]*', '"v": ' + odd, line)


def _repeat(records, data):
    """One record again at the end, with another value: a repeated index."""
    if not records:
        return records
    return records + [_with_value(data)(data.draw(st.sampled_from(records)))]


def _value(records, data):
    return _edit_one(records, data, _with_value(data))


def _space(records, data):
    """One more space after a comma or a colon, or inside the braces."""
    spot = data.draw(st.sampled_from([", ", ": ", "{", "}"]))
    spaced = {", ": ",  ", ": ": ":  ", "{": "{ ", "}": " }"}[spot]
    return _edit_one(records, data, lambda line: line.replace(spot, spaced, 1))


def _key_order(records, data):
    """One record with its keys in reverse order, if it still parses."""

    def edit(line):
        try:
            return json.dumps(dict(reversed(json.loads(line).items())))
        except ValueError:
            return line

    return _edit_one(records, data, edit)


def _int_field(records, data):
    """One int of e, j or k written as N.0, 0N, true or false."""
    field = data.draw(st.sampled_from(['"e": [', '"j": ', '"k": [']))
    form = data.draw(st.sampled_from(["{}.0", "0{}", "true", "false"]))

    def edit(line):
        head, sep, tail = line.partition(field)
        digits = re.match(r"[0-9]+", tail)
        if digits is None:
            return line
        return head + sep + form.format(digits.group()) + tail[digits.end() :]

    return _edit_one(records, data, edit)


def _blank(records, data):
    i = data.draw(st.integers(0, len(records)))
    return records[:i] + [data.draw(st.sampled_from(["", " ", "\t"]))] + records[i:]


# Line edits of a written tree file: each keeps or breaks the form
# `to_jsonl` writes, and `reference_tree` is the reference either way.
RECORD_MUTATIONS = {
    f.__name__[1:]: f for f in (_shuffle, _repeat, _value, _space, _key_order, _int_field, _blank)
}


def load_or_error(text):
    """The tree `from_jsonl` reads from text, or its MalformedTree message."""
    try:
        return CoefficientTree.from_jsonl(io.StringIO(text))
    except MalformedTree as err:
        return str(err)


def reference_tree(text):
    """A tree file read by `json.loads` into a dict, or its first bad record
    line: each record gets the checks of `set` (no booleans, integer j and
    k, an orientation, k in range, jD < 63 and a number v), the last record
    of an index wins, and values below PRUNE_TOL are absent."""
    header, *records = [ln for ln in text.splitlines() if ln.strip()]
    head = json.loads(header)
    dim, orients = head["dim"], list(orientations(head["dim"]))
    coeffs = {}
    for line in records:
        try:
            rec = json.loads(line)
            e, j, k, v = tuple(rec["e"]), rec["j"], tuple(rec["k"]), rec["v"]
            v = float(v) if isinstance(v, (int, float)) else None
        except (ValueError, KeyError, TypeError, OverflowError):
            return line
        ints = (j, *k, *e)
        if (
            any(isinstance(x, bool) for x in (*ints, rec["v"])) or v is None
            or not all(isinstance(x, int) for x in ints) or e not in orients
            or len(k) != dim or not 0 <= j < 63 / dim or not all(0 <= x < 2**j for x in k)
        ):
            return line
        coeffs[j, orients.index(e), k] = v
    tree = CoefficientTree(wavelet_family(head["family"], head["cascade_depth"]), dim, alpha=head["alpha"])
    for j in sorted({j for j, _, _ in coeffs}):
        lev = np.zeros((len(orients),) + (2**j,) * dim)
        for (jj, o, k), v in coeffs.items():
            if jj == j and not abs(v) < PRUNE_TOL:
                lev[(o,) + k] = v
        tree.set_level_array(j, lev)
    return tree


def bulk_only():
    """Patch `set` to raise, so that a file loads only if the reader never
    calls it."""

    def refuse(*args):
        raise AssertionError("the reader called `set`")

    return mock.patch.object(CoefficientTree, "set", refuse)


def assert_same_tree(got, want):
    """Same dimension, alpha and stored levels, all bit for bit."""
    assert got.dim == want.dim
    assert np.float64(got.alpha).view(np.int64) == np.float64(want.alpha).view(np.int64)
    assert_levels_bitwise_equal(got, want)


class TestTreeBasics:
    def test_set_get_prune(self):
        tree = CoefficientTree(HAAR, 1)
        idx = WaveletIndex(2, (1,), (1,))
        tree.set(idx, 0.5)
        assert tree.get(idx) == 0.5
        assert tree.n_coefficients == 1
        tree.set(idx, 1e-15)  # below the prune threshold: stored as absent
        assert tree.get(idx) == 0.0
        assert tree.n_coefficients == 0
        assert tree.levels() == []

    def test_set_validates_index(self):
        tree = CoefficientTree(HAAR, 2)
        with pytest.raises(ValueError):
            tree.set(WaveletIndex(1, (0,), (1,)), 1.0)  # wrong dimension
        with pytest.raises(ValueError):
            tree.set(WaveletIndex(1, (0, 2), (1, 1)), 1.0)  # translate too big
        with pytest.raises(ValueError):
            tree.set(WaveletIndex(1, (0, 0), (0, 0)), 1.0)  # zero orientation
        with pytest.raises(ValueError):
            tree.set(WaveletIndex(-1, (0, 0), (1, 1)), 1.0)
        with pytest.raises(ValueError):
            tree.set(WaveletIndex(1, (0, 0.5), (1, 1)), 1.0)  # not an integer translate
        assert tree.levels() == []

    def test_set_level_matches_set_loop(self):
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(4, 4))
        arr[0, 1] = 1e-15  # pruned
        arr[2, 3] = 0.0
        bulk = CoefficientTree(HAAR, 2)
        looped = CoefficientTree(HAAR, 2)
        bulk.set_level_array(2, [arr] * 3)
        for e in orientations(2):
            for k in itertools.product(range(4), repeat=2):
                looped.set(WaveletIndex(2, k, e), float(arr[k]))
        assert list(bulk.items()) == list(looped.items())
        assert_levels_bitwise_equal(bulk, looped)
        assert bulk.n_coefficients == 3 * 14

    def test_set_level_overwrites_and_prunes(self):
        tree = CoefficientTree(HAAR, 1)
        tree.set_level_array(1, [[0.5, 0.25]])
        tree.set_level_array(1, [[PRUNE_TOL / 2, 0.75]])
        assert list(tree.items()) == [(WaveletIndex(1, (1,), (1,)), 0.75)]
        tree.set_level_array(1, [[0.0, 0.0]])
        assert tree.levels() == []

    def test_set_level_validates_shape(self):
        tree = CoefficientTree(HAAR, 2)
        with pytest.raises(ValueError):
            tree.set_level_array(1, np.ones((3, 4)))  # flat, not (3, 2, 2)
        with pytest.raises(ValueError):
            tree.set_level_array(1, np.ones((4, 2, 2)))  # the zero orientation too
        with pytest.raises(ValueError):
            tree.set_level_array(-1, np.ones((3, 1, 1)))
        assert tree.levels() == []

    def test_items_sorted_and_level_values(self):
        rng = np.random.default_rng(5)
        tree = random_tree(rng, HAAR, 1, j_max=4, n_coeffs=12)
        js = [idx.j for idx, _ in tree.items()]
        assert js == sorted(js)
        j = tree.levels()[0]
        assert np.count_nonzero(tree.level_array(j)) == sum(1 for idx, _ in tree.items() if idx.j == j)
        assert tree.level_array(99) is None

    def test_copy_is_deep(self):
        tree = CoefficientTree(HAAR, 1, alpha=1.0)
        tree.set(WaveletIndex(0, (0,), (1,)), 2.0)
        dup = tree.copy()
        dup.set(WaveletIndex(0, (0,), (1,)), 3.0)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == 2.0

    def test_check_compatible(self):
        a = CoefficientTree(HAAR, 1)
        with pytest.raises(IncompatibleTrees):
            a.check_compatible(CoefficientTree(DB2, 1))
        with pytest.raises(IncompatibleTrees):
            a.check_compatible(CoefficientTree(HAAR, 2))
        with pytest.raises(IncompatibleTrees):
            a.check_compatible(CoefficientTree(wavelet_family("db2", cascade_depth=8), 1))

    def test_axpy(self):
        x = CoefficientTree(HAAR, 1, alpha=1.0)
        y = CoefficientTree(HAAR, 1, alpha=0.5)
        i0, i1 = WaveletIndex(1, (0,), (1,)), WaveletIndex(1, (1,), (1,))
        x.set(i0, 2.0)
        x.set(i1, 1.0)
        y.set(i0, -1.0)
        out = tree_axpy(0.5, x, y)
        assert out.alpha == 1.0
        assert out.get(i0) == 0.0  # exact cancellation prunes the entry
        assert out.get(i1) == 0.5
        assert out.n_coefficients == 1
        with pytest.raises(IncompatibleTrees, match=r"^\(haar@14, D=1\) vs \(db2@14, D=1\)$"):
            tree_axpy(1.0, x, CoefficientTree(DB2, 1))

    def test_ipm_names_its_second_tree_first(self):
        # tree_axpy(a, x, y) names x first (above), besov_ipm(t1, t2) names t2 first
        x, y = CoefficientTree(HAAR, 1, alpha=1.0), CoefficientTree(DB2, 1, alpha=1.0)
        with pytest.raises(IncompatibleTrees, match=r"^\(db2@14, D=1\) vs \(haar@14, D=1\)$"):
            besov_ipm(x, y, BesovParams(1.0, 2.0, 2.0))

    def test_axpy_keeps_y_alone_levels_as_copies(self):
        # a level stored in y only is copied into the sum, not shared
        x = CoefficientTree(HAAR, 1, alpha=1.0)
        y = CoefficientTree(HAAR, 1, alpha=0.5)
        x.set(WaveletIndex(0, (0,), (1,)), 2.0)
        y.set(WaveletIndex(1, (1,), (1,)), 0.25)
        out = tree_axpy(-1.0, x, y)
        assert out.levels() == [0, 1]
        assert out.get(WaveletIndex(0, (0,), (1,))) == -2.0
        assert not np.shares_memory(out.level_array(1), y.level_array(1))
        out.level_array(1)[...] = 0.0
        assert y.get(WaveletIndex(1, (1,), (1,))) == 0.25

    def test_evaluate_reconstructs_flat_density(self):
        # a complete Haar tree at the grid scale reproduces the density
        rng = np.random.default_rng(11)
        model = random_pwc(rng, scale=2, dim=1)
        tree = exact_coeffs(model, HAAR, j_max=1)
        pts = (np.arange(4) + 0.5) / 4.0
        np.testing.assert_allclose(tree.evaluate(pts[:, None]), model.pdf(pts[:, None]), atol=1e-12)

    def test_evaluate_reconstructs_2d(self):
        rng = np.random.default_rng(12)
        model = random_pwc(rng, scale=1, dim=2)
        tree = exact_coeffs(model, HAAR, j_max=0)
        g = (np.arange(2) + 0.5) / 2.0
        pts = np.array([[a, b] for a in g for b in g])
        np.testing.assert_allclose(tree.evaluate(pts), model.pdf(pts), atol=1e-12)


    @pytest.mark.parametrize("name", ["haar", "db2", "db3"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_evaluate_matches_per_coefficient_synthesis(self, name, dim):
        # the whole-level synthesis against a sum of single daughters, with
        # low levels where the support wraps the torus more than once
        fam = wavelet_family(name)
        rng = np.random.default_rng(19 + dim)
        tree = random_tree(rng, fam, dim, j_max=4, n_coeffs=25)
        pts = rng.random((50, dim))
        pts[:3] = [[0.0] * dim, [1.0] * dim, [1.0 - 2.0**-53] * dim]
        want = np.full(pts.shape[0], tree.alpha)
        for idx, v in tree.items():
            want += v * eval_wavelet(fam, idx, pts)
        np.testing.assert_allclose(tree.evaluate(pts), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_evaluate_refuses_non_finite_points(self, bad):
        # the one coordinate rule: no non-finite point ends as the tree's alpha
        tree = exact_coeffs(random_pwc(np.random.default_rng(13), scale=2, dim=1), wavelet_family("db3"), 2)
        for pts in (np.array([[0.25], [bad]]), np.array([bad])):
            with pytest.raises(OutOfDomain, match="points contain non-finite values"):
                tree.evaluate(pts)


class TestSerialization:
    def test_round_trip_values(self):
        rng = np.random.default_rng(3)
        tree = random_tree(rng, DB2, 2, j_max=3, n_coeffs=10)
        buf = io.StringIO()
        tree.to_jsonl(buf)
        back = CoefficientTree.from_jsonl(io.StringIO(buf.getvalue()))
        assert back.alpha == tree.alpha
        assert back.dim == tree.dim
        assert back.family.name == tree.family.name
        for idx, v in tree.items():
            assert back.get(idx) == v
        assert back.n_coefficients == tree.n_coefficients

    def test_reserialization_is_byte_identical(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, HAAR, 1, j_max=5, n_coeffs=20)
        a = io.StringIO()
        tree.to_jsonl(a)
        b = io.StringIO()
        CoefficientTree.from_jsonl(io.StringIO(a.getvalue())).to_jsonl(b)
        assert a.getvalue() == b.getvalue()

    def test_file_path_round_trip(self, tmp_path):
        tree = CoefficientTree(HAAR, 1, alpha=1.0)
        tree.set(WaveletIndex(3, (5,), (1,)), -0.25)
        path = tmp_path / "tree.jsonl"
        tree.to_jsonl(path)
        back = CoefficientTree.from_jsonl(path)
        assert back.get(WaveletIndex(3, (5,), (1,))) == -0.25

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            CoefficientTree.from_jsonl(io.StringIO('{"format": "something-else"}\n'))
        with pytest.raises(ValueError):
            CoefficientTree.from_jsonl(io.StringIO(""))

    @pytest.mark.parametrize("drop", ["e", "j", "k", "v"])
    def test_record_missing_field_is_typed_error(self, drop):
        buf = io.StringIO()
        tree = CoefficientTree(HAAR, 1, alpha=1.0)
        tree.set(WaveletIndex(1, (1,), (1,)), 0.5)
        tree.to_jsonl(buf)
        header, rec = buf.getvalue().splitlines()
        rec = json.loads(rec)
        del rec[drop]
        with pytest.raises(MalformedTree, match=drop):
            CoefficientTree.from_jsonl(io.StringIO(header + "\n" + json.dumps(rec) + "\n"))

    def test_header_missing_field_is_typed_error(self):
        text = json.dumps({"format": "besov-robust-tree", "version": 1, "dim": 1, "alpha": 1.0})
        with pytest.raises(MalformedTree, match="family"):
            CoefficientTree.from_jsonl(io.StringIO(text + "\n"))

    def test_round_trip_bitwise_2d_with_pruned_entries(self):
        rng = np.random.default_rng(6)
        tree = random_tree(rng, DB2, 2, j_max=4, n_coeffs=40)
        tree.set(WaveletIndex(3, (2, 5), (1, 1)), PRUNE_TOL / 3)  # stored as absent
        tree.set(WaveletIndex(4, (9, 9), (0, 1)), 1e-300)  # tiny but absent too
        tree.set(WaveletIndex(2, (1, 1), (1, 0)), 3.5e-07)
        buf = io.StringIO()
        tree.to_jsonl(buf)
        back = CoefficientTree.from_jsonl(io.StringIO(buf.getvalue()))
        assert back.alpha == tree.alpha
        assert list(back.items()) == list(tree.items())
        assert_levels_bitwise_equal(back, tree)
        # one line per stored coefficient, each exactly as json.dumps writes it
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1 + tree.n_coefficients
        for line, (idx, v) in zip(lines[1:], tree.items()):
            rec = {"e": list(idx.e), "j": idx.j, "k": list(idx.k), "v": v}
            assert line == json.dumps(rec, sort_keys=True)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_items_and_to_jsonl_share_one_entry_order(self, dim):
        rng = np.random.default_rng(60 + dim)
        es = list(orientations(dim))
        for _ in range(5):
            tree = random_tree(rng, HAAR, dim, j_max=3, n_coeffs=30)
            buf = io.StringIO()
            tree.to_jsonl(buf)
            records = [json.loads(line) for line in buf.getvalue().splitlines()[1:]]
            items = list(tree.items())
            assert [(WaveletIndex(r["j"], tuple(r["k"]), tuple(r["e"])), r["v"]) for r in records] == items
            keys = [(idx.j, es.index(idx.e), idx.k) for idx, _ in items]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_loads_file_in_the_original_format(self):
        # written by the dict-backed tree, which kept insertion order within
        # a level; the reload stores the same values and writes (j, e, k) order
        tree = CoefficientTree.from_jsonl(io.StringIO(LEGACY_TREE_JSONL))
        assert tree.family.name == "db2" and tree.dim == 2
        assert tree.alpha == 1.0526315789473684
        got = {idx: v for idx, v in tree.items()}
        assert got == {
            WaveletIndex(0, (0, 0), (0, 1)): 0.25,
            WaveletIndex(1, (1, 0), (0, 1)): -1.0000000000000002,
            WaveletIndex(1, (0, 1), (0, 1)): 7.0,
            WaveletIndex(2, (3, 1), (1, 1)): -0.0123456789012345,
            WaveletIndex(2, (0, 2), (1, 0)): 3.5e-07,
            WaveletIndex(2, (0, 2), (0, 1)): 2e-14,
        }
        buf = io.StringIO()
        tree.to_jsonl(buf)
        header, *records = LEGACY_TREE_JSONL.splitlines()
        records.sort(key=lambda ln: (json.loads(ln)["j"], json.loads(ln)["e"], json.loads(ln)["k"]))
        assert buf.getvalue() == "\n".join([header] + records) + "\n"

    def test_repeated_and_pruning_records_apply_in_file_order(self):
        header = LEGACY_TREE_JSONL.splitlines()[0]
        recs = [
            '{"e": [1, 1], "j": 1, "k": [0, 1], "v": 0.5}',
            '{"e": [1, 1], "j": 1, "k": [0, 1], "v": 0.75}',
            '{"e": [0, 1], "j": 2, "k": [3, 3], "v": 0.125}',
            '{"e": [0, 1], "j": 2, "k": [3, 3], "v": 0.0}',
        ]
        tree = CoefficientTree.from_jsonl(io.StringIO("\n".join([header] + recs) + "\n"))
        assert list(tree.items()) == [(WaveletIndex(1, (0, 1), (1, 1)), 0.75)]
        assert tree.levels() == [1]

    @pytest.mark.parametrize(
        "record, match",
        [
            ('{"e": [1, 1], "j": 1, "k": [0, 1], "v": "0.5"}', "bad record"),
            ('{"e": [1, 1], "j": 1, "k": [0, 2], "v": 0.5}', "translate out of range"),
            ('{"e": [1, 1], "j": 1, "k": [0, 0.5], "v": 0.5}', "translate out of range"),
            ('{"e": [0, 0], "j": 1, "k": [0, 1], "v": 0.5}', "bad"),
            ('{"e": [1.0, 1], "j": 1, "k": [0, 1], "v": 0.5}', "bad index"),
            ('{"e": [1, 1], "j": 1, "k": [0], "v": 0.5}', "bad"),
            ('{"e": [1, 1], "j": 1, "k": [0, 1], "v": 0.5', "bad record"),
        ],
    )
    def test_bad_record_names_the_line(self, record, match):
        header = LEGACY_TREE_JSONL.splitlines()[0]
        good = '{"e": [0, 1], "j": 0, "k": [0, 0], "v": 0.25}'
        text = "\n".join([header, good, record, good]) + "\n"
        with pytest.raises(MalformedTree, match=match) as info:
            CoefficientTree.from_jsonl(io.StringIO(text))
        assert record[:40] in str(info.value)

    @pytest.mark.parametrize(
        "record",
        [
            '{"e": [1], "j": 1, "k": [true], "v": 0.5}',
            '{"e": [1], "j": true, "k": [0], "v": 0.5}',
            '{"e": [true], "j": 1, "k": [0], "v": 0.5}',
            '{"e": [1], "j": 1, "k": [0], "v": false}',
        ],
        ids=["k", "j", "e", "v"],
    )
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "among-good"])
    def test_json_boolean_names_the_line(self, record, alone):
        # a bool is an int to Python and a mask to numpy: read as a number
        # it made a level keyed True, or set a whole row of a level
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": 1, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        good = '{"e": [1], "j": 2, "k": [3], "v": 0.25}'
        lines = [header, record] if alone else [header, good, record, good]
        with pytest.raises(MalformedTree, match="boolean") as info:
            CoefficientTree.from_jsonl(io.StringIO("\n".join(lines) + "\n"))
        assert record[:40] in str(info.value)

    def test_set_rejects_bool_level_and_translate(self):
        tree = CoefficientTree(HAAR, 2)
        for index in (
            WaveletIndex(True, (0, 1), (1, 1)),
            WaveletIndex(1, (True, 0), (1, 1)),
            WaveletIndex(1, (0, np.True_), (1, 1)),
            WaveletIndex(1.0, (0, 1), (1, 1)),
            WaveletIndex(1, (0, 1), (True, 1)),
            WaveletIndex(1, (0, 1), (1.0, 1)),
        ):
            with pytest.raises(ValueError):
                tree.set(index, 0.5)
        assert tree.levels() == []

    @pytest.mark.parametrize(
        "key,value",
        [("version", True), ("cascade_depth", True), ("dim", True), ("alpha", True),
         ("version", 1.0), ("cascade_depth", 3.5), ("dim", 2.5), ("alpha", "1"), ("dim", 10**30)],
    )
    def test_header_field_of_wrong_type_names_the_header(self, key, value):
        # true passed as 1 (a D=1 tree, a depth-1 family, version 1, alpha
        # 1), 2.5 as dimension 2 and "1" as alpha 1.0; 10^30 overflowed
        fields = {"alpha": 1.0, "cascade_depth": 14, "dim": 1, "family": "haar",
                  "format": "besov-robust-tree", "version": 1}
        header = json.dumps(dict(fields, **{key: value}), sort_keys=True)
        text = header + '\n{"e": [1], "j": 2, "k": [3], "v": 0.25}\n'
        with pytest.raises(MalformedTree) as info:
            CoefficientTree.from_jsonl(io.StringIO(text))
        assert header[:60] in str(info.value)

    ABSURD_RECORDS = {
        # a level of 2^40 floats, past MAX_ENTRIES
        "unholdable-level": '{"e": [1], "j": 40, "k": [5], "v": 0.5}',
        # an int beyond the float range: an OverflowError from the store
        "huge-int-value": '{"e": [1], "j": 1, "k": [1], "v": ' + "9" * 401 + "}",
        # 2^j alone took seconds before the level was refused
        "unindexable-level": '{"e": [1], "j": 100000000, "k": [5], "v": 0.5}',
        "unindexable-level-int-value": '{"e": [1], "j": 100000000, "k": [5], "v": 5}',
    }

    @pytest.mark.parametrize("record", sorted(ABSURD_RECORDS))
    @pytest.mark.parametrize("path", ["bulk", "replay"])
    def test_absurd_record_names_the_line(self, record, path):
        # "bulk" puts the record among lines in the writer's form, "replay"
        # after a line in another form, which sends the file to `set`
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": 1, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        good = '{"e": [1], "j": 2, "k": [3], "v": 0.25}'
        first = good if path == "bulk" else '{"v": 0.25, "k": [3], "j": 2, "e": [1]}'
        line = self.ABSURD_RECORDS[record]
        start = time.perf_counter()
        with pytest.raises(MalformedTree) as info:
            CoefficientTree.from_jsonl(io.StringIO("\n".join([header, first, line, good]) + "\n"))
        assert time.perf_counter() - start < 0.5
        assert line[:40] in str(info.value)

    @pytest.mark.parametrize("dim,j", [(13, 1), (1, 25), (2, 12)])
    def test_level_over_the_entry_cap_refused_under_memory_cap(self, tmp_path, dim, j):
        # a dim-13 header and one level-1 record (221 bytes) loaded in 0.75 s
        # at a 542 MB peak; D = 1 at j = 25 and D = 2 at j = 12 are the first
        # levels past MAX_ENTRIES = 2^24 entries
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": dim, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        record = json.dumps({"e": [0] * (dim - 1) + [1], "j": j, "k": [0] * dim, "v": 0.5}, sort_keys=True)
        path = tmp_path / "t.jsonl"
        path.write_text(header + "\n" + record + "\n")
        code = (
            "import resource, sys, time; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from besov_robust.coefficients import CoefficientTree; from besov_robust.errors import MalformedTree\n"
            "t = time.perf_counter()\n"
            "try:\n    CoefficientTree.from_jsonl(sys.argv[1])\n"
            "except MalformedTree as err:\n    print(time.perf_counter() - t); print(err)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coefficients.__file__)))
        res = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env)
        assert res.returncode == 0 and res.stderr == ""
        seconds, message = res.stdout.splitlines()
        assert float(seconds) < 1.0
        assert "over the cap of 16777216" in message and record[:40] in message

    def test_level_bits_counts_the_level_entries(self):
        for dim in (1, 2, 3, 16):
            for j in range(4):
                assert 2 ** level_bits(j, dim) == pytest.approx(((1 << dim) - 1) << (j * dim), rel=1e-12)

    def test_pruned_records_allocate_no_level(self):
        # as with `set`, values stored as absent allocate nothing, even in a
        # level of 2^40 floats, past MAX_ENTRIES
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": 1, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        records = ['{"e": [1], "j": 40, "k": [5], "v": 1e-15}', '{"e": [1], "j": 40, "k": [5], "v": 0}']
        tree = CoefficientTree.from_jsonl(io.StringIO("\n".join([header] + records) + "\n"))
        assert tree.levels() == [] and tree.alpha == 1.0

    @pytest.mark.parametrize("dim", [18, 20, 30, 40])
    def test_header_dim_above_the_cap_names_the_header(self, dim):
        # a tree builds its 2^dim - 1 orientations before it reads a record:
        # 0.33 s and 99 MB at dim 18, and memory runs out near dim 30
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": dim, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        start = time.perf_counter()
        with mock.patch.object(coefficients, "orientations", side_effect=AssertionError("orientations built")):
            with pytest.raises(MalformedTree, match="at most 16") as info:
                CoefficientTree.from_jsonl(io.StringIO(header + "\n"))
        assert time.perf_counter() - start < 0.5
        assert header[:60] in str(info.value)

    def test_header_dim_at_the_cap_loads(self):
        header = json.dumps(
            {"alpha": 1.0, "cascade_depth": 14, "dim": 16, "family": "haar",
             "format": "besov-robust-tree", "version": 1}, sort_keys=True,
        )
        record = json.dumps({"e": [0] * 15 + [1], "j": 0, "k": [0] * 16, "v": 0.5}, sort_keys=True)
        tree = CoefficientTree.from_jsonl(io.StringIO(header + "\n" + record + "\n"))
        assert list(tree.items()) == [(WaveletIndex(0, (0,) * 16, (0,) * 15 + (1,)), 0.5)]

    def test_level_bound_is_checked_per_dimension(self):
        # a level has 2^(jD) translates per orientation: jD = 63 is refused
        # before 2^j is computed, for D = 3 at j = 21 as for D = 1 at j = 63
        with pytest.raises(ValueError, match="too large to index"):
            CoefficientTree(HAAR, 3).set(WaveletIndex(21, (0, 0, 0), (1, 1, 1)), 0.5)
        with pytest.raises(ValueError, match="too large to index"):
            CoefficientTree(HAAR, 1).set(WaveletIndex(63, (0,), (1,)), 0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lines_are_json_dumps_with_non_finite_values(self, dim):
        # NaN and infinities are written as json.dumps writes them; a
        # subnormal alpha keeps its digits, a subnormal entry is absent
        tree = CoefficientTree(DB2, dim, alpha=5e-324)
        es = list(orientations(dim))
        values = [math.nan, INF, -INF, 5e-324, -2.2250738585072014e-308, 1e300, -0.1, 1e-14]
        for i, v in enumerate(values):
            tree.set(WaveletIndex(3, tuple((i + a) % 8 for a in range(dim)), es[i % len(es)]), v)
        buf = io.StringIO()
        tree.to_jsonl(buf)
        header, *lines = buf.getvalue().splitlines()
        assert json.loads(header)["alpha"] == 5e-324 and '"alpha": 5e-324' in header
        assert len(lines) == tree.n_coefficients == len(values) - 2
        for line, (idx, v) in zip(lines, tree.items()):
            rec = {"e": list(idx.e), "j": idx.j, "k": list(idx.k), "v": v}
            assert line == json.dumps(rec, sort_keys=True)
        assert {"NaN", "Infinity", "-Infinity"} <= {ln.rsplit(" ", 1)[1][:-1] for ln in lines}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_written_files_load_in_bulk(self, data):
        tree = data.draw(tree_strategy())
        buf = io.StringIO()
        tree.to_jsonl(buf)

        with bulk_only():
            back = CoefficientTree.from_jsonl(io.StringIO(buf.getvalue()))
        assert_same_tree(back, tree)

    def test_bulk_read_spans_chunks_in_any_order(self):
        # a dense D=2 tree over several chunks of _PARSE_ROWS lines, shuffled,
        # with repeats of early records at the end: the reader must build the
        # tree of the dict reference, without a call of `set`
        rng = np.random.default_rng(14)
        tree = CoefficientTree(DB2, 2, alpha=1.0)
        for j in range(6):
            tree.set_level_array(j, rng.normal(size=(3, 2**j, 2**j)))
        buf = io.StringIO()
        tree.to_jsonl(buf)
        header, *records = buf.getvalue().splitlines()
        assert len(records) > coefficients._PARSE_ROWS
        records = [records[i] for i in rng.permutation(len(records))]
        records += [re.sub(r'"v": [^}]*', f'"v": {0.5 * i}', records[i]) for i in range(0, 3000, 7)]
        text = "\n".join([header] + records) + "\n"

        with bulk_only():
            got = CoefficientTree.from_jsonl(io.StringIO(text))
        assert_same_tree(got, reference_tree(text))
        rec = json.loads(records[7])
        assert got.get(WaveletIndex(rec["j"], tuple(rec["k"]), tuple(rec["e"]))) == 3.5
        assert got.n_coefficients == tree.n_coefficients - 1  # record 0 now holds 0.0

    def test_reader_never_calls_set(self):
        # the legacy file, and a written one shuffled, with its keys in
        # another order and CRLF line ends: neither is in the writer's form
        with bulk_only():
            legacy = CoefficientTree.from_jsonl(io.StringIO(LEGACY_TREE_JSONL))
        assert_same_tree(legacy, reference_tree(LEGACY_TREE_JSONL))
        rng = np.random.default_rng(16)
        tree = random_tree(rng, HAAR, 3, j_max=3, n_coeffs=60)
        buf = io.StringIO()
        tree.to_jsonl(buf)
        header, *records = buf.getvalue().splitlines()
        records = [json.dumps(dict(reversed(json.loads(records[i]).items()))) for i in rng.permutation(len(records))]
        text = "\r\n".join([header] + records) + "\r\n"
        with bulk_only():
            got = CoefficientTree.from_jsonl(io.StringIO(text))
        assert_same_tree(got, tree)
        assert_same_tree(got, reference_tree(text))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_reader_agrees_with_dict_reference(self, data):
        tree = data.draw(tree_strategy())
        buf = io.StringIO()
        tree.to_jsonl(buf)
        header, *records = buf.getvalue().splitlines()
        for _ in range(data.draw(st.integers(0, 3))):
            mutate = data.draw(st.sampled_from(sorted(RECORD_MUTATIONS)))
            records = RECORD_MUTATIONS[mutate](records, data)
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join([header] + records) + end
        with bulk_only():
            got = load_or_error(text)
        want = reference_tree(text)
        if isinstance(want, str):  # the message names the first bad record
            assert isinstance(got, str) and want[:80] in got
        else:
            assert_same_tree(got, want)


class TestDensityModels:
    def test_pwc_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant(np.array([1.0, -0.5]) + 0.75, 0)  # shape vs scale
        with pytest.raises(ValueError):
            PiecewiseConstant(np.array([-1.0, 3.0]), 1)
        with pytest.raises(ValueError):
            PiecewiseConstant(np.array([1.0, 2.0]), 1)  # mean is 1.5
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PiecewiseConstant(np.array([bad, 1.0]), 1)

    def test_pwc_huge_scale_rejected_at_once(self):
        # the shape check reads s off the side length and never builds 2**s,
        # which took seconds at s = 10**9 and did not finish at s = 10**300
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"values shape \(2,\) does not match scale 2\^"):
            PiecewiseConstant(np.full(2, 1.0), 10**9)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("shape", [(0,), (1,), (2,), (3,), (4,), (6,), (8,), (2, 2), (2, 4), (4, 4), (8, 8, 8)])
    @pytest.mark.parametrize("scale", [0, 1, 2, 3])
    def test_pwc_shape_matches_scale_exactly_when_sides_are_two_to_the_s(self, shape, scale):
        values = np.ones(shape)
        if shape == (2**scale,) * len(shape):
            assert PiecewiseConstant(values, scale).dim == len(shape)
        else:
            with pytest.raises(ValueError, match="does not match scale"):
                PiecewiseConstant(values, scale)

    def test_pwc_pdf_lookup(self):
        model = PiecewiseConstant(np.array([0.5, 1.5]), 1)
        np.testing.assert_allclose(
            model.pdf(np.array([[0.1], [0.6], [0.5]])), [0.5, 1.5, 1.5]
        )
        # the torus fold sends 1.0 to the first cell
        assert model.pdf(np.array([[1.0]]))[0] == 0.5

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pwc_pdf_mass_and_sup_bound(self, dim):
        # the pdf on a midpoint grid four times finer than the cells has
        # mean 1, and its largest value is the sup bound
        model = random_pwc(np.random.default_rng(60 + dim), scale=2, dim=dim)
        axis = (np.arange(16) + 0.5) / 16
        grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        f = model.pdf(grid)
        assert f.mean() == pytest.approx(1.0, abs=1e-12)
        assert f.max() == model.sup_bound()

    def test_uniform_density(self):
        u = uniform_density(3)
        assert u.dim == 3
        assert u.pdf(np.array([[0.2, 0.5, 0.9]]))[0] == 1.0

    def test_spike_amplitude_guard(self):
        idx = WaveletIndex(3, (2,), (1,))
        # daughter sup is 2^{3/2}; amplitude 0.5 would dip below zero
        with pytest.raises(ValueError):
            SpikePerturbation(uniform_density(1), HAAR, idx, 0.5)
        ok = SpikePerturbation(uniform_density(1), HAAR, idx, 0.3)
        xs = np.linspace(0, 1, 257)[:-1][:, None]
        assert np.all(ok.pdf(xs) >= -1e-12)

    def test_spike_flat_representation(self):
        idx = WaveletIndex(2, (1,), (1,))
        spike = SpikePerturbation(uniform_density(1), HAAR, idx, 0.2)
        flat = spike.as_piecewise_constant()
        xs = np.linspace(0, 1, 129)[:-1][:, None] + 1e-4
        np.testing.assert_allclose(flat.pdf(xs), spike.pdf(xs), atol=1e-12)
        with pytest.raises(ValueError):
            SpikePerturbation(uniform_density(1), DB2, WaveletIndex(2, (1,), (1,)), 1e-3)

    def test_spike_builds_its_flat_model_once(self):
        # construction builds the one flat model; sampling builds none, and
        # draws the bits a freshly built flat model of the same cells draws
        base = uniform_density(2)
        idx = WaveletIndex(2, (1, 3), (1, 0))
        built = []
        init = PiecewiseConstant.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with mock.patch.object(PiecewiseConstant, "__init__", counted):
            spike = SpikePerturbation(base, HAAR, idx, 0.2)
            assert len(built) == 1
            a = spike.sample(500, np.random.default_rng(4))
            b = spike.sample(300, np.random.default_rng(5))
            assert len(built) == 1 and spike.as_piecewise_constant() is built[0]
        # a flat model built from the pdf at the 8 x 8 cell midpoints
        fresh = PiecewiseConstant(np.maximum(spike.pdf(coefficients._midpoints(8, 2)), 0.0).reshape(8, 8), 3)
        assert np.array_equal(a, fresh.sample(500, np.random.default_rng(4)))
        assert np.array_equal(b, fresh.sample(300, np.random.default_rng(5)))


def bit_stream(bits: str, seed: int) -> np.random.Generator:
    """A Generator on the named bit generator; "pcg64-half-buffered" is a
    PCG64 stream holding a buffered 32-bit half."""
    if bits == "philox":
        return np.random.Generator(np.random.Philox(seed))
    if bits == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    rng = np.random.default_rng(seed)
    if bits == "pcg64-half-buffered":
        state = rng.bit_generator.state
        rng.bit_generator.state = {**state, "has_uint32": 1, "uinteger": 12345}
    return rng


def stream_state(rng: np.random.Generator) -> str:
    # Philox and MT19937 keep arrays in their state
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


class TestSampling:
    def test_pwc_cell_frequencies(self):
        model = PiecewiseConstant(np.array([0.4, 1.6]), 1)
        pts = model.sample(20000, np.random.default_rng(7))
        frac = np.mean(pts[:, 0] < 0.5)
        # P(first cell) = 0.2; allow 4 sigma
        assert abs(frac - 0.2) < 4 * math.sqrt(0.2 * 0.8 / 20000)

    def test_sampling_deterministic_by_seed(self):
        model = PiecewiseConstant(np.arange(1.0, 9.0) / 4.5, 3)

        def draw(seed):
            return model.sample(50, np.random.default_rng(seed))

        np.testing.assert_array_equal(draw(42), draw(42))
        assert not np.array_equal(draw(42), draw(43))

    @pytest.mark.byte_pin
    @pytest.mark.parametrize(
        "model,seed,want",
        [
            (PiecewiseConstant(np.arange(1.0, 9.0) / 4.5, 3), 9,
             "b8b6f7d83d2d6afa698a9aaf4de6d1f1e2d9e684561bf1efdb064818c75990eb"),
            (PiecewiseConstant(np.arange(1.0, 17.0).reshape(4, 4) / 8.5, 2), 123,
             "5d3f51c2f924962715f49414bb65a04b00da5238098b7c2abbdb03094cac6729"),
            (PiecewiseConstant(np.arange(1.0, 9.0).reshape(2, 2, 2) / 4.5, 1), 123,
             "01c59ed69f3de01843715004f24052f5d30a1d43e84966500c5769ab943b2a19"),
        ],
        ids=["pwc-8-cells", "pwc-2d-16-cells", "pwc-3d-8-cells"],
    )
    def test_golden_bits(self, model, seed, want):
        # SHA-256 of 1000 draws and the next four uniforms of the same
        # Generator, computed when the cells were drawn with Generator.choice:
        # the cell draw must keep both the bits and the stream position
        rng = np.random.default_rng(seed)
        digest = hashlib.sha256(model.sample(1000, rng).tobytes())
        digest.update(rng.random(4).tobytes())
        assert digest.hexdigest() == want

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("scale,seed,want", [
        (5, 51, "b150406476c41610dd08f7f8778cde17be40fcf2a147f1e04d25aebc56fba288"),
        (7, 71, "8bee6336ca48aa9d5819b5e7f439b739079e677019d5d165c7a022db77909898"),
    ], ids=["pwc-1024-cells", "pwc-16384-cells"])
    def test_golden_bits_many_cells(self, scale, seed, want):
        # a D=2 model with a quarter of its cells empty, at 1024 cells and at
        # 16384 cells, more cells than the search has buckets; hashed as in
        # test_golden_bits, computed when the cells were drawn by searching
        # the whole cdf
        rng = np.random.default_rng(1000 + scale)
        vals = rng.random((2**scale, 2**scale)) + 0.05
        vals[rng.random(vals.shape) < 0.25] = 0.0
        model = PiecewiseConstant(vals / vals.mean(), scale)
        draws = np.random.default_rng(seed)
        digest = hashlib.sha256(model.sample(1000, draws).tobytes())
        digest.update(draws.random(4).tobytes())
        assert digest.hexdigest() == want

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 1000, 2**14])
    def test_cell_draw_matches_choice(self, k):
        rng = np.random.default_rng(k)
        for n in (0, 1, 5, 1000):
            probs = rng.random(k) + 0.01
            probs = probs / probs.sum()
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            got = coefficients._CellSearch(probs).draw(n, a)
            want = b.choice(k, size=n, p=probs)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert a.random() == b.random()

    @pytest.mark.parametrize(
        "probs",
        [
            [0.25, 0.25, 0.5],
            [0.1, 0.0, 0.0, 0.3, 0.6],
            np.random.default_rng(8).random(1000),
            np.where(np.arange(2**14) % 3 == 0, 0.0, np.random.default_rng(9).random(2**14)),
        ],
        ids=["on-edges", "empty-cells", "1000-cells", "16384-cells"],
    )
    def test_cell_draw_at_cdf_entries_and_bucket_edges(self, probs):
        # uniforms exactly on the cdf entries, on the bucket edges b/B and
        # one ulp below each; the draw must count the cdf entries <= u
        probs = np.asarray(probs, dtype=float)
        probs = probs / probs.sum()
        search = coefficients._CellSearch(probs)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        edges = np.arange(search.buckets) / search.buckets
        u = np.concatenate([cdf, edges, np.nextafter(cdf, 0.0), np.nextafter(edges, 0.0)])
        u = u[(0.0 <= u) & (u < 1.0)]

        class Stub:
            def random(self, n):
                assert n == u.size
                return u.copy()

        got = search.draw(u.size, Stub())
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("bits", ["pcg64", "pcg64-half-buffered", "philox", "mt19937"])
    @pytest.mark.parametrize("n", [0, 1, 5, 2**14])
    def test_one_cell_skip_leaves_the_drawn_state(self, bits, n):
        # a one-cell draw skips its n cell uniforms: the points and the state
        # after them are those of drawing the uniforms, also with a buffered
        # 32-bit half, which `advance` would drop
        for dim in (1, 2):
            a, b = bit_stream(bits, n), bit_stream(bits, n)
            got = uniform_density(dim).sample(n, a)
            b.random(n)
            assert np.array_equal(got, b.random((n, dim)))
            assert stream_state(a) == stream_state(b)

    @pytest.mark.parametrize("bits", ["pcg64", "pcg64-half-buffered", "mt19937"])
    @pytest.mark.parametrize("dim,cell", [(1, 0), (1, 3), (2, (2, 1))], ids=["d1-cell0", "d1-cell3", "d2-cell21"])
    def test_one_mass_cell_matches_choice(self, bits, dim, cell):
        # a model whose mass sits in one cell skips its cell search: its
        # draws and the state after them are those of the generic path, the
        # cells of Generator.choice placed at their corners
        values = np.zeros((4,) * dim)
        values[cell] = 4.0**dim
        model = PiecewiseConstant(values, 2)
        assert model._cells.only == np.ravel_multi_index(np.atleast_1d(cell), values.shape)
        for n in (0, 1, 5, 2**14):
            a, b = bit_stream(bits, n), bit_stream(bits, n)
            got = model.sample(n, a)
            cells = b.choice(values.size, size=n, p=(values.ravel() > 0).astype(float))
            want = (np.column_stack(np.unravel_index(cells, values.shape)) + b.random((n, dim))) / 4
            assert got.shape == (n, dim)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert stream_state(a) == stream_state(b)

    @pytest.mark.parametrize(
        "model",
        [
            uniform_density(1),
            uniform_density(2),
            PiecewiseConstant([0.0, 0.0, 4.0, 0.0], 2),
            PiecewiseConstant([[0.0, 0.0], [4.0, 0.0]], 1),
            PiecewiseConstant(np.eye(2) * 2.0, 1),
            PiecewiseConstant(np.arange(1.0, 9.0) / 4.5, 3),
            PiecewiseConstant(np.arange(1.0, 17.0).reshape(4, 4) / 8.5, 2),
            PiecewiseConstant(np.arange(1.0, 9.0).reshape(2, 2, 2) / 4.5, 1),
            random_pwc(np.random.default_rng(7), scale=7, dim=2),
            SpikePerturbation(uniform_density(2), HAAR, WaveletIndex(1, (1, 0), (1, 1)), 0.5),
        ],
        ids=["one-cell-s0-d1", "one-cell-s0-d2", "one-cell-s2-d1", "one-cell-s1-d2", "search-d2-diagonal",
             "search-d1", "search-d2", "search-d3", "search-d2-16384-cells", "spike-d2"],
    )
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_sample_into_rows_keeps_the_bits(self, model, n):
        # a draw into given rows returns those rows, with the bits of a
        # fresh draw and the same stream position after it, and writes no
        # other row
        a, b = np.random.default_rng(n + 17), np.random.default_rng(n + 17)
        block = np.full((n + 2, model.dim), -1.0)
        rows = block[1:-1]
        got = model.sample(n, a, out=rows)
        want = model.sample(n, b)
        assert got is rows
        assert np.array_equal(rows.view(np.int64), want.view(np.int64))
        assert np.array_equal(block[[0, -1]], np.full((2, model.dim), -1.0))
        assert np.array_equal(a.random(4).view(np.int64), b.random(4).view(np.int64))

    def test_huber_mixture_eps_zero_matches_pure(self):
        p = PiecewiseConstant(np.array([0.5, 1.5]), 1)
        g = uniform_density(1)
        mixed = sample_huber(p, g, 0.0, 100, 9)
        # at eps=0 the g stream is never consulted
        again = sample_huber(p, PiecewiseConstant(np.array([1.9, 0.1]), 1), 0.0, 100, 9)
        np.testing.assert_array_equal(mixed, again)

    def test_huber_mixture_rate(self):
        p = PiecewiseConstant(np.array([2.0, 0.0]), 1)  # lives in [0, 1/2)
        g = PiecewiseConstant(np.array([0.0, 2.0]), 1)  # lives in [1/2, 1)
        pts = sample_huber(p, g, 0.25, 40000, 21)
        frac_g = np.mean(pts[:, 0] >= 0.5)
        assert abs(frac_g - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 40000)

    def test_huber_validates_eps(self):
        with pytest.raises(ValueError):
            sample_huber(uniform_density(1), uniform_density(1), 1.0, 10, 0)
        with pytest.raises(ValueError):
            sample_huber(uniform_density(1), uniform_density(1), -0.1, 10, 0)


class TestEmpiricalCoeffs:
    def test_frozen_haar_single_point(self):
        # one sample at 0.3: beta_hat(j=2,k=1) = psi_{2,1}(0.3) = 2
        tree = empirical_coeffs(np.array([[0.3]]), HAAR, 0, 2)
        assert tree.get(WaveletIndex(2, (1,), (1,))) == pytest.approx(2.0, abs=1e-12)
        assert tree.alpha == 1.0

    def test_matches_direct_mean_1d(self):
        rng = np.random.default_rng(17)
        x = rng.random((40, 1))
        tree = empirical_coeffs(x, HAAR, 0, 3)
        for j in range(4):
            for k in range(2**j):
                idx = WaveletIndex(j, (k,), (1,))
                direct = float(np.mean(eval_wavelet(HAAR, idx, x)))
                assert tree.get(idx) == pytest.approx(direct, abs=1e-12)

    def test_matches_direct_mean_2d_db2(self):
        # level j of the basis with top level j1 + 1 = 2 is the interpolant
        # of the value tables at depth m + 2 - j
        rng = np.random.default_rng(23)
        x = rng.random((30, 2))
        tree = empirical_coeffs(x, DB2_S, 0, 1)
        worst = 0.0
        for j in range(2):
            deep = deep_family(DB2_S, 2, j)
            for e in orientations(2):
                for k1 in range(2**j):
                    for k2 in range(2**j):
                        idx = WaveletIndex(j, (k1, k2), e)
                        direct = float(np.mean(eval_wavelet(deep, idx, x)))
                        worst = max(worst, abs(tree.get(idx) - direct))
        assert worst < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=3),
    )
    def test_property_mean_of_evaluations(self, xs, j):
        x = np.array(xs)[:, None]
        tree = empirical_coeffs(x, HAAR, 0, j)
        for k in range(2**j):
            idx = WaveletIndex(j, (k,), (1,))
            direct = float(np.mean(eval_wavelet(HAAR, idx, x)))
            assert tree.get(idx) == pytest.approx(direct, abs=1e-12)

    def test_one_dim_vector_accepted(self):
        flat = empirical_coeffs(np.array([0.1, 0.6]), HAAR, 0, 1)
        shaped = empirical_coeffs(np.array([[0.1], [0.6]]), HAAR, 0, 1)
        assert flat.get(WaveletIndex(0, (0,), (1,))) == shaped.get(WaveletIndex(0, (0,), (1,)))

    def test_error_paths(self):
        with pytest.raises(EmptySample):
            empirical_coeffs(np.zeros((0, 1)), HAAR, 0, 2)
        with pytest.raises(OutOfDomain):
            empirical_coeffs(np.array([[1.2]]), HAAR, 0, 2)
        with pytest.raises(OutOfDomain):
            empirical_coeffs(np.array([[np.nan]]), HAAR, 0, 2)
        with pytest.raises(ValueError):
            empirical_coeffs(np.array([[0.5]]), HAAR, 3, 2)

    @pytest.mark.parametrize("family,dim", [(HAAR, 2), (DB2, 1), (DB2, 2), (DB4, 1)])
    def test_block_rows_are_the_single_trees(self, family, dim):
        # a block of trials bins each trial into cells of its own: row t of
        # every level has the bits, and the memory order, of trial t alone
        rng = np.random.default_rng(71 + dim)
        samples = [rng.random((150, dim)) for _ in range(5)]
        samples[3][:40] = 0.9  # 40 points on one spot: some levels differ in sparsity
        block = empirical_coeffs(np.concatenate(samples), family, 0, 3, trials=5)
        assert block.trials == 5 and block.alpha.tolist() == [1.0] * 5
        assert block.n_coefficients == sum(
            empirical_coeffs(x, family, 0, 3).n_coefficients for x in samples
        )
        for t, x in enumerate(samples):
            single = empirical_coeffs(x, family, 0, 3)
            for j in block.levels():
                row = block.level_array(j)[t]
                want = single.level_array(j)
                if want is None:
                    assert not row.any()
                    continue
                np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))
                order = np.argsort(row.strides[1:])
                assert np.array_equal(order, np.argsort(want.strides[1:]))

    def test_block_rows_must_split_evenly(self):
        with pytest.raises(ValueError, match="do not split"):
            empirical_coeffs(np.full((7, 1), 0.5), HAAR, 0, 1, trials=2)
        with pytest.raises(ValueError, match="do not split"):
            empirical_coeffs(np.full((4, 1), 0.5), HAAR, 0, 1, trials=0)

    class Chunks:
        """Chunks yielded one at a time, with the shape of their stack."""

        def __init__(self, chunks):
            self.chunks = chunks
            self.shape = (sum(len(c) for c in chunks), np.shape(chunks[0])[1])

        def __iter__(self):
            return iter(self.chunks)

    @pytest.mark.parametrize("family,dim", [(HAAR, 1), (HAAR, 2), (DB2, 1), (DB2, 2), (DB4, 1)])
    def test_chunks_are_the_stacked_sample(self, family, dim):
        # chunks of 2, 3, 1 and 1 trials of 120 points give the bits of the
        # stacked 7-trial block
        rng = np.random.default_rng(91 + dim)
        x = rng.random((7 * 120, dim))
        x[:30] = 0.25  # one trial much sparser than the others
        cuts = np.split(x, [240, 600, 720])
        want = empirical_coeffs(x, family, 0, 3, trials=7)
        assert_blocks_identical(empirical_coeffs(self.Chunks(cuts), family, 0, 3, trials=7), want)
        one = empirical_coeffs(self.Chunks([x[:120]]), family, 0, 3)
        assert_trees_identical(one, empirical_coeffs(x[:120], family, 0, 3))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_few_cell_chunks_equal_whole_input(self, dim):
        # j1 = 0: chunks of one and two trials (2^D and 2^(D+1) bins) are
        # counted by comparison where they fit, the whole block of eight by bincount
        n, trials = 3000, 8
        x = edge_sample(n * trials, dim, seed=5 + dim)
        whole = empirical_coeffs(x, HAAR, 0, 0, trials=trials)
        for per in (1, 2):
            chunks = self.Chunks([x[i : i + per * n] for i in range(0, n * trials, per * n)])
            assert_blocks_identical(empirical_coeffs(chunks, HAAR, 0, 0, trials=trials), whole)
        for t in range(trials):
            alone = empirical_coeffs(x[t * n : (t + 1) * n], HAAR, 0, 0)
            assert np.array_equal(whole.level_array(0)[t].view(np.int64), alone.level_array(0).view(np.int64))

    def test_chunks_thresholded_with_the_trial_size(self):
        # the threshold K sqrt(j/n) takes n per trial, not the rows of a chunk
        rng = np.random.default_rng(93)
        x = rng.random((6 * 200, 1))
        cfg = EstimatorConfig("thresholded", 1, 4, K=0.5)
        want = estimate(x, DB2, cfg, 6)
        assert want.n_coefficients < empirical_coeffs(x, DB2, 1, 4, trials=6).n_coefficients
        for cuts in (np.split(x, [400, 1000]), np.split(x, 6)):
            assert_blocks_identical(estimate(self.Chunks(cuts), DB2, cfg, 6), want)

    def test_chunk_of_part_trials_is_refused(self):
        x = np.random.default_rng(95).random((12, 1))
        with pytest.raises(ValueError, match="whole trials of 4 points"):
            empirical_coeffs(self.Chunks([x[:6], x[6:]]), HAAR, 0, 1, trials=3)
        # trials of 6 and 3 points: 9 rows over 2 trials split into none
        with pytest.raises(ValueError, match="do not split"):
            empirical_coeffs(self.Chunks([x[:6], x[6:9]]), HAAR, 0, 1, trials=2)
        # two trials of 4 points, then one of 2: 10 rows give n = 5
        with pytest.raises(ValueError, match="whole trials of 5 points"):
            empirical_coeffs(self.Chunks([x[:8], x[8:10]]), HAAR, 0, 1, trials=2)
        with pytest.raises(ValueError, match="one D for every chunk"):
            empirical_coeffs(self.Chunks([x[:4], np.full((4, 2), 0.5)]), HAAR, 0, 1, trials=2)

    def test_chunks_need_their_stacked_size(self):
        # a chunk is binned as it arrives, so n must be known first
        x = np.full((8, 1), 0.5)
        for chunks in (iter([x[:4], x[4:]]), [x[:4], x[4:]]):
            with pytest.raises(TypeError, match="shape"):
                empirical_coeffs(chunks, HAAR, 0, 1, trials=2)
        with pytest.raises(EmptySample):
            empirical_coeffs(np.empty((0, 1)), HAAR, 0, 1)

    # every call that reads coefficients one tree at a time, on a block
    SINGLE_TREE_CALLS = {
        "set": lambda block, single: block.set(WaveletIndex(0, (0,), (1,)), 1.0),
        "get": lambda block, single: block.get(WaveletIndex(0, (0,), (1,))),
        "items": lambda block, single: block.items(),
        "to_jsonl": lambda block, single: block.to_jsonl(io.StringIO()),
        "evaluate": lambda block, single: block.evaluate(np.array([[0.5]])),
        "tree_axpy": lambda block, single: tree_axpy(1.0, block, single),
        "tree_axpy-second": lambda block, single: tree_axpy(1.0, single, block),
        "ipm_witness": lambda block, single: ipm_witness(
            block, BesovParams(1.0, 2.0, 2.0)
        ),
    }

    @pytest.mark.parametrize("call", sorted(SINGLE_TREE_CALLS))
    def test_block_is_refused_where_one_tree_is_read(self, call):
        # a block's levels lead with the trial axis, which these calls would
        # read as the orientation axis, or sum over all trials together
        block = empirical_coeffs(np.array([[0.1], [0.6], [0.3], [0.8]]), HAAR, 0, 1, trials=2)
        single = empirical_coeffs(np.array([[0.1], [0.6]]), HAAR, 0, 1)
        with pytest.raises(ValueError, match="not a block of 2 trials"):
            self.SINGLE_TREE_CALLS[call](block, single)

    @staticmethod
    def _random_block(rng, family, dim, trials):
        # rows of varied scale with a few entries per level; row 3 lacks
        # level 1, which the other rows store, and row 1 has alpha 0.0 and
        # no level, so its pairing is a signed zero no absent level may move
        alpha = rng.normal(size=trials)
        alpha[1:2] = 0.0
        block = CoefficientTree(family, dim, alpha=alpha, trials=trials)
        for j in range(4):
            lev = np.zeros((trials, 2**dim - 1) + (2**j,) * dim)
            flat = lev.reshape(trials, -1)
            for row in flat:
                pos = rng.choice(row.size, size=min(row.size, 3), replace=False)
                row[pos] = rng.normal(size=pos.size) * 10.0 ** rng.integers(-3, 4, size=pos.size)
            lev[1:2] = 0.0
            if j == 1:
                lev[3:4] = 0.0
            block.set_level_array(j, lev)
        return block

    @staticmethod
    def _row_tree(block, t):
        tree = CoefficientTree(block.family, block.dim, alpha=float(block.alpha[t]))
        for j in block.levels():
            tree.set_level_array(j, block.level_array(j)[t].copy())
        return tree

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64).tolist()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, INF])
    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0, INF])
    def test_block_norms_are_the_row_trees_norms(self, dim, p, q):
        # row t of a block's norm and ball test has the bits of trial t's
        # own tree, also where a row lacks a level other rows store
        block = self._random_block(np.random.default_rng(80 + dim), DB2, dim, 4)
        assert not block.level_array(1)[3].any() and block.level_array(1)[0].any()
        params = BesovParams(0.7, p, q, 5.0)
        rows = [self._row_tree(block, t) for t in range(4)]
        norms = besov_norm(block, params)
        assert norms.shape == (4,)
        assert self._bits(norms) == self._bits([besov_norm(r, params) for r in rows])
        assert in_ball(block, params).tolist() == [in_ball(r, params) for r in rows]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_block_pairings_are_the_row_trees_pairings(self, dim):
        rng = np.random.default_rng(90 + dim)
        block = self._random_block(rng, DB2, dim, 4)
        other = self._random_block(rng, DB2, dim, 4)
        single = self._row_tree(other, 2)
        single.alpha = -abs(single.alpha)
        rows = [self._row_tree(block, t) for t in range(4)]
        others = [self._row_tree(other, t) for t in range(4)]
        for got, want in [
            (pairing(block, single), [pairing(r, single) for r in rows]),
            (pairing(single, block), [pairing(single, r) for r in rows]),
            (pairing(block, other), [pairing(r, o) for r, o in zip(rows, others)]),
        ]:
            assert got.shape == (4,)
            assert self._bits(got) == self._bits(want)

    def test_estimate_block_levels_are_row_major(self):
        # a D=2 estimate's levels lie row-major, like every other tree's;
        # each row's products are summed in the order trial t's own estimate
        # gives. With alpha 0.0 the last bits of the level sums reach the result.
        rng = np.random.default_rng(17)
        samples = [rng.random((300, 2)) for _ in range(4)]
        block = empirical_coeffs(np.concatenate(samples), DB2, 0, 4, trials=4)
        singles = [empirical_coeffs(x, DB2, 0, 4) for x in samples]
        assert all(block.level_array(j).flags.c_contiguous for j in block.levels())
        block.alpha[:] = 0.0
        for s in singles:
            s.alpha = 0.0
        g = self._row_tree(self._random_block(rng, DB2, 2, 2), 0)

        def summed_levels(f, g):
            # the one-tree pairing: numpy sums each level's products in one call
            total = f.alpha * g.alpha
            for j in f.levels():
                if g.level_array(j) is not None:
                    total += float((f.level_array(j) * g.level_array(j)).sum())
            return total

        for other, others in ((g, [g] * 4), (block, singles)):
            want = self._bits([summed_levels(s, o) for s, o in zip(singles, others)])
            assert self._bits([pairing(s, o) for s, o in zip(singles, others)]) == want
            assert self._bits(pairing(block, other)) == want

    def test_blocks_measure_against_one_tree_or_an_equal_block(self):
        x = np.array([[0.1], [0.6], [0.3], [0.8], [0.35], [0.9]])
        disc = BesovParams(1.0, INF, INF, 1.0)
        block2 = empirical_coeffs(x[:4], HAAR, 0, 1, trials=2)
        block3 = empirical_coeffs(x, HAAR, 0, 1, trials=3)
        single = empirical_coeffs(x[4:], HAAR, 0, 1)
        with pytest.raises(IncompatibleTrees, match="blocks of 3 and 2 trials"):
            besov_ipm(block2, block3, disc)
        rows = [besov_ipm(empirical_coeffs(x[2 * t : 2 * t + 2], HAAR, 0, 1), single, disc) for t in range(2)]
        assert besov_ipm(block2, single, disc).tolist() == rows
        assert besov_ipm(single, block2, disc).tolist() == rows
        assert besov_ipm(block2, block2, disc).tolist() == [0.0, 0.0]

    def test_boundary_point_folds_to_zero(self):
        # x = 1.0 is the torus point 0.0, counted in the first cell
        tree = empirical_coeffs(np.array([[1.0]]), HAAR, 0, 0)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == 1.0

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.nan, "points contain non-finite values"),
            (np.inf, "points contain non-finite values"),
            (-np.inf, "points contain non-finite values"),
            (-0.1, "points outside [0,1]^D, e.g. -0.1"),
            (1.5, "points outside [0,1]^D, e.g. 1.5"),
        ],
    )
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2)])
    def test_fold_rejects_with_the_same_message(self, bad, message, shape):
        x = np.full(shape, 0.25)
        x.flat[-1] = bad
        with pytest.raises(OutOfDomain) as err:
            coefficients._fold_points(x)
        assert str(err.value) == message

    def test_fold_maps_one_to_zero_and_keeps_the_rest(self):
        x = np.array([[1.0], [0.5], [-0.0], [1.0 - 2.0**-53]])
        got = coefficients._fold_points(x)
        assert got is not x and x[0, 0] == 1.0
        want = np.array([[0.0], [0.5], [-0.0], [1.0 - 2.0**-53]])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        inside = x[1:]
        assert coefficients._fold_points(inside) is inside

    @pytest.mark.parametrize("family", [HAAR, DB2])
    def test_read_only_sample_accepted(self, family):
        x = np.random.default_rng(4).random((500, 2))
        want = empirical_coeffs(x.copy(), family, 0, 3)
        x.flags.writeable = False
        assert_trees_identical(empirical_coeffs(x, family, 0, 3), want)


def reference_empirical_coeffs(samples, family, j0, j1):
    """Level by level, the mean over the sample of each daughter of the
    filter-bank basis with top level j1 + 1, read from the value tables at
    depth m + j1 + 1 - j with the per-shift `bincount` transform: no bank is
    involved. For Haar every sum is an exact integer, so the result is the
    bit-exact reference."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    x = np.where(x == 1.0, 0.0, x)
    n, d = x.shape
    w = family.support_width
    tree = CoefficientTree(family, d, alpha=1.0)
    for j in range(0, j1 + 1):
        level_family = deep_family(family, j1 + 1, j)
        two_j = 2**j
        c = (x * two_j).astype(np.int64)
        np.minimum(c, two_j - 1, out=c)
        frac = x * two_j - c
        vals = {}

        def factor(axis, mother):
            key = (axis, mother)
            if key not in vals:
                u = frac[:, axis, None] + np.arange(w)[None, :]
                f = level_family.mother_values if mother else level_family.father_values
                vals[key] = f(u)
            return vals[key]

        for e in orientations(d):
            acc = np.zeros(two_j**d)
            for t_vec in itertools.product(range(w), repeat=d):
                prod = np.ones(n)
                k_lin = np.zeros(n, dtype=np.int64)
                for i in range(d):
                    prod = prod * factor(i, e[i])[:, t_vec[i]]
                    k_lin = k_lin * two_j + (c[:, i] - t_vec[i]) % two_j
                acc += np.bincount(k_lin, weights=prod, minlength=two_j**d)
            acc *= 2.0 ** (d * j / 2.0) / n
            nz = np.nonzero(np.abs(acc) >= PRUNE_TOL)[0]
            for k_flat in nz:
                k = tuple(int(k_flat // two_j ** (d - 1 - i)) % two_j for i in range(d))
                tree.set(WaveletIndex(j, k, e), float(acc[k_flat]))
    return tree


def edge_sample(n, dim, seed):
    """Uniform points with the rounding edge cases written over some rows:
    0, 1.0, 1 - 2^-53, 0.25 - 2^-54 and dyadic cell edges."""
    edges = [0.0, 1.0, 1.0 - 2.0**-53, 0.25 - 2.0**-54, 0.5, 0.125, 3 / 8, 1 / 32, 31 / 64]
    x = np.random.default_rng(seed).random((n, dim))
    for i in range(dim):
        vals = edges[i:] + edges[:i]
        for r, v in enumerate(vals):
            for row in (r, n // 2 + r, n - 1 - r):
                if 0 <= row < n:
                    x[row, i] = v
    return x


def assert_trees_identical(got, want):
    assert got.alpha == want.alpha
    assert list(got.items()) == list(want.items())
    assert_levels_bitwise_equal(got, want)


def assert_trees_close(got, want, atol):
    assert got.alpha == want.alpha
    assert got.levels() == want.levels()
    for j in want.levels():
        np.testing.assert_allclose(got.level_array(j), want.level_array(j), rtol=0, atol=atol)


# SHA-256 of the int64 view of the Haar level arrays of `edge_sample(5000,
# dim, 60 + dim)`, taken when every level was summed over the sample on its
# own: the bank must reproduce each of these integers' images bit for bit.
GOLDEN_HAAR_LEVELS_SHA256 = {
    (1, 0): "9da0201cd998cb9c9eb991dad0a2075fcafd447bb9d58c6583c1a028eb56869e",
    (1, 3): "ff3b2bcfb02b2d7d1152e3dae83e26646f3a73a03ec087d5e0787534e0295f67",
    (1, 7): "b394f24216b28188a0b306de319cacf92c0f704fe79dd40e35b5e792f0a9f7b4",
    (2, 0): "13d0695735ea6bda886e2a364c029865f00c1eb74206866fa1322f22ff416776",
    (2, 3): "935885d83efab5c81a9482f74beff3bc57a82dfbe31f7023e3d896caf5d7cd31",
    (2, 7): "65a4ea90e142be32e3bc91c5d29cb8eb2627f4535d26efd07b8c6e49e9c073d4",
}


class TestEmpiricalBitIdentity:
    """The binning and the filter bank against the per-level reference."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["haar", "db2", "db3", "db4"])
    @pytest.mark.parametrize("n", [1, 7, 2047, 2048, 2049, 6149])
    def test_equal_to_reference(self, name, dim, n):
        # Haar bit for bit; Daubechies to rounding, over shallow base tables
        # so that the reference's deeper ones stay small
        j1 = 5 if dim == 1 else 3
        x = edge_sample(n, dim, seed=n + 10 * dim)
        if name == "haar":
            assert_trees_identical(empirical_coeffs(x, HAAR, 0, j1), reference_empirical_coeffs(x, HAAR, 0, j1))
            return
        fam = wavelet_family(name, cascade_depth=8)
        want = reference_empirical_coeffs(x, fam, 0, j1)
        assert_trees_close(empirical_coeffs(x, fam, 0, j1), want, atol=1e-12)

    def test_haar_deep_levels(self):
        x = edge_sample(6149, 1, seed=4)
        assert_trees_identical(empirical_coeffs(x, HAAR, 0, 11), reference_empirical_coeffs(x, HAAR, 0, 11))

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("dim,j1", sorted(GOLDEN_HAAR_LEVELS_SHA256))
    def test_haar_levels_golden(self, dim, j1):
        tree = empirical_coeffs(edge_sample(5000, dim, seed=60 + dim), HAAR, 0, j1)
        digest = hashlib.sha256()
        for j in tree.levels():
            digest.update(tree.level_array(j).view(np.int64).tobytes())
        assert tree.levels() == list(range(j1 + 1))
        assert digest.hexdigest() == GOLDEN_HAAR_LEVELS_SHA256[(dim, j1)]

    @pytest.mark.parametrize("family", [HAAR, DB2])
    def test_bank_emits_orientations_in_order(self, family):
        # level-0 details of a 2-d father array, each orientation formed
        # directly: low-pass along the axes with bit 0, high-pass along bit 1
        a = np.random.default_rng(8).random((2, 2))
        father, details = coefficients._bank_level(a[None], family.taps)
        father, details = father[0], details[0]
        size, taps = 2, family.taps
        for o, e in enumerate(orientations(2)):
            want = sum(
                taps[e[0], l0] * taps[e[1], l1] * a[l0 % size, l1 % size]
                for l0 in range(taps.shape[1])
                for l1 in range(taps.shape[1])
            )
            assert details[o].shape == (1, 1)
            assert details[o, 0, 0] == pytest.approx(want, abs=1e-14)
        assert father[0, 0] == pytest.approx(a.sum() * taps[0].sum() ** 2 / 4, abs=1e-14)

    @pytest.mark.parametrize(
        "dim,top,trials",
        [
            (1, 0, 1), (1, 0, 3), (1, 1, 1), (1, 1, 2), (1, 0, 4), (2, 1, 1), (2, 0, 2), (1, 2, 2), (2, 1, 4),
            (1, 0, 2), (1, 2, 1),
        ],
    )
    def test_few_cell_counts_equal_bincount(self, dim, top, trials):
        # a D = 1 Haar chunk of at most _COMPARE_BINS bins is counted against
        # its cell edges, a larger one or one in D >= 2 by bincount: both
        # counts must agree bit for bit, here with each side forced over bins
        # of 1-4 (and 8, 16) cells, and every trial holds each inner edge
        # b/2^top, the float just below it, 0 and 1 - 2^-53
        x = edge_sample(trials * 2047, dim, seed=top + 3 * trials)
        edges = np.arange(1, 2**top) / 2**top
        special = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0, 1.0 - 2.0**-53]])
        x.reshape(trials, 2047, dim)[:, 100 : 100 + special.size] = special[:, None]
        x = coefficients._fold_points(x)
        got = coefficients._father_sums(x, HAAR, top, trials)
        for cap in (0, 16):
            with mock.patch.object(coefficients, "_COMPARE_BINS", cap):
                want = coefficients._father_sums(x, HAAR, top, trials)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got.shape == (trials,) + (2**top,) * dim and got.sum() == x.shape[0]

    @pytest.mark.parametrize("family", [HAAR, DB2])
    def test_last_float_below_one_in_last_cell(self, family):
        # 2^20 (1 - 2^-53) rounds to no integer, so the cell needs no clamp
        x = np.array([[np.nextafter(1.0, 0.0)]])
        sums = coefficients._father_sums(x, family, 20)[0]
        assert sums.shape == (2**20,)
        if family.is_haar:
            assert sums[-1] == 1.0 and sums.sum() == 1.0
        else:
            # the translates k = c - t, t < W, of the last cell c = 2^20 - 1
            assert not sums[: -family.support_width].any()
            assert sums.sum() == pytest.approx(1.0, abs=1e-12)


class TestCellMatrixCache:
    """The cell matrices of exact piecewise-constant truths, which are built
    afresh on every call."""

    @pytest.mark.parametrize("family,dim", [(DB2, 1), (DB4, 1), (DB2_S, 2)])
    def test_repeated_call_gives_the_same_tree(self, family, dim):
        model = random_pwc(np.random.default_rng(dim), 3, dim)
        first = exact_coeffs(model, family, 5)
        assert_trees_identical(exact_coeffs(model, family, 5), first)

    @pytest.mark.parametrize("name,j,s", [("haar", 5, 2), ("haar", 2, 2), ("db2", 6, 3), ("db3", 4, 4), ("db2", 1, 0)])
    def test_rolled_columns_equal_direct_integrals(self, name, j, s):
        # at j >= s the father matrix is its column 0 rolled down; integrate
        # every cell against every wrap directly instead, bit for bit
        family = wavelet_family(name, cascade_depth=8)
        w, m = family.support_width, family.cascade_depth
        if family.is_haar:
            cum = np.array([0.0, 1.0])
            m = 0
        else:
            v = family.phi_values
            cum = np.concatenate([[0.0], np.cumsum((v[:-1] + v[1:]) / 2.0)]) * 2.0**-m
        edges = np.arange(2**s + 1) * 2.0 ** (j - s)
        ks = np.arange(2**j)[:, None]
        direct = np.zeros((2**j, 2**s))
        for t in range(-1, int(math.ceil((w + 2**j) / 2**j)) + 1):
            lo = np.clip(edges[None, :-1] - ks + t * 2**j, 0.0, w) * 2**m
            hi = np.clip(edges[None, 1:] - ks + t * 2**j, 0.0, w) * 2**m
            direct += cum[hi.astype(np.int64)] - cum[lo.astype(np.int64)]
        direct *= 2.0**-j
        assert np.array_equal(coefficients._father_cell_matrix(family, j, s), direct)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn() above what was held before it."""
    was = tracemalloc.is_tracing()
    if not was:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was:
            tracemalloc.stop()


def haar_pyramid(j_max, s):
    """(j, father, mother) cell integrals, shape (2^s, 2^j) each, of the Haar
    truth with top level j_max + 1: the cells as the trial axis of the bank."""
    father = coefficients._father_cell_matrix(HAAR, j_max + 1, s).T
    for j in range(j_max, -1, -1):
        father, details = coefficients._bank_level(father, HAAR.taps)
        yield j, father, details[:, 0]


class TestExactTruthMemory:
    """Deep truths hold the top father matrix and a few level-sized
    temporaries, never the whole pyramid."""

    def test_deep_db3_truth_peak(self):
        family = wavelet_family("db3")
        model = random_pwc(np.random.default_rng(5), 3, 1)
        top = 8 * 2 ** (14 + 1 + 3)  # bytes of the level-15 father matrix
        # the first bank step holds the matrix, its periodic extension, its
        # output and one product: 4 top matrices, never the whole pyramid
        assert traced_peak(lambda: exact_coeffs(model, family, 14)) < 5 * top

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_haar_bank_from_level_s_is_exact(self, s):
        # why Haar truths stop at level s - 1: from any higher top, the
        # mothers of levels >= s are exactly 0 and the lower levels agree
        # bit for bit with the bank started at level s
        deep = {j: (f, m) for j, f, m in haar_pyramid(s + 4, s)}
        low = {j: (f, m) for j, f, m in haar_pyramid(s - 1, s)}
        for j in range(s, s + 5):
            assert not deep[j][1].any()
        for j in range(s):
            assert np.array_equal(deep[j][0], low[j][0]) and np.array_equal(deep[j][1], low[j][1])

    def test_deep_haar_truth_does_not_grow_with_j_max(self):
        model = random_pwc(np.random.default_rng(6), 3, 1)
        shallow = exact_coeffs(model, HAAR, 2)
        # a level-15 father matrix alone would be 2 MB
        assert traced_peak(lambda: exact_coeffs(model, HAAR, 14)) < 2**16
        assert_trees_identical(exact_coeffs(model, HAAR, 14), shallow)
        flat2 = random_pwc(np.random.default_rng(7), 3, 2)
        assert_trees_identical(exact_coeffs(flat2, HAAR, 6), exact_coeffs(flat2, HAAR, 2))


# SHA-256 over every `benchmark_suite` truth of the Hölder-1 ball (L = 2), in
# suite order, of its name, alpha and every stored level's bytes from
# `exact_coeffs` at j_max = 4 (3 for D = 3). They pin the bits of every
# piecewise-constant truth in each family and dimension, which the CLI
# goldens reach only in part.
GOLDEN_SUITE_TREES_SHA256 = {
    ("haar", 1): "7a76a01c6fc059021d28e54b8a436e180ab5fe7282136101b5ebf9bd72699e2f",
    ("haar", 2): "cce2e8dc9ccf8aab8718dc24275c1dbb8c9d76eb60d31ed4014e6874ebf48d79",
    ("haar", 3): "54389cf3900fcf1926a3f83079872a1ed8c2e3fd47672307d23429b7a6da48c0",
    ("db2", 1): "a526d80c69addcf9ea9db76508c022c8719de2edd959910899ec22d118776dea",
    ("db2", 2): "1bd6eb809458dd88e20160ba44cc0e747f01fb5436305d206a1a483702e8384b",
    ("db2", 3): "49bb3db9cf641739c1ecbefcd7d82369be4a495c9424b43a720374decfe3e85f",
    ("db3", 1): "9d759bc0a725bc7775889f9b5a8568fcbbdd4489d816945473dc77847a1ee298",
    ("db3", 2): "6c564094b7df16c611e650830345d1b95a303015cb16ef289e539ad9c6e16cce",
    ("db3", 3): "9b0edb7ff5af12cdf822e4f903c3c483a1d8c25dbd769620bba41181e3ab623f",
    ("db4", 1): "04bca69312c412bc8f12208a6121a75a5af6aea6f81c8c45632eaa35dabe3386",
    ("db4", 2): "ae6782e55521917aad1640ba51b5e67d3b4965271b42451eedb694e93f45c494",
    ("db4", 3): "f4c4e385e7c1223cf41d505debc7e6a34b250656663f0fc5c2b0f1522c94f2da",
}


def suite_trees_digest(name: str, dim: int) -> str:
    digest = hashlib.sha256()
    for truth, model in benchmark_suite(BesovParams(1.0, INF, INF, 2.0), dim):
        tree = exact_coeffs(model, wavelet_family(name), 3 if dim == 3 else 4)
        digest.update(truth.encode() + np.float64(tree.alpha).tobytes())
        for j in tree.levels():
            digest.update(np.int64(j).tobytes() + tree.level_array(j).tobytes())
    return digest.hexdigest()


class TestExactSuiteTreesFrozen:
    @pytest.mark.byte_pin
    @pytest.mark.parametrize("name,dim", sorted(GOLDEN_SUITE_TREES_SHA256))
    def test_suite_trees_golden(self, name, dim):
        assert suite_trees_digest(name, dim) == GOLDEN_SUITE_TREES_SHA256[(name, dim)]


class TestExactCoeffsFrozen:
    """Values frozen from an independent quadrature oracle."""

    def test_step_haar_exact(self):
        model = PiecewiseConstant(np.array([0.5, 1.5]), 1)
        tree = exact_coeffs(model, HAAR, j_max=3)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == pytest.approx(-0.5, abs=1e-14)
        # the step is resolved at level 0; everything finer vanishes
        assert tree.levels() == [0]
        assert tree.alpha == 1.0


class TestExactCoeffsOracle:
    def test_pwc_haar_vs_oracle(self):
        rng = np.random.default_rng(31)
        model = random_pwc(rng, scale=3, dim=1)
        tree = exact_coeffs(model, HAAR, j_max=4)
        idxs = [WaveletIndex(j, (k,), (1,)) for j in (0, 2, 3) for k in range(2**j)]
        want = brute_coeffs_1d(model, HAAR, idxs, 5, cap=12)
        assert max(abs(tree.get(idx) - w) for idx, w in zip(idxs, want)) < 1e-12

    def test_pwc_db2_vs_oracle(self):
        rng = np.random.default_rng(37)
        model = random_pwc(rng, scale=2, dim=1)
        tree = exact_coeffs(model, DB2_S, j_max=3)
        rngc = np.random.default_rng(0)
        items = list(tree.items())
        picked = [items[i] for i in rngc.choice(len(items), size=min(20, len(items)), replace=False)]
        want = brute_coeffs_1d(model, DB2_S, [idx for idx, _ in picked], 4)
        assert max(abs(v - w) for (_, v), w in zip(picked, want)) < 1e-11

    def test_pwc_db2_default_depth_vs_oracle(self):
        rng = np.random.default_rng(41)
        model = random_pwc(rng, scale=1, dim=1)
        tree = exact_coeffs(model, DB2, j_max=2)
        idxs = [WaveletIndex(0, (0,), (1,)), WaveletIndex(2, (3,), (1,))]
        for idx, want in zip(idxs, brute_coeffs_1d(model, DB2, idxs, 3)):
            assert tree.get(idx) == pytest.approx(want, abs=1e-11)

    def test_pwc_db2_2d_vs_oracle(self):
        rng = np.random.default_rng(43)
        model = random_pwc(rng, scale=1, dim=2)
        tree = exact_coeffs(model, DB2_XS, j_max=1)
        worst = 0.0
        for j in (0, 1):
            for e in list(orientations(2)):
                idx = WaveletIndex(j, (0, min(1, 2**j - 1)), e)
                worst = max(worst, abs(tree.get(idx) - brute_coeff_2d(model, DB2_XS, idx, 2)))
        assert worst < 1e-10

    def test_haar_2d_pyramid_vs_oracle(self):
        rng = np.random.default_rng(47)
        model = random_pwc(rng, scale=2, dim=2)
        tree = exact_coeffs(model, HAAR, j_max=1)
        worst = 0.0
        for j in (0, 1):
            for e in list(orientations(2)):
                idx = WaveletIndex(j, (0, 2**j - 1), e)
                worst = max(worst, abs(tree.get(idx) - brute_coeff_2d(model, HAAR, idx, 2)))
        assert worst < 1e-10

    def test_pwc_db4_vs_oracle(self):
        rng = np.random.default_rng(59)
        model = random_pwc(rng, scale=3, dim=1)
        family = wavelet_family("db4", cascade_depth=8)
        tree = exact_coeffs(model, family, j_max=3)
        rngc = np.random.default_rng(1)
        items = list(tree.items())
        picked = [items[i] for i in rngc.choice(len(items), size=min(20, len(items)), replace=False)]
        want = brute_coeffs_1d(model, family, [idx for idx, _ in picked], 4)
        assert max(abs(v - w) for (_, v), w in zip(picked, want)) < 1e-10

    @pytest.mark.parametrize(
        "family,dim,j_max",
        [(HAAR, 2, 2), (DB2, 2, 2), (wavelet_family("db3"), 2, 1), (DB2, 3, 1)],
        ids=["haar-d2", "db2-d2", "db3-d2", "db2-d3"],
    )
    def test_pwc_separable_product(self, family, dim, j_max):
        # a product of D different axis densities: each all-mother
        # coefficient of its tree is the product of the axis trees'
        # coefficients, so the one axis table that the D axes share is read
        # along the right axis at every level and translate
        rng = np.random.default_rng(67)
        axes = [random_pwc(rng, scale=2, dim=1) for _ in range(dim)]
        values = axes[0].values
        for ax in axes[1:]:
            values = np.multiply.outer(values, ax.values)
        tree = exact_coeffs(PiecewiseConstant(values, 2), family, j_max)
        axis_trees = [exact_coeffs(ax, family, j_max) for ax in axes]
        assert tree.alpha == 1.0
        for j in range(j_max + 1):
            for k in itertools.product(range(2**j), repeat=dim):
                want = math.prod(t.get(WaveletIndex(j, (kk,), (1,))) for t, kk in zip(axis_trees, k))
                assert tree.get(WaveletIndex(j, k, (1,) * dim)) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_spike_tree_haar(self):
        idx = WaveletIndex(2, (1,), (1,))
        base = uniform_density(1)
        spike = SpikePerturbation(base, HAAR, idx, 0.2)
        tree = exact_coeffs(spike, HAAR, j_max=3)
        assert tree.get(idx) == pytest.approx(0.2, abs=1e-14)
        assert tree.alpha == 1.0
        assert tree.n_coefficients == 1

    def test_spike_tree_below_truncation(self):
        idx = WaveletIndex(5, (3,), (1,))
        spike = SpikePerturbation(uniform_density(1), HAAR, idx, 1e-2)
        tree = exact_coeffs(spike, HAAR, j_max=3)
        assert tree.n_coefficients == 0  # the spike lives above j_max

    def test_exact_coeffs_errors(self):
        spike = SpikePerturbation(uniform_density(1), HAAR, WaveletIndex(1, (0,), (1,)), 0.2)
        with pytest.raises(IncompatibleTrees):
            exact_coeffs(spike, DB2, j_max=2)
        with pytest.raises(ValueError):
            SpikePerturbation(uniform_density(1), DB2, WaveletIndex(1, (0,), (1,)), 1e-3)
        with pytest.raises(ValueError):
            exact_coeffs(uniform_density(1), HAAR, j_max=-1)
        with pytest.raises(TypeError):
            exact_coeffs(object(), HAAR, j_max=1)
        # cells of 2^-6 are finer than the db2 value grid at level 1, 2^-(1+2)
        with pytest.raises(QuadratureFailure, match=r"cell scale 2\^-6 finer than the value grid at level 1"):
            exact_coeffs(PiecewiseConstant(np.linspace(0.5, 1.5, 64), 6), wavelet_family("db2", cascade_depth=2), 0)

    def test_exact_matches_empirical_in_expectation(self):
        # law of large numbers sanity: empirical coefficients approach exact ones
        rng = np.random.default_rng(53)
        model = random_pwc(rng, scale=2, dim=1)
        truth = exact_coeffs(model, HAAR, j_max=2)
        hat = empirical_coeffs(model.sample(200000, np.random.default_rng(13)), HAAR, 0, 2)
        for idx, v in truth.items():
            # sd of one evaluation is at most 2^{j/2} * sup(p)^{1/2}
            assert abs(hat.get(idx) - v) < 5 * 2.0 ** (idx.j / 2) * 2.0 / math.sqrt(200000)


# -- the array-backed tree against a dict-backed reference ----------------------


class DictTree:
    """Reference: the dict-of-(k, e) tree that the array layout replaced, with
    its operations as they were written for it."""

    def __init__(self, alpha=0.0):
        self.alpha, self.beta = alpha, {}

    def set(self, j, k, e, v):
        lev = self.beta.setdefault(j, {})
        if abs(v) < PRUNE_TOL:
            lev.pop((k, e), None)
            if not lev:
                del self.beta[j]
        else:
            lev[(k, e)] = float(v)

    def stored(self):
        return {WaveletIndex(j, k, e): v.hex() for j, lev in self.beta.items() for (k, e), v in lev.items()}


def ref_axpy(a, x, y):
    out = DictTree(a * x.alpha + y.alpha)
    for j in set(x.beta) | set(y.beta):
        xs, ys = x.beta.get(j, {}), y.beta.get(j, {})
        for k, e in set(xs) | set(ys):
            out.set(j, k, e, a * xs.get((k, e), 0.0) + ys.get((k, e), 0.0))
    return out


def ref_threshold(t, j0, K, n):
    out = DictTree(t.alpha)
    for j, lev in t.beta.items():
        for (k, e), v in lev.items():
            if j <= j0 or abs(v) > K * math.sqrt(j / n):
                out.set(j, k, e, v)
    return out


def ref_lp(vals, p):
    a = np.abs(np.array(vals, dtype=float))
    if a.size == 0:
        return 0.0
    return float(a.max()) if p == math.inf else float(np.sum(a**p) ** (1.0 / p))


def ref_norm(t, params, dim):
    sp = params.sigma_prime(dim)
    terms = [2.0 ** (j * sp) * ref_lp(list(t.beta[j].values()), params.p) for j in sorted(t.beta)]
    return abs(t.alpha) + ref_lp(terms, params.q)


def ref_ipm(t1, t2, disc, dim):
    delta = ref_axpy(-1.0, t2, t1)
    sp, pd = disc.sigma_prime(dim), conjugate(disc.p)
    u = [2.0 ** (-j * sp) * ref_lp(list(delta.beta[j].values()), pd) for j in sorted(delta.beta)]
    return disc.L * max(abs(delta.alpha), ref_lp(u, conjugate(disc.q)))


def ref_pairing(f, g):
    terms = [v * g.beta.get(j, {}).get(ke, 0.0) for j, lev in f.beta.items() for ke, v in lev.items()]
    return f.alpha * g.alpha + sum(terms), abs(f.alpha * g.alpha) + sum(map(abs, terms))


def twin_trees(rng, dim, like=None):
    """The same random sparse tree as a CoefficientTree and a DictTree; with
    `like`, many entries copy or nearly cancel the entries of that twin."""
    tree, ref = CoefficientTree(HAAR, dim, float(rng.normal())), DictTree()
    ref.alpha = tree.alpha
    es = list(orientations(dim))
    writes = []
    for _ in range(int(rng.integers(0, 30))):
        j = int(rng.integers(0, 5))
        k = tuple(int(v) for v in rng.integers(0, 2**j, size=dim))
        v = float(rng.normal()) * 10.0 ** float(rng.integers(-16, 2))
        writes.append((j, k, es[int(rng.integers(len(es)))], v))
    if like is not None:
        for idx, v in list(like.items())[::2]:
            writes.append((idx.j, idx.k, idx.e, v + float(rng.choice([0.0, 3e-15, 1e-3]))))
    for j, k, e, v in writes:
        tree.set(WaveletIndex(j, k, e), v)
        ref.set(j, k, e, v)
    return tree, ref


def stored(tree):
    return {idx: v.hex() for idx, v in tree.items()}


BESOV_CASES = [
    BesovParams(0.0, INF, INF, 1.0),
    BesovParams(1.0, 1.0, INF, 2.0),
    BesovParams(0.5, 2.0, 2.0, 1.0),
    BesovParams(0.7, 4.0, 1.5, 0.5),
    BesovParams(2.0, 1.0, 1.0, 1.0),
]


class TestAgainstDictReference:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_elementwise_ops_bitwise(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(150):
            x, rx = twin_trees(rng, dim)
            y, ry = twin_trees(rng, dim, like=x)
            a = float(rng.choice([-1.0, 1.0, 0.05, -2.5]))
            out, rout = tree_axpy(a, x, y), ref_axpy(a, rx, ry)
            assert out.alpha == rout.alpha
            assert stored(out) == rout.stored()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("trials", [None, 3])
    def test_threshold_and_rescale_bitwise(self, dim, trials):
        # each trial of an estimate is the dict reference of its own
        # empirical tree, thresholded and then scaled entry by entry
        rng = np.random.default_rng(400 + dim)
        n = 50
        for _ in range(40):
            family = HAAR if rng.random() < 0.5 else DB2
            j0 = int(rng.integers(0, 3))
            j1 = j0 + int(rng.integers(0, 2))
            K = float(rng.choice([0.0, 0.5, 2.0]))
            eps = [None, 0.05, 0.3][int(rng.integers(3))]
            factor = 1.0 / (1.0 - eps) if eps else 1.0
            x = rng.random((n * (trials or 1), dim))
            est = estimate(x, family, EstimatorConfig("thresholded", j0, j1, K=K, rescale_epsilon=eps), trials)
            for t in range(trials or 1):
                single = empirical_coeffs(x[t * n:(t + 1) * n], family, j0, j1)
                ref = DictTree(single.alpha)
                for idx, v in single.items():
                    ref.set(idx.j, idx.k, idx.e, v)
                cut = ref_threshold(ref, j0, K, n).stored()
                want = {idx: (float.fromhex(h) * factor).hex() for idx, h in cut.items()}
                row = est if trials is None else TestEmpiricalCoeffs._row_tree(est, t)
                assert row.alpha == factor
                assert stored(row) == want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_norms_ipm_pairing_close(self, dim):
        rng = np.random.default_rng(200 + dim)
        for trial in range(150):
            x, rx = twin_trees(rng, dim)
            y, ry = twin_trees(rng, dim, like=x)
            params = BESOV_CASES[trial % len(BESOV_CASES)]
            assert besov_norm(x, params) == pytest.approx(ref_norm(rx, params, dim), rel=1e-14, abs=0)
            assert besov_ipm(x, y, params) == pytest.approx(ref_ipm(rx, ry, params, dim), rel=1e-14, abs=0)
            # a sum with cancellation is only as exact as the sum of its terms' sizes
            want, scale = ref_pairing(rx, ry)
            assert abs(pairing(x, y) - want) <= 1e-14 * scale

    @pytest.mark.parametrize("dim", [1, 2])
    def test_witness_identities(self, dim):
        rng = np.random.default_rng(300 + dim)
        for trial in range(150):
            x, _ = twin_trees(rng, dim)
            y, _ = twin_trees(rng, dim, like=x)
            delta = tree_axpy(-1.0, y, x)
            disc = BESOV_CASES[trial % len(BESOV_CASES)]
            if delta.n_coefficients == 0 and delta.alpha == 0.0:
                continue
            w = ipm_witness(delta, disc)
            assert besov_norm(w, disc) == pytest.approx(disc.L, rel=1e-12)
            assert pairing(w, delta) == pytest.approx(besov_ipm(x, y, disc), rel=1e-12)

    def test_witness_tie_goes_to_first_in_k_e_order(self):
        # p = 1 makes the dual exponent infinite: the witness sits on one argmax
        delta = CoefficientTree(HAAR, 2)
        delta.set(WaveletIndex(1, (1, 0), (0, 1)), -0.5)  # first in (e, k) order
        delta.set(WaveletIndex(1, (0, 1), (1, 1)), 0.5)  # first in (k, e) order
        w = ipm_witness(delta, BesovParams(0.0, 1.0, 1.0, 1.0))
        assert [idx for idx, _ in w.items()] == [WaveletIndex(1, (0, 1), (1, 1))]
