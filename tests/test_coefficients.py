"""Tests for coefficient trees, density models, and coefficient computation.

Exact-coefficient paths are checked against a brute-force quadrature oracle
that integrates the *implemented* piecewise-linear wavelets with panels
aligned to their value grid, where Gauss-Legendre is exact.
"""

import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from besov_robust import coefficients
from besov_robust.besov import BesovParams, besov_ipm, besov_norm, conjugate, ipm_witness, pairing
from besov_robust.coefficients import (
    PRUNE_TOL,
    CoefficientTree,
    GenericDensity,
    PiecewiseConstant,
    SmoothBump,
    SpikePerturbation,
    empirical_coeffs,
    exact_coeffs,
    rejection_sample,
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
    RejectionBudgetExceeded,
)
from besov_robust.estimators import _rescaled, apply_threshold
from besov_robust.wavelets import WaveletIndex, eval_wavelet, orientations, wavelet_family

INF = math.inf
HAAR = wavelet_family("haar")
DB2 = wavelet_family("db2")
DB4 = wavelet_family("db4")
# shallow value tables make the 2-d oracle affordable; exactness claims are
# per-family, so the comparison is just as strict
DB2_S = wavelet_family("db2", cascade_depth=8)


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


def brute_coeff_1d(model, family, index, cap: int = 18) -> float:
    """Quadrature oracle: GL-10 panels aligned to the wavelet value grid."""
    nseg = 2 ** min(family.cascade_depth + index.j, cap)
    gl_x, gl_w = leggauss(10)
    edges = np.linspace(0.0, 1.0, nseg + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = 0.5 / nseg
    pts = (mid[:, None] + half * gl_x[None, :]).ravel()
    wts = np.tile(gl_w * half, nseg)
    f = model.pdf(pts.reshape(-1, 1))
    psi = eval_wavelet(family, index, pts.reshape(-1, 1))
    return float(np.sum(wts * f * psi))


def brute_coeff_2d(model, family, index) -> float:
    """Tensor GL oracle on the value grid; fine enough for shallow tables."""
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


def random_tree(rng, family, dim, j_max, n_coeffs=8):
    tree = CoefficientTree(family, dim, alpha=float(rng.normal()))
    es = list(orientations(dim))
    for _ in range(n_coeffs):
        j = int(rng.integers(0, j_max + 1))
        k = tuple(int(rng.integers(0, 2**j)) for _ in range(dim))
        e = es[int(rng.integers(len(es)))]
        tree.set(WaveletIndex(j, k, e), float(rng.normal()))
    return tree


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
        assert tree.max_level == -1

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
        with pytest.raises(IncompatibleTrees):
            tree_axpy(1.0, x, CoefficientTree(DB2, 1))

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

    def test_pwc_pdf_lookup(self):
        model = PiecewiseConstant(np.array([0.5, 1.5]), 1)
        np.testing.assert_allclose(
            model.pdf(np.array([[0.1], [0.6], [0.5]])), [0.5, 1.5, 1.5]
        )
        # the torus fold sends 1.0 to the first cell
        assert model.pdf(np.array([[1.0]]))[0] == 0.5

    def test_uniform_density(self):
        u = uniform_density(3)
        assert u.dim == 3
        assert u.pdf(np.array([[0.2, 0.5, 0.9]]))[0] == 1.0

    def test_bump_validation(self):
        with pytest.raises(ValueError):
            SmoothBump([[0.1]], [[0.3]], [1.0])  # support sticks out at 0
        with pytest.raises(ValueError):
            SmoothBump([[0.5]], [[0.2]], [0.7])  # mass misses 1
        with pytest.raises(ValueError):
            SmoothBump([[0.5]], [[-0.1]], [1.0])

    def test_bump_pdf_mass_and_support(self):
        model = SmoothBump([[0.4], [0.7]], [[0.2], [0.1]], [0.5, 0.3], background=0.2)
        xs = np.linspace(0.0, 1.0, 2**14 + 1)[:-1] + 0.5 / 2**14
        mass = model.pdf(xs[:, None]).mean()
        assert abs(mass - 1.0) < 1e-6
        assert model.pdf(np.array([[0.05]]))[0] == pytest.approx(0.2)
        assert model.sup_bound() >= model.pdf(xs[:, None]).max()

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
            SpikePerturbation(uniform_density(1), DB2, WaveletIndex(2, (1,), (1,)), 1e-3).as_piecewise_constant()

    def test_generic_density_wraps_callable(self):
        model = GenericDensity(1, lambda x: 2.0 * x[:, 0], 2.0)
        assert model.pdf(np.array([[0.25]]))[0] == 0.5
        assert model.sup_bound() == 2.0


class TestSampling:
    def test_pwc_cell_frequencies(self):
        model = PiecewiseConstant(np.array([0.4, 1.6]), 1)
        pts = model.sample(20000, np.random.default_rng(7))
        frac = np.mean(pts[:, 0] < 0.5)
        # P(first cell) = 0.2; allow 4 sigma
        assert abs(frac - 0.2) < 4 * math.sqrt(0.2 * 0.8 / 20000)

    def test_bump_sample_stays_in_support(self):
        model = SmoothBump([[0.3, 0.6]], [[0.1, 0.2]], [1.0])
        pts = model.sample(5000, np.random.default_rng(1))
        assert np.all(np.abs(pts - [0.3, 0.6]) <= [0.1, 0.2])
        # the bump is symmetric, so axis means sit at the center
        assert np.allclose(pts.mean(axis=0), [0.3, 0.6], atol=0.01)

    def test_sampling_deterministic_by_seed(self):
        model = SmoothBump([[0.5]], [[0.25]], [1.0])

        def draw(seed):
            return model.sample(50, np.random.default_rng(seed))

        np.testing.assert_array_equal(draw(42), draw(42))
        assert not np.array_equal(draw(42), draw(43))

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

    def test_rejection_sampling_matches_density(self):
        model = GenericDensity(1, lambda x: 2.0 * x[:, 0], 2.0)
        pts = rejection_sample(model, 20000, np.random.default_rng(3))
        # E X = 2/3 for the ramp
        assert abs(pts.mean() - 2.0 / 3.0) < 0.01

    def test_rejection_budget_exceeded(self):
        hopeless = GenericDensity(1, lambda x: np.zeros(x.shape[0]), 2.0)
        with pytest.raises(RejectionBudgetExceeded):
            rejection_sample(hopeless, 10, np.random.default_rng(0))


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
        rng = np.random.default_rng(23)
        x = rng.random((30, 2))
        tree = empirical_coeffs(x, DB2_S, 0, 1)
        worst = 0.0
        for j in range(2):
            for e in orientations(2):
                for k1 in range(2**j):
                    for k2 in range(2**j):
                        idx = WaveletIndex(j, (k1, k2), e)
                        direct = float(np.mean(eval_wavelet(DB2_S, idx, x)))
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

    def test_boundary_point_folds_to_zero(self):
        # x = 1.0 is the torus point 0.0, counted in the first cell
        tree = empirical_coeffs(np.array([[1.0]]), HAAR, 0, 0)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == 1.0


def reference_empirical_coeffs(samples, family, j0, j1):
    """The per-shift `bincount` transform that `empirical_coeffs` replaced,
    kept verbatim as the bit-exact reference."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    x = np.where(x == 1.0, 0.0, x)
    n, d = x.shape
    w = family.support_width
    tree = CoefficientTree(family, d, alpha=1.0)
    for j in range(0, j1 + 1):
        two_j = 2**j
        c = (x * two_j).astype(np.int64)
        np.minimum(c, two_j - 1, out=c)
        frac = x * two_j - c
        vals = {}

        def factor(axis, mother):
            key = (axis, mother)
            if key not in vals:
                u = frac[:, axis, None] + np.arange(w)[None, :]
                f = family.mother_values if mother else family.father_values
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


BLOCK = coefficients._BLOCK_ROWS


class TestEmpiricalBitIdentity:
    """The blocked and the Haar count transforms against the per-shift reference."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", ["haar", "db2", "db3", "db4"])
    @pytest.mark.parametrize("n", [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_equal_to_reference(self, name, dim, n):
        fam = wavelet_family(name)
        j1 = 5 if dim == 1 else 3
        x = edge_sample(n, dim, seed=n + 10 * dim)
        assert_trees_identical(empirical_coeffs(x, fam, 0, j1), reference_empirical_coeffs(x, fam, 0, j1))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_row_groups_equal_to_reference(self, monkeypatch, dim):
        # a tiny sum cap splits every level's shift rows into groups of one
        monkeypatch.setattr(coefficients, "_SUM_CELLS", 1)
        fam = wavelet_family("db3")
        x = edge_sample(BLOCK + 3, dim, seed=3)
        assert_trees_identical(empirical_coeffs(x, fam, 0, 3), reference_empirical_coeffs(x, fam, 0, 3))

    def test_haar_deep_levels(self):
        x = edge_sample(3 * BLOCK + 5, 1, seed=4)
        assert_trees_identical(empirical_coeffs(x, HAAR, 0, 11), reference_empirical_coeffs(x, HAAR, 0, 11))


class TestExactCoeffsFrozen:
    """Values frozen from an independent quadrature oracle."""

    def test_ramp_haar_level0(self):
        # f(x) = 2x against the Haar mother: 2(1/8 - 3/8) = -1/2
        model = GenericDensity(1, lambda x: 2.0 * x[:, 0], 2.0)
        tree = exact_coeffs(model, HAAR, j_max=2)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == pytest.approx(-0.5, abs=1e-12)

    def test_ramp_haar_level2(self):
        model = GenericDensity(1, lambda x: 2.0 * x[:, 0], 2.0)
        tree = exact_coeffs(model, HAAR, j_max=2)
        assert tree.get(WaveletIndex(2, (1,), (1,))) == pytest.approx(-0.0625, abs=1e-12)

    def test_step_haar_exact(self):
        model = PiecewiseConstant(np.array([0.5, 1.5]), 1)
        tree = exact_coeffs(model, HAAR, j_max=3)
        assert tree.get(WaveletIndex(0, (0,), (1,))) == pytest.approx(-0.5, abs=1e-14)
        # the step is resolved at level 0; everything finer vanishes
        assert tree.max_level == 0
        assert tree.alpha == 1.0


class TestExactCoeffsOracle:
    def test_pwc_haar_vs_oracle(self):
        rng = np.random.default_rng(31)
        model = random_pwc(rng, scale=3, dim=1)
        tree = exact_coeffs(model, HAAR, j_max=4)
        worst = 0.0
        for j in (0, 2, 3):
            for k in range(2**j):
                idx = WaveletIndex(j, (k,), (1,))
                worst = max(worst, abs(tree.get(idx) - brute_coeff_1d(model, HAAR, idx, cap=12)))
        assert worst < 1e-12

    def test_pwc_db2_vs_oracle(self):
        rng = np.random.default_rng(37)
        model = random_pwc(rng, scale=2, dim=1)
        tree = exact_coeffs(model, DB2_S, j_max=3)
        rngc = np.random.default_rng(0)
        items = list(tree.items())
        worst = 0.0
        for i in rngc.choice(len(items), size=min(20, len(items)), replace=False):
            idx, v = items[i]
            worst = max(worst, abs(v - brute_coeff_1d(model, DB2_S, idx)))
        assert worst < 1e-11

    def test_pwc_db2_default_depth_vs_oracle(self):
        rng = np.random.default_rng(41)
        model = random_pwc(rng, scale=1, dim=1)
        tree = exact_coeffs(model, DB2, j_max=2)
        idxs = [WaveletIndex(0, (0,), (1,)), WaveletIndex(2, (3,), (1,))]
        for idx in idxs:
            assert tree.get(idx) == pytest.approx(brute_coeff_1d(model, DB2, idx), abs=1e-11)

    def test_pwc_db2_2d_vs_oracle(self):
        rng = np.random.default_rng(43)
        model = random_pwc(rng, scale=1, dim=2)
        tree = exact_coeffs(model, DB2_S, j_max=1)
        worst = 0.0
        for j in (0, 1):
            for e in list(orientations(2)):
                idx = WaveletIndex(j, (0, min(1, 2**j - 1)), e)
                worst = max(worst, abs(tree.get(idx) - brute_coeff_2d(model, DB2_S, idx)))
        assert worst < 1e-10

    def test_haar_2d_pyramid_vs_oracle(self):
        rng = np.random.default_rng(47)
        model = random_pwc(rng, scale=2, dim=2)
        tree = exact_coeffs(model, HAAR, j_max=1)
        worst = 0.0
        for j in (0, 1):
            for e in list(orientations(2)):
                idx = WaveletIndex(j, (0, 2**j - 1), e)
                worst = max(worst, abs(tree.get(idx) - brute_coeff_2d(model, HAAR, idx)))
        assert worst < 1e-10

    def test_bump_db4_vs_oracle(self):
        model = SmoothBump([[0.33], [0.71]], [[0.21], [0.06]], [0.6, 0.4])
        tree = exact_coeffs(model, DB4, j_max=4)
        rng = np.random.default_rng(1)
        items = list(tree.items())
        worst = 0.0
        for i in rng.choice(len(items), size=min(20, len(items)), replace=False):
            idx, v = items[i]
            worst = max(worst, abs(v - brute_coeff_1d(model, DB4, idx)))
        assert worst < 1e-10

    def test_bump_haar_vs_oracle(self):
        model = SmoothBump([[0.5]], [[0.3]], [0.8], background=0.2)
        tree = exact_coeffs(model, HAAR, j_max=3)
        worst = 0.0
        for j in (0, 1, 3):
            for k in sorted({0, 2**j - 1, 2 ** max(j - 1, 0) % 2**j}):
                idx = WaveletIndex(j, (int(k),), (1,))
                worst = max(worst, abs(tree.get(idx) - brute_coeff_1d(model, HAAR, idx)))
        assert worst < 1e-12

    def test_bump_2d_separable_product(self):
        # a product bump's 2-d coefficient factors into axis integrals
        model2 = SmoothBump([[0.4, 0.6]], [[0.25, 0.3]], [1.0])
        tree2 = exact_coeffs(model2, HAAR, j_max=2)
        mx = SmoothBump([[0.4]], [[0.25]], [1.0])
        my = SmoothBump([[0.6]], [[0.3]], [1.0])
        idx = WaveletIndex(2, (1, 2), (1, 1))
        want = brute_coeff_1d(mx, HAAR, WaveletIndex(2, (1,), (1,))) * brute_coeff_1d(
            my, HAAR, WaveletIndex(2, (2,), (1,))
        )
        assert tree2.get(idx) == pytest.approx(want, abs=1e-12)

    def test_generic_tree_matches_oracle(self):
        model = GenericDensity(1, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x[:, 0]), 1.5)
        tree = exact_coeffs(model, DB2_S, j_max=3, tol=1e-11)
        for idx in [WaveletIndex(1, (0,), (1,)), WaveletIndex(3, (5,), (1,))]:
            assert tree.get(idx) == pytest.approx(brute_coeff_1d(model, DB2_S, idx), abs=1e-9)

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
        db_spike = SpikePerturbation(uniform_density(1), DB2, WaveletIndex(1, (0,), (1,)), 1e-3)
        with pytest.raises(QuadratureFailure):
            exact_coeffs(db_spike, DB2, j_max=2)
        not_density = GenericDensity(1, lambda x: 3.0 * np.ones(x.shape[0]), 3.0)
        with pytest.raises(QuadratureFailure):
            exact_coeffs(not_density, HAAR, j_max=1)
        with pytest.raises(ValueError):
            exact_coeffs(uniform_density(1), HAAR, j_max=-1)
        with pytest.raises(TypeError):
            exact_coeffs(object(), HAAR, j_max=1)

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
            j0, K, n = int(rng.integers(0, 3)), float(rng.choice([0.0, 0.5, 2.0])), 50
            assert stored(apply_threshold(x, j0, K, n)) == ref_threshold(rx, j0, K, n).stored()
            eps = float(rng.choice([0.05, 0.3]))
            factor = 1.0 / (1.0 - eps)
            scaled = _rescaled(x, eps)
            assert scaled.alpha == x.alpha * factor
            assert stored(scaled) == {
                idx: (float.fromhex(h) * factor).hex() for idx, h in rx.stored().items()
            }

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
