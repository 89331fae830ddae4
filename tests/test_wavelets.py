"""Wavelet layer checks: filters, exact dyadic tables, evaluation, moments."""

import hashlib
import math
import time

import numpy as np
import pytest

from besov_robust import wavelets
from besov_robust.coefficients import CoefficientTree
from besov_robust.errors import BesovRobustError, OutOfDomain, UnstableFilter
from besov_robust.wavelets import (
    MAX_ORDER,
    ORTHONORMALITY_TOL,
    WaveletFamily,
    WaveletIndex,
    _torus_points,
    _translates,
    daubechies_filter,
    eval_wavelet,
    orientations,
    wavelet_family,
)

SQRT2 = math.sqrt(2.0)


def pl_inner(values_a: np.ndarray, values_b: np.ndarray, spacing: float) -> float:
    """Exact integral of the product of two piecewise-linear functions sampled
    on the same uniform grid (the product is piecewise quadratic)."""
    a0, a1 = values_a[:-1], values_a[1:]
    b0, b1 = values_b[:-1], values_b[1:]
    return float(spacing / 6.0 * np.sum(2 * a0 * b0 + a0 * b1 + a1 * b0 + 2 * a1 * b1))


class TestFilters:
    def test_haar_filter(self):
        np.testing.assert_allclose(daubechies_filter(1), [1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-15)

    def test_db2_closed_form(self):
        s3 = math.sqrt(3.0)
        ref = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2)
        np.testing.assert_allclose(daubechies_filter(2), ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,tol", [(1, 1e-14), (2, 1e-13), (3, 1e-13), (4, 1e-12), (6, 1e-10), (8, 1e-7)])
    def test_qmf_identities(self, n, tol):
        h = daubechies_filter(n)
        assert h.size == 2 * n
        assert abs(h.sum() - SQRT2) < tol
        assert abs(np.dot(h, h) - 1.0) < tol
        for l in range(1, n):
            assert abs(np.dot(h[: -2 * l], h[2 * l :])) < tol
        # discrete vanishing moments of the high-pass filter
        w = h.size - 1
        g = np.array([(-1) ** k * h[w - k] for k in range(w + 1)])
        ks = np.arange(w + 1.0)
        for a in range(n):
            assert abs(np.dot(g, ks**a)) < tol * max(1.0, w**a)

    @pytest.mark.parametrize("n", [9, 23, 28, 30, 600, 10**6])
    def test_unstable_orders_are_typed_errors(self, n):
        # every order above MAX_ORDER is refused before the filter is built
        # (db600 once overflowed a float, and db500 took seconds)
        start = time.perf_counter()
        with pytest.raises(UnstableFilter) as info:
            daubechies_filter(n)
        assert isinstance(info.value, BesovRobustError)
        assert isinstance(info.value, ValueError)
        with pytest.raises(UnstableFilter):
            wavelet_family(f"db{n}")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_accepted_orders_meet_tolerance(self, n):
        h = daubechies_filter(n)
        for l in range(n):
            assert abs(np.dot(h[: h.size - 2 * l], h[2 * l :]) - (l == 0)) <= ORTHONORMALITY_TOL

    @pytest.mark.parametrize("name", ["db2", "db3", "db4", "db5"])
    def test_low_orders_build(self, name):
        fam = WaveletFamily(name, int(name[2:]))
        assert fam.h.size == 2 * fam.n_moments

    def test_bad_names(self):
        with pytest.raises(ValueError):
            wavelet_family("sym4")
        with pytest.raises(ValueError):
            wavelet_family("dbx")
        with pytest.raises(ValueError):
            daubechies_filter(0)

    @pytest.mark.parametrize("name", ["db 3", "db03", "db+3", "db\u0663", "db3 ", "db3\n", "DB3", "db", "db0", "Haar"])
    def test_names_outside_the_grammar(self, name):
        with pytest.raises(ValueError, match="unknown wavelet family"):
            wavelet_family(name)

    def test_residual_check_guards_accepted_orders(self, monkeypatch):
        monkeypatch.setattr(wavelets, "ORTHONORMALITY_TOL", 1e-30)
        with pytest.raises(UnstableFilter, match="misses orthonormality"):
            daubechies_filter(MAX_ORDER)

    def test_db1_aliases_haar(self):
        assert wavelet_family("db1").name == "haar"


class TestTables:
    @pytest.mark.parametrize("name", ["db2", "db3", "db4"])
    def test_integer_values_satisfy_refinement(self, name):
        fam = wavelet_family(name)
        w = fam.support_width
        ints = fam.phi_values[:: 2**fam.cascade_depth]
        assert ints[0] == 0.0 and ints[-1] == 0.0
        for i in range(w + 1):
            rhs = SQRT2 * sum(
                fam.h[k] * ints[2 * i - k] for k in range(w + 1) if 0 <= 2 * i - k <= w
            )
            assert abs(ints[i] - rhs) < 1e-13

    def test_db2_integer_values_closed_form(self):
        fam = wavelet_family("db2")
        ints = fam.phi_values[:: 2**fam.cascade_depth]
        s3 = math.sqrt(3.0)
        np.testing.assert_allclose(ints, [0.0, (1 + s3) / 2, (1 - s3) / 2, 0.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["db2", "db3", "db4"])
    def test_partition_of_unity_at_nodes(self, name):
        fam = wavelet_family(name)
        w, m = fam.support_width, fam.cascade_depth
        pu = fam.phi_values[:-1].reshape(w, 2**m).sum(axis=0)
        assert np.max(np.abs(pu - 1.0)) < 1e-12

    @pytest.mark.parametrize("name", ["db2", "db3", "db4"])
    def test_table_integrals(self, name):
        # trapezoid is the exact integral of the piecewise-linear interpolant
        fam = wavelet_family(name)
        dx = 2.0**-fam.cascade_depth
        assert abs(np.trapezoid(fam.phi_values, dx=dx) - 1.0) < 1e-12
        assert abs(np.trapezoid(fam.psi_values, dx=dx)) < 1e-12

    def test_cross_depth_dyadic_agreement(self):
        # values at dyadic points are exact, so depths must agree there
        f12 = wavelet_family("db2", cascade_depth=12)
        f16 = wavelet_family("db2", cascade_depth=16)
        for x in (0.5, 0.25, 1.0, 1.75, 2.625):
            a = f12.father_values(np.array([x]))[0]
            b = f16.father_values(np.array([x]))[0]
            assert abs(a - b) < 1e-6  # exact in fact
            assert a == b

    # SHA-256 of the int64 bits of (phi_values, psi_values) at depth 14: a
    # change to the cascade that moves any table bit moves every table lookup
    TABLE_SHA256 = {
        "db2": ("aadafadc44ba628c10166a1b0fdb0ef0e4ce4c247d8b7f7954457a978e55f9b6",
                "41266fee4a035224eab779a6e2a3ab5436cedc012012f1793ec807df59260078"),
        "db3": ("ac503af9757f5b5af58d171f20bfcb3bf042e6ffd1cc98c48ff342226042863d",
                "2c4b82d731dc0cfdeb416451ed9b8e5a214f6aac28329014f34e93da6539f462"),
        "db4": ("61c28ac81824de5fa88fe0742f764c3dbd30f9f1361945d249e33a1efb09de88",
                "0cb7bf332926dad40f22c34ec50f5bca3814a6f11e102156ab8bc26334fbba7d"),
        "db5": ("b38ad4726d7dfd5dbd8773a789bf4898ae9913b46e11274dad506d1127e01e57",
                "d028ad24985ff596aa89bbc31cb8362b615a634dda5d1de88084391c777461c3"),
        "db6": ("22deeab4f665a3eed97c626bf06dd6032f67ec747cd85fb1c9fc88e9a05cb0a4",
                "528a222f6d2cb730c855e3b9b4c50ebed19aeb145b58cb8463dfbcf7ef7c189b"),
        "db7": ("71dfbe0d8ed9b5eb0d8892e3163cbad5e4836129b0e4d082280b2deb5a6bc5e3",
                "8e7aaa2d5102b9a8a156c402e225ce0fdeca21335c371861a56527ea524c49e3"),
        "db8": ("5918c3fc74648e4a78458a080c0725d9e03e880d96d2740f4f6576e75b32ff01",
                "be926182daf9d9121e7762c67b2264791a8827ba840886d2dd7a98b3d1dd1c15"),
    }

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("name", sorted(TABLE_SHA256))
    def test_tables_keep_their_bits(self, name):
        fam = wavelet_family(name)
        got = tuple(
            hashlib.sha256(np.ascontiguousarray(t).view(np.int64).tobytes()).hexdigest()
            for t in (fam.phi_values, fam.psi_values)
        )
        assert got == self.TABLE_SHA256[name]

    @pytest.mark.parametrize("name", ["db2", "db3", "db5", "db8"])
    def test_refine_slices_equal_masked_gathers(self, name):
        # the gather each sliced add replaced: every fine odd node, masked to
        # the coarse nodes in range, tap by tap
        h = wavelet_family(name).h
        v = wavelets._integer_values(h)
        want = v
        for t in range(1, 7):
            new = np.zeros(2 * want.size - 1)
            new[::2] = want
            src_all = np.arange(1, new.size, 2)
            acc = np.zeros(src_all.size)
            for k in range(h.size):
                src = src_all - k * 2 ** (t - 1)
                ok = (src >= 0) & (src < want.size)
                acc[ok] += SQRT2 * h[k] * want[src[ok]]
            new[1::2] = acc
            want = new
            got = wavelets._refine(v, h, t)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_sup_and_periodization_bounds(self):
        haar = wavelet_family("haar")
        assert haar.phi_sup == haar.psi_sup == 1.0
        assert haar.pb_phi == haar.pb_psi == 1.0
        db2 = wavelet_family("db2")
        assert db2.psi_sup > 1.7
        assert db2.pb_phi >= db2.phi_sup  # sum over shifts dominates any single one


def _pl_moment(table, depth, a):
    """Exact int x^a f(x) dx for the piecewise-linear table function."""
    h = 2.0**-depth
    x0 = np.arange(table.size - 1) * h
    nodes, wts = np.polynomial.legendre.leggauss(8)
    tot = 0.0
    for t, wt in zip(nodes, wts):
        xm = x0 + (t + 1) / 2 * h
        fm = table[:-1] + (t + 1) / 2 * (table[1:] - table[:-1])
        tot += wt * np.sum(xm**a * fm)
    return tot * h / 2


def _haar_mother_moment(fam, a):
    """int x^a psi for Haar from the two-scale relation psi(x) = sqrt2 sum_k
    g_k phi(2x - k) and the box moments int x^b phi = 1/(b+1):
    2^(-a-1) sqrt2 sum_b C(a, b) / (b+1) sum_k g_k k^(a-b)."""
    ks = np.arange(fam.g.size, dtype=float)
    return 2.0 ** (-a - 1) * SQRT2 * sum(
        math.comb(a, b) / (b + 1) * float(np.sum(fam.g * ks ** (a - b))) for b in range(a + 1)
    )


class TestMoments:
    @pytest.mark.parametrize("name,n", [("haar", 1), ("db2", 2), ("db3", 3), ("db4", 4)])
    def test_vanishing_moments(self, name, n):
        fam = wavelet_family(name)
        if fam.is_haar:
            mom = [_haar_mother_moment(fam, a) for a in range(n + 1)]
        else:
            mom = [_pl_moment(fam.psi_values, fam.cascade_depth, a) for a in range(n + 1)]
        for a in range(n):
            assert abs(mom[a]) < 1e-10
        # the next moment does not vanish
        assert abs(mom[n]) > 1e-4

    @pytest.mark.parametrize("name", ["db2", "db3", "db4"])
    def test_father_table_mass_one(self, name):
        fam = wavelet_family(name)
        assert abs(_pl_moment(fam.phi_values, fam.cascade_depth, 0) - 1.0) < 1e-12

    def test_haar_mother_moments_closed_form(self):
        # int x^a psi = (2^-a - 1)/(a + 1) for the Haar mother
        fam = wavelet_family("haar")
        got = [_haar_mother_moment(fam, a) for a in range(3)]
        np.testing.assert_allclose(got, [0.0, -0.25, -0.25], atol=1e-14)

    @pytest.mark.parametrize("name,n", [("db2", 2), ("db3", 3), ("db4", 4)])
    def test_table_function_moments_vanish(self, name, n):
        # the implemented (interpolated) mother has the same vanishing moments
        fam = wavelet_family(name)
        for a in range(n):
            assert abs(_pl_moment(fam.psi_values, fam.cascade_depth, a)) < 1e-12


def masked_pl_lookup(table, u, depth):
    """The masked lookup that the clamped pl_lookup replaced, kept verbatim
    (unpadded table, positions in units, computed in place) as the oracle."""
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


def lookup_edge_points(fam):
    """Every grid node, +-0, W and just past it, subnormals, +-inf, NaN,
    +-1e300, and random points on and around the support."""
    m, w = fam.cascade_depth, fam.support_width
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, w, np.nextafter(w, 0.0), np.nextafter(w, 9.0), w + 1.0, tiny, -tiny,
               2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e300, -1e300, -1.0, 0.5]
    nodes = np.arange(w * 2**m + 1) / 2**m
    rand = np.random.default_rng(w).uniform(-1.0, w + 1.0, 20000)
    return np.concatenate([special, nodes, nodes + 2.0**-(m + 3), rand])


class TestLookup:
    @pytest.mark.parametrize("name", [f"db{n}" for n in range(2, 9)])
    def test_clamped_lookup_matches_masked_bitwise(self, name):
        fam = wavelet_family(name)
        u = lookup_edge_points(fam)
        for f, table in ((fam.father_values, fam.phi_values), (fam.mother_values, fam.psi_values)):
            want = masked_pl_lookup(table, u.copy(), fam.cascade_depth)
            # int64 views tell +0.0 from -0.0
            assert np.array_equal(f(u).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", [f"db{n}" for n in range(2, 9)])
    def test_tables_are_padded_views_with_zero_ends(self, name):
        fam = wavelet_family(name)
        for values in (fam.phi_values, fam.psi_values):
            padded = values.base
            assert padded is not None and values.size == padded.size - 1
            ends = np.array([values[0], values[-1], padded[-1]])
            assert np.array_equal(ends.view(np.int64), np.zeros(3, dtype=np.int64))

    def test_scalar_input(self):
        fam = wavelet_family("db3")
        assert fam.father_values(1.25) == masked_pl_lookup(fam.phi_values, np.array(1.25), 14)


class TestEvaluation:
    def test_haar_frozen_point(self):
        fam = wavelet_family("haar")
        val = eval_wavelet(fam, WaveletIndex(2, (1,), (1,)), np.array([0.3]))
        assert val == 2.0

    def test_periodized_father_is_one(self):
        # at level 0 every translate is k = 0: the sum of the father at the
        # W positions the translate rule gives is the periodized father
        for name in ("haar", "db2", "db4"):
            fam = wavelet_family(name)
            u, _ = _torus_points(np.linspace(0.0, 1.0, 617)[:, None], 1)
            ks, pos = _translates(u[:, 0], 0, fam.support_width)
            assert not ks.any()
            vals = fam.father_values(pos).sum(axis=1)
            assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_torus_wrap(self):
        fam = wavelet_family("db2")
        idx = WaveletIndex(1, (1,), (1,))
        a = eval_wavelet(fam, idx, np.array([[0.0], [1.0]]))
        assert a[0] == a[1]

    def test_orthonormal_level_normalization(self):
        # L2 norm of a daughter is 1: check on a fine common grid (exact for PL)
        fam = wavelet_family("db3")
        idx = WaveletIndex(2, (3,), (1,))
        fine = fam.cascade_depth + 2
        grid = np.linspace(0.0, 1.0, 2**fine + 1)[:, None]
        vals = eval_wavelet(fam, idx, grid)
        assert abs(pl_inner(vals, vals, 2.0**-fine) - 1.0) < 1e-6

    def test_eval_validates_index(self):
        fam = wavelet_family("haar")
        with pytest.raises(ValueError):
            eval_wavelet(fam, WaveletIndex(1, (2,), (1,)), np.array([0.5]))
        with pytest.raises(ValueError):
            eval_wavelet(fam, WaveletIndex(1, (0,), (0,)), np.array([0.5]))
        with pytest.raises(ValueError):
            eval_wavelet(fam, WaveletIndex(1, (0, 0), (1, 1)), np.array([0.5]))

    @pytest.mark.parametrize(
        "index",
        [
            WaveletIndex(1, (0,), (2,)), WaveletIndex(1.5, (0,), (1,)), WaveletIndex(True, (0,), (1,)),
            WaveletIndex(1, (0,), (True,)), WaveletIndex(1, (0,), (1.0,)),
        ],
        ids=["e=2", "j=1.5", "j=True", "e=True", "e=1.0"],
    )
    @pytest.mark.parametrize("name", ["haar", "db2"])
    def test_eval_refuses_what_a_tree_refuses(self, name, index):
        # the one index rule: what `CoefficientTree.set` refuses is no daughter
        fam = wavelet_family(name)
        with pytest.raises(ValueError, match="bad index"):
            eval_wavelet(fam, index, np.array([0.3]))
        with pytest.raises(ValueError, match="bad index"):
            CoefficientTree(fam, 1).set(index, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["haar", "db3"])
    def test_eval_refuses_non_finite_points(self, name, bad):
        fam = wavelet_family(name)
        for idx, pts in (
            (WaveletIndex(1, (0,), (1,)), np.array([[0.25], [bad]])),
            (WaveletIndex(1, (0, 1), (1, 0)), np.array([0.25, bad])),
        ):
            with pytest.raises(OutOfDomain, match="points contain non-finite values"):
                eval_wavelet(fam, idx, pts)

    def test_tensor_orientation_haar(self):
        fam = wavelet_family("haar")
        # e = (1, 0): mother along axis 0, father along axis 1
        idx = WaveletIndex(1, (0, 0), (1, 0))
        val = eval_wavelet(fam, idx, np.array([0.1, 0.3]))
        assert val == 2.0  # 2^{D j/2} = 2, psi(0.2) = 1, phi(0.6) = 1


class TestOrthonormality:
    def test_gram_matrix_db2(self):
        # worst family at the default depth; levels 0..4 plus the constant father
        fam = wavelet_family("db2")
        maxlev = 4
        fine = fam.cascade_depth + maxlev
        grid = np.linspace(0.0, 1.0, 2**fine + 1)[:, None]
        funcs = [np.ones(grid.shape[0])]
        for j in range(maxlev + 1):
            for k in range(2**j):
                funcs.append(eval_wavelet(fam, WaveletIndex(j, (k,), (1,)), grid))
        h = 2.0**-fine
        worst = max(
            abs(pl_inner(funcs[a], funcs[b], h) - (1.0 if a == b else 0.0))
            for a in range(len(funcs))
            for b in range(a, len(funcs))
        )
        assert worst < 1e-6

    def test_gram_matrix_haar_exact(self):
        # midpoint sums are exact for piecewise-constant functions on dyadic cells
        fam = wavelet_family("haar")
        maxlev = 4
        fine = maxlev + 2
        mids = ((np.arange(2**fine) + 0.5) / 2**fine)[:, None]
        funcs = [np.ones(mids.shape[0])]
        for j in range(maxlev + 1):
            for k in range(2**j):
                funcs.append(eval_wavelet(fam, WaveletIndex(j, (k,), (1,)), mids))
        for a in range(len(funcs)):
            for b in range(a, len(funcs)):
                ip = np.mean(funcs[a] * funcs[b])
                assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12


class TestActiveIndices:
    """The orientations every level's indices run over."""

    def test_orientations_enumeration(self):
        assert list(orientations(1)) == [(1,)]
        assert len(list(orientations(3))) == 7
