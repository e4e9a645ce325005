import hashlib
import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdetect.eigen import power_leading
from cbdetect.model import CbmParams, empirical_alpha, generate, index_dtype
from cbdetect.operators import DirectedEdgeIndex, SparseMatrix, build_bethe_hessian, build_bprime
from cbdetect.rng import derive_seed, substream
from conftest import dense_weight_matrix, make_instance
from oracles import bprime_eigvec_relations_check, build_b, degrees, edge_weights, from_coo, reversal, tails

TRIANGLE_SPECTRUM = np.sort_complex(
    np.array([1.0, 1.0, np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 3),
              np.exp(-2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
)

# blake2b-128 of indptr and indices (as int64 bytes, so the integer
# content is pinned whatever the index dtype) and of data, per operator,
# on generate(CbmParams(n=200, alpha=6, epsilon=0.25, seed=7))
GOLDEN_DIGESTS = {
    "bprime": (400, 1465, [
        "88a50ec4e998687d001190f6fdd1733b",
        "6fc14cfc34e261c5ddfe5e20ed236c29",
        "b85a54bca15e3c02663221778c7ab4f8",
    ]),
    "bethe_hessian": (200, 1270, [
        "c0c9dea3288c2de117658168fbb5eafd",
        "7df39ed9f81f9b0220ed37c2feedb36c",
        "3677445f4104c36803c044d4a8f89485",
    ]),
    "b": (1070, 5802, [  # directed edges in halves
        "e3fed9f3b3e44a95fc6a45ddf145121e",
        "22c25d3daed6c3daf04d73a28b925c75",
        "983be57c4d8ff2506ee63c0961806c20",
    ]),
}


def assert_multiset_close(got, want, tol=1e-6):
    """Match eigenvalue multisets greedily; robust to ordering jitter at multiplicities."""
    got = list(got)
    assert len(got) == len(want)
    for w in want:
        errs = [abs(g - w) for g in got]
        k = int(np.argmin(errs))
        assert errs[k] < tol, f"no match for {w}: best {errs[k]}"
        got.pop(k)


class TestSparseMatrix:
    def test_matvec_identity_pattern(self):
        m = from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
        v = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(m.matvec(v), v)

    def test_matvec_dimension_mismatch(self):
        m = from_coo(2, 3, [0], [1], [1.0])
        with pytest.raises(ValueError):
            m.matvec(np.ones(2))

    def test_matvec_matches_dense_on_random_pairs(self):
        # 1000 random (M, v) pairs at n <= 50, relative error 1e-12
        rng = substream(30, "pairs")
        count = 0
        for k in range(100):
            inst = generate(
                CbmParams(n=10 + k % 41, alpha=4.0, epsilon=0.25, seed=derive_seed(30, "mv", k))
            )
            mats = [build_bprime(inst), build_bethe_hessian(inst, 1.3)]
            dense = [m.toarray() for m in mats]
            for _ in range(5):
                for m, d in zip(mats, dense):
                    v = rng.standard_normal(m.shape[1])
                    got, want = m.matvec(v), d @ v
                    scale = np.linalg.norm(want) or 1.0
                    assert np.linalg.norm(got - want) / scale < 1e-12
                    count += 1
        assert count == 1000

    def test_is_symmetric_compares_values(self):
        # an explicit zero at (0, 1) matches the absent (1, 0)
        assert SparseMatrix(([1.0, 0.0, 2.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2)).is_symmetric()
        assert not from_coo(2, 2, [0, 1], [1, 0], [1.0, -1.0]).is_symmetric()
        assert not from_coo(2, 3, [0], [0], [1.0]).is_symmetric()

    @staticmethod
    def _spy_elementwise(monkeypatch):
        """Count the calls of scipy's elementwise != that is_symmetric falls back to."""
        calls = []
        original = scipy.sparse.csr_array.__ne__

        def spy(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(scipy.sparse.csr_array, "__ne__", spy)
        return calls

    def test_is_symmetric_mirrored_structure_decided_by_values(self, monkeypatch):
        calls = self._spy_elementwise(monkeypatch)
        assert not from_coo(3, 3, [0, 1, 2], [1, 0, 2], [1.0, 2.0, 5.0]).is_symmetric()
        assert from_coo(3, 3, [0, 1, 2], [1, 0, 2], [2.0, 2.0, 5.0]).is_symmetric()
        inst = generate(CbmParams(n=200, alpha=6, epsilon=0.25, seed=7))
        assert build_bethe_hessian(inst, 2.0).is_symmetric()
        assert calls == []

    def test_is_symmetric_fallback_on_structure(self, monkeypatch):
        calls = self._spy_elementwise(monkeypatch)
        # explicit zero against an absent entry: structures differ, values agree
        assert SparseMatrix(([1.0, 0.0, 2.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2)).is_symmetric()
        # unsorted columns in row 0
        assert SparseMatrix(([4.0, 1.0, 4.0], [1, 0, 0], [0, 2, 3]), shape=(2, 2)).is_symmetric()
        # duplicates: (0, 1) = 1 + 2 and (1, 0) = 2 + 1, stored in mirrored order
        assert SparseMatrix(([1.0, 2.0, 2.0, 1.0], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2)).is_symmetric()
        assert not SparseMatrix(([1.0, 2.0, 2.0, 2.0], [1, 1, 0, 0], [0, 2, 4]), shape=(2, 2)).is_symmetric()
        assert len(calls) == 4

    def test_from_coo_rejects_duplicates(self):
        with pytest.raises(ValueError):
            from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="index pointer size 2 should be 3"):
            SparseMatrix(([1.0], [0], [0, 1]), shape=(2, 2))  # offsets wrong length
        with pytest.raises(ValueError, match="indices must be < 1"):
            SparseMatrix(([1.0], [2], [0, 1]), shape=(1, 1))  # column out of range
        with pytest.raises(ValueError, match="values must be finite"):
            SparseMatrix(([np.inf], [0], [0, 1]), shape=(1, 1))  # non-finite

    def test_is_a_read_only_csr_array(self):
        inst = generate(CbmParams(n=100, alpha=6, epsilon=0.25, seed=5))
        h, bprime = build_bethe_hessian(inst, 2.0), build_bprime(inst)
        for m in (bprime, h):
            assert isinstance(m, scipy.sparse.csr_array)
            # the aliases the benchmark tracer reads are scipy's own arrays
            assert m.row_offsets is m.indptr and m.col_indices is m.indices and m.values is m.data
            assert (m.nrows, m.ncols) == m.shape
            with pytest.raises(ValueError, match="read-only"):
                m.data[0] = 1.0
            copy = m.copy()  # scipy builds its results through self.__class__
            assert type(copy) is SparseMatrix and np.array_equal(copy.toarray(), m.toarray())
        assert (h != h.T.tocsr()).nnz == 0
        assert (bprime != bprime.T.tocsr()).nnz > 0

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_matvec_property(self, seed):
        inst = generate(CbmParams(n=20, alpha=4, epsilon=0.25, seed=seed))
        m = build_bprime(inst)
        v = substream(seed, "v").standard_normal(m.shape[1])
        want = m.toarray() @ v
        scale = np.linalg.norm(want) or 1.0
        assert np.linalg.norm(m.matvec(v) - want) / scale < 1e-12


class TestGoldenOperators:
    """The assembled CSR arrays are pinned bit for bit: integer content, values and dtypes."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_csr_arrays_match_digests(self, name):
        inst = generate(CbmParams(n=200, alpha=6, epsilon=0.25, seed=7))
        build = {
            "bprime": build_bprime,
            "bethe_hessian": lambda i: build_bethe_hessian(i, math.sqrt(empirical_alpha(i))),
            "b": build_b,
        }[name]
        m = build(inst)
        got = [
            hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
            for a in (m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data)
        ]
        assert (m.shape[0], m.nnz, got) == GOLDEN_DIGESTS[name]
        assert [a.dtype.str for a in (m.indptr, m.indices, m.data)] == ["<i4", "<i4", "<f8"]


class TestIndexDtype:
    def test_rule_on_sizes(self):
        assert index_dtype(10, 2**31 - 1) == np.int32
        assert index_dtype(2**31) == np.int64
        assert index_dtype(5, 2**31, 7) == np.int64
        assert index_dtype(2**40) == np.int64

    def test_matrix_and_edge_index_follow_it(self):
        inst = generate(CbmParams(n=300, alpha=6, epsilon=0.25, seed=2))
        for m in (build_bprime(inst), build_bethe_hessian(inst, 2.0), build_b(inst)):
            assert m.indptr.dtype == m.indices.dtype == np.int32
        assert DirectedEdgeIndex.from_instance(inst).heads.dtype == np.int32

    def test_wide_indices_validated_before_narrowing(self):
        # 2**32 would wrap to column 0 in int32
        with pytest.raises(ValueError, match="indices must be < 1"):
            SparseMatrix(([1.0], np.array([2**32], dtype=np.int64), [0, 1]), shape=(1, 1))
        with pytest.raises(ValueError, match="index pointer should start with 0"):
            SparseMatrix(([1.0], [0], np.array([-(2**32), 1], dtype=np.int64)), shape=(1, 1))


class TestDirectedEdgeIndex:
    def test_bijection_and_reverse(self, triangle):
        idx = DirectedEdgeIndex.from_instance(triangle)
        assert len(idx.heads) == 6
        pairs = list(zip(tails(idx).tolist(), idx.heads.tolist()))
        assert sorted(pairs) == [(i, j) for i in range(3) for j in range(3) if i != j]
        # position e < m is edge e as i->j (i < j), position e + m its reversal j->i
        assert pairs[:3] == [tuple(e) for e in triangle.edges[:, :2].tolist()]
        assert pairs[3:] == [(j, i) for i, j in pairs[:3]]
        rev = reversal(6)
        assert rev.tolist() == [3, 4, 5, 0, 1, 2]
        assert np.array_equal(rev[rev], np.arange(6))
        assert np.array_equal(tails(idx)[rev], idx.heads)
        assert np.array_equal(idx.heads[rev], tails(idx))
        assert not idx.heads.flags.writeable


class TestNonBacktracking:
    def test_single_edge_is_zero_matrix(self, single_edge):
        b = build_b(single_edge)
        assert b.shape[0] == 2 and b.nnz == 0
        assert np.array_equal(b.toarray(), np.zeros((2, 2)))

    def test_triangle_spectrum(self, triangle):
        eig = np.linalg.eigvals(build_b(triangle).toarray())
        assert_multiset_close(eig, TRIANGLE_SPECTRUM)

    def test_path_is_nilpotent(self, path3):
        eig = np.linalg.eigvals(build_b(path3).toarray())
        assert np.max(np.abs(eig)) < 1e-7

    def test_matches_direct_construction(self):
        # independent O(m^2) construction straight from the defining rule
        inst = generate(CbmParams(n=15, alpha=4, epsilon=0.25, seed=8))
        idx = DirectedEdgeIndex.from_instance(inst)
        k = len(idx.heads)
        weights = edge_weights(inst)
        direct = np.zeros((k, k))
        for e in range(k):
            for f in range(k):
                if idx.heads[e] == tails(idx)[f] and tails(idx)[e] != idx.heads[f]:
                    direct[e, f] = weights[f]
        assert np.array_equal(build_b(inst).toarray(), direct)

    def test_nnz_formula(self):
        inst = generate(CbmParams(n=40, alpha=5, epsilon=0.25, seed=9))
        d = degrees(inst)
        assert build_b(inst).nnz == int(np.sum(d * (d - 1)))

    def test_requires_an_edge(self):
        empty = make_instance(3, np.empty((0, 3)))
        with pytest.raises(ValueError):
            build_b(empty)


class TestBPrime:
    def test_single_edge_eigenvalues(self, single_edge):
        eig = np.sort(np.linalg.eigvals(build_bprime(single_edge).toarray()).real)
        assert np.allclose(eig, [-1.0, 0.0, 0.0, 1.0], atol=1e-10)

    def test_triangle_matches_b(self, triangle):
        eig = np.linalg.eigvals(build_bprime(triangle).toarray())
        assert_multiset_close(eig, TRIANGLE_SPECTRUM)

    def test_block_structure(self):
        inst = generate(CbmParams(n=25, alpha=4, epsilon=0.25, seed=14))
        n, d = inst.n, degrees(inst)
        dense = build_bprime(inst).toarray()
        assert np.array_equal(dense[:n, :n], np.zeros((n, n)))
        assert np.array_equal(dense[:n, n:], np.diag(d - 1.0))
        assert np.array_equal(dense[n:, :n], -np.eye(n))
        assert np.array_equal(dense[n:, n:], dense_weight_matrix(inst))

    def test_nnz_block_count(self):
        inst = generate(CbmParams(n=60, alpha=3, epsilon=0.25, seed=15))
        d = degrees(inst)
        expected = int(np.count_nonzero(d != 1)) + inst.n + 2 * inst.m
        assert build_bprime(inst).nnz == expected

    def test_spectra_agree_excluding_unit_eigenvalues(self, small_instances):
        for inst in small_instances[:12]:
            eb = np.linalg.eigvals(build_b(inst).toarray())
            ep = np.linalg.eigvals(build_bprime(inst).toarray())
            keep = lambda e: e[np.minimum(np.abs(e - 1), np.abs(e + 1)) > 1e-4]
            a, b = keep(eb), keep(ep)
            assert len(a) == len(b)
            a = a[np.lexsort((a.imag, a.real))]
            b = b[np.lexsort((b.imag, b.real))]
            assert np.max(np.abs(a - b)) < 1e-6


class TestBetheHessian:
    def test_entries(self):
        inst = make_instance(4, [[0, 1, 1], [1, 2, -1]])
        x = 1.5
        h = build_bethe_hessian(inst, x).toarray()
        d = degrees(inst)
        for i in range(4):
            assert h[i, i] == x * x - 1 + d[i]
        assert h[0, 1] == -x and h[1, 2] == x and h[0, 2] == 0.0
        # node 3 is isolated: a single diagonal entry
        assert np.count_nonzero(h[3]) == 1 and h[3, 3] == x * x - 1

    def test_triangle_closed_form(self, triangle):
        x = math.sqrt(2)
        eig = np.sort(np.linalg.eigvalsh(build_bethe_hessian(triangle, x).toarray()))
        want = np.sort([3 - 2 * x, 3 + x, 3 + x])
        assert np.allclose(eig, want, atol=1e-10)

    def test_exact_symmetry(self):
        inst = generate(CbmParams(n=200, alpha=6, epsilon=0.3, seed=21))
        h = build_bethe_hessian(inst, math.sqrt(6))
        assert h.is_symmetric()
        dense = h.toarray()
        assert np.max(np.abs(dense - dense.T)) == 0.0

    def test_large_x_positive_definite(self):
        inst = generate(CbmParams(n=150, alpha=6, epsilon=0.25, seed=22))
        h = build_bethe_hessian(inst, 100.0)
        d = degrees(inst).astype(float)
        assert np.all(100.0**2 - 1 + d > 100.0 * d)  # diagonal dominance
        assert np.linalg.eigvalsh(h.toarray()).min() > 0

    def test_interlacing_count(self):
        # number of negative eigenvalues of H(x) equals the number of real
        # eigenvalues of B' above x, for x > 1 between eigenvalues
        for k in range(6):
            inst = generate(
                CbmParams(n=10 + 3 * k, alpha=6.0, epsilon=(0.1, 0.25, 0.4)[k % 3],
                          seed=derive_seed(6, "interlace", k))
            )
            if inst.m < inst.n:
                continue
            ev = np.linalg.eigvals(build_bprime(inst).toarray())
            realev = np.sort(ev[np.abs(ev.imag) < 1e-8].real)
            if realev.size == 0:
                continue
            grid = np.concatenate([realev, [realev.max() + 1.0]])
            xs = [0.5 * (a + b) for a, b in zip(grid[:-1], grid[1:])]
            xs.append(realev.max() + 0.7)
            for x in xs:
                if x <= 1.0 or np.min(np.abs(realev - x)) < 1e-3:
                    continue
                h = build_bethe_hessian(inst, float(x)).toarray()
                assert int((np.linalg.eigvalsh(h) < 0).sum()) == int((realev > x).sum())


class TestIharaBass:
    def test_bprime_eigenvalues_make_h_singular(self, small_instances):
        for inst in small_instances[:10]:
            j = dense_weight_matrix(inst)
            d = np.diag(degrees(inst).astype(float))
            eye = np.eye(inst.n)
            for lam in np.linalg.eigvals(build_bprime(inst).toarray()):
                if min(abs(lam - 1), abs(lam + 1)) <= 1e-6:
                    continue
                sv = np.linalg.svd((lam**2 - 1) * eye - lam * j + d, compute_uv=False)
                assert sv[-1] < 1e-6 * sv[0]


class TestEigvecRelations:
    def test_planted_leading_pair(self):
        inst = generate(CbmParams(n=500, alpha=8, epsilon=0.25, seed=77))
        res = power_leading(build_bprime(inst))
        diag = bprime_eigvec_relations_check(inst, res.value, res.vector)
        assert diag.relation_residual < 1e-8 * 10  # residual contract is 1e-8 relative
        assert diag.b_residual < 1e-6

    def test_reconstruction_small_instances(self):
        for k in range(5):
            inst = generate(
                CbmParams(n=120 + 15 * k, alpha=8, epsilon=0.1, seed=derive_seed(3, "rel", k))
            )
            res = power_leading(build_bprime(inst))
            diag = bprime_eigvec_relations_check(inst, res.value, res.vector)
            assert diag.b_residual < 1e-6

    def test_unit_eigenvalue_rejected(self, triangle):
        with pytest.raises(ValueError):
            bprime_eigvec_relations_check(triangle, 1.0, np.ones(6))
        with pytest.raises(ValueError):
            bprime_eigvec_relations_check(triangle, -1.0 + 1e-9, np.ones(6))
