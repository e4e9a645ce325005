"""Sparse operators built from an instance, stored as scipy CSR.

Two matrices drive the detection algorithms:

* B', the 2n x 2n reduction [[0, D-I], [-I, J]] of the weighted
  non-backtracking operator B on the 2m directed edges, which it shares
  every eigenvalue with other than +-1;
* H(x) = (x^2-1)*I - x*J + D, the real symmetric operator whose
  negative directions at x = sqrt(avg degree) signal detectable
  structure.

Each is assembled row by row from the sorted edge list into one canonical
``SparseMatrix``, a ``scipy.sparse.csr_array`` (rows in order, columns
sorted within a row).  ``DirectedEdgeIndex`` holds the heads of the
directed edges for BP, in halves: edge e as i->j at e, as j->i at e + m.

Index arrays (CSR offsets and columns, directed-edge heads) are int32
while the dimension, the nnz and 2m are below 2**31, and int64 beyond;
``model.index_dtype`` is that one rule, for the instance's edges too
(docs/decisions.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .model import CbmInstance, index_dtype


class SparseMatrix(scipy.sparse.csr_array):
    """A ``scipy.sparse.csr_array`` checked in full on construction.

    Construction adds scipy's full format check (offset length and order,
    column range) and a finite-values check.  The builders pass index arrays
    of the ``index_dtype`` of the shape and the nnz and make all three
    arrays read-only.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.check_format(full_check=True)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("values must be finite")

    # Kept for perfbench/tracing.py, their only reader: it patches matvec and
    # is_symmetric through SparseMatrix.__dict__, so both stay in this class body,
    # and its matvec counter reads these five read-only aliases of scipy's
    # attributes.  They go when the package traces itself (ROADMAP item 5).
    nrows = property(lambda self: self.shape[0])
    ncols = property(lambda self: self.shape[1])
    row_offsets = property(lambda self: self.indptr)
    col_indices = property(lambda self: self.indices)
    values = property(lambda self: self.data)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.shape[1],):
            raise ValueError(f"expected vector of length {self.shape[1]}, got shape {v.shape}")
        return self @ v

    def is_symmetric(self) -> bool:
        """Square with equal values at (i, j) and (j, i).

        Compares values, not stored structure: an explicit zero matches an
        absent entry.  When the transpose of a canonical matrix (sorted, no
        duplicates) has the same structure, the value arrays decide;
        otherwise scipy compares element by element.
        """
        if self.shape[0] != self.shape[1]:
            return False
        mirror = self.T.tocsr()
        if (
            np.array_equal(mirror.indptr, self.indptr)
            and np.array_equal(mirror.indices, self.indices)
            and self.has_canonical_format
        ):
            return np.array_equal(mirror.data, self.data)
        return (self != mirror).nnz == 0


@dataclass(frozen=True)
class DirectedEdgeIndex:
    """Heads of the 2m directed edges, stored in halves.

    Position e < m is undirected edge e as i->j (i < j), position e + m its
    reversal j->i, so ``heads`` is [j, i] and the reversal of k is
    (k + m) mod 2m.  Both orientations carry the edge's weight,
    ``instance.edges[:, 2]``.
    """

    heads: np.ndarray

    @classmethod
    def from_instance(cls, instance: CbmInstance) -> "DirectedEdgeIndex":
        idx = index_dtype(instance.n, 2 * instance.m)
        heads = np.concatenate((instance.edges[:, 1], instance.edges[:, 0]), dtype=idx)
        heads.setflags(write=False)
        return cls(heads=heads)


def _triangles(instance: CbmInstance, idx) -> tuple:
    """J's lower and upper triangles as CSR parts (offsets, columns, +-1 weights).

    The sorted edge list is the upper triangle's CSR as it stands, so its
    part reads the edge columns in place; scipy's C conversion to CSC gives
    the transpose, the lower triangle, in new arrays with the columns sorted
    within each row.  Nothing is sorted here.
    """
    n = instance.n
    i, j, w = instance.edges.T
    ptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(i, minlength=n), out=ptr[1:])
    lower = scipy.sparse.csr_array((w.copy(), j.astype(idx), ptr), shape=(n, n)).tocsc()
    # the CSC arrays, read as CSR, are the transpose
    return (lower.indptr.astype(idx, copy=False), lower.indices.astype(idx, copy=False), lower.data), (ptr, j, w)


def _stack_rows(idx, head: int, parts) -> tuple:
    """CSR offsets, columns and values whose row r lists row r of each part in turn.

    A part is (offsets, columns, values) over the same rows; in every row a
    part's columns are sorted and lie left of the next part's, so the result
    is canonical without a sort.  The first ``head`` entries are left unset.
    Each part is taken off the list once placed, so it is freed unless the
    caller still holds it.
    """
    indptr = np.full(len(parts[0][0]), head, dtype=idx)
    for ptr, _, _ in parts:
        indptr += ptr
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    start = indptr[:-1].copy()  # where the next part's entries begin in each row
    while parts:
        ptr, cols, vals = parts.pop(0)
        counts = np.diff(ptr)
        dest = np.repeat(start - ptr[:-1], counts)
        dest += np.arange(len(dest), dtype=idx)
        indices[dest] = cols
        data[dest] = vals
        start += counts
    return indptr, indices, data


def _read_only(shape, indptr, indices, data) -> SparseMatrix:
    matrix = SparseMatrix((data, indices, indptr), shape=shape)
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        arr.setflags(write=False)
    return matrix


def build_bprime(instance: CbmInstance) -> SparseMatrix:
    """The 2n x 2n reduction [[0, D-I], [-I, J]] of the non-backtracking operator.

    Top row v holds d_v - 1 at column n + v, dropped where the degree is 1;
    bottom row n + v holds -1 at column v, then row v of J shifted n columns right.
    """
    n = instance.n
    idx = index_dtype(2 * n, 2 * n + 2 * instance.m)
    lower, upper = _triangles(instance, idx)
    deg = np.diff(lower[0]) + np.diff(upper[0])
    top = np.flatnonzero(deg != 1)  # degree-1 rows of D-I vanish; no explicit zeros
    node = np.arange(n + 1, dtype=idx)
    parts = [(node, node[:-1], -1.0), lower, upper]
    del lower  # freed once placed
    indptr, indices, data = _stack_rows(idx, len(top), parts)
    indices[len(top) :] += n  # J's columns lie in the right half,
    indices[indptr[:-1]] -= n  # -I's, first in each bottom row, in the left
    indices[: len(top)] = top + n
    data[: len(top)] = deg[top] - 1
    top_ptr = np.zeros(n, dtype=idx)
    np.cumsum(deg[:-1] != 1, dtype=idx, out=top_ptr[1:])
    return _read_only((2 * n, 2 * n), np.concatenate((top_ptr, indptr)), indices, data)


def build_bethe_hessian(instance: CbmInstance, x: float) -> SparseMatrix:
    """H(x) = (x^2-1)*I - x*J + D, real symmetric.

    Row v holds J's entries left of the diagonal, the diagonal, then those right of it.
    """
    n = instance.n
    idx = index_dtype(n, n + 2 * instance.m)
    lower, upper = _triangles(instance, idx)
    lower_counts = np.diff(lower[0])
    deg = lower_counts + np.diff(upper[0])
    node = np.arange(n + 1, dtype=idx)
    parts = [lower, (node, node[:-1], 0.0), upper]
    del lower  # freed once placed
    indptr, indices, data = _stack_rows(idx, 0, parts)
    data *= -x  # J's entries: w * -x rounds as -x * w
    data[indptr[:-1] + lower_counts] = x * x - 1.0 + deg.astype(np.float64)
    return _read_only((n, n), indptr, indices, data)
