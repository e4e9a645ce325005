"""Sparse operators built from an instance, stored as scipy CSR.

Two matrices drive the detection algorithms:

* B', the 2n x 2n reduction [[0, D-I], [-I, J]] of the weighted
  non-backtracking operator B on the 2m directed edges, which it shares
  every eigenvalue with other than +-1;
* H(x) = (x^2-1)*I - x*J + D, the real symmetric operator whose
  negative directions at x = sqrt(avg degree) signal detectable
  structure.

Each is assembled from coordinate triples into one canonical
``SparseMatrix``, a ``scipy.sparse.csr_array`` (rows in order, columns
sorted within a row).  ``DirectedEdgeIndex`` numbers the directed edges
for BP.

Index arrays (CSR offsets and columns, assembly coordinates, directed-edge
heads) are int32 while the dimension, the nnz and 2m are below 2**31, and
int64 beyond; ``index_dtype`` is that one rule (docs/decisions.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .model import CbmInstance


def index_dtype(*sizes: int) -> type:
    """int32 while every size is below 2**31, else int64."""
    return np.int32 if max(sizes, default=0) < 2**31 else np.int64


class SparseMatrix(scipy.sparse.csr_array):
    """A ``scipy.sparse.csr_array`` checked in full on construction.

    Construction adds scipy's full format check (offset length and order,
    column range) and a finite-values check.  Builders go through
    ``from_coo``, whose index arrays take the ``index_dtype`` of the shape
    and the nnz and whose three arrays are read-only.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.check_format(full_check=True)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("values must be finite")

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals) -> "SparseMatrix":
        """Canonical CSR from coordinates; int32 coordinates pass to scipy without a copy."""
        vals = np.asarray(vals, dtype=np.float64)
        csr = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
        if csr.nnz != len(vals):  # tocsr sums duplicates into one entry
            raise ValueError("duplicate entry in sparse assembly")
        # narrowed only after coo_array has range-checked the coordinates, so nothing wraps
        idx = index_dtype(nrows, ncols, csr.nnz)
        indices, indptr = csr.indices.astype(idx, copy=False), csr.indptr.astype(idx, copy=False)
        matrix = cls((csr.data, indices, indptr), shape=(nrows, ncols))
        for arr in (matrix.indptr, matrix.indices, matrix.data):
            arr.setflags(write=False)
        return matrix

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
    """Ordinals k in [0, 2m) for the directed edges i->j.

    Undirected edge e gets ordinals 2e (i->j with i<j) and 2e+1 (j->i),
    so the reversal i->j <-> j->i is the bit flip k ^ 1 and the tail of k
    is the head of k ^ 1; only the heads are stored.  Both orientations
    carry the weight of the underlying edge.
    """

    heads: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_instance(cls, instance: CbmInstance) -> "DirectedEdgeIndex":
        i, j, w = instance.edges[:, 0], instance.edges[:, 1], instance.edges[:, 2]
        m = instance.m
        heads = np.empty(2 * m, dtype=index_dtype(instance.n, 2 * m))
        weights = np.empty(2 * m, dtype=np.float64)
        heads[0::2], heads[1::2] = j, i
        weights[0::2] = weights[1::2] = w
        for arr in (heads, weights):
            arr.setflags(write=False)
        return cls(heads=heads, weights=weights)

    @property
    def count(self) -> int:
        return len(self.heads)


def build_bprime(instance: CbmInstance) -> SparseMatrix:
    """The 2n x 2n reduction [[0, D-I], [-I, J]] of the non-backtracking operator."""
    n = instance.n
    deg = instance.degrees()
    top = np.flatnonzero(deg != 1)  # degree-1 rows of D-I vanish; drop the explicit zeros
    idx = index_dtype(2 * n, len(top) + n + 2 * instance.m)
    top = top.astype(idx)
    node = np.arange(n, dtype=idx)
    ij = instance.edges[:, :2].astype(idx) + n
    w = instance.edges[:, 2].astype(np.float64)
    rows = np.concatenate([top, node + n, ij[:, 0], ij[:, 1]])
    cols = np.concatenate([top + n, node, ij[:, 1], ij[:, 0]])
    vals = np.concatenate([(deg[top] - 1).astype(np.float64), -np.ones(n), w, w])
    del ij, w  # freed before the CSR conversion, which holds the triples and the result at once
    return SparseMatrix.from_coo(2 * n, 2 * n, rows, cols, vals)


def build_bethe_hessian(instance: CbmInstance, x: float) -> SparseMatrix:
    """H(x) = (x^2-1)*I - x*J + D, real symmetric."""
    n = instance.n
    deg = instance.degrees()
    idx = index_dtype(n, n + 2 * instance.m)
    node = np.arange(n, dtype=idx)
    ij = instance.edges[:, :2].astype(idx)
    rows = np.concatenate([node, ij[:, 0], ij[:, 1]])
    cols = np.concatenate([node, ij[:, 1], ij[:, 0]])
    offdiag = -x * instance.edges[:, 2].astype(np.float64)
    vals = np.concatenate([x * x - 1.0 + deg.astype(np.float64), offdiag, offdiag])
    del ij, offdiag  # freed before the CSR conversion, as in build_bprime
    return SparseMatrix.from_coo(n, n, rows, cols, vals)
