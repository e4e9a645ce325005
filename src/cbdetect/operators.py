"""Sparse operators built from an instance, stored as scipy CSR.

Three matrices drive the detection algorithms:

* B, the weighted non-backtracking operator on the 2m directed edges:
  B[(i->j),(k->l)] = J_kl * 1(j=k) * 1(i!=l);
* B', the 2n x 2n reduction [[0, D-I], [-I, J]] that carries every
  eigenvalue of B other than +-1;
* H(x) = (x^2-1)*I - x*J + D, the real symmetric operator whose
  negative directions at x = sqrt(avg degree) signal detectable
  structure.

Each is assembled from coordinate triples into one canonical
``scipy.sparse.csr_array`` (rows in order, columns sorted within a row).
B is only materialized on demand (tests, small n), with a vectorised
expansion of each directed edge over its continuations; all large-n
code paths go through B'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .model import CbmInstance

EIG_ONE_TOL = 1e-6  # how close to +-1 an eigenvalue may sit before the B <-> B' reduction degenerates


@dataclass
class SparseMatrix:
    """Immutable compressed-row matrix; ``csr`` shares the three arrays without a copy."""

    nrows: int
    ncols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    csr: scipy.sparse.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.row_offsets.shape != (self.nrows + 1,):
            raise ValueError("row_offsets must have length nrows+1")
        if np.any(np.diff(self.row_offsets) < 0) or self.row_offsets[-1] != len(self.values):
            raise ValueError("row_offsets must be monotone and end at nnz")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values must have equal length")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.col_indices.size and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.ncols
        ):
            raise ValueError("column index out of range")
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.setflags(write=False)
        self.csr = scipy.sparse.csr_array(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.nrows, self.ncols),
            copy=False,
        )

    @property
    def nnz(self) -> int:
        return len(self.values)

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals) -> "SparseMatrix":
        vals = np.asarray(vals, dtype=np.float64)
        csr = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
        if csr.nnz != len(vals):  # tocsr sums duplicates into one entry
            raise ValueError("duplicate entry in sparse assembly")
        return cls(nrows, ncols, csr.indptr, csr.indices, csr.data)

    # matvec and is_symmetric stay defined in this class body: perfbench/tracing.py
    # patches them through SparseMatrix.__dict__ and its matvec counter reads the
    # five fields.  They go when the package traces itself (ROADMAP item 5).
    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        if v.shape != (self.ncols,):
            raise ValueError(f"expected vector of length {self.ncols}, got shape {v.shape}")
        return self.csr @ v

    def is_symmetric(self) -> bool:
        """Square with equal values at (i, j) and (j, i).

        Compares values, not stored structure: an explicit zero matches an
        absent entry.
        """
        return self.nrows == self.ncols and (self.csr != self.csr.T).nnz == 0

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


@dataclass(frozen=True)
class DirectedEdgeIndex:
    """Ordinals k in [0, 2m) for the directed edges i->j.

    Undirected edge e gets ordinals 2e (i->j with i<j) and 2e+1 (j->i),
    so the reversal i->j <-> j->i is the bit flip k ^ 1.  Both
    orientations carry the weight of the underlying edge.
    """

    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_instance(cls, instance: CbmInstance) -> "DirectedEdgeIndex":
        i, j, w = instance.edges[:, 0], instance.edges[:, 1], instance.edges[:, 2]
        m = instance.m
        tails = np.empty(2 * m, dtype=np.int64)
        heads = np.empty(2 * m, dtype=np.int64)
        weights = np.empty(2 * m, dtype=np.float64)
        tails[0::2], tails[1::2] = i, j
        heads[0::2], heads[1::2] = j, i
        weights[0::2] = weights[1::2] = w
        for arr in (tails, heads, weights):
            arr.setflags(write=False)
        return cls(tails=tails, heads=heads, weights=weights)

    @property
    def count(self) -> int:
        return len(self.tails)


def build_b(instance: CbmInstance) -> SparseMatrix:
    """Materialize the 2m x 2m non-backtracking operator (small n only)."""
    if instance.m < 1:
        raise ValueError("need at least one edge to build the non-backtracking operator")
    index = DirectedEdgeIndex.from_instance(instance)
    # row k = i->j continues along each edge j->l: the deg(j) out-edges of j,
    # which sit contiguously once the directed edges are sorted by tail
    by_tail = np.argsort(index.tails)
    deg = instance.degrees()
    fan = deg[index.heads]
    shift = (np.cumsum(deg) - deg)[index.heads] - (np.cumsum(fan) - fan)
    rows = np.repeat(np.arange(index.count), fan)
    cols = by_tail[np.arange(len(rows)) + shift[rows]]
    keep = index.heads[cols] != index.tails[rows]  # simple graph: backtracks iff it returns to i
    rows, cols = rows[keep], cols[keep]
    return SparseMatrix.from_coo(index.count, index.count, rows, cols, index.weights[cols])


def build_bprime(instance: CbmInstance) -> SparseMatrix:
    """The 2n x 2n reduction [[0, D-I], [-I, J]] of the non-backtracking operator."""
    n = instance.n
    deg = instance.degrees()
    i, j, w = instance.edges[:, 0], instance.edges[:, 1], instance.edges[:, 2]
    top = np.flatnonzero(deg != 1)  # degree-1 rows of D-I vanish; drop the explicit zeros
    rows = np.concatenate([top, n + np.arange(n), n + i, n + j])
    cols = np.concatenate([n + top, np.arange(n), n + j, n + i])
    vals = np.concatenate(
        [(deg[top] - 1).astype(np.float64), -np.ones(n), w.astype(np.float64), w.astype(np.float64)]
    )
    return SparseMatrix.from_coo(2 * n, 2 * n, rows, cols, vals)


def build_bethe_hessian(instance: CbmInstance, x: float) -> SparseMatrix:
    """H(x) = (x^2-1)*I - x*J + D, real symmetric."""
    n = instance.n
    deg = instance.degrees()
    i, j, w = instance.edges[:, 0], instance.edges[:, 1], instance.edges[:, 2]
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    offdiag = -x * w.astype(np.float64)
    vals = np.concatenate([x * x - 1.0 + deg.astype(np.float64), offdiag, offdiag])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


@dataclass(frozen=True)
class RelationDiagnostics:
    """Residuals of the eigenvector identities tying B' back to B."""

    relation_residual: float  # max_i |lam*v'_i - (d_i-1)*v'_{n+i}| / ||v'||_inf
    b_residual: float  # ||B v - lam v||_inf / ||v||_inf for the reconstructed edge vector


def bprime_eigvec_relations_check(
    instance: CbmInstance, lam: float, vprime: np.ndarray
) -> RelationDiagnostics:
    """Check a computed B' eigenpair against the defining edge-space relations.

    The site values v'_{n+i} determine the edge vector through
    lam * v_{i->j} = v'_{n+i} - J_ij * v_{j->i}; solving the 2x2 system
    per undirected edge reconstructs v, whose eigen-residual under the
    explicit B is reported.  Degenerates at lam = +-1.
    """
    lam = float(lam)
    if min(abs(lam - 1.0), abs(lam + 1.0)) <= EIG_ONE_TOL:
        raise ValueError(f"reduction invalid at eigenvalues +-1 (lambda = {lam})")
    n = instance.n
    vprime = np.asarray(vprime, dtype=np.float64)
    if vprime.shape != (2 * n,):
        raise ValueError(f"expected eigenvector of length {2 * n}, got {vprime.shape}")
    v_top, v_bot = vprime[:n], vprime[n:]
    deg = instance.degrees()
    scale = np.max(np.abs(vprime))
    relation = np.max(np.abs(lam * v_top - (deg - 1) * v_bot)) / scale

    index = DirectedEdgeIndex.from_instance(instance)
    edge_vec = (lam * v_bot[index.tails] - index.weights * v_bot[index.heads]) / (lam * lam - 1.0)
    # the site relations live in the gather-at-tail convention, which is the
    # edge reversal of the scatter-from-head operator built by build_b
    edge_vec = edge_vec[np.arange(index.count) ^ 1]
    b = build_b(instance)
    resid = b.matvec(edge_vec) - lam * edge_vec
    b_resid = np.max(np.abs(resid)) / np.max(np.abs(edge_vec))
    return RelationDiagnostics(relation_residual=float(relation), b_residual=float(b_resid))
