"""Test-only oracles: the explicit non-backtracking operator B and the B <-> B' relations.

No package code needs B itself: the detectors run on its reduction B'.
These stay here as independent references that the operator and
acceptance tests compare B' against.
"""

from dataclasses import dataclass

import numpy as np

from cbdetect import CbmInstance, DirectedEdgeIndex, SparseMatrix

EIG_ONE_TOL = 1e-6  # how close to +-1 an eigenvalue may sit before the B <-> B' reduction degenerates


def tails(index: DirectedEdgeIndex) -> np.ndarray:
    """tails[k] == heads[k ^ 1], built afresh on each call."""
    return index.heads.reshape(-1, 2)[:, ::-1].ravel()


def build_b(instance: CbmInstance) -> SparseMatrix:
    """Materialize the 2m x 2m non-backtracking operator (small n only).

    B[(i->j),(k->l)] = J_kl * 1(j=k) * 1(i!=l).
    """
    if instance.m < 1:
        raise ValueError("need at least one edge to build the non-backtracking operator")
    index = DirectedEdgeIndex.from_instance(instance)
    tail = tails(index)
    # row k = i->j continues along each edge j->l: the deg(j) out-edges of j,
    # which sit contiguously once the directed edges are sorted by tail
    by_tail = np.argsort(tail)
    deg = instance.degrees()
    fan = deg[index.heads]
    shift = (np.cumsum(deg) - deg)[index.heads] - (np.cumsum(fan) - fan)
    rows = np.repeat(np.arange(index.count), fan)
    cols = by_tail[np.arange(len(rows)) + shift[rows]]
    keep = index.heads[cols] != tail[rows]  # simple graph: backtracks iff it returns to i
    rows, cols = rows[keep], cols[keep]
    return SparseMatrix.from_coo(index.count, index.count, rows, cols, index.weights[cols])


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
    edge_vec = (lam * v_bot[tails(index)] - index.weights * v_bot[index.heads]) / (lam * lam - 1.0)
    # the site relations live in the gather-at-tail convention, which is the
    # edge reversal of the scatter-from-head operator built by build_b
    edge_vec = edge_vec[np.arange(index.count) ^ 1]
    b = build_b(instance)
    resid = b.matvec(edge_vec) - lam * edge_vec
    b_resid = np.max(np.abs(resid)) / np.max(np.abs(edge_vec))
    return RelationDiagnostics(relation_residual=float(relation), b_residual=float(b_resid))
