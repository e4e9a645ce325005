"""Test-only oracles: CSR assembly from coordinates, node degrees, the explicit
non-backtracking operator B, the B <-> B' relations, the BP sweep on
interleaved directed-edge ordinals, the instance writer and pair sampler as
they were before they worked in place, and the population-dynamics draw as
it was before it read its terms from a table.

``from_coo`` builds a read-only ``SparseMatrix`` from coordinate triples, as
the package's builders did before they laid out their CSR arrays from the
sorted edges; the operator and eigensolver tests build small matrices with it.
``degrees`` counts node degrees from the edge list; the builders read them off
their CSR offsets, so only the tests need it.
No package code needs B itself: the detectors run on its reduction B'.
These stay here as independent references that the operator and
acceptance tests compare B' against.  B is numbered like the package's
directed edges, in halves (``DirectedEdgeIndex``).  ``bp_reference`` is the
BP sweep as it ran on interleaved ordinals (2e for i->j, 2e + 1 for j->i)
before ``bp_fixed_point`` stored the directed edges in halves; it converts
its messages at its boundary, the BP tests compare the two bit for bit,
and run it at the damping 0.5 that ``BP_DAMPING`` had before to compare
convergence.  ``write_reference``
formats every edge line with ``"%d %d %d\n"`` and
``sample_pair_indices_reference`` concatenates fresh per-block temporaries;
the model tests compare file bytes and pair indices against them.
``popdyn_draw_reference`` draws one Poisson degree per member and computes
every term's arctanh; the inference tests compare its estimates with the
package's.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scipy.sparse

from cbdetect.inference import (
    _ATANH_CLIP,
    BP_DAMPING,
    BP_MAX_SWEEPS,
    BP_TOL,
    BpState,
    _require_edges,
)
from cbdetect.model import _EDGE_CHUNK, FORMAT_HEADER, CbmInstance, index_dtype
from cbdetect.operators import DirectedEdgeIndex, SparseMatrix
from cbdetect.rng import substream

EIG_ONE_TOL = 1e-6  # how close to +-1 an eigenvalue may sit before the B <-> B' reduction degenerates


def from_coo(nrows, ncols, rows, cols, vals) -> SparseMatrix:
    """Read-only canonical CSR from coordinates, index arrays in the ``index_dtype`` of shape and nnz."""
    vals = np.asarray(vals, dtype=np.float64)
    csr = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    if csr.nnz != len(vals):  # tocsr sums duplicates into one entry
        raise ValueError("duplicate entry in sparse assembly")
    # narrowed only after coo_array has range-checked the coordinates, so nothing wraps
    idx = index_dtype(nrows, ncols, csr.nnz)
    indices, indptr = csr.indices.astype(idx, copy=False), csr.indptr.astype(idx, copy=False)
    matrix = SparseMatrix((csr.data, indices, indptr), shape=(nrows, ncols))
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        arr.setflags(write=False)
    return matrix


def degrees(instance: CbmInstance) -> np.ndarray:
    """Node degrees counted from both endpoint columns."""
    d = np.bincount(instance.edges[:, 0], minlength=instance.n)
    d += np.bincount(instance.edges[:, 1], minlength=instance.n)
    return d


def reversal(count: int) -> np.ndarray:
    """The reversal of each directed edge in halves: k <-> (k + m) mod 2m."""
    return np.roll(np.arange(count), count // 2)


def tails(index: DirectedEdgeIndex) -> np.ndarray:
    """tails[k] == heads[reversal(k)], built afresh on each call."""
    return index.heads[reversal(len(index.heads))]


def edge_weights(instance: CbmInstance) -> np.ndarray:
    """The weight of each directed edge in halves: edge e's weight at e and e + m."""
    return np.tile(instance.edges[:, 2].astype(np.float64), 2)


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
    deg = degrees(instance)
    fan = deg[index.heads]
    shift = (np.cumsum(deg) - deg)[index.heads] - (np.cumsum(fan) - fan)
    count = len(index.heads)
    rows = np.repeat(np.arange(count), fan)
    cols = by_tail[np.arange(len(rows)) + shift[rows]]
    keep = index.heads[cols] != tail[rows]  # simple graph: backtracks iff it returns to i
    rows, cols = rows[keep], cols[keep]
    return from_coo(count, count, rows, cols, edge_weights(instance)[cols])


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
    deg = degrees(instance)
    scale = np.max(np.abs(vprime))
    relation = np.max(np.abs(lam * v_top - (deg - 1) * v_bot)) / scale

    index = DirectedEdgeIndex.from_instance(instance)
    weights = edge_weights(instance)
    edge_vec = (lam * v_bot[tails(index)] - weights * v_bot[index.heads]) / (lam * lam - 1.0)
    # the site relations live in the gather-at-tail convention, which is the
    # edge reversal of the scatter-from-head operator built by build_b
    edge_vec = edge_vec[reversal(len(edge_vec))]
    b = build_b(instance)
    resid = b.matvec(edge_vec) - lam * edge_vec
    b_resid = np.max(np.abs(resid)) / np.max(np.abs(edge_vec))
    return RelationDiagnostics(relation_residual=float(relation), b_residual=float(b_resid))


def bp_start(instance: CbmInstance, seed: int) -> np.ndarray:
    """``bp_fixed_point``'s start drawn from ``substream(seed, "bp-init")``, in halves; seed 0 is its default."""
    return substream(seed, "bp-init").uniform(-0.1, 0.1, size=(instance.m, 2)).T.reshape(-1)


def bp_reference(
    instance: CbmInstance,
    beta: float,
    max_sweeps: int = BP_MAX_SWEEPS,
    seed: int = 0,
    initial: np.ndarray | None = None,
    damping: float = BP_DAMPING,
) -> tuple[BpState, np.ndarray]:
    """``bp_fixed_point`` run on interleaved ordinals, reversal k <-> k ^ 1.

    Ordinal 2e is edge e as i->j, 2e + 1 its reversal.  ``initial`` and the
    returned messages are in halves, as in ``bp_fixed_point``, and are
    converted here; without ``initial`` the start is drawn, interleaved,
    from ``substream(seed, "bp-init")``.  ``damping`` is the weight of the
    previous message, the package's ``BP_DAMPING`` unless given.
    """
    _require_edges(instance)
    n, count = instance.n, 2 * instance.m
    heads = instance.edges[:, [1, 0]].ravel().astype(np.intp)
    weights = np.repeat(instance.edges[:, 2].astype(np.float64), 2)
    t = np.tanh(beta)
    if initial is not None:
        msgs = np.array(initial, dtype=np.float64)
        if msgs.shape != (count,):
            raise ValueError(f"initial messages must have shape ({count},)")
        msgs = msgs.reshape(2, -1).T.ravel()
    else:
        msgs = substream(seed, "bp-init").uniform(-0.1, 0.1, size=count)

    def contributions(m, out):
        np.multiply(weights, m, out=out)
        out *= t
        np.clip(out, -_ATANH_CLIP, _ATANH_CLIP, out=out)
        return np.arctanh(out, out=out)

    contrib = np.empty(count)
    work = np.empty(count)
    state = BpState(messages=msgs)
    for sweep in range(1, max_sweeps + 1):
        site = np.bincount(heads, weights=contributions(msgs, contrib), minlength=n)
        np.take(site, heads, out=work, mode="clip")
        np.subtract(work, contrib, out=work)
        fresh = np.tanh(work.reshape(-1, 2)[:, ::-1], out=contrib.reshape(-1, 2)).reshape(-1)
        fresh *= 1.0 - damping
        np.multiply(msgs, damping, out=work)
        new = np.add(fresh, work, out=work)
        np.abs(np.subtract(new, msgs, out=contrib), out=contrib)
        delta = float(np.max(contrib))
        msgs, work = new, msgs
        state.sweeps = sweep
        state.max_delta.append(delta)
        if delta < BP_TOL:
            state.converged = True
            break
    marginals = np.tanh(np.bincount(heads, weights=contributions(msgs, contrib), minlength=n))
    state.messages = msgs.reshape(-1, 2).T.ravel()
    return state, marginals


def popdyn_draw_reference(rng, pop, alpha, t_beta, flip_prob):
    """``inference._popdyn_draw`` with N Poisson(alpha) degrees, ``np.repeat`` and one arctanh per term."""
    count = len(pop)
    d = rng.poisson(alpha, size=count)
    total = int(d.sum())
    parents = pop[rng.integers(0, count, size=total)]
    coupling = np.where(rng.random(total) < flip_prob, -t_beta, t_beta)
    terms = np.arctanh(np.clip(coupling * parents, -_ATANH_CLIP, _ATANH_CLIP))
    rows = np.repeat(np.arange(count), d)
    return np.tanh(np.bincount(rows, weights=terms, minlength=count))


def write_reference(instance: CbmInstance, path) -> None:
    """``write_instance`` as it formatted one Python int at a time, in text mode."""
    params = instance.params
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(f"{FORMAT_HEADER}\n{instance.n} {instance.m} {params.epsilon!r} {params.seed}\nsigma\n")
        f.write(" ".join(map(str, instance.sigma.tolist())) + "\n")
        for s in range(0, instance.m, _EDGE_CHUNK):
            rows = instance.edges[s : s + _EDGE_CHUNK]
            f.write("%d %d %d\n" * len(rows) % tuple(rows.ravel().tolist()))


def sample_pair_indices_reference(n: int, p: float, rng) -> np.ndarray:
    """``model._sample_pair_indices`` summed in float64, exact while C(n,2) < 2^53, with fresh temporaries."""
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log1mp = math.log1p(-p)
    block = int(min(4 << 20, total * p + 6.0 * math.sqrt(total * p) + 16.0))
    chunks = []
    cum = 0.0
    while True:
        u = rng.random(block)
        with np.errstate(divide="ignore"):
            jumps = np.floor(np.log(u) / log1mp) + 1.0
        c = cum + np.cumsum(jumps)
        if not np.isfinite(c[-1]) or c[-1] > total:
            chunks.append(c[np.isfinite(c) & (c <= total)])
            break
        chunks.append(c)
        cum = float(c[-1])
    pos = np.concatenate(chunks) - 1.0
    return pos.astype(np.int64)
