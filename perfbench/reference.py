"""Independent references for checking cbdetect outputs.

Everything here is assembled from the edge list with ``scipy.sparse`` and
solved with LAPACK or ARPACK; nothing calls into ``cbdetect``, so a fault
in the package cannot hide in its own reference.

The non-backtracking decision is checked through the Ihara-Bass identity:
for real x, B' has eigenvalue x exactly when H(x) = (x^2-1)I - xJ + D is
singular.  H(x) is positive definite above the largest real eigenvalue of
B', so lambda_min(H(lambda1)) = 0 confirms that a converged positive
leader lambda1 is that eigenvalue, and lambda_min(H(x)) < 0 proves that a
real eigenvalue above x exists.  When NB reports no real leader, the
leading eigenvalues of B' decide: densely (LAPACK) when 2n <= DENSE_MAX;
above that, through lambda_min(H(x)) alone, because ARPACK's largest-
modulus mode does not resolve the near-tied bulk eigenvalues of these
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as sla

DENSE_MAX = 2400  # largest matrix dimension solved densely (LAPACK) rather than by ARPACK
ARPACK_TOL = 1e-12
REAL_TOL = 1e-8  # |imag| below this (relative) counts as a real eigenvalue
SEPARATION = 1e-3  # a leader within this relative modulus of the runner-up is a tie
SINGULAR_TOL = 1e-6  # |lambda_min(H(lambda1))| / max(1, lambda1^2) for lambda1 to be an eigenvalue
UNCONVERGED = "BH decided from an unconverged eigenpair"  # how check_bh's reason starts for that fault


def weight_matrix(n: int, edges: np.ndarray) -> sp.csr_array:
    """Symmetric signed adjacency J from (i, j, w) rows."""
    i, j, w = edges[:, 0], edges[:, 1], edges[:, 2].astype(np.float64)
    return sp.csr_array(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n)
    )


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges[:, :2].ravel(), minlength=n).astype(np.float64)


def bethe_hessian(n: int, edges: np.ndarray, x: float) -> sp.csr_array:
    """H(x) = (x^2 - 1) I - x J + D."""
    diag = sp.diags_array(x * x - 1.0 + degrees(n, edges))
    return sp.csr_array(diag - x * weight_matrix(n, edges))


def bprime(n: int, edges: np.ndarray) -> sp.csr_array:
    """B' = [[0, D - I], [-I, J]], the 2n x 2n reduction of the non-backtracking operator."""
    eye = sp.eye_array(n)
    d_minus_i = sp.diags_array(degrees(n, edges) - 1.0)
    return sp.csr_array(sp.block_array([[None, d_minus_i], [-eye, weight_matrix(n, edges)]]))


def lambda_min(matrix: sp.csr_array) -> float:
    """Algebraically smallest eigenvalue of a symmetric sparse matrix."""
    dim = matrix.shape[0]
    if dim <= DENSE_MAX:
        return float(scipy.linalg.eigh(matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0])
    # ARPACK's stopping test is relative to the Ritz value; shifting the spectrum
    # into [1, 2*shift] keeps it from demanding full precision near lambda = 0
    shift = 1.0 + float(abs(matrix).sum(axis=1).max())
    shifted = sp.csr_array(matrix + shift * sp.eye_array(dim))
    val = sla.eigsh(
        shifted, k=1, which="SA", v0=np.ones(dim), tol=ARPACK_TOL, return_eigenvectors=False
    )
    return float(val[0]) - shift


def leading_pair(n: int, edges: np.ndarray) -> tuple[complex, complex]:
    """The two eigenvalues of B' of largest modulus, from its dense spectrum."""
    vals = np.linalg.eigvals(bprime(n, edges).toarray())
    order = np.argsort(-np.abs(vals))
    return complex(vals[order[0]]), complex(vals[order[1]])


def overlap(sigma: np.ndarray, labels: np.ndarray) -> float:
    """2 * (max(a, 1 - a) - 1/2) for the agreeing fraction a."""
    agree = int(np.count_nonzero(np.asarray(sigma) == np.asarray(labels)))
    return 2.0 * (max(agree, sigma.size - agree) / sigma.size - 0.5)


@dataclass
class InstanceFile:
    n: int
    m: int
    epsilon: float
    seed: int
    sigma: np.ndarray
    edges: np.ndarray


def read_instance_file(path) -> InstanceFile:
    """Parse the ``%cbm 1`` text format with numpy, independently of cbdetect.model."""
    lines = [ln for ln in Path(path).read_bytes().split(b"\n") if not ln.lstrip().startswith(b"#")]
    if lines[0].strip() != b"%cbm 1" or lines[2].strip() != b"sigma":
        raise ValueError(f"{path}: not a '%cbm 1' instance file")
    n_s, m_s, eps_s, seed_s = lines[1].split()
    n, m = int(n_s), int(m_s)
    sigma = np.array(lines[3].split(), dtype=np.int64)
    edges = np.array(b" ".join(lines[4:]).split(), dtype=np.int64).reshape(-1, 3)
    if sigma.shape != (n,) or edges.shape != (m, 3):
        raise ValueError(f"{path}: sizes disagree with the header")
    return InstanceFile(n, m, float(eps_s), int(seed_s), sigma, edges)


@dataclass
class InstanceReference:
    """Lazily computed spectral facts about one instance, shared by all its checks."""

    n: int
    edges: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def x(self) -> float:
        """sqrt of the realized average degree, the detection scale."""
        return math.sqrt(2.0 * len(self.edges) / self.n)

    def h_lambda_min(self, x: float | None = None) -> float:
        x = self.x if x is None else x
        if x not in self._cache:
            self._cache[x] = lambda_min(bethe_hessian(self.n, self.edges, x))
        return self._cache[x]

    def leader(self) -> tuple[complex, complex]:
        """The two eigenvalues of B' of largest modulus (dense; small n only)."""
        if "leader" not in self._cache:
            self._cache["leader"] = leading_pair(self.n, self.edges)
        return self._cache["leader"]

    def check_nb(self, success: bool, lambda1: float | None) -> str | None:
        """None when the NB outcome agrees with the spectrum of B', else the reason."""
        x = self.x
        if lambda1 is not None and lambda1 > 1.0:
            gap = abs(self.h_lambda_min(lambda1))
            if gap > SINGULAR_TOL * max(1.0, lambda1 * lambda1):
                return f"lambda1 {lambda1!r} is not the largest real eigenvalue of B' (|lambda_min H(lambda1)| = {gap:.3g})"
        if success:
            return None if lambda1 is not None and lambda1 > x else f"NB succeeded with lambda1 {lambda1!r} <= {x:.6g}"
        if lambda1 is not None:
            return None  # a real leader at or below x
        if 2 * self.n > DENSE_MAX:
            if self.h_lambda_min() < 0.0:
                return f"NB found no real leader, but B' has a real eigenvalue above {x:.6g}"
            return None
        top, second = self.leader()
        if abs(top.imag) <= REAL_TOL * abs(top) and top.real > x and abs(top) > (1.0 + SEPARATION) * abs(second):
            return f"NB found no real leader, but B' leads with {top.real:.6g} > {x:.6g} (next |{abs(second):.6g}|)"
        return None

    def check_bh(self, success: bool, value: float, residual: float, tol: float) -> str | None:
        """None when a BH outcome rests on a converged eigenpair matching lambda_min(H(x))."""
        bound = tol * max(abs(value), 1.0)
        if residual is None or not residual <= bound:
            return f"{UNCONVERGED} (residual {residual!r} > {bound:.3g})"
        ref = self.h_lambda_min()
        if success != (ref < 0.0):
            return f"BH decision {success} disagrees with lambda_min {ref!r}"
        if abs(value - ref) > bound:
            return f"lambda_min_H {value!r} differs from the reference {ref!r}"
        return None


class References:
    """Per-run cache of references, keyed by instance content or file path."""

    def __init__(self):
        self._instances: dict = {}
        self._files: dict = {}

    def of(self, n: int, edges: np.ndarray) -> InstanceReference:
        key = (n, edges.shape, hash(np.ascontiguousarray(edges).tobytes()))
        if key not in self._instances:
            self._instances[key] = InstanceReference(n, np.array(edges))
        return self._instances[key]

    def read(self, path) -> InstanceFile:
        if path not in self._files:
            self._files[path] = read_instance_file(path)
        return self._files[path]

    def of_file(self, path) -> InstanceReference:
        parsed = self.read(path)
        return self.of(parsed.n, parsed.edges)

    overlap = staticmethod(overlap)
