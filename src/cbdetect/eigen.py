"""Eigensolvers: iterative extreme-pair solvers plus a dense oracle.

Large sparse problems use matrix-free power iteration (the leading
eigenpair of B', the smallest eigenpair of H via a Gershgorin shift).
Small matrices go through a dense full eigendecomposition, used as the
test oracle and for spectrum figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .operators import SparseMatrix
from .rng import substream

DENSE_CAP = 5000
STALL_WINDOW = 50  # iterations without directional progress before declaring no real leader
STALL_FLOOR = 1e-13  # below this the angle is at float resolution: converged, not rotating
GAP_FLOOR = 0.01


@dataclass
class SolverConfig:
    """Iterative-solver knobs; max_iter=None sizes itself from the matrix."""

    tol: float = 1e-8
    max_iter: int | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolve_max_iter(self, dim: int) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return max(2000, 10 * math.ceil(math.log(max(dim, 2)) / GAP_FLOOR))


@dataclass
class EigenResult:
    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool


@dataclass
class NoRealLeader:
    """Typed outcome: power iteration found no simple real dominant eigenvalue.

    ``magnitude`` is the growth-rate estimate of |lambda_1| from the
    trailing ||M v_k|| history.
    """

    magnitude: float
    iterations: int
    reason: str


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic orientation: largest-magnitude entry made positive."""
    return -v if v[int(np.argmax(np.abs(v)))] < 0 else v


def _start_vector(dim: int) -> np.ndarray:
    v = substream(0, "power-start").standard_normal(dim)
    return v / np.linalg.norm(v)


def power_leading(matrix: SparseMatrix, cfg: SolverConfig | None = None):
    """Leading (largest-magnitude) eigenpair of a square sparse matrix.

    Plain power iteration with a Rayleigh-quotient estimate.  Converges
    only when the dominant eigenvalue is real and simple at the solver's
    resolution; a dominant complex pair or a near-tie keeps the iterate
    direction from settling, which is detected by the angle between
    successive iterates failing to improve over a trailing window, and
    reported as the typed ``NoRealLeader`` outcome rather than an error.
    """
    cfg = cfg or SolverConfig()
    dim, ncols = matrix.shape
    if dim != ncols:
        raise ValueError("matrix must be square")
    if dim == 0:
        raise ValueError("dimension 0 has no leading eigenpair")
    max_iter = cfg.resolve_max_iter(dim)
    v = _start_vector(dim)
    growth = []
    best_delta = np.inf
    since_improve = 0
    for k in range(1, max_iter + 1):
        w = matrix.matvec(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:  # v is an exact null vector: eigenpair (0, v)
            return EigenResult(0.0, _canonical_sign(v), 0.0, k, True)
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= cfg.tol * max(abs(lam), 1.0):
            return EigenResult(lam, _canonical_sign(v), residual, k, True)
        u = w / nw
        growth.append(nw)
        delta = 1.0 - abs(float(v @ u))
        if delta < best_delta or delta <= STALL_FLOOR:
            best_delta = min(best_delta, delta)
            since_improve = 0
        else:
            since_improve += 1
        v = u
        if since_improve >= STALL_WINDOW:
            mag = float(np.exp(np.mean(np.log(growth[-STALL_WINDOW:]))))
            return NoRealLeader(magnitude=mag, iterations=k, reason="stalled")
    tail = growth[-STALL_WINDOW:] if growth else [0.0]
    mag = float(np.exp(np.mean(np.log(np.maximum(tail, 1e-300)))))
    return NoRealLeader(magnitude=mag, iterations=max_iter, reason="max_iter")


def gershgorin_upper(matrix: SparseMatrix) -> float:
    """Row-circle upper bound on the largest eigenvalue of a symmetric matrix."""
    dim = matrix.shape[0]
    rows = np.repeat(np.arange(dim, dtype=np.intp), np.diff(matrix.indptr))
    weights = np.abs(matrix.data)
    weights[rows == matrix.indices] = 0.0  # adding +0.0 leaves each row's radius unchanged
    radius = np.bincount(rows, weights=weights, minlength=dim)
    radius += matrix.diagonal()
    return float(np.max(radius)) if dim else 0.0


def smallest_symmetric(matrix: SparseMatrix, cfg: SolverConfig | None = None) -> EigenResult:
    """Algebraically smallest eigenpair of a symmetric sparse matrix.

    Shift-and-power: iterate on c*I - H with c the Gershgorin upper
    bound, whose dominant eigenvalue is c - lambda_min; matrix-free and
    adequate for the extreme pair.  Non-convergence is reported through
    the ``converged`` flag, never raised.  Note the Rayleigh quotient
    approaches lambda_min from above, so an unconverged estimate is a
    valid upper bound on it.
    """
    cfg = cfg or SolverConfig()
    if not matrix.is_symmetric():
        raise ValueError("matrix must be symmetric")
    dim = matrix.shape[0]
    if dim == 0:
        raise ValueError("dimension 0 has no smallest eigenpair")
    c = gershgorin_upper(matrix)
    max_iter = cfg.resolve_max_iter(dim)
    v = _start_vector(dim)
    lam = 0.0
    residual = np.inf
    for k in range(1, max_iter + 1):
        hv = matrix.matvec(v)
        lam = float(v @ hv)
        residual = float(np.linalg.norm(hv - lam * v))
        if residual <= cfg.tol * max(abs(lam), 1.0):
            return EigenResult(lam, _canonical_sign(v), residual, k, True)
        w = c * v - hv
        nw = float(np.linalg.norm(w))
        if nw == 0.0:  # c*I - H annihilates v: v is an exact eigenvector at lambda = c
            return EigenResult(c, _canonical_sign(v), 0.0, k, True)
        v = w / nw
    return EigenResult(lam, _canonical_sign(v), residual, max_iter, False)


def dense_spectrum(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real dense square matrix as complex128 (LAPACK QR oracle)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be dense square")
    if matrix.shape[0] > DENSE_CAP:
        raise ValueError(f"dimension {matrix.shape[0]} above dense cap {DENSE_CAP}")
    return np.linalg.eigvals(matrix).astype(np.complex128)


def spectrum_to_csv(eigenvalues: np.ndarray) -> str:
    """CSV text, header ``re,im``, sorted for stable output."""
    eig = eigenvalues[np.lexsort((eigenvalues.imag, eigenvalues.real))]
    lines = ["re,im"] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in eig]
    return "\n".join(lines) + "\n"


def spectrum_to_svg(eigenvalues: np.ndarray, path, radius: float) -> None:
    """640-pixel scatter of eigenvalues in the complex plane with a reference circle."""
    size = 640
    reach = max(float(np.max(np.abs(eigenvalues.real), initial=0.0)),
                float(np.max(np.abs(eigenvalues.imag), initial=0.0)), radius) * 1.1 or 1.0
    half = size / 2.0
    scale = half / reach

    def sx(x):
        return half + x * scale

    def sy(y):
        return half - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#cccccc"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#cccccc"/>',
        f'<circle cx="{half}" cy="{half}" r="{radius * scale:.3f}" '
        'fill="none" stroke="#d62728" stroke-dasharray="6,4"/>',
    ]
    for z in eigenvalues:
        parts.append(
            f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" r="2.2" '
            'fill="#1f77b4" fill-opacity="0.65"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")

