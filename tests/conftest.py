"""Shared fixtures: tiny closed-form graphs and the heavy sweep grids.

The two 20-trial sweeps at n=10^4 are session-scoped so the acceptance
criteria and the inference invariants share one computation.
"""

import numpy as np
import pytest

from cbdetect import CbmInstance, CbmParams, generate
from cbdetect.cli import SweepSpec, run_sweep
from cbdetect.rng import derive_seed


def make_instance(n, edges, sigma=None, epsilon=0.0, seed=1, alpha=None):
    """Hand-built instance; alpha defaults to the realized average degree."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if sigma is None:
        sigma = np.ones(n, dtype=np.int64)
    if alpha is None:
        alpha = max(2.0 * len(edges) / n, 0.5 / n)
    return CbmInstance(
        params=CbmParams(n=n, alpha=alpha, epsilon=epsilon, seed=seed),
        sigma=np.asarray(sigma, dtype=np.int64),
        edges=edges,
    )


def dense_weight_matrix(instance):
    """Dense symmetric J with J_ij = J_ji = the observed sign on edge (i, j), 0 elsewhere."""
    i, j, w = instance.edges.T
    dense = np.zeros((instance.n, instance.n))
    dense[i, j] = dense[j, i] = w
    return dense


@pytest.fixture(scope="session")
def triangle():
    return make_instance(3, [[0, 1, 1], [0, 2, 1], [1, 2, 1]])


@pytest.fixture(scope="session")
def single_edge():
    return make_instance(2, [[0, 1, 1]])


@pytest.fixture(scope="session")
def path3():
    return make_instance(3, [[0, 1, 1], [1, 2, 1]])


def conditioned_small_instance(k, master=0, tag="small-inst"):
    """Random instance with n <= 30 conditioned on min degree >= 2 (and m >= n).

    Dangling trees give B numerically-defective zero eigenvalues whose
    dense-solver splatter exceeds the comparison tolerances; min degree 2
    keeps the B <-> B' and Ihara-Bass identity checks sharp.
    """
    base = derive_seed(master, tag, k)
    for bump in range(500):
        n = 8 + (derive_seed(base, "n", bump) % 23)
        alpha = 5.0 + (derive_seed(base, "a", bump) % 40) / 10.0
        eps = (0.1, 0.25, 0.4)[derive_seed(base, "e", bump) % 3]
        inst = generate(
            CbmParams(n=n, alpha=min(alpha, 0.9 * n), epsilon=eps, seed=derive_seed(base, "s", bump))
        )
        if inst.m >= inst.n and inst.degrees().min() >= 2:
            return inst
    raise RuntimeError("conditioning failed")


@pytest.fixture(scope="session")
def small_instances():
    return [conditioned_small_instance(k) for k in range(50)]


@pytest.fixture(scope="session")
def sweep_threshold():
    """Acceptance-1 grid: NB and BH across the detectability transition."""
    spec = SweepSpec(
        n=10_000,
        epsilon=0.25,
        alphas=(3.0, 3.5, 4.5, 5.0, 6.0, 8.0),
        trials=20,
        methods=("NB", "BH"),
        seed=0,
        out="unused",
    )
    return {(r.alpha, r.method): r for r in run_sweep(spec)}


@pytest.fixture(scope="session")
def sweep_methods():
    """Three-method grid used for ordering and monotonicity checks."""
    spec = SweepSpec(
        n=10_000,
        epsilon=0.25,
        alphas=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        trials=20,
        methods=("NB", "BH", "BP"),
        seed=0,
        out="unused",
    )
    return {(r.alpha, r.method): r for r in run_sweep(spec)}
