"""End-to-end label recovery.

Four routes to an assignment:

* ``algorithm1`` -- leading eigenpair of the non-backtracking reduction
  B'; succeeds when it finds a real leading eigenvalue above
  sqrt(average degree) and reads labels off the sign of the second
  eigenvector block.  Needs no knowledge of the noise level.
* ``algorithm2`` -- smallest eigenpair of the Bethe Hessian
  H(sqrt(average degree)); succeeds when that eigenvalue is negative
  and reads labels off the eigenvector signs.  Also noise-blind.
* ``bp_run`` -- loopy belief propagation on the instance for the Ising
  posterior at coupling beta0(epsilon); the baseline the spectral
  methods are measured against, and the one method that must be told
  epsilon.
* ``population_dynamics`` -- distributional BP fixed point on the
  Poisson tree limit, giving the asymptotic BP overlap without any
  graph at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import NoRealLeader, power_leading, smallest_symmetric
from .model import CbmInstance, beta0, empirical_alpha, overlap, sign_pm1
from .operators import DirectedEdgeIndex, build_bethe_hessian, build_bprime
from .rng import substream

METHODS = ("NB", "BH", "BP")

_ATANH_CLIP = 1.0 - 1e-12  # keep tanh/atanh compositions finite at saturated messages
BP_DAMPING = 0.25  # weight of the previous message in each BP update (docs/decisions.md, "BP damping 0.25")
BP_TOL = 1e-6  # BP has converged once no message moves by this much in a sweep
BP_MAX_SWEEPS = 500  # a run still moving after this many sweeps is reported unconverged


@dataclass
class DetectionOutcome:
    """Result of one detection attempt, serializable to a JSON line."""

    method: str
    success: bool
    seed: int
    labels: np.ndarray | None = None
    lambda1: float | None = None
    lambda_min_h: float | None = None
    overlap: float | None = None
    iterations: int = 0
    residual: float | None = None
    reason: str | None = None
    converged: bool = False  # the solver met its tolerance; not part of the JSON line

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "success": self.success,
                "lambda1": self.lambda1,
                "lambda_min_H": self.lambda_min_h,
                "overlap": self.overlap,
                "iterations": self.iterations,
                "residual": self.residual,
                "seed": self.seed,
            }
        )


@dataclass
class BpState:
    """Messages live on the directed edges, in halves, as magnetizations in [-1, 1]."""

    messages: np.ndarray
    sweeps: int = 0
    max_delta: list = field(default_factory=list)
    converged: bool = False


@dataclass
class PopDynConfig:
    alpha: float
    epsilon: float
    pop_size: int = 10_000
    equilibration_sweeps: int = 300
    measurement_sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 100:
            raise ValueError("pop_size must be >= 100")
        if self.equilibration_sweeps < 1 or self.measurement_sweeps < 1:
            raise ValueError("sweep counts must be >= 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


def _require_edges(instance: CbmInstance) -> None:
    """The spectral operators and BP messages live on edges; a graph without one carries no signal."""
    if instance.m < 1:
        raise ValueError("need at least one edge")


def _fill_overlap(outcome: DetectionOutcome, instance: CbmInstance) -> DetectionOutcome:
    if outcome.success and outcome.labels is not None:
        outcome.overlap = overlap(instance.sigma, outcome.labels)
    return outcome


def algorithm1(instance: CbmInstance) -> DetectionOutcome:
    """Non-backtracking detection via the 2n x 2n reduction B'."""
    _require_edges(instance)
    res = power_leading(build_bprime(instance))
    seed = instance.params.seed
    if isinstance(res, NoRealLeader):
        return DetectionOutcome(
            method="NB",
            success=False,
            seed=seed,
            iterations=res.iterations,
            converged=False,
            reason=f"no real leading eigenvalue ({res.reason}; |lambda| ~ {res.magnitude:.4g})",
        )
    threshold = math.sqrt(empirical_alpha(instance))
    out = DetectionOutcome(
        method="NB",
        success=res.value > threshold,
        seed=seed,
        lambda1=res.value,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
    )
    if out.success:
        out.labels = sign_pm1(res.vector[instance.n :])
    else:
        out.reason = f"leading eigenvalue {res.value:.4g} not above sqrt(avg degree) {threshold:.4g}"
    return _fill_overlap(out, instance)


def algorithm2(instance: CbmInstance) -> DetectionOutcome:
    """Bethe-Hessian detection: negative bottom eigenvalue of H(sqrt(2m/n))."""
    _require_edges(instance)
    x = math.sqrt(empirical_alpha(instance))
    res = smallest_symmetric(build_bethe_hessian(instance, x))
    out = DetectionOutcome(
        method="BH",
        success=res.value < 0.0,
        seed=instance.params.seed,
        lambda_min_h=res.value,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
    )
    if out.success:
        out.labels = sign_pm1(res.vector)
    else:
        out.reason = f"smallest eigenvalue {res.value:.4g} not negative"
    return _fill_overlap(out, instance)


def bp_fixed_point(
    instance: CbmInstance,
    beta: float,
    initial: np.ndarray | None = None,
) -> tuple[BpState, np.ndarray]:
    """Run damped synchronous BP sweeps; returns final state and node marginals.

    Message update on directed edge i->j:
    m_{i->j} <- tanh( sum_{k in d(i) \\ j} atanh( tanh(beta*J_ki) * m_{k->i} ) ).
    Messages, ``initial`` and ``BpState.messages`` alike, sit on the
    directed edges in halves (``DirectedEdgeIndex``): position e < m is
    edge e as i->j, e + m its reversal j->i.  The all-zero message set is
    the exact uninformative fixed point; ``initial`` overrides the default
    small random start from ``substream(0, "bp-init")``.
    """
    _require_edges(instance)
    n, m = instance.n, instance.m
    count = 2 * m
    if initial is not None:
        msgs = np.array(initial, dtype=np.float64)
        if msgs.shape != (count,):
            raise ValueError(f"initial messages must have shape ({count},)")
    else:
        # one row of draws per edge, (i->j, j->i), transposed into the halves
        msgs = substream(0, "bp-init").uniform(-0.1, 0.1, size=(m, 2)).T.reshape(-1)

    # Reversing swaps the two contiguous halves.  With the edges sorted by
    # (i, j), bincount meets each node's terms in edge order, i->v terms
    # first (docs/decisions.md).  heads is intp once: bincount and take cast
    # any other dtype per call.
    heads = DirectedEdgeIndex.from_instance(instance).heads.astype(np.intp, copy=False)
    # tanh(beta*J) with J = +-1: (J*t)*m rounds exactly as (J*m)*t
    tw = np.multiply(instance.edges[:, 2], np.tanh(beta), dtype=np.float64)

    def contributions(msgs, out):
        np.multiply(msgs.reshape(2, m), tw, out=out.reshape(2, m))
        np.clip(out, -_ATANH_CLIP, _ATANH_CLIP, out=out)
        return np.arctanh(out, out=out)

    # every sweep runs in three 2m buffers: msgs, contrib and work
    contrib = np.empty(count)
    work = np.empty(count)
    deltas = []
    for _ in range(BP_MAX_SWEEPS):
        site = np.bincount(heads, weights=contributions(msgs, contrib), minlength=n)
        # work[k] = site[head(k)] - contrib[k], the cavity field of the reversal of k
        np.take(site, heads, out=work, mode="clip")  # heads lie in [0, n): "clip" only skips take's buffer
        np.subtract(work, contrib, out=work)
        np.tanh(work[m:], out=contrib[:m])
        np.tanh(work[:m], out=contrib[m:])
        contrib *= 1.0 - BP_DAMPING
        np.multiply(msgs, BP_DAMPING, out=work)
        np.add(contrib, work, out=work)
        np.abs(np.subtract(work, msgs, out=contrib), out=contrib)
        deltas.append(float(np.max(contrib)))
        msgs, work = work, msgs
        if deltas[-1] < BP_TOL:
            break
    marginals = np.tanh(np.bincount(heads, weights=contributions(msgs, contrib), minlength=n))
    state = BpState(messages=msgs, sweeps=len(deltas), max_delta=deltas, converged=deltas[-1] < BP_TOL)
    return state, marginals


def bp_run(
    instance: CbmInstance, epsilon_assumed: float
) -> DetectionOutcome:
    """Belief propagation at the coupling implied by the assumed noise level.

    Always returns labels (success is unconditional); convergence is
    reported through ``converged``, the sweep count and the final message delta.
    """
    if not 0.0 < epsilon_assumed < 0.5:
        raise ValueError(
            f"BP needs 0 < epsilon < 0.5 (infinite or zero coupling at {epsilon_assumed})"
        )
    state, marginals = bp_fixed_point(instance, beta0(epsilon_assumed))
    out = DetectionOutcome(
        method="BP",
        success=True,
        seed=instance.params.seed,
        labels=sign_pm1(marginals),
        iterations=state.sweeps,
        residual=state.max_delta[-1],
        converged=state.converged,
        reason=None if state.converged else "message passing did not converge",
    )
    return _fill_overlap(out, instance)


def _popdyn_draw(rng, pop, alpha, t_beta, flip_prob):
    """A fresh population, each member tanh of a sum of d ~ Poisson(alpha) terms.

    Serves both the message sweep and the marginal samples: the excess
    degree of the Poisson(alpha) limit is again Poisson(alpha).  A term is
    atanh(+-t_beta * parent); (-t)*p rounds as -(t*p) and atanh is odd, so
    it is read from the table [u, -u], u = atanh(t_beta * pop), computed
    once per member.  The degrees come from one total T ~ Poisson(alpha *
    count) split by a uniform row per term, which makes them i.i.d.
    Poisson(alpha).  The T terms are exchangeable (parents and rows are
    i.i.d. and independent of the flips), so flipping the first
    K ~ Binomial(T, flip_prob) of them has the law of T independent flips.
    Generator calls, in order: the total, the parents, the flip count, the
    rows (docs/decisions.md).
    """
    count = len(pop)
    total = int(rng.poisson(alpha * count))
    idx = rng.integers(0, count, size=total)
    idx[: rng.binomial(total, flip_prob)] += count  # a flipped coupling reads -u
    table = np.empty(2 * count)
    u = np.multiply(pop, t_beta, out=table[:count])
    np.clip(u, -_ATANH_CLIP, _ATANH_CLIP, out=u)
    np.arctanh(u, out=u)
    np.negative(u, out=table[count:])
    terms = table.take(idx)
    del idx, table, u
    rows = rng.integers(0, count, size=total)
    fields = np.bincount(rows, weights=terms, minlength=count)
    return np.tanh(fields, out=fields)


def population_dynamics(cfg: PopDynConfig) -> float:
    """Asymptotic BP overlap at (alpha, epsilon) on the Poisson tree, planted state gauged to +1.

    Each sweep rebuilds the whole population synchronously from
    Poisson(alpha) random parents with couplings +1 w.p. 1-epsilon at
    beta0(epsilon); the estimate phase draws full-degree marginals (again
    Poisson(alpha)) and scores p = P(m > 0) + P(m = 0)/2, returning
    2*(max(p,1-p)-1/2).
    """
    if not 0.0 < cfg.epsilon < 0.5:
        raise ValueError(f"population dynamics needs 0 < epsilon < 0.5, got {cfg.epsilon}")
    rng = substream(cfg.seed, "popdyn")
    t_beta = math.tanh(beta0(cfg.epsilon))
    pop = rng.uniform(-0.1, 0.1, size=cfg.pop_size)
    for _ in range(cfg.equilibration_sweeps):
        pop = _popdyn_draw(rng, pop, cfg.alpha, t_beta, cfg.epsilon)
    hits = 0.0
    draws = 0
    for _ in range(cfg.measurement_sweeps):
        marg = _popdyn_draw(rng, pop, cfg.alpha, t_beta, cfg.epsilon)
        hits += float(np.sum(marg > 0.0)) + 0.5 * float(np.sum(marg == 0.0))
        draws += cfg.pop_size
        pop = _popdyn_draw(rng, pop, cfg.alpha, t_beta, cfg.epsilon)
    p = hits / draws
    return 2.0 * (max(p, 1.0 - p) - 0.5)


def detect(
    instance: CbmInstance,
    method: str,
    epsilon: float | None = None,
) -> DetectionOutcome:
    """Dispatch one method on one instance; overlap filled from the planted signs."""
    if method == "NB":
        return algorithm1(instance)
    if method == "BH":
        return algorithm2(instance)
    if method == "BP":
        if epsilon is None:
            raise ValueError("BP requires the assumed epsilon")
        return bp_run(instance, epsilon)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
