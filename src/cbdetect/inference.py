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

from .eigen import NoRealLeader, SolverConfig, power_leading, smallest_symmetric
from .model import CbmInstance, Labeling, beta0, empirical_alpha, overlap, sign_pm1
from .operators import DirectedEdgeIndex, build_bethe_hessian, build_bprime
from .rng import substream

METHODS = ("NB", "BH", "BP")

_ATANH_CLIP = 1.0 - 1e-12  # keep tanh/atanh compositions finite at saturated messages
BP_DAMPING = 0.5  # weight of the previous message in each BP update
BP_TOL = 1e-6  # BP has converged once no message moves by this much in a sweep


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
class BpConfig:
    max_sweeps: int = 500
    seed: int = 0


@dataclass
class BpState:
    """Messages live on directed edges as magnetizations in [-1, 1]."""

    messages: np.ndarray
    beta0: float
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
        outcome.overlap = overlap(Labeling(instance.sigma), Labeling(outcome.labels))
    return outcome


def algorithm1(instance: CbmInstance, cfg: SolverConfig | None = None) -> DetectionOutcome:
    """Non-backtracking detection via the 2n x 2n reduction B'."""
    _require_edges(instance)
    res = power_leading(build_bprime(instance), cfg)
    seed = instance.params.seed
    if isinstance(res, NoRealLeader):
        return DetectionOutcome(
            method="NB",
            success=False,
            seed=seed,
            iterations=res.iterations,
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
    )
    if out.success:
        out.labels = sign_pm1(res.vector[instance.n :])
    else:
        out.reason = f"leading eigenvalue {res.value:.4g} not above sqrt(avg degree) {threshold:.4g}"
    return _fill_overlap(out, instance)


def algorithm2(instance: CbmInstance, cfg: SolverConfig | None = None) -> DetectionOutcome:
    """Bethe-Hessian detection: negative bottom eigenvalue of H(sqrt(2m/n))."""
    _require_edges(instance)
    x = math.sqrt(empirical_alpha(instance))
    res = smallest_symmetric(build_bethe_hessian(instance, x), cfg)
    out = DetectionOutcome(
        method="BH",
        success=res.value < 0.0,
        seed=instance.params.seed,
        lambda_min_h=res.value,
        iterations=res.iterations,
        residual=res.residual,
    )
    if out.success:
        out.labels = sign_pm1(res.vector)
    else:
        out.reason = f"smallest eigenvalue {res.value:.4g} not negative"
    return _fill_overlap(out, instance)


def bp_fixed_point(
    instance: CbmInstance,
    beta: float,
    cfg: BpConfig | None = None,
    initial: np.ndarray | None = None,
) -> tuple[BpState, np.ndarray]:
    """Run damped synchronous BP sweeps; returns final state and node marginals.

    Message update on directed edge i->j:
    m_{i->j} <- tanh( sum_{k in d(i) \\ j} atanh( tanh(beta*J_ki) * m_{k->i} ) ).
    The all-zero message set is the exact uninformative fixed point;
    ``initial`` overrides the default small random start.
    """
    _require_edges(instance)
    cfg = cfg or BpConfig()
    index = DirectedEdgeIndex.from_instance(instance)
    n = instance.n
    heads = index.heads.astype(np.intp, copy=False)  # bincount and take cast any other dtype per call
    t = np.tanh(beta)
    if initial is not None:
        msgs = np.array(initial, dtype=np.float64)
        if msgs.shape != (index.count,):
            raise ValueError(f"initial messages must have shape ({index.count},)")
    else:
        msgs = substream(cfg.seed, "bp-init").uniform(-0.1, 0.1, size=index.count)

    def contributions(m, out):
        # atanh(tanh(beta*J) * m) with J = +-1: (J*m)*t rounds exactly as (J*t)*m
        np.multiply(index.weights, m, out=out)
        out *= t
        np.clip(out, -_ATANH_CLIP, _ATANH_CLIP, out=out)
        return np.arctanh(out, out=out)

    # every sweep runs in three 2m buffers: msgs, contrib and work
    contrib = np.empty(index.count)
    work = np.empty(index.count)
    state = BpState(messages=msgs, beta0=beta)
    for sweep in range(1, cfg.max_sweeps + 1):
        site = np.bincount(heads, weights=contributions(msgs, contrib), minlength=n)
        # work[k] = site[head(k)] - contrib[k], the cavity field of the reverse edge k ^ 1
        np.take(site, heads, out=work, mode="clip")  # heads lie in [0, n): "clip" only skips take's buffer
        np.subtract(work, contrib, out=work)
        fresh = np.tanh(work.reshape(-1, 2)[:, ::-1], out=contrib.reshape(-1, 2)).reshape(-1)
        fresh *= 1.0 - BP_DAMPING
        np.multiply(msgs, BP_DAMPING, out=work)
        new = np.add(fresh, work, out=work)
        np.abs(np.subtract(new, msgs, out=contrib), out=contrib)
        delta = float(np.max(contrib))
        msgs, work = new, msgs
        state.messages = msgs
        state.sweeps = sweep
        state.max_delta.append(delta)
        if delta < BP_TOL:
            state.converged = True
            break
    marginals = np.tanh(np.bincount(heads, weights=contributions(msgs, contrib), minlength=n))
    return state, marginals


def bp_run(
    instance: CbmInstance, epsilon_assumed: float, cfg: BpConfig | None = None
) -> DetectionOutcome:
    """Belief propagation at the coupling implied by the assumed noise level.

    Always returns labels (success is unconditional); convergence is
    reported through the iteration count and final message delta.
    """
    if not 0.0 < epsilon_assumed < 0.5:
        raise ValueError(
            f"BP needs 0 < epsilon < 0.5 (infinite or zero coupling at {epsilon_assumed})"
        )
    state, marginals = bp_fixed_point(instance, beta0(epsilon_assumed), cfg)
    out = DetectionOutcome(
        method="BP",
        success=True,
        seed=instance.params.seed,
        labels=sign_pm1(marginals),
        iterations=state.sweeps,
        residual=state.max_delta[-1] if state.max_delta else 0.0,
        reason=None if state.converged else "message passing did not converge",
    )
    return _fill_overlap(out, instance)


def _popdyn_draw(rng, pop, alpha, t_beta, flip_prob):
    """A fresh population, each member tanh of a sum of d ~ Poisson(alpha) terms.

    Serves both the message sweep and the marginal samples: the excess
    degree of the Poisson(alpha) limit is again Poisson(alpha).
    """
    count = len(pop)
    d = rng.poisson(alpha, size=count)
    total = int(d.sum())
    parents = pop[rng.integers(0, count, size=total)]
    coupling = np.where(rng.random(total) < flip_prob, -t_beta, t_beta)
    terms = np.arctanh(np.clip(coupling * parents, -_ATANH_CLIP, _ATANH_CLIP))
    rows = np.repeat(np.arange(count), d)
    return np.tanh(np.bincount(rows, weights=terms, minlength=count))


def population_dynamics_core(
    alpha: float,
    beta: float,
    epsilon: float,
    pop_size: int,
    equilibration_sweeps: int,
    measurement_sweeps: int,
    rng: np.random.Generator,
) -> float:
    """Asymptotic BP overlap on the Poisson tree, planted state gauged to +1.

    Each sweep rebuilds the whole population synchronously from
    Poisson(alpha) random parents with couplings +1 w.p. 1-epsilon; the
    estimate phase draws full-degree marginals (again Poisson(alpha))
    and scores p = P(m > 0) + P(m = 0)/2, returning 2*(max(p,1-p)-1/2).
    """
    t_beta = math.tanh(beta)
    pop = rng.uniform(-0.1, 0.1, size=pop_size)
    for _ in range(equilibration_sweeps):
        pop = _popdyn_draw(rng, pop, alpha, t_beta, epsilon)
    hits = 0.0
    draws = 0
    for _ in range(measurement_sweeps):
        marg = _popdyn_draw(rng, pop, alpha, t_beta, epsilon)
        hits += float(np.sum(marg > 0.0)) + 0.5 * float(np.sum(marg == 0.0))
        draws += pop_size
        pop = _popdyn_draw(rng, pop, alpha, t_beta, epsilon)
    p = hits / draws
    return 2.0 * (max(p, 1.0 - p) - 0.5)


def population_dynamics(cfg: PopDynConfig) -> float:
    """Asymptotic BP overlap estimate at (alpha, epsilon)."""
    if not 0.0 < cfg.epsilon < 0.5:
        raise ValueError(f"population dynamics needs 0 < epsilon < 0.5, got {cfg.epsilon}")
    return population_dynamics_core(
        cfg.alpha,
        beta0(cfg.epsilon),
        cfg.epsilon,
        cfg.pop_size,
        cfg.equilibration_sweeps,
        cfg.measurement_sweeps,
        substream(cfg.seed, "popdyn"),
    )


def detect(
    instance: CbmInstance,
    method: str,
    epsilon: float | None = None,
    solver: SolverConfig | None = None,
    bp: BpConfig | None = None,
) -> DetectionOutcome:
    """Dispatch one method on one instance; overlap filled from the planted signs."""
    if method == "NB":
        return algorithm1(instance, solver)
    if method == "BH":
        return algorithm2(instance, solver)
    if method == "BP":
        if epsilon is None:
            raise ValueError("BP requires the assumed epsilon")
        return bp_run(instance, epsilon, bp)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
