"""Command-line surface.

Subcommands: ``gen`` (instance files), ``detect`` (one method, one
instance, JSON on stdout), ``sweep`` (overlap vs alpha CSV), ``spectrum``
(dense eigenvalues as CSV and optional SVG scatter), ``popdyn``
(asymptotic BP overlap).  Exit codes: 0 success, 2 typed detection
failure (below threshold), 1 fault (bad input, I/O error, or a solver
fault such as scipy's ``ArpackNoConvergence``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .eigen import DENSE_CAP, dense_spectrum, spectrum_to_csv, spectrum_to_svg
from .inference import METHODS, PopDynConfig, detect, population_dynamics
from .model import (
    CbmParams,
    empirical_alpha,
    generate,
    read_instance,
    write_instance,
)
from .operators import build_bethe_hessian, build_bprime
from .rng import derive_seed

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_DETECTION_FAILED = 2


@dataclass(frozen=True)
class SweepSpec:
    """One overlap-vs-alpha experiment."""

    n: int
    epsilon: float
    alphas: tuple
    trials: int
    methods: tuple
    seed: int

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("alpha grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


@dataclass
class SweepRow:
    alpha: float
    method: str
    mean_overlap: float
    stderr: float
    success_rate: float
    trials: int


def _trial_outcomes(spec: SweepSpec, alpha_index: int, trial: int) -> list:
    """Run every requested method on the (alpha_index, trial) instance."""
    alpha = spec.alphas[alpha_index]
    seed = derive_seed(spec.seed, "sweep-trial", alpha_index, trial)
    inst = generate(CbmParams(n=spec.n, alpha=alpha, epsilon=spec.epsilon, seed=seed))
    rows = []
    for method in spec.methods:
        out = detect(inst, method, epsilon=spec.epsilon if method == "BP" else None)
        rows.append((alpha_index, method, out.success, out.overlap if out.overlap else 0.0))
    return rows


def _pool_entry(args):
    return _trial_outcomes(*args)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """Execute the sweep; trial results are order-independent, rows sorted."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = [
        (spec, ai, t) for ai in range(len(spec.alphas)) for t in range(spec.trials)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(pool.map(_pool_entry, tasks))
    else:
        per_trial = [_trial_outcomes(*task) for task in tasks]
    acc: dict[tuple[int, str], list] = {}
    for rows in per_trial:
        for alpha_index, method, success, ov in rows:
            acc.setdefault((alpha_index, method), []).append((success, ov))
    out = []
    for (alpha_index, method), vals in acc.items():
        ovs = np.array([v for _, v in vals])
        succ = np.array([s for s, _ in vals])
        stderr = float(np.std(ovs, ddof=1) / math.sqrt(len(ovs))) if len(ovs) > 1 else 0.0
        out.append(
            SweepRow(
                alpha=float(spec.alphas[alpha_index]),
                method=method,
                mean_overlap=float(np.mean(ovs)),
                stderr=stderr,
                success_rate=float(np.mean(succ)),
                trials=len(vals),
            )
        )
    out.sort(key=lambda r: (r.alpha, r.method))
    return out


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    lines = ["alpha,method,mean_overlap,stderr,success_rate,trials"]
    for r in rows:
        lines.append(
            f"{r.alpha!r},{r.method},{r.mean_overlap!r},{r.stderr!r},{r.success_rate!r},{r.trials}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_methods(raw: str) -> tuple:
    return tuple(tok for tok in raw.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cbdetect")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--alpha", type=float, required=True)
    gen.add_argument("--epsilon", type=float, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    det = sub.add_parser("detect", help="run one detection method on an instance file")
    det.add_argument("--in", dest="infile", required=True)
    det.add_argument("--methods", required=True, help="exactly one of NB, BH, BP")
    det.add_argument("--epsilon", type=float, default=None, help="assumed noise (BP only)")

    swp = sub.add_parser("sweep", help="overlap vs alpha experiment, CSV output")
    swp.add_argument("--n", type=int, default=10_000)
    swp.add_argument("--epsilon", type=float, required=True)
    swp.add_argument("--alpha", required=True, help="comma-separated alpha list")
    swp.add_argument("--trials", type=int, default=20)
    swp.add_argument("--methods", default="NB,BH")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--out", required=True)
    swp.add_argument("--jobs", type=int, default=1)

    spc = sub.add_parser("spectrum", help="dense spectrum of B' (or H) as CSV/SVG")
    spc.add_argument("--in", dest="infile", default=None)
    spc.add_argument("--n", type=int, default=None)
    spc.add_argument("--alpha", type=float, default=None)
    spc.add_argument("--epsilon", type=float, default=None)
    spc.add_argument("--seed", type=int, default=0)
    spc.add_argument("--operator", choices=["bprime", "bethe"], default="bprime")
    spc.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    spc.add_argument("--svg", default=None, help="optional SVG scatter path")

    pop = sub.add_parser("popdyn", help="asymptotic BP overlap by population dynamics")
    pop.add_argument("--alpha", type=float, required=True)
    pop.add_argument("--epsilon", type=float, required=True)
    pop.add_argument("--pop-size", type=int, default=PopDynConfig.pop_size)
    pop.add_argument("--sweeps", type=int, default=None,
                     help="equilibration and measurement sweeps (default "
                     f"{PopDynConfig.equilibration_sweeps}/{PopDynConfig.measurement_sweeps})")
    pop.add_argument("--trials", type=int, default=1, help="independent replicas")
    pop.add_argument("--seed", type=int, default=0)

    return top


def cmd_gen(args) -> int:
    params = CbmParams(n=args.n, alpha=args.alpha, epsilon=args.epsilon, seed=args.seed)
    inst = generate(params)
    write_instance(inst, args.out)
    print(f"n={inst.n} m={inst.m} alpha={empirical_alpha(inst)!r}")
    return EXIT_OK


def cmd_detect(args) -> int:
    methods = _parse_methods(args.methods)
    if len(methods) != 1:
        raise ValueError("detect takes exactly one method")
    inst = read_instance(args.infile)
    out = detect(inst, methods[0], epsilon=args.epsilon)
    print(out.to_json())
    return EXIT_OK if out.success else EXIT_DETECTION_FAILED


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        n=args.n,
        epsilon=args.epsilon,
        alphas=tuple(float(tok) for tok in args.alpha.split(",") if tok),
        trials=args.trials,
        methods=_parse_methods(args.methods),
        seed=args.seed,
    )
    rows = run_sweep(spec, jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.infile is not None:
        inst = read_instance(args.infile)
    else:
        if args.n is None or args.alpha is None or args.epsilon is None:
            raise ValueError("spectrum needs --in or all of --n/--alpha/--epsilon")
        inst = generate(
            CbmParams(n=args.n, alpha=args.alpha, epsilon=args.epsilon, seed=args.seed)
        )
    if args.operator == "bethe":
        matrix = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
    else:
        matrix = build_bprime(inst)
    if matrix.shape[0] > DENSE_CAP:
        raise ValueError(
            f"matrix dimension {matrix.shape[0]} above dense cap {DENSE_CAP}; use a smaller n"
        )
    eig = dense_spectrum(matrix.toarray())
    csv = spectrum_to_csv(eig, args.out)
    if args.out is None:
        sys.stdout.write(csv)
    if args.svg is not None:
        spectrum_to_svg(eig, args.svg, radius=math.sqrt(empirical_alpha(inst)))
    return EXIT_OK


def cmd_popdyn(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    sweeps = {}
    if args.sweeps is not None:
        sweeps = {"equilibration_sweeps": args.sweeps, "measurement_sweeps": args.sweeps}
    cfg = PopDynConfig(alpha=args.alpha, epsilon=args.epsilon, pop_size=args.pop_size, **sweeps)
    est = np.array([
        population_dynamics(replace(cfg, seed=derive_seed(args.seed, "popdyn-replica", replica)))
        for replica in range(args.trials)
    ])
    stderr = float(np.std(est, ddof=1) / math.sqrt(len(est))) if len(est) > 1 else 0.0
    print(
        json.dumps(
            {
                "estimate": float(np.mean(est)),
                "stderr": stderr,
                "replicas": args.trials,
                "alpha": args.alpha,
                "epsilon": args.epsilon,
                "pop_size": args.pop_size,
                "equilibration_sweeps": cfg.equilibration_sweeps,
                "measurement_sweeps": cfg.measurement_sweeps,
                "seed": args.seed,
            }
        )
    )
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "detect": cmd_detect,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "popdyn": cmd_popdyn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FAULT if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
