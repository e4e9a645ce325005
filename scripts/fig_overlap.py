"""Overlap-vs-alpha comparison of NB, BH, BP and the asymptotic BP curve.

Desk-scale defaults (n=10^4, 20 trials); pass --full for the n=10^5
protocol.  The alpha grid is fixed relative to the detection threshold
alpha_c = 1/(1-2*epsilon)^2, so it straddles alpha_c at every epsilon.
Writes results/overlap_sweep.csv and results/popdyn.csv.
"""

import argparse
import sys
from pathlib import Path

from cbdetect.cli import SweepSpec, run_sweep, write_sweep_csv
from cbdetect.inference import PopDynConfig, population_dynamics
from cbdetect.model import alpha_detect
from cbdetect.rng import derive_seed

RATIOS = (0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5, 1.75, 2.0)  # alpha / alpha_c


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--full", action="store_true", help="n=10^5 instead of 10^4")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sweep_csv = outdir / "overlap_sweep.csv"
    alphas = tuple(alpha_detect(args.epsilon) * r for r in RATIOS)

    spec = SweepSpec(
        n=100_000 if args.full else 10_000,
        epsilon=args.epsilon,
        alphas=alphas,
        trials=args.trials,
        methods=("NB", "BH", "BP"),
        seed=args.seed,
    )
    rows = run_sweep(spec, jobs=args.jobs)
    write_sweep_csv(rows, sweep_csv)
    print(f"wrote {sweep_csv}", file=sys.stderr)

    lines = ["alpha,estimate"]
    for k, alpha in enumerate(alphas):
        est = population_dynamics(
            PopDynConfig(alpha=alpha, epsilon=args.epsilon,
                         seed=derive_seed(args.seed, "popdyn-fig", k))
        )
        lines.append(f"{alpha!r},{est!r}")
    (outdir / "popdyn.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {outdir / 'popdyn.csv'}", file=sys.stderr)


if __name__ == "__main__":
    main()
