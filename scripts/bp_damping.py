"""Sweeps, capped runs and overlap of loopy BP against its damping: the study behind ``BP_DAMPING``.

    python3 scripts/bp_damping.py                                    # the whole study
    python3 scripts/bp_damping.py --n 500 --epsilon 0.1 --ratio 0.75 --seeds 1   # one cell

The grid is n in {500, 2000, 10^4} x epsilon in {0.1, 0.25, 0.35} x
alpha/alpha_c in {0.75, 1, 1.25, 2}, with alpha_c = 1/(1-2 epsilon)^2 and
4 seeds per cell, plus n = 10^5 at epsilon = 0.25 and alpha/alpha_c in
{1.25, 2} with 2 seeds.  ``--n``, ``--epsilon`` and ``--ratio`` keep only
the cells they list and ``--seeds`` caps the seeds per cell.  Every
instance is generated once and BP runs on it at each damping in DAMPINGS,
at the true epsilon, capped at ``BP_MAX_SWEEPS``; the damping is set by
rebinding ``inference.BP_DAMPING``, which ``bp_fixed_point`` reads at call
time, and restored afterwards.  One JSON line per cell and damping goes to
stdout (per seed: sweeps, converged, overlap), then a table on stderr:
total sweeps, capped runs and mean overlap per damping, and against 0.5,
apart below, at and above alpha_c, the sweep ratio, the runs capped at
one damping only and the largest overlap difference over runs that
converge at both.  Below alpha_c BP converges to messages of order
10^-6, whose signs carry no information, so the overlaps there differ by
noise between dampings.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cbdetect import inference  # noqa: E402
from cbdetect.inference import bp_run  # noqa: E402
from cbdetect.model import CbmParams, alpha_detect, generate  # noqa: E402
from cbdetect.rng import derive_seed  # noqa: E402

DAMPINGS = (0.5, 0.375, 0.25, 0.125, 0.0)
BASE = 0.5  # the damping every other one is compared with
GRID = [(n, eps, ratio, 4) for n in (500, 2000, 10_000) for eps in (0.1, 0.25, 0.35)
        for ratio in (0.75, 1.0, 1.25, 2.0)]
GRID += [(100_000, 0.25, ratio, 2) for ratio in (1.25, 2.0)]


def floats(text):
    return [float(tok) for tok in text.split(",")]


def run_cell(n, eps, ratio, seeds):
    """Per damping, the (sweeps, converged, overlap) of each seed's instance."""
    alpha = ratio * alpha_detect(eps)
    runs = {d: [] for d in DAMPINGS}
    saved = inference.BP_DAMPING
    try:
        for k in range(seeds):
            seed = derive_seed(0, "bp-damping", n, round(1000 * eps), round(1000 * ratio), k)
            inst = generate(CbmParams(n=n, alpha=alpha, epsilon=eps, seed=seed))
            for d in DAMPINGS:
                inference.BP_DAMPING = d
                out = bp_run(inst, eps)
                runs[d].append((out.iterations, out.converged, out.overlap))
    finally:
        inference.BP_DAMPING = saved
    return runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", help="comma-separated sizes to keep (default: all)")
    ap.add_argument("--epsilon", help="comma-separated noise levels to keep (default: all)")
    ap.add_argument("--ratio", help="comma-separated alpha/alpha_c to keep (default: all)")
    ap.add_argument("--seeds", type=int, help="at most this many seeds per cell")
    args = ap.parse_args()
    sizes = None if args.n is None else [int(tok) for tok in args.n.split(",")]
    cells = [(n, eps, ratio, seeds) for n, eps, ratio, seeds in GRID
             if (sizes is None or n in sizes)
             and (args.epsilon is None or eps in floats(args.epsilon))
             and (args.ratio is None or ratio in floats(args.ratio))]
    if not cells:
        ap.error("no cell of the grid matches --n, --epsilon and --ratio")
    rows = []
    for n, eps, ratio, seeds in cells:
        runs = run_cell(n, eps, ratio, min(seeds, args.seeds or seeds))
        for d in DAMPINGS:
            sweeps, converged, overlaps = (list(col) for col in zip(*runs[d]))
            print(json.dumps({"n": n, "epsilon": eps, "ratio": ratio, "damping": d, "sweeps": sweeps,
                              "converged": converged, "overlap": overlaps}), flush=True)
        rows.append(((n, eps, ratio), runs))

    print(f"{'n':>7} {'eps':>5} {'a/ac':>5} " + " ".join(f"{f'd={d}':>21}" for d in DAMPINGS), file=sys.stderr)
    print(f"{'':>19} " + " ".join(f"{'sweeps capped overlap':>21}" for _ in DAMPINGS), file=sys.stderr)
    for (n, eps, ratio), runs in rows:
        cols = [f"{sum(s for s, _, _ in runs[d]):>6} {sum(not c for _, c, _ in runs[d]):>6} "
                f"{sum(o for _, _, o in runs[d]) / len(runs[d]):>7.4f}" for d in DAMPINGS]
        print(f"{n:>7} {eps:>5} {ratio:>5} " + " ".join(f"{c:>21}" for c in cols), file=sys.stderr)
    print(f"\nagainst d={BASE}, below, at and above alpha_c: sweeps over the runs converged at both, runs capped "
          "only at d, runs converged only at d, largest |overlap difference| over the runs converged at both",
          file=sys.stderr)
    for side, keep in (("below", lambda r: r < 1.0), ("at", lambda r: r == 1.0), ("above", lambda r: r > 1.0)):
        kept = [runs for (_, _, ratio), runs in rows if keep(ratio)]
        for d in DAMPINGS:
            pairs = [(a, b) for runs in kept for a, b in zip(runs[BASE], runs[d])]
            both = [(a, b) for a, b in pairs if a[1] and b[1]]
            fewer = sum(b[0] for _, b in both) / max(sum(a[0] for a, _ in both), 1)
            worse = sum(a[1] and not b[1] for a, b in pairs)
            better = sum(b[1] and not a[1] for a, b in pairs)
            gap = max((abs(a[2] - b[2]) for a, b in both), default=0.0)
            print(f"  {side:>5} alpha_c, d={d:<6} sweeps x{fewer:.3f}  capped only at d: {worse:>3}  "
                  f"converged only at d: {better:>3}  max |overlap diff| {gap:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
