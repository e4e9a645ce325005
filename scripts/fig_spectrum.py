"""Complex spectra of B' below and above the detection threshold.

Two n=2000 instances at epsilon=0.25 (alpha=3 and alpha=8); each gives a
CSV of eigenvalues and an SVG scatter with the sqrt(alpha) circle, written
by ``cbdetect spectrum``.  The above-threshold panel shows the single real
outlier near alpha*(1-2*eps).
"""

import argparse
import sys
from pathlib import Path

from cbdetect import cli


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--alphas", default="3,8")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for alpha in (float(t) for t in args.alphas.split(",")):
        stem = outdir / f"spectrum_alpha{alpha:g}"
        code = cli.main([
            "spectrum", "--n", str(args.n), "--alpha", repr(alpha), "--epsilon", repr(args.epsilon),
            "--seed", str(args.seed), "--out", str(stem.with_suffix(".csv")),
            "--svg", str(stem.with_suffix(".svg")),
        ])
        if code != cli.EXIT_OK:
            return code
        print(f"wrote {stem}.csv and {stem}.svg", file=sys.stderr)
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
