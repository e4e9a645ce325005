"""Complex spectra of B' below and above the detection threshold.

Two n=2000 instances at epsilon=0.25 (alpha=3 and alpha=8); each gives a
CSV of eigenvalues and an SVG scatter with the sqrt(alpha) circle.  The
above-threshold panel shows the single real outlier near alpha*(1-2*eps).
"""

import argparse
import math
import sys
from pathlib import Path

from cbdetect import CbmParams, dense_spectrum, empirical_alpha, generate
from cbdetect.eigen import spectrum_to_csv, spectrum_to_svg
from cbdetect.operators import build_bprime


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
        inst = generate(CbmParams(n=args.n, alpha=alpha, epsilon=args.epsilon, seed=args.seed))
        eig = dense_spectrum(build_bprime(inst).to_dense())
        stem = outdir / f"spectrum_alpha{alpha:g}"
        spectrum_to_csv(eig, stem.with_suffix(".csv"))
        spectrum_to_svg(eig, stem.with_suffix(".svg"), radius=math.sqrt(empirical_alpha(inst)))
        print(f"wrote {stem}.csv and {stem}.svg", file=sys.stderr)


if __name__ == "__main__":
    main()
