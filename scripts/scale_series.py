"""Time and peak memory of ``cbdetect gen``, reading the file, ``detect`` NB/BH/BP as n grows, and ``popdyn``.

    python3 scripts/scale_series.py                    # n = 10^4 and 10^5
    python3 scripts/scale_series.py --n 10000,100000,1000000

Every command runs in a fresh child process, one after another, at alpha = 8,
epsilon = 0.25, so each peak belongs to that command alone.  Each child fixes
glibc's malloc thresholds as ``perfbench/run.py`` does, imports cbdetect
from this checkout's ``src/``, runs ``cli.main`` and reports its own CPU
seconds for the command, its ``ru_maxrss`` after the imports and at the end.
The ``read`` row is ``model.read_instance`` on the ``gen`` file alone, the
first step of every ``detect``.
For ``detect`` the ``iterations`` of its JSON line (power iterations for NB
and BH, sweeps for BP) are reported too, with the command's CPU
milliseconds per iteration; for BP that is the cost of one sweep plus its
share of reading the file and setting up.  ``popdyn`` does not depend on n
and runs once, after the sizes, at the same alpha and epsilon with
``--pop-size 10000``; its iterations are its equilibration plus measurement
sweeps, the count the benchmark's ``inference.popdyn_sweep_ms`` divides by.
One JSON line per command goes to stdout, followed by a table on stderr.
The instance files live in a temporary directory that is removed at the end.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALPHA, EPSILON, SEED = 8.0, 0.25, 1
POP_SIZE = 10_000
METHODS = ("NB", "BH", "BP")


def child(argv) -> None:
    """Run one cbdetect command in this process and print its costs as JSON on stderr."""
    import ctypes
    import ctypes.util
    import resource
    import time

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, as perfbench/run.py sets it
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass
    sys.path.insert(0, str(ROOT / "src"))
    from cbdetect import cli, model

    import_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = time.process_time()
    if argv[0] == "read":
        model.read_instance(argv[1])
        code = 0
    else:
        code = cli.main(argv)
    cpu_s = time.process_time() - t
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"exit": code, "cpu_s": cpu_s, "import_mb": import_mb, "peak_mb": peak_mb}), file=sys.stderr)


def run(argv) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child", *argv], env=env,
                          capture_output=True, text=True, check=True)
    costs = json.loads(proc.stderr.strip().splitlines()[-1])
    iterations = None
    if argv[0] == "detect":
        iterations = json.loads(proc.stdout.splitlines()[-1])["iterations"]
    elif argv[0] == "popdyn":
        doc = json.loads(proc.stdout.splitlines()[-1])
        iterations = doc["equilibration_sweeps"] + doc["measurement_sweeps"]
    per_iter = 1e3 * costs["cpu_s"] / iterations if iterations else None
    return {**costs, "iterations": iterations, "ms_per_iteration": per_iter}


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", default="10000,100000", help="comma-separated sizes (default 10000,100000)")
    args = ap.parse_args()
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in (int(tok) for tok in args.n.split(",")):
            path = str(Path(tmp) / f"n{n}.cbm")
            gen = ["gen", "--n", str(n), "--alpha", str(ALPHA), "--epsilon", str(EPSILON),
                   "--seed", str(SEED), "--out", path]
            commands = [("gen", gen), ("read", ["read", path])] + [
                (f"detect {m}", ["detect", "--in", path, "--methods", m, "--epsilon", str(EPSILON)])
                for m in METHODS
            ]
            for name, argv in commands:
                row = {"n": n, "command": name, **run(argv)}
                rows.append(row)
                print(json.dumps(row), flush=True)
    popdyn = ["popdyn", "--alpha", str(ALPHA), "--epsilon", str(EPSILON), "--pop-size", str(POP_SIZE),
              "--seed", str(SEED)]
    row = {"n": None, "command": "popdyn", **run(popdyn)}
    rows.append(row)
    print(json.dumps(row), flush=True)
    print(f"{'n':>8} {'command':<10} {'exit':>4} {'cpu_s':>8} {'iters':>6} {'ms/iter':>8} {'import_mb':>9} "
          f"{'peak_mb':>8}", file=sys.stderr)
    for r in rows:
        iters = "" if r["iterations"] is None else r["iterations"]
        per_iter = "" if r["ms_per_iteration"] is None else f"{r['ms_per_iteration']:.2f}"
        n = "-" if r["n"] is None else r["n"]
        print(f"{n:>8} {r['command']:<10} {r['exit']:>4} {r['cpu_s']:>8.2f} {iters:>6} {per_iter:>8} "
              f"{r['import_mb']:>9.1f} {r['peak_mb']:>8.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
