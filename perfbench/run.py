"""cbdetect benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep_transition --seed 1 --seconds 38 --trace 0

Run from the repository root.  The run sets up (imports, warm-ups), then
repeats whole rounds of its workload as long as the next round is expected
to end within --seconds (at least one round), then checks every output
against references of its own and prints, as its last line, one JSON
object with the metrics.  Timings are sums over all calls of one kind, and
attempted/failed are operation counts, all divided by the number of
rounds.  --trace 1 wraps the layers in span recorders, reports the
per-layer metrics instead and writes the spans to .perfbench_work/.
"""

import os
import sys
import time

# one BLAS/OpenMP thread: on two cores it is faster than two, with the same iterates
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at their adapted maximum.

    By default glibc raises the mmap threshold as large blocks are freed, so
    whether a temporary array is page-faulted in afresh depends on what the
    process allocated before: the same population-dynamics call took 3.6 s
    with 54k minor faults in one run and 4.6 s with 469k in another.  Fixed
    thresholds make every run allocate the same way.
    """
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the dynamic maximum on 64-bit glibc
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass  # not glibc: its allocator keeps its own policy


_fix_malloc_thresholds()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUPS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "gen_s": "s",
    "nb_s": "s",
    "bh_s": "s",
    "bp_s": "s",
    "popdyn_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import cbdetect from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "cbdetect" / "__init__.py").is_file():
        raise SystemExit(f"error: no cbdetect sources under {src}")
    sys.path.insert(0, str(src))
    import cbdetect

    if Path(cbdetect.__file__).resolve().parent != (src / "cbdetect").resolve():
        raise SystemExit(f"error: imported cbdetect from {cbdetect.__file__}, not from {src}")


def warm_up(work: Path) -> None:
    """One untimed call of each entry point on a tiny instance."""
    from cbdetect import inference, model
    from workloads import run_cli

    inst = model.generate(model.CbmParams(n=200, alpha=8.0, epsilon=0.25, seed=1))
    for method in ("NB", "BH", "BP"):
        inference.detect(inst, method, epsilon=0.25 if method == "BP" else None)
    path = str(work / "warmup.cbm")
    run_cli(["gen", "--n", "200", "--alpha", "8", "--epsilon", "0.25", "--seed", "1", "--out", path])
    for method in ("NB", "BH", "BP"):
        run_cli(["detect", "--in", path, "--methods", method, "--epsilon", "0.25"])
    run_cli(["popdyn", "--alpha", "8", "--epsilon", "0.25", "--pop-size", "100", "--sweeps", "5"])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_work"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workloads, out_dir: Path, work: Path) -> int:
    # CPU seconds since the process started: interpreter, imports, then warm-ups
    t_imported = time.process_time()
    warmups = []
    for _ in range(WARMUPS):
        t = time.process_time()
        warm_up(work)
        warmups.append(time.process_time() - t)
    setup_s = t_imported + statistics.median(warmups)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    seconds = defaultdict(float)
    round_ops = []  # the operations of each round
    run_round = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    while True:
        rnd = workloads.Round(time.process_time, seconds)
        run_round(rnd, args.seed, len(round_ops), work)
        round_ops.append(rnd.ops)
        elapsed = time.perf_counter() - t0
        # stop when one more round of the mean length would end past --seconds
        if elapsed * (len(round_ops) + 1) / len(round_ops) > args.seconds:
            break
    rounds = len(round_ops)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    from reference import UNCONVERGED, References

    t_checks = time.perf_counter()
    refs = References()
    failed = []  # failed operations in each round
    unexpected = 0
    for ops in round_ops:
        failed.append(0)
        for op in ops:
            reason = op.error
            if reason is None:
                try:
                    reason = op.check(op.result, refs)
                except Exception as exc:  # malformed output, e.g. a JSON line missing a field
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failed[-1] += 1
                known = op.known_fault and reason.startswith(UNCONVERGED)
                unexpected += not known
                print(f"FAILED {'known fault' if known else 'UNEXPECTED'}: {op.label}: {reason}", file=sys.stderr)
    attempted = {len(ops) for ops in round_ops}
    if len(attempted) != 1 or len(set(failed)) != 1:
        # rounds repeat the same operations on the same fixed instances
        print(f"rounds differ: attempted {sorted(attempted)}, failed {failed}", file=sys.stderr)
        unexpected += 1

    if tracer is not None:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = tracer.metrics(rounds)
        print(f"traced wall_s {wall / rounds!r} over {rounds} rounds; spans in {trace_path}", file=sys.stderr)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall / rounds,
            "peak_rss_mb": peak_rss_mb,
            **{name: seconds[name] / rounds for name in ("gen_s", "nb_s", "bh_s", "bp_s", "popdyn_s")},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"{rounds} rounds; per round {max(attempted)} operations, {max(failed)} failed; "
          f"checks took {time.perf_counter() - t_checks:.1f} s", file=sys.stderr)
    # correct: every failure is the known BH fault on an instance listed for it
    print(json.dumps({"correct": unexpected == 0, "attempted": max(attempted), "failed": max(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
