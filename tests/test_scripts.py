"""The committed study scripts run end to end on their smallest inputs, so neither can rot unseen."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv, json_lines=True):
    """Exit status 0, and the JSON lines the script prints on stdout (its raw stdout otherwise), with its stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if not json_lines:
        return proc.stdout, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()], proc.stderr


def test_bp_damping_smallest_cell():
    rows, table = run_script("bp_damping.py", "--n", "500", "--epsilon", "0.1", "--ratio", "0.75")
    assert [row["damping"] for row in rows] == [0.5, 0.375, 0.25, 0.125, 0.0]
    for row in rows:
        assert (row["n"], row["epsilon"], row["ratio"]) == (500, 0.1, 0.75)
        assert len(row["sweeps"]) == len(row["converged"]) == len(row["overlap"]) == 4
        assert all(1 <= s <= 500 for s in row["sweeps"])
    assert "below alpha_c, d=0.25" in table


def test_scale_series_at_n_2000():
    rows, _ = run_script("scale_series.py", "--n", "2000")
    assert [row["command"] for row in rows] == ["gen", "read", "detect NB", "detect BH", "detect BP", "popdyn"]
    for row in rows:
        assert row["exit"] == 0 and row["cpu_s"] > 0 and row["peak_mb"] >= row["import_mb"] > 0
        assert (row["iterations"] is None) == (row["command"] in ("gen", "read"))


def test_fig_spectrum_at_n_100(tmp_path):
    run_script("fig_spectrum.py", "--n", "100", "--outdir", str(tmp_path), json_lines=False)
    for alpha in (3, 8):
        stem = tmp_path / f"spectrum_alpha{alpha}"
        assert len(stem.with_suffix(".csv").read_text().splitlines()) == 2 * 100 + 1  # header and 2n eigenvalues
        assert stem.with_suffix(".svg").exists()


def test_fig_overlap_help():
    usage, _ = run_script("fig_overlap.py", "--help", json_lines=False)
    assert "--full" in usage and "--jobs" in usage
