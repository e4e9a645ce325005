import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from cbdetect import CbmParams, cli, generate, write_instance
from cbdetect.cli import EXIT_DETECTION_FAILED, EXIT_FAULT, EXIT_OK, SweepSpec, main

GOLDEN_SWEEP = Path(__file__).parent / "data" / "golden_sweep.csv"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def above_file(tmp_path):
    path = tmp_path / "above.cbm"
    write_instance(generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=21)), path)
    return str(path)


@pytest.fixture()
def below_file(tmp_path):
    path = tmp_path / "below.cbm"
    write_instance(generate(CbmParams(n=2000, alpha=3, epsilon=0.25, seed=11)), path)
    return str(path)


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "tri.cbm"
    path.write_text("%cbm 1\n3 3 0.0 1\nsigma\n1 1 1\n0 1 1\n0 2 1\n1 2 1\n")
    return str(path)


class TestGen:
    def test_writes_header_and_summary(self, capsys, tmp_path):
        out = tmp_path / "x.cbm"
        code, stdout, _ = run_cli(
            capsys, "gen", "--n", "1000", "--alpha", "8", "--epsilon", "0.25",
            "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.read_text().startswith("%cbm 1\n")
        assert stdout.startswith("n=1000 m=")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.cbm", tmp_path / "b.cbm"
        args = ["gen", "--n", "1000", "--alpha", "8", "--epsilon", "0.25", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_epsilon_faults(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--n", "10", "--alpha", "2", "--epsilon", "0.6",
            "--seed", "1", "--out", str(tmp_path / "x.cbm"),
        )
        assert code == EXIT_FAULT
        assert "epsilon" in err


class TestDetect:
    def test_nb_success_json(self, capsys, above_file):
        code, stdout, _ = run_cli(capsys, "detect", "--in", above_file, "--methods", "NB")
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert doc["method"] == "NB" and doc["success"] is True
        assert 3.0 < doc["lambda1"] < 5.0

    def test_bh_below_threshold_exit_two(self, capsys, below_file):
        code, stdout, _ = run_cli(capsys, "detect", "--in", below_file, "--methods", "BH")
        assert code == EXIT_DETECTION_FAILED
        doc = json.loads(stdout)
        assert doc["success"] is False and doc["lambda_min_H"] >= 0

    def test_bp_missing_epsilon_faults(self, capsys, above_file):
        code, _, err = run_cli(capsys, "detect", "--in", above_file, "--methods", "BP")
        assert code == EXIT_FAULT and "epsilon" in err

    def test_bp_with_epsilon(self, capsys, above_file):
        code, stdout, _ = run_cli(
            capsys, "detect", "--in", above_file, "--methods", "BP", "--epsilon", "0.25"
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["success"] is True

    def test_multiple_methods_fault(self, capsys, above_file):
        code, _, err = run_cli(capsys, "detect", "--in", above_file, "--methods", "NB,BH")
        assert code == EXIT_FAULT

    def test_missing_file_faults(self, capsys):
        code, _, _ = run_cli(capsys, "detect", "--in", "/nonexistent.cbm", "--methods", "NB")
        assert code == EXIT_FAULT


class TestSweep:
    ARGS = [
        "sweep", "--n", "400", "--epsilon", "0.25", "--alpha", "2,6",
        "--trials", "2", "--methods", "NB,BH", "--seed", "5",
    ]

    def test_csv_schema_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "alpha,method,mean_overlap,stderr,success_rate,trials"
        assert len(lines) == 5  # 2 alphas x 2 methods
        rows = [ln.split(",") for ln in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == sorted((r[0], r[1]) for r in rows)
        for r in rows:
            assert 0.0 <= float(r[2]) <= 1.0
            assert 0.0 <= float(r[4]) <= 1.0
            assert r[5] == "2"

    def test_parallel_matches_serial(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a), "--jobs", "1"]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b), "--jobs", "2"]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CBM_JOBS", "2")
        out = tmp_path / "env.csv"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert out.exists()

    def test_empty_methods_fault(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "100", "--epsilon", "0.25", "--alpha", "3",
            "--methods", "", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_FAULT

    def test_missing_grid_fault(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "100", "--epsilon", "0.25",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_FAULT

    def test_golden_csv_bytes(self, capsys, tmp_path):
        # three methods across the transition at n = 1000; any change to the
        # generator, the operators or a solver shows up in these bytes
        out = tmp_path / "golden.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "1000", "--epsilon", "0.25", "--alpha", "3,4.5,8",
            "--trials", "3", "--methods", "NB,BH,BP", "--seed", "5", "--out", str(out),
        )
        assert code == EXIT_OK
        assert out.read_bytes() == GOLDEN_SWEEP.read_bytes()

    def test_alpha_range_flags(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "200", "--epsilon", "0.25",
            "--alpha-min", "2", "--alpha-max", "4", "--alpha-step", "1",
            "--trials", "1", "--methods", "NB", "--seed", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        alphas = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert alphas == ["2.0", "3.0", "4.0"]


class TestSpectrum:
    def test_triangle_file_matches_known_multiset(self, capsys, tmp_path, triangle_file):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--in", triangle_file, "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im" and len(lines) == 7
        got = np.array([complex(float(a), float(b)) for a, b in
                        (ln.split(",") for ln in lines[1:])])
        want = [1.0, 1.0] + [np.exp(s * 2j * np.pi / 3) for s in (1, 1, -1, -1)]
        pool = list(got)
        for w in want:
            k = int(np.argmin([abs(g - w) for g in pool]))
            assert abs(pool.pop(k) - w) < 1e-6

    def test_stdout_mode_and_generation_flags(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "spectrum", "--n", "30", "--alpha", "4", "--epsilon", "0.25", "--seed", "3"
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0] == "re,im" and len(lines) == 61

    def test_stdout_bytes_equal_file_bytes(self, capsys, tmp_path):
        args = ["spectrum", "--n", "40", "--alpha", "5", "--epsilon", "0.25", "--seed", "3"]
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, *args, "--out", str(out))
        assert code == EXIT_OK
        code, stdout, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        assert stdout.encode() == out.read_bytes()

    def test_bethe_operator_real_spectrum(self, capsys, tmp_path, triangle_file):
        out = tmp_path / "h.csv"
        code, _, _ = run_cli(
            capsys, "spectrum", "--in", triangle_file, "--operator", "bethe", "--out", str(out)
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        ims = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(abs(v) < 1e-10 for v in ims)
        res = sorted(float(ln.split(",")[0]) for ln in lines[1:])
        x = math.sqrt(2.0)
        assert np.allclose(res, [3 - 2 * x, 3 + x, 3 + x], atol=1e-8)

    def test_svg_written(self, capsys, tmp_path, triangle_file):
        svg = tmp_path / "s.svg"
        code, _, _ = run_cli(
            capsys, "spectrum", "--in", triangle_file, "--out", str(tmp_path / "s.csv"),
            "--svg", str(svg),
        )
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg") and text.count("<circle") == 7

    def test_dense_cap_exceeded_faults(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "spectrum", "--n", "3000", "--alpha", "3", "--epsilon", "0.25"
        )
        assert code == EXIT_FAULT and "smaller n" in err

    def test_needs_source_fault(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--alpha", "3")
        assert code == EXIT_FAULT


class TestPopdyn:
    def test_json_fields_and_replicas(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "popdyn", "--alpha", "8", "--epsilon", "0.25",
            "--pop-size", "500", "--sweeps", "40", "--trials", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        doc = json.loads(stdout)
        assert set(doc) == {
            "estimate", "stderr", "replicas", "alpha", "epsilon",
            "pop_size", "equilibration_sweeps", "measurement_sweeps", "seed",
        }
        assert doc["replicas"] == 2 and doc["estimate"] > 0.3

    def test_vanishing_coupling_limit(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "popdyn", "--alpha", "8", "--epsilon", "0.4999",
            "--pop-size", "500", "--sweeps", "40", "--seed", "1",
        )
        assert code == EXIT_OK
        assert json.loads(stdout)["estimate"] < 0.05

    def test_invalid_epsilon_faults(self, capsys):
        code, _, _ = run_cli(capsys, "popdyn", "--alpha", "8", "--epsilon", "0.5")
        assert code == EXIT_FAULT


class TestExitCodeMatrix:
    def test_contract(self, capsys, tmp_path, above_file, below_file):
        ok = ["detect", "--in", above_file, "--methods", "NB"]
        typed = ["detect", "--in", below_file, "--methods", "NB"]
        fault = ["detect", "--in", above_file, "--methods", "ZZ"]
        assert main(ok) == EXIT_OK
        assert main(typed) == EXIT_DETECTION_FAILED
        assert main(fault) == EXIT_FAULT
        capsys.readouterr()

    def test_solver_fault_exit_one(self, capsys, monkeypatch, above_file):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("No convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(cli, "detect", no_convergence)
        code, out, err = run_cli(capsys, "detect", "--in", above_file, "--methods", "BH")
        assert code == EXIT_FAULT
        assert out == ""
        assert err == "error: ARPACK error -1: No convergence\n"

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_FAULT
        capsys.readouterr()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(), trials=1, methods=("NB",), seed=0, out="x")
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(3.0,), trials=0, methods=("NB",), seed=0, out="x")
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(3.0,), trials=1, methods=("XX",), seed=0, out="x")
