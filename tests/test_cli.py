import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import cbdetect
from cbdetect import cli
from cbdetect.cli import EXIT_DETECTION_FAILED, EXIT_FAULT, EXIT_OK, SweepSpec, main
from cbdetect.eigen import SolverConfig
from cbdetect.inference import PopDynConfig
from cbdetect.model import CbmParams, generate, write_instance

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

    @pytest.mark.parametrize("alphas,workers", [((6.0,), []), ((2.0, 6.0), [2])])
    def test_workers_capped_at_trial_count(self, monkeypatch, alphas, workers):
        """jobs=4 asks for at most one worker per trial, and a one-trial sweep starts no pool."""
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        spec = SweepSpec(n=400, epsilon=0.25, alphas=alphas, trials=1, methods=("NB", "BH"), seed=5)
        assert cli.run_sweep(spec, jobs=4) == cli.run_sweep(spec)
        assert started == workers

    def test_jobs_environment_variable_ignored(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        monkeypatch.setenv("CBM_JOBS", "bogus")
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fault(self, capsys, tmp_path, jobs):
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(capsys, *self.ARGS, "--out", str(out), "--jobs", jobs)
        assert (code, stdout, err) == (EXIT_FAULT, "", "error: jobs must be >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha,methods", [("8,8", "NB"), ("8", "NB,NB"), ("8,8.0", "NB,BH")])
    def test_repeated_grid_entry_faults(self, capsys, tmp_path, alpha, methods):
        # a repeat would write a second (alpha, method) row, each counting every trial twice
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "sweep", "--n", "200", "--epsilon", "0.25", "--alpha", alpha,
            "--trials", "2", "--methods", methods, "--out", str(out),
        )
        assert (code, stdout) == (EXIT_FAULT, "") and "must not repeat" in err
        assert not out.exists()

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

    def test_alpha_list_flag(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "200", "--epsilon", "0.25", "--alpha", "2,3,4",
            "--trials", "1", "--methods", "NB", "--seed", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        alphas = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert alphas == ["2.0", "3.0", "4.0"]


class TestBlasThreads:
    """The same bytes at one and at two BLAS threads while every vector stays below 10^4 entries.

    Each command runs in a child process whose environment alone sets
    OPENBLAS_NUM_THREADS; the contract is in docs/decisions.md.
    """

    SRC = str(Path(cli.__file__).resolve().parents[1])

    def run_child(self, threads, argv):
        path = os.pathsep.join(filter(None, [self.SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "cbdetect", *argv], env=env, capture_output=True, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr

    def test_sweep_csv(self, tmp_path):
        args = ["sweep", "--n", "600", "--epsilon", "0.25", "--alpha", "3,4.5,8", "--trials", "2",
                "--methods", "NB,BH,BP", "--seed", "3"]
        csv = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}.csv"
            assert self.run_child(threads, [*args, "--out", str(out)])[0] == EXIT_OK
            csv[threads] = out.read_bytes()
        assert csv[1] == csv[2]

    @pytest.mark.parametrize("alpha,seed", [(8, 21), (4.5, 2), (3, 11)])
    @pytest.mark.parametrize("method", ["NB", "BH"])
    def test_detect_line(self, tmp_path, alpha, seed, method):
        path = tmp_path / "x.cbm"
        write_instance(generate(CbmParams(n=2000, alpha=alpha, epsilon=0.25, seed=seed)), path)
        argv = ["detect", "--in", str(path), "--methods", method]
        one, two = self.run_child(1, argv), self.run_child(2, argv)
        assert one[0] in (EXIT_OK, EXIT_DETECTION_FAILED) and one[1]
        assert one == two


class TestSpectrum:
    @staticmethod
    def gen_file(capsys, tmp_path, *model_args):
        """An instance file written by ``cbdetect gen``, the one source ``spectrum`` reads."""
        path = str(tmp_path / "gen.cbm")
        assert run_cli(capsys, "gen", *model_args, "--out", path)[0] == EXIT_OK
        return path

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

    def test_stdout_mode_and_generation_flags(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path, "--n", "30", "--alpha", "4", "--epsilon", "0.25", "--seed", "3")
        code, stdout, _ = run_cli(capsys, "spectrum", "--in", path)
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[0] == "re,im" and len(lines) == 61

    def test_stdout_bytes_equal_file_bytes(self, capsys, tmp_path):
        path = self.gen_file(capsys, tmp_path, "--n", "40", "--alpha", "5", "--epsilon", "0.25", "--seed", "3")
        args = ["spectrum", "--in", path]
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
        path = self.gen_file(capsys, tmp_path, "--n", "3000", "--alpha", "3", "--epsilon", "0.25")
        code, _, err = run_cli(capsys, "spectrum", "--in", path)
        assert code == EXIT_FAULT and "smaller n" in err

    def test_needs_source_fault(self, capsys, tmp_path):
        # an instance comes from a file only; the model flags belong to gen
        assert run_cli(capsys, "spectrum")[0] == EXIT_FAULT
        path = self.gen_file(capsys, tmp_path, "--n", "30", "--alpha", "4", "--epsilon", "0.25")
        assert run_cli(capsys, "spectrum", "--in", path, "--n", "30")[0] == EXIT_FAULT


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

    def test_zero_trials_fault(self, capsys):
        code, stdout, err = run_cli(
            capsys, "popdyn", "--alpha", "8", "--epsilon", "0.25", "--trials", "0"
        )
        assert (code, stdout, err) == (EXIT_FAULT, "", "error: trials must be >= 1\n")


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

    @pytest.mark.parametrize("exc", [ValueError, OSError, KeyError])  # RuntimeError: the test above
    def test_documented_faults_exit_one(self, capsys, monkeypatch, above_file, exc):
        def fault(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, "detect", fault)
        code, out, err = run_cli(capsys, "detect", "--in", above_file, "--methods", "NB")
        assert (code, out) == (EXIT_FAULT, "")
        assert err.startswith("error: ") and "boom" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_FAULT
        capsys.readouterr()

    @pytest.mark.parametrize("method,extra", [("NB", []), ("BH", []), ("BP", ["--epsilon", "0.25"])])
    def test_edgeless_instance_faults(self, capsys, tmp_path, method, extra):
        path = tmp_path / "edgeless.cbm"
        path.write_text("%cbm 1\n5 0 0.25 1\nsigma\n1 -1 1 1 -1\n")
        code, stdout, err = run_cli(capsys, "detect", "--in", str(path), "--methods", method, *extra)
        assert (code, stdout, err) == (EXIT_FAULT, "", "error: need at least one edge\n")


def subcommand_options() -> dict:
    """The option strings of each subcommand, help included."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in subparsers.choices.items()
    }


def public_functions():
    """(module.name, function) for every public function and method the package defines."""
    for info in pkgutil.iter_modules(cbdetect.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"cbdetect.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_package_binds_only_its_submodules():
    """Every name is imported from the module that defines it: the package re-exports none."""
    public = {name for name in vars(cbdetect) if not name.startswith("_")}
    assert public <= {info.name for info in pkgutil.iter_modules(cbdetect.__path__)}, sorted(public)


def test_option_surface():
    """Every option each subcommand accepts; a new or returning knob shows up here."""
    top = cli.build_parser()
    got = subcommand_options()
    common = {"-h", "--help"}
    assert got == {
        "gen": common | {"--n", "--alpha", "--epsilon", "--seed", "--out"},
        "detect": common | {"--in", "--methods", "--epsilon"},
        "sweep": common | {"--n", "--epsilon", "--alpha", "--trials", "--methods", "--seed",
                           "--out", "--jobs"},
        "spectrum": common | {"--in", "--operator", "--out", "--svg"},
        "popdyn": common | {"--alpha", "--epsilon", "--pop-size", "--sweeps", "--trials", "--seed"},
    }
    assert {opt for a in top._actions for opt in a.option_strings} == common


def test_settable_value_count():
    """The count of docs/decisions.md, "One way to set each value": 26 + 18 + 6 = 50.

    CLI options, the fields of the config objects and the defaulted
    keyword parameters of the package's public functions; the package
    reads no environment variable.
    """
    options = sum(len(opts - {"-h", "--help"}) for opts in subcommand_options().values())
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (CbmParams, SolverConfig, PopDynConfig, SweepSpec)}
    assert fields == {
        "CbmParams": ["n", "alpha", "epsilon", "seed"],
        "SolverConfig": ["tol", "max_iter"],
        "PopDynConfig": ["alpha", "epsilon", "pop_size", "equilibration_sweeps", "measurement_sweeps", "seed"],
        "SweepSpec": ["n", "epsilon", "alphas", "trials", "methods", "seed"],
    }
    defaulted = {}
    for name, fn in public_functions():
        params = [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
        if params:
            defaulted[name] = params
    assert defaulted == {
        "cli.run_sweep": ["jobs"],
        "cli.main": ["argv"],
        "eigen.power_leading": ["cfg"],
        "eigen.smallest_symmetric": ["cfg"],
        "inference.bp_fixed_point": ["initial"],
        "inference.detect": ["epsilon"],
    }
    sources = " ".join(path.read_text() for path in Path(cbdetect.__file__).parent.glob("*.py"))
    assert "os.environ" not in sources and "getenv" not in sources
    counts = (options, sum(map(len, fields.values())), sum(map(len, defaulted.values())))
    assert counts == (26, 18, 6) and sum(counts) == 50


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(), trials=1, methods=("NB",), seed=0)
    with pytest.raises(ValueError, match="alpha grid must not repeat"):
        SweepSpec(n=10, epsilon=0.2, alphas=(8.0, 8.0), trials=2, methods=("NB",), seed=0)
    with pytest.raises(ValueError, match="method list must not repeat"):
        SweepSpec(n=10, epsilon=0.2, alphas=(8.0,), trials=2, methods=("NB", "NB"), seed=0)
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(3.0,), trials=0, methods=("NB",), seed=0)
    with pytest.raises(ValueError):
        SweepSpec(n=10, epsilon=0.2, alphas=(3.0,), trials=1, methods=("XX",), seed=0)
