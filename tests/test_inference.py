import hashlib
import json
import math

import numpy as np
import pytest

from cbdetect import (
    BpConfig,
    CbmInstance,
    CbmParams,
    Labeling,
    PopDynConfig,
    algorithm1,
    algorithm2,
    beta0,
    bp_fixed_point,
    bp_run,
    build_bethe_hessian,
    detect,
    generate,
    overlap,
    population_dynamics,
    sign_pm1,
    smallest_symmetric,
    write_instance,
)
from cbdetect import cli, inference
from cbdetect.rng import derive_seed, substream
from conftest import make_instance


def gauge_flip(instance, flip_seed=99):
    """Flip a random node subset's signs together with the crossing edges."""
    s = np.where(substream(flip_seed, "gauge").random(instance.n) < 0.5, -1, 1)
    edges = instance.edges.copy()
    edges[:, 2] = edges[:, 2] * s[edges[:, 0]] * s[edges[:, 1]]
    return CbmInstance(instance.params, instance.sigma * s, edges), s


class TestAlgorithm1:
    def test_above_threshold_success(self):
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        out = algorithm1(inst)
        assert out.success and out.method == "NB"
        assert abs(out.lambda1 - 4.0) < 0.2
        assert out.overlap > 0.3
        assert out.labels is not None and set(np.unique(out.labels)) <= {-1, 1}

    def test_below_threshold_failure(self):
        inst = generate(CbmParams(n=10_000, alpha=3, epsilon=0.25, seed=11))
        out = algorithm1(inst)
        assert not out.success
        assert out.labels is None and out.overlap is None
        assert out.reason

    def test_requires_edges(self):
        with pytest.raises(ValueError):
            algorithm1(make_instance(4, np.empty((0, 3))))

    def test_noiseless_connected_recovers_exactly(self):
        # seed 0 gives a connected graph at n=300, alpha=8 (checked below)
        inst = generate(CbmParams(n=300, alpha=8, epsilon=0.0, seed=0))
        assert _connected(inst)
        assert algorithm1(inst).overlap == 1.0
        assert algorithm2(inst).overlap == 1.0


def _connected(inst):
    adj = [[] for _ in range(inst.n)]
    for i, j, _ in inst.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == inst.n


class TestAlgorithm2:
    def test_above_threshold_success(self):
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        out = algorithm2(inst)
        assert out.success and out.method == "BH"
        assert out.lambda_min_h < 0
        assert out.overlap > 0.3

    def test_below_threshold_failure(self):
        inst = generate(CbmParams(n=10_000, alpha=3, epsilon=0.25, seed=11))
        out = algorithm2(inst)
        assert not out.success
        assert out.lambda_min_h >= 0
        assert out.labels is None

    def test_positive_definite_regime_fails(self):
        # artificially large x makes H positive definite -> failure branch
        inst = generate(CbmParams(n=500, alpha=6, epsilon=0.25, seed=9))
        res = smallest_symmetric(build_bethe_hessian(inst, 10.0))
        assert res.value > 0


class TestBeliefPropagation:
    def test_zero_messages_are_exact_fixed_point(self, triangle):
        state, marginals = bp_fixed_point(
            triangle, beta0(0.25), BpConfig(max_sweeps=1), initial=np.zeros(6)
        )
        assert np.all(state.messages == 0.0)
        assert np.all(marginals == 0.0)
        assert state.converged and state.max_delta[-1] == 0.0

    def test_epsilon_domain(self):
        inst = generate(CbmParams(n=50, alpha=4, epsilon=0.25, seed=1))
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                bp_run(inst, bad)

    def test_messages_stay_bounded_at_small_epsilon(self):
        inst = generate(CbmParams(n=400, alpha=6, epsilon=0.01, seed=3))
        state, marginals = bp_fixed_point(inst, beta0(0.01), BpConfig(max_sweeps=60))
        assert np.all(np.abs(state.messages) <= 1.0)
        assert np.all(np.isfinite(state.messages))
        assert np.all(np.abs(marginals) <= 1.0)

    def test_bp_recovers_above_threshold(self):
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        out = bp_run(inst, 0.25)
        assert out.success and out.overlap > 0.5

    def test_bp_uninformative_at_large_n_below_threshold(self):
        inst = generate(CbmParams(n=100_000, alpha=3, epsilon=0.25, seed=5))
        out = bp_run(inst, 0.25)
        assert out.success  # BP always labels
        assert out.overlap < 0.02

    def test_state_records_sweep_deltas(self):
        inst = generate(CbmParams(n=200, alpha=5, epsilon=0.2, seed=4))
        state, _ = bp_fixed_point(inst, beta0(0.2), BpConfig(max_sweeps=25))
        assert state.sweeps == len(state.max_delta)
        assert all(d >= 0 for d in state.max_delta)


class TestBpGolden:
    """BP messages, marginals and sweep deltas are pinned bit for bit."""

    # blake2b-128 of messages, marginals and max_delta on
    # generate(CbmParams(n=2000, alpha=6, epsilon=0.25, seed=13)) at beta0(0.25)
    CONVERGED = (155, "b8cccfb85116a2fe86914e827ceeed8e", "dbd0f750561c989e54ad08a194eb8936",
                 "3fecd871dcbb7855b35451c97ce7ce0e")
    CAPPED = (7, "e959b6b184ec45e611c1fa6858ed2502", "e2cdf1ba6a30037e3d4dead66188be98",
              "cad7cf7833109dbfb1057dd3a27335fb")
    JSON = ('{"method": "BP", "success": true, "lambda1": null, "lambda_min_H": null, '
            '"overlap": 0.5449999999999999, "iterations": 155, "residual": 9.795623776009954e-07, '
            '"seed": 13}')

    @staticmethod
    def _digest(a):
        return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).hexdigest()

    @pytest.fixture(scope="class")
    def inst(self):
        return generate(CbmParams(n=2000, alpha=6, epsilon=0.25, seed=13))

    @pytest.mark.parametrize("max_sweeps", [500, 7])
    def test_fixed_point_digests(self, inst, max_sweeps):
        state, marginals = bp_fixed_point(inst, beta0(0.25), BpConfig(max_sweeps=max_sweeps, seed=13))
        got = (state.sweeps, self._digest(state.messages), self._digest(marginals),
               self._digest(np.array(state.max_delta)))
        assert got == (self.CONVERGED if max_sweeps == 500 else self.CAPPED)
        assert state.converged == (max_sweeps == 500)

    def test_bp_run_json_line(self, inst):
        assert bp_run(inst, 0.25, BpConfig(seed=13)).to_json() == self.JSON


class TestSpectralGolden:
    """The ``detect`` JSON line and exit status of NB and BH, pinned byte for byte.

    n = 2000, epsilon = 0.25 across the transition.  At this size the lines
    are the same with one and two OpenBLAS threads.  BH at alpha 3 and 4.5
    runs to its iteration cap, so these lines change when the solver does.
    """

    CASES = {
        (3, 31, "NB"): (0, '{"method": "NB", "success": true, "lambda1": 1.8315371240578364, '
                           '"lambda_min_H": null, "overlap": 0.07899999999999996, "iterations": 568, '
                           '"residual": 1.769583447014583e-08, "seed": 31}'),
        (3, 31, "BH"): (0, '{"method": "BH", "success": true, "lambda1": null, '
                           '"lambda_min_H": -0.006999108014280742, "overlap": 0.06800000000000006, '
                           '"iterations": 7610, "residual": 0.00017323031303511356, "seed": 31}'),
        (4.5, 32, "NB"): (2, '{"method": "NB", "success": false, "lambda1": null, "lambda_min_H": null, '
                             '"overlap": null, "iterations": 77, "residual": null, "seed": 32}'),
        (4.5, 32, "BH"): (2, '{"method": "BH", "success": false, "lambda1": null, '
                             '"lambda_min_H": 0.011339226611214939, "overlap": null, "iterations": 7610, '
                             '"residual": 4.570040869593297e-06, "seed": 32}'),
        (8, 33, "NB"): (0, '{"method": "NB", "success": true, "lambda1": 3.825689453847331, '
                           '"lambda_min_H": null, "overlap": 0.7130000000000001, "iterations": 73, '
                           '"residual": 3.08900013060036e-08, "seed": 33}'),
        (8, 33, "BH"): (0, '{"method": "BH", "success": true, "lambda1": null, '
                           '"lambda_min_H": -0.6524449694329648, "overlap": 0.722, "iterations": 1950, '
                           '"residual": 9.92824001944106e-09, "seed": 33}'),
    }

    @pytest.mark.parametrize("alpha,seed,method", list(CASES))
    def test_detect_line_and_exit_status(self, capsys, tmp_path, alpha, seed, method):
        path = tmp_path / "golden.cbm"
        write_instance(generate(CbmParams(n=2000, alpha=alpha, epsilon=0.25, seed=seed)), path)
        code = cli.main(["detect", "--in", str(path), "--methods", method])
        want_code, want_line = self.CASES[alpha, seed, method]
        assert (code, capsys.readouterr().out) == (want_code, want_line + "\n")


class TestPopulationDynamics:
    def test_zero_coupling_gives_zero_overlap(self, monkeypatch):
        monkeypatch.setattr(inference, "beta0", lambda epsilon: 0.0)  # read at call time
        est = population_dynamics(
            PopDynConfig(alpha=5.0, epsilon=0.3, pop_size=2000,
                         equilibration_sweeps=20, measurement_sweeps=20, seed=1)
        )
        assert est == 0.0

    def test_below_threshold_vanishes(self):
        est = population_dynamics(PopDynConfig(alpha=3, epsilon=0.25, seed=3))
        assert est < 0.02

    def test_matches_bp_above_threshold(self):
        est = population_dynamics(PopDynConfig(alpha=8, epsilon=0.25, seed=3))
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        assert abs(est - bp_run(inst, 0.25).overlap) < 0.05

    def test_replica_stability(self):
        ests = [
            population_dynamics(
                PopDynConfig(alpha=8, epsilon=0.25, seed=derive_seed(12, "pd-rep", r))
            )
            for r in range(5)
        ]
        assert min(ests) > 0.5
        assert max(ests) - min(ests) < 0.04  # +-0.02 around the common value

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopDynConfig(alpha=5, epsilon=0.25, pop_size=10)
        with pytest.raises(ValueError):
            PopDynConfig(alpha=5, epsilon=0.25, equilibration_sweeps=0)
        with pytest.raises(ValueError):
            population_dynamics(PopDynConfig(alpha=5, epsilon=0.0))
        with pytest.raises(ValueError):
            population_dynamics(PopDynConfig(alpha=5, epsilon=0.5))


class TestDetect:
    def test_dispatch_and_overlap_fill(self):
        inst = generate(CbmParams(n=3000, alpha=8, epsilon=0.25, seed=6))
        nb = detect(inst, "NB")
        assert nb.lambda1 is not None and nb.overlap is not None
        bh = detect(inst, "BH")
        assert bh.lambda_min_h is not None
        bp = detect(inst, "BP", epsilon=0.25)
        assert bp.overlap is not None

    def test_bp_requires_epsilon(self):
        inst = generate(CbmParams(n=100, alpha=4, epsilon=0.25, seed=6))
        with pytest.raises(ValueError):
            detect(inst, "BP")

    def test_unknown_method(self):
        inst = generate(CbmParams(n=100, alpha=4, epsilon=0.25, seed=6))
        with pytest.raises(ValueError):
            detect(inst, "XX")

    def test_below_threshold_bh_records_lambda(self):
        inst = generate(CbmParams(n=10_000, alpha=3, epsilon=0.25, seed=11))
        out = detect(inst, "BH")
        assert not out.success and out.lambda_min_h >= 0

    def test_json_has_fixed_fields(self):
        inst = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=7))
        line = detect(inst, "NB").to_json()
        assert "\n" not in line
        doc = json.loads(line)
        assert list(doc) == [
            "method", "success", "lambda1", "lambda_min_H",
            "overlap", "iterations", "residual", "seed",
        ]
        assert doc["method"] == "NB" and doc["lambda_min_H"] is None


class TestSymmetries:
    def test_gauge_covariance_spectral_methods_exact(self):
        inst = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=21))
        flipped, _ = gauge_flip(inst)
        for method in ("NB", "BH"):
            a = detect(inst, method)
            b = detect(flipped, method)
            assert a.overlap == b.overlap

    def test_gauge_covariance_bp_statistical(self):
        inst = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=21))
        flipped, _ = gauge_flip(inst)
        a = detect(inst, "BP", epsilon=0.25)
        b = detect(flipped, "BP", epsilon=0.25)
        assert abs(a.overlap - b.overlap) < 0.05

    def test_sign_symmetry_of_labels(self):
        inst = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=21))
        out = detect(inst, "NB")
        flipped = Labeling(-out.labels)
        assert overlap(inst.sigma, flipped) == out.overlap


class TestEnsembleInvariants:
    def test_monotone_information(self, sweep_methods):
        # mean overlap non-decreasing in alpha, up to one small inversion
        for method in ("NB", "BH", "BP"):
            means = [sweep_methods[(a, method)].mean_overlap
                     for a in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)]
            dips = [max(0.0, means[k] - means[k + 1]) for k in range(len(means) - 1)]
            assert sum(d > 0 for d in dips) <= 1, (method, means)
            assert max(dips, default=0.0) <= 0.02, (method, means)

    def test_above_threshold_positivity(self, sweep_methods):
        for method in ("NB", "BH", "BP"):
            for a in (5.0, 6.0, 7.0, 8.0):
                assert sweep_methods[(a, method)].mean_overlap > 0.1


@pytest.mark.slow
class TestFullScale:
    def test_methods_at_paper_scale(self):
        inst = generate(CbmParams(n=100_000, alpha=8, epsilon=0.25, seed=1))
        nb = detect(inst, "NB")
        bh = detect(inst, "BH")
        bp = detect(inst, "BP", epsilon=0.25)
        assert nb.success and nb.overlap > 0.3
        assert abs(nb.lambda1 - 4.0) / 4.0 < 0.05
        assert bh.success and bh.overlap > 0.3
        assert bp.overlap > 0.3

    def test_below_threshold_at_paper_scale(self):
        inst = generate(CbmParams(n=100_000, alpha=3, epsilon=0.25, seed=1))
        nb = detect(inst, "NB")
        assert not nb.success
