import math

import numpy as np
import pytest

from cbdetect import eigen
from cbdetect.eigen import (
    EigenResult,
    NoRealLeader,
    SolverConfig,
    dense_spectrum,
    gershgorin_upper,
    power_leading,
    smallest_symmetric,
    spectrum_to_csv,
    spectrum_to_svg,
)
from cbdetect.model import CbmParams, generate
from cbdetect.operators import SparseMatrix, build_bethe_hessian, build_bprime
from cbdetect.rng import derive_seed
from oracles import build_b, from_coo


def second_eigenvalue_bound(instance) -> float:
    """|lambda_2| of B' by modulus, from the dense oracle."""
    mods = np.sort(np.abs(dense_spectrum(build_bprime(instance).toarray())))[::-1]
    return float(mods[1]) if len(mods) > 1 else 0.0


def diag_matrix(values):
    k = len(values)
    return from_coo(k, k, range(k), range(k), values)


class TestPowerLeading:
    def test_dominant_axis(self):
        res = power_leading(diag_matrix([3.0, 1.0, -1.0]))
        assert isinstance(res, EigenResult) and res.converged
        assert res.value == pytest.approx(3.0, abs=1e-7)
        assert np.allclose(np.abs(res.vector), [1, 0, 0], atol=1e-6)
        assert res.vector[0] > 0  # canonical orientation

    def test_negative_dominant(self):
        res = power_leading(diag_matrix([-5.0, 2.0, 1.0]))
        assert res.converged and res.value == pytest.approx(-5.0, abs=1e-7)

    def test_rotation_has_no_real_leader(self):
        rot = from_coo(2, 2, [0, 1], [1, 0], [-1.0, 1.0])
        res = power_leading(rot)
        assert isinstance(res, NoRealLeader)
        assert res.magnitude == pytest.approx(1.0, abs=1e-6)

    def test_zero_matrix_is_null_eigenpair(self):
        z = SparseMatrix(([], [], [0, 0, 0]), shape=(2, 2))
        res = power_leading(z)
        assert res.converged and res.value == 0.0 and res.residual == 0.0

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            power_leading(SparseMatrix(([], [], [0]), shape=(0, 0)))
        with pytest.raises(ValueError):
            power_leading(from_coo(1, 2, [0], [1], [1.0]))

    def test_planted_above_threshold(self):
        # isolated eigenvalue at alpha*(1-2*eps) = 4
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        res = power_leading(build_bprime(inst))
        assert isinstance(res, EigenResult) and res.converged
        assert abs(res.value - 4.0) / 4.0 < 0.05

    def test_planted_below_threshold(self):
        # bulk edge ~ sqrt(3), no real leader (or a marginal real one below it)
        inst = generate(CbmParams(n=10_000, alpha=3, epsilon=0.25, seed=11))
        res = power_leading(build_bprime(inst))
        if isinstance(res, NoRealLeader):
            assert res.magnitude < math.sqrt(3) + 0.2
        else:
            assert res.value <= math.sqrt(3) + 0.2

    def test_residual_contract_reverified(self):
        inst = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=13))
        m = build_bprime(inst)
        res = power_leading(m, SolverConfig(tol=1e-10))
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12
        check = np.linalg.norm(m.matvec(res.vector) - res.value * res.vector)
        assert check <= 1e-10 * max(abs(res.value), 1.0)


class TestSmallestSymmetric:
    def test_identity(self):
        res = smallest_symmetric(diag_matrix([1.0, 1.0, 1.0, 1.0]))
        assert res.converged and res.value == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_closed_form(self, triangle):
        h = build_bethe_hessian(triangle, math.sqrt(2))
        res = smallest_symmetric(h)
        assert res.converged
        assert res.value == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-7)

    def test_planted_above_threshold_negative(self):
        inst = generate(CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=11))
        from cbdetect.model import empirical_alpha

        h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
        res = smallest_symmetric(h)
        assert res.converged and res.value < 0

    def test_rejects_nonsymmetric(self):
        m = from_coo(2, 2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            smallest_symmetric(m)

    def test_gershgorin_shift_validity(self):
        for k in range(5):
            inst = generate(
                CbmParams(n=60, alpha=5, epsilon=0.25, seed=derive_seed(40, "gersh", k))
            )
            h = build_bethe_hessian(inst, 1.7)
            c = gershgorin_upper(h)
            shifted = c * np.eye(inst.n) - h.toarray()
            assert np.linalg.eigvalsh(shifted).min() >= -1e-10

    def test_residual_contract_reverified(self):
        inst = generate(CbmParams(n=3000, alpha=8, epsilon=0.25, seed=14))
        from cbdetect.model import empirical_alpha

        h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
        res = smallest_symmetric(h)
        assert res.converged
        check = np.linalg.norm(h.matvec(res.vector) - res.value * res.vector)
        assert check <= 1e-8 * max(abs(res.value), 1.0)
        assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12


class TestDenseSpectrum:
    def test_permutation_cycle_gives_roots_of_unity(self):
        perm = np.roll(np.eye(5), 1, axis=1)
        eig = dense_spectrum(perm)
        want = np.exp(2j * np.pi * np.arange(5) / 5)
        got = sorted(eig, key=lambda z: math.atan2(z.imag, z.real))
        want = sorted(want, key=lambda z: math.atan2(z.imag, z.real))
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8

    def test_triangle_b_multiset(self, triangle):
        # B splits into two edge 3-cycles (normal matrix): full 1e-8 accuracy
        got = list(dense_spectrum(build_b(triangle).toarray()))
        want = [1.0, 1.0] + [np.exp(s * 2j * np.pi / 3) for s in (1, 1, -1, -1)]
        for w in want:
            errs = [abs(g - w) for g in got]
            k = int(np.argmin(errs))
            assert errs[k] < 1e-8
            got.pop(k)

    def test_triangle_bprime_multiset(self, triangle):
        # eigenvalue 1 of B' sits in a size-2 Jordan block, so a backward
        # stable solver can only place it within ~sqrt(eps*||B'||) ~ 1.5e-8
        got = list(dense_spectrum(build_bprime(triangle).toarray()))
        want = [1.0, 1.0] + [np.exp(s * 2j * np.pi / 3) for s in (1, 1, -1, -1)]
        for w in want:
            errs = [abs(g - w) for g in got]
            k = int(np.argmin(errs))
            assert errs[k] < 2e-8
            got.pop(k)

    def test_conjugate_closure(self):
        rng = np.random.default_rng(5)
        eig = dense_spectrum(rng.standard_normal((40, 40)))
        for z in eig[eig.imag > 1e-10]:
            assert np.min(np.abs(eig - z.conjugate())) < 1e-8

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(eigen, "DENSE_CAP", 10)  # read at call time
        dense_spectrum(np.eye(10))
        with pytest.raises(ValueError, match="above dense cap 10"):
            dense_spectrum(np.eye(11))
        with pytest.raises(ValueError):
            dense_spectrum(np.ones((2, 3)))

    def test_second_eigenvalue_bound_triangle(self, triangle):
        assert second_eigenvalue_bound(triangle) == pytest.approx(1.0, abs=1e-8)


class TestOracleEquivalence:
    def test_iterative_matches_dense_sample(self):
        # a fast 10-instance slice of the 50-instance acceptance check
        from cbdetect.model import empirical_alpha

        for k in range(10):
            n = 80 + (derive_seed(41, "oe-n", k) % 121)
            inst = generate(CbmParams(n=n, alpha=8, epsilon=0.1, seed=derive_seed(41, "oe-s", k)))
            bp = build_bprime(inst)
            dense = np.linalg.eigvals(bp.toarray())
            top = dense[np.argmax(np.abs(dense))]
            res = power_leading(bp)
            assert isinstance(res, EigenResult)
            assert abs(top.imag) < 1e-8
            assert abs(res.value - top.real) / abs(top.real) < 1e-6
            h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
            hres = smallest_symmetric(h)
            hmin = float(np.linalg.eigvalsh(h.toarray()).min())
            assert hres.converged
            assert abs(hres.value - hmin) / abs(hmin) < 1e-6


class TestSpectrumExport:
    def test_csv_roundtrip(self, triangle):
        eig = dense_spectrum(build_bprime(triangle).toarray())
        lines = spectrum_to_csv(eig).splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 7
        vals = np.array([complex(float(a), float(b)) for a, b in
                         (ln.split(",") for ln in lines[1:])])
        assert np.max(np.abs(np.sort_complex(vals) - np.sort_complex(eig))) < 1e-12

    def test_svg_contains_circle_and_points(self, tmp_path, triangle):
        eig = dense_spectrum(build_bprime(triangle).toarray())
        path = tmp_path / "spec.svg"
        spectrum_to_svg(eig, path, radius=math.sqrt(2.0))
        text = path.read_text()
        assert text.startswith("<svg")
        assert 'stroke-dasharray' in text  # the sqrt(alpha) reference circle
        assert text.count("<circle") == 1 + len(eig)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    def test_default_max_iter_floor(self):
        cfg = SolverConfig()
        assert cfg.resolve_max_iter(7) == 2000
        assert cfg.resolve_max_iter(20_000) == 10 * math.ceil(math.log(20_000) / 0.01)
        assert SolverConfig(max_iter=7).resolve_max_iter(10) == 7
