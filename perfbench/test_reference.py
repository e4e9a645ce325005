"""Tests of the benchmark's reference code against dense numpy.linalg on tiny instances.

    python3 -m pytest -q perfbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from cbdetect import inference, model  # noqa: E402


def tiny(n, alpha, seed, epsilon=0.25):
    return model.generate(model.CbmParams(n=n, alpha=alpha, epsilon=epsilon, seed=seed))


def dense_parts(inst):
    n = inst.n
    jm = np.zeros((n, n))
    for i, j, w in inst.edges:
        jm[i, j] = jm[j, i] = w
    return jm, np.diag(np.abs(jm).sum(axis=1))


def dense_bethe_hessian(inst, x):
    jm, d = dense_parts(inst)
    return (x * x - 1.0) * np.eye(inst.n) - x * jm + d


def dense_bprime(inst):
    jm, d = dense_parts(inst)
    n = inst.n
    return np.block([[np.zeros((n, n)), d - np.eye(n)], [-np.eye(n), jm]])


SMALL = [tiny(40, 6.0, s) for s in range(6)]


@pytest.mark.parametrize("inst", SMALL)
def test_operators_match_dense_formulas(inst):
    x = 1.7
    np.testing.assert_array_equal(reference.bethe_hessian(inst.n, inst.edges, x).toarray(),
                                  dense_bethe_hessian(inst, x))
    np.testing.assert_array_equal(reference.bprime(inst.n, inst.edges).toarray(), dense_bprime(inst))


@pytest.mark.parametrize("inst", SMALL)
def test_ihara_bass_identity(inst):
    eig = np.linalg.eigvals(dense_bprime(inst))
    real = np.sort(eig[np.abs(eig.imag) < 1e-7].real)
    above_one = real[real > 1.0 + 1e-6]
    for lam in above_one:  # every real eigenvalue of B' makes H singular
        assert abs(np.linalg.eigvalsh(dense_bethe_hessian(inst, lam))).min() < 1e-8
    # positive definite above the largest real eigenvalue, singular at it
    top = above_one[-1] if above_one.size else 1.0
    assert np.linalg.eigvalsh(dense_bethe_hessian(inst, top + 1e-3))[0] > 0
    if above_one.size:
        assert abs(np.linalg.eigvalsh(dense_bethe_hessian(inst, top))[0]) < 1e-8
    for x in (1.2, 1.9, 2.6, 3.4):
        if np.min(np.abs(real - x), initial=np.inf) > 1e-6:  # a negative direction proves a real eigenvalue above x
            negatives = int((np.linalg.eigvalsh(dense_bethe_hessian(inst, x)) < 0).sum())
            assert negatives % 2 == int((real > x).sum()) % 2


def test_lambda_min_dense_and_arpack_agree_with_numpy(monkeypatch):
    inst = tiny(300, 8.0, 3)
    h = reference.bethe_hessian(inst.n, inst.edges, math.sqrt(2 * inst.m / inst.n))
    expected = np.linalg.eigvalsh(h.toarray())[0]
    assert reference.lambda_min(h) == pytest.approx(expected, abs=1e-12)
    monkeypatch.setattr(reference, "DENSE_MAX", 0)
    assert reference.lambda_min(h) == pytest.approx(expected, abs=1e-9)


def test_leading_pair_matches_numpy():
    inst = tiny(300, 8.0, 4)
    eig = np.linalg.eigvals(dense_bprime(inst))
    eig = eig[np.argsort(-np.abs(eig))]
    top, second = reference.leading_pair(inst.n, inst.edges)
    assert top == pytest.approx(eig[0], abs=1e-9) and abs(second) == pytest.approx(abs(eig[1]), abs=1e-9)


def test_overlap_is_flip_invariant_agreement():
    sigma = np.array([1, 1, -1, -1, 1, -1, 1, 1])
    labels = np.array([1, -1, -1, -1, 1, -1, -1, 1])
    agree = 6 / 8
    assert reference.overlap(sigma, labels) == pytest.approx(2 * (agree - 0.5))
    assert reference.overlap(sigma, -labels) == reference.overlap(sigma, labels)
    assert reference.overlap(sigma, sigma) == 1.0


def test_reader_round_trips_the_instance_format(tmp_path):
    inst = tiny(500, 5.0, 9)
    path = tmp_path / "x.cbm"
    model.write_instance(inst, path)
    parsed = reference.read_instance_file(path)
    assert (parsed.n, parsed.m, parsed.epsilon, parsed.seed) == (500, inst.m, 0.25, 9)
    np.testing.assert_array_equal(parsed.sigma, inst.sigma)
    np.testing.assert_array_equal(parsed.edges, inst.edges)
    path.write_text(path.read_text().replace("sigma", "sigmas", 1))
    with pytest.raises(ValueError):
        reference.read_instance_file(path)


def test_checks_accept_correct_outcomes_and_flag_wrong_ones():
    inst = tiny(400, 8.0, 2)
    ref = reference.InstanceReference(inst.n, inst.edges)
    x = math.sqrt(2 * inst.m / inst.n)
    eig = np.linalg.eigvals(dense_bprime(inst))
    lam1 = float(eig[np.argmax(np.abs(eig))].real)
    hmin = float(np.linalg.eigvalsh(dense_bethe_hessian(inst, x))[0])
    assert lam1 > x and hmin < 0  # a detectable instance

    assert ref.check_nb(True, lam1) is None
    assert ref.check_nb(False, None) is not None  # a separated real leader was missed
    assert ref.check_nb(True, lam1 * 1.01) is not None  # not an eigenvalue
    assert ref.check_bh(True, hmin, 1e-12, 1e-8) is None
    assert ref.check_bh(False, hmin, 1e-12, 1e-8) is not None
    assert ref.check_bh(True, hmin, 1e-3, 1e-8) is not None  # unconverged
    assert ref.check_bh(True, hmin + 1e-4, 1e-12, 1e-8) is not None

    nb = inference.detect(inst, "NB")
    bh = inference.detect(inst, "BH")
    assert ref.check_nb(nb.success, nb.lambda1) is None
    assert ref.check_bh(bh.success, bh.lambda_min_h, bh.residual, 1e-8) is None


def test_checks_accept_a_below_threshold_instance():
    inst = tiny(400, 2.0, 5)
    ref = reference.InstanceReference(inst.n, inst.edges)
    x = math.sqrt(2 * inst.m / inst.n)
    assert np.linalg.eigvalsh(dense_bethe_hessian(inst, x))[0] > 0
    assert ref.check_nb(False, None) is None
    assert ref.check_nb(True, x + 0.5) is not None  # not an eigenvalue


def test_large_n_stall_check_uses_the_bethe_hessian(monkeypatch):
    monkeypatch.setattr(reference, "DENSE_MAX", 0)
    detectable = reference.InstanceReference(400, tiny(400, 8.0, 2).edges)
    assert detectable.check_nb(False, None) is not None
    below = reference.InstanceReference(400, tiny(400, 2.0, 5).edges)
    assert below.check_nb(False, None) is None
