"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical
criteria use frozen seed derivations; tolerances are the contract values,
not tunables.
"""

import math

import numpy as np
import pytest

from cbdetect.cli import main
from cbdetect.eigen import EigenResult, NoRealLeader, power_leading, smallest_symmetric
from cbdetect.inference import PopDynConfig, bp_run, population_dynamics
from cbdetect.model import CbmParams, empirical_alpha, generate
from cbdetect.operators import build_bethe_hessian, build_bprime
from cbdetect.rng import derive_seed
from conftest import conditioned_small_instance, dense_weight_matrix
from oracles import bprime_eigvec_relations_check, build_b, degrees


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{tag}] {name}{suffix}")
    return ok


def test_criterion_01_threshold_location(sweep_threshold):
    rows = sweep_threshold
    checks = []
    for method in ("NB", "BH"):
        for a in (3.0, 3.5):
            checks.append(rows[(a, method)].mean_overlap < 0.03)
        checks.append(rows[(4.5, method)].mean_overlap > 0.05)
        checks.append(rows[(8.0, method)].mean_overlap > 0.25)
    detail = "; ".join(
        f"{m}@{a}={rows[(a, m)].mean_overlap:.3f}"
        for m in ("NB", "BH") for a in (3.0, 3.5, 4.5, 8.0)
    )
    assert report(1, "threshold location at alpha_detect = 4", all(checks), detail)


def test_criterion_02_isolated_eigenvalue():
    hits = 0
    values = []
    for k in range(20):
        inst = generate(
            CbmParams(n=10_000, alpha=8, epsilon=0.25, seed=derive_seed(0, "acc2", k))
        )
        res = power_leading(build_bprime(inst))
        if isinstance(res, EigenResult) and res.converged:
            values.append(res.value)
            hits += abs(res.value - 4.0) <= 0.05 * 4.0
    ok = hits >= 18
    assert report(2, "isolated eigenvalue at alpha*(1-2*eps)", ok,
                  f"{hits}/20 within 5% of 4; range [{min(values):.3f}, {max(values):.3f}]")


def test_criterion_03_bulk_confinement():
    inst3 = generate(CbmParams(n=2000, alpha=3, epsilon=0.25, seed=42))
    spec3 = np.linalg.eigvals(build_bprime(inst3).toarray())
    ok3 = float(np.max(np.abs(spec3))) <= math.sqrt(3) + 0.15

    inst8 = generate(CbmParams(n=2000, alpha=8, epsilon=0.25, seed=42))
    spec8 = np.linalg.eigvals(build_bprime(inst8).toarray())
    outside = spec8[np.abs(spec8) > math.sqrt(8) + 0.2]
    ok8 = (
        len(outside) == 1
        and abs(outside[0].imag) < 1e-8
        and abs(outside[0].real - 4.0) <= 0.5
    )
    detail = (
        f"alpha=3 max|l|={np.max(np.abs(spec3)):.4f}; "
        f"alpha=8 outliers={np.round(outside, 4)}"
    )
    assert report(3, "bulk confined in circle of radius sqrt(alpha)", ok3 and ok8, detail)


def test_criterion_04_bethe_hessian_index():
    # Expected to fail; kept verbatim.  See docs/decisions.md.
    hits = {}
    counts = {}
    for alpha, target in ((3.0, 0), (8.0, 1)):
        cs = []
        for k in range(20):
            inst = generate(
                CbmParams(n=2000, alpha=alpha, epsilon=0.25, seed=derive_seed(0, "acceptance4", k))
            )
            h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
            ev = np.linalg.eigvalsh(h.toarray())
            cs.append(int(np.sum(ev < 0.0)))
        counts[alpha] = cs
        hits[alpha] = sum(c == target for c in cs)
    ok = hits[3.0] >= 18 and hits[8.0] >= 18
    assert report(
        4, "Bethe Hessian negative index 0/1 across the transition", ok,
        f"alpha=3 zero-neg {hits[3.0]}/20, alpha=8 one-neg {hits[8.0]}/20",
    )


def test_criterion_05_ihara_bass(small_instances):
    worst = 0.0
    for inst in small_instances:
        j = dense_weight_matrix(inst)
        d = np.diag(degrees(inst).astype(float))
        eye = np.eye(inst.n)
        for lam in np.linalg.eigvals(build_bprime(inst).toarray()):
            if min(abs(lam - 1.0), abs(lam + 1.0)) <= 1e-6:
                continue
            sv = np.linalg.svd((lam**2 - 1.0) * eye - lam * j + d, compute_uv=False)
            worst = max(worst, float(sv[-1] / sv[0]))
    ok = worst < 1e-6
    assert report(5, "Ihara-Bass: B' eigenvalues annihilate H(lambda)", ok,
                  f"worst sigma_min/||H|| = {worst:.2e} over 50 instances")


def test_criterion_06_b_bprime_equivalence(small_instances):
    worst = 0.0
    ok = True
    for inst in small_instances:
        eb = np.linalg.eigvals(build_b(inst).toarray())
        ep = np.linalg.eigvals(build_bprime(inst).toarray())
        keep = lambda e: e[np.minimum(np.abs(e - 1.0), np.abs(e + 1.0)) > 1e-4]
        a, b = keep(eb), keep(ep)
        if len(a) != len(b):
            ok = False
            break
        a = a[np.lexsort((a.imag, a.real))]
        b = b[np.lexsort((b.imag, b.real))]
        if len(a):
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = ok and worst < 1e-6
    assert report(6, "spectra of B and B' agree outside +-1", ok,
                  f"worst sorted deviation = {worst:.2e} over 50 instances")


def test_criterion_07_eigenvector_relations():
    inst = generate(CbmParams(n=500, alpha=8, epsilon=0.25, seed=77))
    res = power_leading(build_bprime(inst))
    diag = bprime_eigvec_relations_check(inst, res.value, res.vector)
    ok = diag.relation_residual < 1e-6
    assert report(7, "site relations of the leading B' eigenpair", ok,
                  f"relation residual {diag.relation_residual:.2e}, "
                  f"B residual {diag.b_residual:.2e}")


def test_criterion_08_method_ordering(sweep_methods):
    rows = sweep_methods
    checks, parts = [], []
    for a in (5.0, 6.0, 8.0):
        nb = rows[(a, "NB")].mean_overlap
        bh = rows[(a, "BH")].mean_overlap
        bp = rows[(a, "BP")].mean_overlap
        checks.append(bp >= bh - 0.02)
        checks.append(bh >= nb - 0.05)
        parts.append(f"a={a}: NB={nb:.3f} BH={bh:.3f} BP={bp:.3f}")
    assert report(8, "BP >= BH >= NB ordering with slack", all(checks), "; ".join(parts))


def test_criterion_09_population_dynamics():
    bp_overlaps = []
    for k in range(3):
        inst = generate(
            CbmParams(n=100_000, alpha=8, epsilon=0.25, seed=derive_seed(0, "acc9", k))
        )
        bp_overlaps.append(bp_run(inst, 0.25).overlap)
    bp_mean = float(np.mean(bp_overlaps))
    pd8 = population_dynamics(
        PopDynConfig(alpha=8, epsilon=0.25, seed=derive_seed(0, "acc9-pd"))
    )
    pd3 = population_dynamics(
        PopDynConfig(alpha=3, epsilon=0.25, seed=derive_seed(0, "acc9-pd3"))
    )
    ok = abs(pd8 - bp_mean) <= 0.05 and pd3 < 0.02
    assert report(9, "population dynamics consistent with graph BP", ok,
                  f"popdyn(8)={pd8:.4f} vs BP(n=1e5)={bp_mean:.4f}; popdyn(3)={pd3:.4f}")


def test_criterion_10_oracle_equivalence():
    from cbdetect.eigen import SolverConfig

    # hitting 1e-6 relative on weakly separated bottom pairs needs a tighter
    # tol than the default and room for the shift-and-power tail (the worst
    # instance in this frozen set converges after ~19k iterations)
    cfg = SolverConfig(tol=1e-10, max_iter=400_000)
    specs = [(0.10, 80, 200)] * 30 + [(0.25, 100, 200)] * 20
    worst_nb, worst_h = 0.0, 0.0
    ok = True
    for k, (eps, lo, hi) in enumerate(specs):
        n = lo + (derive_seed(0, "acc10-n", k) % (hi - lo + 1))
        inst = generate(
            CbmParams(n=n, alpha=8, epsilon=eps, seed=derive_seed(0, "acc10-s", k))
        )
        bp = build_bprime(inst)
        dense = np.linalg.eigvals(bp.toarray())
        order = np.argsort(-np.abs(dense))
        top, second = dense[order[0]], dense[order[1]]
        res = power_leading(bp, cfg)
        if isinstance(res, NoRealLeader):
            # valid only when the dense oracle confirms no separated real leader
            separated = abs(top.imag) < 1e-8 and abs(top) > (1 + 1e-3) * abs(second)
            ok = ok and not separated
        else:
            rel = abs(res.value - top.real) / abs(top)
            worst_nb = max(worst_nb, rel)
            ok = ok and abs(top.imag) < 1e-8 and rel < 1e-6
        h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
        hres = smallest_symmetric(h, cfg)
        hmin = float(np.linalg.eigvalsh(h.toarray()).min())
        rel_h = abs(hres.value - hmin) / abs(hmin)
        worst_h = max(worst_h, rel_h)
        ok = ok and hres.converged and rel_h < 1e-6
    assert report(10, "iterative solvers match the dense oracle", ok,
                  f"worst relative errors: leading {worst_nb:.2e}, smallest {worst_h:.2e}")


def test_criterion_11_determinism(tmp_path, capsys):
    gen_args = ["gen", "--n", "1000", "--alpha", "8", "--epsilon", "0.25", "--seed", "7"]
    a, b = tmp_path / "a.cbm", tmp_path / "b.cbm"
    assert main(gen_args + ["--out", str(a)]) == 0
    assert main(gen_args + ["--out", str(b)]) == 0
    sweep_args = [
        "sweep", "--n", "500", "--epsilon", "0.25", "--alpha", "3,8",
        "--trials", "2", "--methods", "NB,BH", "--seed", "9",
    ]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(sweep_args + ["--out", str(c)]) == 0
    assert main(sweep_args + ["--out", str(d)]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes() and c.read_bytes() == d.read_bytes()
    assert report(11, "gen and sweep outputs byte-reproducible", ok)
