"""Peak traced memory of generation, instance writing, BP and operator assembly,
in units of one 2m float64 array.

tracemalloc sees every numpy buffer, so these bounds catch a sweep or an
assembly that goes back to fresh temporaries or int64 index copies.  The
measured peaks at n = 2*10^4, alpha = 8 are about 4.9 units for
``bp_fixed_point``, 4.9 for ``build_bprime`` and 4.3 for
``build_bethe_hessian`` with ``is_symmetric``; the previous allocation
pattern took 12.1, 7.0 and 7.4 units, and 5.0 for ``is_symmetric`` alone.
BP took 5.9 units while its sweeps ran on the interleaved directed-edge
ordinals and kept the edge index alive.  ``generate`` takes about 3.75
units, of which ``CbmInstance``'s checks and defensive copy take 1.5 (the
copy and, before it, one m-long sort key); they took 4.2 and 2.5 while the
checks diffed both endpoint columns and built masks from them.
``write_instance`` takes 2.3 (one chunk of fixed-width lines, its mask and the
squeezed bytes) and ``gershgorin_upper`` 2.5; when generation concatenated
fresh temporaries and stacked the columns, the writer formatted Python ints
and the Gershgorin bound gathered the off-diagonal entries, they took 6.6,
6.2 and 4.4.

One population-dynamics draw is measured in units of one float64 array per
term (alpha * N of them): about 2.5 units, against 4.4 when every term had
its own coupling, product and arctanh and the degrees were repeated rows.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cbdetect import (
    BpConfig,
    CbmInstance,
    CbmParams,
    beta0,
    bp_fixed_point,
    build_bethe_hessian,
    build_bprime,
    empirical_alpha,
    generate,
    write_instance,
)
from cbdetect.eigen import gershgorin_upper
from cbdetect.inference import _popdyn_draw
from cbdetect.rng import substream


@pytest.fixture(scope="module")
def inst():
    return generate(CbmParams(n=20_000, alpha=8, epsilon=0.25, seed=3))


def peak_bytes(fn) -> int:
    """Peak traced bytes while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_units(inst, fn) -> float:
    """Peak traced bytes while fn runs, divided by 2m * 8."""
    return peak_bytes(fn) / (2 * inst.m * 8)


def test_bp_sweeps_run_in_reused_buffers(inst):
    assert peak_units(inst, lambda: bp_fixed_point(inst, beta0(0.25), BpConfig(max_sweeps=20))) < 7.0


def test_bprime_assembly(inst):
    assert peak_units(inst, lambda: build_bprime(inst)) < 6.0


def test_bethe_hessian_assembly_and_symmetry_check(inst):
    x = math.sqrt(empirical_alpha(inst))
    assert peak_units(inst, lambda: build_bethe_hessian(inst, x).is_symmetric()) < 6.0
    h = build_bethe_hessian(inst, x)
    assert peak_units(inst, h.is_symmetric) < 3.0


def test_generation_builds_the_edge_array_in_place(inst):
    assert peak_units(inst, lambda: generate(inst.params)) < 4.0


def test_instance_checks_allocate_one_key_then_the_copy(inst):
    sigma, edges = np.array(inst.sigma), np.array(inst.edges)
    assert peak_units(inst, lambda: CbmInstance(inst.params, sigma, edges)) < 2.0


def test_instance_writer_holds_one_chunk(inst, tmp_path):
    assert peak_units(inst, lambda: write_instance(inst, tmp_path / "x.cbm")) < 3.0


def test_gershgorin_bound_without_gathered_copies(inst):
    h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
    assert peak_units(inst, lambda: gershgorin_upper(h)) < 3.0


def test_popdyn_draw_reads_terms_from_a_table():
    count, alpha = 10_000, 8.0
    pop = substream(1, "popdyn-pop").uniform(-1.0, 1.0, size=count)
    t_beta = math.tanh(beta0(0.25))
    peak = peak_bytes(lambda: _popdyn_draw(substream(2, "popdyn-draw"), pop, alpha, t_beta, 0.25))
    assert peak / (alpha * count * 8) < 3.0
