"""Peak traced memory of generation, instance writing, BP and operator assembly,
in units of one 2m float64 array.

tracemalloc sees every numpy buffer, so these bounds catch a sweep or an
assembly that goes back to fresh temporaries or int64 index copies.  The
measured peaks at n = 2*10^4, alpha = 8 are about 4.9 units for
``bp_fixed_point``, 4.9 for ``build_bprime`` and 4.3 for
``build_bethe_hessian`` with ``is_symmetric``; the previous allocation
pattern took 12.1, 7.0 and 7.4 units, and 5.0 for ``is_symmetric`` alone.
BP took 5.9 units while its sweeps ran on the interleaved directed-edge
ordinals and kept the edge index alive.  ``generate`` takes about 4.2
units (the (m, 3) edge array, the checks and the copy in ``CbmInstance``),
``write_instance`` 2.3 (one chunk of fixed-width lines, its mask and the
squeezed bytes) and ``gershgorin_upper`` 2.5; when generation concatenated
fresh temporaries and stacked the columns, the writer formatted Python ints
and the Gershgorin bound gathered the off-diagonal entries, they took 6.6,
6.2 and 4.4.
"""

import math
import tracemalloc

import pytest

from cbdetect import (
    BpConfig,
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


@pytest.fixture(scope="module")
def inst():
    return generate(CbmParams(n=20_000, alpha=8, epsilon=0.25, seed=3))


def peak_units(inst, fn) -> float:
    """Peak traced bytes while fn runs, divided by 2m * 8."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (2 * inst.m * 8)


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
    assert peak_units(inst, lambda: generate(inst.params)) < 5.5


def test_instance_writer_holds_one_chunk(inst, tmp_path):
    assert peak_units(inst, lambda: write_instance(inst, tmp_path / "x.cbm")) < 3.0


def test_gershgorin_bound_without_gathered_copies(inst):
    h = build_bethe_hessian(inst, math.sqrt(empirical_alpha(inst)))
    assert peak_units(inst, lambda: gershgorin_upper(h)) < 3.0
