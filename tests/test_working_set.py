"""Peak traced memory of generation, instance reading and writing, BP and operator
assembly, in units of one 2m float64 array.

tracemalloc sees every numpy buffer, so these bounds catch a sweep or an
assembly that goes back to fresh temporaries or int64 index copies.  The
measured peaks at n = 2*10^4, alpha = 8 are about 4.9 units for
``bp_fixed_point``, 3.4 for ``build_bprime`` and 3.6 for
``build_bethe_hessian`` with ``is_symmetric`` (1.9 for ``is_symmetric``
alone), since both operators are laid out row by row from the sorted edges;
with coordinate triples and ``tocsr`` they took 4.9 and 4.3, and before that
7.0 and 7.4 (12.1 for BP).  BP took 5.9 units while its sweeps ran
on the interleaved directed-edge ordinals and kept the edge index alive.
``generate`` takes about 2.9 units, of which ``CbmInstance``'s checks and
narrowing copy take 0.77 (the int32 copy and, before it, one m-long int64
sort key); they took 3.75 and 1.5 while the instance held int64 edges, and
4.2 and 2.5 while the checks diffed both endpoint columns and built masks
from them.  ``read_instance`` takes about 1.8 units (the file's bytes, the
edges parsed in place into int32, then the instance); parsing a copy of the
edge block into int64 took 4.0.  ``write_instance`` takes 2.3 (one chunk of
fixed-width lines, its mask and the squeezed bytes) and ``gershgorin_upper``
2.5; when generation concatenated fresh temporaries and stacked the
columns, the writer formatted Python ints and the Gershgorin bound gathered
the off-diagonal entries, they took 6.6, 6.2 and 4.4.

One population-dynamics draw is measured in units of one float64 array per
term (alpha * N of them): about 2.25 units (the parents, the signed table and
the gathered terms), against 2.5 while the table outlived the gather and the
fields were copied by tanh, and 4.4 when every term had its own coupling,
product and arctanh and the degrees were repeated rows.  Drawing the flips
as one Binomial count took away a T-long uniform array and its mask, which
never set the peak.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cbdetect import inference
from cbdetect.eigen import gershgorin_upper
from cbdetect.inference import bp_fixed_point, _popdyn_draw
from cbdetect.model import (
    CbmInstance,
    CbmParams,
    beta0,
    empirical_alpha,
    generate,
    read_instance,
    write_instance,
)
from cbdetect.operators import build_bethe_hessian, build_bprime
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


def test_bp_sweeps_run_in_reused_buffers(inst, monkeypatch):
    monkeypatch.setattr(inference, "BP_MAX_SWEEPS", 20)
    assert peak_units(inst, lambda: bp_fixed_point(inst, beta0(0.25))) < 7.0


def test_bprime_assembly(inst):
    assert peak_units(inst, lambda: build_bprime(inst)) < 3.75


def test_bethe_hessian_assembly_and_symmetry_check(inst):
    x = math.sqrt(empirical_alpha(inst))
    assert peak_units(inst, lambda: build_bethe_hessian(inst, x).is_symmetric()) < 3.9
    h = build_bethe_hessian(inst, x)
    assert peak_units(inst, h.is_symmetric) < 3.0


def test_generation_builds_the_edge_array_in_place(inst):
    assert peak_units(inst, lambda: generate(inst.params)) < 3.25


def test_instance_checks_allocate_one_key_then_the_copy(inst):
    sigma, edges = np.array(inst.sigma), np.array(inst.edges)
    assert peak_units(inst, lambda: CbmInstance(inst.params, sigma, edges)) < 1.0


def test_instance_reader_parses_in_place(inst, tmp_path):
    path = tmp_path / "x.cbm"
    write_instance(inst, path)
    assert peak_units(inst, lambda: read_instance(path)) < 2.25


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
    assert peak / (alpha * count * 8) < 2.5
