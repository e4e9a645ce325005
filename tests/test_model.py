import hashlib
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbdetect import model
from cbdetect.model import (
    CbmInstance,
    CbmParams,
    InstanceFormatError,
    alpha_detect,
    beta0,
    _decode_pair_indices,
    empirical_alpha,
    generate,
    overlap,
    read_instance,
    _sample_pair_indices,
    sign_pm1,
    write_instance,
)
from cbdetect.rng import substream
from conftest import make_instance
from oracles import sample_pair_indices_reference, write_reference

# written by the line-at-a-time writer that preceded the vectorised one
GOLDEN = Path(__file__).parent / "data" / "golden.cbm"
GOLDEN_PARAMS = CbmParams(n=200, alpha=6.0, epsilon=0.25, seed=20260)

MALFORMED = {
    "%cbm 2\n2 1 0.25 3\nsigma\n1 -1\n0 1 -1\n": "bad header, expected '%cbm 1'",
    "%cbm 1\n2 1 0.25 3\nsigma\n1 -1\n0 5 -1\n": "edge endpoint out of range",
    "%cbm 1\n2 1 0.25 3\nsigma\n1 -1\n0 1 2\n": "edge weights must be +1 or -1",
    "%cbm 1\n3 2 0.25 3\nsigma\n1 -1 1\n0 1 1\n0 1 -1\n": "duplicate edge",
    "%cbm 1\n2 2 0.25 3\nsigma\n1 -1\n0 1 1\n": "expected 2 edge lines, got 1",
    "%cbm 1\n2 1 0.25 3\nsigma\n1 -1 1\n0 1 1\n": "expected 2 sigma entries, got 3",
    "%cbm 1\n2 1 0.9 3\nsigma\n1 -1\n0 1 1\n": "epsilon must lie in [0, 0.5], got 0.9",
}

# a valid file small enough for byte-level mutation, and the bytes to mutate it with
SMALL_FILE = b"%cbm 1\n6 4 0.25 3\nsigma\n1 -1 1 1 -1 -1\n0 1 -1\n0 4 1\n2 3 1\n3 5 -1\n"
MUTATIONS = [b"", b"0", b"7", b"-", b" ", b"  ", b"\n", b"\n\n", b"\r", b"\t", b"#", b"+",
             b"_", b"\x0b", b"\x1c", b"\xc2\x85", b"\xff", b"x", b".", b"99999999999999999999"]


def _outcome(path):
    """Comparable summary of a read: the contents, or the error type and message."""
    try:
        inst = read_instance(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc).__name__, str(exc)
    return inst.params, inst.sigma.tolist(), inst.edges.tolist()


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CbmParams(n=0, alpha=1, epsilon=0.1, seed=0)
        with pytest.raises(ValueError):
            CbmParams(n=10, alpha=0.0, epsilon=0.1, seed=0)
        with pytest.raises(ValueError):
            CbmParams(n=10, alpha=1, epsilon=0.6, seed=0)
        with pytest.raises(ValueError):
            CbmParams(n=10, alpha=1, epsilon=-0.1, seed=0)
        with pytest.raises(ValueError):
            CbmParams(n=10, alpha=20, epsilon=0.1, seed=0)  # alpha/n > 1
        with pytest.raises(ValueError):
            CbmParams(n=10, alpha=1, epsilon=0.1, seed=2**64)

    def test_accepts_boundaries(self):
        CbmParams(n=1, alpha=1e-30, epsilon=0.0, seed=0)
        CbmParams(n=10, alpha=10, epsilon=0.5, seed=2**64 - 1)


class TestGenerate:
    def test_vanishing_alpha_gives_no_edges(self):
        inst = generate(CbmParams(n=4, alpha=1e-30, epsilon=0.3, seed=5))
        assert inst.m == 0

    def test_noiseless_weights_equal_sign_products(self):
        inst = generate(CbmParams(n=1000, alpha=5, epsilon=0.0, seed=2))
        i, j, w = inst.edges[:, 0], inst.edges[:, 1], inst.edges[:, 2]
        assert np.array_equal(w, inst.sigma[i] * inst.sigma[j])

    def test_edge_count_concentration_large_n(self):
        # Binomial(C(n,2), alpha/n): mean ~ n*alpha/2, sd = sqrt(mean*(1-p))
        n, alpha = 100_000, 8.0
        mean = n * alpha / 2
        sd = math.sqrt((n * (n - 1) / 2) * (alpha / n) * (1 - alpha / n))
        for seed in range(20):
            inst = generate(CbmParams(n=n, alpha=alpha, epsilon=0.25, seed=seed))
            assert abs(inst.m - mean) < 3 * sd

    def test_generated_arrays_pinned(self):
        # digest of the arrays as drawn before generation worked in place
        inst = generate(CbmParams(n=20_000, alpha=8, epsilon=0.25, seed=3))
        h = hashlib.blake2b(digest_size=16)
        h.update(inst.sigma.astype("<i8").tobytes())
        h.update(inst.edges.astype("<i8").tobytes())
        assert inst.m == 79908
        assert h.hexdigest() == "cc0814a3e8d3692e802d4bc5e7c3606f"

    def test_deterministic_regeneration(self):
        p = CbmParams(n=500, alpha=6, epsilon=0.2, seed=99)
        a, b = generate(p), generate(p)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.edges, b.edges)

    def test_edges_sorted_unique_in_range(self):
        inst = generate(CbmParams(n=300, alpha=7, epsilon=0.4, seed=3))
        i, j = inst.edges[:, 0], inst.edges[:, 1]
        assert np.all(i < j)
        assert np.all((i >= 0) & (j < 300))
        keys = i * 300 + j
        assert np.all(np.diff(keys) > 0)

    def test_full_density_gives_complete_graph(self):
        inst = generate(CbmParams(n=12, alpha=12, epsilon=0.1, seed=4))
        assert inst.m == 12 * 11 // 2

    def test_mean_and_noise_statistics(self):
        # over >= 100 seeds at n=1e4: mean edge count within 4 SE of n*alpha/2,
        # pooled flip fraction within 4 SE of epsilon
        n, alpha, eps, k = 10_000, 5.0, 0.25, 100
        counts, flips, total = [], 0, 0
        for seed in range(k):
            inst = generate(CbmParams(n=n, alpha=alpha, epsilon=eps, seed=seed))
            counts.append(inst.m)
            i, j, w = inst.edges[:, 0], inst.edges[:, 1], inst.edges[:, 2]
            flips += int(np.sum(w != inst.sigma[i] * inst.sigma[j]))
            total += inst.m
        mean_th = n * alpha / 2
        se_mean = math.sqrt(mean_th) / math.sqrt(k)
        assert abs(np.mean(counts) - mean_th) < 4 * se_mean
        se_eps = math.sqrt(eps * (1 - eps) / total)
        assert abs(flips / total - eps) < 4 * se_eps


class TestPairSampling:
    def test_decode_matches_enumeration(self):
        for n in (2, 3, 5, 17):
            total = n * (n - 1) // 2
            i, j = _decode_pair_indices(np.arange(total, dtype=np.int64), n)
            expected = [(a, b) for a in range(n) for b in range(a + 1, n)]
            assert list(zip(i.tolist(), j.tolist())) == expected

    def test_decode_fixes_float_guesses_at_row_boundaries(self):
        # at n = 2*10^9 the float inversion misses hundreds of these rows in both directions
        n = 2 * 10**9
        rows = np.concatenate([np.random.default_rng(0).integers(1, n - 1, 300), [0, 1, n - 3, n - 2]])
        starts = rows * (2 * n - rows - 1) // 2
        i, j = _decode_pair_indices(np.concatenate([starts, starts + (n - 2 - rows), starts[1:] - 1]), n)
        assert np.array_equal(i, np.concatenate([rows, rows, rows[1:] - 1]))
        assert np.array_equal(j, np.concatenate([rows + 1, np.full(2 * len(rows) - 1, n - 1)]))

    @pytest.mark.parametrize("n, p", [(2, 0.5), (50, 0.3), (2000, 0.004), (30_000, 3e-4)])
    def test_sampler_matches_reference(self, n, p):
        got = _sample_pair_indices(n, p, substream(7, "t"))
        assert np.array_equal(got, sample_pair_indices_reference(n, p, substream(7, "t")))

    @pytest.mark.parametrize("zero_at", [None, 1234])
    def test_multi_block_sampling_matches_reference(self, zero_at):
        # draws just below 1 make every jump 1, so the sample needs many blocks;
        # a draw of exactly 0 is an infinite jump that ends it early
        class NearOne:
            def __init__(self):
                self.rng, self.drawn = np.random.default_rng(0), 0

            def random(self, size):
                u = 1.0 - self.rng.random(size) * 1e-12
                if zero_at is not None and self.drawn <= zero_at < self.drawn + size:
                    u[zero_at - self.drawn] = 0.0
                self.drawn += size
                return u

        n, p = 200, 0.01
        got = _sample_pair_indices(n, p, NearOne())
        assert np.array_equal(got, sample_pair_indices_reference(n, p, NearOne()))
        assert np.array_equal(got, np.arange(n * (n - 1) // 2 if zero_at is None else zero_at))

    def test_skip_sampling_statistics(self):
        n, p = 2000, 0.004
        total = n * (n - 1) // 2
        pos = _sample_pair_indices(n, p, substream(1, "t"))
        assert np.all(np.diff(pos) > 0) and pos.min() >= 0 and pos.max() < total
        assert abs(len(pos) - total * p) < 4 * math.sqrt(total * p)

    def test_positions_unbiased_above_2_53(self):
        # C(n, 2) = 4.5*10^16 > 2^53, past which a float64 sum cannot hold every odd position
        n = 3 * 10**8
        pos = _sample_pair_indices(n, 0.002 / n, substream(1, "edges"))
        assert np.all(np.diff(pos) > 0) and pos[0] >= 0 and pos[-1] < n * (n - 1) // 2
        odd = np.count_nonzero(pos & 1) / len(pos)
        assert abs(odd - 0.5) < 5 * 0.5 / math.sqrt(len(pos))


class TestOverlap:
    def test_identity_and_global_flip(self):
        t = np.array([1, 1, -1, -1])
        assert overlap(t, t) == 1.0
        assert overlap(t, -t) == 1.0

    def test_direct_value(self):
        t = np.array([1, 1, -1, -1])
        g = np.array([1, -1, -1, -1])
        assert overlap(t, g) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap(np.array([1, -1]), np.array([1, -1, 1]))

    @pytest.mark.parametrize("bad, match", [
        (np.array([1, 0, -1]), "labels must be \\+1 or -1"),
        (np.array([1, 2, -1]), "labels must be \\+1 or -1"),
        (np.array([], dtype=np.int64), "non-empty 1-d"),
        (np.array([[1, -1], [-1, 1]]), "non-empty 1-d"),
    ])
    def test_rejects_bad_labels(self, bad, match):
        good = np.array([1, -1, 1])
        with pytest.raises(ValueError, match=match):
            overlap(bad, good)
        with pytest.raises(ValueError, match=match):
            overlap(good, bad)

    def test_inputs_stay_writeable_and_unchanged(self):
        t = np.array([1, 1, -1, -1], dtype=np.int64)
        g = np.array([1, -1, -1, -1], dtype=np.int64)
        overlap(t, g)
        assert t.flags.writeable and g.flags.writeable
        assert t.tolist() == [1, 1, -1, -1] and g.tolist() == [1, -1, -1, -1]

    def test_exact_on_int8_labels_at_n_1000(self):
        # a +-1 sum or product in int8 would wrap here; the agreement count must not
        t = sign_pm1(substream(8, "t").standard_normal(1000))
        g = t.copy()
        g[:300] *= -1
        assert t.dtype == g.dtype == np.int8
        assert overlap(t, g) == 2.0 * (700 / 1000 - 0.5)
        assert overlap(t, -g) == overlap(t, g)
        assert overlap(t, t) == overlap(t, -t) == 1.0

    def test_random_guess_vanishes(self):
        n = 100_000
        t = sign_pm1(substream(8, "t").standard_normal(n) )
        g = sign_pm1(substream(9, "g").standard_normal(n))
        assert overlap(t, g) < 0.01

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200, ), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_flip_invariance(self, tvals, data):
        gvals = data.draw(
            st.lists(st.sampled_from([-1, 1]), min_size=len(tvals), max_size=len(tvals))
        )
        t, g = np.array(tvals), np.array(gvals)
        ov = overlap(t, g)
        assert 0.0 <= ov <= 1.0
        assert ov == overlap(g, t)
        assert ov == overlap(-t, g)
        assert ov == overlap(t, -g)


class TestThresholds:
    def test_alpha_detect_values(self):
        assert alpha_detect(0.25) == pytest.approx(4.0)  # the reference noise level
        assert alpha_detect(0.0) == 1.0
        assert alpha_detect(0.4) == pytest.approx(25.0)

    def test_alpha_detect_identity_exact_on_dyadic_eps(self):
        for eps in (0.0, 0.125, 0.25, 0.375):
            assert alpha_detect(eps) * (1 - 2 * eps) ** 2 == 1.0

    def test_alpha_detect_rejects_half(self):
        with pytest.raises(ValueError):
            alpha_detect(0.5)

    def test_beta0_values(self):
        assert beta0(0.5) == 0.0
        assert beta0(0.25) == pytest.approx(0.5 * math.log(3))
        assert beta0(0.1) == pytest.approx(0.5 * math.log(9))
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                beta0(bad)

    def test_empirical_alpha(self, triangle):
        empty = CbmInstance(
            params=CbmParams(n=5, alpha=0.1, epsilon=0.2, seed=0),
            sigma=np.ones(5, dtype=np.int64),
            edges=np.empty((0, 3), dtype=np.int64),
        )
        assert empirical_alpha(empty) == 0.0
        assert empirical_alpha(triangle) == 2.0
        inst = generate(CbmParams(n=100_000, alpha=8, epsilon=0.25, seed=1))
        assert abs(empirical_alpha(inst) - 8.0) / 8.0 < 0.01


class TestInstanceValidation:
    def test_rejects_self_loop_and_reversed(self):
        with pytest.raises(ValueError):
            CbmInstance(
                params=CbmParams(n=3, alpha=1, epsilon=0.1, seed=0),
                sigma=np.ones(3, dtype=np.int64),
                edges=np.array([[1, 1, 1]]),
            )
        with pytest.raises(ValueError):
            CbmInstance(
                params=CbmParams(n=3, alpha=1, epsilon=0.1, seed=0),
                sigma=np.ones(3, dtype=np.int64),
                edges=np.array([[2, 1, 1]]),
            )

    def test_rejects_duplicates_and_bad_weight(self):
        params = CbmParams(n=3, alpha=1, epsilon=0.1, seed=0)
        with pytest.raises(ValueError):
            CbmInstance(params=params, sigma=np.ones(3, dtype=np.int64),
                        edges=np.array([[0, 1, 1], [0, 1, -1]]))
        with pytest.raises(ValueError):
            CbmInstance(params=params, sigma=np.ones(3, dtype=np.int64),
                        edges=np.array([[0, 1, 2]]))

    def test_sorts_edges_and_copies_input(self):
        params = CbmParams(n=4, alpha=1, epsilon=0.1, seed=0)
        for rows in ([[2, 3, 1], [0, 1, -1], [0, 3, 1]], [[0, 1, -1], [0, 3, 1], [2, 3, 1]]):
            given_edges = np.array(rows)
            inst = CbmInstance(params=params, sigma=np.ones(4, dtype=np.int64), edges=given_edges)
            assert inst.edges.tolist() == [[0, 1, -1], [0, 3, 1], [2, 3, 1]]
            given_edges[0, 2] = 7
            assert inst.edges.tolist() == [[0, 1, -1], [0, 3, 1], [2, 3, 1]]

    def test_narrow_dtypes(self, triangle):
        assert triangle.sigma.dtype == np.int8
        assert triangle.edges.dtype == np.int32 and triangle.edges.shape == (3, 3)
        inst = generate(CbmParams(n=1000, alpha=5, epsilon=0.25, seed=2))
        assert inst.sigma.dtype == np.int8 and inst.edges.dtype == np.int32

    def test_sort_key_does_not_overflow_at_n_50000(self):
        # i*n passes 2**31 for i >= 42,950: an int32 key would misorder these rows
        params = CbmParams(n=50_000, alpha=1e-3, epsilon=0.1, seed=0)
        sigma = np.ones(50_000, dtype=np.int8)
        rows = [[49_000, 49_500, 1], [100, 200, -1], [48_000, 49_999, 1], [49_000, 49_001, -1]]
        inst = CbmInstance(params=params, sigma=sigma, edges=np.array(rows, dtype=np.int32))
        assert inst.edges.tolist() == [[100, 200, -1], [48_000, 49_999, 1], [49_000, 49_001, -1], [49_000, 49_500, 1]]
        for dup in ([[49_000, 49_500, 1], [100, 200, -1], [49_000, 49_500, -1]],
                    [[48_000, 49_999, 1], [48_000, 49_999, 1]]):
            with pytest.raises(ValueError, match="^duplicate edge$"):
                CbmInstance(params=params, sigma=sigma, edges=np.array(dup, dtype=np.int32))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_wide_values_rejected_not_wrapped(self, dtype):
        # each bad value below narrows to a valid one: 2**32 + 1 -> 1 in int32, 257 -> 1 in int8
        params = CbmParams(n=3, alpha=1, epsilon=0.1, seed=0)
        sigma = np.ones(3, dtype=dtype)
        for edges, match in (([[0, 2**32 + 1, 1]], "edge endpoint out of range"),
                             ([[0, 2**31, 1]], "edge endpoint out of range"),
                             ([[0, 3, 1]], "edge endpoint out of range"),
                             ([[0, 1, 2**32 + 1]], "edge weights must be \\+1 or -1")):
            with pytest.raises(ValueError, match=f"^{match}$"):
                CbmInstance(params=params, sigma=sigma, edges=np.array(edges, dtype=dtype))
        with pytest.raises(ValueError, match="^sigma entries must be \\+1 or -1$"):
            CbmInstance(params=params, sigma=np.array([1, 257, 1], dtype=dtype), edges=np.array([[0, 1, 1]]))

    def test_immutable_arrays(self, triangle):
        with pytest.raises(ValueError):
            triangle.sigma[0] = -1


class TestInstanceFile:
    def test_empty_edge_roundtrip(self, tmp_path):
        inst = CbmInstance(
            params=CbmParams(n=4, alpha=0.25, epsilon=0.125, seed=17),
            sigma=np.array([1, -1, 1, -1]),
            edges=np.empty((0, 3), dtype=np.int64),
        )
        path = tmp_path / "empty.cbm"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.n == 4 and back.m == 0
        assert np.array_equal(back.sigma, inst.sigma)
        assert back.params.epsilon == 0.125 and back.params.seed == 17

    def test_triangle_roundtrip_preserves_sigma(self, tmp_path):
        inst = CbmInstance(
            params=CbmParams(n=3, alpha=2.0, epsilon=0.25, seed=5),
            sigma=np.array([1, -1, 1]),
            edges=np.array([[0, 1, -1], [0, 2, 1], [1, 2, -1]]),
        )
        path = tmp_path / "tri.cbm"
        write_instance(inst, path)
        back = read_instance(path)
        assert np.array_equal(back.sigma, inst.sigma)
        assert np.array_equal(back.edges, inst.edges)
        assert back.params.epsilon == inst.params.epsilon
        assert back.params.seed == inst.params.seed

    def test_generated_roundtrip_and_stable_bytes(self, tmp_path):
        inst = generate(CbmParams(n=1000, alpha=6, epsilon=0.3, seed=12345))
        p1, p2, p3 = (tmp_path / f"g{k}.cbm" for k in range(3))
        write_instance(inst, p1)
        write_instance(generate(inst.params), p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_instance(p1)
        write_instance(back, p3)
        assert p3.read_bytes() == p1.read_bytes()
        assert np.array_equal(back.edges, inst.edges)
        assert np.array_equal(back.sigma, inst.sigma)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.cbm"
        path.write_text("# a comment\n%cbm 1\n2 1 0.25 3\nsigma\n1 -1\n# mid comment\n0 1 -1\n")
        inst = read_instance(path)
        assert inst.m == 1 and inst.edges[0, 2] == -1

    @pytest.mark.parametrize("body", list(MALFORMED))
    def test_malformed_files_rejected(self, tmp_path, body):
        path = tmp_path / "bad.cbm"
        path.write_text(body)
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(MALFORMED[body])}$"):
            read_instance(path)

    def test_golden_file_bytes_and_contents(self, tmp_path):
        inst = generate(GOLDEN_PARAMS)
        path = tmp_path / "golden.cbm"
        write_instance(inst, path)
        assert path.read_bytes() == GOLDEN.read_bytes()
        back = read_instance(GOLDEN)
        assert np.array_equal(back.sigma, inst.sigma)
        assert np.array_equal(back.edges, inst.edges)
        assert back.params.epsilon == GOLDEN_PARAMS.epsilon
        assert back.params.seed == GOLDEN_PARAMS.seed

    @pytest.mark.parametrize("n", [10, 11, 100, 101, 1000, 1001])
    def test_digit_boundary_ids_match_reference_writer(self, tmp_path, n):
        ids = sorted({0, 1, 8, 9, 10, 99, 100, 999, 1000} & set(range(n)) | {n - 2, n - 1})
        edges = [(i, j, 1 - 2 * ((i + j) % 2)) for k, i in enumerate(ids) for j in ids[k + 1 :]]
        inst = make_instance(n, edges, sigma=-np.ones(n, dtype=np.int64))
        write_instance(inst, tmp_path / "a.cbm")
        write_reference(inst, tmp_path / "b.cbm")
        assert (tmp_path / "a.cbm").read_bytes() == (tmp_path / "b.cbm").read_bytes()

    @given(
        n=st.one_of(st.sampled_from([1, 2, 10, 11, 100, 101, 1000, 1001]), st.integers(1, 1500)),
        alpha=st.floats(min_value=0.01, max_value=12.0),
        eps=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        signs=st.sampled_from(["drawn", "all negative"]),
    )
    @example(n=1, alpha=0.5, eps=0.25, seed=0, signs="drawn")  # m = 0
    @example(n=1001, alpha=12.0, eps=0.5, seed=1, signs="all negative")
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_reference_writer(self, n, alpha, eps, seed, signs):
        inst = generate(CbmParams(n=n, alpha=min(alpha, n), epsilon=eps, seed=seed))
        if signs == "all negative":
            edges = inst.edges.copy()
            edges[:, 2] = -1
            inst = CbmInstance(params=inst.params, sigma=-np.ones(n, dtype=np.int64), edges=edges)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.cbm", Path(tmp) / "b.cbm"
            write_instance(inst, a)
            write_reference(inst, b)
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("endpoint", [2**31 + 1, 2**32 + 1])
    def test_endpoint_past_int32_rejected(self, tmp_path, endpoint):
        # 2**32 + 1 would wrap to 1, a valid endpoint, if the edges were parsed narrow unchecked
        path = tmp_path / "wide.cbm"
        path.write_text(f"%cbm 1\n3 1 0.25 3\nsigma\n1 -1 1\n0 {endpoint} 1\n")
        with pytest.raises(InstanceFormatError, match="^edge endpoint out of range$"):
            read_instance(path)

    def test_tokens_past_int64_rejected_as_format_errors(self, tmp_path):
        path = tmp_path / "huge.cbm"
        path.write_text(f"%cbm 1\n3 1 0.25 3\nsigma\n1 -1 1\n0 {2**64} 1\n")
        with pytest.raises(InstanceFormatError, match="^bad edge line 0: "):
            read_instance(path)
        path.write_text(f"%cbm 1\n3 1 0.25 3\nsigma\n1 {2**64} 1\n0 1 1\n")
        with pytest.raises(InstanceFormatError, match="^bad sigma line: "):
            read_instance(path)

    def test_read_parses_into_narrow_dtypes(self):
        inst = read_instance(GOLDEN)
        assert inst.sigma.dtype == np.int8 and inst.edges.dtype == np.int32

    def test_plain_file_skips_line_parser(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "_parse_lines", lambda text: calls.append(text))
        assert read_instance(GOLDEN).m == 633
        assert calls == []

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("%cbm 1\n3 2 0.25 3\nsigma\n1 -1 1\n0 1 -1\n# mid\n1 2 1\n",
             [[0, 1, -1], [1, 2, 1]]),
            ("%cbm 1\n3 1 0.25 3\nsigma\n1 -1 1\n0 2 +1\n", [[0, 2, 1]]),
            ("%cbm 1\n12 1 0.25 3\nsigma\n" + "1 " * 12 + "\n0 1_0 1\n", [[0, 10, 1]]),
            ("%cbm 1\r\n3 1 0.25 3\r\nsigma\r\n1 -1 1\r\n1 2 -1\r\n", [[1, 2, -1]]),
            ("%cbm 1\n3 0 0.25 3\nsigma\n1 -1 1\n", []),
            ("%cbm 1\n3 2 0.25 3\nsigma\n1 -1 1\n0 1\n0 1 2 1\n", "bad edge line 0: '0 1'"),
        ],
        ids=["comment", "plus-sign", "underscore", "crlf", "no-edges", "ragged"],
    )
    def test_line_parser_fallback(self, tmp_path, monkeypatch, body, expected):
        calls = []
        parse_lines = model._parse_lines

        def spy(text):
            calls.append(text)
            return parse_lines(text)

        monkeypatch.setattr(model, "_parse_lines", spy)
        path = tmp_path / "f.cbm"
        path.write_bytes(body.encode())
        if isinstance(expected, str):
            with pytest.raises(InstanceFormatError, match=f"^{re.escape(expected)}$"):
                read_instance(path)
        else:
            assert read_instance(path).edges.tolist() == expected
        assert len(calls) == 1

    @given(edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.sampled_from(MUTATIONS), st.booleans()),
        min_size=1, max_size=3,
    ))
    @settings(max_examples=200, deadline=None)
    def test_fast_and_line_parsers_agree(self, edits):
        data = bytearray(SMALL_FILE)
        for pos, token, replace in edits:
            pos %= len(data) + 1
            data[pos:pos + replace] = token
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.cbm"
            path.write_bytes(bytes(data))
            fast = _outcome(path)
            with mock.patch.object(model, "_parse_plain", lambda data: None):
                assert _outcome(path) == fast

    @given(
        n=st.integers(min_value=2, max_value=40),
        alpha=st.floats(min_value=0.2, max_value=5.0),
        eps=st.sampled_from([0.0, 0.1, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, alpha, eps, seed):
        inst = generate(CbmParams(n=n, alpha=min(alpha, n / 2), epsilon=eps, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.cbm"
            write_instance(inst, path)
            back = read_instance(path)
        assert np.array_equal(back.sigma, inst.sigma)
        assert np.array_equal(back.edges, inst.edges)
        assert back.params.epsilon == inst.params.epsilon
        assert back.params.seed == inst.params.seed


def test_sign_convention_zero_is_positive():
    labels = sign_pm1(np.array([-0.0, 0.0, 1.5, -2.0]))
    assert labels.dtype == np.int8 and labels.tolist() == [1, 1, 1, -1]
