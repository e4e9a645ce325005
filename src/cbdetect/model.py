"""Censored-block-model instances.

A problem instance is an Erdos-Renyi graph G(n, alpha/n) whose nodes
carry hidden signs sigma_i in {-1,+1}; each present edge reveals the
product sigma_i*sigma_j flipped with probability epsilon.  This module
generates instances, computes the detection threshold and the
flip-invariant overlap score, and defines the on-disk instance format.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import MAX_SEED, substream

FORMAT_HEADER = "%cbm 1"
_EDGE_CHUNK = 65_536  # edge rows formatted per write
# The only bytes _parse_plain lets into the sigma line and the edge block:
# on tokens made of them, numpy's integer parsers and int() agree.
_PLAIN_BODY = b"0123456789- \n"
# ASCII line boundaries of str.splitlines() besides "\n"
_LINE_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


class InstanceFormatError(ValueError):
    """An instance file violates the on-disk format."""


def index_dtype(*sizes: int) -> type:
    """int32 while every size is below 2**31, else int64 (docs/decisions.md)."""
    return np.int32 if max(sizes, default=0) < 2**31 else np.int64


def sign_pm1(x) -> np.ndarray:
    """Elementwise sign into {-1,+1} as int8, with the convention sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, np.int8(1), np.int8(-1))


def _integers(x) -> np.ndarray:
    """x as an integer array in its own dtype, or as int64 if it has none."""
    a = np.asarray(x)
    return a if a.dtype.kind in "iu" else a.astype(np.int64)


@dataclass(frozen=True)
class CbmParams:
    """Generation parameters: size, target average degree, noise, seed."""

    n: int
    alpha: float
    epsilon: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in [0, 0.5], got {self.epsilon}")
        if self.alpha / self.n > 1.0:
            raise ValueError(
                f"alpha/n = {self.alpha / self.n} exceeds 1 (invalid edge probability)"
            )
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class CbmInstance:
    """One generated problem: planted signs plus censored edge list.

    ``edges`` is an (m, 3) array of ``index_dtype(n)`` (int32 below
    n = 2**31) with rows (i, j, w), i < j, w in {-1,+1}, kept sorted by
    (i, j); ``sigma`` is int8.  Both are checked in the dtype they are given
    in and narrowed afterwards, so no out-of-range value wraps into range.
    Instances are immutable after construction and safe to share read-only
    across workers.
    """

    params: CbmParams
    sigma: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        sigma = _integers(self.sigma)
        edges = _integers(self.edges).reshape(-1, 3)
        n = self.params.n
        if sigma.shape != (n,):
            raise ValueError(f"sigma must have shape ({n},), got {sigma.shape}")
        if not np.all((sigma == 1) | (sigma == -1)):
            raise ValueError("sigma entries must be +1 or -1")
        sigma = sigma.astype(np.int8)
        idx = index_dtype(n)
        if edges.size:
            i, j, w = edges[:, 0], edges[:, 1], edges[:, 2]
            if i.min() < 0 or j.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(i >= j):
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if not np.all((w == 1) | (w == -1)):
                raise ValueError("edge weights must be +1 or -1")
            # with 0 <= i < j < n, key = i*n + j orders the edges by (i, j) and
            # is equal exactly for duplicate edges (int64: no overflow below n = 3*10^9)
            key = i.astype(np.int64)
            key *= n
            key += j
            if np.all(key[1:] > key[:-1]):
                # already sorted and unique, as generated and written; the narrowing
                # copy also keeps the caller's array from aliasing the instance
                del key
                edges = edges.astype(idx)
            else:
                order = np.argsort(key)
                if np.any(np.diff(key[order]) == 0):
                    raise ValueError("duplicate edge")
                edges = edges.astype(idx, copy=False)[order]
        else:
            edges = edges.astype(idx)
        sigma.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.edges.shape[0]


def _sample_pair_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of present pairs among the C(n,2) linearized node pairs.

    Geometric skip-sampling: jump lengths between selected pairs are
    drawn by inverting the geometric CDF, which is O(m) regardless of n.
    Jumps are clipped to C(n,2) + 1, past the last pair (a zero draw's
    +inf too), and summed in int64, so the positions are exact at any n.
    """
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log1mp = math.log1p(-p)
    block = int(min(4 << 20, total * p + 6.0 * math.sqrt(total * p) + 16.0))
    chunks = []
    cum = 0
    while True:
        c = rng.random(block)
        with np.errstate(divide="ignore"):
            np.log(c, out=c)
        c /= log1mp
        np.floor(c, out=c)
        np.minimum(c, total, out=c)
        c = c.astype(np.int64)
        c += 1
        np.cumsum(c, out=c)
        c += cum
        if c[-1] > total:  # positions only grow: the kept ones are a prefix
            chunks.append(c[: np.searchsorted(c, total, side="right")])
            break
        chunks.append(c)
        cum = int(c[-1])
    pos = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]  # one block needs no copy
    pos -= 1
    return pos


def _decode_pair_indices(pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear pair indices to (i, j) with i < j; row i holds pairs (i, i+1..n-1)."""
    tn = 2.0 * n - 1.0
    k = pos * -8.0
    k += tn * tn
    np.sqrt(k, out=k)
    np.subtract(tn, k, out=k)
    k *= 0.5
    i = np.floor(k, out=k).astype(np.int64)
    del k
    np.clip(i, 0, n - 2, out=i)
    # float inversion can be off by one near row boundaries; fix up exactly
    while True:
        j = pos - (i * (2 * n - 1 - i) >> 1)  # offset of pos in row i
        low, high = j < 0, j >= n - 1 - i
        if not (low.any() or high.any()):
            break
        i[low] -= 1
        i[high] += 1
    j += i + 1
    return i, j


def generate(params: CbmParams) -> CbmInstance:
    """Draw one instance; a pure function of ``params``.

    Signs are i.i.d. uniform on {-1,+1}; each node pair is an edge
    independently with probability alpha/n; a present edge (i, j)
    carries w = sigma_i*sigma_j with probability 1-epsilon and the
    opposite sign otherwise.
    """
    n = params.n
    p = params.alpha / n
    # drawn as int64, then narrowed: an int8 draw would take other values from the stream
    sigma = 2 * substream(params.seed, "sigma").integers(0, 2, size=n, dtype=np.int64) - 1
    sigma = sigma.astype(np.int8)
    pos = _sample_pair_indices(n, p, substream(params.seed, "edges"))
    edges = np.empty((pos.size, 3), dtype=index_dtype(n))
    edges[:, 0], edges[:, 1] = _decode_pair_indices(pos, n)
    del pos
    i, j, w = edges.T
    np.multiply(sigma[i], sigma[j], out=w, dtype=np.int8)  # +-1 products, exact in int8
    flipped = substream(params.seed, "noise").random(w.size) < params.epsilon
    np.negative(w, out=w, where=flipped)
    return CbmInstance(params=params, sigma=sigma, edges=edges)


def overlap(truth, guess) -> float:
    """Flip-invariant agreement score in [0, 1].

    Both labelings are non-empty 1-d arrays of +-1, read and not modified.
    With a = fraction of agreeing labels, returns 2*(max(a, 1-a) - 1/2):
    1 for perfect recovery up to a global sign flip, ~0 for a random
    guess.
    """
    t, g = np.asarray(truth), np.asarray(guess)
    for labels in (t, g):
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labeling must be a non-empty 1-d array")
        if not np.all((labels == 1) | (labels == -1)):
            raise ValueError("labels must be +1 or -1")
    if t.shape != g.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {g.shape}")
    agree = int(np.count_nonzero(t == g))
    best = max(agree, t.size - agree)  # integer max keeps the global flip exact
    return 2.0 * (best / t.size - 0.5)


def alpha_detect(epsilon: float) -> float:
    """Average degree above which partial recovery becomes possible."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(
            f"no finite detection threshold for epsilon = {epsilon} (need 0 <= epsilon < 0.5)"
        )
    return 1.0 / (1.0 - 2.0 * epsilon) ** 2


def beta0(epsilon: float) -> float:
    """Coupling strength of the posterior, (1/2)*log((1-eps)/eps)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"infinite coupling at epsilon = {epsilon} (need 0 < epsilon < 1)")
    return 0.5 * math.log((1.0 - epsilon) / epsilon)


def empirical_alpha(instance: CbmInstance) -> float:
    """Realized average degree 2m/n of a generated graph."""
    return 2.0 * instance.m / instance.n


def _digit_table(n: int) -> np.ndarray:
    """(n, d) ASCII digits of the ids 0..n-1, right-aligned, 0 bytes on the left."""
    d = len(str(n - 1))
    digits = np.empty((n, d), dtype=np.uint8)
    q = np.arange(n)
    for k in range(d - 1, -1, -1):
        digits[:, k] = q % 10 + ord("0")
        q //= 10
    for r in range(1, d):
        digits[: 10**r, d - 1 - r] = 0  # ids below 10^r have no digit there
    return digits


def write_instance(instance: CbmInstance, path) -> None:
    """Serialize to the text instance format (see ``read_instance``).

    Each node id's decimal digits come from one (n, d) byte table, right-aligned
    and padded with 0 bytes; a chunk of edge lines is laid out at fixed width
    and the padding squeezed out, which gives exactly the "%d %d %d" lines.
    """
    params = instance.params
    n, edges = instance.n, instance.edges
    digits = _digit_table(n)
    d = digits.shape[1]
    signs = np.zeros((n, 3), dtype=np.uint8)
    signs[:, 0] = np.where(instance.sigma < 0, ord("-"), 0)
    signs[:, 1:] = ord("1"), ord(" ")
    signs[-1, 2] = ord("\n")
    # line layout: i, space, j, space, "-" or padding, "1", newline
    line = np.zeros((min(edges.shape[0], _EDGE_CHUNK), 2 * d + 5), dtype=np.uint8)
    line[:, [d, 2 * d + 1, 2 * d + 3, 2 * d + 4]] = [ord(" "), ord(" "), ord("1"), ord("\n")]
    with Path(path).open("wb") as f:
        f.write(f"{FORMAT_HEADER}\n{n} {instance.m} {params.epsilon!r} {params.seed}\nsigma\n".encode())
        f.write(signs[signs != 0])
        for s in range(0, instance.m, _EDGE_CHUNK):
            rows = edges[s : s + _EDGE_CHUNK]
            out = line[: len(rows)]
            out[:, :d] = digits[rows[:, 0]]
            out[:, d + 1 : 2 * d + 1] = digits[rows[:, 1]]
            out[:, 2 * d + 2] = np.where(rows[:, 2] < 0, ord("-"), 0)
            f.write(out[out != 0])


def read_instance(path) -> CbmInstance:
    """Parse an instance file.

    Format (UTF-8 text, ``#`` lines are comments):
    line 1 ``%cbm 1``; line 2 ``n m epsilon seed``; line 3 ``sigma``;
    line 4 the n signs; then m lines ``i j w`` with 0-based i < j and
    w in {-1, 1}.

    The file does not carry the generation target alpha, so the returned
    params hold the realized average degree 2m/n instead.
    """
    data = Path(path).read_bytes()
    parsed = _parse_plain(data)
    if parsed is None:  # decoded as Path.read_text does, universal newlines included
        parsed = _parse_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    del data  # freed before the instance copies the edges
    n, m, eps, seed, sigma, edges = parsed
    alpha = 2.0 * m / n if m else 0.5 / n  # params require alpha > 0
    try:
        params = CbmParams(n=n, alpha=alpha, epsilon=eps, seed=seed)
        return CbmInstance(params=params, sigma=sigma, edges=edges)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _parse_header(lines: list) -> tuple:
    """(n, m, epsilon, seed) from the comment-free, stripped lines of a file."""
    if not lines or lines[0] != FORMAT_HEADER:
        raise InstanceFormatError(f"bad header, expected {FORMAT_HEADER!r}")
    try:
        n_s, m_s, eps_s, seed_s = lines[1].split()
        n, m, eps, seed = int(n_s), int(m_s), float(eps_s), int(seed_s)
    except (IndexError, ValueError) as exc:
        raise InstanceFormatError(f"bad size line: {exc}") from exc
    if len(lines) < 4 or lines[2] != "sigma":
        raise InstanceFormatError("missing 'sigma' marker line")
    return n, m, eps, seed


def _parse_plain(data: bytes):
    """Vectorised parse of a file whose body holds only digits, '-', ' ' and newlines.

    Returns None whenever the file is anything else (comments, CRLF,
    non-ASCII bytes, '+' signs) or does not parse to the shapes its header
    states; ``_parse_lines`` then decides, so both paths accept the same
    files with the same contents and reject the rest with the same message.
    The sigma line parses into int8 and the edge block, read in place from
    ``data``, into ``index_dtype(n)``; numpy raises on a token that does not
    fit, so such files go to ``_parse_lines`` too.
    """
    ends = [0]  # where each of the first four lines starts, then where the edge block does
    for _ in range(4):
        k = data.find(b"\n", ends[-1])
        if k < 0:
            return None
        ends.append(k + 1)
    head = data[: ends[3]]
    sigma_line = data[ends[3] : ends[4] - 1]
    if (
        len(head.translate(None, _LINE_BREAKS)) != len(head)
        # every byte the sigma line and the edge block hold is plain
        or len(data.translate(None, _PLAIN_BODY)) != len(head.translate(None, _PLAIN_BODY))
        or not sigma_line.strip()  # loadtxt warns on an empty line
    ):
        return None
    try:
        n, m, eps, seed = _parse_header([data[a : b - 1].decode("ascii").strip() for a, b in zip(ends, ends[1:])])
        # str.splitlines() counts a last line without its newline, not an empty tail
        n_lines = data.count(b"\n", ends[4]) + (not data.endswith(b"\n"))
        if m == 0 or n_lines != m:  # loadtxt warns on an empty block
            return None
        sigma = np.loadtxt(io.BytesIO(sigma_line), dtype=np.int8, comments=None, ndmin=1)
        edges = np.loadtxt(io.BytesIO(data), dtype=index_dtype(n), comments=None, skiprows=4, max_rows=m, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if sigma.shape != (n,) or edges.shape != (m, 3):
        return None
    return n, m, eps, seed, sigma, edges


def _parse_lines(text: str) -> tuple:
    """Line-by-line parse of any file; the reference for ``_parse_plain``."""
    lines = [ln.strip() for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    n, m, eps, seed = _parse_header(lines)
    try:
        sigma = np.array([int(t) for t in lines[3].split()], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"bad sigma line: {exc}") from exc
    if sigma.size != n:
        raise InstanceFormatError(f"expected {n} sigma entries, got {sigma.size}")
    edge_lines = lines[4:]
    if len(edge_lines) != m:
        raise InstanceFormatError(f"expected {m} edge lines, got {len(edge_lines)}")
    edges = np.empty((m, 3), dtype=np.int64)
    for k, ln in enumerate(edge_lines):
        toks = ln.split()
        if len(toks) != 3:
            raise InstanceFormatError(f"bad edge line {k}: {ln!r}")
        try:
            edges[k] = [int(t) for t in toks]
        except (ValueError, OverflowError) as exc:
            raise InstanceFormatError(f"bad edge line {k}: {exc}") from exc
    return n, m, eps, seed, sigma, edges
