"""Shared helpers: independent brute-force routes the real code is tested
against.  Nothing here may import from dichromat.dp's internals."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from dichromat import BlockParams, Coloring, coloring_from_bits


def brute_max_matching(edges: list[tuple[int, int]]) -> int:
    """Pick-or-skip recursion over the edge list; exponential but exact."""

    def go(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        p, c = edges[i]
        best = go(i + 1, used)
        if p not in used and c not in used:
            best = max(best, 1 + go(i + 1, used | {p, c}))
        return best

    return go(0, frozenset())


def minplus_self_loop(e: np.ndarray) -> np.ndarray:
    """Min-plus convolution of a vector with itself by the O(p**2) pair
    loop; inf marks unreachable."""
    p = e.size
    out = np.full(2 * p - 1, np.inf)
    for i in np.flatnonzero(np.isfinite(e)):
        seg = out[i : i + p]
        np.minimum(seg, e[int(i)] + e, out=seg)
    return out


def convolve2d_bigint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact 2-D convolution of small nonnegative integer arrays.

    Rows are padded to the output width and each array is packed into one
    Python integer, 64 bits per coefficient; one big-integer multiply then
    performs the whole convolution.  Exact while every output coefficient
    stays below 2**64.
    """
    rows_a, cols_a = a.shape
    rows_b, cols_b = b.shape
    out_cols = cols_a + cols_b - 1
    out_rows = rows_a + rows_b - 1

    def pack(x: np.ndarray, rows: int) -> int:
        padded = np.zeros((rows, out_cols), dtype="<u8")
        padded[:, : x.shape[1]] = x
        return int.from_bytes(padded.tobytes(), "little")

    prod = pack(a, rows_a) * pack(b, rows_b)
    buf = prod.to_bytes(out_rows * out_cols * 8, "little")
    return np.frombuffer(buf, dtype="<u8").reshape(out_rows, out_cols)


def feasible_pairs_bigint(m: int) -> np.ndarray:
    """Boolean table F[b, d] of T_m (some coloring has b black nodes and d
    dichromatic edges), merged level by level with `convolve2d_bigint`."""
    white, black = 0, 1
    current = [np.zeros((2, 1), dtype=np.uint64) for _ in (white, black)]
    current[white][0, 0] = 1
    current[black][1, 0] = 1
    b_width = 2
    for _ in range(m):
        d_width = current[0].shape[1]
        nxt = []
        for c in (white, black):
            ext = np.zeros((b_width, d_width + 1), dtype=np.uint64)
            ext |= np.pad(current[c], ((0, 0), (0, 1)))
            ext[:, 1:] |= current[1 - c]
            conv = convolve2d_bigint(ext, ext)
            tab = np.zeros((2 * b_width, conv.shape[1]), dtype=np.uint64)
            tab[c : c + conv.shape[0]] = conv > 0
            nxt.append(tab)
        current = nxt
        b_width *= 2
    return (current[white] | current[black]) > 0


def random_coloring(tree, rng: np.random.Generator) -> Coloring:
    bits = rng.integers(0, 2, size=tree.node_count)
    return coloring_from_bits(tree, bits.tolist())


def random_rational_params(rng: np.random.Generator) -> BlockParams:
    """Valid rational parameter set; rejection-samples until invariants hold."""
    while True:
        v0 = Fraction(int(rng.integers(40, 400)), int(rng.integers(1, 4)))
        mu = v0 / int(rng.integers(4, 40))
        tau = mu * Fraction(int(rng.integers(11, 40)), 10)
        alpha = (v0 - 3 * mu) / int(rng.integers(3, 12))
        if 3 * mu < v0 and 0 < 2 * alpha < v0 - 3 * mu and tau > mu:
            return BlockParams(V0=v0, mu=mu, tau=tau, alpha=alpha)


@pytest.fixture
def default_params() -> BlockParams:
    return BlockParams.default()
