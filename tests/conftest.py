"""Shared helpers: independent brute-force routes the real code is tested
against.  Nothing here may import from dichromat.dp or
dichromat.sweepout."""

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


def witness_loop(tables, kind: str, m: int, index: int) -> np.ndarray:
    """Witness bits rebuilt from per-depth profile tables (index 0 = root)
    one node at a time: white before black for the left child, then the
    right child, then the smallest left budget.  ``kind`` is "node" or
    "leaf"."""
    white, black = 0, 1
    bits = np.zeros(2 ** (m + 1) - 1, dtype=np.uint8)
    target = min(tables[0][white][index], tables[0][black][index])
    color = white if tables[0][white][index] == target else black
    stack = [(1, 0, color, index)]
    while stack:
        node, depth, color, budget = stack.pop()
        bits[node - 1] = color
        if depth == m:
            continue
        child = tables[depth + 1]
        width = child.shape[1]
        need = tables[depth][color][budget]
        rem = budget - color if kind == "node" else budget
        attach = [child[cc] + (cc != color) for cc in (white, black)]
        lo, hi = max(0, rem - (width - 1)), min(width - 1, rem)
        split = None
        for c1 in (white, black):
            for c2 in (white, black):
                if split is None and lo <= hi:
                    left = attach[c1][lo : hi + 1]
                    total = left + attach[c2][rem - hi : rem - lo + 1][::-1]
                    pos = int(np.argmin(total))
                    if total[pos] == need:
                        split = (c1, c2, lo + pos)
        assert split is not None, "witness split not found"
        c1, c2, b1 = split
        stack.append((2 * node + 1, depth + 1, c2, rem - b1))
        stack.append((2 * node, depth + 1, c1, b1))
    return bits


def capacities_of(graph) -> np.ndarray:
    """Float capacities in trace column order, straight from the volumes."""
    caps = [float(v) for v in graph.node_volumes] + [float(v) for v in graph.edge_volumes]
    return np.asarray(caps, dtype=np.float64)


def validate_trace_dense(trace, rel_tol: float = 1e-9) -> tuple[bool, str, int | None]:
    """(ok, message, step) of a trace check on whole-table temporaries:
    every check runs over the full table and the lowest step wins, ties
    going to the earlier check in the order below."""
    steps = trace.steps
    caps = capacities_of(trace.graph)
    entries = 2 * trace.graph.tree.node_count - 1
    if steps.ndim != 2 or steps.shape[1] != entries or steps.shape[0] < 2:
        return False, f"expected shape (>=2, {entries}), got {steps.shape}", None
    tol = rel_tol * max(1.0, float(caps.max()))

    violations: list[tuple[int, str]] = []
    if np.abs(steps[0]).max() > tol:
        violations.append((0, "first step is not the empty vector"))
    out_of_range = (steps < -tol) | (steps > caps[None, :] + tol)
    if out_of_range.any():
        step = int(np.flatnonzero(out_of_range.any(axis=1))[0])
        violations.append((step, "entry outside [0, capacity]"))
    jumps = np.abs(np.diff(steps, axis=0)).max(axis=1)
    too_big = np.flatnonzero(jumps > trace.step_bound + tol)
    if too_big.size:
        step = int(too_big[0]) + 1
        violations.append((step, f"step exceeds bound {trace.step_bound}"))
    if np.abs(steps[-1] - caps).max() > tol:
        violations.append((steps.shape[0] - 1, "last step is not the full vector"))

    if not violations:
        return True, "ok", None
    step, message = min(violations, key=lambda v: v[0])
    return False, message, step


def max_matching_stack(tree, allowed) -> tuple[int, list[tuple[int, int]]]:
    """Maximum matching on ``allowed`` (parent, child) edges: the bottom-up
    tree DP, then a node-by-node stack walk from the root that leaves a
    node unmatched on ties and tries the left child first."""
    n = tree.node_count
    f0 = np.zeros(n + 1)
    f1 = np.full(n + 1, -np.inf)
    allowed_mask = np.zeros(n + 1, dtype=bool)
    for _, child in allowed:
        allowed_mask[child] = True

    for depth in range(tree.m - 1, -1, -1):
        v = np.arange(2 ** depth, 2 ** (depth + 1))
        left, right = 2 * v, 2 * v + 1
        best_l = np.maximum(f0[left], f1[left])
        best_r = np.maximum(f0[right], f1[right])
        f0[v] = best_l + best_r
        gain_l = np.where(allowed_mask[left], 1 + f0[left] - best_l, -np.inf)
        gain_r = np.where(allowed_mask[right], 1 + f0[right] - best_r, -np.inf)
        f1[v] = f0[v] + np.maximum(gain_l, gain_r)

    chosen: list[tuple[int, int]] = []
    stack: list[tuple[int, bool]] = [(1, True)]
    while stack:
        node, available = stack.pop()
        if node >= tree.first_leaf:
            continue
        children = (2 * node, 2 * node + 1)
        matched_child = None
        if available and f1[node] > f0[node]:
            base = sum(max(f0[u], f1[u]) for u in children)
            for u in children:
                if allowed_mask[u] and base + 1 + f0[u] - max(f0[u], f1[u]) == f1[node]:
                    matched_child = u
                    break
            assert matched_child is not None
            chosen.append((node, matched_child))
        for u in children:
            stack.append((u, u != matched_child))
    return len(chosen), sorted(chosen, key=lambda e: e[1])


def trace_csv_cells(trace) -> str:
    """The trace CSV written one cell at a time."""
    n = trace.graph.tree.node_count
    ids = [f"node:{i}" for i in range(1, n + 1)] + [f"tube:{c}" for c in range(2, n + 1)]
    out = ["step,entry,volume\n"]
    for s in range(trace.steps.shape[0]):
        row = trace.steps[s]
        for e, ident in enumerate(ids):
            out.append(f"{s},{ident},{row[e].item()!r}\n")
    return "".join(out)


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
