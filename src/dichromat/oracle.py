"""Brute-force reference enumeration for small trees.

This module is the ground truth the exact solvers are tested against.
It never shares merge logic with :mod:`dichromat.dp`: full enumeration
walks all ``2**n`` colorings, and the depth-4 leaf-constrained search
exhausts internal colors per leaf pattern bottom-up.

Witnesses are the lexicographically smallest optimal bit vectors, where
bit vectors compare node 1 first.  Enumeration encodes node ``i`` at bit
position ``n - i`` so that integer order coincides with that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .tree import (
    BLACK, WHITE, Coloring, TreeShape, build_tree, check_depth, coloring_from_bits, is_int
)

FULL_ENUMERATION_CAP = 3
LEAF_CONSTRAINED_CAP = 4


@dataclass(frozen=True)
class FullProfile:
    """Everything the exhaustive sweep of one tree yields.

    ``achievable`` holds every (black count, dichromatic count) pair over
    all ``2**node_count`` colorings, including the all-white pair (0, 0).
    ``bset(d)`` applies the ``b >= 1`` convention used by the achievable
    sets, so ``bset(0)`` is ``(node_count,)`` alone.
    """

    m: int
    achievable: frozenset[tuple[int, int]]
    min_d_by_b: dict[int, int]
    min_d_by_t: dict[int, int]
    witness_by_b: dict[int, Coloring]
    witness_by_t: dict[int, Coloring]

    def bset(self, d: int) -> tuple[int, ...]:
        return tuple(sorted(b for (b, dd) in self.achievable if dd == d and b >= 1))


def _bit_matrix(m: int) -> tuple[TreeShape, np.ndarray]:
    tree = build_tree(m)
    n = tree.node_count
    codes = np.arange(2 ** n, dtype=np.int64)
    # column i-1 is node i; node 1 occupies the most significant position
    shifts = np.array([n - i for i in range(1, n + 1)], dtype=np.int64)
    bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return tree, bits


def enumerate_full(m: int, cap: int = FULL_ENUMERATION_CAP) -> FullProfile:
    """Exhaustively enumerate all colorings of the depth-``m`` tree.

    Raises `CapacityError` above the cap (default 3); larger trees are the
    job of the exact solvers in :mod:`dichromat.dp`.
    """
    check_depth(m)
    if m > cap:
        raise CapacityError(
            f"full enumeration is capped at m={cap}; use dichromat.dp for m={m}"
        )
    tree, bits = _bit_matrix(m)
    n = tree.node_count

    children = np.arange(2, n + 1)
    d = (bits[:, children - 1] != bits[:, children // 2 - 1]).sum(axis=1)
    b = bits.sum(axis=1)
    t = bits[:, tree.first_leaf - 1 :].sum(axis=1)

    achievable = frozenset(zip(b.tolist(), d.tolist()))

    min_d_by_b: dict[int, int] = {}
    min_d_by_t: dict[int, int] = {}
    witness_by_b: dict[int, Coloring] = {}
    witness_by_t: dict[int, Coloring] = {}
    for counts, values, min_d, witness in (
        (b, range(1, n + 1), min_d_by_b, witness_by_b),
        (t, range(tree.leaf_count + 1), min_d_by_t, witness_by_t),
    ):
        for value in values:
            mask = counts == value
            dm = d[mask]
            min_d[value] = best = int(dm.min())
            # enumeration order is lexicographic, so the first optimum wins
            row = int(np.flatnonzero(mask)[np.argmax(dm == best)])
            witness[value] = coloring_from_bits(tree, bits[row])

    return FullProfile(
        m=m,
        achievable=achievable,
        min_d_by_b=min_d_by_b,
        min_d_by_t=min_d_by_t,
        witness_by_b=witness_by_b,
        witness_by_t=witness_by_t,
    )


def _leaf_pattern_cost(tree: TreeShape, leaf_bits: dict[int, int]) -> list[list[int]]:
    """Bottom-up exhaustion of internal colors for one fixed leaf pattern.

    Returns ``cost[v][c]``: the minimum number of dichromatic edges inside
    the subtree of internal node ``v`` when ``v`` has color ``c``, leaves
    pinned to ``leaf_bits``.  Indexed ``1..first_leaf-1``; slot 0 unused.
    """
    first_leaf = tree.first_leaf
    cost = [[0, 0] for _ in range(first_leaf)]
    for v in range(first_leaf - 1, 0, -1):
        for c in (WHITE, BLACK):
            total = 0
            for u in (2 * v, 2 * v + 1):
                if u >= first_leaf:
                    total += int(leaf_bits[u] != c)
                else:
                    total += min(cost[u][0] + (c != 0), cost[u][1] + (c != 1))
            cost[v][c] = total
    return cost


def _lex_min_internals(tree: TreeShape, cost: list[list[int]]) -> list[int]:
    """Greedy top-down reconstruction preferring white at every tie.

    Subtrees are independent given the parent color, so fixing nodes in
    index order with a white-first tie-break yields the lexicographically
    smallest optimal internal assignment for this leaf pattern.
    """
    first_leaf = tree.first_leaf
    colors = [0] * first_leaf
    colors[1] = WHITE if cost[1][WHITE] <= cost[1][BLACK] else BLACK
    for v in range(2, first_leaf):
        pc = colors[v // 2]
        white_total = cost[v][WHITE] + (WHITE != pc)
        black_total = cost[v][BLACK] + (BLACK != pc)
        colors[v] = WHITE if white_total <= black_total else BLACK
    return colors


def enumerate_leaf_constrained(
    m: int, t: int, cap: int = LEAF_CONSTRAINED_CAP
) -> tuple[int, Coloring]:
    """Minimum dichromatic edges over colorings with exactly ``t`` black leaves.

    Up to depth 3 this filters the full enumeration.  At depth 4 it walks
    every leaf pattern and exhausts internal colors per pattern, which
    keeps the reference independent of the count-indexed DP merges.
    """
    check_depth(m)
    if m > cap:
        raise CapacityError(
            f"leaf-constrained enumeration is capped at m={cap}; "
            f"use dichromat.dp.leaf_profile for m={m}"
        )
    leaf_count = 2 ** m
    if not is_int(t) or not 0 <= t <= leaf_count:
        raise InvalidParameterError(f"t must lie in 0..{leaf_count}, got {t!r}")

    if m <= FULL_ENUMERATION_CAP:
        profile = enumerate_full(m)
        return profile.min_d_by_t[t], profile.witness_by_t[t]

    tree = build_tree(m)
    first_leaf = tree.first_leaf
    leaves = range(first_leaf, tree.node_count + 1)

    best_d: int | None = None
    optimal: list[tuple[tuple[int, ...], list[list[int]]]] = []
    for pattern in combinations(leaves, t):
        black = set(pattern)
        leaf_bits = {u: (BLACK if u in black else WHITE) for u in leaves}
        cost = _leaf_pattern_cost(tree, leaf_bits)
        d = min(cost[1])
        if best_d is None or d < best_d:
            best_d, optimal = d, [(pattern, cost)]
        elif d == best_d:
            optimal.append((pattern, cost))

    assert best_d is not None
    candidates = []
    for pattern, cost in optimal:
        internals = _lex_min_internals(tree, cost)
        black = set(pattern)
        bits = tuple(internals[1:]) + tuple(
            BLACK if u in black else WHITE for u in leaves
        )
        candidates.append(bits)
    witness = coloring_from_bits(tree, min(candidates))
    return best_d, witness
