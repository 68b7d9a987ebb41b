"""Closed-form bounds and their verification against the exact solvers.

The central sequence ``a_of_m`` marks the black-leaf count at which the
leaf profile is forced up to ``ceil(m/2)``; `verify` replays each claimed
inequality with values computed by :mod:`dichromat.dp` and reports the
margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dp import feasible_pairs, leaf_profile, node_profile, pairs_depth_limit
from .errors import InvalidParameterError
from .tree import check_depth, is_int

VERIFY_KINDS = ("lemma22", "thm27", "lipschitz_node", "lipschitz_leaf", "cor25")
_BOUNDED_BELOW = ("thm27", "cor25")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def a_of_m(m: int) -> int:
    """1, 1, 3, 5, 11, 21, ...: 1 plus every second power of two below m-1.

    Odd m sums 2**1, 2**3, ... up to 2**(m-2); even m sums 2**2, 2**4, ...
    up to 2**(m-2).  Satisfies a(m) - 1 == 2 * (a(m-1) - (m % 2 == 0)) for
    m >= 3, and 1 <= a(m) <= 2**m.
    """
    check_depth(m)
    return (2**m - (-1) ** m) // 3


def theorem_leaf_bound(m: int) -> int:
    """ceil(m/2): the guaranteed dichromatic count at exactly a(m) black leaves."""
    check_depth(m)
    return (m + 1) // 2


def lemma_cardinality_bound(m: int, d: int) -> int:
    """2**d * m**d, exact.  Python integers cannot overflow, so no
    saturation is ever needed.  A bool is no count."""
    if not all(is_int(x) and x >= 0 for x in (m, d)):
        raise InvalidParameterError(f"m and d must be integers >= 0, got {m!r}, {d!r}")
    return (2 ** d) * (m ** d)


def lemma22_depth(m: int) -> int:
    """D*(m): the smallest d with 2**d * m**d >= 2**(m+1) - 1, the node count."""
    check_depth(m)
    nodes, d = 2 ** (m + 1) - 1, 0
    while lemma_cardinality_bound(m, d) < nodes:
        d += 1
    return d


def best_black_count(m: int, cap: int | None = None) -> tuple[int, int]:
    """(b*, d*): the smallest black-node count maximizing the node profile,
    and that maximal minimum dichromatic count."""
    return node_profile(m, cap=cap).max_entry()


def disjoint_pairs_guarantee(k: int, b: int, b_m: int) -> int:
    """max(0, ceil((k - |b - b_m|) / 5)) vertex-disjoint dichromatic pairs.

    Each dichromatic edge meets at most four others (max degree 3), hence
    the division by five.
    """
    if not all(map(is_int, (k, b, b_m))) or k < 0:
        raise InvalidParameterError("k, b, b_m must be integers with k >= 0")
    return max(0, _ceil_div(k - abs(b - b_m), 5))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of replaying one claimed inequality.

    ``holds`` compares ``computed_value`` against ``paper_bound`` in the
    direction stated by ``quantity``; both numbers are reported so a
    failure is diagnosable from the record alone.
    """

    m: int
    quantity: str
    paper_bound: float
    computed_value: float
    holds: bool


def verify(m: int, which: str, cap: int | None = None) -> BoundReport:
    """Replay one bound for depth ``m`` and report whether it holds.

    which:
      - ``lemma22``: every achievable-set cardinality is at most
        2**d * m**d; reports the worst ratio (bound 1.0).  Only
        d <= D* (`lemma22_depth`) is computed: B_m(d) never holds more
        black counts than T_m has nodes, and from D* on the bound is at
        least the node count, so no larger d has a ratio above 1.  d = 0
        (all black) has ratio exactly 1, so the worst ratio is the same.
      - ``thm27``: leaf profile at a(m) reaches at least ceil(m/2).
      - ``lipschitz_node`` / ``lipschitz_leaf``: adjacent profile steps
        move by at most 1, which is equivalent to the two-point form by
        the triangle inequality.
      - ``cor25``: the node profile dominates d* - |b - b*| everywhere;
        reports the minimum margin (bound 0).

    Each kind sets its quantity, bound and value, and one report is built
    from them: ``thm27`` and ``cor25`` hold when the value reaches the
    bound, the other kinds when it stays at or below it.
    """
    if which not in VERIFY_KINDS:
        raise InvalidParameterError(f"unknown verification {which!r}")

    if which == "lemma22":
        pairs_depth_limit(m, cap)  # refuses an oversized m before 2**(m+1) is formed
        sizes = feasible_pairs(m, lemma22_depth(m), cap)[:, 1:].sum(axis=1).tolist()
        quantity = "max cardinality ratio |B_m(d)| / (2^d m^d)"
        bound = 1.0
        value = max(size / lemma_cardinality_bound(m, d) for d, size in enumerate(sizes))
    elif which == "thm27":
        value = leaf_profile(m, cap=cap)[a_of_m(m)]
        quantity = "leaf profile at a(m) vs ceil(m/2)"
        bound = theorem_leaf_bound(m)
    elif which == "cor25":
        profile = node_profile(m, cap=cap)
        b_star, d_star = profile.max_entry()
        b_values = np.arange(profile.index_range.start, profile.index_range.stop)
        quantity = "min margin of d'_m(b) over d* - |b - b*|"
        bound = 0
        value = int((profile.min_d - (d_star - np.abs(b_values - b_star))).min())
    else:
        profile = (node_profile if which == "lipschitz_node" else leaf_profile)(
            m, cap=cap
        )
        steps = np.abs(np.diff(profile.min_d))
        quantity = f"max adjacent step of the {profile.kind} profile"
        bound = 1
        value = int(steps.max()) if steps.size else 0
    holds = value >= bound if which in _BOUNDED_BELOW else value <= bound
    return BoundReport(m, quantity, bound, value, holds)
