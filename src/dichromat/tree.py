"""Full binary trees, two-colorings, and dichromatic-edge counting.

A full binary tree of depth ``m`` has ``2**(m+1) - 1`` nodes and ``2**m``
leaves, all leaves at depth ``m``.  Nodes are addressed by heap index: the
root is 1, the children of node ``i`` are ``2*i`` and ``2*i + 1``, and the
leaves are the indices ``2**m .. 2**(m+1) - 1``.  The root has degree 2,
every other internal node degree 3, every leaf degree 1.

Colors are bits: 1 is black, 0 is white.  An edge is dichromatic when its
endpoints carry different colors.

An edge is named by its child end ``c``: its parent is always ``c // 2``,
so an `EdgeSet` is one ascending array of child ends.  `max_matching`
picks the most vertex-disjoint edges out of such a set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InvalidParameterError

BLACK = 1
WHITE = 0

# 2**25 - 1 nodes is already a 33 MB coloring; refuse bigger trees unless
# the caller raises the cap explicitly.
DEFAULT_TREE_CAP = 24


@dataclass(frozen=True)
class TreeShape:
    """Shape of a full binary tree of depth ``m``.

    Attributes
    ----------
    m:
        Depth; every leaf sits at this depth.
    node_count:
        ``2**(m+1) - 1``.
    leaf_count:
        ``2**m``.
    """

    m: int
    node_count: int
    leaf_count: int

    @property
    def first_leaf(self) -> int:
        return self.leaf_count

    def is_leaf(self, node: int) -> bool:
        self._check_node(node)
        return node >= self.leaf_count

    def parent(self, node: int) -> int | None:
        self._check_node(node)
        return None if node == 1 else node // 2

    def children(self, node: int) -> tuple[int, ...]:
        if self.is_leaf(node):
            return ()
        return (2 * node, 2 * node + 1)

    def degree(self, node: int) -> int:
        self._check_node(node)
        if node == 1:
            return 2
        return 1 if self.is_leaf(node) else 3

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield (parent, child) pairs ordered by child index."""
        for child in range(2, self.node_count + 1):
            yield child // 2, child

    def _check_node(self, node: int) -> None:
        if not 1 <= node <= self.node_count:
            raise InvalidParameterError(
                f"node {node} out of range 1..{self.node_count}"
            )


def is_int(value) -> bool:
    """An int and no bool: a bool would read as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_depth(m: int) -> None:
    """Refuse a depth that is not an integer >= 1; a bool is no depth."""
    if not is_int(m) or m < 1:
        raise InvalidParameterError(f"depth m must be an integer >= 1, got {m!r}")


def build_tree(m: int, cap: int = DEFAULT_TREE_CAP) -> TreeShape:
    """Return the `TreeShape` of depth ``m`` (1 <= m <= cap)."""
    check_depth(m)
    if m > cap:
        raise CapacityError(f"depth m={m} exceeds the cap {cap}")
    return TreeShape(m=m, node_count=2 ** (m + 1) - 1, leaf_count=2 ** m)


def neighbors(tree: TreeShape, node: int) -> list[int]:
    """Neighbors of ``node`` in increasing index order (parent first)."""
    tree._check_node(node)
    out = []
    if node != 1:
        out.append(node // 2)
    out.extend(tree.children(node))
    return out


@dataclass(frozen=True)
class Coloring:
    """An immutable 2-coloring of a tree.

    ``bits[i - 1]`` is the color of node ``i`` (1 black, 0 white).  The bit
    vector compares lexicographically exactly as ``tuple(bits)`` does, which
    is the tie-break order used by witness constructions.
    """

    tree: TreeShape
    bits: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.shape != (self.tree.node_count,):
            raise InvalidParameterError(
                f"expected {self.tree.node_count} bits, got shape {arr.shape}"
            )
        if arr.max(initial=0) > 1:
            raise InvalidParameterError("colors must be 0 (white) or 1 (black)")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    def color(self, node: int) -> int:
        self.tree._check_node(node)
        return int(self.bits[node - 1])

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.bits)

    def black_nodes(self) -> list[int]:
        return (np.flatnonzero(self.bits) + 1).tolist()


def coloring_from_bits(tree: TreeShape, bits: Sequence[int]) -> Coloring:
    return Coloring(tree=tree, bits=np.asarray(bits, dtype=np.uint8))


def coloring_from_black_set(tree: TreeShape, black: Iterable[int]) -> Coloring:
    arr = np.zeros(tree.node_count, dtype=np.uint8)
    for node in black:
        tree._check_node(node)
        arr[node - 1] = BLACK
    return Coloring(tree=tree, bits=arr)


def all_white(tree: TreeShape) -> Coloring:
    return Coloring(tree, np.zeros(tree.node_count, dtype=np.uint8))


def all_black(tree: TreeShape) -> Coloring:
    return Coloring(tree, np.ones(tree.node_count, dtype=np.uint8))


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """A set of tree edges named by their child ends, ascending.

    Iterating yields ``(parent, child)`` pairs of Python ints.
    """

    children: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.children, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidParameterError(f"expected a 1-D child array, got shape {arr.shape}")
        arr = np.sort(arr)
        if arr.size and arr[0] < 2:
            raise InvalidParameterError(f"node {arr[0]} is no edge's child end")
        arr.flags.writeable = False
        object.__setattr__(self, "children", arr)

    def __len__(self) -> int:
        return self.children.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((c // 2, c) for c in self.children.tolist())

    def __contains__(self, edge: tuple[int, int]) -> bool:
        parent, child = edge
        i = int(np.searchsorted(self.children, child))
        return bool(parent == child // 2 and i < len(self) and self.children[i] == child)


def dichromatic_children(coloring: Coloring) -> np.ndarray:
    """Child ends of the dichromatic edges, ascending."""
    bits = coloring.bits
    children = np.arange(2, coloring.tree.node_count + 1)
    return children[bits[children - 1] != bits[children // 2 - 1]]


def count_dichromatic(coloring: Coloring) -> tuple[int, EdgeSet]:
    """Count dichromatic edges and return them ordered by child index."""
    edges = EdgeSet(dichromatic_children(coloring))
    return len(edges), edges


def max_matching(tree: TreeShape, allowed: EdgeSet) -> EdgeSet:
    """A maximum set of vertex-disjoint edges among ``allowed``.

    Greedy from the deepest level up: a free node whose children are all
    settled loses nothing by taking the edge to its parent, so the result
    is maximum.  Within a level the left children go first.
    """
    ok = np.zeros(tree.node_count + 1, dtype=bool)
    ok[allowed.children] = True
    free = np.ones(tree.node_count + 1, dtype=bool)
    chosen = []
    for depth in range(tree.m, 0, -1):
        for first in (2**depth, 2**depth + 1):
            child = np.arange(first, 2 ** (depth + 1), 2)
            child = child[ok[child] & free[child] & free[child // 2]]
            free[child] = free[child // 2] = False
            chosen.append(child)
    return EdgeSet(np.concatenate(chosen))


def black_counts(coloring: Coloring) -> tuple[int, int]:
    """Return (black node count, black leaf count)."""
    b = int(coloring.bits.sum())
    t = int(coloring.bits[coloring.tree.first_leaf - 1 :].sum())
    return b, t
