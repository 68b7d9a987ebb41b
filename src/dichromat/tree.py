"""Full binary trees, two-colorings, and dichromatic-edge counting.

A full binary tree of depth ``m`` has ``2**(m+1) - 1`` nodes and ``2**m``
leaves, all leaves at depth ``m``.  Nodes are addressed by heap index: the
root is 1, the children of node ``i`` are ``2*i`` and ``2*i + 1``, and the
leaves are the indices ``2**m .. 2**(m+1) - 1``.  The root has degree 2,
every other internal node degree 3, every leaf degree 1.

Colors are bits: 1 is black, 0 is white.  An edge is dichromatic when its
endpoints carry different colors.
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


def build_tree(m: int, cap: int = DEFAULT_TREE_CAP) -> TreeShape:
    """Return the `TreeShape` of depth ``m`` (1 <= m <= cap)."""
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError(f"depth m must be an integer >= 1, got {m!r}")
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
        return [int(i) + 1 for i in np.flatnonzero(self.bits)]


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


@dataclass(frozen=True)
class EdgeSet:
    """A set of tree edges as (parent, child) pairs, sorted by child."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple(sorted((int(p), int(c)) for p, c in self.edges))
        )
        for p, c in self.edges:
            if p != c // 2:
                raise InvalidParameterError(f"({p}, {c}) is not a heap edge")

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return tuple(edge) in self.edges


def dichromatic_children(coloring: Coloring) -> np.ndarray:
    """Child ends of the dichromatic edges, ascending."""
    bits = coloring.bits
    children = np.arange(2, coloring.tree.node_count + 1)
    return children[bits[children - 1] != bits[children // 2 - 1]]


def count_dichromatic(coloring: Coloring) -> tuple[int, EdgeSet]:
    """Count dichromatic edges and return them ordered by child index."""
    hit = dichromatic_children(coloring).tolist()
    return len(hit), EdgeSet(tuple((c // 2, c) for c in hit))


def black_counts(coloring: Coloring) -> tuple[int, int]:
    """Return (black node count, black leaf count)."""
    b = int(coloring.bits.sum())
    t = int(coloring.bits[coloring.tree.first_leaf - 1 :].sum())
    return b, t
