"""Exact solvers over full binary trees.

All subtrees rooted at the same depth are isomorphic, so every table here
is built once per depth instead of once per node.  A count v is black
nodes (node profile, achievable sets) or black leaves (leaf profile).
Swapping every color keeps the dichromatic count and maps v to size - v,
so a black-root row or table is read as the mirror of the white-root one.

Profiles.  Each depth's white-root row is built from the row its two
children share by the minimum of four terms, one per way an optimal
coloring splits between the children: one child takes the count and the
other is all white, or one is all black and the other takes the rest,
the child that takes it being white or black (`_profile_tables`).  That
is a few vector operations over the row per depth.  Its proof also shows
that the least dichromatic count at v is exactly the fewest signed
proper-subtree sizes summing to v: each dichromatic edge of a white-root
coloring adds or takes away the size of the subtree under it.  The rows
hold small whole numbers, exact in float64; unreachable values are
``numpy.inf``, never a large integer that arithmetic could overflow into
a real count.

Achievable sets.  In the band m >= 3, ceil(m/2) + 1 <= d <= 2**m, a row
B_m(d) is the interval [ceil(d/3), N - ceil(d/3)], N the node count;
`achievable_set` proves it and answers those rows with no table.  Rows
outside the band, and `feasible_pairs`, read the table.  The boolean
table F[d, b] climbs with one level merge,
`_merge_level`: extend the white-root child table with its mirror shifted
down one d row, then take the support of its 2-D self-convolution, cut at
``max_d``: merging only adds dichromatic edges, so rows past it never
feed rows at or below it.  A real FFT runs along the wide count axis,
zero padded to the next power of two, and the output rows come out
one at a time, in order, each summed over each unordered pair of input
rows once.  Before it is thresholded, every row must lie within 0.25 of
an integer vector, or `DichromatError` is raised.

`witness` climbs the per-depth profile rows again, since a profile keeps
only its answer, and walks them back down one level at a time.  A
node's choice of child colors and budget split depends only on its
depth, color and budget, so each level solves it once per distinct
(color, budget) state, from a (states x left budget) table of candidate
costs, and every node reads the choice of its state.

Caps keep accidental exponential-memory requests out: profiles default to
depth 18, and achievable-set tables to `PAIRS_CELLS_CAP` cells:
`pairs_depth_limit` is the one place that turns the cell cap into a
depth, before anything of size 2**m is formed.  Pass ``cap=`` explicitly (or
set ``DICHROMAT_MAX_M`` when going through the CLI) to move the profile
cap, up to the tree cap `DEFAULT_TREE_CAP` and no further, or to lower
the depth allowed for achievable sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np

from .errors import CapacityError, DichromatError, InvalidParameterError
from .tree import (
    BLACK,
    DEFAULT_TREE_CAP,
    WHITE,
    Coloring,
    EdgeSet,
    black_counts,
    build_tree,
    check_depth,
    coloring_from_bits,
    count_dichromatic,
    is_int,
    max_matching,
)

DEFAULT_PROFILE_CAP = 18

# Largest F[d, b] table `_feasible_pairs` may build, in cells.  A
# one-row table costs the most per cell (the spectrum row and the
# inverse-transform buffers span the whole b axis); the largest legal one,
# `bset -m 22 -d 0`, peaks at 375 MB resident (numpy 2.4, x86-64 Linux).
PAIRS_CELLS_CAP = 3 << 22

NODE = "node"
LEAF = "leaf"


@dataclass(frozen=True, eq=False)
class DpProfile:
    """Minimal dichromatic-edge counts at every count value.

    ``min_d[i]`` is the optimum for ``index_range[i]``: black node counts
    ``1..2**(m+1)-1`` for the node kind, black leaf counts ``0..2**m`` for
    the leaf kind.  The profile keeps only this answer; `witness` climbs
    the per-depth rows again (`_profile_tables`) to rebuild a coloring.
    """

    m: int
    kind: str
    index_range: range
    min_d: np.ndarray = field(repr=False)

    def __getitem__(self, index: int) -> int:
        if not is_int(index):
            raise InvalidParameterError(
                f"index must be an integer, got {type(index).__name__}"
            )
        if index not in self.index_range:
            shown = index if abs(index) < 10**20 else f"of {len(str(abs(index)))} digits"
            raise InvalidParameterError(
                f"index {shown} outside {self.index_range} for kind={self.kind}"
            )
        return int(self.min_d[index - self.index_range.start])

    def items(self) -> list[tuple[int, int]]:
        return [(i, int(v)) for i, v in zip(self.index_range, self.min_d)]

    def max_entry(self) -> tuple[int, int]:
        """Smallest index attaining the maximum value, with that value."""
        pos = int(np.argmax(self.min_d))
        return self.index_range.start + pos, int(self.min_d[pos])


def _check_depth(m: int, cap: int | None, default_cap: int | None, what: str) -> None:
    check_depth(m)
    effective = default_cap if cap is None else cap
    if effective is not None and m > effective:
        raise CapacityError(f"{what} is capped at m={effective}, got m={m}")


def _self_convolve_rows(x: np.ndarray) -> Iterator[np.ndarray]:
    """Rows of the support of the 2-D self-convolution of a 0/1 array, in
    order: an (r, c) input gives 2r-1 boolean rows of 2c-1 columns.  Each
    row is computed when asked for, so a caller that has what it needs
    stops paying; the loop runs over output rows, so wide inputs are
    cheap."""
    rows, cols = x.shape
    width = 2 * cols - 1
    n = 1 << (width - 1).bit_length()  # a power of two covering width
    spectra = np.fft.rfft(x, n=n, axis=1)
    acc = np.empty(n // 2 + 1, dtype=complex)
    frac = np.empty(n)
    for r in range(2 * rows - 1):
        # rows i and r - i pair up both ways; every term is nonnegative,
        # so the pairs with i < r - i and the square of row r/2 give the
        # same support at half the products
        lo, top = max(0, r - rows + 1), (r - 1) // 2
        pairs = spectra[lo : top + 1], spectra[r - top : r - lo + 1][::-1]
        np.einsum("ij,ij->j", *pairs, out=acc)
        if r % 2 == 0 and r // 2 < rows:
            acc += np.square(spectra[r // 2])
        row = np.fft.irfft(acc, n=n)
        np.subtract(row, np.rint(row, out=frac), out=frac)
        residual = float(np.abs(frac, out=frac).max())
        if not residual < 0.25:
            raise DichromatError(
                f"internal error: FFT rounding residual {residual:.3g} >= 0.25"
            )
        yield row[:width] > 0.5


def _merge_level(white: np.ndarray, max_d: int) -> np.ndarray:
    """The white-root (d, black count) table of a subtree, rows 0..max_d,
    from the one its two children share; it takes one more column, every
    node black, which no white root reaches."""
    rows, cols = white.shape
    # a child hangs from a white root either white, or black (the
    # mirrored table) over one more dichromatic edge
    ext = np.zeros((min(rows + 1, max_d + 1), cols), dtype=bool)
    ext[:rows] = white[: len(ext)]
    ext[1:] |= white[: len(ext) - 1, ::-1]
    out = np.zeros((min(2 * len(ext) - 1, max_d + 1), 2 * cols), dtype=bool)
    for d, hit in zip(range(len(out)), _self_convolve_rows(ext)):
        out[d, : hit.size] = hit
    return out


def _profile_tables(m: int, kind: str) -> list[np.ndarray]:
    """Per-depth white-root rows, index 0 = root: tables[k][v] is the
    least dichromatic count of a coloring of a depth-k subtree with a
    white root and count v, inf where there is none; the black-root row
    is tables[k][::-1].

    A subtree of height h takes its row R from the row r its two children
    share, with c the child's size, 2**h - 1 nodes (node kind) or
    2**(h-1) leaves (leaf kind), and r read as inf out of its range:

        R(v) = min(r[v], 1 + r[c - v], 1 + r[v - c], 2 + r[2c - v])

    Either one child takes v, white (r[v]) or black (1 + r[c - v], its
    mirror), and the other is all white; or one child is all black, over
    one dichromatic edge, and the other takes v - c, white (1 + r[v - c])
    or black (2 + r[2c - v]).  The terms pair up: with
    e[u] = min(r[u], 1 + r[c - u]), the child taking u under a white
    root, R(v) is e[v] for v <= c and 1 + e[v - c] above it (at v = c,
    1 + e[0] = 1 is no less than e[c]).  The height-0 row is [0, inf], a
    white node or leaf; the node kind's count 2c + 1, every node black,
    is out of every term's range, so it is inf.

    Why the four terms are enough, by induction on h: the height-0 row
    is exact, and above it r is the child's exact row, so each term is
    the count of a coloring and R is at most their minimum.  Write S(v)
    for the fewest terms +-x summing to v, the x taken with repeats from
    the proper-subtree sizes of the subtree: x_j = 2**j - 1 nodes,
    1 <= j <= h, for the node kind, and x_j = 2**j leaves, 0 <= j < h,
    for the leaf kind; c = x_h (node) or x_(h-1) (leaf).  For
    0 <= v <= w, w the row's last count (v < w for the node kind):

    - R >= S.  A dichromatic edge (p, q) of a white-root coloring adds
      the size of the subtree under q if q is black and takes it away if
      q is white, so the count is a signed sum of d proper-subtree sizes.
    - Normal form.  A fewest sum never holds both +x and -x.  Leaf kind:
      2**j + 2**j = 2**(j+1) would be a shorter sum, so no magnitude
      below c repeats.  Node kind: x_j + x_j = x_(j+1) - x_1 keeps the
      length, and its -x_1 cancels a +x_1 only if the sum was not fewest;
      the sum of 4**j over the terms grows with each such step, so
      repeating it on magnitudes below c ends.  Either way some fewest sum
      of v is a low part s, using each magnitude below c at most once,
      so |s| <= c - h (node) or c - 1 (leaf), plus c taken a times, with
      one sign.  As |s| < c and 0 <= v <= 2c, that sign is + and a is 0,
      1 or 2, and s <= 0 where a = 2.
    - S >= the minimum of the terms, r being the child's S by the
      induction (at h = 0 there are no sizes and v = 0 has d = 0).  The
      low part, or its negation, is a signed sum of the child's
      proper-subtree sizes, so r[|s|] is at most its length.  a = 0 is
      the term r[v], as s = v.  a = 1, s >= 0 is 1 + r[v - c], as
      s = v - c.  a = 1, s < 0 is 1 + r[c - v], as -s = c - v.  a = 2 is
      2 + r[2c - v], as -s = 2c - v.  Each index lies in the child's
      range.

    So R = S = the minimum of the four terms.
    """
    return list(_climb(m, kind))[::-1]


def _climb(m: int, kind: str) -> Iterator[np.ndarray]:
    """The white-root rows of `_profile_tables`, from height 0 up to m,
    each made from the one before."""
    row = np.array([0.0, np.inf])
    all_black = [np.inf] if kind == NODE else []
    yield row
    for _ in range(m):
        either = np.minimum(row, 1 + row[::-1])
        row = np.concatenate((either, 1 + either[1:], all_black))
        yield row


def _profile(m: int, kind: str, cap: int | None) -> DpProfile:
    what = "node_profile" if kind == NODE else "leaf_profile"
    # a cap passed in moves the profile cap up to the tree cap, no further
    limit = cap if cap is None else min(cap, DEFAULT_TREE_CAP)
    _check_depth(m, limit, DEFAULT_PROFILE_CAP, what)
    for top in _climb(m, kind):  # holds two rows at a time
        pass
    root = np.minimum(top, top[::-1])
    first = 1 if kind == NODE else 0  # a node profile counts from one black node
    index_range = range(first, root.size)
    values = root[first:]
    if not np.isfinite(values).all():
        raise DichromatError("internal error: unreachable count in profile range")
    min_d = values.astype(np.int64)
    min_d.flags.writeable = False
    return DpProfile(m=m, kind=kind, index_range=index_range, min_d=min_d)


def node_profile(m: int, cap: int | None = None) -> DpProfile:
    """d'_m: minimum dichromatic edges at each exact black-node count."""
    return _profile(m, NODE, cap)


def leaf_profile(m: int, cap: int | None = None) -> DpProfile:
    """d_m: minimum dichromatic edges at each exact black-leaf count."""
    return _profile(m, LEAF, cap)


def witness(profile: DpProfile, index: int) -> Coloring:
    """One optimal coloring for ``index``, rebuilt from the per-depth
    rows, which `_profile_tables` climbs again.

    Ties are broken deterministically toward the lexicographically
    smallest bit vector: white root first, then white left child, white
    right child, then the smallest left-subtree budget.  The coloring is
    rebuilt one depth at a time: the split is solved once per distinct
    (color, budget) state of the level, which the nodes share, then
    scattered to the nodes.  A state's split is one argmax over its
    boolean hits (children's total equals the state's optimum), laid out
    in that tie-break order: the four child-color pairs, each over the
    left budgets in ascending order.  It is re-verified against
    `count_dichromatic` before it is returned.
    """
    target = profile[index]
    m = profile.m
    tables = _profile_tables(m, profile.kind)
    tree = build_tree(m)
    bits = np.zeros(tree.node_count, dtype=np.uint8)

    # the distinct (color, budget) states of a level, and each node's state
    color = np.array([WHITE if tables[0][index] == target else BLACK])
    budget = np.array([index])
    state = np.zeros(1, dtype=np.intp)
    for depth in range(m + 1):
        bits[2**depth - 1 : 2 ** (depth + 1) - 1] = color[state]
        if depth == m:
            break
        row = tables[depth]  # a black root reads it mirrored
        need = row[np.where(color == WHITE, budget, row.size - 1 - budget)]
        child = (tables[depth + 1], tables[depth + 1][::-1])  # white, black root
        width = child[WHITE].size
        rem = budget - color if profile.kind == NODE else budget
        # one row per state, one column per left budget b1; the right
        # subtree gets rem - b1, and splits out of range cost inf
        right_budget = rem[:, None] - np.arange(width)
        valid = (right_budget >= 0) & (right_budget < width)
        right_budget[~valid] = 0
        left = [child[cc] + (cc != color)[:, None] for cc in (WHITE, BLACK)]
        right = [
            np.where(valid, child[cc][right_budget] + (cc != color)[:, None], np.inf)
            for cc in (WHITE, BLACK)
        ]
        # per state, the first hit in tie-break order: the child colors
        # (white, white), (white, black), (black, white), (black, black),
        # then the least left budget
        hits = np.stack([
            left[c1] + right[c2] == need[:, None] for c1, c2 in product((WHITE, BLACK), repeat=2)
        ], axis=1).reshape(color.size, -1)
        first = hits.argmax(axis=1)
        if not hits[np.arange(color.size), first].all():
            raise DichromatError("internal error: witness split not found")
        combo, left_budget = np.divmod(first, width)
        left_color, right_color = np.divmod(combo, 2)  # WHITE is 0, BLACK 1
        # child states in (state, side) order; node 2i + side takes the
        # child state of node i's state on that side
        sides = [left_budget * 2 + left_color, (rem - left_budget) * 2 + right_color]
        keys, inverse = np.unique(np.stack(sides, axis=1), return_inverse=True)
        color, budget = keys & 1, keys >> 1
        state = inverse.reshape(-1, 2)[state].ravel()

    coloring = coloring_from_bits(tree, bits)
    achieved, _ = count_dichromatic(coloring)
    b, t = black_counts(coloring)
    got = b if profile.kind == NODE else t
    if achieved != target or got != index:
        raise DichromatError(
            f"internal error: witness check failed ({achieved=}, {target=}, "
            f"{got=}, {index=})"
        )
    return coloring


# ---------------------------------------------------------------------------
# achievable (black count, dichromatic count) pairs


def pairs_depth_limit(m: int, cap: int | None = None) -> int:
    """Largest ``max_d`` at which `feasible_pairs` may cut the table of
    T_m: (max_d + 1) rows of 2**(m+1) black counts fit `PAIRS_CELLS_CAP`.

    Raises `CapacityError` past ``cap`` or where not even d = 0 fits,
    before anything of size 2**m is formed.
    """
    _check_depth(m, cap, None, "achievable_set")
    if m + 1 < PAIRS_CELLS_CAP.bit_length():
        return (PAIRS_CELLS_CAP >> (m + 1)) - 1
    raise CapacityError(
        f"the feasible-pairs table at m={m} exceeds the cap of "
        f"{PAIRS_CELLS_CAP} cells at any d; use a smaller m"
    )


def feasible_pairs(m: int, max_d: int, cap: int | None = None) -> np.ndarray:
    """Read-only boolean table F[d, b] for d <= max_d: some coloring of
    T_m has exactly b black nodes and d dichromatic edges.  b runs
    0..node_count, d 0..min(max_d, node_count - 1).

    Raises `CapacityError` where ``max_d`` passes `pairs_depth_limit`.
    """
    if not is_int(max_d) or max_d < 0:
        raise InvalidParameterError(f"max_d must be an integer >= 0, got {max_d!r}")
    if max_d > pairs_depth_limit(m, cap):
        raise CapacityError(_cut_refusal(m, max_d))
    return _feasible_pairs(m, max_d)


def _cut_refusal(m: int, max_d: int) -> str:
    return (
        f"the feasible-pairs table at m={m} cut at d={max_d} exceeds the cap "
        f"of {PAIRS_CELLS_CAP} cells; use a smaller m or d"
    )


@lru_cache(maxsize=4)
def _feasible_pairs(m: int, max_d: int) -> np.ndarray:
    """`feasible_pairs` without the cap check, cached by (m, max_d)."""
    white = np.array([[True, False]])  # a leaf: no edges, white root, b = 0
    for _ in range(m):
        white = _merge_level(white, max_d)
    table = white | white[:, ::-1]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class AchievableSet:
    """Black-node counts realizable with exactly ``d`` dichromatic edges."""

    m: int
    d: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def achievable_set(m: int, d: int, cap: int | None = None) -> AchievableSet:
    """Exact B_m(d), restricted to black counts >= 1.

    With N = 2**(m+1) - 1 nodes, a row in the band m >= 3,
    ceil(m/2) + 1 <= d <= 2**m, is the interval [ceil(d/3), N - ceil(d/3)],
    answered with no table.  A row outside it reads a table cut at the
    next 2**k - 1, or at ceil(m/2) below the band, so rising queries share
    a few tables; the cut stops at `pairs_depth_limit`, and a d past it is
    refused wherever it lies.

    Proof of the band.  A dichromatic edge has one black and one white
    end, and a node has at most 3 edges, so d <= 3b and d <= 3(N - b): no
    b lies outside the interval.  Swapping every color keeps d and maps b
    to N - b; and a white-root coloring has b = d (mod 2), since the
    degrees of its black nodes, all odd, sum to d plus twice the edges
    between them.  So it is enough to build, for each v = d (mod 2) in the
    interval, a white-root coloring with v black nodes and exactly d
    dichromatic edges; a b of the other parity is the swap of v = N - b.
    Call the 2**(m-1) nodes at depth m - 1 the bottom nodes.  By v:

    - ceil(d/3) <= v <= d.  Make k = (d - v)/2 bottom nodes black, their
      leaves white, and j = (3v - d)/2 leaves under the other bottom
      nodes black; all else white.  That is 3k + j = d edges and k + j = v
      black nodes, and j + 2k = (v + d)/2 <= 2**m leaves hold them.
    - N + 1 - d <= v, so u = N - v < d.  The u white nodes are the root,
      whose children are black, k = (d - u - 1)/2 bottom nodes with black
      leaves, and j = (3u - d - 1)/2 leaves under other bottom nodes; all
      else black.  m >= 3 keeps the bottom nodes and their parents off the
      root and its children.  2 + 3k + j = d, j + 2k < 2**m, and j >= 0:
      3u = d would give u = d (mod 2).
    - d <= v <= N + 1 - d.  First, some white-root coloring has v black
      nodes and c <= ceil(m/2) + 2 <= d + 1 dichromatic edges, so c <= d,
      as c = v = d (mod 2).  Let f_h(u) be the fewest such edges of a
      subtree of c_h = 2**h - 1 nodes under a white parent, u of them
      black, its edge to the parent counted; f_1 = (0, 1) and
      f_2 = (0, 1, 2, 1).  For h >= 2, with c = c_(h-1):
      f_h(u) <= f_(h-1)(u) for u <= c, the top white, one child taking u
      and the other white; and for u = c + w, 1 <= w <= c + 1,
      f_h(u) <= 1 + f_(h-1)(w) (top white, one child all black) and
      f_h(u) <= 1 + f_(h-1)(c + 1 - w) (top black, its c + 1 - w white
      nodes in one child, by the color swap).  As w + (c + 1 - w) =
      2(c_(h-2) + 1), one of them is at most c_(h-2), where
      f_(h-1) <= f_(h-2), or both are c_(h-2) + 1, where
      f_(h-1) <= 1 + f_(h-2)(1) = 2.  So for h >= 3 the maxima obey
      M_h <= max(M_(h-1), 1 + M_(h-2), 3), and M_h <= ceil(h/2) + 1.  The
      whole tree puts v <= c_m in one child, or v - c_m there and the
      other child all black, so c <= M_m + 1.  Second, swapping the colors
      of a black leaf under a black parent and a white leaf under a white
      parent adds 2 edges and leaves every other leaf in its pool.  A
      black part (connected, n nodes, l leaves) has n - 2l + 2 edges out:
      its n - l inner nodes have 2(n - l) child edges, n - 1 inside, plus
      the edge above it.  The leaves of a part of n >= 2 have parents in
      it, and a one-node part has n <= its edges out, so there are at
      least (v - c)/2 black leaves under black parents.  The root's white
      part has no edge above it, so at least (N - v - c + 1)/2 white
      leaves are under white parents.  As d <= v and d <= N + 1 - v,
      (d - c)/2 swaps reach d.

    The tests build the coloring of every band cell this way at m <= 6,
    and of a seeded sample up to m = 12, and count it.
    """
    limit = pairs_depth_limit(m, cap)
    n = 2 ** (m + 1) - 1
    if not is_int(d) or not 0 <= d < n:
        raise InvalidParameterError(f"d must lie in 0..{n - 1}, got {d!r}")
    if d > limit:
        raise CapacityError(_cut_refusal(m, d))
    low = (m + 1) // 2 + 1  # ceil(m/2) + 1
    if m >= 3 and low <= d <= 2**m:
        first = -(-d // 3)
        return AchievableSet(m=m, d=d, members=tuple(range(first, n - first + 1)))
    top = low - 1 if d < low else n - 1
    depth = max(d, min((1 << d.bit_length()) - 1, top, limit))
    members = np.flatnonzero(_feasible_pairs(m, depth)[d, 1:]) + 1
    return AchievableSet(m=m, d=d, members=tuple(members.tolist()))


# ---------------------------------------------------------------------------
# maximum vertex-disjoint dichromatic pairs: the leaf-up greedy of
# `tree.max_matching` on the dichromatic edges


def max_disjoint_pairs(coloring: Coloring) -> tuple[int, EdgeSet]:
    """Largest set of vertex-disjoint dichromatic edges, computed exactly.

    Always at least ceil(d / 5) edges for d dichromatic edges in total: a
    tree edge shares a node with at most four others, so any maximal
    matching keeps one edge in five.
    """
    _, dichromatic = count_dichromatic(coloring)
    pairs = max_matching(coloring.tree, dichromatic)
    return len(pairs), pairs
