"""Exact dynamic programs over full binary trees.

All subtrees rooted at the same depth are isomorphic, so every DP here
builds one table per depth instead of one per node: a boolean [d, v]
table saying that some coloring of a depth-``k`` subtree with a white
root has d dichromatic edges and count v (black nodes for the node
profile and achievable sets, black leaves for the leaf profile).
Swapping every color keeps d and maps v to size - v, so the black-root
table is read as the mirror of the white-root one.

Both programs climb with one level merge, `_merge_level`: extend the
child table with its mirror shifted down one d row, then take the
support of its 2-D self-convolution.  A real FFT runs along the wide
count axis, zero padded to the next 2**a * 3**b * 5**c, and the output
rows come out one at a time, in order, each summed over each unordered
pair of input rows once.  Before it is thresholded, every row must lie
within 0.25 of an integer vector, or `DichromatError` is raised.  Only
the stop differs.  A profile value at v is the first row holding v, so
a profile level cuts the extended table and the merged one at the first
row by which every count has been hit: later rows hold no first hit,
at that level or above.  The achievable-set table F[d, b] stops at
``max_d``: merging only adds dichromatic edges, so rows past it never
feed rows at or below it.  Unreachable profile values are ``numpy.inf``,
never a large integer that arithmetic could overflow into a real count.

`witness` walks the per-depth tables back down one level at a time.  A
node's choice of child colors and budget split depends only on its
depth, color and budget, so each level solves it once per distinct
(color, budget) state, from a (states x left budget) table of candidate
costs, and every node reads the choice of its state.

Caps keep accidental exponential-memory requests out: profiles default to
depth 14, and achievable-set tables to `PAIRS_CELLS_CAP` cells:
`pairs_depth_limit` is the one place that turns the cell cap into a
depth, before anything of size 2**m is formed.  Pass ``cap=`` explicitly (or
set ``DICHROMAT_MAX_M`` when going through the CLI) to move the profile
cap, or to lower the depth allowed for achievable sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, DichromatError, InvalidParameterError
from .tree import (
    BLACK,
    WHITE,
    Coloring,
    EdgeSet,
    black_counts,
    build_tree,
    check_depth,
    coloring_from_bits,
    count_dichromatic,
    max_matching,
)

DEFAULT_PROFILE_CAP = 14

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
    the leaf kind.  ``witness_seed`` holds one white-root row per depth,
    index 0 = root, with the black-root row as its mirror ``row[::-1]``:
    exactly the state `witness` needs to rebuild an optimal coloring.
    """

    m: int
    kind: str
    index_range: range
    min_d: np.ndarray = field(repr=False)
    witness_seed: tuple[np.ndarray, ...] = field(repr=False)

    def __getitem__(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
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


def _fft_length(width: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= ``width``: a length the real FFT
    runs at close to power-of-two speed, with far less padding."""
    best = 1 << (width - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power-of-two multiple of odd that covers width
            best = min(best, odd << (-(-width // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _self_convolve_rows(x: np.ndarray) -> Iterator[np.ndarray]:
    """Rows of the support of the 2-D self-convolution of a 0/1 array, in
    order: an (r, c) input gives 2r-1 boolean rows of 2c-1 columns.  Each
    row is computed when asked for, so a caller that has what it needs
    stops paying; the loop runs over output rows, so wide inputs are
    cheap."""
    rows, cols = x.shape
    width = 2 * cols - 1
    n = _fft_length(width)
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


def _merge_level(white: np.ndarray, node: bool, max_d: int | None = None) -> np.ndarray:
    """The white-root (d, count) table of a subtree from the one its two
    children share.  Rows stop after ``max_d``, or with no ``max_d`` at the
    first row by which every count has been hit; a node table takes one
    more column, every node black, which no white root reaches."""
    rows, cols = white.shape
    cut = 2 * rows + 1 if max_d is None else max_d + 1
    # a child hangs from a white root either white, or black (the
    # mirrored table) over one more dichromatic edge
    ext = np.zeros((min(rows + 1, cut), cols), dtype=bool)
    ext[:rows] = white[: len(ext)]
    ext[1:] |= white[: len(ext) - 1, ::-1]
    if max_d is None:  # rows past the first that covers every count hold no first hit
        ext = ext[: len(list(_until_covered(ext)))]
    out = np.zeros((min(2 * len(ext) - 1, cut), 2 * cols - 1 + node), dtype=bool)
    merged = _self_convolve_rows(ext)
    if max_d is None:
        merged = _until_covered(merged)
    for d, hit in zip(range(len(out)), merged):
        out[d, : hit.size] = hit
    return out[: d + 1]


def _until_covered(rows: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The rows, in order, through the first that leaves no column unhit."""
    seen = False
    for row in rows:
        yield row
        seen = seen | row
        if seen.all():
            return


def _profile_tables(m: int, kind: str) -> list[np.ndarray]:
    """Per-depth white-root rows, index 0 = root: tables[k][v] is the
    first row holding v in the (d, count) table of a depth-k subtree, the
    least dichromatic count there; the black-root row is tables[k][::-1]."""
    white = np.array([[True, False]])  # a leaf: no edges, white root, count 0
    tables = [_first_hits(white)]
    for _ in range(m):
        white = _merge_level(white, kind == NODE)
        tables.append(_first_hits(white))
    return tables[::-1]


def _first_hits(table: np.ndarray) -> np.ndarray:
    """The first row of each column that holds a True, else inf."""
    first = np.full(table.shape[1], np.inf)
    for d in range(len(table) - 1, -1, -1):  # lower rows overwrite
        first[table[d]] = d
    return first


def _profile(m: int, kind: str, cap: int | None) -> DpProfile:
    what = "node_profile" if kind == NODE else "leaf_profile"
    _check_depth(m, cap, DEFAULT_PROFILE_CAP, what)
    tables = _profile_tables(m, kind)
    root = np.minimum(tables[0], tables[0][::-1])
    if kind == NODE:
        index_range = range(1, 2 ** (m + 1))
        values = root[1:]
    else:
        index_range = range(0, 2 ** m + 1)
        values = root
    if not np.isfinite(values).all():
        raise DichromatError("internal error: unreachable count in profile range")
    min_d = values.astype(np.int64)
    min_d.flags.writeable = False
    return DpProfile(
        m=m, kind=kind, index_range=index_range, min_d=min_d, witness_seed=tuple(tables)
    )


def node_profile(m: int, cap: int | None = None) -> DpProfile:
    """d'_m: minimum dichromatic edges at each exact black-node count."""
    return _profile(m, NODE, cap)


def leaf_profile(m: int, cap: int | None = None) -> DpProfile:
    """d_m: minimum dichromatic edges at each exact black-leaf count."""
    return _profile(m, LEAF, cap)


def witness(profile: DpProfile, index: int) -> Coloring:
    """One optimal coloring for ``index``, rebuilt from the DP tables.

    Ties are broken deterministically toward the lexicographically
    smallest bit vector: white root first, then white left child, white
    right child, then the smallest left-subtree budget.  The coloring is
    rebuilt one depth at a time: the split is solved once per distinct
    (color, budget) state of the level, which the nodes share, then
    scattered to the nodes.  It is re-verified against
    `count_dichromatic` before it is returned.
    """
    target = profile[index]
    tables = profile.witness_seed
    m = profile.m
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
        left_color = np.full(color.size, -1)
        right_color = np.empty_like(left_color)
        left_budget = np.empty_like(budget)
        for c1 in (WHITE, BLACK):
            for c2 in (WHITE, BLACK):
                total = left[c1] + right[c2]
                hit = (left_color < 0) & (total.min(axis=1) == need)
                left_color[hit] = c1
                right_color[hit] = c2
                left_budget[hit] = total[hit].argmin(axis=1)
        if (left_color < 0).any():
            raise DichromatError("internal error: witness split not found")
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
    if max_d > pairs_depth_limit(m, cap):
        raise CapacityError(
            f"the feasible-pairs table at m={m} cut at d={max_d} exceeds the cap "
            f"of {PAIRS_CELLS_CAP} cells; use a smaller m or d"
        )
    return _feasible_pairs(m, max_d)


@lru_cache(maxsize=4)
def _feasible_pairs(m: int, max_d: int) -> np.ndarray:
    """`feasible_pairs` without the cap check, cached by (m, max_d)."""
    white = np.array([[True, False]])  # a leaf: no edges, white root, b = 0
    for _ in range(m):
        white = _merge_level(white, True, max_d)
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
    """Exact B_m(d), restricted to black counts >= 1."""
    limit = pairs_depth_limit(m, cap)
    max_d = 2 ** (m + 1) - 2
    if not isinstance(d, int) or not 0 <= d <= max_d:
        raise InvalidParameterError(f"d must lie in 0..{max_d}, got {d!r}")
    # built to depth 2**k - 1 where the cap allows, so queries at rising d
    # share a few tables; a d past the cap is refused by feasible_pairs
    depth = max(d, min((1 << d.bit_length()) - 1, max_d, limit))
    members = np.flatnonzero(feasible_pairs(m, depth, cap)[d, 1:]) + 1
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
