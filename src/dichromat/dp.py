"""Exact dynamic programs over full binary trees.

All subtrees rooted at the same depth are isomorphic, so every DP here
computes one table per depth instead of one per node.  A table at depth
``k`` maps ``(root color, count)`` to the optimum inside one depth-``k``
subtree; merging two copies of the depth ``k+1`` table produces depth
``k``.  The count coordinate is the number of black nodes for the node
profile and the number of black leaves for the leaf profile.

Unreachable states carry ``numpy.inf`` rather than a large integer, so no
arithmetic on the sentinel can overflow or masquerade as a real count.

Both programs merge two children with one primitive, the support of the
2-D self-convolution of a 0/1 table: the achievable-set program on
(black count, dichromatic count) tables, the profile program on
(attach cost, count) indicators, where the lowest cost row hit at a count
is the min-plus value there.  A real FFT runs along the count axis, zero
padded to the next power of two, and each output row is summed directly;
before it is cropped and thresholded, every row must lie within 0.25 of
an integer vector, or `DichromatError` is raised.

`witness` walks the per-depth tables back down one level at a time: all
nodes of a depth choose their child colors and budget split together,
from a (nodes x left budget) table of candidate costs.

Caps keep accidental exponential-memory requests out: profiles default to
depth 14 and achievable sets to depth 8.  Pass ``cap=`` explicitly (or set
``DICHROMAT_MAX_M`` when going through the CLI) to lift them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DichromatError, InvalidParameterError
from .tree import (
    BLACK,
    WHITE,
    Coloring,
    EdgeSet,
    TreeShape,
    build_tree,
    black_counts,
    coloring_from_bits,
    count_dichromatic,
)

DEFAULT_PROFILE_CAP = 14
DEFAULT_ACHIEVABLE_CAP = 8

NODE = "node"
LEAF = "leaf"


@dataclass(frozen=True, eq=False)
class DpProfile:
    """Minimal dichromatic-edge counts at every count value.

    ``min_d[i]`` is the optimum for ``index_range[i]``: black node counts
    ``1..2**(m+1)-1`` for the node kind, black leaf counts ``0..2**m`` for
    the leaf kind.  ``witness_seed`` holds the per-depth DP tables, which
    is exactly the state `witness` needs to rebuild an optimal coloring.
    """

    m: int
    kind: str
    index_range: range
    min_d: np.ndarray = field(repr=False)
    witness_seed: tuple[np.ndarray, ...] = field(repr=False)

    def __getitem__(self, index: int) -> int:
        if index not in self.index_range:
            raise InvalidParameterError(
                f"index {index} outside {self.index_range} for kind={self.kind}"
            )
        return int(self.min_d[index - self.index_range.start])

    def items(self) -> list[tuple[int, int]]:
        return [(i, int(v)) for i, v in zip(self.index_range, self.min_d)]

    def max_entry(self) -> tuple[int, int]:
        """Smallest index attaining the maximum value, with that value."""
        pos = int(np.argmax(self.min_d))
        return self.index_range.start + pos, int(self.min_d[pos])


def _check_depth(m: int, cap: int | None, default_cap: int, what: str) -> None:
    if not isinstance(m, int) or m < 1:
        raise InvalidParameterError(f"depth m must be an integer >= 1, got {m!r}")
    effective = default_cap if cap is None else cap
    if m > effective:
        raise CapacityError(f"{what} is capped at m={effective}, got m={m}")


def _self_convolve_support(x: np.ndarray) -> np.ndarray:
    """Support of the 2-D self-convolution of a 0/1 array: an (r, c)
    input gives a (2r-1, 2c-1) boolean output."""
    rows, cols = x.shape
    width = 2 * cols - 1
    n = 1 << (width - 1).bit_length()
    spectra = np.fft.rfft(x, n=n, axis=1)
    out = np.empty((2 * rows - 1, width), dtype=bool)
    for r in range(2 * rows - 1):
        lo, hi = max(0, r - rows + 1), min(r, rows - 1)
        pairs = spectra[lo : hi + 1], spectra[r - hi : r - lo + 1][::-1]
        acc = np.einsum("ij,ij->j", *pairs)
        row = np.fft.irfft(acc, n=n)
        residual = float(np.abs(row - np.rint(row)).max())
        if not residual < 0.25:
            raise DichromatError(
                f"internal error: FFT rounding residual {residual:.3g} >= 0.25"
            )
        out[r] = row[:width] > 0.5
    return out


def _minplus_self(e: np.ndarray) -> np.ndarray:
    """Min-plus convolution of a vector of small integers with itself;
    inf marks unreachable.  At least one entry must be finite."""
    finite = np.flatnonzero(np.isfinite(e))
    low = e[finite].min()
    values = (e[finite] - low).astype(np.intp)
    indicator = np.zeros((int(values.max()) + 1, e.size), dtype=bool)
    indicator[values, finite] = True
    hits = _self_convolve_support(indicator)
    reached = hits.any(axis=0)
    return np.where(reached, hits.argmax(axis=0) + 2 * low, np.inf)


def _profile_tables(m: int, kind: str) -> list[np.ndarray]:
    """Per-depth tables, index 0 = root.  tables[k][c, v] is the minimum
    dichromatic count inside a depth-k subtree with root color c and count
    coordinate v."""
    leaf = np.full((2, 2), np.inf)
    leaf[WHITE, 0] = 0.0
    leaf[BLACK, 1] = 0.0
    tables = [leaf]
    for _ in range(m):
        child = tables[-1]
        width = child.shape[1]
        merged = []
        for c in (WHITE, BLACK):
            # attach cost of one child subtree under a parent of color c
            e = np.minimum(child[WHITE] + (c != WHITE), child[BLACK] + (c != BLACK))
            conv = _minplus_self(e)
            if kind == NODE:
                row = np.full(2 * width, np.inf)
                row[c : c + 2 * width - 1] = conv
            else:
                row = conv
            merged.append(row)
        tables.append(np.stack(merged))
    tables.reverse()
    return tables


def _profile(m: int, kind: str, cap: int | None) -> DpProfile:
    what = "node_profile" if kind == NODE else "leaf_profile"
    _check_depth(m, cap, DEFAULT_PROFILE_CAP, what)
    tables = _profile_tables(m, kind)
    root = np.minimum(tables[0][WHITE], tables[0][BLACK])
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
    rebuilt one depth at a time, every node of a level at once, and is
    re-verified against `count_dichromatic` before it is returned.
    """
    target = profile[index]
    tables = profile.witness_seed
    m = profile.m
    tree = build_tree(m)
    bits = np.zeros(tree.node_count, dtype=np.uint8)

    color = np.array([WHITE if tables[0][WHITE][index] == target else BLACK])
    budget = np.array([index])
    for depth in range(m + 1):
        bits[2**depth - 1 : 2 ** (depth + 1) - 1] = color
        if depth == m:
            break
        child = tables[depth + 1]
        width = child.shape[1]
        need = tables[depth][color, budget]
        rem = budget - color if profile.kind == NODE else budget
        # one row per node, one column per left budget b1; the right
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
        color = np.stack([left_color, right_color], axis=1).ravel()
        budget = np.stack([left_budget, rem - left_budget], axis=1).ravel()

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


@lru_cache(maxsize=8)
def _feasible_pairs(m: int) -> np.ndarray:
    """Boolean table F[b, d]: some coloring of T_m has exactly b black
    nodes and d dichromatic edges.  b runs 0..node_count, d 0..node_count-1."""
    current = [np.zeros((2, 1), dtype=bool) for _ in (WHITE, BLACK)]
    current[WHITE][0, 0] = True
    current[BLACK][1, 0] = True
    b_width = 2
    for _ in range(m):
        d_width = current[0].shape[1]
        nxt = []
        for c in (WHITE, BLACK):
            ext = np.zeros((b_width, d_width + 1), dtype=bool)
            ext[:, :-1] = current[c]
            ext[:, 1:] |= current[1 - c]
            conv = _self_convolve_support(ext)
            tab = np.zeros((2 * b_width, conv.shape[1]), dtype=bool)
            tab[c : c + conv.shape[0]] = conv
            nxt.append(tab)
        current = nxt
        b_width *= 2
    return current[WHITE] | current[BLACK]


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
    _check_depth(m, cap, DEFAULT_ACHIEVABLE_CAP, "achievable_set")
    max_d = 2 ** (m + 1) - 2
    if not isinstance(d, int) or not 0 <= d <= max_d:
        raise InvalidParameterError(f"d must lie in 0..{max_d}, got {d!r}")
    table = _feasible_pairs(m)
    members = tuple(int(b) for b in np.flatnonzero(table[:, d]) if b >= 1)
    return AchievableSet(m=m, d=d, members=members)


# ---------------------------------------------------------------------------
# maximum vertex-disjoint dichromatic pairs


def _max_matching(tree: TreeShape, allowed: EdgeSet) -> tuple[int, EdgeSet]:
    """Maximum matching using only ``allowed`` edges, by tree DP.

    f0/f1 are the matching sizes with the node unmatched/matched inside
    its subtree; levels are processed bottom-up with vectorized child
    slices, and the matching is rebuilt top-down one level at a time.
    Reconstruction prefers the unmatched state on ties and the left
    child on equal gains, so results are stable run to run.
    """
    n = tree.node_count
    f0 = np.zeros(n + 1)
    f1 = np.full(n + 1, -np.inf)
    allowed_mask = np.zeros(n + 1, dtype=bool)
    allowed_mask[[child for _, child in allowed]] = True

    for depth in range(tree.m - 1, -1, -1):
        v = np.arange(2 ** depth, 2 ** (depth + 1))
        left, right = 2 * v, 2 * v + 1
        best_l = np.maximum(f0[left], f1[left])
        best_r = np.maximum(f0[right], f1[right])
        f0[v] = best_l + best_r
        gain_l = np.where(allowed_mask[left], 1 + f0[left] - best_l, -np.inf)
        gain_r = np.where(allowed_mask[right], 1 + f0[right] - best_r, -np.inf)
        f1[v] = f0[v] + np.maximum(gain_l, gain_r)

    best = np.maximum(f0, f1)
    available = np.zeros(n + 1, dtype=bool)
    available[1] = True
    chosen: list[np.ndarray] = []
    for depth in range(tree.m):
        v = np.arange(2 ** depth, 2 ** (depth + 1))
        match = available[v] & (f1[v] > f0[v])
        base = best[2 * v] + best[2 * v + 1]
        taken = np.zeros(v.size, dtype=bool)
        for u in (2 * v, 2 * v + 1):
            take = match & ~taken & allowed_mask[u] & (base + 1 + f0[u] - best[u] == f1[v])
            available[u] = ~take
            taken |= take
            chosen.append(u[take])
        if (match & ~taken).any():
            raise DichromatError("matching reconstruction found no child to match")

    children = np.concatenate(chosen).tolist()
    return len(children), EdgeSet(tuple((c // 2, c) for c in children))


def max_disjoint_pairs(coloring: Coloring) -> tuple[int, EdgeSet]:
    """Largest set of vertex-disjoint dichromatic edges, computed exactly.

    Always at least ceil(d / 5) edges for d dichromatic edges in total: a
    tree edge shares a node with at most four others, so any maximal
    matching keeps one edge in five.
    """
    _, dichromatic = count_dichromatic(coloring)
    return _max_matching(coloring.tree, dichromatic)
