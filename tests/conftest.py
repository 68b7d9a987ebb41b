"""Shared helpers: independent brute-force routes the real code is tested
against.  Nothing here may import from dichromat.dp, dichromat.sweepout
or dichromat.cli."""

from __future__ import annotations

import json
import math
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


def feasible_pairs_bigint(m: int, max_d: int | None = None) -> np.ndarray:
    """Boolean table F[b, d] of T_m (some coloring has b black nodes and d
    dichromatic edges), merged level by level with `convolve2d_bigint`.
    With ``max_d``, every level keeps only d <= max_d."""
    white, black = 0, 1
    current = [np.zeros((2, 1), dtype=np.uint64) for _ in (white, black)]
    current[white][0, 0] = 1
    current[black][1, 0] = 1
    b_width = 2
    cut = None if max_d is None else max_d + 1
    for _ in range(m):
        d_width = current[0].shape[1]
        nxt = []
        for c in (white, black):
            ext = np.zeros((b_width, d_width + 1), dtype=np.uint64)
            ext |= np.pad(current[c], ((0, 0), (0, 1)))
            ext[:, 1:] |= current[1 - c]
            conv = convolve2d_bigint(ext[:, :cut], ext[:, :cut])
            tab = np.zeros((2 * b_width, conv.shape[1]), dtype=np.uint64)
            tab[c : c + conv.shape[0]] = conv > 0
            nxt.append(tab[:, :cut])
        current = nxt
        b_width *= 2
    return (current[white] | current[black]) > 0


def profile_tables_two_color(m: int, kind: str) -> list[np.ndarray]:
    """Per-depth (root color, count) profile tables, index 0 = root, by
    the two-color recurrence: each root color builds its own attach costs
    and convolves them with `minplus_self_loop`.  ``kind`` is "node" or
    "leaf"."""
    white, black = 0, 1
    tables = [np.array([[0.0, np.inf], [np.inf, 0.0]])]
    for _ in range(m):
        child = tables[-1]
        width = child.shape[1]
        merged = np.full((2, 2 * width if kind == "node" else 2 * width - 1), np.inf)
        for c in (white, black):
            attach = np.minimum(child[white] + (c != white), child[black] + (c != black))
            shift = c if kind == "node" else 0  # a black root is one more black node
            merged[c, shift : shift + 2 * width - 1] = minplus_self_loop(attach)
        tables.append(merged)
    tables.reverse()
    return tables


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


# popcount of every byte value
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def naf_weight(n: np.ndarray) -> np.ndarray:
    """Nonzero digits of the non-adjacent form (NAF) of each n >= 0:
    popcount(((3n) ^ n) >> 1), counted one byte at a time."""
    x = (((3 * n) ^ n) >> 1).astype("<u8")
    return _BYTE_POPCOUNT[x.view(np.uint8).reshape(-1, 8)].sum(axis=1, dtype=np.int64)


def leaf_profile_naf(m: int) -> np.ndarray:
    """The leaf profile at t = 0..2**m as min(naf(t), naf(2**m - t)),
    with no dynamic program.  A coloring with d dichromatic edges writes
    t or 2**m - t as a signed sum of d leaf-subtree sizes 2**j, so d is at
    least that naf weight; that the bound is met is measured (the tests
    check every m <= 18), not proved."""
    t = np.arange(2**m + 1, dtype=np.int64)
    return np.minimum(naf_weight(t), naf_weight(2**m - t))


def profile_rows_signed(m: int, kind: str) -> list[np.ndarray]:
    """The per-depth white-root rows of a depth-m profile, index 0 = root,
    as `dichromat.dp._profile_tables` climbs them, with no dynamic program.

    Row k, of a subtree of height h = m - k, holds at each count v the
    fewest terms +-x summing to v, the x taken with repeats from the
    proper-subtree sizes: 2**j - 1 nodes, 1 <= j <= h, for the node kind,
    and 2**j leaves, 0 <= j < h, for the leaf kind.  That this is the least
    dichromatic count is the proof in the `dichromat.dp._profile_tables`
    docstring.  A count no sum reaches is inf, and so is the node kind's
    all-black count, which a white root cannot have.

    Layered boolean BFS over the sums in [-w, 2w], w the row's last count.
    That range loses no sum: the terms of a sum of v, 0 <= v <= w, can be
    taken in an order that adds a positive one while the partial sum is
    at most v and a negative one while it is above v (the ones left then
    sum to v minus the partial sum, so one of that sign is left).  Every
    magnitude is below w, so each partial sum stays in (v - w, v + w]."""
    rows = []
    for h in range(m, -1, -1):
        if kind == "node":
            sizes, w = [2**j - 1 for j in range(1, h + 1)], 2 ** (h + 1) - 1
        else:
            sizes, w = [2**j for j in range(h)], 2**h
        fewest = np.full(3 * w + 1, np.inf)  # the sum s sits at s + w
        fewest[w] = 0
        frontier, layer = fewest == 0, 0
        while frontier.any():
            layer += 1
            step = np.zeros_like(frontier)
            for size in sizes:
                step[size:] |= frontier[:-size]
                step[:-size] |= frontier[size:]
            frontier = step & (fewest == np.inf)
            fewest[frontier] = layer
        if kind == "node":
            fewest[2 * w] = np.inf
        rows.append(fewest[w : 2 * w + 1].copy())
    return rows


def node_profile_signed(m: int) -> np.ndarray:
    """The node profile at b = 1..N, N = 2**(m+1) - 1, as the fewest terms
    +-(2**j - 1), 1 <= j <= m, summing to b or to N - b: the root row of
    `profile_rows_signed` and its mirror, the black-root row."""
    root = profile_rows_signed(m, "node")[0]
    return np.minimum(root, root[::-1])[1:]


def _paint(bits: np.ndarray, node: int, levels: int, color: int) -> None:
    """Color the subtree of ``node`` (1-based heap order), ``levels`` deep."""
    for k in range(levels):
        first = node << k
        bits[first : first + (1 << k)] = color


def _plant(bits: np.ndarray, node: int, h: int, u: int, bg: int) -> None:
    """Color the subtree of ``node``, 2**h - 1 nodes under a parent of
    color ``bg``, with u nodes of the other color and at most
    ceil(h/2) + 1 edges of two colors, the one above it counted: the
    f_h step of the `dichromat.dp.achievable_set` docstring."""
    if u == 0:
        _paint(bits, node, h, bg)
        return
    c = 2 ** (h - 1) - 1  # a child's size
    left, right = 2 * node, 2 * node + 1
    if u <= c:  # the top keeps bg, one child takes u
        bits[node] = bg
        _plant(bits, left, h - 1, u, bg)
        _paint(bits, right, h - 1, bg)
        return
    w = u - c
    if w <= (c + 1) // 2:  # top bg, one child all the other color
        bits[node] = bg
        _paint(bits, left, h - 1, 1 - bg)
        _plant(bits, right, h - 1, w, bg)
    else:  # top the other color, its c + 1 - w bg nodes in one child
        bits[node] = 1 - bg
        if h > 1:
            _plant(bits, left, h - 1, c + 1 - w, 1 - bg)
            _paint(bits, right, h - 1, 1 - bg)


def band_coloring(m: int, d: int, b: int) -> np.ndarray:
    """Bits of a coloring of T_m with b black nodes and exactly d
    dichromatic edges, for a cell (d, b) of the band
    m >= 3, ceil(m/2) + 1 <= d <= 2**m, ceil(d/3) <= b <= N - ceil(d/3),
    built case by case as the proof in the `dichromat.dp.achievable_set`
    docstring says."""
    n = 2 ** (m + 1) - 1
    if (b - d) % 2:
        return 1 - band_coloring(m, d, n - b)  # a black root: the color swap
    bits = np.zeros(n + 1, dtype=np.uint8)  # bits[i] is node i; bits[0] unused
    # k bottom nodes (depth m - 1) from the left, then j leaves from the
    # first one under the other bottom nodes, 2**m + 2k
    bottom, leaves = 2 ** (m - 1), 2**m
    if b <= d:
        k, j = (d - b) // 2, (3 * b - d) // 2
        bits[bottom : bottom + k] = 1
        bits[leaves + 2 * k : leaves + 2 * k + j] = 1
    elif b >= n + 1 - d:
        u = n - b
        k, j = (d - u - 1) // 2, (3 * u - d - 1) // 2
        bits[2:] = 1
        bits[bottom : bottom + k] = 0
        bits[leaves + 2 * k : leaves + 2 * k + j] = 0
    else:
        c = 2**m - 1  # a child's size
        if b <= c:
            _plant(bits, 2, m, b, 0)
            _paint(bits, 3, m, 0)
        else:
            _paint(bits, 2, m, 1)
            _plant(bits, 3, m, b - c, 0)
        leaves = np.arange(2**m, n + 1)
        cut = int(np.count_nonzero(bits[2:] != bits[np.arange(2, n + 1) // 2]))
        assert cut <= (m + 1) // 2 + 2, (m, b, cut)
        same = bits[leaves] == bits[leaves // 2]
        swaps = (d - cut) // 2
        black = leaves[same & (bits[leaves] == 1)][:swaps]
        white = leaves[same & (bits[leaves] == 0)][:swaps]
        assert black.size == white.size == swaps, (m, d, b)
        bits[black], bits[white] = 0, 1
    return bits[1:]


def render_dot_lines(coloring: Coloring) -> str:
    """Graphviz DOT of a coloring built one formatted line at a time:
    every node, then every heap edge parent -- child; black nodes filled,
    dichromatic edges bold."""
    bits = coloring.bits.tolist()
    lines = ["graph dichromat {", "  node [shape=circle, style=filled, fillcolor=white];"]
    for node, color in enumerate(bits, 1):
        lines.append(f"  {node} [fillcolor=black, fontcolor=white];" if color else f"  {node};")
    for child in range(2, len(bits) + 1):
        bold = bits[child - 1] != bits[child // 2 - 1]
        style = " [style=bold, penwidth=2.5]" if bold else ""
        lines.append(f"  {child // 2} -- {child}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def node_volumes_of(graph) -> list:
    """Per-node region volumes, heap-ordered: V0 less mu per incident edge,
    from the parameters and ``tree.degree`` alone."""
    p, tree = graph.params, graph.tree
    return [p.V0 - tree.degree(i) * p.mu for i in range(1, tree.node_count + 1)]


def capacities_of(graph) -> np.ndarray:
    """Float capacities in trace column order: one per node, then tau once
    per edge into nodes 2..n."""
    caps = [float(v) for v in node_volumes_of(graph)]
    caps += [float(graph.params.tau)] * (graph.tree.node_count - 1)
    return np.asarray(caps, dtype=np.float64)


def _ceil_snap(x: float) -> int:
    return max(1, int(math.ceil(x - 1e-9)))


def trace_rows_per_entry(strategy: str, caps: np.ndarray, delta: float) -> int:
    """Rows of a trace by the per-entry formulas: one row per sub-delta
    part of every entry for the fills, ``ceil(max / (delta/4)) + 1`` for
    random-monotone, and the snapped capacity sum over delta, plus one,
    for uniform.  The 1e-9 snap keeps a quotient like 1000.0000000001
    from rounding up a whole extra row."""
    if strategy == "uniform":
        return _ceil_snap(float(caps.sum()) / delta) + 1
    if strategy == "random-monotone":
        return math.ceil(float(caps.max()) / (0.25 * delta)) + 1
    return sum(_ceil_snap(float(c) / delta) for c in caps) + 1


def fill_order(graph, strategy: str) -> list[int]:
    """Entry columns in fill order.  dfs-fill is post-order: each subtree,
    then the tube into it, then the node's own region.  bfs-fill is the
    root region, then the tube and region of every node 2..n in turn."""
    tree = graph.tree
    n = tree.node_count

    def tube(child: int) -> int:
        return n + child - 2

    if strategy == "bfs-fill":
        return [0] + [col for c in range(2, n + 1) for col in (tube(c), c - 1)]

    def post(v: int) -> list[int]:
        if v >= tree.first_leaf:
            return [v - 1]
        out: list[int] = []
        for u in (2 * v, 2 * v + 1):
            out += post(u) + [tube(u)]
        return out + [v - 1]

    return post(1)


def trace_table_dense(strategy: str, graph, delta: float, seed=None) -> np.ndarray:
    """The whole (steps x entries) table of a generated trace, built dense
    and row by row as the generator once did; for small m only.

    The fills copy the previous row and raise one entry per row, to
    ``cap * j / k`` at its j-th of ``k = ceil(cap / delta)`` steps (snapped);
    uniform scales the capacities by an even grid of fractions;
    random-monotone adds ``uniform(0.25, 1) * delta`` to every entry not yet
    full, capped, until all are full."""
    caps = capacities_of(graph)
    rows = trace_rows_per_entry(strategy, caps, delta)
    if strategy == "uniform":
        fractions = np.linspace(0.0, 1.0, _ceil_snap(float(caps.sum()) / delta) + 1)
        return fractions[:, None] * caps[None, :]
    if strategy == "random-monotone":
        rng = np.random.default_rng(seed)
        steps = [np.zeros(caps.size)]
        while len(steps) < rows and np.any(steps[-1] < caps):
            inc = rng.uniform(0.25, 1.0, caps.size) * delta
            steps.append(np.minimum(steps[-1] + inc, caps))
        return np.array(steps)
    steps = np.zeros((rows, caps.size))
    r = 0
    for entry in fill_order(graph, strategy):
        cap = float(caps[entry])
        count = _ceil_snap(cap / delta)
        for j in range(1, count + 1):
            r += 1
            steps[r] = steps[r - 1]
            steps[r, entry] = cap * j / count
    return steps


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
    # NaN fails both comparisons, so a non-finite volume is out of range
    out_of_range = ~((steps >= -tol) & (steps <= caps[None, :] + tol))
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
    ids = _entry_ids(trace.graph.tree.node_count)
    out = ["step,entry,volume\n"]
    for s in range(trace.steps.shape[0]):
        row = trace.steps[s]
        for e, ident in enumerate(ids):
            out.append(f"{s},{ident},{row[e].item()!r}\n")
    return "".join(out)


def _entry_ids(node_count: int) -> list[str]:
    return [f"node:{i}" for i in range(1, node_count + 1)] + [
        f"tube:{c}" for c in range(2, node_count + 1)
    ]


def read_csv_whole(text: str, node_count: int) -> np.ndarray:
    """The trace table of a CSV text in the writer's grammar and order,
    from the whole text split at "\\n" and read one line at a time.

    The header line, then line k after it is step k // E and entry k % E,
    E the number of entries, the step in plain decimal; a volume is a
    finite ``float()`` text of at most 32 characters from the writer's
    alphabet, and every line ends with "\\n".  Raises ValueError with the
    message the reader gives: a missing header, else the first bad line,
    else a text that ends inside a row."""
    ids = _entry_ids(node_count)
    header, newline, body = text.partition("\n")
    if header != "step,entry,volume" or not newline:
        raise ValueError("missing 'step,entry,volume' header")
    *lines, tail = body.split("\n")  # tail: what follows the last "\n"
    values = []
    for k, line in enumerate(lines + [tail] if tail else lines):
        step, col = divmod(k, len(ids))
        fields = line.split(",")
        volume = fields[-1]
        try:
            if (
                k == len(lines)  # the tail, not ended by "\n"
                or fields[:2] != [str(step), ids[col]]
                or len(fields) != 3
                or len(volume) > 32
                or not set(volume) <= set("0123456789abcdefghijklmnopqrstuvwxyz:.+-")
                or not math.isfinite(float(volume))
            ):
                raise ValueError(line)
        except ValueError:
            raise ValueError(f"line {k + 2}: bad record {line!r}") from None
        values.append(float(volume))
    if len(values) % len(ids):
        raise ValueError("missing entries: trace table is not dense")
    return np.array(values, dtype=np.float64).reshape(-1, len(ids))


def json_dumps_indented(payload) -> str:
    """CLI JSON by the plain route: normalize the whole payload (floats to
    12 significant digits, Fractions to ints or "p/q", tuples to lists),
    then ``json.dumps(sort_keys=True, indent=2)``, which runs json's
    pure-Python encoder."""

    def normal(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            return float(f"{value:.12g}")
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, dict):
            return {k: normal(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [normal(v) for v in value]
        return value

    return json.dumps(normal(payload), sort_keys=True, indent=2) + "\n"


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
