"""Checks of every answer the workloads get.

Each check is computed apart from the program, or is a property the
method must have; none compares against a stored copy of an output.
The independent routes live here: the closed form of a(m), a min-plus
node-profile DP, an FFT feasible-pairs table, a trace generator that follows
the documented fill strategies row by row, a CSV parser and a greedy
leaf-up matching.  At the brute-force depths (node m <= 3, leaf m <= 4)
answers are also compared with ``dichromat.oracle``.

`check` raises `CheckError` on the first violation.  A `Context` carries
what one query teaches the next within a workload run (the profiles that
the witness, verify, width and iso checks recompute from).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Query, a_of_m

ORACLE_NODE_MAX_M = 3
ORACLE_LEAF_MAX_M = 4
BISECTION_WIDTH = 1e-9
# printed floats carry 12 significant digits
PRINT_REL = 1e-11


class CheckError(Exception):
    """An answer failed a check; the message names the query and the fault."""


@dataclass
class Context:
    """Facts shared across the queries of one workload run."""

    root: Path
    node: dict[int, np.ndarray] = field(default_factory=dict)  # m -> min_d[b], b = 0..n
    leaf: dict[int, np.ndarray] = field(default_factory=dict)  # m -> min_d[t], t = 0..2**m
    _validator: object = None
    _feasible: dict[int, np.ndarray] = field(default_factory=dict)

    def validate_json(self, doc: dict) -> None:
        if self._validator is None:
            import jsonschema

            path = self.root / "src" / "dichromat" / "schemas" / "output.schema.json"
            schema = json.loads(path.read_text())
            self._validator = jsonschema.Draft202012Validator(schema)
        errors = sorted(self._validator.iter_errors(doc), key=str)
        if errors:
            raise CheckError(f"output fails the schema: {errors[0].message}")

    def feasible(self, m: int) -> np.ndarray:
        if m not in self._feasible:
            self._feasible[m] = own_feasible_pairs(m)
        return self._feasible[m]

    def profile(self, kind: str, m: int) -> np.ndarray:
        table = self.node if kind == "node" else self.leaf
        if m not in table:
            raise CheckError(f"no {kind} profile at m={m} earlier in the workload")
        return table[m]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = PRINT_REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _quantity(value) -> Fraction | float:
    """A printed quantity: ints and 'p/q' strings exactly, floats as float."""
    return float(value) if isinstance(value, float) else Fraction(value)


def _printed(x: Fraction | int) -> int | str:
    """How the CLI prints an exact value."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# independent routes


def own_node_profile(m: int) -> np.ndarray:
    """min_d[b] for b = 0..n by a plain min-plus DP over subtree depths
    (b = 0 is the all-white colouring, value 0)."""
    inf = np.iinfo(np.int64).max // 4
    # best[c][b]: fewest dichromatic edges in a subtree whose root has
    # colour c and which holds b black nodes; a one-node subtree first
    best = [np.array([0, inf]), np.array([inf, 0])]
    for _ in range(m):
        merged = []
        for c in (0, 1):
            hang = np.minimum(best[0] + (c != 0), best[1] + (c != 1))
            w = hang.size
            pair = np.full(2 * w - 1, inf)
            for x in np.flatnonzero(hang < inf):
                np.minimum(pair[x:x + w], hang[x] + hang, out=pair[x:x + w])
            row = np.full(2 * w, inf)
            row[c:c + 2 * w - 1] = np.minimum(pair, inf)
            merged.append(row)
        best = merged
    return np.minimum(best[0], best[1])


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
    spec = np.fft.rfft2(a, shape) * np.fft.rfft2(b, shape)
    return np.fft.irfft2(spec, shape)


def own_feasible_pairs(m: int) -> np.ndarray:
    """Boolean F[b, d]: some colouring of the depth-m tree has b black
    nodes and d dichromatic edges; boolean convolutions by FFT."""
    tab = [np.zeros((2, 1), dtype=bool) for _ in (0, 1)]
    tab[0][0, 0] = True
    tab[1][1, 0] = True
    for _ in range(m):
        rows, cols = tab[0].shape
        nxt = []
        for c in (0, 1):
            hang = np.zeros((rows, cols + 1))
            hang[:, :cols] += tab[c]
            hang[:, 1:] += tab[1 - c]
            conv = _fft_convolve(hang, hang) > 0.5
            grown = np.zeros((2 * rows, conv.shape[1]), dtype=bool)
            grown[c:c + conv.shape[0]] = conv
            nxt.append(grown)
        tab = nxt
    return tab[0] | tab[1]


def default_params() -> dict:
    """The documented defaults of the volume model, as floats."""
    v0 = 2 * math.pi ** 2
    mu = v0 / 20
    return {"V0": v0, "mu": mu, "tau": 1.5 * mu, "alpha": (v0 - 3 * mu) / 5,
            "rel_isop_C": 1, "iso_C": 1, "C3": 1}


def read_params(path: Path) -> dict:
    """``key = value`` file; ints and p/q stay exact, the rest is float."""
    params = default_params()
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, text = (part.strip() for part in line.partition("="))
        if re.fullmatch(r"-?\d+", text):
            params[key] = int(text)
        elif "/" in text:
            params[key] = Fraction(text)
        else:
            params[key] = float(text)
    return params


class Layout:
    """Trace columns: regions of nodes 1..n, then tubes into nodes 2..n."""

    def __init__(self, m: int, params: dict) -> None:
        self.m = m
        self.n = 2 ** (m + 1) - 1
        self.first_leaf = 2 ** m
        degree = [2] + [3] * (self.first_leaf - 2) + [1] * self.first_leaf
        regions = [float(params["V0"] - d * params["mu"]) for d in degree]
        self.caps = np.array(regions + [float(params["tau"])] * (self.n - 1))

    def region(self, node: int) -> int:
        return node - 1

    def tube(self, child: int) -> int:
        return self.n + child - 2


def _snap_ceil(x: float) -> int:
    return max(1, int(math.ceil(x - 1e-9)))


def _postorder(layout: Layout, v: int) -> list[int]:
    """Columns of the subtree of v: each child subtree then its tube, the
    region of v last."""
    if v >= layout.first_leaf:
        return [layout.region(v)]
    out: list[int] = []
    for u in (2 * v, 2 * v + 1):
        out += _postorder(layout, u)
        out.append(layout.tube(u))
    out.append(layout.region(v))
    return out


def trace_rows(strategy: str, layout: Layout, delta: float, seed: int | None):
    """Yield the rows of a trace of ``strategy``, one step at a time.

    dfs-fill fills entries in post-order (children, their tubes, then the
    parent), bfs-fill in heap order with each tube before its region, both
    in equal steps of at most delta; uniform scales the full vector
    linearly; random-monotone adds uniform(0.25, 1)*delta per entry per
    step, clipped at capacity, from numpy's default generator.
    """
    caps = layout.caps
    if strategy == "uniform":
        parts = _snap_ceil(float(caps.sum()) / delta)
        for f in np.linspace(0.0, 1.0, parts + 1):
            yield f * caps
        return
    if strategy == "random-monotone":
        rng = np.random.default_rng(seed)
        row = np.zeros(caps.size)
        yield row
        while np.any(row < caps):
            row = np.minimum(row + rng.uniform(0.25, 1.0, caps.size) * delta, caps)
            yield row
        return
    if strategy == "dfs-fill":
        order = _postorder(layout, 1)
    else:  # bfs-fill
        order = [layout.region(1)]
        for child in range(2, layout.n + 1):
            order += [layout.tube(child), layout.region(child)]
    row = np.zeros(caps.size)
    yield row
    for entry in order:
        cap = float(caps[entry])
        parts = _snap_ceil(cap / delta)
        for j in range(1, parts + 1):
            row = row.copy()
            row[entry] = cap * j / parts
            yield row


def scan_trace(rows, layout: Layout, alpha: float, delta: float, a: int):
    """One pass over a trace: check it starts empty, ends full, stays in
    [0, capacity] and moves by at most delta per step; return the row
    count, the least step with at least ``a`` leaves at or above alpha,
    and that step's row."""
    caps = layout.caps
    tol = 1e-9 * max(1.0, float(caps.max()))
    leaves = slice(layout.first_leaf - 1, layout.n)
    prev = None
    t0 = row_t0 = None
    count = 0
    for step, row in enumerate(rows):
        if step == 0:
            _expect(np.abs(row).max() <= tol, "trace does not start empty")
        _expect(row.min() >= -tol and (row <= caps + tol).all(),
                f"trace step {step} leaves [0, capacity]")
        if prev is not None:
            _expect(np.abs(row - prev).max() <= delta + tol,
                    f"trace step {step} moves more than delta")
        if t0 is None and int((row[leaves] >= alpha).sum()) >= a:
            t0, row_t0 = step, row.copy()
        prev = row
        count += 1
    _expect(prev is not None and np.abs(prev - caps).max() <= tol, "trace does not end full")
    _expect(t0 is not None, "no step has a(m) leaves at or above alpha")
    return count, t0, row_t0


def greedy_matching(edges: list[tuple[int, int]]) -> int:
    """Maximum matching of a forest of heap edges: children before parents
    (decreasing child index), match an edge whenever both ends are free."""
    used: set[int] = set()
    size = 0
    for parent, child in sorted(edges, key=lambda e: -e[1]):
        if parent not in used and child not in used:
            used.update((parent, child))
            size += 1
    return size


def parse_dot(text: str, m: int) -> tuple[np.ndarray, set[tuple[int, int]]]:
    """Colours (index = node) and bold edges of a witness DOT file; every
    node and every heap edge must appear exactly once."""
    n = 2 ** (m + 1) - 1
    lines = text.splitlines()
    _expect(lines[:2] == ["graph dichromat {",
                          "  node [shape=circle, style=filled, fillcolor=white];"]
            and lines[-1] == "}", "DOT header or footer is malformed")
    colour = np.full(n + 1, -1)
    bold: set[tuple[int, int]] = set()
    edges_seen: set[int] = set()
    for line in lines[2:-1]:
        node = re.fullmatch(r"  (\d+)( \[fillcolor=black, fontcolor=white\])?;", line)
        edge = re.fullmatch(r"  (\d+) -- (\d+)( \[style=bold, penwidth=2\.5\])?;", line)
        if node:
            v = int(node.group(1))
            _expect(1 <= v <= n and colour[v] == -1, f"DOT node {v} is bad or repeated")
            colour[v] = 1 if node.group(2) else 0
        elif edge:
            p, c = int(edge.group(1)), int(edge.group(2))
            _expect(2 <= c <= n and p == c // 2 and c not in edges_seen,
                    f"DOT edge {p} -- {c} is not a new heap edge")
            edges_seen.add(c)
            if edge.group(3):
                bold.add((p, c))
        else:
            raise CheckError(f"DOT line not understood: {line!r}")
    _expect((colour[1:] >= 0).all() and len(edges_seen) == n - 1,
            "DOT misses nodes or edges")
    return colour, bold


# ---------------------------------------------------------------------------
# per-command checks


def _check_profile(doc_or_csv: str, opts: dict[str, str], ctx: Context) -> None:
    kind = opts["--kind"]
    m = int(opts["-m"])
    if opts.get("--format") == "json":
        doc = json.loads(doc_or_csv)
        ctx.validate_json(doc)
        _expect(doc["kind"] == kind and doc["m"] == m, "profile echoes wrong kind or m")
        pairs = [tuple(p) for p in doc["profile"]]
    else:
        rows = list(csv.reader(doc_or_csv.splitlines()))
        _expect(rows[0] == ["b" if kind == "node" else "t", "min_d"], "bad CSV header")
        pairs = [(int(i), int(v)) for i, v in rows[1:]]
    n = 2 ** (m + 1) - 1
    span = range(1, n + 1) if kind == "node" else range(0, 2 ** m + 1)
    _expect([i for i, _ in pairs] == list(span), f"{kind} profile indices are not {span}")
    values = np.array(([0] if kind == "node" else []) + [v for _, v in pairs])
    # colour swap maps count x to (total - x) with the same dichromatic edges
    _expect((values == values[::-1]).all(), f"{kind} profile breaks colour-swap symmetry")
    _expect(np.abs(np.diff(values)).max() <= 1, f"{kind} profile has a step above 1")
    _expect(values.min() >= 0 and values[-1] == 0, f"{kind} profile has a bad endpoint")
    if kind == "leaf":
        _expect(values[a_of_m(m)] >= (m + 1) // 2, "leaf profile at a(m) is below ceil(m/2)")
    oracle_cap = ORACLE_NODE_MAX_M if kind == "node" else ORACLE_LEAF_MAX_M
    if m <= oracle_cap:
        from dichromat import oracle

        if kind == "node":
            full = oracle.enumerate_full(m)
            brute = [0] + [full.min_d_by_b[b] for b in range(1, n + 1)]
        else:
            brute = [oracle.enumerate_leaf_constrained(m, t)[0] for t in span]
        _expect(values.tolist() == brute, f"{kind} profile differs from brute force")
    (ctx.node if kind == "node" else ctx.leaf)[m] = values


def _check_verify(doc: dict, opts: dict[str, str], ctx: Context) -> None:
    which = opts["--which"]
    m = int(opts["-m"])
    _expect(doc["which"] == which and doc["m"] == m, "verify echoes wrong arguments")
    _expect(doc["holds"] is True, f"verify {which} reports that the bound fails")
    if which == "lemma22":
        table = ctx.feasible(m)
        ratios = [
            int(table[1:, d].sum()) / ((2 ** d) * (m ** d)) for d in range(table.shape[1])
        ]
        expected, bound = max(ratios), 1.0
    elif which == "thm27":
        expected, bound = int(ctx.profile("leaf", m)[a_of_m(m)]), (m + 1) // 2
    elif which in ("lipschitz_node", "lipschitz_leaf"):
        values = ctx.profile(which.split("_")[1], m)
        values = values[1:] if which == "lipschitz_node" else values
        expected, bound = int(np.abs(np.diff(values)).max()), 1
    else:  # cor25
        values = ctx.profile("node", m)[1:]
        b_star = int(np.argmax(values))
        b = np.arange(values.size)
        expected, bound = int((values - (values[b_star] - np.abs(b - b_star))).min()), 0
    _expect(_close(doc["computed"], expected) and doc["bound"] == bound,
            f"verify {which}: computed {doc['computed']} / bound {doc['bound']}, "
            f"recomputed {expected} / {bound}")


def _check_width(doc: dict, opts: dict[str, str], ctx: Context) -> None:
    m = int(opts["-m"])
    c = default_params()["rel_isop_C"]
    a = a_of_m(m)
    leaf_value = int(ctx.profile("leaf", m)[a])
    paper = Fraction(c * ((m + 1) // 2), 5)
    _expect(doc["a"] == a and doc["leaf_value"] == leaf_value,
            "width-bound: a or leaf_value disagrees with a(m) and the leaf profile")
    _expect(doc["paper_bound"] == _printed(paper), "width-bound: paper bound is not C*ceil(m/2)/5")
    certified = _quantity(doc["certified_bound"])
    _expect(certified >= paper, "width-bound: certified bound is below the paper bound")
    _expect(certified == c * -(-leaf_value // 5), "width-bound: certified != C*ceil(leaf/5)")


def _check_iso(doc: dict, opts: dict[str, str], ctx: Context) -> None:
    m = int(opts["-m"])
    p = default_params()
    values = ctx.profile("node", m)[1:]
    b_star, k = int(np.argmax(values)) + 1, int(values.max())
    denom = p["V0"] + p["tau"] - 2 * p["mu"]
    offset = abs(p["tau"] - 2 * p["mu"])

    def f(length: float) -> float:
        c2 = ((p["iso_C"] * length) ** 1.5 + offset) / denom
        return p["C3"] * (k - c2) / 5 - length

    _expect(doc["k"] == k and doc["b_star"] == b_star, "iso-bound: k or b_star is not the node-profile peak")
    _expect(_close(doc["v_m"], b_star * denom), "iso-bound: v_m != b_star*(V0 + tau - 2 mu)")
    _expect(doc["vacuous"] is (f(0.0) <= 0), "iso-bound: vacuous flag is wrong")
    length, width = doc["L_star"], doc["bracket_width"]
    _expect(0 <= width <= BISECTION_WIDTH, "iso-bound: bracket wider than 1e-9")
    # 12 printed digits move L* by up to 5e-13 relative; f has slope about -1
    _expect(f(length) >= -2 * PRINT_REL * max(1.0, length), "iso-bound: f(L*) < 0")
    _expect(f(length + width + BISECTION_WIDTH) < 0, "iso-bound: L* is not near the supremum")
    _expect(_close(doc["residual"], f(length), 1e-9), "iso-bound: residual != f(L*)")


def _check_dot(text: str, opts: dict[str, str], ctx: Context) -> None:
    m = int(opts["-m"])
    which, index = opts["--witness"].split("=")
    index = int(index)
    colour, bold = parse_dot(text, m)
    n = colour.size - 1
    counted = colour[1:] if which == "b" else colour[2 ** m:]
    _expect(int(counted.sum()) == index, f"witness {which}={index} has {int(counted.sum())} black")
    dichromatic = {(c // 2, c) for c in range(2, n + 1) if colour[c] != colour[c // 2]}
    _expect(bold == dichromatic, "witness bold edges are not the dichromatic edges")
    value = int(ctx.profile("node" if which == "b" else "leaf", m)[index])
    _expect(len(dichromatic) == value,
            f"witness {which}={index} has {len(dichromatic)} dichromatic edges, profile says {value}")


def _check_bset(doc: dict, opts: dict[str, str], ctx: Context) -> None:
    m = int(opts["-m"])
    d = int(opts["-d"])
    n = 2 ** (m + 1) - 1
    members = doc["members"]
    _expect(doc["m"] == m and doc["d"] == d, "bset echoes wrong arguments")
    _expect(members == sorted(set(members)) and all(1 <= b <= n for b in members),
            "bset members are not sorted distinct counts in 1..n")
    chosen = set(members)
    _expect(all(n - b in chosen for b in members if b < n),
            "bset breaks b in B <=> n-b in B")
    profile = own_node_profile(m)
    _expect(all(profile[b] <= d for b in members), "a bset member has node_profile[b] > d")
    _expect(all(b in chosen for b in range(1, n + 1) if profile[b] == d),
            "some b with node_profile[b] == d is missing from the bset")
    bound = (2 ** d) * (m ** d)
    _expect(doc["bound"] == bound and doc["cardinality"] == len(members) <= bound,
            "bset cardinality or bound is wrong")
    table = ctx.feasible(m)
    expected = [b for b in range(1, n + 1) if table[b, d]]
    _expect(members == expected, "bset differs from the FFT feasible-pairs table")
    if m <= ORACLE_NODE_MAX_M:
        from dichromat import oracle

        _expect(tuple(members) == oracle.enumerate_full(m).bset(d), "bset differs from brute force")


def _check_sweepout(doc: dict, opts: dict[str, str], ctx: Context) -> None:
    m = int(opts["-m"])
    strategy = opts["--strategy"]
    seed = None if "--seed" not in opts else int(opts["--seed"])
    params_file = opts.get("--params")
    params = default_params() if params_file is None else read_params(ctx.root / params_file)
    layout = Layout(m, params)
    alpha = float(params["alpha"])
    delta = alpha / 4
    a = a_of_m(m)
    _expect(doc["m"] == m and doc["strategy"] == strategy and doc["seed"] == seed,
            "sweepout echoes wrong arguments")
    _expect(_close(doc["delta"], delta), "sweepout delta is not alpha/4")
    steps, t0, row = scan_trace(trace_rows(strategy, layout, delta, seed), layout, alpha, delta, a)
    _expect(doc["steps"] == steps, f"sweepout reports {doc['steps']} steps, trace has {steps}")
    _expect(doc["t0"] == t0, f"sweepout t0 {doc['t0']} is not the least step, {t0}")

    n = layout.n
    colour = np.zeros(n + 1, dtype=int)
    black = doc["black_nodes"]
    _expect(all(1 <= v <= n for v in black), "black node out of range")
    colour[black] = 1
    volume = np.concatenate(([np.nan], row[:n]))  # region volume by node
    leaves = np.arange(layout.first_leaf, n + 1)
    black_leaf = colour[leaves] == 1
    _expect(int(black_leaf.sum()) == a, "the slice colouring does not have a(m) black leaves")
    _expect((volume[leaves[black_leaf]] >= alpha).all(), "a black leaf is below alpha at t0")
    _expect((volume[leaves[~black_leaf]] <= alpha + delta).all(),
            "a white leaf exceeds alpha + delta at t0")
    internal = np.arange(1, layout.first_leaf)
    _expect((colour[internal] == (volume[internal] >= alpha)).all(),
            "an internal node is not black exactly when its volume reaches alpha")

    caps = layout.caps
    children = np.arange(2, n + 1)
    sandwich = []
    for c in children[colour[children] != colour[children // 2]].tolist():
        cols = (layout.region(c // 2), layout.region(c), layout.tube(c))
        occupied = float(sum(row[i] for i in cols))
        total = float(sum(caps[i] for i in cols))
        if alpha <= occupied <= total - alpha:
            sandwich.append((c // 2, c))
    _expect([tuple(p) for p in doc["sandwich_pairs"]] == sandwich,
            "sandwich pairs differ from the ones the trace numbers give")
    count = greedy_matching(sandwich)
    _expect(doc["disjoint_count"] == count,
            f"disjoint_count {doc['disjoint_count']} is not the greedy maximum matching, {count}")
    c_rel = params["rel_isop_C"]
    paper = Fraction(c_rel) * Fraction((m + 1) // 2, 5)
    _expect(doc["paper_bound"] == _printed(paper), "sweepout paper bound is not C*ceil(m/2)/5")
    area = _quantity(doc["certified_area"])
    _expect(area == c_rel * count, "certified_area != rel_isop_C * disjoint_count")
    _expect(area >= paper and doc["meets_paper_bound"] is True,
            "certified area is below the paper bound")


def _check_csv(doc: dict, query: Query, ctx: Context, path: Path) -> None:
    _expect(doc["read"] == doc["written"] and doc["read_shape"] == doc["shape"],
            "CSV round trip returned a different array")
    params = default_params()
    layout = Layout(query.m, params)
    delta = float(params["alpha"]) / 4
    _expect(_close(doc["step_bound"], delta, 1e-15), "CSV trace step bound is not alpha/4")
    expected = np.array(list(trace_rows("dfs-fill", layout, delta, None)))
    text = path.read_text()
    _expect(hashlib.sha256(text.encode()).hexdigest() == doc["csv"],
            "saved CSV text is not the text of the round trip")
    rows = list(csv.reader(text.splitlines()))
    _expect(rows[0] == ["step", "entry", "volume"], "CSV header is wrong")
    ids = [f"node:{i}" for i in range(1, layout.n + 1)] + [f"tube:{c}" for c in range(2, layout.n + 1)]
    col = {ident: i for i, ident in enumerate(ids)}
    parsed = np.full(expected.shape, np.nan)
    _expect(len(rows) - 1 == parsed.size, "CSV does not hold one line per step and entry")
    for step, ident, value in rows[1:]:
        parsed[int(step), col[ident]] = float(value)
    _expect(np.array_equal(parsed, expected), "CSV content differs from the dfs-fill trace")
    _expect(hashlib.sha256(parsed.tobytes()).hexdigest() == doc["written"],
            "CSV content differs from the array that was written")


_JSON_CHECKS = {
    "verify": _check_verify,
    "width-bound": _check_width,
    "iso-bound": _check_iso,
    "bset": _check_bset,
    "sweepout": _check_sweepout,
}


def check_repeats(query: Query, outputs: list[str]) -> None:
    """Every sample of a query must print the same bytes."""
    if any(out != outputs[0] for out in outputs):
        raise CheckError(f"{query.name}: repeated samples print different stdout")


def check(query: Query, stdout: str, ctx: Context, csv_path: Path | None = None) -> None:
    """Raise `CheckError` unless ``stdout`` is a correct answer to ``query``."""
    try:
        if query.kind == "csv":
            _check_csv(json.loads(stdout), query, ctx, csv_path)
            return
        command, args = query.argv[0], query.argv[1:]
        opts = dict(zip(args[::2], args[1::2]))  # every query is flag/value pairs
        if command == "profile":
            _check_profile(stdout, opts, ctx)
        elif command == "export-dot":
            _check_dot(stdout, opts, ctx)
        else:
            doc = json.loads(stdout)
            ctx.validate_json(doc)
            _expect(doc["command"] == command, "output names another command")
            _JSON_CHECKS[command](doc, opts, ctx)
    except CheckError as exc:
        raise CheckError(f"{query.name}: {exc}") from None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"{query.name}: malformed answer ({type(exc).__name__}: {exc})") from None
