"""Discrete sweepout traces over a region graph and slice certificates.

A trace records, step by step, how much volume a growing set occupies in
every spherical region and every tube.  Steps are column vectors over the
layout ``[regions 1..n, tubes into 2..n]``; a valid trace starts empty,
ends full, stays inside the capacities, and moves every entry by at most
``step_bound`` per step.  That step bound is the discrete stand-in for
continuity: when the special slice is reached, at most ``a - 1`` leaves
can sit more than one step above the threshold, because one step earlier
fewer than ``a`` of them had reached it at all.

The certificate logic re-checks every claimed volume sandwich directly
against the trace numbers; nothing is trusted from the coloring step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .bounds import a_of_m
from .dp import _max_matching
from .errors import (
    AdmissibilityError,
    CapacityError,
    InvalidParameterError,
    TraceError,
)
from .metric import BlockParams, Number, RegionGraph, region_graph
from .tree import BLACK, WHITE, Coloring, EdgeSet, coloring_from_bits, count_dichromatic

STRATEGIES = ("dfs-fill", "bfs-fill", "uniform", "random-monotone")

# Largest dense (steps x entries) float64 table `generate_trace` builds.
# Validation needs a few temporaries of the same size on top of it.
TRACE_BYTES_CAP = 512 * 2**20


def _ceil_snap(x: float) -> int:
    """ceil with a 1e-9 snap so counts like total/delta == 1000.0000000001
    do not round up a whole extra step."""
    return max(1, int(math.ceil(x - 1e-9)))


def capacities(graph: RegionGraph) -> np.ndarray:
    """Float capacity vector in trace column order."""
    caps = [float(v) for v in graph.node_volumes] + [float(v) for v in graph.edge_volumes]
    return np.asarray(caps, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SweepoutTrace:
    """An immutable (steps x entries) volume table plus its step bound."""

    graph: RegionGraph
    steps: np.ndarray = field(repr=False)
    step_bound: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.steps, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "steps", arr)
        if self.step_bound <= 0:
            raise InvalidParameterError("step_bound must be positive")

    @property
    def entry_count(self) -> int:
        return 2 * self.graph.tree.node_count - 1

    def region_col(self, node: int) -> int:
        return node - 1

    def tube_col(self, child: int) -> int:
        return self.graph.tree.node_count + child - 2

    @property
    def leaf_cols(self) -> slice:
        tree = self.graph.tree
        return slice(tree.first_leaf - 1, tree.node_count)

    def entry_ids(self) -> list[str]:
        tree = self.graph.tree
        return [f"node:{i}" for i in range(1, tree.node_count + 1)] + [
            f"tube:{c}" for c in range(2, tree.node_count + 1)
        ]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    step: int | None = None


def validate_trace(trace: SweepoutTrace, rel_tol: float = 1e-9) -> ValidationReport:
    """Check shape, empty start, full end, capacity range, and step bound.

    Reports the first violating step; comparisons use a relative
    tolerance so float-built traces do not trip on rounding dust.
    """
    steps = trace.steps
    caps = capacities(trace.graph)
    if steps.ndim != 2 or steps.shape[1] != trace.entry_count or steps.shape[0] < 2:
        return ValidationReport(
            False,
            f"expected shape (>=2, {trace.entry_count}), got {steps.shape}",
            None,
        )
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
        return ValidationReport(True)
    step, message = min(violations, key=lambda v: v[0])
    return ValidationReport(False, message, step)


def find_special_slice(trace: SweepoutTrace, a: int) -> int:
    """Least step where at least ``a`` leaf regions hold volume >= alpha.

    Admissibility is enforced, not assumed: at that step, at most
    ``a - 1`` leaves may exceed alpha by more than one step bound.  For a
    valid trace this always holds (one step earlier, fewer than ``a``
    leaves had reached alpha); a violation therefore means the trace
    breaks its own declared step bound.
    """
    leaf_count = trace.graph.tree.leaf_count
    if not isinstance(a, int) or not 1 <= a <= leaf_count:
        raise InvalidParameterError(f"a must lie in 1..{leaf_count}, got {a!r}")
    alpha = float(trace.graph.params.alpha)
    leaf_vols = trace.steps[:, trace.leaf_cols]
    counts = (leaf_vols >= alpha).sum(axis=1)
    hits = np.flatnonzero(counts >= a)
    if hits.size == 0:
        raise TraceError("no step reaches the threshold on enough leaves; "
                         "is the trace complete?")
    t0 = int(hits[0])
    strict = int((leaf_vols[t0] > alpha + trace.step_bound).sum())
    if strict > a - 1:
        raise AdmissibilityError(
            f"{strict} leaves already exceed alpha + step_bound at step {t0}; "
            "regenerate the trace with a finer step_bound "
            "(delta <= alpha/4 is always safe)"
        )
    return t0


def induce_coloring(trace: SweepoutTrace, t0: int, a: int) -> Coloring:
    """Color exactly ``a`` leaves black at slice ``t0``.

    Black leaves are picked among those at or above alpha: leaves more
    than one step bound past alpha first (no valid slice may leave one
    of those white, and at most ``a - 1`` exist), then the remaining
    strict exceedances, then exact hits, each tier by index.  Internal
    nodes are black exactly when their region volume is at least alpha.
    Every white leaf is checked to sit at most one step bound above
    alpha; a failure is an admissibility violation and raised as such.
    """
    tree = trace.graph.tree
    if not 0 <= t0 < trace.steps.shape[0]:
        raise InvalidParameterError(f"t0={t0} outside the trace")
    if not isinstance(a, int) or not 1 <= a <= tree.leaf_count:
        raise InvalidParameterError(f"a must lie in 1..{tree.leaf_count}, got {a!r}")
    alpha = float(trace.graph.params.alpha)
    row = trace.steps[t0]
    leaf_vols = row[trace.leaf_cols]

    margin = alpha + trace.step_bound
    locked = [int(i) for i in np.flatnonzero(leaf_vols > margin)]
    strict = [int(i) for i in np.flatnonzero((leaf_vols > alpha) & (leaf_vols <= margin))]
    level = [int(i) for i in np.flatnonzero(leaf_vols == alpha)]
    chosen = (locked + strict + level)[:a]
    if len(chosen) < a:
        raise TraceError(f"only {len(chosen)} leaves reach alpha at step {t0}")

    bits = np.zeros(tree.node_count, dtype=np.uint8)
    for offset in chosen:
        bits[tree.first_leaf - 1 + offset] = BLACK
    internal_vols = row[: tree.first_leaf - 1]
    bits[: tree.first_leaf - 1] = np.where(internal_vols >= alpha, BLACK, WHITE)

    white_leaves = leaf_vols[bits[trace.leaf_cols] == WHITE]
    if white_leaves.size and white_leaves.max() > alpha + trace.step_bound:
        raise AdmissibilityError(
            f"a white leaf holds {white_leaves.max():.6g} > alpha + step_bound "
            f"at step {t0}; regenerate the trace with a finer step_bound"
        )
    return coloring_from_bits(tree, bits)


@dataclass(frozen=True)
class SliceCertificate:
    """Verified output of `certify`.

    ``sandwich_regions`` lists every dichromatic neighbor pair whose
    two-region-plus-tube neighborhood satisfies
    alpha <= occupied volume <= total volume - alpha at the slice;
    ``disjoint_count`` is the exact maximum number of vertex-disjoint
    pairs among them and ``certified_area = rel_isop_C * disjoint_count``.
    """

    t0: int
    coloring: Coloring
    sandwich_regions: EdgeSet
    disjoint_count: int
    certified_area: Number


def certify(trace: SweepoutTrace, params: BlockParams) -> SliceCertificate:
    """Find the special slice, induce its coloring, and certify the area.

    ``params`` must be the parameters the trace's region graph was built
    with; alpha and rel_isop_C are read from it.  Each candidate pair is
    re-checked numerically against the trace row, independently of how
    the coloring was derived.
    """
    tree = trace.graph.tree
    a = a_of_m(tree.m)
    t0 = find_special_slice(trace, a)
    coloring = induce_coloring(trace, t0, a)
    _, dichromatic = count_dichromatic(coloring)

    alpha = float(params.alpha)
    row = trace.steps[t0]
    caps = capacities(trace.graph)
    verified = []
    for parent, child in dichromatic:
        cols = (trace.region_col(parent), trace.region_col(child), trace.tube_col(child))
        occupied = float(sum(row[c] for c in cols))
        total = float(sum(caps[c] for c in cols))
        if alpha <= occupied <= total - alpha:
            verified.append((parent, child))

    count, _ = _max_matching(tree, EdgeSet(tuple(verified)))
    return SliceCertificate(
        t0=t0,
        coloring=coloring,
        sandwich_regions=EdgeSet(tuple(verified)),
        disjoint_count=count,
        certified_area=params.rel_isop_C * count,
    )


# ---------------------------------------------------------------------------
# trace generation


def _sequential_fill(caps: np.ndarray, order: Iterable[int], delta: float) -> np.ndarray:
    """Fill entries one at a time in ``order`` with equal sub-delta steps."""
    schedule: list[tuple[int, float]] = []
    for entry in order:
        parts = _ceil_snap(float(caps[entry]) / delta)
        for j in range(1, parts + 1):
            schedule.append((entry, float(caps[entry]) * j / parts))
    steps = np.zeros((len(schedule) + 1, caps.size))
    current = np.zeros(caps.size)
    for r, (entry, value) in enumerate(schedule, start=1):
        current[entry] = value
        steps[r] = current
    return steps


def _postorder_entries(trace_layout: SweepoutTrace) -> list[int]:
    tree = trace_layout.graph.tree

    def walk(v: int) -> list[int]:
        if tree.is_leaf(v):
            return [trace_layout.region_col(v)]
        out: list[int] = []
        for u in tree.children(v):
            out.extend(walk(u))
            out.append(trace_layout.tube_col(u))
        out.append(trace_layout.region_col(v))
        return out

    return walk(1)


def generate_trace(
    strategy: str,
    m: int,
    params: BlockParams,
    delta: float | None = None,
    seed: int | None = None,
) -> SweepoutTrace:
    """Build a valid trace; see `STRATEGIES` for the fill orders.

    ``delta`` defaults to alpha/4, which keeps every strategy admissible.
    ``seed`` only affects ``random-monotone``; for a fixed seed the trace
    is bit-for-bit reproducible.  Raises `CapacityError` before allocating
    when the table could exceed `TRACE_BYTES_CAP`.
    """
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
        )
    graph = region_graph(m, params)
    caps = capacities(graph)
    if delta is None:
        delta = float(params.alpha) / 4
    delta = float(delta)
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")

    if strategy == "uniform":
        rows = _ceil_snap(float(caps.sum()) / delta) + 1
    elif strategy == "random-monotone":
        # every step raises each entry not yet full by at least delta/4
        rows = math.ceil(float(caps.max()) / (0.25 * delta)) + 1
    else:
        rows = sum(_ceil_snap(float(c) / delta) for c in caps) + 1
    size = rows * caps.size * 8
    if size > TRACE_BYTES_CAP:
        raise CapacityError(
            f"{strategy} trace at m={m} needs up to {rows} x {caps.size} entries "
            f"({size / 2**20:.0f} MiB), above the {TRACE_BYTES_CAP // 2**20} MiB "
            "trace cap; use a smaller m or a larger delta"
        )

    # layout probe: column helpers only need the graph
    layout = SweepoutTrace(graph=graph, steps=np.zeros((2, caps.size)), step_bound=delta)

    if strategy == "uniform":
        fractions = np.linspace(0.0, 1.0, rows)
        steps = fractions[:, None] * caps[None, :]
    elif strategy == "dfs-fill":
        steps = _sequential_fill(caps, _postorder_entries(layout), delta)
    elif strategy == "bfs-fill":
        order = [layout.region_col(1)]
        for child in range(2, graph.tree.node_count + 1):
            order.append(layout.tube_col(child))
            order.append(layout.region_col(child))
        steps = _sequential_fill(caps, order, delta)
    else:  # random-monotone
        rng = np.random.default_rng(seed)
        rows = [np.zeros(caps.size)]
        while np.any(rows[-1] < caps):
            inc = rng.uniform(0.25, 1.0, caps.size) * delta
            rows.append(np.minimum(rows[-1] + inc, caps))
        steps = np.vstack(rows)

    return SweepoutTrace(graph=graph, steps=steps, step_bound=delta)


# ---------------------------------------------------------------------------
# serialization


def trace_write_csv(trace: SweepoutTrace, target: str | Path | IO[str]) -> None:
    """Line-oriented CSV: step index, entry id, volume (shortest exact float)."""
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        ids = trace.entry_ids()
        fh.write("step,entry,volume\n")
        for s in range(trace.steps.shape[0]):
            row = trace.steps[s]
            for e, ident in enumerate(ids):
                fh.write(f"{s},{ident},{row[e].item()!r}\n")
    finally:
        if own:
            fh.close()


def trace_read_csv(
    source: str | Path | IO[str], graph: RegionGraph, step_bound: float
) -> SweepoutTrace:
    """Inverse of `trace_write_csv` for the given region graph."""
    own = isinstance(source, (str, Path))
    fh = open(source) if own else source
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()
    if not lines or lines[0] != "step,entry,volume":
        raise TraceError("missing 'step,entry,volume' header")
    probe = SweepoutTrace(
        graph=graph, steps=np.zeros((2, 2 * graph.tree.node_count - 1)),
        step_bound=step_bound,
    )
    col_of = {ident: i for i, ident in enumerate(probe.entry_ids())}
    cells: dict[tuple[int, int], float] = {}
    max_step = -1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            step_text, ident, value_text = line.split(",")
            step = int(step_text)
            col = col_of[ident]
            value = float(value_text)
        except (ValueError, KeyError) as exc:
            raise TraceError(f"line {lineno}: bad record {line!r}") from exc
        cells[(step, col)] = value
        max_step = max(max_step, step)
    steps = np.zeros((max_step + 1, len(col_of)))
    if len(cells) != steps.size:
        raise TraceError("missing entries: trace table is not dense")
    for (step, col), value in cells.items():
        steps[step, col] = value
    return SweepoutTrace(graph=graph, steps=steps, step_bound=step_bound)
