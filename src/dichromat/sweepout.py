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
from itertools import islice, repeat
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
from .tree import BLACK, WHITE, Coloring, EdgeSet, coloring_from_bits, dichromatic_children

STRATEGIES = ("dfs-fill", "bfs-fill", "uniform", "random-monotone")

# Largest dense (steps x entries) float64 table `generate_trace` builds.
# Nothing downstream copies it: validation walks it in blocks of
# `_BLOCK_CELLS` cells, so peak memory stays about one table.
TRACE_BYTES_CAP = 512 * 2**20

_BLOCK_CELLS = 1 << 18

_CSV_HEADER = "step,entry,volume"
_CSV_CHUNK = 1 << 15  # records parsed per chunk by `trace_read_csv`


def _ceil_snap(x: float) -> int:
    """ceil with a 1e-9 snap so counts like total/delta == 1000.0000000001
    do not round up a whole extra step."""
    return max(1, int(math.ceil(x - 1e-9)))


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

    # the column layout lives on the region graph
    @property
    def entry_count(self) -> int:
        return self.graph.entry_count

    def region_col(self, node: int) -> int:
        return self.graph.region_col(node)

    def tube_col(self, child: int) -> int:
        return self.graph.tube_col(child)

    @property
    def leaf_cols(self) -> slice:
        return self.graph.leaf_cols

    def entry_ids(self) -> list[str]:
        return self.graph.entry_ids()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    step: int | None = None


def validate_trace(trace: SweepoutTrace, rel_tol: float = 1e-9) -> ValidationReport:
    """Check shape, empty start, full end, capacity range, and step bound.

    Reports the first violating step; comparisons use a relative
    tolerance so float-built traces do not trip on rounding dust.  At one
    step the checks rank in the order listed.  The table is read in row
    blocks of about `_BLOCK_CELLS` cells, each overlapping the previous
    one by a row for the step differences, so the extra memory does not
    grow with the trace.
    """
    steps = trace.steps
    caps = trace.graph.capacities
    if steps.ndim != 2 or steps.shape[1] != trace.entry_count or steps.shape[0] < 2:
        return ValidationReport(
            False,
            f"expected shape (>=2, {trace.entry_count}), got {steps.shape}",
            None,
        )
    tol = rel_tol * max(1.0, float(caps.max()))
    if np.abs(steps[0]).max() > tol:
        return ValidationReport(False, "first step is not the empty vector", 0)

    # a violation found in one block precedes everything in later blocks
    high = caps + tol
    jump_limit = trace.step_bound + tol
    rows, cols = steps.shape
    block_rows = max(1, _BLOCK_CELLS // cols)
    diff = np.empty((block_rows, cols))
    for start in range(0, rows, block_rows):
        # the window adds the previous block's last row for the differences
        lo = max(start - 1, 0)
        window = steps[lo : start + block_rows]
        block = window[start - lo :]
        violations: list[tuple[int, str]] = []
        outside = block < -tol
        outside |= block > high
        bad = np.flatnonzero(outside.any(axis=1))
        if bad.size:
            violations.append((start + int(bad[0]), "entry outside [0, capacity]"))
        jumps = np.subtract(window[1:], window[:-1], out=diff[: len(window) - 1])
        too_big = np.flatnonzero(np.abs(jumps, out=jumps).max(axis=1) > jump_limit)
        if too_big.size:
            step = lo + 1 + int(too_big[0])
            violations.append((step, f"step exceeds bound {trace.step_bound}"))
        if violations:
            step, message = min(violations, key=lambda v: v[0])
            return ValidationReport(False, message, step)
    if np.abs(steps[-1] - caps).max() > tol:
        return ValidationReport(False, "last step is not the full vector", rows - 1)
    return ValidationReport(True)


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


def certify(trace: SweepoutTrace) -> SliceCertificate:
    """Find the special slice, induce its coloring, and certify the area.

    alpha and rel_isop_C are read from the parameters the trace's region
    graph was built with.  Each candidate pair is re-checked numerically
    against the trace row, independently of how the coloring was derived.
    """
    graph = trace.graph
    params = graph.params
    a = a_of_m(graph.tree.m)
    t0 = find_special_slice(trace, a)
    coloring = induce_coloring(trace, t0, a)

    alpha = float(params.alpha)
    child = dichromatic_children(coloring)
    parent = child // 2
    cols = (graph.region_col(parent), graph.region_col(child), graph.tube_col(child))
    # summed parent region, child region, tube: the rounding the output pins
    occupied = sum(trace.steps[t0, c] for c in cols)
    total = sum(graph.capacities[c] for c in cols)
    keep = (alpha <= occupied) & (occupied <= total - alpha)

    verified = EdgeSet(tuple(zip(parent[keep].tolist(), child[keep].tolist())))
    count, _ = _max_matching(graph.tree, verified)
    return SliceCertificate(
        t0=t0,
        coloring=coloring,
        sandwich_regions=verified,
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


def _postorder_entries(graph: RegionGraph) -> list[int]:
    tree = graph.tree

    def walk(v: int) -> list[int]:
        if tree.is_leaf(v):
            return [graph.region_col(v)]
        out: list[int] = []
        for u in tree.children(v):
            out.extend(walk(u))
            out.append(graph.tube_col(u))
        out.append(graph.region_col(v))
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
    caps = graph.capacities
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

    if strategy == "uniform":
        fractions = np.linspace(0.0, 1.0, rows)
        steps = fractions[:, None] * caps[None, :]
    elif strategy == "dfs-fill":
        steps = _sequential_fill(caps, _postorder_entries(graph), delta)
    elif strategy == "bfs-fill":
        order = [graph.region_col(1)]
        for child in range(2, graph.tree.node_count + 1):
            order.append(graph.tube_col(child))
            order.append(graph.region_col(child))
        steps = _sequential_fill(caps, order, delta)
    else:  # random-monotone
        # rows past the last one written are never touched, so never resident
        rng = np.random.default_rng(seed)
        steps = np.empty((rows, caps.size))
        steps[0] = 0.0
        last = 0
        while last + 1 < rows and np.any(steps[last] < caps):
            inc = rng.uniform(0.25, 1.0, caps.size) * delta
            np.minimum(steps[last] + inc, caps, out=steps[last + 1])
            last += 1
        steps = steps[: last + 1]

    return SweepoutTrace(graph=graph, steps=steps, step_bound=delta)


# ---------------------------------------------------------------------------
# serialization


def trace_write_csv(trace: SweepoutTrace, target: str | Path | IO[str]) -> None:
    """Line-oriented CSV: step index, entry id, volume (shortest exact float)."""
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        ids = trace.entry_ids()
        fh.write(_CSV_HEADER + "\n")
        for s, row in enumerate(trace.steps):
            fh.write("".join([f"{s},{ident},{v!r}\n" for ident, v in zip(ids, row.tolist())]))
    finally:
        if own:
            fh.close()


def _parse_record(line: str, col_of: dict[str, int]) -> tuple[int, int, float]:
    step_text, ident, value_text = line.split(",")
    step = int(step_text)
    if step < 0:
        raise ValueError(f"negative step {step}")
    return step, col_of[ident], float(value_text)


def trace_read_csv(
    source: str | Path | IO[str], graph: RegionGraph, step_bound: float
) -> SweepoutTrace:
    """Inverse of `trace_write_csv` for the given region graph.

    Blank lines are skipped.  Every (step, entry) cell of a dense table
    must appear exactly once; a step index is a nonnegative integer.
    """
    own = isinstance(source, (str, Path))
    fh = open(source) if own else source
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()
    if not lines or lines[0] != _CSV_HEADER:
        raise TraceError(f"missing '{_CSV_HEADER}' header")
    records = list(filter(str.strip, islice(lines, 1, None)))
    col_of = {ident: i for i, ident in enumerate(graph.entry_ids())}
    n = len(records)
    step = np.empty(n, dtype=np.int64)
    col = np.empty(n, dtype=np.intp)
    value = np.empty(n)
    try:
        # columns parsed at C level, a chunk of records at a time; any
        # failure goes to the line loop below, which names the bad line
        if set(map(str.count, records, repeat(","))) - {2}:
            raise ValueError("not three fields")
        for start in range(0, n, _CSV_CHUNK):
            fields = ",".join(records[start : start + _CSV_CHUNK]).split(",")
            part = slice(start, start + len(fields) // 3)
            step[part] = np.fromiter(map(int, fields[0::3]), np.int64)
            col[part] = np.fromiter(map(col_of.__getitem__, fields[1::3]), np.intp)
            value[part] = np.fromiter(map(float, fields[2::3]), np.float64)
        if n and step.min() < 0:
            raise ValueError("negative step")
    except (ValueError, KeyError, OverflowError):
        for lineno, line in enumerate(lines[1:], start=2):
            if line.strip():
                try:
                    _parse_record(line, col_of)
                except (ValueError, KeyError) as exc:
                    raise TraceError(f"line {lineno}: bad record {line!r}") from exc
        # only a step index past int64 gets here, and no such table is dense
        raise TraceError("missing entries: trace table is not dense") from None
    del lines, records

    entries = len(col_of)
    rows = int(step.max()) + 1 if n else 0
    if n < rows * entries:
        raise TraceError("missing entries: trace table is not dense")
    flat = np.multiply(step, entries, out=step)
    flat += col
    seen = np.zeros(rows * entries, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) < n:
        dup = int(np.flatnonzero(np.bincount(flat) > 1)[0])
        raise TraceError(
            f"duplicate record for step {dup // entries}, "
            f"entry {graph.entry_ids()[dup % entries]}"
        )
    steps = np.empty((rows, entries))
    steps.reshape(-1)[flat] = value
    return SweepoutTrace(graph=graph, steps=steps, step_bound=step_bound)
