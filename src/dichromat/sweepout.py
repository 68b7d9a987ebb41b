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
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .bounds import a_of_m
from .errors import (
    AdmissibilityError,
    CapacityError,
    InvalidParameterError,
    TraceError,
)
from .metric import BlockParams, Number, RegionGraph, region_graph
from .tree import (
    BLACK,
    WHITE,
    Coloring,
    EdgeSet,
    coloring_from_bits,
    dichromatic_children,
    max_matching,
)

STRATEGIES = ("dfs-fill", "bfs-fill", "uniform", "random-monotone")

# Largest dense (steps x entries) float64 table `generate_trace` builds.
# Nothing downstream copies it: validation walks it in blocks of
# `_BLOCK_CELLS` cells, so peak memory stays about one table.
TRACE_BYTES_CAP = 512 * 2**20

_BLOCK_CELLS = 1 << 18
_REL_TOL = 1e-9  # `validate_trace` tolerance, relative to the largest capacity

_CSV_HEADER = "step,entry,volume"
_CSV_CHUNK = 1 << 19  # characters read and parsed per block by `trace_read_csv`
# every character `str.splitlines` breaks a line at
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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
        if not 0 < self.step_bound < math.inf:
            raise InvalidParameterError(
                f"step_bound must be finite and positive, got {self.step_bound}"
            )
        arr = np.asarray(self.steps, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "steps", arr)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    step: int | None = None


def validate_trace(trace: SweepoutTrace) -> ValidationReport:
    """Check shape, empty start, full end, capacity range, and step bound.

    Reports the first violating step; comparisons use a relative
    tolerance so float-built traces do not trip on rounding dust.  A
    non-finite volume is an entry outside [0, capacity].  At one
    step the checks rank in the order listed.  The table is read in row
    blocks of about `_BLOCK_CELLS` cells, each overlapping the previous
    one by a row for the step differences, so the extra memory does not
    grow with the trace.
    """
    steps = trace.steps
    caps = trace.graph.capacities
    if steps.ndim != 2 or steps.shape[1] != trace.graph.entry_count or steps.shape[0] < 2:
        return ValidationReport(
            False,
            f"expected shape (>=2, {trace.graph.entry_count}), got {steps.shape}",
            None,
        )
    tol = _REL_TOL * max(1.0, float(caps.max()))
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
        # NaN fails both comparisons, so it counts as outside
        inside = block >= -tol
        inside &= block <= high
        bad = np.flatnonzero(~inside.all(axis=1))
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
    leaf_vols = trace.steps[:, trace.graph.leaf_cols]
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
    leaf_vols = row[trace.graph.leaf_cols]

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

    white_leaves = leaf_vols[bits[trace.graph.leaf_cols] == WHITE]
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

    verified = EdgeSet(child[keep])
    count = len(max_matching(graph.tree, verified))
    return SliceCertificate(
        t0=t0,
        coloring=coloring,
        sandwich_regions=verified,
        disjoint_count=count,
        certified_area=params.rel_isop_C * count,
    )


# ---------------------------------------------------------------------------
# trace generation


def _sequential_fill(
    graph: RegionGraph, order: Iterable[int], delta: float, rows: int
) -> np.ndarray:
    """Fill entries one at a time in ``order``, each in the equal sub-delta
    steps `_class_parts` gives its class, into `_trace_rows` rows."""
    counts = [count for _, count in graph.volume_classes]
    caps, parts = graph.capacities, np.repeat(_class_parts(graph, delta), counts)
    steps = np.zeros((rows, caps.size))
    r = 0
    for entry in order:
        cap, count = float(caps[entry]), int(parts[entry])
        for j in range(1, count + 1):
            r += 1
            steps[r] = steps[r - 1]
            steps[r, entry] = cap * j / count
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


def _class_parts(graph: RegionGraph, delta: float) -> list[int]:
    """Sub-delta steps a fill takes per entry of each volume class."""
    return [_ceil_snap(float(volume) / delta) for volume, _ in graph.volume_classes]


def _trace_rows(strategy: str, graph: RegionGraph, delta: float) -> int:
    """Rows of the `strategy` trace, from the four volume classes alone.
    The fills build exactly this many and random-monotone at most this
    many; uniform counts from the float capacity sum, which can differ
    from the class sum only by rounding dust at a step boundary."""
    volumes, counts = zip(*graph.volume_classes)
    if strategy == "uniform":
        return _ceil_snap(float(graph.total_volume) / delta) + 1
    if strategy == "random-monotone":
        # every step raises each entry not yet full by at least delta/4
        return math.ceil(float(max(volumes)) / (0.25 * delta)) + 1
    return 1 + sum(n * k for n, k in zip(counts, _class_parts(graph, delta)))


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
    is bit-for-bit reproducible.  Raises `CapacityError` before any
    per-entry array exists when the table of `_trace_rows` rows, counted
    from the four volume classes, would exceed `TRACE_BYTES_CAP`.
    """
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
        )
    graph = region_graph(m, params)
    if delta is None:
        delta = float(params.alpha) / 4
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise InvalidParameterError(f"delta must be finite and positive, got {delta}")
    rows = _trace_rows(strategy, graph, delta)
    size = rows * graph.entry_count * 8
    if size > TRACE_BYTES_CAP:
        raise CapacityError(
            f"{strategy} trace at m={m} needs up to {rows} x {graph.entry_count} entries "
            f"({size / 2**20:.0f} MiB), above the {TRACE_BYTES_CAP // 2**20} MiB "
            "trace cap; use a smaller m or a larger delta"
        )
    caps = graph.capacities

    if strategy == "uniform":
        fractions = np.linspace(0.0, 1.0, _ceil_snap(float(caps.sum()) / delta) + 1)
        steps = fractions[:, None] * caps[None, :]
    elif strategy == "dfs-fill":
        steps = _sequential_fill(graph, _postorder_entries(graph), delta, rows)
    elif strategy == "bfs-fill":
        order = [graph.region_col(1)]
        for child in range(2, graph.tree.node_count + 1):
            order.append(graph.tube_col(child))
            order.append(graph.region_col(child))
        steps = _sequential_fill(graph, order, delta, rows)
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
    """Line-oriented CSV: step index, entry id, volume (shortest exact float).

    Each row reformats only the cells whose float bits changed since the
    previous row, so ``-0.0`` and NaN keep their text; row 0 is compared
    with its own complement, so all of its cells are formatted.
    """
    own = isinstance(target, (str, Path))
    fh = open(target, "w") if own else target
    try:
        prefix = [f",{ident}," for ident in trace.graph.entry_ids()]
        cells = [""] * len(prefix)
        steps = trace.steps
        bits = steps.view(np.uint64)
        prev = ~bits[0] if len(bits) else None
        fh.write(_CSV_HEADER + "\n")
        for s, row in enumerate(bits):
            changed = np.flatnonzero(row != prev).tolist()
            for i, v in zip(changed, steps[s, changed].tolist()):
                cells[i] = f"{prefix[i]}{v!r}\n"
            fh.write(str(s).join(["", *cells]))
            prev = row
    finally:
        if own:
            fh.close()


def _parse_record(line: str, col_of: dict[str, int]) -> tuple[int, int, float]:
    step_text, ident, value_text = line.split(",")
    step = int(step_text)
    if step < 0:
        raise ValueError(f"negative step {step}")
    value = float(value_text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite volume {value}")
    return step, col_of[ident], value


def _csv_blocks(fh: IO[str]) -> Iterator[list[str]]:
    """The lines ``fh.read().splitlines()`` would give, read and split a
    block of `_CSV_CHUNK` characters at a time.

    A block's unfinished last line moves on to the next block, and so
    does a last line ended by ``\\r``, which may be half of ``\\r\\n``.
    A block is at least as long as that carried line, so a line longer
    than a block is copied a bounded number of times, not once a block.
    """
    carry = ""
    while block := fh.read(max(_CSV_CHUNK, len(carry))):
        text = carry + block
        lines = text.splitlines()
        tail = text[-1]
        carry = ""
        if tail == "\r" or tail not in _LINE_BREAKS:
            carry = lines.pop() + ("\r" if tail == "\r" else "")
        yield lines
    yield carry.splitlines()


def _raise_bad_line(lines: list[str], first_lineno: int, col_of: dict[str, int]) -> None:
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.strip():
            try:
                _parse_record(line, col_of)
            except (ValueError, KeyError) as exc:
                raise TraceError(f"line {lineno}: bad record {line!r}") from exc


def trace_read_csv(
    source: str | Path | IO[str], graph: RegionGraph, step_bound: float
) -> SweepoutTrace:
    """Inverse of `trace_write_csv` for the given region graph.

    Blank lines are skipped.  Every (step, entry) cell of a dense table
    must appear exactly once, in any order; a step index is a nonnegative
    integer and a volume a finite float.  The text is read and parsed a
    block at a time, so besides the table only one block is held.
    """
    col_of = {ident: i for i, ident in enumerate(graph.entry_ids())}
    entries = len(col_of)
    flats: list[np.ndarray] = []  # step * entries + column, per block
    values: list[np.ndarray] = []
    rows = 0
    dense = True
    lineno = 0  # lines before the current block
    own = isinstance(source, (str, Path))
    fh = open(source) if own else source
    try:
        for lines in _csv_blocks(fh):
            if lineno == 0 and lines:
                if lines[0] != _CSV_HEADER:
                    raise TraceError(f"missing '{_CSV_HEADER}' header")
                del lines[0]
                lineno = 1
            records = list(filter(str.strip, lines))
            if not records:
                lineno += len(lines)
                continue
            n = len(records)
            try:
                # columns parsed at C level; a failure goes to the line
                # loop, which names the block's first bad line
                if set(map(str.count, records, repeat(","))) - {2}:
                    raise ValueError("not three fields")
                fields = ",".join(records).split(",")
                step = np.fromiter(map(int, fields[0::3]), np.int64, n)
                col = np.fromiter(map(col_of.__getitem__, fields[1::3]), np.intp, n)
                value = np.fromiter(map(float, fields[2::3]), np.float64, n)
                del fields  # before the next block is read
                if step.min() < 0 or not np.isfinite(value).all():
                    raise ValueError("negative step or non-finite volume")
            except (ValueError, KeyError, OverflowError):
                _raise_bad_line(lines, lineno + 1, col_of)
                # only a step index past int64 gets here; no such table is dense
                dense = False
            else:
                rows = max(rows, int(step.max()) + 1)
                step *= entries
                step += col
                flats.append(step)
                values.append(value)
            lineno += len(lines)
    finally:
        if own:
            fh.close()
    if lineno == 0:
        raise TraceError(f"missing '{_CSV_HEADER}' header")

    flat = np.concatenate([np.empty(0, np.int64), *flats])
    n = flat.size
    if not dense or n < rows * entries:
        raise TraceError("missing entries: trace table is not dense")
    seen = np.zeros(rows * entries, dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) < n:
        dup = int(np.flatnonzero(np.bincount(flat) > 1)[0])
        raise TraceError(
            f"duplicate record for step {dup // entries}, "
            f"entry {graph.entry_ids()[dup % entries]}"
        )
    steps = np.empty((rows, entries))
    steps.reshape(-1)[flat] = np.concatenate([np.empty(0), *values])
    return SweepoutTrace(graph=graph, steps=steps, step_bound=step_bound)
