"""Discrete sweepout traces over a region graph and slice certificates.

A trace records, step by step, how much volume a growing set occupies in
every spherical region and every tube.  Steps are rows over the column
layout ``[regions 1..n, tubes into 2..n]``; a valid trace starts empty,
ends full, stays inside the capacities, and moves every entry by at most
``step_bound`` per step.  That step bound is the discrete stand-in for
continuity: when the special slice is reached, at most ``a - 1`` leaves
can sit more than one step above the threshold, because one step earlier
fewer than ``a`` of them had reached it at all.

A trace is read as one walk over blocks (see `SweepoutTrace`): row
blocks, which list every column of a few rows, and event blocks, which
list one (column, value) change per step.  A column's events form one
run, consecutive over the whole trace, so the step before an event its
column held the value of the event before it, or, at the head of a run,
its value in the row before the block.  The fills change one entry at a
time, so after their empty first row they are event blocks of up to
`_BLOCK_CELLS` steps, built by array arithmetic.  Uniform and
random-monotone are row blocks of about `_BLOCK_CELLS` cells, remade on
every walk: uniform from its grid of fractions, random-monotone replayed
from its seed up to its first full row, so that trace learns its row
count from the first walk that runs to the end.  No generated trace
holds, and no consumer builds, the dense steps x entries table:
validation, the special slice, the coloring, the certificate and the CSV
writer each make one pass, branch once per block on its shape, and keep
O(entries) state, the current row.  A trace holds no consumer's state:
the walk that finds the special slice returns a copy of its row, and
`certify` hands that row on to the coloring and the sandwich check.

`certify` is the one path from a trace to a certificate.  One walk
validates the trace to its last row and finds the special slice on the
way, so a trace that is no sweepout gets no certificate and a
random-monotone trace is replayed once; it re-checks every claimed
volume sandwich directly against the trace numbers, and nothing is
trusted from the coloring step.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import IO, Callable, ContextManager, Iterator

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
    is_int,
    max_matching,
)

STRATEGIES = ("dfs-fill", "bfs-fill", "uniform", "random-monotone")

# Largest float64 table a trace may need, 8 bytes a cell: the cells one
# pass over a generated trace reads, and a dense `SweepoutTrace.steps`.
# No generated trace holds those cells at once, so the cap bounds the
# work of a pass and the table `steps` builds.  Random-monotone is held
# to it like the others: a walk keeps only a block of its rows, but one
# walk still reads every cell, and `steps` still builds the whole table
# when asked.  A `sweepout` call replays its rows once; with the default
# parameters that pass took a median 0.070 s at m = 16 (47 rows) and
# 0.109 s at m = 17 (48 rows), the first walk of a fresh trace in a fresh
# process on a 2-vCPU Xeon
TRACE_BYTES_CAP = 512 * 2**20

# cells of a row block, or steps of an event block; a block of one row may
# hold more.  2**15 cells (256 KiB) keep a row block and `validate_trace`'s
# scratch of the same size inside a 2 MiB L2 cache; at 2**18 they spilled
# to L3, and uniform's validate plus certify at m = 8 took 18-22% longer.
# A fill then walks 8 times as many event blocks, 1504 a pass at m = 20,
# and its fresh-process time held or fell 4-8% at m = 14, 16 and 20
_BLOCK_CELLS = 1 << 15
_REL_TOL = 1e-9  # `validate_trace` tolerance, relative to the largest capacity

_CSV_HEADER = "step,entry,volume"
# characters read and parsed per block by `trace_read_csv`.  A block's
# first volumes are compared with the row before it, carried over from
# the block before, so the table read does not depend on the block size.
# Reading the 4 MB m = 5 dfs-fill text in blocks of 2**18 took 12% less
# time, but peaked 2 MB higher in a fresh process's RSS, and 2**19 3 MB
# higher, as the parser's freed arrays stay in the heap
_CSV_CHUNK = 1 << 17
# the bytes and the longest field of a line `trace_read_csv` reads; the
# writer's longest field is a volume's repr, at most 24 bytes
# ("-2.2250738585072014e-308"), and fields are compared by their bytes
# in whole 8-byte words
_CSV_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz:.,+-\n"
_FIELD_BYTES = 32
# characters of a bad line a refusal quotes
_QUOTE_CHARS = 80
# _FIELD_MASKS[j, w] keeps the bytes of word j that a field of w bytes fills
_FIELD_MASKS = np.array(
    [[(1 << 8 * min(max(w - j, 0), 8)) - 1 for w in range(_FIELD_BYTES + 1)]
     for j in range(0, _FIELD_BYTES, 8)],
    np.uint64,
)

# `_words` of some texts: word j of each text in row j, and their lengths
_Words = tuple[np.ndarray, np.ndarray]
# the row before a CSV block: each column's volume text in words, and its value
_Row = tuple[np.ndarray, np.ndarray]

# (first step, columns, values): rows x every column, or one column and
# one value per step
Block = tuple[int, np.ndarray, np.ndarray]

_OUTSIDE = "entry outside [0, capacity]"


def _ceil_snap(x: float) -> int:
    """ceil with a 1e-9 snap so counts like total/delta == 1000.0000000001
    do not round up a whole extra step."""
    return max(1, int(math.ceil(x - 1e-9)))


class SweepoutTrace:
    """A (steps x entries) volume table plus its step bound, read as a
    walk over blocks.

    Each call of ``blocks()`` walks the rows again and yields ``(start,
    cols, values)``, ``start`` the block's first step, in one of two
    shapes:

    - a row block: ``cols`` is every column in order and ``values`` a
      2-D table of whole rows;
    - an event block: ``cols`` and ``values`` are 1-D and of one length,
      one step each; step ``start + i`` is the row before it with column
      ``cols[i]`` set to ``values[i]``.  A column's events are one run,
      consecutive over the whole trace.  A run may be split across
      blocks; the next block's first event of that column follows the
      row before that block.

    The first block is a row block.  ``shape`` is the (steps, entries)
    shape of the table.  ``SweepoutTrace(graph=, steps=, step_bound=)``
    wraps a read-only copy of a dense table as row blocks, so the
    caller's array stays its own; it refuses, with `TraceError`, a table
    that is not 2-D with ``graph.entry_count`` columns.  `trace_read_csv`
    builds its trace with it from the table it read.  Every generated
    trace comes from the block constructor, `_from_blocks`:
    `generate_trace` makes every strategy's trace from its rule, block by
    block, on each walk: the fills as their empty row and then event
    blocks, uniform and random-monotone as row blocks, each a new array.
    For those, ``steps`` builds the dense table on demand, one row per
    step, refused past `TRACE_BYTES_CAP`.

    A random-monotone trace ends where its replay does, so it starts
    without a row count; the first walk of its blocks that runs to the
    end sets it.  ``shape``, ``row(t)`` and ``steps`` asked for before
    then cost one counting walk.  ``steps`` keeps the dense table it
    builds, so a second call walks no block; the row count and that table
    are all a trace writes to itself.  ``row(t)`` refuses a step outside
    the trace before it walks for the row.  No pass in the package reads
    ``steps``, and no consumer writes to the trace: what a consumer
    finds, such as the special slice and its row, it returns.
    """

    def __init__(self, graph: RegionGraph, steps: np.ndarray, step_bound: float) -> None:
        table = np.array(steps, dtype=np.float64)
        if table.ndim != 2 or table.shape[1] != graph.entry_count:
            raise TraceError(
                f"expected a (steps, {graph.entry_count}) table, got shape {table.shape}"
            )
        table.flags.writeable = False
        blocks = partial(_row_blocks, len(table), graph.entry_count, table.__getitem__)
        self._init(graph, step_bound, len(table), blocks)
        self._steps = table

    @classmethod
    def _from_blocks(
        cls, graph: RegionGraph, step_bound: float, rows: int | None,
        blocks: Callable[[], Iterator[Block]],
    ) -> SweepoutTrace:
        trace = cls.__new__(cls)
        trace._init(graph, step_bound, rows, blocks)
        return trace

    def _init(self, graph, step_bound, rows, blocks) -> None:
        if not 0 < step_bound < math.inf:
            raise InvalidParameterError(
                f"step_bound must be finite and positive, got {step_bound}"
            )
        self.graph = graph
        self.step_bound = step_bound
        self._rows: int | None = rows  # None until a walk runs to the end
        self._blocks: Callable[[], Iterator[Block]] = blocks
        self._steps: np.ndarray | None = None

    def blocks(self) -> Iterator[Block]:
        """A new walk of the blocks; one that runs to the end gives the
        trace its row count if it had none."""
        rows = 0
        for block in self._blocks():
            yield block
            rows = block[0] + len(block[2])
        if self._rows is None:
            self._rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        """(steps, entries); a trace without its row count walks once."""
        if self._rows is None:
            for _ in self.blocks():
                pass
        return self._rows, self.graph.entry_count

    @property
    def steps(self) -> np.ndarray:
        """The dense read-only table, built from the blocks once asked for."""
        if self._steps is None:
            cells = math.prod(self.shape)
            if cells * 8 > TRACE_BYTES_CAP:
                raise CapacityError(
                    f"a dense {self.shape[0]} x {self.shape[1]} trace table "
                    f"({cells * 8 / 2**20:.0f} MiB) is above the "
                    f"{TRACE_BYTES_CAP // 2**20} MiB trace cap"
                )
            steps = np.empty(self.shape)
            for start, cols, values, row in _walk(self):
                if values.ndim == 2:
                    steps[start : start + len(values)] = values
                    continue
                # each step is the one before with its event's column set
                current = row.copy()
                for s, (c, v) in enumerate(zip(cols.tolist(), values.tolist()), start):
                    current[c] = v
                    steps[s] = current
            steps.flags.writeable = False
            self._steps = steps
        return self._steps

    def row(self, t: int) -> np.ndarray:
        """Row ``t``, a new read-only array from a new walk of the blocks."""
        if not is_int(t):
            raise InvalidParameterError(f"step must be an integer, got {t!r}")
        if not 0 <= t < self.shape[0]:
            raise InvalidParameterError(f"step {t} outside the trace")
        for start, cols, values, row in _walk(self):
            if t - start < len(values):
                break
        _to_step(row, cols, values, t - start)
        row.flags.writeable = False
        return row


def _walk(trace: SweepoutTrace) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``trace.blocks()``, each with the row before it (zeros before the
    first).  The row is one array, advanced past a block when the next
    is asked for; a consumer may keep it once it stops walking."""
    row = np.zeros(trace.graph.entry_count)
    for start, cols, values in trace.blocks():
        yield start, cols, values, row
        _to_step(row, cols, values, len(values) - 1)


def _to_step(row: np.ndarray, cols: np.ndarray, values: np.ndarray, i: int) -> None:
    """Advance ``row`` from the row before a block to the block's row
    ``i``.  Of an event block, the last event of each run up to there
    sets its column; a column's events are one run, so no index is
    assigned twice and numpy's order for repeated indices does not
    matter."""
    if values.ndim == 2:
        row[:] = values[i]
        return
    cols, values = cols[: i + 1], values[: i + 1]
    ends = np.flatnonzero(np.append(cols[1:] != cols[:-1], True))
    row[cols[ends]] = values[ends]


def _previous(cols: np.ndarray, values: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The value each event's column held the step before: the event
    before it, or, at the head of a run, its value in ``row``, the row
    before the events.  A column's events are one run, so a head's
    column has no earlier event among these."""
    prev = np.empty_like(values)
    prev[1:] = values[:-1]
    heads = np.flatnonzero(np.append(True, cols[1:] != cols[:-1]))
    prev[heads] = row[cols[heads]]
    return prev


def _row_blocks(
    rows: int, entries: int, take: Callable[[slice], np.ndarray]
) -> Iterator[Block]:
    """``rows`` rows of every column as blocks of `_BLOCK_CELLS` cells, at
    least one row each; ``take(slice)`` gives the rows of a block."""
    cols = np.arange(entries)
    size = max(1, _BLOCK_CELLS // entries)
    for start in range(0, rows, size):
        yield start, cols, take(slice(start, start + size))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    step: int | None = None


def validate_trace(trace: SweepoutTrace) -> ValidationReport:
    """Check at least two rows, empty start, full end, capacity range,
    and step bound.

    Reports the first violating step; comparisons use a relative
    tolerance so float-built traces do not trip on rounding dust.  A
    non-finite volume is an entry outside [0, capacity].  At one
    step the checks rank in the order listed.  One walk over the blocks
    (`_scan`), each checked on its own against the row before it: a row
    block row by row, an event block by its values, each against its
    column's capacity and its column's previous value, since the other
    columns of that step do not move.  The row count is checked before
    the walk, so a trace of fewer than two rows is reported so, whatever
    its rows hold: every trace but random-monotone knows its count from
    the start, and random-monotone always has at least two rows.
    """
    return _scan(trace)[0]


def find_special_slice(trace: SweepoutTrace, a: int) -> int:
    """Least step where at least ``a`` leaf regions hold volume >= alpha.

    Admissibility is enforced, not assumed: at that step, at most
    ``a - 1`` leaves may exceed alpha by more than one step bound.  For a
    valid trace this always holds (one step earlier, fewer than ``a``
    leaves had reached alpha); a violation therefore means the trace
    breaks its own declared step bound.  The trace is not validated, and
    the walk stops at that step.
    """
    return _scan(trace, a, validate=False)[1]


def _failed(message: str, step: int | None = None) -> tuple[ValidationReport, None, None]:
    """What `_scan` returns for a failed check."""
    return ValidationReport(False, message, step), None, None


def _scan(
    trace: SweepoutTrace, a: int | None = None, validate: bool = True
) -> tuple[ValidationReport, int | None, np.ndarray | None]:
    """One walk over the blocks that validates the trace, finds the
    special slice of ``a`` leaves, or both, and returns the report, the
    slice's step and a read-only copy of its row (None without ``a``).

    Validating, the fewer-than-two-rows rule comes before the walk,
    which then runs to the last row, or stops at the first failed check
    of a block of either shape, and a failed report is returned before
    any slice error is raised; otherwise the walk stops at the slice.
    An event block's previous values (`_previous`) are computed once,
    for both the step check and the slice count.  The slice is found with
    a running count of leaves at or above alpha, which a leaf event moves
    by at most one.  With the slice found, "no step reaches the
    threshold" and then an `AdmissibilityError` are raised as
    `find_special_slice` describes.
    """
    if a is not None:
        leaf_count = trace.graph.tree.leaf_count
        if not is_int(a) or not 1 <= a <= leaf_count:
            raise InvalidParameterError(f"a must lie in 1..{leaf_count}, got {a!r}")
    alpha = float(trace.graph.params.alpha)
    leaves = trace.graph.leaf_cols
    caps = trace.graph.capacities
    tol = _REL_TOL * max(1.0, float(caps.max()))
    high = caps + tol
    jump_limit = trace.step_bound + tol
    too_far = f"step exceeds bound {trace.step_bound}"
    scratch = np.empty(0)  # a row block's step differences
    # every trace but random-monotone knows its row count, and a
    # random-monotone trace has at least two rows
    if validate and trace._rows is not None and trace._rows < 2:
        return _failed(f"expected shape (>=2, {trace.graph.entry_count}), got {trace.shape}")
    count, t0, hit = 0, None, None
    # a violation found in one block precedes everything in later blocks
    for start, cols, values, row in _walk(trace):
        if values.ndim == 1:
            prev = _previous(cols, values, row)
        fail = None  # each step's failed check, unless the block passes at once
        if validate and values.ndim == 1:
            # the first block is a row block, so an event has a step before it
            outside = ~((values >= -tol) & (values <= high[cols]))
            fail = outside | (np.abs(values - prev) > jump_limit)
        elif validate:
            if start == 0 and np.abs(values[0]).max() > tol:
                return _failed("first step is not the empty vector", 0)
            inside = values >= -tol
            inside &= values <= high
            if scratch.size < values.size:
                scratch = np.empty(values.size)
            # row i holds the jump into step start + i; step 0's, from the
            # zero row before it, is at most tol once the check above passed
            jumps = scratch[: values.size].reshape(values.shape)
            np.subtract(values[0], row, out=jumps[0])
            np.subtract(values[1:], values[:-1], out=jumps[1:])
            np.abs(jumps, out=jumps)
            # NaN fails `inside`, so a block holding one is never skipped
            if not (inside.all() and jumps.max() <= jump_limit):
                outside = ~inside.all(axis=1)
                fail = outside | (jumps.max(axis=1) > jump_limit)
        if fail is not None and fail.any():
            i = int(np.argmax(fail))
            return _failed(_OUTSIDE if outside[i] else too_far, start + i)
        if a is None or t0 is not None:
            continue
        if values.ndim == 2:
            counts = (values[:, leaves] >= alpha).sum(axis=1)
            at = np.arange(len(values))
        else:
            at = np.flatnonzero((cols >= leaves.start) & (cols < leaves.stop))
            if not at.size:
                continue
            reached = (values[at] >= alpha).astype(np.intp)
            reached -= prev[at] >= alpha
            counts = count + np.cumsum(reached)
        hits = np.flatnonzero(counts >= a)
        count = int(counts[-1])
        if hits.size:
            t0 = start + int(at[hits[0]])
            hit = row.copy()
            _to_step(hit, cols, values, t0 - start)
            if not validate:
                break
    if validate and np.abs(row - caps).max() > tol:
        return _failed("last step is not the full vector", trace._rows - 1)
    if a is None:
        return ValidationReport(True), None, None
    if t0 is None:
        raise TraceError("no step reaches the threshold on enough leaves; "
                         "is the trace complete?")
    strict = int((hit[leaves] > alpha + trace.step_bound).sum())
    if strict > a - 1:
        raise AdmissibilityError(
            f"{strict} leaves already exceed alpha + step_bound at step {t0}; "
            "regenerate the trace with a finer step_bound "
            "(delta <= alpha/4 is always safe)"
        )
    hit.flags.writeable = False
    return ValidationReport(True), t0, hit


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
    if not is_int(t0) or not 0 <= t0 < trace.shape[0]:
        raise InvalidParameterError(f"t0={t0!r} outside the trace")
    if not is_int(a) or not 1 <= a <= tree.leaf_count:
        raise InvalidParameterError(f"a must lie in 1..{tree.leaf_count}, got {a!r}")
    return _coloring(trace, t0, trace.row(t0), a)


def _coloring(trace: SweepoutTrace, t0: int, row: np.ndarray, a: int) -> Coloring:
    """`induce_coloring` of ``row``, the row of step ``t0``."""
    tree = trace.graph.tree
    alpha = float(trace.graph.params.alpha)
    leaf_vols = row[trace.graph.leaf_cols]

    margin = alpha + trace.step_bound
    locked = np.flatnonzero(leaf_vols > margin)
    strict = np.flatnonzero((leaf_vols > alpha) & (leaf_vols <= margin))
    level = np.flatnonzero(leaf_vols == alpha)
    chosen = np.concatenate((locked, strict, level))[:a]
    if chosen.size < a:
        raise TraceError(f"only {chosen.size} leaves reach alpha at step {t0}")

    bits = np.zeros(tree.node_count, dtype=np.uint8)
    bits[tree.first_leaf - 1 + chosen] = BLACK
    internal_vols = row[: tree.first_leaf - 1]
    bits[: tree.first_leaf - 1] = np.where(internal_vols >= alpha, BLACK, WHITE)

    white_leaves = leaf_vols[bits[trace.graph.leaf_cols] == WHITE]
    if white_leaves.size and white_leaves.max() > margin:
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
    """Validate the trace, find the special slice, induce its coloring,
    and certify the area.

    The width bound holds only for a valid sweepout, so a trace that
    fails `validate_trace` raises `TraceError` naming the failed check
    and its step, before any error of the slice.  alpha and rel_isop_C
    are read from the parameters the trace's region graph was built
    with.  One walk (`_scan`) validates the trace to its last row and
    copies the slice's row on the way; the coloring and each candidate
    pair are read from that row, each pair re-checked numerically against
    it, independently of how the coloring was derived.
    """
    graph = trace.graph
    params = graph.params
    a = a_of_m(graph.tree.m)
    report, t0, row = _scan(trace, a)
    if not report.ok:
        at = "" if report.step is None else f" at step {report.step}"
        raise TraceError(f"trace failed validation{at}: {report.message}")
    coloring = _coloring(trace, t0, row, a)

    alpha = float(params.alpha)
    child = dichromatic_children(coloring)
    parent = child // 2
    cols = (graph.region_col(parent), graph.region_col(child), graph.tube_col(child))
    # summed parent region, child region, tube: the rounding the output pins
    occupied = sum(row[c] for c in cols)
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


def _postorder_cols(graph: RegionGraph) -> np.ndarray:
    """dfs-fill's columns in fill order: post-order, each child's subtree
    and then the tube into it, then the node's own region.  Placed level
    by level: a subtree of height h spans 2**(h+2) - 3 entries, its
    region last and the tube into it just after, and a right child's
    subtree starts one past its left sibling's tube."""
    m = graph.tree.m
    order = np.empty(graph.entry_count, np.int32)
    first = np.zeros(1, np.intp)  # each node's first position, by level
    for depth in range(m + 1):
        size = 2 ** (m - depth + 2) - 3
        nodes = np.arange(2**depth, 2 ** (depth + 1))
        if depth:
            first = np.repeat(first, 2)
            first[1::2] += size + 1
            order[first + size] = graph.tube_col(nodes)
        order[first + size - 1] = graph.region_col(nodes)
    return order


def _bfs_cols(graph: RegionGraph) -> np.ndarray:
    """bfs-fill's columns in fill order: the root region, then the tube
    into and the region of each node 2..n."""
    children = np.arange(2, graph.tree.node_count + 1)
    order = np.empty(graph.entry_count, np.int32)
    order[0] = graph.region_col(1)
    order[1::2] = graph.tube_col(children)
    order[2::2] = graph.region_col(children)
    return order


def _fill_blocks(
    graph: RegionGraph, order: Callable[[RegionGraph], np.ndarray], parts: list[int]
) -> Iterator[Block]:
    """The empty row over every column, then each entry of ``order(graph)``
    in turn: at its j-th of the ``k`` steps `_class_parts` gives its class,
    its column holds ``cap * j / k``.  ``order`` lists each column once,
    so a column's events are one run.  Event blocks of `_BLOCK_CELLS`
    steps, each built from the entries it meets.  Under the trace cap a
    fill has fewer than 2**26 steps, so the per-entry arrays, the order
    and each entry's last step, are int32."""
    volumes, counts = zip(*graph.volume_classes)
    bounds = np.cumsum(counts[:-1])  # the first column of each class but the root
    caps = np.array([float(v) for v in volumes])
    parts_of = np.array(parts, np.int32)
    order_cols = order(graph)
    # the last step of each entry; step 0 is the empty row
    last = parts_of[np.searchsorted(bounds, order_cols, "right")]
    np.cumsum(last, out=last)
    rows = int(last[-1]) + 1
    yield 0, np.arange(graph.entry_count), np.zeros((1, graph.entry_count))
    for start in range(1, rows, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, rows)
        # keys of last's own dtype, so that it is not cast whole
        lo, hi = last.searchsorted(np.array((start, stop - 1), last.dtype))
        met = slice(lo, hi + 1)  # the entries the block meets
        taken = np.minimum(last[met], stop - 1)  # and the steps each takes in it
        taken[1:] -= last[lo:hi]
        taken[0] -= start - 1
        kind = np.searchsorted(bounds, order_cols[met], "right")
        k = parts_of[kind]
        # j = step - (the entry's last step - k), in floats, all exact
        values = np.arange(start, stop, dtype=np.float64)
        values -= np.repeat(last[met] - k, taken)
        values *= np.repeat(caps[kind], taken)
        values /= np.repeat(k, taken)
        yield start, np.repeat(order_cols[met], taken), values


def _monotone_step(
    rng: np.random.Generator, row: np.ndarray, caps: np.ndarray, delta: float,
    out: np.ndarray, lo: int, hi: int,
) -> tuple[int, int]:
    """Write into ``out`` the random-monotone step after ``row``,
    ``min(row + uniform(0.25, 1) * delta, caps)`` in every entry, and
    return the span ``[lo, hi)`` of the entries it leaves below their cap.

    Every entry outside the span ``[lo, hi)`` given is at its cap in
    ``row``, and a cap plus a positive increment clips back to the cap,
    so those entries copy their caps and `PCG64.advance` skips their
    draws.  `Generator.uniform` forms ``0.25 + 0.75 * random()``, so the
    entries in the span take its float operations, in place, and the sum
    commutes: ``out`` is bit for bit ``np.minimum(row +
    rng.uniform(0.25, 1.0, n) * delta, caps)``, and ``rng`` ends where
    that call leaves it.  At 65533 entries a whole span takes 0.38 ms
    against 0.94 for that call (2-vCPU Xeon); with the wide parameters
    the tubes are full after a few steps and the span drops to the
    regions, half the entries."""
    out[:lo] = caps[:lo]
    out[hi:] = caps[hi:]
    rng.bit_generator.advance(lo)
    part = out[lo:hi]
    rng.random(out=part)
    part *= 0.75
    part += 0.25
    part *= delta
    part += row[lo:hi]
    np.minimum(part, caps[lo:hi], out=part)
    rng.bit_generator.advance(caps.size - hi)
    below = part < caps[lo:hi]
    if not below.any():
        return lo, lo
    return lo + int(below.argmax()), hi - int(below[::-1].argmax())


def _monotone_blocks(graph: RegionGraph, delta: float, seed: int, bound: int) -> Iterator[Block]:
    """Random-monotone's rows, replayed from ``seed`` as row blocks of
    `_BLOCK_CELLS` cells, each row written straight into a new read-only
    block: the empty row, then one `_monotone_step` a row.  The walk ends
    at the first row with no entry below its cap, or at row ``bound``,
    the `_trace_rows` bound, whichever comes first."""
    caps = graph.capacities
    rng = np.random.default_rng(seed)
    cols = np.arange(caps.size)
    size = max(1, _BLOCK_CELLS // caps.size)
    row = None  # the row last written, once there is one
    lo, hi = 0, caps.size  # the span of its entries below their cap
    start = 0
    while lo < hi and start < bound:
        block = np.empty((min(size, bound - start), caps.size))
        n = 0
        while lo < hi and n < len(block):
            if row is None:
                block[n] = 0.0
            else:
                lo, hi = _monotone_step(rng, row, caps, delta, block[n], lo, hi)
            row = block[n]
            n += 1
        block.flags.writeable = False
        yield start, cols, block[:n]
        start += n


def _size(n: int | float, unit: int = 1) -> str:
    """``n / unit`` for a count ``n``, or inf, rounded: in full below
    10**9, else to two digits as ``4.1e200``, and inf past float64, so
    that no trace size makes its refusal a line of 200 characters."""
    x = n / unit if n <= sys.float_info.max else math.inf
    return f"{x:.0f}" if x < 1e9 else f"{x:.2g}".replace("+", "")


def _class_parts(graph: RegionGraph, delta: float) -> list[int]:
    """Sub-delta steps a fill takes per entry of each volume class."""
    return [_ceil_snap(float(volume) / delta) for volume, _ in graph.volume_classes]


def _trace_rows(strategy: str, graph: RegionGraph, delta: float) -> int:
    """Rows of the `strategy` trace, from the four volume classes alone.
    The fills and uniform build exactly this many, random-monotone at
    most this many."""
    volumes, counts = zip(*graph.volume_classes)
    if strategy == "uniform":
        return _ceil_snap(float(graph.total_volume) / delta) + 1
    if strategy == "random-monotone":
        # every step raises each entry not yet full by at least delta/4
        return math.ceil(float(max(volumes)) / (0.25 * delta)) + 1
    return 1 + sum(n * k for n, k in zip(counts, _class_parts(graph, delta)))


def _trace_cells(strategy: str, graph: RegionGraph, rows: int) -> int:
    """Cells the blocks of a ``rows``-row trace hold, so one pass reads:
    every column of every row for uniform and random-monotone, the empty
    row and then one cell a step for the fills."""
    if strategy in ("uniform", "random-monotone"):
        return rows * graph.entry_count
    return graph.entry_count + rows - 1


def generate_trace(
    strategy: str,
    m: int,
    params: BlockParams,
    delta: float | None = None,
    seed: int | None = None,
) -> SweepoutTrace:
    """Build a valid trace; see `STRATEGIES` for the fill orders.

    ``delta`` defaults to alpha/4, which keeps every strategy admissible.
    ``seed``, an integer or None, only affects ``random-monotone``, where
    it must be >= 0 (`InvalidParameterError` otherwise, before any
    per-entry array); for a fixed seed the trace is bit-for-bit
    reproducible, and no seed means seed 0.  Raises `CapacityError`
    before any per-entry array exists when the cells one pass over the
    trace reads, `_trace_cells` of `_trace_rows` rows counted from the
    four volume classes, would exceed `TRACE_BYTES_CAP`, or when a volume
    / delta overflows float64.  A fill whose k * volume overflows float64
    raises `InvalidParameterError`, also before any per-entry array.
    Every trace is made block by block as it is read, and nothing is
    replayed here: each walk of a random-monotone trace replays its rows
    from the seed, the same float operations in the same order, so they
    are bit for bit the rows a dense table held, and ends where the rows
    do, at the first full row or at the `_trace_rows` bound.  The trace
    learns its row count from the first walk that runs to the end.
    """
    if strategy not in STRATEGIES:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
        )
    if seed is not None and not is_int(seed):
        raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
    if strategy == "random-monotone" and seed is not None and seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    graph = region_graph(m, params)
    if delta is None:
        delta = float(params.alpha) / 4
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise InvalidParameterError(f"delta must be finite and positive, got {delta}")
    try:
        rows = _trace_rows(strategy, graph, delta)
    except (OverflowError, ZeroDivisionError):  # volume / delta is inf, or delta / 4 is 0
        rows = math.inf
    cells = _trace_cells(strategy, graph, rows)
    if cells * 8 > TRACE_BYTES_CAP:
        raise CapacityError(
            f"{strategy} trace at m={m} needs up to {_size(rows)} x {graph.entry_count} "
            f"entries, {_size(cells)} cells a pass ({_size(cells, 2**17)} MiB), above the "
            f"{TRACE_BYTES_CAP // 2**20} MiB trace cap; use a smaller m or a larger delta"
        )
    if strategy in ("dfs-fill", "bfs-fill"):
        parts = _class_parts(graph, delta)
        # a fill forms j * volume before dividing by k, up to k * volume
        for k, (volume, _) in zip(parts, graph.volume_classes):
            if not math.isfinite(k * float(volume)):
                raise InvalidParameterError(
                    f"{strategy} forms {k} * {float(volume)!r}, which overflows float64; "
                    "use smaller volumes or a larger delta"
                )
    if strategy == "uniform":
        fractions, caps = np.linspace(0.0, 1.0, rows), graph.capacities
        blocks = partial(_row_blocks, rows, caps.size, lambda at: fractions[at, None] * caps)
    elif strategy == "random-monotone":
        blocks = partial(_monotone_blocks, graph, delta, 0 if seed is None else seed, rows)
        rows = None  # the walk ends where the replay does
    else:
        order = _postorder_cols if strategy == "dfs-fill" else _bfs_cols
        blocks = partial(_fill_blocks, graph, order, parts)
    return SweepoutTrace._from_blocks(graph, delta, rows, blocks)


# ---------------------------------------------------------------------------
# serialization


def _opened(target: str | Path | IO[str], mode: str) -> ContextManager[IO[str]]:
    """A path opened in ``mode`` and closed on leaving, or a stream as it
    is, left open for its owner.  A path's text is neither read nor
    written with newline translation, so it is the text a stream holds."""
    is_path = isinstance(target, (str, Path))
    return open(target, mode, newline="") if is_path else nullcontext(target)


def trace_write_csv(trace: SweepoutTrace, target: str | Path | IO[str]) -> None:
    """Line-oriented CSV: step index, entry id, volume (shortest exact float).

    One pass over the blocks: a row of a row block formats every cell, a
    step of an event block only its one changed cell, and the other
    cells keep the text of the step before.
    """
    with _opened(target, "w") as fh:
        prefix = [f",{ident}," for ident in trace.graph.entry_ids()]
        # column c's text is cells[c + 1]; a row's lines are cells joined by its step
        cells = [""] * (len(prefix) + 1)
        fh.write(_CSV_HEADER + "\n")
        for start, cols, values in trace.blocks():
            steps = range(start, start + len(values))
            if values.ndim == 1:
                for s, c, v in zip(steps, cols.tolist(), values.tolist()):
                    cells[c + 1] = f"{prefix[c]}{v!r}\n"
                    fh.write(str(s).join(cells))
                continue
            for s, line in zip(steps, values.tolist()):
                cells[1:] = [f"{p}{v!r}\n" for p, v in zip(prefix, line)]
                fh.write(str(s).join(cells))


def _csv_blocks(fh: IO[str]) -> Iterator[str]:
    """The text of ``fh`` in blocks of whole ``\\n``-ended lines, read
    `_CSV_CHUNK` characters at a time, then the text after the last
    ``\\n``, empty unless the text ends inside a line.

    A block's unfinished last line moves on to the next block.  A block is
    at least as long as that carried line, so a line longer than a block
    is copied a bounded number of times, not once a block.
    """
    carry = ""
    while block := fh.read(max(_CSV_CHUNK, len(carry))):
        text = carry + block
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        yield text[:cut]
    yield carry


def _words(texts: list[bytes]) -> _Words:
    """``texts`` zero-padded to whole 8-byte words, word j of each text
    in row j, and their lengths."""
    size = -(-max(map(len, texts)) // 8)
    table = np.array(texts, f"S{8 * size}").view("<u8").reshape(len(texts), size)
    return np.ascontiguousarray(table.T), np.array([len(text) for text in texts])


def _field(words64: np.ndarray, lo: np.ndarray, width: np.ndarray, size: int) -> np.ndarray:
    """The fields ``[lo, lo + width)`` of a block as ``size`` rows of
    8-byte words, zero past each field's end; ``words64[i]`` holds the
    block's 8 bytes from ``i`` on.  A field holds no zero byte, so two
    fields are equal exactly when all their words are."""
    return words64[lo + np.arange(0, 8 * size, 8)[:, None]] & _FIELD_MASKS[:size].take(width, 1)


def _floats(texts: np.ndarray) -> np.ndarray | None:
    """The values of volume texts given as rows of words, one column a
    text, or None when one is no finite ``float()`` text.

    Equal texts are parsed once: the first of each run of equal texts is
    sorted with the others and compared with its neighbours, so no hash
    stands in for the bytes, and each distinct text gets one ``float``.
    """
    run = np.ones(texts.shape[1], bool)  # the first of each run of equal texts
    run[1:] = (texts[:, 1:] != texts[:, :-1]).any(0)
    ranked = texts[:, run]
    order = np.lexsort(ranked)
    ranked = ranked.take(order, 1)
    distinct = np.ones(order.size, bool)
    distinct[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(0)
    index = np.empty_like(order)
    index[order] = np.cumsum(distinct) - 1
    cells = np.ascontiguousarray(ranked[:, distinct].T).view(f"S{8 * len(ranked)}")
    try:
        values = np.array([float(text) for text in cells[:, 0].tolist()])
    except ValueError:
        return None
    return values[index][np.cumsum(run) - 1] if np.isfinite(values).all() else None


def _parse_bytes(text: str, first: int, entries: _Words, row: _Row) -> np.ndarray | None:
    """The volumes of a block of lines ``first``, ``first + 1``, ...
    after the header, parsed as one byte array, or None when a line of
    the block breaks the grammar of `trace_read_csv`.

    A line's position gives its step and entry: the line must start with
    the words of that step and a comma, then those of that entry and a
    comma from ``entries``, `_words` of each entry id and a comma, then
    a nonempty volume.  A volume with a comma is no ``float()`` text.
    ``row`` is the row before the block: each column's volume text in
    `_FIELD_BYTES` // 8 rows of words, and its value.  A volume text
    equal to its column's text one row earlier takes that value; only
    the texts that change go to `_floats`.  A block that is read leaves
    ``row`` as its own last row.
    """
    if not text.endswith("\n") or not text.isascii():
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _CSV_BYTES):
        return None
    buf = np.frombuffer(raw + bytes(_FIELD_BYTES), np.uint8)  # zeros, so every word fits
    words64 = np.ndarray(buf.size - 7, "<u8", buf, strides=(1,))  # first byte lowest
    ends = np.flatnonzero(buf == ord("\n"))
    n, cols = ends.size, entries[1].size
    step_at, col_at = np.divmod(np.arange(first, first + n), cols)
    steps = _words([b"%d," % s for s in range(step_at[0], step_at[-1] + 1)])
    lo = np.concatenate(([0], ends[:-1] + 1))  # each line's start, entry, then volume
    for (words, widths), at in ((steps, step_at - step_at[0]), (entries, col_at)):
        width = widths.take(at)
        if (_field(words64, lo, width, len(words)) != words.take(at, 1)).any():
            return None
        lo = lo + width
    width = ends - lo
    if width.min() < 1 or width.max() > _FIELD_BYTES:
        return None
    words = _field(words64, lo, width, -(-int(width.max()) // 8))
    row_words, row_values = row
    # a text of the row before with more words than this block's differs
    before = row_words.take(col_at[:cols], 1)
    new = np.flatnonzero(np.concatenate((
        (words[:, :cols] != before[: len(words)]).any(0) | before[len(words) :].any(0),
        (words[:, cols:] != words[:, :-cols]).any(0),
    )))
    values = _floats(words.take(new, 1))
    if values is None:
        return None
    # a grid of the row before and the block's rows: a line whose text is
    # unchanged takes the value of the last changed cell above it
    cell = np.arange(n) + cols + first % cols
    source = np.full((cell[-1] // cols + 1) * cols, -1)
    source[:cols] = np.arange(cols)
    source[cell[new]] = cell[new]
    source = np.maximum.accumulate(source.reshape(-1, cols)).ravel()
    grid = np.empty(source.size)
    grid[:cols] = row_values
    grid[cell[new]] = values
    block = grid[source[cell]]
    last = slice(max(n - cols, 0), n)
    row_words[:, col_at[last]] = 0
    row_words[: len(words), col_at[last]] = words[:, last]
    row_values[col_at[last]] = block[last]
    return block


def _bad_line(text: str, first: int, entries: _Words, row: _Row) -> str:
    """The refusal naming the first bad line of a block that
    `_parse_bytes` refuses after ``row``: the last of the fewest leading
    lines of the block that it refuses, each try from a copy of ``row``,
    found by bisection.  A line past `_QUOTE_CHARS` characters is quoted
    up to them, with its length."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty text after a final "\n"
    ends = list(accumulate(len(line) + 1 for line in lines))
    bad = bisect_left(
        range(len(lines)), True,
        key=lambda i: _parse_bytes(text[: ends[i]], first, entries, tuple(map(np.copy, row)))
        is None,
    )
    quote = repr(lines[bad][:_QUOTE_CHARS])
    if len(lines[bad]) > _QUOTE_CHARS:
        quote += f"... ({len(lines[bad])} characters)"
    # the header is line 1
    return f"line {first + bad + 2}: bad record {quote}"


def trace_read_csv(
    source: str | Path | IO[str], graph: RegionGraph, step_bound: float
) -> SweepoutTrace:
    """Inverse of `trace_write_csv` for the given region graph: reads
    exactly the text the writer writes, and refuses any other.

    The text is the header line and then one ``\\n``-ended line per
    cell, in the writer's order: line k after the header is step
    k // E and entry ``graph.entry_ids()[k % E]``, E the number of
    entries, its step written in decimal with no sign or leading zero.
    Each volume is a finite ``float()`` text of `_CSV_BYTES` bytes, at
    most `_FIELD_BYTES` long.  A text without the header raises
    `TraceError` naming it; a bad line, one that ends the text without
    its ``\\n`` too, raises it naming the first; a text that ends
    inside a row raises it as not dense.  The header alone is an empty
    table.

    The text is read and parsed a block of whole lines at a time by
    `_parse_bytes`, the one statement of the line grammar; a block it
    refuses is bisected with it for the first bad line, quoted up to
    `_QUOTE_CHARS` characters.  A line's step and entry are checked
    against the ones its position gives.  A volume text equal to its
    column's text one row before takes that row's value, and only the
    texts that differ are deduplicated and parsed; the same text always
    gives the same float, so the table is the one a parse of every line
    gives.  Besides the volumes read, one block and one row of volume
    texts are held.  A path is opened with no newline translation, so it
    reads as a stream of its text does.  The trace is built by
    ``SweepoutTrace(graph=, steps=, step_bound=)``.
    """
    entries = _words([f"{ident},".encode() for ident in graph.entry_ids()])
    cols = entries[1].size
    row = (np.zeros((_FIELD_BYTES // 8, cols), np.uint64), np.zeros(cols))  # no text yet
    values: list[np.ndarray] = []
    lines = 0  # lines after the header before the current block
    with _opened(source, "r") as fh:
        if fh.read(len(_CSV_HEADER) + 1) != _CSV_HEADER + "\n":
            raise TraceError(f"missing '{_CSV_HEADER}' header")
        for text in _csv_blocks(fh):
            if not text:
                continue
            block = _parse_bytes(text, lines, entries, row)
            if block is None:
                raise TraceError(_bad_line(text, lines, entries, row))
            values.append(block)
            lines += block.size
    if lines % cols:
        raise TraceError("missing entries: trace table is not dense")
    steps = np.concatenate([np.empty(0), *values]).reshape(-1, cols)
    return SweepoutTrace(graph=graph, steps=steps, step_bound=step_bound)
