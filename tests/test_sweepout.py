import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dichromat import (
    AdmissibilityError,
    BlockParams,
    CapacityError,
    STRATEGIES,
    SweepoutTrace,
    TraceError,
    a_of_m,
    black_counts,
    certify,
    find_special_slice,
    generate_trace,
    induce_coloring,
    region_graph,
    theorem_leaf_bound,
    trace_read_csv,
    trace_write_csv,
    validate_trace,
    width_lower_bound,
)
from dichromat import sweepout
from dichromat.dp import _max_matching
from dichromat.tree import EdgeSet, build_tree
from conftest import max_matching_stack, trace_csv_cells, validate_trace_dense


@pytest.fixture(scope="module")
def params():
    return BlockParams.default()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_generated_traces_validate(strategy, m, params):
    trace = generate_trace(strategy, m, params, seed=3)
    report = validate_trace(trace)
    assert report.ok, report
    # monotone, bounded steps, full at the end
    caps = trace.graph.capacities
    assert np.all(trace.steps[0] == 0)
    assert np.allclose(trace.steps[-1], caps)
    diffs = np.diff(trace.steps, axis=0)
    assert diffs.min() >= 0
    assert diffs.max() <= trace.step_bound * (1 + 1e-9)


def test_random_monotone_seed_determinism(params):
    a = generate_trace("random-monotone", 3, params, seed=99)
    b = generate_trace("random-monotone", 3, params, seed=99)
    c = generate_trace("random-monotone", 3, params, seed=100)
    assert np.array_equal(a.steps, b.steps)
    assert not np.array_equal(a.steps, c.steps)


def test_generate_rejects_bad_input(params):
    with pytest.raises(Exception):
        generate_trace("sideways", 2, params)
    from dichromat import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        generate_trace("uniform", 2, params, delta=0.0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generate_refuses_oversized_table(strategy, params):
    # the row count is worked out before anything is allocated
    with pytest.raises(CapacityError, match="trace cap"):
        generate_trace(strategy, 2, params, delta=1e-9)


def test_validate_two_step_jump(params):
    # 0 -> full in one step is invalid whenever delta < the largest volume
    graph = region_graph(2, params)
    caps = graph.capacities
    steps = np.vstack([np.zeros_like(caps), caps])
    trace = SweepoutTrace(graph=graph, steps=steps, step_bound=float(params.alpha) / 4)
    report = validate_trace(trace)
    assert not report.ok
    assert report.step == 1


def test_validate_flags_capacity_excess(params):
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    steps[7, 2] = float(trace.graph.capacities[2]) * 1.5
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    report = validate_trace(bad)
    assert not report.ok
    assert report.step == 7


def test_sub_delta_regression_is_still_valid(params):
    # the invariants bound step size, not direction; a small dip passes
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    steps[5, 0] = max(0.0, steps[5, 0] - trace.step_bound / 10)
    wobble = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    assert validate_trace(wobble).ok


def test_validate_flags_oversized_step(params):
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    steps[3, 1] = steps[2, 1] + 2 * trace.step_bound
    # keep monotone afterwards
    steps[3:, 1] = np.maximum.accumulate(steps[3:, 1])
    steps[:, 1] = np.minimum(steps[:, 1], trace.graph.capacities[1])
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    report = validate_trace(bad)
    assert not report.ok


def test_validate_flags_nonempty_start(params):
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    steps[0, 0] = 0.5
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    assert not validate_trace(bad).ok


def test_validate_flags_partial_end(params):
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps[:-3].copy()
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    assert not validate_trace(bad).ok


def test_special_slice_uniform_closed_form(params):
    # proportional fill: every leaf crosses alpha at the same fraction,
    # so t0 is the first grid point at or above alpha / (V0 - mu)
    m = 3
    trace = generate_trace("uniform", m, params)
    t0 = find_special_slice(trace, a_of_m(m))
    frac = float(params.alpha) / (float(params.V0) - float(params.mu))
    grid = np.linspace(0.0, 1.0, trace.steps.shape[0])
    expect = int(np.argmax(grid >= frac - 1e-15))
    assert t0 == expect


def test_special_slice_counts(params):
    m = 3
    a = a_of_m(m)
    trace = generate_trace("dfs-fill", m, params)
    t0 = find_special_slice(trace, a)
    leaf_vols = trace.steps[t0, trace.leaf_cols]
    alpha = float(params.alpha)
    assert np.count_nonzero(leaf_vols >= alpha) >= a
    # the step before has fewer than a leaves at or above alpha
    prev = trace.steps[t0 - 1, trace.leaf_cols]
    assert np.count_nonzero(prev >= alpha) < a
    # admissibility margin actually used downstream
    assert np.count_nonzero(leaf_vols > alpha + trace.step_bound) <= a - 1


def test_special_slice_all_leaves(params):
    # a = leaf_count: the index where the last leaf crosses
    m = 2
    trace = generate_trace("dfs-fill", m, params)
    t0 = find_special_slice(trace, trace.graph.tree.leaf_count)
    leaf = trace.steps[:, trace.leaf_cols]
    alpha = float(params.alpha)
    assert np.all(leaf[t0] >= alpha)
    assert not np.all(leaf[t0 - 1] >= alpha)


def test_special_slice_rejects_bad_a(params):
    trace = generate_trace("uniform", 2, params)
    from dichromat import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        find_special_slice(trace, 0)
    with pytest.raises(InvalidParameterError):
        find_special_slice(trace, 5)
    with pytest.raises(InvalidParameterError):
        induce_coloring(trace, 1, 0)


def test_induced_coloring_black_leaf_census(params):
    for m in (2, 3):
        a = a_of_m(m)
        for strategy in STRATEGIES:
            trace = generate_trace(strategy, m, params, seed=5)
            t0 = find_special_slice(trace, a)
            col = induce_coloring(trace, t0, a)
            assert black_counts(col)[1] == a
            # black internal nodes hold at least alpha of their region
            alpha = float(params.alpha)
            for node in range(1, trace.graph.tree.first_leaf):
                vol = trace.steps[t0, trace.region_col(node)]
                if col.color(node):
                    assert vol >= alpha
                else:
                    assert vol < alpha


def test_inadmissible_jump_rejected(params):
    # hand-built trace whose declared bound is violated: every leaf jumps
    # straight past alpha + delta, more than a - 1 = 0 strict exceedances
    graph = region_graph(2, params)
    caps = graph.capacities
    delta = float(params.alpha) / 4
    mid = np.zeros_like(caps)
    mid[graph.tree.first_leaf - 1 : graph.tree.node_count] = (
        float(params.alpha) + 2 * delta
    )
    steps = np.vstack([np.zeros_like(caps), mid, caps])
    trace = SweepoutTrace(graph=graph, steps=steps, step_bound=delta)
    with pytest.raises(AdmissibilityError):
        find_special_slice(trace, a_of_m(2))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_certificates_meet_paper_bound(strategy, params):
    for m in (2, 3, 4, 5):
        trace = generate_trace(strategy, m, params, seed=11)
        cert = certify(trace)
        paper, _ = width_lower_bound(m, params)
        assert cert.certified_area >= paper
        assert cert.disjoint_count >= theorem_leaf_bound(m) / 5
        assert cert.certified_area == params.rel_isop_C * cert.disjoint_count


def test_certificate_pairs_are_verified_sandwiches(params):
    m = 3
    trace = generate_trace("bfs-fill", m, params)
    cert = certify(trace)
    caps = trace.graph.capacities
    row = trace.steps[cert.t0]
    alpha = float(params.alpha)
    for parent, child in cert.sandwich_regions:
        cols = [
            trace.region_col(parent),
            trace.region_col(child),
            trace.tube_col(child),
        ]
        occupied = sum(row[c] for c in cols)
        total = sum(caps[c] for c in cols)
        assert alpha <= occupied <= total - alpha


def test_certify_zero_constant_degenerate():
    p = BlockParams.default().replace(rel_isop_C=0)
    trace = generate_trace("uniform", 2, p)
    cert = certify(trace)
    assert cert.certified_area == 0
    assert cert.disjoint_count >= 1  # counting is unaffected by the constant


class TestCsvRoundTrip:
    def test_file_roundtrip(self, tmp_path, params):
        trace = generate_trace("dfs-fill", 2, params)
        path = tmp_path / "trace.csv"
        trace_write_csv(trace, path)
        back = trace_read_csv(path, trace.graph, trace.step_bound)
        assert np.array_equal(back.steps, trace.steps)  # repr floats are lossless

    def test_buffer_roundtrip(self, params):
        trace = generate_trace("random-monotone", 2, params, seed=1)
        buf = io.StringIO()
        trace_write_csv(trace, buf)
        buf.seek(0)
        back = trace_read_csv(buf, trace.graph, trace.step_bound)
        assert np.array_equal(back.steps, trace.steps)

    def test_missing_header_rejected(self, params):
        trace = generate_trace("uniform", 2, params)
        with pytest.raises(TraceError, match="header"):
            trace_read_csv(io.StringIO("nope\n"), trace.graph, trace.step_bound)

    def test_sparse_table_rejected(self, params):
        trace = generate_trace("uniform", 2, params)
        buf = io.StringIO()
        trace_write_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        del lines[5]
        with pytest.raises(TraceError):
            trace_read_csv(
                io.StringIO("\n".join(lines) + "\n"), trace.graph, trace.step_bound
            )


# ---------------------------------------------------------------------------
# block-wise validation against the whole-table oracle

BLOCK_ROWS = 3


def _perturbed(trace, marks):
    """Copy of ``trace`` with (kind, step) marks applied to its table."""
    steps = trace.steps.copy()
    caps = trace.graph.capacities
    for kind, step in marks:
        if kind == "outside":
            steps[step, 2] = caps[2] * 1.5
        elif kind == "below":
            steps[step, 3] = -1.0
        elif kind == "jump":
            steps[step:, 1] = np.minimum(steps[step:, 1] + 2 * trace.step_bound, caps[1])
        elif kind == "nan":
            steps[step, 4] = np.nan
        elif kind == "start":
            steps[0, 0] = 0.5
        elif kind == "truncate":
            steps = steps[: step + 1]
    return SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)


def _reports_agree(trace):
    report = validate_trace(trace)
    assert (report.ok, report.message, report.step) == validate_trace_dense(trace)
    return report


@pytest.fixture
def small_blocks(monkeypatch, params):
    trace = generate_trace("uniform", 2, params)
    monkeypatch.setattr(sweepout, "_BLOCK_CELLS", BLOCK_ROWS * trace.entry_count)
    return trace


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "on", "after"])
@pytest.mark.parametrize(
    "marks",
    [
        [("outside", 0)],
        [("below", 0)],
        [("jump", 0)],
        [("jump", 0), ("outside", 0)],
        [("jump", 0), ("outside", 1)],
        [("outside", 0), ("jump", 1)],
        [("nan", 0)],
        [("nan", 0), ("jump", 0)],
        [("nan", 0), ("outside", 0)],
        [("truncate", 0)],
        [("truncate", 0), ("outside", 0)],
        [("start", 0), ("outside", 0)],
    ],
    ids=lambda marks: "+".join(kind for kind, _ in marks),
)
def test_validate_blocks_match_dense_oracle(small_blocks, marks, offset):
    # block boundaries sit at every multiple of BLOCK_ROWS; the jump at a
    # block's first row is measured against the previous block's last row
    boundary = 4 * BLOCK_ROWS
    shifted = [(kind, boundary + offset + extra) for kind, extra in marks]
    report = _reports_agree(_perturbed(small_blocks, shifted))
    if marks not in ([("nan", 0)], [("nan", 0), ("jump", 0)]):
        assert not report.ok


@settings(max_examples=60, deadline=None)
@given(
    block_rows=st.integers(1, 7),
    marks=st.lists(
        st.tuples(st.sampled_from(["outside", "below", "jump", "nan"]), st.integers(1, 40)),
        max_size=3,
    ),
)
def test_validate_random_marks_match_dense_oracle(block_rows, marks):
    trace = generate_trace("uniform", 2, BlockParams.default())
    old = sweepout._BLOCK_CELLS
    sweepout._BLOCK_CELLS = block_rows * trace.entry_count
    try:
        _reports_agree(_perturbed(trace, marks))
    finally:
        sweepout._BLOCK_CELLS = old


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_validate_default_blocks_match_dense_oracle(strategy, params):
    trace = generate_trace(strategy, 5, params, seed=2)
    assert _reports_agree(trace).ok
    assert not _reports_agree(_perturbed(trace, [("below", trace.steps.shape[0] // 2)])).ok
    assert not _reports_agree(_perturbed(trace, [("jump", 1)])).ok


def test_validate_memory_is_not_table_sized(params):
    trace = generate_trace("dfs-fill", 8, params)
    tracemalloc.start()
    try:
        assert validate_trace(trace).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trace.steps.nbytes / 8, (peak, trace.steps.nbytes)


# ---------------------------------------------------------------------------
# matching rebuilt level by level against the node-by-node stack walk


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_max_matching_equals_stack_oracle(data):
    m = data.draw(st.integers(1, 7))
    tree = build_tree(m)
    density = data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    children = np.flatnonzero(rng.random(tree.node_count - 1) < density) + 2
    allowed = EdgeSet(tuple((int(c) // 2, int(c)) for c in children))
    count, edges = _max_matching(tree, allowed)
    expect_count, expect_edges = max_matching_stack(tree, allowed)
    assert count == expect_count
    assert list(edges) == expect_edges


def test_certificate_matching_equals_stack_oracle():
    trace = generate_trace("random-monotone", 9, BlockParams.default(), seed=4)
    cert = certify(trace)
    count, edges = _max_matching(trace.graph.tree, cert.sandwich_regions)
    assert (count, list(edges)) == max_matching_stack(trace.graph.tree, cert.sandwich_regions)
    assert cert.disjoint_count == count > 0


# ---------------------------------------------------------------------------
# CSV


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_csv_text_equals_cell_oracle(strategy, m, params):
    trace = generate_trace(strategy, m, params, seed=6)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    assert buf.getvalue() == trace_csv_cells(trace)


def _csv_lines(trace):
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    return buf.getvalue().splitlines()


def _read_lines(lines, trace):
    return trace_read_csv(io.StringIO("\n".join(lines) + "\n"), trace.graph, trace.step_bound)


def test_csv_negative_step_rejected(params):
    # relabelling step 3 as -1 keeps the record count of a dense table
    trace = generate_trace("dfs-fill", 2, params)
    lines = [
        "-1," + line.split(",", 1)[1] if line.startswith("3,") else line
        for line in _csv_lines(trace)
    ]
    with pytest.raises(TraceError, match=r"bad record '-1,node:1,"):
        _read_lines(lines, trace)


@pytest.mark.parametrize("replace", [True, False], ids=["replaced", "extra"])
def test_csv_duplicate_record_rejected(params, replace):
    trace = generate_trace("dfs-fill", 2, params)
    lines = _csv_lines(trace)
    dup = lines[20]
    if replace:
        lines[21] = dup  # count unchanged, one cell missing
    else:
        lines.append(dup)  # one record too many
    step, ident = dup.split(",")[:2]
    with pytest.raises(TraceError, match=f"duplicate record for step {step}, entry {ident}"):
        _read_lines(lines, trace)


def test_csv_bad_line_named(params):
    trace = generate_trace("uniform", 2, params)
    lines = _csv_lines(trace)
    lines.insert(8, "")
    lines[30] = "4,node:1"
    with pytest.raises(TraceError, match=r"^line 31: bad record '4,node:1'$"):
        _read_lines(lines, trace)


def test_csv_blank_lines_skipped(params):
    trace = generate_trace("random-monotone", 2, params, seed=3)
    lines = _csv_lines(trace)
    lines[5:5] = ["", "   "]
    assert np.array_equal(_read_lines(lines, trace).steps, trace.steps)


def test_csv_header_only_reads_empty_table(params):
    graph = region_graph(2, params)
    back = trace_read_csv(io.StringIO("step,entry,volume\n"), graph, 0.1)
    assert back.steps.shape == (0, graph.entry_count)
