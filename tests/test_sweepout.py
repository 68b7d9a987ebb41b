import io
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dichromat import (
    AdmissibilityError,
    BlockParams,
    CapacityError,
    InvalidParameterError,
    STRATEGIES,
    SweepoutTrace,
    TraceError,
    a_of_m,
    black_counts,
    certify,
    find_special_slice,
    generate_trace,
    induce_coloring,
    load_params,
    region_graph,
    theorem_leaf_bound,
    trace_read_csv,
    trace_write_csv,
    validate_trace,
    width_lower_bound,
)
from dichromat import cli, sweepout
from dichromat.tree import EdgeSet, build_tree, max_matching
from conftest import (
    capacities_of,
    max_matching_stack,
    random_rational_params,
    read_csv_whole,
    trace_csv_cells,
    trace_rows_per_entry,
    trace_table_dense,
    validate_trace_dense,
)

WIDE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "params" / "wide.params"
WIDE = load_params(WIDE_PATH)


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
    unseeded = generate_trace("random-monotone", 3, params)  # seed 0
    assert unseeded.steps.tobytes() == generate_trace(
        "random-monotone", 3, params, seed=0
    ).steps.tobytes()


def test_random_monotone_replays_without_the_table():
    # the rows are replayed from the seed a block at a time: no pass builds
    # the dense table, and the three passes together hold a small part of it
    certify(generate_trace("random-monotone", 2, WIDE, seed=3))  # first-call allocations
    tracemalloc.start()
    try:
        trace = generate_trace("random-monotone", 12, WIDE, seed=3)
        assert validate_trace(trace).ok
        certify(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace._steps is None
    rows, entries = trace.shape
    assert peak < rows * entries * 8 / 4, (peak, trace.shape)
    # each walk replays the same rows into new read-only blocks
    first, again = next(trace.blocks())[2], next(trace.blocks())[2]
    assert first.tobytes() == again.tobytes()
    assert not np.shares_memory(first, again) and not first.flags.writeable


@pytest.mark.parametrize("block_rows", [1, 2, 64])
@pytest.mark.parametrize("bound", [1, 2, 5, 7])
def test_monotone_walk_stops_at_its_row_bound(monkeypatch, params, bound, block_rows):
    # the `_trace_rows` bound ends the replay even while entries are below
    # their cap: the walk is the dense table's first `bound` rows
    graph = region_graph(3, params)
    delta = float(params.alpha) / 4
    monkeypatch.setattr(sweepout, "_BLOCK_CELLS", block_rows * graph.entry_count)
    blocks = list(sweepout._monotone_blocks(graph, delta, 4, bound))
    expect = trace_table_dense("random-monotone", graph, delta, 4)
    assert len(expect) > bound and [start for start, _, _ in blocks] == list(
        range(0, bound, block_rows)
    )
    assert np.concatenate([v for _, _, v in blocks]).tobytes() == expect[:bound].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**63 + 5])
def test_monotone_step_equals_uniform_draws(seed):
    # the replay draws by Generator.random in place and skips the draws of
    # full entries; a platform where Generator.uniform(0.25, 1.0) rounds
    # otherwise, or where advance does not skip draws one for one, must
    # fail here
    n, delta = 4099, 0.37
    draws, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    out = np.empty(n)
    # from the empty row with no cap, the step is the increment itself
    span = sweepout._monotone_step(replay, np.zeros(n), np.full(n, np.inf), delta, out, 0, n)
    assert span == (0, n)
    assert out.tobytes() == (draws.uniform(0.25, 1.0, n) * delta).tobytes()
    # caps that fill the ends first, so the span of entries below their cap shrinks
    caps = 0.5 + 2.5 * np.sin(np.linspace(0.0, np.pi, n))
    row, lo, hi = np.minimum(out, caps), 0, n
    while lo < hi:
        expect = np.minimum(row + draws.uniform(0.25, 1.0, n) * delta, caps)
        lo, hi = sweepout._monotone_step(replay, row, caps, delta, out, lo, hi)
        assert out.tobytes() == expect.tobytes()
        below = np.flatnonzero(expect < caps)
        assert (lo, hi) == ((below[0], below[-1] + 1) if below.size else (lo, lo))
        row = expect
    assert replay.random() == draws.random()


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


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generate_refuses_two_row_overflow_before_capacities(strategy, params):
    # the refusal is decided from the four volume classes, so no
    # per-entry array (134 MB of capacities at m = 22) is ever built
    for m in (22, 23, 24):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="trace cap"):
                generate_trace(strategy, m, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (m, peak)


def _random_float_params(rng: np.random.Generator) -> BlockParams:
    v0 = float(rng.uniform(5, 50))
    mu = v0 * float(rng.uniform(0.01, 0.3))
    alpha = (v0 - 3 * mu) * float(rng.uniform(0.05, 0.45))
    return BlockParams(V0=v0, mu=mu, tau=mu * float(rng.uniform(1.05, 4)), alpha=alpha)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 10),
    rational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 0.25, 0.37, 1.0, 2.5, 10.0]),
)
@example(m=8, rational=False, seed=0, scale=0.25)
@example(m=3, rational=True, seed=1, scale=0.1)
def test_trace_rows_equal_per_entry_oracle(m, rational, seed, scale):
    # the size check counts rows from the volume classes; the per-entry
    # formulas must give the same count, and the fills and uniform build it
    rng = np.random.default_rng(seed)
    params = (random_rational_params if rational else _random_float_params)(rng)
    delta = float(params.alpha) * scale
    graph = region_graph(m, params)
    caps = capacities_of(graph)
    for strategy in STRATEGIES:
        expect = trace_rows_per_entry(strategy, caps, delta)
        assert sweepout._trace_rows(strategy, graph, delta) == expect, strategy
        with mock.patch.object(sweepout, "TRACE_BYTES_CAP", 0):
            with pytest.raises(CapacityError, match=f"needs up to {expect} x {caps.size} "):
                generate_trace(strategy, m, params, delta=delta)
        if strategy != "random-monotone" and expect * caps.size * 8 <= 2**23:
            trace = generate_trace(strategy, m, params, delta=delta)
            assert trace.steps.shape == (expect, caps.size), strategy


@pytest.mark.parametrize("bound", [np.nan, np.inf, 0.0, -1.0])
def test_non_finite_or_nonpositive_step_bound_rejected(bound, params):
    trace = generate_trace("uniform", 2, params)
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        generate_trace("uniform", 2, params, delta=bound)
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        SweepoutTrace(graph=trace.graph, steps=trace.steps, step_bound=bound)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    buf.seek(0)
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        trace_read_csv(buf, trace.graph, bound)


@pytest.mark.parametrize(
    "shape",
    [lambda n: (5,), lambda n: (3, 4), lambda n: (2, n, 1)],
    ids=["1-D", "narrow", "3-D"],
)
def test_dense_trace_refuses_wrong_shape(shape, params):
    graph = region_graph(2, params)
    with pytest.raises(TraceError, match=r"expected a \(steps, 13\) table, got shape"):
        SweepoutTrace(graph=graph, steps=np.zeros(shape(graph.entry_count)), step_bound=1.0)


def test_dense_trace_copies_the_callers_table(params):
    # the constructor keeps a read-only copy: the caller's array stays
    # writeable, and writing to it changes no row of the trace
    graph = region_graph(2, params)
    steps = np.zeros((3, graph.entry_count))
    trace = SweepoutTrace(graph=graph, steps=steps, step_bound=1.0)
    assert steps.flags.writeable
    before = [trace.row(t).copy() for t in range(3)]
    steps[:] = 1.0
    for t in range(3):
        np.testing.assert_array_equal(trace.row(t), before[t])
    np.testing.assert_array_equal(trace.steps, np.zeros((3, graph.entry_count)))
    assert not trace.steps.flags.writeable


@pytest.mark.parametrize("rows", [0, 1])
def test_validate_reports_fewer_than_two_rows(rows, params):
    # the row count ranks before any check of the rows
    graph = region_graph(2, params)
    for fill in (0.0, 1e9):
        trace = SweepoutTrace(graph=graph, steps=np.full((rows, 13), fill), step_bound=1.0)
        report = validate_trace(trace)
        expect = (False, f"expected shape (>=2, 13), got ({rows}, 13)", None)
        assert (report.ok, report.message, report.step) == expect == validate_trace_dense(trace)


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
    leaf_vols = trace.steps[t0, trace.graph.leaf_cols]
    alpha = float(params.alpha)
    assert np.count_nonzero(leaf_vols >= alpha) >= a
    # the step before has fewer than a leaves at or above alpha
    prev = trace.steps[t0 - 1, trace.graph.leaf_cols]
    assert np.count_nonzero(prev >= alpha) < a
    # admissibility margin actually used downstream
    assert np.count_nonzero(leaf_vols > alpha + trace.step_bound) <= a - 1


def test_special_slice_all_leaves(params):
    # a = leaf_count: the index where the last leaf crosses
    m = 2
    trace = generate_trace("dfs-fill", m, params)
    t0 = find_special_slice(trace, trace.graph.tree.leaf_count)
    leaf = trace.steps[:, trace.graph.leaf_cols]
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


# a bool would read as 0 or 1, and a float or a string used to leak a
# TypeError from deep inside; each is refused up front
NOT_INTS = [True, False, 1.5, "2", np.float64(1.0)]


@pytest.mark.parametrize("a", NOT_INTS)
def test_special_slice_rejects_non_int_a(params, a):
    trace = generate_trace("uniform", 2, params)
    with pytest.raises(InvalidParameterError, match="a must"):
        find_special_slice(trace, a)


@pytest.mark.parametrize("bad", NOT_INTS)
def test_induce_coloring_rejects_non_int(params, bad):
    trace = generate_trace("uniform", 2, params)
    t0 = find_special_slice(trace, 1)
    with pytest.raises(InvalidParameterError, match="t0"):
        induce_coloring(trace, bad, 1)
    with pytest.raises(InvalidParameterError, match="a must"):
        induce_coloring(trace, t0, bad)


@pytest.mark.parametrize("strategy", ["random-monotone", "uniform"])
@pytest.mark.parametrize("seed", NOT_INTS)
def test_generate_trace_rejects_non_int_seed(params, strategy, seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        generate_trace(strategy, 2, params, seed=seed)


@pytest.mark.parametrize("t", NOT_INTS)
def test_trace_row_rejects_non_int_step(params, t):
    trace = generate_trace("uniform", 2, params)
    with pytest.raises(InvalidParameterError, match="step"):
        trace.row(t)


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
                vol = trace.steps[t0, trace.graph.region_col(node)]
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
    # colored at that step, a = 1 black leaf leaves three white ones past
    # alpha + delta
    with pytest.raises(AdmissibilityError, match="a white leaf holds .* at step 1"):
        induce_coloring(trace, 1, 1)


def test_special_slice_of_a_trace_that_never_reaches_alpha(params):
    # the first 3 of uniform's rows at m = 3 hold no leaf at alpha
    trace = generate_trace("uniform", 3, params)
    cut = SweepoutTrace(graph=trace.graph, steps=trace.steps[:3], step_bound=trace.step_bound)
    with pytest.raises(TraceError, match="no step reaches the threshold"):
        find_special_slice(cut, a_of_m(3))


def test_induce_coloring_refuses_too_few_leaves_at_alpha(params):
    trace = generate_trace("uniform", 2, params)
    with pytest.raises(TraceError, match="^only 0 leaves reach alpha at step 0$"):
        induce_coloring(trace, 0, 1)


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
            trace.graph.region_col(parent),
            trace.graph.region_col(child),
            trace.graph.tube_col(child),
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


@pytest.mark.parametrize(
    "fault, message, step",
    [
        ("cut", "last step is not the full vector", 128),
        ("spike", r"entry outside \[0, capacity\]", 131),
    ],
)
def test_certify_refuses_a_trace_that_fails_validation(params, fault, message, step):
    # a uniform m = 4 trace cut after its slice (128), or with one entry
    # far past its capacity after it: both certified before certify
    # validated its trace
    trace = generate_trace("uniform", 4, params)
    assert find_special_slice(trace, a_of_m(4)) == 128
    steps = trace.steps.copy()
    if fault == "cut":
        steps = steps[:129]
    else:
        steps[131, 0] = 1e9
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    with pytest.raises(TraceError, match=f"failed validation at step {step}: {message}$"):
        certify(bad)


def test_certify_refuses_a_trace_of_one_row(params):
    graph = region_graph(2, params)
    one = SweepoutTrace(graph=graph, steps=np.zeros((1, graph.entry_count)), step_bound=1.0)
    with pytest.raises(TraceError, match=r"failed validation: expected shape \(>=2, 13\)"):
        certify(one)


def _traces_of_every_kind(params):
    """A generated trace of each strategy, a dense one and one read back
    from CSV, at m = 3."""
    traces = [generate_trace(s, 3, params, seed=2) for s in STRATEGIES]
    dense = traces[0]
    traces.append(SweepoutTrace(graph=dense.graph, steps=dense.steps, step_bound=dense.step_bound))
    buf = io.StringIO()
    trace_write_csv(traces[2], buf)
    buf.seek(0)
    traces.append(trace_read_csv(buf, dense.graph, dense.step_bound))
    return traces


def test_consumers_leave_the_trace_as_it_was(params):
    # no consumer keeps state in the trace: once its row count is known,
    # every attribute is the same object after each of them, and each row
    # asked for is a new array
    a = a_of_m(3)
    for trace in _traces_of_every_kind(params):
        trace.shape
        before = dict(vars(trace))
        assert validate_trace(trace).ok
        t0 = find_special_slice(trace, a)
        induce_coloring(trace, t0, a)
        cert = certify(trace)
        first, again = trace.row(t0), trace.row(t0)
        trace_write_csv(trace, io.StringIO())
        assert vars(trace).keys() == before.keys()
        assert all(vars(trace)[key] is value for key, value in before.items())
        assert cert.t0 == t0
        assert first is not again and not first.flags.writeable
        assert first.tobytes() == again.tobytes() == trace.steps[t0].tobytes()


@pytest.mark.parametrize("seed", [0, 2, 11])
def test_first_full_walk_sets_only_the_row_count(params, seed):
    # a fresh random-monotone trace does not know its rows; a walk that
    # stops early leaves it as it was, and the first walk to the end sets
    # the row count alone, to the dense oracle's
    trace = generate_trace("random-monotone", 3, params, seed=seed)
    before = dict(vars(trace))
    assert before["_rows"] is None
    next(trace.blocks())
    assert vars(trace) == before
    for _ in trace.blocks():
        pass
    after = dict(vars(trace))
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == ["_rows"]
    expect = trace_table_dense("random-monotone", trace.graph, trace.step_bound, seed)
    assert after["_rows"] == len(expect)


def test_certify_walks_the_trace_once(params):
    # one walk validates to the last row and copies the slice's row on the
    # way: the coloring and the sandwich check walk nothing
    for trace in _traces_of_every_kind(params):
        walks = mock.Mock(side_effect=trace.blocks)
        trace.blocks = walks
        certify(trace)
        assert walks.call_count == 1


@pytest.mark.parametrize("m, wide, seed", [(2, False, 0), (5, True, 3), (9, False, 1), (10, True, 7)])
def test_sweepout_call_replays_each_row_once(capsys, m, wide, seed):
    # generating a random-monotone trace replays nothing; certifying it and
    # printing its step count take one step a row after the empty first
    argv = ["sweepout", "--strategy", "random-monotone", "-m", str(m), "--seed", str(seed)]
    if wide:
        argv += ["--params", str(WIDE_PATH)]
    steps = mock.Mock(wraps=sweepout._monotone_step)
    with mock.patch.object(sweepout, "_monotone_step", steps):
        trace = generate_trace("random-monotone", m, WIDE if wide else BlockParams.default(),
                               seed=seed)
        assert steps.call_count == 0
        certify(trace)
        rows = trace.shape[0]
        assert steps.call_count == rows - 1
        steps.reset_mock()
        assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == rows
    assert steps.call_count == rows - 1


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 8),
    rational=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 0.25, 0.37, 1.0, 2.5]),
)
@example(m=8, rational=False, seed=0, scale=0.25)
@example(m=4, rational=True, seed=5, scale=2.5)
def test_random_monotone_shape_equals_dense_rows(m, rational, seed, scale):
    # the trace ends where its replay does: a fresh trace's shape costs one
    # walk and reads the dense oracle's row count
    rng = np.random.default_rng(seed)
    params = (random_rational_params if rational else _random_float_params)(rng)
    delta = float(params.alpha) * scale
    graph = region_graph(m, params)
    trace = generate_trace("random-monotone", m, params, delta=delta, seed=seed)
    walks = mock.Mock(side_effect=trace.blocks)
    trace.blocks = walks
    expect = trace_table_dense("random-monotone", graph, delta, seed)
    assert trace.shape == expect.shape
    assert walks.call_count == 1


def test_row_outside_the_trace_walks_nothing(params):
    # a step outside the trace is refused before the blocks are walked;
    # a step inside takes one walk, and so does the row count of a fresh
    # random-monotone trace
    kinds = [*STRATEGIES, "dense", "csv"]
    for kind, trace in zip(kinds, _traces_of_every_kind(params), strict=True):
        walks = mock.Mock(side_effect=trace.blocks)
        trace.blocks = walks
        rows = trace.shape[0]
        assert walks.call_count == (kind == "random-monotone")
        walks.reset_mock()
        for t in (-1, rows, rows + 5):
            with pytest.raises(InvalidParameterError, match=f"step {t} outside the trace"):
                trace.row(t)
        assert walks.call_count == 0
        last = trace.row(rows - 1)
        assert walks.call_count == 1
        np.testing.assert_array_equal(last, trace.graph.capacities)


def test_read_trace_steps_is_the_parsed_table(params):
    # a CSV-read trace returns the table it parsed, read-only, and builds
    # nothing from its blocks
    for trace in _traces_of_every_kind(params):
        buf = io.StringIO()
        trace_write_csv(trace, buf)
        buf.seek(0)
        back = trace_read_csv(buf, trace.graph, trace.step_bound)
        walks = mock.Mock(side_effect=back.blocks)
        back.blocks = walks
        steps = back.steps
        assert walks.call_count == 0
        assert steps is back.steps and not steps.flags.writeable
        assert steps.tobytes() == trace.steps.tobytes()


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
        # an empty text has no header line either
        for text in ("nope\n", ""):
            with pytest.raises(TraceError, match="^missing 'step,entry,volume' header$"):
                trace_read_csv(io.StringIO(text), trace.graph, trace.step_bound)

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


@settings(max_examples=60, deadline=None)
@given(
    block_rows=st.integers(1, 7),
    marks=st.lists(
        st.tuples(st.sampled_from(["outside", "below", "jump", "nan"]), st.integers(1, 160)),
        max_size=3,
    ),
)
@example(block_rows=3, marks=[])
@example(block_rows=3, marks=[("outside", 100)])  # the slice is step 29
@example(block_rows=64, marks=[("jump", 140), ("nan", 150)])
@example(block_rows=1, marks=[("below", 162)])
@example(block_rows=2, marks=[("below", 29)])
def test_certify_raises_what_the_dense_oracle_reports(block_rows, marks):
    # one walk validates and finds the slice: a fault anywhere, after the
    # slice too, fails validation with the oracle's step and message
    trace = _perturbed(generate_trace("uniform", 2, BlockParams.default()), marks)
    ok, message, step = validate_trace_dense(trace)
    walks = mock.Mock(side_effect=trace.blocks)
    trace.blocks = walks
    with mock.patch.object(sweepout, "_BLOCK_CELLS", block_rows * trace.graph.entry_count):
        if ok:
            assert certify(trace).t0 == 29
        else:
            with pytest.raises(TraceError) as caught:
                certify(trace)
            assert str(caught.value) == f"trace failed validation at step {step}: {message}"
    assert walks.call_count == 1


@pytest.fixture
def small_blocks(monkeypatch, params):
    trace = generate_trace("uniform", 2, params)
    monkeypatch.setattr(sweepout, "_BLOCK_CELLS", BLOCK_ROWS * trace.graph.entry_count)
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
    sweepout._BLOCK_CELLS = block_rows * trace.graph.entry_count
    try:
        _reports_agree(_perturbed(trace, marks))
    finally:
        sweepout._BLOCK_CELLS = old


@pytest.mark.parametrize("block_rows", [1, 3, 64])
def test_validate_flags_overshoot_without_a_jump(monkeypatch, params, block_rows):
    # one column creeps 1% past its capacity in steps far below the bound,
    # so only the range check sees it, inside a block
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    cap = trace.graph.capacities[2]
    steps[:, 2] = np.minimum(steps[:, 2] * 1.2, cap * 1.01)
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    monkeypatch.setattr(sweepout, "_BLOCK_CELLS", block_rows * trace.graph.entry_count)
    report = _reports_agree(bad)
    assert (report.ok, report.message) == (False, "entry outside [0, capacity]")
    assert 0 < report.step < len(steps) - 1


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
# column-sparse row blocks against the dense tables they stand for


def _block_cells(trace):
    """Cells the blocks of ``trace`` hold, checking their layout on the way:
    consecutive starts from 0, at least one step a block and every column
    in range.  A row block has sorted distinct columns and one table row
    per step, and the first block lists every column; an event block has
    one column and one value per step."""
    cells = 0
    nxt = 0
    entries = trace.graph.entry_count
    for start, cols, values in trace.blocks():
        assert start == nxt and len(values) and cols.ndim == 1
        assert cols.min() >= 0 and cols.max() < entries
        if values.ndim == 1:
            assert start and len(cols) == len(values)
        else:
            assert values.shape == (len(values), cols.size)
            assert np.all(np.diff(cols) > 0) and (start or cols.size == entries)
        cells += values.size
        nxt += len(values)
    assert nxt == trace.shape[0]
    return cells


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
def test_trace_cells_equal_block_cells(strategy, wide):
    # the size check counts cells from the four volume classes; the blocks
    # hold exactly that many, or for random-monotone (a bound on its rows)
    # at most that many
    params = WIDE if wide else BlockParams.default()
    delta = float(params.alpha) / 4
    for m in range(1, 11):
        graph = region_graph(m, params)
        count = sweepout._trace_cells(strategy, graph, sweepout._trace_rows(strategy, graph, delta))
        if count * 8 > sweepout.TRACE_BYTES_CAP:
            with pytest.raises(CapacityError, match=f" {count} cells a pass "):
                generate_trace(strategy, m, params, seed=m)
            continue
        held = _block_cells(generate_trace(strategy, m, params, seed=m))
        if strategy == "random-monotone":
            assert held <= count, m
        else:
            assert held == count, m


def _certified(trace):
    cert = certify(trace)
    return (cert.t0, cert.coloring.bits.tobytes(), cert.sandwich_regions.children.tobytes(),
            cert.disjoint_count, cert.certified_area)


@settings(max_examples=40, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    m=st.integers(1, 8),
    wide=st.booleans(),
    scale=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    block_cells=st.sampled_from([1, 2, 3, 7, 64, None]),
    seed=st.integers(0, 3),
)
@example(strategy="dfs-fill", m=8, wide=False, scale=0.25, block_cells=3, seed=0)
@example(strategy="bfs-fill", m=8, wide=True, scale=0.25, block_cells=None, seed=0)
@example(strategy="uniform", m=8, wide=False, scale=0.25, block_cells=None, seed=0)
@example(strategy="dfs-fill", m=3, wide=True, scale=1.0, block_cells=2, seed=0)
def test_blocks_equal_dense_oracle(strategy, m, wide, scale, block_cells, seed):
    # small block sizes split a fill inside one entry's steps and a dense
    # or uniform table inside a row range; larger deltas can make the
    # slice inadmissible, and both routes must then fail the same way
    params = WIDE if wide else BlockParams.default()
    delta = float(params.alpha) * scale
    graph = region_graph(m, params)
    assume(trace_rows_per_entry(strategy, capacities_of(graph), delta) * graph.entry_count <= 2**24)
    with mock.patch.object(sweepout, "_BLOCK_CELLS", block_cells or sweepout._BLOCK_CELLS):
        trace = generate_trace(strategy, m, params, delta=delta, seed=seed)
        expect = trace_table_dense(strategy, graph, delta, seed)
        assert trace.shape == trace.steps.shape == expect.shape
        assert trace.steps.tobytes() == expect.tobytes()
        dense = SweepoutTrace(graph=trace.graph, steps=trace.steps, step_bound=trace.step_bound)
        assert validate_trace(trace) == validate_trace(dense)
        a = a_of_m(m)
        assert _read_outcome(find_special_slice, trace, a) == _read_outcome(
            find_special_slice, dense, a
        )
        assert _read_outcome(_certified, trace) == _read_outcome(_certified, dense)
        if m <= 5:
            assert _csv_lines(trace) == _csv_lines(dense)


# ---------------------------------------------------------------------------
# event blocks of any (column, value) stream against the dense table


def _events(trace):
    """The first row and the (column, value) events after it of a fill."""
    blocks = list(trace.blocks())
    cols = np.concatenate([c for _, c, _ in blocks[1:]])
    values = np.concatenate([v for _, _, v in blocks[1:]])
    return blocks[0][2][0], cols, values


def _event_trace(graph, step_bound, first, cols, values):
    """The trace of the row ``first`` and then one event a step, walked as
    event blocks of `_BLOCK_CELLS` steps."""
    def blocks():
        size = sweepout._BLOCK_CELLS
        yield 0, np.arange(graph.entry_count), first[None, :]
        for s in range(0, cols.size, size):
            yield 1 + s, cols[s : s + size], values[s : s + size]

    return SweepoutTrace._from_blocks(graph, step_bound, 1 + cols.size, blocks)


def _dense_of_events(first, cols, values):
    """The table of a row and the events after it, built row by row."""
    steps = np.empty((1 + cols.size, first.size))
    steps[0] = first
    for i, (c, v) in enumerate(zip(cols.tolist(), values.tolist()), 1):
        steps[i] = steps[i - 1]
        steps[i, c] = v
    return steps


def _assert_events_match_dense(trace, first, cols, values, block, probe):
    """Every pass over the event trace against the same pass over its
    dense table, under event blocks of ``block`` steps."""
    graph, bound = trace.graph, trace.step_bound
    with mock.patch.object(sweepout, "_BLOCK_CELLS", block):
        events = _event_trace(graph, bound, first, cols, values)
        dense = SweepoutTrace(
            graph=graph, steps=_dense_of_events(first, cols, values), step_bound=bound
        )
        report = validate_trace(events)
        assert (report.ok, report.message, report.step) == validate_trace_dense(dense)
        assert events.steps.tobytes() == dense.steps.tobytes()
        for t in (0, probe, len(cols)):
            assert events.row(t).tobytes() == dense.steps[t].tobytes(), t
        a = a_of_m(graph.tree.m)
        assert _read_outcome(find_special_slice, events, a) == _read_outcome(
            find_special_slice, dense, a
        )
        assert _read_outcome(_certified, events) == _read_outcome(_certified, dense)
        assert _csv_lines(events) == _csv_lines(dense)
    return report


@pytest.mark.parametrize("strategy", ["dfs-fill", "bfs-fill"])
@pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
def test_fill_emits_each_column_as_one_run(strategy, wide):
    # the contract every pass reads event blocks by: after the first row,
    # each column's events are one run, wherever the blocks cut it
    params = WIDE if wide else BlockParams.default()
    for block in (1, 2, 3, 7, sweepout._BLOCK_CELLS):
        with mock.patch.object(sweepout, "_BLOCK_CELLS", block):
            for m in range(1, 9):
                trace = generate_trace(strategy, m, params)
                _block_cells(trace)
                _, cols, _ = _events(trace)
                heads = np.flatnonzero(np.append(True, cols[1:] != cols[:-1]))
                assert np.array_equal(
                    np.sort(cols[heads]), np.arange(trace.graph.entry_count)
                ), (m, block)


_EVENT_FAULTS = ("over", "below", "nan", "jump")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_event_stream_faults_match_dense_oracle(data, params):
    # faults in a fill's events, some at or next to a block boundary
    strategy = data.draw(st.sampled_from(["dfs-fill", "bfs-fill"]))
    trace = generate_trace(strategy, data.draw(st.integers(1, 3)), params)
    block = data.draw(st.sampled_from([1, 2, 3, 7, 64, sweepout._BLOCK_CELLS]))
    first, cols, values = _events(trace)
    caps, bound = trace.graph.capacities, trace.step_bound
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(_EVENT_FAULTS))
        if data.draw(st.booleans()):
            edge = block * data.draw(st.integers(0, (cols.size - 1) // block))
            i = edge + data.draw(st.sampled_from([-1, 0, 1]))
            i = min(max(i, 0), cols.size - 1)
        else:
            i = data.draw(st.integers(0, cols.size - 1))
        before = _dense_of_events(first, cols, values)[i]  # the row event i changes
        c = int(cols[i])
        values = values.copy()
        if kind == "over":
            values[i] = caps[c] * 1.5
        elif kind == "below":
            values[i] = -1.0
        elif kind == "nan":
            values[i] = np.nan
        elif kind == "jump":
            values[i] = caps[c] if before[c] < caps[c] - 2 * bound else 0.0
    probe = data.draw(st.integers(0, cols.size))
    _assert_events_match_dense(trace, first, cols, values, block, probe)


@pytest.mark.parametrize("block", [1, 2, 5, None])
@pytest.mark.parametrize("drop, ok", [(0.0, True), (0.5, True), (3.0, False)])
def test_revisited_column_jumps_from_its_last_event(params, block, drop, ok):
    # a column's run cut by a block boundary at a multiple of 10: the block
    # of 1, 2 or 5 events that starts there revisits the column with two
    # more events, ``drop`` step bounds below its last value and back, and
    # the first one's jump is measured from the walked row, that last value
    trace = generate_trace("bfs-fill", 2, params)
    first, cols, values = _events(trace)
    bound = trace.step_bound
    at = next(
        p for p in range(10, cols.size, 10)
        if cols[p - 1] == cols[p] and values[p - 1] >= 3 * bound
    )
    last = values[at - 1]
    cols = np.insert(cols, at, [cols[at]] * 2)
    values = np.insert(values, at, [last - drop * bound, last])
    report = _assert_events_match_dense(
        trace, first, cols, values, block or sweepout._BLOCK_CELLS, at + 1
    )
    jump = (False, f"step exceeds bound {bound}", at + 1)
    assert (report.ok, report.message, report.step) == ((True, "ok", None) if ok else jump)


def test_row_equals_dense_row(params):
    trace = generate_trace("bfs-fill", 4, params)
    for t in (0, 1, 57, trace.shape[0] - 1):
        assert trace.row(t).tobytes() == trace.steps[t].tobytes()
        assert not trace.row(t).flags.writeable
    with pytest.raises(InvalidParameterError, match="outside the trace"):
        trace.row(trace.shape[0])


def test_dense_table_of_a_fill_is_refused_past_the_cap(params):
    trace = generate_trace("dfs-fill", 12, params)
    with pytest.raises(CapacityError, match="trace cap"):
        trace.steps
    assert validate_trace(trace).ok


# ---------------------------------------------------------------------------
# matching rebuilt level by level against the node-by-node stack walk


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 7),
    density=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=12, density=0.5, seed=12)
@example(m=12, density=1.0, seed=0)
def test_max_matching_equals_stack_oracle(m, density, seed):
    tree = build_tree(m)
    rng = np.random.default_rng(seed)
    allowed = EdgeSet(np.flatnonzero(rng.random(tree.node_count - 1) < density) + 2)
    edges = max_matching(tree, allowed)
    expect_count, expect_edges = max_matching_stack(tree, allowed)
    assert len(edges) == expect_count
    assert list(edges) == expect_edges


def test_certificate_matching_equals_stack_oracle():
    trace = generate_trace("random-monotone", 9, BlockParams.default(), seed=4)
    cert = certify(trace)
    edges = max_matching(trace.graph.tree, cert.sandwich_regions)
    assert (len(edges), list(edges)) == max_matching_stack(
        trace.graph.tree, cert.sandwich_regions
    )
    assert cert.disjoint_count == len(edges) > 0


# ---------------------------------------------------------------------------
# CSV


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_csv_text_equals_cell_oracle(strategy, m, params):
    trace = generate_trace(strategy, m, params, seed=6)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    assert buf.getvalue() == trace_csv_cells(trace)


def _written(steps, graph):
    trace = SweepoutTrace(graph=graph, steps=steps, step_bound=1.0)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    return buf.getvalue(), trace_csv_cells(trace)


def test_csv_hand_built_rows_equal_cell_oracle(params):
    # rows: first, no change, sign of zero and one value, every entry
    steps = np.array([
        [0.0, -0.0, np.nan, 1.5, 1.5],
        [0.0, -0.0, np.nan, 1.5, 1.5],
        [-0.0, -0.0, np.nan, 2.0, 1.5],
        [0.1, 0.0, -np.nan, np.inf, 1e-300],
    ])
    text, expect = _written(steps, region_graph(1, params))
    assert text == expect
    assert "2,node:1,-0.0\n" in text and "3,node:3,nan\n" in text
    assert _written(steps[:0], region_graph(1, params)) == ("step,entry,volume\n",) * 2


_CELL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1.5, 1e-300, 2.0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_random_rows_equal_cell_oracle(data, params):
    # each row changes a drawn set of entries (none, some or all) to drawn values
    graph = region_graph(2, params)
    rows = data.draw(st.integers(0, 8))
    steps = np.empty((rows, graph.entry_count))
    row = np.zeros(graph.entry_count)
    for r in range(rows):
        for e in data.draw(st.sets(st.integers(0, graph.entry_count - 1))):
            row[e] = data.draw(st.sampled_from(_CELL_VALUES))
        steps[r] = row
    text, expect = _written(steps, graph)
    assert text == expect


def _csv_lines(trace):
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    return buf.getvalue().splitlines()


def _read_lines(lines, trace):
    return trace_read_csv(io.StringIO("\n".join(lines) + "\n"), trace.graph, trace.step_bound)


# a step text from the line's own step text
_STEP_TEXTS = {
    "negative_step": lambda step: "-1",
    "bad_step": lambda step: "x",
    "huge_step": lambda step: "9" * 20,
    "spaced_step": lambda step: f" {step} ",
    "empty_step": lambda step: "",
    "zero_step": lambda step: f"0{step}",
    "plus_step": lambda step: f"+{step}",
    "digits_18": lambda step: step.zfill(18),
    "digits_19": lambda step: step.zfill(19),
    "digits_20": lambda step: step.zfill(20),
    "huge_18": lambda step: "9" * 18,  # fits int64
    "huge_19": lambda step: "9" * 19,  # past int64
    "underscore_step": lambda step: "1_0",
    "arabic_step": lambda step: step.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
_VOLUME_TEXTS = {
    "nan": "nan", "inf": "inf", "bad_volume": "1.0.0", "exp_volume": "1e-05",
    "subnormal_volume": "5e-324", "upper_exp_volume": "1E-05", "underscore_volume": "1_0",
    "empty_volume": "",
}


def _mutated(lines, kind, i):
    """``lines`` with one line-level change at line ``i``."""
    lines = list(lines)
    step, _, rest = lines[i].partition(",")
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[-1] = lines[-1], lines[i]
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "spaces":
        lines.insert(i, " \t ")
    elif kind == "two_fields":
        lines[i] = lines[i].rpartition(",")[0]
    elif kind == "four_fields":
        lines[i] += ",0"
    elif kind in _STEP_TEXTS:
        lines[i] = f"{_STEP_TEXTS[kind](step)},{rest}"
    elif kind == "extra_huge_step":
        lines.insert(i, f"{'9' * 20},{rest}")
    elif kind == "bad_entry":
        lines[i] = f"{step},node:0,1.0"
    elif kind == "empty_entry":
        lines[i] = f"{step},,{rest.partition(',')[2]}"
    elif kind == "zero_entry":
        lines[i] = f"{step},{rest.replace(':', ':0', 1)}"  # node:01 for node:1
    elif kind in _VOLUME_TEXTS:
        lines[i] = lines[i].rpartition(",")[0] + "," + _VOLUME_TEXTS[kind]
    elif kind in ("\x0c", "\x1c", "\x85", "\u2028"):
        lines[i] = lines[i][:3] + kind + lines[i][3:]  # a line break inside a record
    return lines


_LINE_MUTATIONS = (
    "drop", "duplicate", "swap", "blank", "spaces", "two_fields", "four_fields",
    "extra_huge_step", "bad_entry", "empty_entry", "zero_entry", *_STEP_TEXTS, *_VOLUME_TEXTS,
    "\x0c", "\x1c", "\x85", "\u2028",
)


def _read_outcome(read, *args):
    try:
        return "ok", read(*args)
    except (TraceError, ValueError) as exc:
        return "error", str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_csv_reader_matches_whole_text_oracle(data, params):
    # line-level mutations, three line endings and blocks down to one
    # character, so lines and "\r\n" pairs straddle block edges
    strategy = data.draw(st.sampled_from(STRATEGIES))
    trace = generate_trace(strategy, data.draw(st.integers(1, 2)), params, seed=2)
    lines = _csv_lines(trace)
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(_LINE_MUTATIONS))
        lines = _mutated(lines, kind, data.draw(st.integers(1, len(lines) - 1)))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline, newline * 2]))
    block = data.draw(st.sampled_from([1, 2, 3, 17, 256, sweepout._CSV_CHUNK]))
    _assert_read_matches_oracle(text, trace, block)


def _assert_read_matches_oracle(text, trace, block):
    expect = _read_outcome(read_csv_whole, text, trace.graph.tree.node_count)
    with mock.patch.object(sweepout, "_CSV_CHUNK", block):
        got = _read_outcome(trace_read_csv, io.StringIO(text), trace.graph, trace.step_bound)
    if got[0] == "ok":
        got = "ok", got[1].steps
    assert got[0] == expect[0], (got, expect)
    if got[0] == "ok":
        assert got[1].tobytes() == expect[1].tobytes()
    else:
        assert got[1] == expect[1]


@pytest.mark.parametrize("kind", _LINE_MUTATIONS)
@pytest.mark.parametrize("block", [256, sweepout._CSV_CHUNK])
def test_csv_each_mutation_matches_oracle(kind, block, params):
    # every mutation once, near the start and at the last line
    trace = generate_trace("dfs-fill", 2, params)
    lines = _csv_lines(trace)
    for i in (5, len(lines) - 1):
        text = "\n".join(_mutated(lines, kind, i)) + "\n"
        _assert_read_matches_oracle(text, trace, block)


_VOLUME_HEADS = ["0.", "1.", "1.000000", "1.00000000000000", "1.0000000000000000000000"]


@settings(max_examples=100, deadline=None)
@given(
    heads=st.lists(st.sampled_from(_VOLUME_HEADS), min_size=1, max_size=8),
    tails=st.lists(st.text("0123456789", max_size=8), min_size=1, max_size=8),
)
def test_csv_volume_texts_dedupe_by_every_byte(heads, tails, params):
    # volume texts of up to 32 bytes that share their first 8, 16 or 24
    # bytes and differ after, or differ only in length
    trace = generate_trace("uniform", 1, params)
    lines = _csv_lines(trace)
    for i in range(1, len(lines)):
        volume = heads[i % len(heads)] + tails[i % len(tails)]
        lines[i] = f"{lines[i].rpartition(',')[0]},{volume}"
    _assert_read_matches_oracle("\n".join(lines) + "\n", trace, sweepout._CSV_CHUNK)


@pytest.mark.parametrize("block", [1 << 14, sweepout._CSV_CHUNK])
def test_csv_byte_route_reads_a_fill_alone(block, params):
    # the m = 5 round trip, in blocks of many whole lines
    trace = generate_trace("dfs-fill", 5, params)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    with mock.patch.object(sweepout, "_CSV_CHUNK", block):
        back = trace_read_csv(io.StringIO(buf.getvalue()), trace.graph, trace.step_bound)
    assert back.steps.tobytes() == trace.steps.tobytes()


def test_csv_field_past_the_byte_width_rejected(params):
    # a volume text of _FIELD_BYTES is read; one byte more is a bad record
    trace = generate_trace("dfs-fill", 1, params)
    lines = _csv_lines(trace)
    head = lines[1].rpartition(",")[0]
    volume = "0." + "0" * (sweepout._FIELD_BYTES - 3) + "1"
    lines[1] = f"{head},{volume}"
    expect = np.array(trace.steps)
    expect[0, 0] = float(volume)
    assert _read_lines(lines, trace).steps.tobytes() == expect.tobytes()
    lines[1] = f"{head},0{volume}"
    with pytest.raises(TraceError, match=f"^line 2: bad record '{lines[1]}'$"):
        _read_lines(lines, trace)


@pytest.mark.parametrize("strategy", ["uniform", "random-monotone"])
@pytest.mark.parametrize("block", [17, 256, 1 << 14, sweepout._CSV_CHUNK])
def test_csv_round_trip_of_rarely_repeating_volumes(strategy, block, params):
    # few volume texts repeat, and lines straddle blocks at every size; the
    # small blocks read uniform's text at m = 3, since at m = 5 its 5.6 MB
    # took 32 s in blocks of 17 characters
    m = 3 if strategy == "uniform" and block < 1 << 14 else 5
    trace = generate_trace(strategy, m, params, seed=4)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    with mock.patch.object(sweepout, "_CSV_CHUNK", block):
        back = trace_read_csv(io.StringIO(buf.getvalue()), trace.graph, trace.step_bound)
    assert back.steps.tobytes() == trace.steps.tobytes()


@pytest.mark.parametrize("block", [17, sweepout._CSV_CHUNK])
def test_csv_step_past_int64_is_not_dense(block, params):
    # a dense table plus one record whose step does not fit in int64: its
    # step is not the one its line's position gives
    trace = generate_trace("dfs-fill", 1, params)
    lines = _csv_lines(trace)
    lines.append("9" * 20 + ",node:1,0.0")
    with mock.patch.object(sweepout, "_CSV_CHUNK", block):
        with pytest.raises(
            TraceError, match=f"^line {len(lines)}: bad record '{lines[-1]}'$"
        ):
            _read_lines(lines, trace)


@pytest.mark.parametrize("header", ["", "\n", "step,entry\n", " step,entry,volume\n"])
def test_csv_bad_header_matches_oracle(header, params):
    graph = region_graph(1, params)
    text = header + "0,node:1,0.0\n"
    with pytest.raises(TraceError) as err:
        trace_read_csv(io.StringIO(text), graph, 1.0)
    with pytest.raises(ValueError) as expect:
        read_csv_whole(text, graph.tree.node_count)
    assert str(err.value) == str(expect.value) == "missing 'step,entry,volume' header"


def test_csv_read_memory_is_bounded(params):
    # the whole text held as one str and one str per line peaked at 33 MiB;
    # blocks of 2**19 split into lines peaked at 9.5 MiB, 2**17 parsed as
    # bytes and scattered into the table at 7.3, and read in order at 4.3
    trace = generate_trace("dfs-fill", 5, params)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    source = io.StringIO(buf.getvalue())  # holds its text before tracing starts
    tracemalloc.start()
    try:
        back = trace_read_csv(source, trace.graph, trace.step_bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.steps, trace.steps)
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
def test_csv_read_memory_is_bounded_for_other_line_ends(newline, params):
    # after the writer's header, the first line ends with "\r\n", or the
    # whole text after it is one "\r"-broken line, read as one block
    trace = generate_trace("dfs-fill", 5, params)
    header, *lines = _csv_lines(trace)
    source = io.StringIO(f"{header}\n{newline.join(lines)}{newline}")
    tracemalloc.start()
    try:
        with pytest.raises(TraceError) as err:
            trace_read_csv(source, trace.graph, trace.step_bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    first = f"{lines[0]}\r" if newline == "\r\n" else f"{newline.join(lines)}{newline}"
    assert str(err.value) == f"line 2: bad record {first!r}"
    assert peak < 16 * 2**20, peak


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
    # the line after the record it repeats is out of the writer's order
    lineno = 22 if replace else len(lines)
    with pytest.raises(TraceError, match=f"^line {lineno}: bad record '{dup}'$"):
        _read_lines(lines, trace)


@pytest.mark.parametrize("volume", ["nan", "inf", "-inf"])
def test_csv_non_finite_volume_rejected(params, volume):
    trace = generate_trace("uniform", 2, params)
    lines = _csv_lines(trace)
    step, ident, _ = lines[40].split(",")
    lines[40] = f"{step},{ident},{volume}"
    with pytest.raises(TraceError, match=f"^line 41: bad record '{lines[40]}'$"):
        _read_lines(lines, trace)


def test_csv_bad_line_named(params):
    trace = generate_trace("uniform", 2, params)
    lines = _csv_lines(trace)
    lines.insert(8, "")
    lines[30] = "4,node:1"
    with pytest.raises(TraceError, match=r"^line 9: bad record ''$"):
        _read_lines(lines, trace)


def test_csv_blank_lines_rejected(params):
    trace = generate_trace("random-monotone", 2, params, seed=3)
    lines = _csv_lines(trace)
    lines[5:5] = ["", "   "]
    with pytest.raises(TraceError, match=r"^line 6: bad record ''$"):
        _read_lines(lines, trace)


def test_csv_text_cut_inside_its_last_line_rejected(params):
    # every line ends with "\n": the last line cut short is a bad record,
    # not a shorter volume; a text cut after a whole line ends inside a row
    trace = generate_trace("uniform", 2, params)
    buf = io.StringIO()
    trace_write_csv(trace, buf)
    text = buf.getvalue()
    assert text.endswith("\n162,tube:7,1.4804406601634037\n")
    with pytest.raises(
        TraceError, match=r"^line 2120: bad record '162,tube:7,1\.48044066016'$"
    ):
        trace_read_csv(io.StringIO(text[:-6]), trace.graph, trace.step_bound)
    with pytest.raises(TraceError, match="^missing entries: trace table is not dense$"):
        trace_read_csv(
            io.StringIO(text[: text.rindex("\n", 0, -1) + 1]), trace.graph, trace.step_bound
        )


def test_csv_header_only_reads_empty_table(params):
    graph = region_graph(2, params)
    back = trace_read_csv(io.StringIO("step,entry,volume\n"), graph, 0.1)
    assert back.steps.shape == (0, graph.entry_count)


# ---------------------------------------------------------------------------
# non-finite volumes


def test_nan_rows_hiding_a_jump_rejected(params):
    # NaN in column 0 of rows 5-7 must not hide a 10x step-bound jump in row 6
    trace = generate_trace("uniform", 3, params)
    steps = trace.steps.copy()
    steps[5:8, 0] = np.nan
    steps[6:, 1] = np.minimum(steps[6:, 1] + 10 * trace.step_bound, trace.graph.capacities[1])
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    report = _reports_agree(bad)
    assert (report.ok, report.message, report.step) == (False, "entry outside [0, capacity]", 5)


def test_all_nan_interior_rejected(params):
    trace = generate_trace("uniform", 3, params)
    steps = trace.steps.copy()
    steps[1:-1] = np.nan
    bad = SweepoutTrace(graph=trace.graph, steps=steps, step_bound=trace.step_bound)
    report = _reports_agree(bad)
    assert (report.ok, report.message, report.step) == (False, "entry outside [0, capacity]", 1)
