import io
from fractions import Fraction

import numpy as np
import pytest

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
from dichromat.sweepout import capacities


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
    caps = capacities(trace.graph)
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
    caps = capacities(graph)
    steps = np.vstack([np.zeros_like(caps), caps])
    trace = SweepoutTrace(graph=graph, steps=steps, step_bound=float(params.alpha) / 4)
    report = validate_trace(trace)
    assert not report.ok
    assert report.step == 1


def test_validate_flags_capacity_excess(params):
    trace = generate_trace("uniform", 2, params)
    steps = trace.steps.copy()
    steps[7, 2] = float(capacities(trace.graph)[2]) * 1.5
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
    steps[:, 1] = np.minimum(steps[:, 1], capacities(trace.graph)[1])
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
    caps = capacities(graph)
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
        cert = certify(trace, params)
        paper, _ = width_lower_bound(m, params)
        assert cert.certified_area >= paper
        assert cert.disjoint_count >= theorem_leaf_bound(m) / 5
        assert cert.certified_area == params.rel_isop_C * cert.disjoint_count


def test_certificate_pairs_are_verified_sandwiches(params):
    m = 3
    trace = generate_trace("bfs-fill", m, params)
    cert = certify(trace, params)
    caps = capacities(trace.graph)
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
    cert = certify(trace, p)
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
