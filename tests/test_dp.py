"""The dynamic programs against the brute-force oracle, plus their own
structural guarantees (witness validity, capacity limits, matching)."""

import time
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dichromat import (
    CapacityError,
    DichromatError,
    InvalidParameterError,
    achievable_set,
    black_counts,
    build_tree,
    coloring_from_bits,
    count_dichromatic,
    enumerate_full,
    enumerate_leaf_constrained,
    leaf_profile,
    max_disjoint_pairs,
    node_profile,
    witness,
)
from dichromat import dp
from conftest import (
    band_coloring,
    brute_max_matching,
    convolve2d_bigint,
    feasible_pairs_bigint,
    leaf_profile_naf,
    minplus_self_loop,
    node_profile_signed,
    profile_rows_signed,
    profile_tables_two_color,
    random_coloring,
    witness_loop,
)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_node_profile_equals_oracle(m):
    assert dict(node_profile(m).items()) == enumerate_full(m).min_d_by_b


@pytest.mark.parametrize("m", [1, 2, 3])
def test_leaf_profile_equals_oracle(m):
    assert dict(leaf_profile(m).items()) == enumerate_full(m).min_d_by_t


def test_profile_index_ranges():
    npf = node_profile(3)
    lpf = leaf_profile(3)
    assert npf.index_range == range(1, 16)
    assert lpf.index_range == range(0, 9)
    with pytest.raises(InvalidParameterError):
        npf[0]
    with pytest.raises(InvalidParameterError):
        lpf[9]


@pytest.mark.parametrize("index", [True, False, 3.0, "3", None])
def test_profile_index_must_be_an_int(index):
    # a bool would read as 0 or 1, and a float reached numpy's IndexError
    for profile in (node_profile(3), leaf_profile(3)):
        with pytest.raises(InvalidParameterError, match="index must be an integer"):
            profile[index]
        with pytest.raises(InvalidParameterError, match="index must be an integer"):
            witness(profile, index)


def test_profile_boundary_values():
    # all-black is the only coloring at the top index and has d = 0
    for m in (1, 2, 3, 4):
        assert node_profile(m)[2 ** (m + 1) - 1] == 0
        assert leaf_profile(m)[0] == 0
        assert leaf_profile(m)[2 ** m] == 0
        assert leaf_profile(m)[1] == 1


def test_max_entry_smallest_argmax():
    prof = node_profile(2)
    b_star, d_star = prof.max_entry()
    assert (b_star, d_star) == (2, 2)
    assert all(v < d_star for i, v in prof.items() if i < b_star)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_node_witnesses_verify(m):
    prof = node_profile(m)
    for b, want in prof.items():
        w = witness(prof, b)
        d, _ = count_dichromatic(w)
        assert (black_counts(w)[0], d) == (b, want)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_leaf_witnesses_verify(m):
    prof = leaf_profile(m)
    for t, want in prof.items():
        w = witness(prof, t)
        d, _ = count_dichromatic(w)
        assert (black_counts(w)[1], d) == (t, want)


def test_witness_deterministic():
    prof = node_profile(4)
    assert witness(prof, 9).as_tuple() == witness(prof, 9).as_tuple()


@pytest.mark.parametrize("m", range(1, 15))
@pytest.mark.parametrize("build", [node_profile, leaf_profile])
def test_profile_rows_mirror_two_color_oracle(build, m):
    # one white-root row per depth, every row `witness` reads, against the
    # min-plus recurrence to m = 14; its mirror is the black-root row
    # (0.7 s for the oracle at node m = 14)
    prof = build(m)
    want = profile_tables_two_color(m, prof.kind)
    rows = dp._profile_tables(m, prof.kind)
    assert len(rows) == len(want) == m + 1
    for row, table in zip(rows, want):
        assert row.ndim == 1
        assert np.array_equal(row, table[0])
        assert np.array_equal(row[::-1], table[1])


def test_profile_rows_equal_signed_oracle():
    # every row `witness` reads, against the fewest signed subtree sizes
    # by a BFS over sums, a route the four-term recurrence shares nothing
    # with, at every depth up to 16, both kinds (about 0.2 s)
    start = time.perf_counter()
    for kind in ("node", "leaf"):
        for m in range(1, 17):
            got = dp._profile_tables(m, kind)
            want = profile_rows_signed(m, kind)
            assert len(got) == len(want) == m + 1
            for k, (row, expect) in enumerate(zip(got, want)):
                assert row.dtype == expect.dtype, (kind, m, k)
                assert np.array_equal(row, expect), (kind, m, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"signed rows m <= 16 took {elapsed:.1f} s"


def test_profile_rows_build_in_linear_time():
    # a few vector operations per depth: node m = 20 takes about 0.03 s,
    # where a BFS over sums took about 1 s
    start = time.perf_counter()
    node_profile(20, cap=20)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"node profile m = 20 took {elapsed:.2f} s"


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("build", [node_profile, leaf_profile])
def test_witness_equals_loop_oracle(build, m):
    prof = build(m)
    seed = [np.stack([w, w[::-1]]) for w in dp._profile_tables(m, prof.kind)]
    for index in prof.index_range:
        want = witness_loop(seed, prof.kind, m, index)
        assert np.array_equal(witness(prof, index).bits, want), index


@pytest.mark.parametrize(
    "build, index",
    [
        (node_profile, 2641),
        (node_profile, 27829),
        (leaf_profile, 5461),
        (leaf_profile, 11721),
        # the extreme indices: one black node, all black, no and all black leaves
        (node_profile, 1),
        (node_profile, 2**15 - 1),
        (leaf_profile, 0),
        (leaf_profile, 2**14),
    ],
)
def test_witness_equals_loop_oracle_m14(build, index):
    prof = build(14)
    seed = [np.stack([w, w[::-1]]) for w in dp._profile_tables(14, prof.kind)]
    want = witness_loop(seed, prof.kind, 14, index)
    assert np.array_equal(witness(prof, index).bits, want)


def test_leaf_profile_equals_naf_oracle():
    # min(naf(t), naf(2**m - t)) from bit arithmetic alone, against the
    # profile at every depth up to 18, the default cap
    start = time.perf_counter()
    for m in range(1, 19):
        np.testing.assert_array_equal(
            leaf_profile(m, cap=18).min_d, leaf_profile_naf(m), err_msg=f"m={m}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"leaf profiles m <= 18 took {elapsed:.1f} s"


def test_node_profile_equals_signed_oracle():
    # the fewest signed node-subtree sizes at the root, by the BFS over
    # sums, against the profile at every depth up to 18, the default cap
    # (the BFS takes nearly all of the time)
    start = time.perf_counter()
    for m in range(1, 19):
        np.testing.assert_array_equal(
            node_profile(m, cap=18).min_d, node_profile_signed(m), err_msg=f"m={m}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"node profiles m <= 18 took {elapsed:.1f} s"


def _proof_bits(rows, kind, m, v):
    """Bits, in heap order from node 1, of a white-root coloring of T_m
    with count v and rows[0][v] dichromatic edges, built as the proof in
    `dp._profile_tables` splits a fewest signed sum: the child's size c
    taken a times, plus a low part s with |s| <= c - h (node) or c - 1
    (leaf), found in the child's row."""
    bits = np.zeros(2 ** (m + 1), dtype=np.uint8)  # bits[0] is unused

    def whole(node, h, color):
        for level in range(h + 1):
            first = node << level
            bits[first : first + (1 << level)] = color

    def build(node, h, v, flip):  # white root; every color is xor flip
        bits[node] = flip
        if h == 0:
            assert v == 0
            return
        c = 2**h - 1 if kind == "node" else 2 ** (h - 1)
        bound = c - h if kind == "node" else c - 1
        d, child = rows[m - h][v], rows[m - h + 1]
        a = next(
            a for a in (0, 1, 2) if abs(v - a * c) <= bound and a + child[abs(v - a * c)] == d
        )
        s, left, right = v - a * c, 2 * node, 2 * node + 1
        if a == 0:  # a white child takes s, the other is all white
            build(left, h - 1, s, flip)
            whole(right, h - 1, flip)
        elif a == 1 and s >= 0:  # one child all black, a white one takes s
            whole(left, h - 1, 1 - flip)
            build(right, h - 1, s, flip)
        else:  # a black child takes c + s; the other is white (a = 1) or black
            build(left, h - 1, -s, 1 - flip)
            whole(right, h - 1, flip if a == 1 else 1 - flip)

    build(1, m, v, 0)
    return bits[1:]


def test_proof_coloring_attains_profile():
    # the coloring the proof builds from each row meets the profile at
    # every index, m <= 12, both kinds (about 4 s); a black root is the
    # flip of a white root with the mirrored count
    start = time.perf_counter()
    for kind, profile, count in (("node", node_profile, 0), ("leaf", leaf_profile, 1)):
        for m in range(1, 13):
            prof = profile(m)
            rows, tree = dp._profile_tables(m, kind), build_tree(m)
            top = rows[0].size - 1
            for index, want in prof.items():
                white = rows[0][index] == want
                bits = _proof_bits(rows, kind, m, index if white else top - index)
                coloring = coloring_from_bits(tree, bits if white else 1 - bits)
                assert count_dichromatic(coloring)[0] == want, (kind, m, index)
                assert black_counts(coloring)[count] == index, (kind, m, index)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"proof colorings m <= 12 took {elapsed:.1f} s"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.5, 0.98]))
def test_signed_subtree_identity(m, seed, p):
    # the identity behind both signed-digit oracles: each dichromatic edge
    # (p, c) adds or takes away the whole subtree under c
    tree = build_tree(m)
    coloring = coloring_from_bits(tree, np.random.default_rng(seed).random(tree.node_count) < p)
    root = coloring.color(1)
    b, t = root * tree.node_count, root * tree.leaf_count
    _, edges = count_dichromatic(coloring)
    for parent, child in edges:
        sign = coloring.color(child) - coloring.color(parent)
        below = m - (child.bit_length() - 1)  # the depth of c's subtree
        b += sign * (2 ** (below + 1) - 1)
        t += sign * 2**below
    assert (b, t) == black_counts(coloring)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_witness_is_lexicographic_minimum(m):
    full = enumerate_full(m)
    node, leaf = node_profile(m), leaf_profile(m)
    for b, want in full.witness_by_b.items():
        assert witness(node, b).as_tuple() == want.as_tuple(), b
    for t, want in full.witness_by_t.items():
        assert witness(leaf, t).as_tuple() == want.as_tuple(), t


def test_leaf_witness_is_lexicographic_minimum_m4():
    leaf = leaf_profile(4)
    for t in leaf.index_range:
        _, want = enumerate_leaf_constrained(4, t)
        assert witness(leaf, t).as_tuple() == want.as_tuple(), t


def test_profile_cap():
    with pytest.raises(CapacityError):
        node_profile(19)
    with pytest.raises(CapacityError):
        leaf_profile(19)
    assert node_profile(18).index_range == range(1, 2**19)
    assert leaf_profile(18).index_range == range(0, 2**18 + 1)
    node_profile(3, cap=3)
    with pytest.raises(CapacityError):
        node_profile(4, cap=3)


@pytest.mark.parametrize("build", [node_profile, leaf_profile])
def test_profile_cap_stops_at_the_tree_cap(build):
    # a lifted cap reaches the tree cap, m = 24, and no further: m = 25
    # is refused before any row is made (one node row alone is 512 MiB)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="capped at m=24, got m=25"):
            build(25, cap=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


@pytest.mark.parametrize("m", [1, 2, 3])
def test_achievable_set_equals_oracle(m):
    full = enumerate_full(m)
    for d in range(2 ** (m + 1) - 1):
        got = achievable_set(m, d)
        assert got.members == full.bset(d), (m, d)
        assert len(got) == len(full.bset(d))


def test_achievable_set_membership_spot_checks():
    assert achievable_set(1, 0).members == (3,)
    assert achievable_set(2, 0).members == (7,)
    # d = 1 means one boundary edge: a full subtree or its complement
    assert achievable_set(2, 1).members == (1, 3, 4, 6)


def test_achievable_set_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        achievable_set(2, 7)
    with pytest.raises(InvalidParameterError):
        achievable_set(2, -1)
    # a bool would read as 0 or 1; a negative or fractional max_d used to
    # reach numpy's own ValueError or TypeError
    with pytest.raises(InvalidParameterError):
        achievable_set(3, True)
    for bad in (-1, 2.5, True, "2"):
        with pytest.raises(InvalidParameterError, match="max_d"):
            dp.feasible_pairs(3, bad)
    # the cap is on table cells: m = 20 stops at d = 5, and m = 23 has no
    # table under the cap at all; both refusals come before any table
    assert dp.pairs_depth_limit(20) == 5
    with pytest.raises(CapacityError):
        achievable_set(20, 6)
    with pytest.raises(CapacityError):
        achievable_set(23, 0)
    with pytest.raises(CapacityError):
        achievable_set(9, 0, cap=8)  # an explicit cap still bounds the depth


def test_achievable_profile_consistency():
    # min over d with b in B(d) must reproduce the node profile: the FFT
    # pairs merge against the integer sums of the profile route
    for m in range(1, 10):
        prof = node_profile(m)
        best = {}
        for d in range(2 ** (m + 1) - 1):
            for b in achievable_set(m, d, cap=9):
                best.setdefault(b, d)  # first d is minimal, loop ascends
        assert best == dict(prof.items()), m


def test_achievable_sets_share_tables():
    # at m = 7 the rows below the band (d <= 4) take tables cut at 0, 1, 3
    # and 4, the band rows 5..128 build none, and the rows above it share
    # the one cut at the top row
    dp._feasible_pairs.cache_clear()
    for d in range(5):
        achievable_set(7, d)
    assert dp._feasible_pairs.cache_info()[:2] == (1, 4)  # (hits, misses)
    for d in range(5, 129):
        achievable_set(7, d)
    assert dp._feasible_pairs.cache_info()[:2] == (1, 4)
    for d in range(129, 2**8 - 1):
        achievable_set(7, d)
    assert dp._feasible_pairs.cache_info().misses == 5


def _band(m):
    return range((m + 1) // 2 + 1, 2**m + 1) if m >= 3 else range(0)


def test_band_coloring_builds_every_cell():
    # the achievable_set docstring's construction, for every band cell at
    # m <= 6 and a seeded sample of cells at 7 <= m <= 12, each counted
    # (about 1 s; budget 60 s)
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    for m in range(3, 13):
        n = 2 ** (m + 1) - 1
        tree = build_tree(m)
        if m <= 6:
            cells = [(d, b) for d in _band(m) for b in range(-(-d // 3), n - -(-d // 3) + 1)]
        else:
            ds = rng.integers(_band(m).start, _band(m).stop, size=200)
            cells = [(int(d), int(rng.integers(-(-d // 3), n - -(-d // 3) + 1))) for d in ds]
            # the band's corners: both edges of d at both ends of b
            for d in (_band(m).start, _band(m).stop - 1):
                first = -(-d // 3)
                cells += [(d, first), (d, first + 1), (d, n - first - 1), (d, n - first)]
        for d, b in cells:
            coloring = coloring_from_bits(tree, band_coloring(m, d, b))
            assert count_dichromatic(coloring)[0] == d, (m, d, b)
            assert black_counts(coloring)[0] == b, (m, d, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"band colorings took {elapsed:.1f} s"


def test_band_rows_equal_table():
    # every row at m <= 10 against the FFT table over all rows: the band
    # rows are the closed form, the others read the table themselves
    # (about 5 s; budget 60 s)
    start = time.perf_counter()
    for m in range(1, 11):
        n = 2 ** (m + 1) - 1
        table = dp._feasible_pairs.__wrapped__(m, n - 1)
        for d in range(n):
            want = tuple((np.flatnonzero(table[d, 1:]) + 1).tolist())
            assert achievable_set(m, d, cap=10).members == want, (m, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"achievable rows m <= 10 took {elapsed:.1f} s"


def test_band_rows_skip_the_table(monkeypatch):
    # a band row builds no table and never reaches the FFT
    def refuse(*args):
        raise AssertionError("a band row built a table")

    monkeypatch.setattr(dp, "_feasible_pairs", refuse)
    assert len(achievable_set(12, 1535)) == 8191 - 2 * 512 + 1
    assert achievable_set(16, 50).members == tuple(range(17, 2**17 - 17))
    assert achievable_set(3, 3).members == tuple(range(1, 15))
    # the band's edges: below it and above it the table is read
    for m, d in ((3, 2), (3, 9), (6, 3), (6, 65), (7, 4), (7, 129)):
        with pytest.raises(AssertionError, match="table"):
            achievable_set(m, d)


@pytest.mark.parametrize("m", range(1, 17))
def test_node_profile_equals_first_feasible_depth(m):
    # the node profile at b is the least d with F[d, b]: the integer sums
    # of the profile route against the FFT pairs merge cut at the
    # profile's peak, two independent routes
    prof = node_profile(m, cap=16)
    table = dp._feasible_pairs(m, int(prof.min_d.max()))
    assert table[:, 1:].any(axis=0).all()
    np.testing.assert_array_equal(table[:, 1:].argmax(axis=0), prof.min_d)


@settings(max_examples=200, deadline=None)
@given(
    arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=12)),
    st.one_of(st.none(), st.integers(1, 24)),
)
@example(np.ones((9, 2), dtype=bool), None)  # taller than wide
@example(np.ones((2, 9), dtype=bool), 2)
def test_self_convolve_support_equals_bigint(x, out_rows):
    want = convolve2d_bigint(x.astype(np.uint64), x.astype(np.uint64)) > 0
    got = np.array(list(islice(dp._self_convolve_rows(x), out_rows)))
    np.testing.assert_array_equal(got, want[:out_rows])


def _seeded_row(k, seed, inf_share, top):
    """A vector of 2**k + 1 entries in 0..top, an ``inf_share`` of them inf:
    the length of a leaf-profile row, whose merge width the FFT pads."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, top + 1, size=2**k + 1).astype(float)
    e[rng.random(e.size) < inf_share] = np.inf
    return e


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(st.integers(0, 8), st.just(np.inf)), min_size=1, max_size=40),
        st.builds(
            _seeded_row,
            st.integers(0, 10),
            st.integers(0, 2**32 - 1),
            st.sampled_from([0.0, 0.3, 0.9]),
            st.integers(0, 40),
        ),
    ).filter(lambda xs: np.isfinite(xs).any()),
    st.integers(0, 20),
    st.integers(0, 130),
)
@example(_seeded_row(10, 0, 0.0, 40), 3, 130)  # 1025 entries, all finite
@example(_seeded_row(10, 1, 0.9, 8), 0, 130)  # 1025 entries, some columns never hit
@example(_seeded_row(10, 0, 0.0, 40), 3, 50)  # cut below the deepest first hit
def test_minplus_equals_loop_oracle(values, offset, max_d):
    # the first hits of one merged level, cut at max_d, of a child table
    # that holds the row e are the min-plus square of e with its mirror
    # one edge dearer, where that is at most max_d
    e = np.asarray(values, dtype=float) + offset
    merged = dp._merge_level(_indicator(e), max_d)
    want = np.append(minplus_self_loop(np.minimum(e, e[::-1] + 1)), np.inf)
    want[want > max_d] = np.inf
    assert len(merged) <= max_d + 1
    np.testing.assert_array_equal(_first_hits(merged), want)


def _indicator(row):
    """The (d, count) table holding each finite row[v] at [row[v], v]."""
    finite = np.flatnonzero(np.isfinite(row))
    table = np.zeros((int(row[finite].max()) + 1, row.size), dtype=bool)
    table[row[finite].astype(np.intp), finite] = True
    return table


def _first_hits(table):
    """The first row of each column that holds a True, else inf."""
    return np.where(table.any(axis=0), table.argmax(axis=0), np.inf)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_feasible_pairs_equal_bigint_oracle(m):
    want = feasible_pairs_bigint(m).T  # the oracle is indexed [b, d]
    for max_d in (0, 1, 3, 2 ** (m + 1) - 2):
        got = dp._feasible_pairs(m, max_d)
        assert got.dtype == bool and got.shape == want[: max_d + 1].shape
        np.testing.assert_array_equal(got, want[: max_d + 1])


def test_feasible_pairs_cut_equals_bigint_oracle():
    # every level of the big-integer merge cut at d <= 8, against the FFT
    # merge at every m <= 12, and against each achievable_set row d <= 8,
    # the band rows' closed form among them (about 6 s, 3.7 s of it at
    # m = 12)
    start = time.perf_counter()
    for m in range(1, 13):
        want = feasible_pairs_bigint(m, max_d=8).T  # the oracle is indexed [b, d]
        np.testing.assert_array_equal(dp._feasible_pairs(m, 8), want, err_msg=f"m={m}")
        for d in range(min(9, 2 ** (m + 1) - 1)):
            got = achievable_set(m, d, cap=12).members
            assert got == tuple((np.flatnonzero(want[d, 1:]) + 1).tolist()), (m, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"cut feasible pairs m <= 12 took {elapsed:.1f} s"


def test_fft_residual_guard_raises(monkeypatch):
    irfft = np.fft.irfft
    calls = []

    def off(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs) + 0.3

    monkeypatch.setattr(np.fft, "irfft", off)
    with pytest.raises(DichromatError, match="residual"):
        dp._feasible_pairs.__wrapped__(3, 3)
    # profiles are integer sums: no FFT runs, so there is no residual
    calls.clear()
    node_profile(14)
    leaf_profile(14)
    assert calls == []


# the three "internal error" raises below guard invariants that no input
# breaks; each test injects the fault its raise reports


@pytest.mark.parametrize("kind", ["node", "leaf"])
def test_unreachable_profile_count_raises(monkeypatch, kind):
    climb = dp._climb

    def holed(m, kind):
        *rows, top = climb(m, kind)
        yield from rows
        top = top.copy()
        top[1] = top[-2] = np.inf  # count 1 is in both kinds' range
        yield top

    monkeypatch.setattr(dp, "_climb", holed)
    with pytest.raises(DichromatError, match="^internal error: unreachable count in profile range$"):
        dp._profile(4, kind, None)


def test_witness_split_not_found_raises(monkeypatch):
    profile = node_profile(4)
    tables = dp._profile_tables

    def raised(m, kind):
        # every row below the root one more than any split can meet
        root, *rest = tables(m, kind)
        return [root, *(row + 1 for row in rest)]

    monkeypatch.setattr(dp, "_profile_tables", raised)
    with pytest.raises(DichromatError, match="^internal error: witness split not found$"):
        witness(profile, 5)


def test_witness_check_failed_raises(monkeypatch):
    profile = leaf_profile(3)
    count = dp.count_dichromatic
    monkeypatch.setattr(
        dp, "count_dichromatic", lambda coloring: (count(coloring)[0] + 1, count(coloring)[1])
    )
    with pytest.raises(DichromatError, match=r"^internal error: witness check failed \("):
        witness(profile, 3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_matching_equals_brute_force(m):
    tree = build_tree(m)
    rng = np.random.default_rng(1000 + m)
    for _ in range(200):
        c = random_coloring(tree, rng)
        d, edges = count_dichromatic(c)
        count, pairs = max_disjoint_pairs(c)
        assert count == brute_max_matching(list(edges))
        # returned pairs are dichromatic and vertex-disjoint
        seen = set()
        for p, ch in pairs:
            assert (p, ch) in edges
            assert p not in seen and ch not in seen
            seen.update((p, ch))
        assert len(pairs) == count


def test_matching_guarantee_floor():
    # any d dichromatic edges admit >= ceil(d/5) disjoint ones
    rng = np.random.default_rng(7)
    for m in (2, 3, 4):
        tree = build_tree(m)
        for _ in range(100):
            c = random_coloring(tree, rng)
            d, _ = count_dichromatic(c)
            count, _ = max_disjoint_pairs(c)
            assert count >= -(-d // 5)


def test_matching_empty_and_full():
    tree = build_tree(2)
    count, pairs = max_disjoint_pairs(coloring_from_bits(tree, [0] * 7))
    assert count == 0 and len(pairs) == 0
    # alternating by level: all 6 edges dichromatic, but any two edges
    # incident to the same internal node collide, so only 2 fit
    c = coloring_from_bits(tree, [1, 0, 0, 1, 1, 1, 1])
    d, edges = count_dichromatic(c)
    assert d == 6
    count, pairs = max_disjoint_pairs(c)
    assert count == brute_max_matching(list(edges)) == 2


@settings(max_examples=60)
@given(st.integers(1, 4), st.data())
def test_matching_never_exceeds_edges(m, data):
    tree = build_tree(m)
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=tree.node_count, max_size=tree.node_count)
    )
    c = coloring_from_bits(tree, bits)
    d, _ = count_dichromatic(c)
    count, _ = max_disjoint_pairs(c)
    assert 0 <= count <= d
    assert count >= -(-d // 5)
