"""The dynamic programs against the brute-force oracle, plus their own
structural guarantees (witness validity, capacity limits, matching)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    brute_max_matching,
    feasible_pairs_bigint,
    minplus_self_loop,
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


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("build", [node_profile, leaf_profile])
def test_witness_equals_loop_oracle(build, m):
    prof = build(m)
    for index in prof.index_range:
        want = witness_loop(prof.witness_seed, prof.kind, m, index)
        assert np.array_equal(witness(prof, index).bits, want), index


@pytest.mark.parametrize(
    "build, index",
    [
        (node_profile, 2641),
        (node_profile, 27829),
        (leaf_profile, 5461),
        (leaf_profile, 11721),
    ],
)
def test_witness_equals_loop_oracle_m14(build, index):
    prof = build(14)
    want = witness_loop(prof.witness_seed, prof.kind, 14, index)
    assert np.array_equal(witness(prof, index).bits, want)


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
        node_profile(15)
    with pytest.raises(CapacityError):
        leaf_profile(15)
    node_profile(3, cap=3)
    with pytest.raises(CapacityError):
        node_profile(4, cap=3)


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
    with pytest.raises(CapacityError):
        achievable_set(9, 0)


def test_achievable_profile_consistency():
    # min over d with b in B(d) must reproduce the node profile; the two
    # programs run different recurrences over different tables
    for m in range(1, 10):
        prof = node_profile(m)
        best = {}
        for d in range(2 ** (m + 1) - 1):
            for b in achievable_set(m, d, cap=9):
                best.setdefault(b, d)  # first d is minimal, loop ascends
        assert best == dict(prof.items()), m


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.integers(0, 8), st.just(np.inf)), min_size=1, max_size=40)
    .filter(lambda xs: any(x != np.inf for x in xs)),
    st.integers(0, 20),
)
def test_minplus_equals_loop_oracle(values, offset):
    e = np.asarray(values, dtype=float) + offset
    np.testing.assert_array_equal(dp._minplus_self(e), minplus_self_loop(e))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_feasible_pairs_equal_bigint_oracle(m):
    got = dp._feasible_pairs(m)
    want = feasible_pairs_bigint(m)
    assert got.dtype == bool and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_fft_residual_guard_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    for build in (node_profile, leaf_profile, dp._feasible_pairs.__wrapped__):
        with pytest.raises(DichromatError, match="residual"):
            build(3)


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
