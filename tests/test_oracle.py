"""Ground-truth enumeration.  Expected values below were computed by an
independent throwaway enumerator before this package existed and are
frozen; the oracle must keep reproducing them byte for byte."""

import pytest

from dichromat import (
    CapacityError,
    InvalidParameterError,
    black_counts,
    count_dichromatic,
    enumerate_full,
    enumerate_leaf_constrained,
)

# minimal d over colorings with exactly b black nodes
MIN_D_BY_B = {
    1: {1: 1, 2: 1, 3: 0},
    2: {1: 1, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 0},
}

# minimal d over colorings with exactly t black leaves
MIN_D_BY_T = {
    1: {0: 0, 1: 1, 2: 0},
    2: {0: 0, 1: 1, 2: 1, 3: 1, 4: 0},
    3: {0: 0, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 1, 8: 0},
}

# lexicographically smallest optimal bit vectors (node 1 first)
WITNESS_BY_B_M1 = {1: (0, 0, 1), 2: (1, 0, 1), 3: (1, 1, 1)}
WITNESS_BY_T_M1 = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 1, 1)}


@pytest.mark.parametrize("m", [1, 2])
def test_min_d_by_b_frozen(m):
    assert enumerate_full(m).min_d_by_b == MIN_D_BY_B[m]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_min_d_by_t_frozen(m):
    assert enumerate_full(m).min_d_by_t == MIN_D_BY_T[m]


def test_domains_cover_exactly():
    full = enumerate_full(3)
    assert sorted(full.min_d_by_b) == list(range(1, 16))
    assert sorted(full.min_d_by_t) == list(range(0, 9))


def test_lex_witnesses_m1():
    full = enumerate_full(1)
    assert {b: w.as_tuple() for b, w in full.witness_by_b.items()} == WITNESS_BY_B_M1
    assert {t: w.as_tuple() for t, w in full.witness_by_t.items()} == WITNESS_BY_T_M1


def test_lex_witness_m2_single_leaf():
    # t=1 optimum: blacken the last leaf only
    w = enumerate_full(2).witness_by_t[1]
    assert w.as_tuple() == (0, 0, 0, 0, 0, 0, 1)


def test_witnesses_attain_their_minimum():
    for m in (1, 2, 3):
        full = enumerate_full(m)
        for b, w in full.witness_by_b.items():
            d, _ = count_dichromatic(w)
            assert d == full.min_d_by_b[b]
            assert black_counts(w)[0] == b
        for t, w in full.witness_by_t.items():
            d, _ = count_dichromatic(w)
            assert d == full.min_d_by_t[t]
            assert black_counts(w)[1] == t


def test_bset_slices():
    full1 = enumerate_full(1)
    assert full1.bset(0) == (3,)
    assert full1.bset(1) == (1, 2)
    full2 = enumerate_full(2)
    assert full2.bset(0) == (7,)
    assert full2.bset(1) == (1, 3, 4, 6)
    assert full2.bset(2) == (1, 2, 3, 4, 5, 6)


def test_bset_excludes_all_white():
    # b = 0 never appears even though the all-white coloring has d = 0
    full = enumerate_full(2)
    for d in range(0, 7):
        assert 0 not in full.bset(d)


def test_achievable_contains_raw_zero_pair():
    assert (0, 0) in enumerate_full(1).achievable


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        enumerate_full(4)
    enumerate_full(1, cap=1)
    with pytest.raises(CapacityError):
        enumerate_full(2, cap=1)


def test_leaf_constrained_matches_full_enumeration():
    for m in (1, 2, 3):
        full = enumerate_full(m)
        for t, want in full.min_d_by_t.items():
            got_d, got_w = enumerate_leaf_constrained(m, t)
            assert got_d == want
            assert black_counts(got_w)[1] == t
            d, _ = count_dichromatic(got_w)
            assert d == want
            # same tie-break: global lexicographic minimum
            assert got_w.as_tuple() == full.witness_by_t[t].as_tuple()


def test_leaf_constrained_m4_spot_checks():
    # values cross-checked against the pattern-level search
    d0, _ = enumerate_leaf_constrained(4, 0)
    d1, w1 = enumerate_leaf_constrained(4, 1)
    d16, _ = enumerate_leaf_constrained(4, 16)
    assert d0 == 0 and d16 == 0
    assert d1 == 1
    assert black_counts(w1)[1] == 1


def test_leaf_constrained_rejects_bad_t():
    with pytest.raises(InvalidParameterError):
        enumerate_leaf_constrained(2, 5)
    with pytest.raises(InvalidParameterError):
        enumerate_leaf_constrained(2, -1)
    with pytest.raises(CapacityError):
        enumerate_leaf_constrained(5, 1)


@pytest.mark.parametrize("t", [True, False, 1.5, "2"])
def test_leaf_constrained_refuses_non_int_t(t):
    # a bool is no count: (2, True) once answered for t = 1
    with pytest.raises(InvalidParameterError):
        enumerate_leaf_constrained(2, t)
