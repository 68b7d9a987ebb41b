import numpy as np
import pytest

from dichromat import (
    InvalidParameterError,
    VERIFY_KINDS,
    a_of_m,
    best_black_count,
    disjoint_pairs_guarantee,
    lemma_cardinality_bound,
    theorem_leaf_bound,
    verify,
)
from dichromat import bounds
from dichromat.bounds import lemma22_depth
from dichromat.dp import DpProfile

A_VALUES = [1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683, 1365]

# m -> (smallest argmax b*, peak value d*) of the node profile
PEAK_TABLE = {
    1: (1, 1),
    2: (2, 2),
    3: (2, 2),
    4: (5, 3),
    5: (5, 3),
    6: (20, 4),
    7: (20, 4),
    8: (20, 4),
}


def test_a_of_m_values():
    assert [a_of_m(m) for m in range(1, 13)] == A_VALUES


def test_a_of_m_recursion():
    # a(m) is 1 plus every second power of two below m - 1, and
    # a(m) - 1 = 2 * (a(m-1) - [m even]) for m >= 3
    for m in range(1, 301):
        assert a_of_m(m) == 1 + sum(2**j for j in range(m - 2, 0, -2)), m
    for m in range(3, 301):
        m_prime = 1 if m % 2 == 0 else 0
        assert a_of_m(m) - 1 == 2 * (a_of_m(m - 1) - m_prime)


def test_a_of_m_rejects_bad_m():
    with pytest.raises(InvalidParameterError):
        a_of_m(0)


def test_theorem_leaf_bound():
    assert [theorem_leaf_bound(m) for m in range(1, 7)] == [1, 1, 2, 2, 3, 3]


def test_cardinality_bound_values():
    assert lemma_cardinality_bound(3, 2) == 36  # 2^2 * 3^2
    assert lemma_cardinality_bound(2, 3) == 64  # 2^3 * 2^3
    assert lemma_cardinality_bound(5, 0) == 1


@pytest.mark.parametrize(
    "m, d", [(True, 2), (False, 3), (3, True), (2, False), (2.0, 1), (2, 1.0), (-1, 2), (2, -1)]
)
def test_cardinality_bound_refuses_non_counts(m, d):
    # a bool is no count: (True, 2) once gave 4 and (False, 3) gave 0
    with pytest.raises(InvalidParameterError):
        lemma_cardinality_bound(m, d)


def test_cardinality_bound_no_overflow():
    # arbitrary precision: huge exponents stay exact
    v = lemma_cardinality_bound(12, 100)
    assert v == 2 ** 100 * 12 ** 100


@pytest.mark.parametrize("m,expect", sorted(PEAK_TABLE.items()))
def test_best_black_count_frozen(m, expect):
    assert best_black_count(m) == expect


def test_disjoint_pairs_guarantee():
    # k dichromatic edges at b*, drifting |b - b*| erodes the count
    assert disjoint_pairs_guarantee(10, 5, 5) == 2
    assert disjoint_pairs_guarantee(7, 5, 3) == 1
    assert disjoint_pairs_guarantee(3, 0, 9) == 0  # floor at zero


@pytest.mark.parametrize("bad", [True, False, 1.5, "2"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_disjoint_pairs_guarantee_refuses_non_int(slot, bad):
    # a bool is no count: (True, 1, 1) once returned 1
    args = [1, 1, 1]
    args[slot] = bad
    with pytest.raises(InvalidParameterError):
        disjoint_pairs_guarantee(*args)


@pytest.mark.parametrize("which", VERIFY_KINDS)
def test_verify_all_kinds_hold_small(which):
    for m in (1, 2, 3, 4, 5, 6):
        report = verify(m, which)
        assert report.holds, (which, m, report)
        assert report.m == m


def _profile(kind, values):
    first = 1 if kind == "node" else 0
    return DpProfile(3, kind, range(first, first + len(values)), np.array(values))


# per kind, a stand-in for the solver it reads, with its value at the bound
# and one past it on the failing side: thm27 and cor25 are bounded below,
# lemma22 and the Lipschitz steps above
DIRECTION_CASES = {
    "thm27": ("leaf_profile", [
        (_profile("leaf", [0, 1, 2, 2, 2, 1, 1, 1, 0]), 2, True),  # a(3) = 3, bound 2
        (_profile("leaf", [0, 1, 1, 1, 1, 1, 1, 1, 0]), 1, False),
    ]),
    "cor25": ("node_profile", [
        (_profile("node", [1, 2, 1]), 0, True),  # d* - |b - b*| = 1, 2, 1
        (_profile("node", [0, 2, 1]), -1, False),
    ]),
    "lipschitz_node": ("node_profile", [
        (_profile("node", [1, 2, 1]), 1, True),
        (_profile("node", [1, 3, 1]), 2, False),
    ]),
    "lipschitz_leaf": ("leaf_profile", [
        (_profile("leaf", [0, 1, 0]), 1, True),
        (_profile("leaf", [0, 2, 0]), 2, False),
    ]),
    # rows d = 0, 1, 2 (lemma22_depth(3) = 2) over black counts 0, 1, 2;
    # row 0's bound is 1
    "lemma22": ("feasible_pairs", [
        (np.array([[0, 1, 0], [0, 1, 1], [0, 0, 1]]), 1.0, True),
        (np.array([[0, 1, 1], [0, 1, 1], [0, 0, 1]]), 2.0, False),
    ]),
}


@pytest.mark.parametrize("which", VERIFY_KINDS)
def test_verify_compares_in_each_kinds_direction(monkeypatch, which):
    name, cases = DIRECTION_CASES[which]
    for standin, value, holds in cases:
        monkeypatch.setattr(bounds, name, lambda *args, **kwargs: standin)
        report = verify(3, which)
        assert (report.computed_value, report.holds) == (value, holds), report


def test_verify_thm27_exact_values():
    r = verify(7, "thm27")
    assert r.holds
    assert r.paper_bound == 4  # ceil(7/2)
    assert r.computed_value == 4


def test_verify_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        verify(2, "nonsense")


def test_verify_respects_cap():
    from dichromat import CapacityError

    with pytest.raises(CapacityError):
        verify(3, "thm27", cap=2)


def test_lemma22_depth():
    # smallest d with (2m)^d >= 2^(m+1) - 1
    assert [lemma22_depth(m) for m in (1, 2, 7, 8, 16, 20, 21)] == [2, 2, 3, 3, 4, 4, 5]
    for m in range(1, 25):
        d = lemma22_depth(m)
        assert lemma_cardinality_bound(m, d) >= 2 ** (m + 1) - 1
        assert d == 0 or lemma_cardinality_bound(m, d - 1) < 2 ** (m + 1) - 1


@pytest.mark.parametrize("m", [12, 16])
def test_lemma22_holds_deep(m):
    report = verify(m, "lemma22")
    assert report.holds and report.computed_value == 1.0
