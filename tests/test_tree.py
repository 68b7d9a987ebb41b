import numpy as np
import pytest
from hypothesis import given, strategies as st

from dichromat import (
    BLACK,
    WHITE,
    CapacityError,
    EdgeSet,
    InvalidParameterError,
    a_of_m,
    achievable_set,
    all_black,
    all_white,
    black_counts,
    bounds,
    build_tree,
    coloring_from_bits,
    coloring_from_black_set,
    count_dichromatic,
    dp,
    enumerate_full,
    enumerate_leaf_constrained,
    leaf_profile,
    neighbors,
    node_profile,
    theorem_leaf_bound,
)


def test_shape_counts():
    for m in range(1, 7):
        t = build_tree(m)
        assert t.node_count == 2 ** (m + 1) - 1
        assert t.leaf_count == 2 ** m
        assert t.first_leaf == 2 ** m


def test_shape_navigation():
    t = build_tree(3)
    assert t.parent(1) is None
    assert t.parent(7) == 3
    assert t.children(3) == (6, 7)
    assert t.children(8) == ()
    assert t.is_leaf(8) and not t.is_leaf(7)
    # degrees: root 2, internal 3, leaf 1
    assert t.degree(1) == 2
    assert t.degree(2) == 3
    assert t.degree(15) == 1


def test_edges_are_parent_child_pairs():
    t = build_tree(2)
    es = list(t.edges())
    assert len(es) == 6
    assert all(p == c // 2 for p, c in es)
    assert set(es) == {(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)}


def test_neighbors_parent_first():
    t = build_tree(2)
    assert neighbors(t, 1) == [2, 3]
    assert neighbors(t, 2) == [1, 4, 5]
    assert neighbors(t, 7) == [3]


def test_build_tree_rejects_bad_m():
    with pytest.raises(InvalidParameterError):
        build_tree(0)
    with pytest.raises(CapacityError):
        build_tree(25)
    # explicit cap overrides the default
    build_tree(25, cap=25)
    with pytest.raises(CapacityError):
        build_tree(3, cap=2)


@pytest.mark.parametrize("m", [True, 0, 1.0])
@pytest.mark.parametrize(
    "entry",
    [
        build_tree,
        node_profile,
        leaf_profile,
        lambda m: achievable_set(m, 0),
        lambda m: dp.feasible_pairs(m, 0),
        dp.pairs_depth_limit,
        a_of_m,
        theorem_leaf_bound,
        bounds.lemma22_depth,
        enumerate_full,
        lambda m: enumerate_leaf_constrained(m, 0),
    ],
    ids=[
        "build_tree", "node_profile", "leaf_profile", "achievable_set", "feasible_pairs",
        "pairs_depth_limit", "a_of_m", "theorem_leaf_bound", "lemma22_depth",
        "enumerate_full", "enumerate_leaf_constrained",
    ],
)
def test_depth_entries_refuse_non_depths(entry, m):
    # a bool is an int in Python, but True is no depth
    with pytest.raises(InvalidParameterError, match="depth m must be an integer"):
        entry(m)


def test_node_range_checked():
    t = build_tree(1)
    with pytest.raises(InvalidParameterError):
        t.degree(0)
    with pytest.raises(InvalidParameterError):
        t.children(4)


def test_coloring_constructors_agree():
    t = build_tree(2)
    a = coloring_from_bits(t, [1, 0, 1, 0, 0, 1, 1])
    b = coloring_from_black_set(t, {1, 3, 6, 7})
    assert a.as_tuple() == b.as_tuple()
    assert a.black_nodes() == [1, 3, 6, 7]
    assert {type(i) for i in a.black_nodes()} == {int}
    assert a.color(1) == BLACK and a.color(2) == WHITE


def test_coloring_rejects_bad_bits():
    t = build_tree(1)
    with pytest.raises(InvalidParameterError):
        coloring_from_bits(t, [0, 1])  # wrong length
    with pytest.raises(InvalidParameterError):
        coloring_from_bits(t, [0, 1, 2])
    with pytest.raises(InvalidParameterError):
        coloring_from_black_set(t, {0})


def test_coloring_bits_immutable():
    c = all_white(build_tree(1))
    with pytest.raises(ValueError):
        c.bits[0] = 1


def test_monochromatic_extremes():
    t = build_tree(3)
    for c in (all_white(t), all_black(t)):
        d, edges = count_dichromatic(c)
        assert d == 0 and len(edges) == 0
    assert black_counts(all_black(t)) == (15, 8)
    assert black_counts(all_white(t)) == (0, 0)


def test_count_dichromatic_known_case():
    # black top path {1,2,4,5}: the only mixed edge is (1,3)
    t = build_tree(2)
    c = coloring_from_black_set(t, {1, 2, 4, 5})
    d, edges = count_dichromatic(c)
    assert d == 1
    assert list(edges) == [(1, 3)]
    assert (1, 3) in edges and (1, 2) not in edges


def test_edge_set_sorts_by_child_into_python_ints():
    edges = EdgeSet(np.array([9, 2, 15, 4, 3]))
    assert edges.children.tolist() == [2, 3, 4, 9, 15]
    assert not edges.children.flags.writeable
    assert list(edges) == [(1, 2), (1, 3), (2, 4), (4, 9), (7, 15)]
    assert {type(x) for pair in edges for x in pair} == {int}
    assert len(edges) == 5 and list(EdgeSet([])) == []
    assert (4, 9) in edges and (np.int64(7), np.int64(15)) in edges
    assert (3, 9) not in edges and (2, 5) not in edges and (7, 16) not in edges
    for bad in ([3, 1], [0]):
        with pytest.raises(InvalidParameterError, match="child end"):
            EdgeSet(bad)
    with pytest.raises(InvalidParameterError, match=r"1-D child array, got shape \(2, 2\)"):
        EdgeSet(np.array([[2, 3], [4, 5]]))


def test_single_black_leaf_counts():
    t = build_tree(3)
    c = coloring_from_black_set(t, {15})
    assert black_counts(c) == (1, 1)
    d, edges = count_dichromatic(c)
    assert d == 1 and list(edges) == [(7, 15)]


@given(st.integers(1, 4), st.data())
def test_flip_symmetry(m, data):
    """Complementing every color preserves the dichromatic edge set."""
    t = build_tree(m)
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=t.node_count, max_size=t.node_count)
    )
    c = coloring_from_bits(t, bits)
    flipped = coloring_from_bits(t, [1 - x for x in bits])
    d1, e1 = count_dichromatic(c)
    d2, e2 = count_dichromatic(flipped)
    assert d1 == d2
    assert list(e1) == list(e2)
    b1, t1 = black_counts(c)
    b2, t2 = black_counts(flipped)
    assert b1 + b2 == t.node_count and t1 + t2 == t.leaf_count


@given(st.integers(2, 4), st.data())
def test_sibling_subtree_swap_preserves_count(m, data):
    """Swapping the two subtrees under the root cannot change d."""
    t = build_tree(m)
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=t.node_count, max_size=t.node_count)
    )

    def subtree(v):
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(t.children(u))
        return sorted(out)

    left, right = subtree(2), subtree(3)
    swapped = list(bits)
    for u, v in zip(left, right):
        swapped[u - 1], swapped[v - 1] = bits[v - 1], bits[u - 1]
    d1, _ = count_dichromatic(coloring_from_bits(t, bits))
    d2, _ = count_dichromatic(coloring_from_bits(t, swapped))
    assert d1 == d2
