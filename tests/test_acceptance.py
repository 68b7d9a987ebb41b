"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Tolerances and time budgets are pinned here and nowhere else;
every numeric expectation is either an exact integer/rational comparison
or carries an explicit epsilon.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from dichromat import (
    BlockParams,
    STRATEGIES,
    a_of_m,
    achievable_set,
    balanced_decomposition,
    best_black_count,
    build_tree,
    certify,
    count_dichromatic,
    enumerate_full,
    enumerate_leaf_constrained,
    generate_trace,
    iso_profile_lower_bound,
    leaf_profile,
    lemma_cardinality_bound,
    max_disjoint_pairs,
    node_profile,
    region_graph,
    validate_trace,
)
from dichromat.bounds import lemma22_depth
from conftest import brute_max_matching, random_coloring, random_rational_params

# m -> (smallest argmax b*, peak d*) of the node profile; the DERIVED
# table quoted in the README
PEAK_TABLE = {
    1: (1, 1),
    2: (2, 2),
    3: (2, 2),
    4: (5, 3),
    5: (5, 3),
    6: (20, 4),
    7: (20, 4),
    8: (20, 4),
    9: (83, 5),
    10: (83, 5),
    11: (594, 6),
    12: (594, 6),
}


@contextmanager
def criterion(n: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeds {budget:.0f}s"
    except BaseException:
        print(f"ACCEPTANCE {n} [FAIL] {label}")
        raise
    print(f"ACCEPTANCE {n} [PASS] {label} ({elapsed:.1f}s)")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "profiles match exhaustive enumeration", budget=60.0):
        for m in (1, 2, 3):
            full = enumerate_full(m)
            assert dict(node_profile(m).items()) == full.min_d_by_b
        for m in (1, 2, 3, 4):
            prof = leaf_profile(m)
            for t in range(0, 2 ** m + 1):
                want, _ = enumerate_leaf_constrained(m, t)
                assert prof[t] == want, (m, t, prof[t], want)


def test_criterion_2_leaf_theorem_replay():
    with criterion(2, "leaf profile at a(m) reaches ceil(m/2), m <= 12", budget=300.0):
        for m in range(1, 13):
            value = leaf_profile(m)[a_of_m(m)]
            assert value >= math.ceil(m / 2), (m, value)


def test_criterion_3_cardinality_bound():
    with criterion(3, "achievable-set size within 2^d * m^d, m <= 16", budget=60.0):
        for m in range(1, 17):
            nodes, depth = 2 ** (m + 1) - 1, lemma22_depth(m)
            # from D* on the bound is at least the node count, which no
            # achievable set exceeds; below m = 7 every d is checked anyway
            assert lemma_cardinality_bound(m, depth) >= nodes
            for d in range(0, (nodes - 1 if m <= 6 else depth) + 1):
                size = len(achievable_set(m, d))
                assert size <= lemma_cardinality_bound(m, d), (m, d, size)


def _assert_lipschitz_all_pairs(values: np.ndarray) -> None:
    # |v[i] - v[j]| <= |i - j| for every pair, checked in row chunks
    n = values.size
    idx = np.arange(n, dtype=np.int64)
    for lo in range(0, n, 512):
        hi = min(lo + 512, n)
        dv = np.abs(values[lo:hi, None] - values[None, :])
        di = np.abs(idx[lo:hi, None] - idx[None, :])
        assert np.all(dv <= di)


def test_criterion_4_lipschitz_suites():
    with criterion(4, "both profiles 1-Lipschitz over all index pairs, m <= 12"):
        for m in range(1, 13):
            for prof in (node_profile(m), leaf_profile(m)):
                values = np.array([v for _, v in prof.items()], dtype=np.int64)
                _assert_lipschitz_all_pairs(values)


def test_criterion_5_peak_trend():
    with criterion(5, "node-profile peak >= ceil(m/2) and frozen table, m <= 12"):
        for m in range(1, 13):
            b_star, d_star = best_black_count(m)
            assert d_star >= math.ceil(m / 2), (m, d_star)
            assert (b_star, d_star) == PEAK_TABLE[m], (m, b_star, d_star)


def test_criterion_6_matching_bound():
    with criterion(6, "matching >= ceil(d/5), equals brute force for m <= 3"):
        for m in (2, 3, 4):
            tree = build_tree(m)
            rng = np.random.default_rng(600 + m)
            for _ in range(1000):
                coloring = random_coloring(tree, rng)
                d, edges = count_dichromatic(coloring)
                count, _ = max_disjoint_pairs(coloring)
                assert count >= -(-d // 5), (m, d, count)
                if m <= 3:
                    assert count == brute_max_matching(list(edges))


def test_criterion_7_volume_conservation():
    with criterion(7, "decomposition conserves volume, m <= 10, 20 param sets"):
        rng = np.random.default_rng(700)
        param_sets = [random_rational_params(rng) for _ in range(20)]
        for params in param_sets:
            assert params.is_rational
            for m in range(1, 11):
                total = region_graph(m, params).total_volume
                pieces = balanced_decomposition(m, params)
                assert sum(pieces) == total  # exact Fraction equality
        floats = BlockParams.default()
        for m in range(1, 11):
            total = region_graph(m, floats).total_volume
            drift = abs(sum(balanced_decomposition(m, floats)) - total)
            assert drift <= 1e-12 * total, (m, drift)


def test_criterion_8_certification():
    with criterion(8, "every strategy certifies C*ceil(m/2)/5, m = 2..8"):
        params = BlockParams.default()
        runs = [(s, None) for s in STRATEGIES if s != "random-monotone"]
        runs += [("random-monotone", seed) for seed in range(5)]
        for m in range(2, 9):
            need = Fraction(math.ceil(m / 2), 5)  # rel_isop_C = 1
            for strategy, seed in runs:
                trace = generate_trace(strategy, m, params, seed=seed)
                assert validate_trace(trace).ok, (strategy, m)
                cert = certify(trace)
                assert cert.certified_area >= need, (
                    strategy,
                    seed,
                    m,
                    cert.disjoint_count,
                )


def test_criterion_9_iso_solver():
    with criterion(9, "iso solver converges, monotone in m, matches C1=0 limit"):
        params = BlockParams.default()
        previous_l, previous_k = 0.0, 0
        for m in range(2, 11):
            q = iso_profile_lower_bound(m, params)
            assert not q.vacuous
            assert q.bracket_width <= 1e-9, (m, q.bracket_width)
            if q.k >= previous_k:
                assert q.L_star >= previous_l - 1e-12, (m, q.L_star, previous_l)
            previous_l, previous_k = q.L_star, q.k

        degenerate = params.replace(iso_C=0)
        for m in (2, 5, 8):
            q = iso_profile_lower_bound(m, degenerate)
            offset = abs(float(degenerate.tau) - 2 * float(degenerate.mu))
            denom = float(degenerate.V0 + degenerate.tau - 2 * degenerate.mu)
            closed_form = float(degenerate.C3) * (q.k - offset / denom) / 5
            assert abs(q.L_star - closed_form) <= 1e-8, (m, q.L_star, closed_form)
