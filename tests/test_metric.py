import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dichromat import (
    BlockParams,
    InvalidParameterError,
    balanced_decomposition,
    build_tree,
    iso_profile_lower_bound,
    load_params,
    region_graph,
    width_lower_bound,
)
from dichromat import metric
from dichromat.metric import parse_param_value
from conftest import capacities_of, node_volumes_of, random_rational_params

RAT = BlockParams(V0=Fraction(20), mu=Fraction(1), tau=Fraction(3, 2), alpha=Fraction(3))


class TestValidation:
    def test_defaults_valid(self):
        p = BlockParams.default()
        assert p.V0 == pytest.approx(2 * math.pi ** 2)
        assert not p.is_rational

    def test_rational_flag(self):
        assert RAT.is_rational

    @pytest.mark.parametrize("key", ["V0", "mu", "tau", "alpha"])
    def test_volumes_strictly_positive(self, key):
        with pytest.raises(InvalidParameterError, match=f"{key} must be strictly positive"):
            RAT.replace(**{key: 0})
        with pytest.raises(InvalidParameterError, match=f"{key} must be strictly positive"):
            RAT.replace(**{key: -1})

    @pytest.mark.parametrize("key", ["rel_isop_C", "iso_C", "C3"])
    def test_constants_nonnegative(self, key):
        with pytest.raises(InvalidParameterError, match=f"{key} must be nonnegative"):
            RAT.replace(**{key: -1})
        RAT.replace(**{key: 0})  # zero is the degenerate-but-legal edge

    def test_tube_exceeds_ball(self):
        with pytest.raises(InvalidParameterError, match="tau must exceed neck volume mu"):
            RAT.replace(tau=Fraction(1, 2))  # tau <= mu

    def test_ball_budget(self):
        # tau = 8 > mu, so only 3*mu >= V0 = 20 is left to refuse it
        with pytest.raises(InvalidParameterError, match=re.escape("3*mu must stay below V0")):
            RAT.replace(mu=7, tau=8)

    def test_threshold_headroom(self):
        with pytest.raises(
            InvalidParameterError, match=re.escape("2*alpha must stay below V0 - 3*mu")
        ):
            RAT.replace(alpha=9)  # 2*alpha >= V0 - 3*mu

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError, match="V0 must be finite"):
            RAT.replace(V0=float("nan"))

    @pytest.mark.parametrize("value", ["20", None, True])
    def test_rejects_a_volume_that_is_no_number(self, value):
        with pytest.raises(InvalidParameterError, match=f"V0 must be a number, got {value!r}"):
            RAT.replace(V0=value)


class TestRegionGraph:
    def test_m1_volumes(self):
        g = region_graph(1, RAT)
        # root has degree 2, both leaves degree 1
        assert g.node_volume(1) == RAT.V0 - 2 * RAT.mu
        assert g.node_volume(2) == g.node_volume(3) == RAT.V0 - RAT.mu
        assert g.edge_volume(2) == g.edge_volume(3) == RAT.tau
        assert g.total_volume == 3 * RAT.V0 + 2 * (RAT.tau - 2 * RAT.mu)

    @pytest.mark.parametrize("child", [1, 0, 4])
    def test_edge_volume_refuses_a_node_with_no_edge_into_it(self, child):
        with pytest.raises(InvalidParameterError, match=f"no edge into node {child}"):
            region_graph(1, RAT).edge_volume(child)

    def test_m2_region_multiset(self):
        g = region_graph(2, RAT)
        vols = sorted(g.node_volume(i) for i in range(1, 8))
        expect = sorted(
            [RAT.V0 - RAT.mu] * 4 + [RAT.V0 - 2 * RAT.mu] + [RAT.V0 - 3 * RAT.mu] * 2
        )
        assert vols == expect
        assert sum(g.edge_volume(c) for c in range(2, 8)) == 6 * RAT.tau

    def test_total_volume_closed_form(self):
        for m in (1, 2, 3, 4):
            g = region_graph(m, RAT)
            n = 2 ** (m + 1) - 1
            assert g.total_volume == n * RAT.V0 + (n - 1) * (RAT.tau - 2 * RAT.mu)

    def test_exactness_for_rational_inputs(self):
        g = region_graph(3, RAT)
        assert isinstance(g.total_volume, Fraction)

    @pytest.mark.parametrize(
        "params",
        [RAT, BlockParams.default(), BlockParams(V0=20, mu=1, tau=Fraction(3, 2), alpha=3)],
        ids=["fractions", "floats", "ints"],
    )
    def test_volumes_by_degree_equal_per_node(self, params):
        for m in range(1, 15):
            g = region_graph(m, params)
            n = g.tree.node_count
            got = [g.node_volume(i) for i in range(1, n + 1)]
            nodes = node_volumes_of(g)
            assert list(map(type, got)) == list(map(type, nodes))
            assert got == nodes
            tubes = [g.edge_volume(c) for c in range(2, n + 1)]
            assert list(map(type, tubes)) == [type(params.tau)] * (n - 1)
            assert tubes == [params.tau] * (n - 1)
            assert g.capacities.tobytes() == capacities_of(g).tobytes()
            total = sum(nodes) + (n - 1) * params.tau
            if params.is_rational:
                assert g.total_volume == total
            else:
                assert math.isclose(g.total_volume, total, rel_tol=1e-12)


class TestBalancedDecomposition:
    def test_m1_pieces(self):
        pieces = balanced_decomposition(1, RAT)
        assert sorted(pieces) == sorted(
            [RAT.V0, RAT.V0 + RAT.tau - 2 * RAT.mu, RAT.V0 + RAT.tau - 2 * RAT.mu]
        )

    def test_piece_census(self):
        for m in (1, 2, 3, 5):
            pieces = balanced_decomposition(m, RAT)
            n = 2 ** (m + 1) - 1
            assert len(pieces) == n
            shared = RAT.V0 + RAT.tau - 2 * RAT.mu
            assert pieces.count(RAT.V0) == 1
            assert pieces.count(shared) == n - 1

    def test_conservation_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_rational_params(rng)
            for m in (1, 2, 3, 4):
                assert sum(balanced_decomposition(m, p)) == region_graph(m, p).total_volume

    def test_conservation_float(self, default_params):
        for m in (1, 2, 3, 6):
            total = region_graph(m, default_params).total_volume
            assert sum(balanced_decomposition(m, default_params)) == pytest.approx(
                total, rel=1e-12
            )


class TestScaling:
    @settings(max_examples=30)
    @given(st.integers(1, 4), st.fractions(min_value="1/7", max_value=9))
    def test_scaling_covariance(self, m, s):
        if s <= 0:
            return
        base = RAT
        scaled = base.replace(
            V0=base.V0 * s, mu=base.mu * s, tau=base.tau * s, alpha=base.alpha * s
        )
        g0 = region_graph(m, base)
        g1 = region_graph(m, scaled)
        assert g1.total_volume == s * g0.total_volume
        p0 = sorted(balanced_decomposition(m, base))
        p1 = sorted(balanced_decomposition(m, scaled))
        assert p1 == [s * x for x in p0]


class TestWidthBound:
    def test_m2_paper_value(self):
        paper, certified = width_lower_bound(2, RAT)
        assert paper == Fraction(1, 5)  # rel_isop_C * ceil(2/2) / 5
        assert certified >= paper

    def test_certified_dominates(self):
        for m in range(1, 9):
            paper, certified = width_lower_bound(m, RAT)
            assert certified >= paper

    def test_scales_with_constant(self):
        doubled = RAT.replace(rel_isop_C=2)
        p1, c1 = width_lower_bound(3, RAT)
        p2, c2 = width_lower_bound(3, doubled)
        assert p2 == 2 * p1 and c2 == 2 * c1


class TestIsoBound:
    def test_converges_and_certifies(self, default_params):
        q = iso_profile_lower_bound(4, default_params)
        assert not q.vacuous
        assert q.bracket_width <= 1e-9
        assert q.residual >= 0  # kept endpoint is on the feasible side
        # L_star is itself feasible: f(L_star) >= 0 re-derived by hand
        k, p = q.k, default_params
        denom = p.V0 + p.tau - 2 * p.mu
        c2 = ((p.iso_C * q.L_star) ** 1.5 + abs(p.tau - 2 * p.mu)) / denom
        assert p.C3 * (k - c2) / 5 - q.L_star >= 0

    def test_v_m_closed_form(self, default_params):
        q = iso_profile_lower_bound(3, default_params)
        p = default_params
        assert q.v_m == pytest.approx(q.b_star * (p.V0 + p.tau - 2 * p.mu))

    def test_vacuous_only_at_degenerate_constant(self):
        q = iso_profile_lower_bound(2, RAT.replace(C3=0))
        assert q.vacuous and q.L_star == 0.0

    def test_negative_start_closes_the_bracket(self):
        # f(0) < 0 needs a peak k below C2(0) < 1, which no depth has, so
        # a patched k = 0 shows the vacuous exit: L = 0, residual f(0)
        with mock.patch.object(metric, "best_black_count", return_value=(1, 0)):
            q = iso_profile_lower_bound(2, RAT)
        f0 = -float(RAT.C3) * 0.5 / 19.5 / 5  # C2(0) = |tau - 2 mu| / (V0 + tau - 2 mu)
        assert (q.vacuous, q.L_star, q.bracket_width) == (True, 0.0, 0.0)
        assert q.residual == pytest.approx(f0)

    def test_zero_iso_constant_closed_form(self):
        p = RAT.replace(iso_C=0)
        q = iso_profile_lower_bound(3, p)
        k = float(q.k)
        offset = abs(float(p.tau) - 2 * float(p.mu))
        denom = float(p.V0 + p.tau - 2 * p.mu)
        want = float(p.C3) * (k - offset / denom) / 5
        assert q.L_star == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_root_past_float_spacing_answers_one_float_wide(self, default_params, m):
        # from 2**23 on, floats next to the root lie more than 1e-9 apart:
        # the bisection stops at adjacent floats with f >= 0 at the kept end
        p = default_params.replace(C3=1e8, iso_C=0)
        q = iso_profile_lower_bound(m, p)
        assert q.L_star > 2**23 and not q.vacuous
        assert q.L_star + q.bracket_width == math.nextafter(q.L_star, math.inf)
        assert q.residual >= 0
        offset = abs(float(p.tau) - 2 * float(p.mu))
        want = 1e8 * (q.k - offset / float(p.V0 + p.tau - 2 * p.mu)) / 5
        assert q.L_star <= want < q.L_star + 2 * q.bracket_width

    def test_monotone_in_m(self, default_params):
        prev = 0.0
        for m in range(2, 8):
            q = iso_profile_lower_bound(m, default_params)
            assert q.L_star >= prev - 1e-12
            prev = q.L_star


class TestParamsIO:
    def test_parse_values(self):
        assert parse_param_value("3") == 3
        assert parse_param_value(" 22/7 ") == Fraction(22, 7)
        assert parse_param_value("1.5e1") == 15.0
        with pytest.raises(InvalidParameterError):
            parse_param_value("x")
        with pytest.raises(InvalidParameterError):
            parse_param_value("1/0")

    def test_load_params_roundtrip(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text(
            "# comment line\n"
            "V0 = 20\n"
            "mu = 1\n"
            "tau = 3/2\n"
            "alpha = 3  # inline comment\n"
        )
        p = load_params(f)
        assert p == RAT
        assert p.rel_isop_C == 1  # omitted keys fall back to defaults

    def test_load_params_unknown_key(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text("bogus = 1\n")
        with pytest.raises(InvalidParameterError, match="bogus"):
            load_params(f)

    def test_load_params_malformed_line(self, tmp_path):
        f = tmp_path / "p.cfg"
        f.write_text("V0 20\n")
        with pytest.raises(InvalidParameterError, match="key = value"):
            load_params(f)
