"""Volume bookkeeping for the glued-sphere model and its certified bounds.

The model assigns each tree node a spherical region whose volume is the
base volume minus one neck volume per incident edge, and each edge a
connecting tube.  All arithmetic stays exact (`fractions.Fraction`) when
every parameter is rational; otherwise it degrades to float, and callers
should compare with a relative tolerance of about 1e-12.

Parameters
----------
V0      volume of one unglued sphere
mu      volume removed per neck (one per edge endpoint)
tau     volume of one connecting tube, tau > mu
alpha   sweepout threshold, 0 < 2*alpha < V0 - 3*mu
rel_isop_C, iso_C, C3
        comparison constants; zero is allowed and degenerates the
        corresponding bound to the trivial one

The defaults pick V0 = 2*pi**2 with mu = V0/20, tau = 1.5*mu and
alpha = (V0 - 3*mu)/5.  These are model choices, not derived quantities.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .bounds import a_of_m, best_black_count, theorem_leaf_bound
from .dp import leaf_profile
from .errors import InvalidParameterError
from .tree import TreeShape, build_tree

Number = Union[int, Fraction, float]

BISECTION_WIDTH = 1e-9


def _is_rational(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _check_float(value: Number, what: str, fix: str = "use smaller volumes") -> None:
    """Refuse a quantity the float paths would read as infinite."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an exact value past the float range
        finite = False
    if not finite:
        raise InvalidParameterError(f"{what} overflows float64; {fix}")


def _exact_div(num: Number, den: int) -> Number:
    if _is_rational(num):
        return Fraction(num, den)
    return num / den


@dataclass(frozen=True)
class BlockParams:
    """Validated volume-model parameters; see the module docstring."""

    V0: Number
    mu: Number
    tau: Number
    alpha: Number
    rel_isop_C: Number = 1
    iso_C: Number = 1
    C3: Number = 1

    def __post_init__(self) -> None:
        for name in PARAM_KEYS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, Fraction, float)):
                raise InvalidParameterError(f"{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        for name in ("V0", "mu", "tau", "alpha"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be strictly positive")
        for name in ("rel_isop_C", "iso_C", "C3"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be nonnegative")
        if not self.tau > self.mu:
            raise InvalidParameterError("tube volume tau must exceed neck volume mu")
        if not 3 * self.mu < self.V0:
            raise InvalidParameterError("3*mu must stay below V0")
        try:
            room = self.V0 - 3 * self.mu
        except OverflowError:  # an exact value past the float range met a float
            raise InvalidParameterError(
                "V0 - 3*mu overflows float64; give V0 and mu exactly, or smaller"
            ) from None
        if not 2 * self.alpha < room:
            raise InvalidParameterError("2*alpha must stay below V0 - 3*mu")

    @classmethod
    def default(cls) -> "BlockParams":
        v0 = 2 * math.pi ** 2
        mu = v0 / 20
        return cls(V0=v0, mu=mu, tau=1.5 * mu, alpha=(v0 - 3 * mu) / 5)

    @property
    def is_rational(self) -> bool:
        return all(_is_rational(getattr(self, k)) for k in PARAM_KEYS)

    def replace(self, **changes: Number) -> "BlockParams":
        return dataclasses.replace(self, **changes)


PARAM_KEYS = tuple(f.name for f in dataclasses.fields(BlockParams))


@dataclass(frozen=True)
class RegionGraph:
    """Region and tube volumes of one tree, as four capacity classes.

    A region holds V0 minus mu per incident edge, so its volume depends
    only on its degree: the root (2), internal nodes (3) and leaves (1).
    Every tube holds tau.  `volume_classes` lists these four (volume,
    count) pairs in column order; every other figure is derived from
    them.  Sweepout traces use the column layout ``[regions 1..n, tubes
    into 2..n]``: nodes heap-ordered, tubes by child index, so each
    class fills one contiguous index range.
    """

    tree: TreeShape
    params: BlockParams

    @cached_property
    def volume_classes(self) -> tuple[tuple[Number, int], ...]:
        """(volume, count) of the root, internal, leaf and tube classes."""
        p, tree = self.params, self.tree
        return (
            (p.V0 - 2 * p.mu, 1),
            (p.V0 - 3 * p.mu, tree.first_leaf - 2),
            (p.V0 - p.mu, tree.leaf_count),
            (p.tau, tree.node_count - 1),
        )

    @property
    def total_volume(self) -> Number:
        return sum(count * volume for volume, count in self.volume_classes)

    def node_volume(self, node: int) -> Number:
        self.tree._check_node(node)
        kind = 0 if node == 1 else 1 if node < self.tree.first_leaf else 2
        return self.volume_classes[kind][0]

    def edge_volume(self, child: int) -> Number:
        if not 2 <= child <= self.tree.node_count:
            raise InvalidParameterError(f"no edge into node {child}")
        return self.volume_classes[3][0]

    @property
    def entry_count(self) -> int:
        return 2 * self.tree.node_count - 1

    def region_col(self, node: int) -> int:
        return node - 1

    def tube_col(self, child: int) -> int:
        return self.tree.node_count + child - 2

    @property
    def leaf_cols(self) -> slice:
        return slice(self.tree.first_leaf - 1, self.tree.node_count)

    def entry_ids(self) -> list[str]:
        n = self.tree.node_count
        return [f"node:{i}" for i in range(1, n + 1)] + [
            f"tube:{c}" for c in range(2, n + 1)
        ]

    @cached_property
    def capacities(self) -> np.ndarray:
        """Read-only float capacity vector in column order."""
        volumes, counts = zip(*self.volume_classes)
        caps = np.repeat([float(v) for v in volumes], counts)
        caps.flags.writeable = False
        return caps


def region_graph(m: int, params: BlockParams) -> RegionGraph:
    """Region volumes by degree: V0 minus mu per incident edge.

    Raises `InvalidParameterError` when the total volume overflows
    float64, so that every capacity and every sum of them is finite."""
    graph = RegionGraph(tree=build_tree(m), params=params)
    try:
        total = graph.total_volume
    except OverflowError:  # an exact volume past the float range met a float one
        total = math.inf
    _check_float(total, f"total volume at m = {m}")
    return graph


def balanced_decomposition(m: int, params: BlockParams) -> tuple[Number, ...]:
    """Piece volumes of the balanced decomposition, heap-ordered.

    Every tube splits as (tau - mu) + mu, the larger share going to the
    child side.  The root piece then has volume exactly V0 and every
    other piece V0 + tau - 2*mu; the total matches the region graph.
    """
    nodes = build_tree(m).node_count
    return (params.V0,) + (params.V0 + params.tau - 2 * params.mu,) * (nodes - 1)


def paper_width_bound(m: int, params: BlockParams) -> Number:
    """The closed-form sweepout-width bound rel_isop_C * ceil(m/2) / 5;
    it needs no DP table."""
    return _exact_div(params.rel_isop_C * theorem_leaf_bound(m), 5)


def certified_width_bound(leaf_value: int, params: BlockParams) -> Number:
    """rel_isop_C * ceil(leaf_value / 5) for the exact leaf-profile value
    at a(m); it always dominates `paper_width_bound`."""
    return params.rel_isop_C * (-(-leaf_value // 5))


def width_lower_bound(m: int, params: BlockParams, cap: int | None = None):
    """(paper_bound, certified_bound) on the sweepout width.

    paper_bound is the closed form rel_isop_C * ceil(m/2) / 5.
    certified_bound replaces ceil(m/2) by the exact leaf-profile value
    at a(m) and takes the ceiling of the division, so it always
    dominates the closed form.
    """
    exact = leaf_profile(m, cap=cap)[a_of_m(m)]
    return paper_width_bound(m, params), certified_width_bound(exact, params)


@dataclass(frozen=True)
class IsoQuery:
    """Result of the isoperimetric-profile bound solve.

    ``L_star`` is a certified member of the feasible set (f(L_star) >= 0),
    within ``bracket_width`` of the true supremum.  ``vacuous`` marks the
    degenerate case f(0) <= 0 where only the trivial bound 0 survives.
    """

    m: int
    params: BlockParams
    k: int
    b_star: int
    v_m: Number
    L_star: float
    vacuous: bool
    residual: float
    bracket_width: float


def iso_profile_lower_bound(
    m: int, params: BlockParams, cap: int | None = None
) -> IsoQuery:
    """Largest L with L < C3 * (k - C2(L)) / 5, found by bisection.

    k is the peak of the node profile (`best_black_count`); C2 folds the
    isoperimetric correction (iso_C * L)**1.5 and the piece-volume
    normalization into the pair count.  f is strictly decreasing, so the
    bracket [0, C3*k/5] pins the root; iteration stops once the bracket
    is narrower than 1e-9 and the kept endpoint's residual is below
    1e-9 * max(1, C3*k).  The solve itself runs in float even for
    rational inputs.  Raises `InvalidParameterError` when a float the
    solve forms would overflow float64: v_m, C3, iso_C, the bracket top
    C3 * k / 5, or (iso_C * top) ** 1.5, the largest power f takes.
    Closing takes about log2(top / 1e-9) halvings, and more when the root
    lies far below the top: C3 = 1e100 at m = 3 takes 361 and iso_C =
    1e200 takes 687.  From 2**23 (about 8.4e6) on, the floats next to the
    root lie more than 1e-9 apart, so the bracket cannot close: there the
    bisection stops once a halving moves neither end, as ``mid`` rounds to
    ``lo`` or ``hi``, and answers with that bracket one float wide, its
    ``bracket_width`` above 1e-9 (C3 = 1e8 with iso_C = 0 at m = 3).
    Each halving moves an end inward or stops, and at most about 2100
    halvings take any finite float64 bracket to adjacent floats, so the
    loop ends.
    """
    b_star, k = best_black_count(m, cap=cap)
    try:
        denom = params.V0 + params.tau - 2 * params.mu
        v_m = b_star * denom
    except OverflowError:  # an exact volume past the float range met a float one
        v_m = math.inf
    _check_float(v_m, "v_m")  # and denom <= v_m, as b_star >= 1
    for name in ("C3", "iso_C"):
        _check_float(getattr(params, name), name, f"use a smaller {name}")

    c3 = float(params.C3)
    iso_c = float(params.iso_C)
    offset = abs(float(params.tau) - 2 * float(params.mu))
    denom_f = float(denom)
    k_f = float(k)
    top = c3 * k_f / 5
    _check_float(top, f"the bracket top C3 * k / 5 at m = {m}", "use a smaller C3")
    try:  # f reads L in [0, top] only, and its power grows with L
        power = (iso_c * top) ** 1.5
    except OverflowError:
        power = math.inf
    _check_float(power, f"(iso_C * C3 * k / 5) ** 1.5 at m = {m}", "use a smaller iso_C or C3")

    def f(length: float) -> float:
        c2 = ((iso_c * length) ** 1.5 + offset) / denom_f
        return c3 * (k_f - c2) / 5 - length

    ftol = BISECTION_WIDTH * max(1.0, c3 * k_f)
    f_lo = f(0.0)
    # f(0) <= 0 is vacuous and closes the bracket at [0, 0]; otherwise
    # f_lo stays >= 0, as lo only moves to a point with f >= 0
    vacuous = f_lo <= 0
    lo, hi = 0.0, 0.0 if vacuous else top
    while not (hi - lo <= BISECTION_WIDTH and f_lo <= ftol):
        mid = (lo + hi) / 2
        fm = f(mid)
        if mid == (lo if fm >= 0 else hi):
            break  # the halving would move no end: lo and hi are adjacent floats
        if fm >= 0:
            lo, f_lo = mid, fm
        else:
            hi = mid

    return IsoQuery(
        m=m,
        params=params,
        k=k,
        b_star=b_star,
        v_m=v_m,
        L_star=lo,
        vacuous=vacuous,
        residual=f_lo,
        bracket_width=hi - lo,
    )


def parse_param_value(text: str) -> Number:
    """Config values: integers and p/q stay exact, everything else is float."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"bad rational literal {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidParameterError(f"bad numeric literal {text!r}") from exc


def load_params(path: str | Path) -> BlockParams:
    """Read ``key = value`` lines of UTF-8 text; keys are exactly the
    seven parameter names, '#' starts a comment, omitted keys fall back
    to the defaults."""
    values: dict[str, Number] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise InvalidParameterError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(PARAM_KEYS)}"
            )
        values[key] = parse_param_value(value)
    return BlockParams.default().replace(**values)
