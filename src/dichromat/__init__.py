"""Exact minimal-dichromatic-edge profiles on full binary trees, plus
certified width and isoperimetric-profile lower bounds for a glued-block
volume model built over the same trees.

The package splits into three layers:

* combinatorics: :mod:`dichromat.tree`, :mod:`dichromat.oracle`,
  :mod:`dichromat.dp`, :mod:`dichromat.bounds`;
* geometry: :mod:`dichromat.metric`, :mod:`dichromat.sweepout`;
* front end: :mod:`dichromat.cli`.

The oracle enumerates everything and is the ground truth the exact
solvers are tested against; it is deliberately capped at small depths.
"""

from .bounds import (
    BoundReport,
    VERIFY_KINDS,
    a_of_m,
    best_black_count,
    disjoint_pairs_guarantee,
    lemma_cardinality_bound,
    theorem_leaf_bound,
    verify,
)
from .dp import (
    AchievableSet,
    DpProfile,
    achievable_set,
    leaf_profile,
    max_disjoint_pairs,
    node_profile,
    witness,
)
from .errors import (
    AdmissibilityError,
    CapacityError,
    DichromatError,
    InvalidParameterError,
    TraceError,
)
from .metric import (
    BlockParams,
    IsoQuery,
    RegionGraph,
    balanced_decomposition,
    iso_profile_lower_bound,
    load_params,
    region_graph,
    width_lower_bound,
)
from .oracle import FullProfile, enumerate_full, enumerate_leaf_constrained
from .sweepout import (
    STRATEGIES,
    SliceCertificate,
    SweepoutTrace,
    ValidationReport,
    certify,
    find_special_slice,
    generate_trace,
    induce_coloring,
    trace_read_csv,
    trace_write_csv,
    validate_trace,
)
from .tree import (
    BLACK,
    WHITE,
    Coloring,
    EdgeSet,
    TreeShape,
    all_black,
    all_white,
    black_counts,
    build_tree,
    coloring_from_bits,
    coloring_from_black_set,
    count_dichromatic,
    neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "AchievableSet",
    "AdmissibilityError",
    "BLACK",
    "BlockParams",
    "BoundReport",
    "CapacityError",
    "Coloring",
    "DichromatError",
    "DpProfile",
    "EdgeSet",
    "FullProfile",
    "InvalidParameterError",
    "IsoQuery",
    "RegionGraph",
    "STRATEGIES",
    "SliceCertificate",
    "SweepoutTrace",
    "TraceError",
    "TreeShape",
    "VERIFY_KINDS",
    "ValidationReport",
    "WHITE",
    "a_of_m",
    "achievable_set",
    "all_black",
    "all_white",
    "balanced_decomposition",
    "best_black_count",
    "black_counts",
    "build_tree",
    "certify",
    "coloring_from_bits",
    "coloring_from_black_set",
    "count_dichromatic",
    "disjoint_pairs_guarantee",
    "enumerate_full",
    "enumerate_leaf_constrained",
    "find_special_slice",
    "generate_trace",
    "induce_coloring",
    "iso_profile_lower_bound",
    "leaf_profile",
    "lemma_cardinality_bound",
    "load_params",
    "max_disjoint_pairs",
    "neighbors",
    "node_profile",
    "region_graph",
    "theorem_leaf_bound",
    "trace_read_csv",
    "trace_write_csv",
    "validate_trace",
    "verify",
    "width_lower_bound",
    "witness",
]
