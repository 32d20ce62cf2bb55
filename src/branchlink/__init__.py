"""Resolution combinatorics and link invariants of the surfaces attached to
plane-branch semigroups: partial-resolution data, exact intersection-matrix
determinants, homology sphere classification, plumbing graphs, and splice
diagrams with their equations."""

from .semigroup import (
    CharacteristicData,
    NotAPlaneSemigroup,
    NotMinimal,
    NoRepresentation,
    compute_b_coefficients,
    derive_from_generators,
    monomial_curve_equations,
    random_plane_semigroup,
)
from .quotient import (
    BambooChain,
    CyclicType,
    HJType,
    TwoRowType,
    hj_continued_fraction,
    normalize_cyclic,
    reduce_two_row,
    to_hj,
)
from .qres import (
    QResolutionData,
    RequiresG3,
    compute_qresolution,
    exceptional_genus,
    rupture_census,
    self_intersections,
    strict_self_intersection,
)
from .detcalc import (
    LinkClass,
    LinkKind,
    build_intersection_matrix,
    classify_brieskorn_pham,
    classify_link,
    det_S,
    det_b_matrices,
    det_closed_form,
    det_exact,
    r_sequence,
)
from .plumbing import (
    H1Decomposition,
    PlumbingGraph,
    assemble_full_resolution,
    classify_topologically,
    graph_determinant,
    h1_link,
    integer_intersection_matrix,
    minimize,
    pullback_on_full_resolution,
)
from .splice import (
    SpliceDiagram,
    SpliceEquations,
    check_semigroup_condition,
    diagrams_isomorphic,
    expected_splice_diagram,
    linking_numbers,
    splice_equations,
    splice_from_plumbing,
)

__version__ = "0.1.0"
