"""Exact-arithmetic toolkit for pencils of lines, graph-restricted
operation sets, rich-point counting, incidence verification, and scaling
sweeps."""

from .errors import (
    CentreOnPointSet,
    CoincidentCentres,
    DomainTooSmall,
    IdenticalPoints,
    NonpositiveValue,
    PencilError,
    PointIsCentre,
    PreconditionError,
    ShiftHitsB,
    SingularMatrix,
    TooFewPencils,
    TooFewPoints,
    ZeroDenominator,
)
from .projective import (
    ProjLine,
    ProjPoint,
    ProjTransform,
    apply_transform,
    collinear,
    incident,
    line_through,
)
from .graphs import (
    FORD_DELTA,
    BipartiteGraph,
    GroundSet,
    ford_estimate,
    multiplication_table_size,
    neighbourhood_square_sum,
    restricted_difference_set,
    restricted_sum_set,
    shifted_restricted_ratio_set,
)
from .constructions import (
    GraphConstruction,
    Pencil,
    PencilConfig,
    build_farey_shift_construction,
    build_grid_footnote_config,
    build_m_pencil_config,
    build_symmetric_farey_construction,
    floored_log_quotient,
    general_position_centers,
    pencils_from_graph,
    standard_shift_centres,
)
from .richpoints import RichPointReport, point_on_pencil, rich_points
from .incidence import (
    IncidenceInstance,
    LemmaChainReport,
    build_lemma_instance,
    count_incidences,
    szemeredi_trotter_ok,
    verify_lemma_chain,
)
from .sweeps import (
    ExponentFit,
    SweepRow,
    fit_exponent,
    fitted_ceiling_violations,
    sweep,
    tracking_ratios,
)

__version__ = "0.1.0"
