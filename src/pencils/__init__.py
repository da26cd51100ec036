"""Exact-arithmetic toolkit for pencils of lines, graph-restricted
ratio sets, rich-point counting, incidence verification, and scaling
sweeps."""

from .errors import CentreOnPointSet, PreconditionError, ZeroDenominator
from .projective import ProjPoint
from .graphs import (
    BipartiteGraph,
    GroundSet,
    multiplication_table_size,
    neighbourhood_square_sum,
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
from .richpoints import RichPointReport, rich_points
from .incidence import (
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
    sweep,
)

__version__ = "0.1.0"
