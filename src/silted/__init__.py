"""Exact enumeration and classification of 2-term silting complexes and
silted algebras over Dynkin path algebras of types A_n and D_n.

Only the census pipeline is imported here.  Three modules load on
demand: the closed forms (`silted.formulas`, for the CLI's count and
tables commands), the reference tables with their verification helpers
(`silted.papertables`, for tables) and the realization complex
(`silted.realization`, for realization); import them by name, as in
`from silted import formulas`.  The standard library's `fractions` loads
with the first value that is not an integer (see `silted.linalg`)."""

from .quivers import (
    Arrow,
    Path,
    Quiver,
    QuiverWithRelations,
    Relation,
    are_isomorphic,
    b_reversed_quiver,
    connected_components,
    d_linear_quiver,
    d_reversed_quiver,
    global_dimension,
    is_gentle,
    is_string_algebra,
    line_quiver,
    monomial_relation,
    paths_between,
)
from .arcatalog import ARCatalog, DynkinTypeError, TauUndefinedError, knit_catalog
from .silting import (
    TwoTermObject,
    CompatibilityGraph,
    enumerate_tilting_modules,
    enumerate_two_term_silting,
    is_presilting,
    is_silting,
    is_two_term_tilting,
    two_term,
)
from .endo import EndPresentation, TwoTermHomCalc, end_algebra
from .census import (
    AlgebraSpec,
    CensusSummary,
    ClassificationRecord,
    classify_family,
)

__version__ = "0.1.0"
