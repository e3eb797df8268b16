"""Exact enumeration and classification of 2-term silting complexes and
silted algebras over Dynkin path algebras of types A_n and D_n.

The closed forms (`silted.formulas`) and the reference tables
(`silted.papertables`) are not imported here: `from silted import
formulas` loads them on demand, and the CLI imports them only for its
count and tables commands."""

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
    effective_intersection_count,
    global_dimension,
    is_gentle,
    is_gradable,
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
    realization_complex,
    star_crosscheck,
)

__version__ = "0.1.0"
