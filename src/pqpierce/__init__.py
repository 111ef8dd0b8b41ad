"""Exact rational toolkit for intersection properties and piercing
numbers of finite families of convex polyhedral sets.

All geometry is certified: every reported point is re-checked by exact
membership, every "empty" answer comes from an infeasible exact LP or,
for a pair with a V-rep member, from a row of the other member that
the V-rep breaks by substitution, and no floating-point number enters
any computation.
"""
from .bounds import CatalogEntry, catalog_entries, catalog_lookup, eta_tuza_bound
from .constructions import (
    CounterexampleSpec,
    counterexample_family,
    escape_witness,
    family_A,
    family_B,
    free_flats_family,
    gruenbaum_line,
    poisson_binomial_coeffs,
    simplex_S,
    simplex_common_point,
)
from .errors import (
    BudgetExhaustedError,
    CatalogError,
    EmptySetError,
    MalformedInputError,
    PqPierceError,
    SearchLimitError,
)
from .hypergraph import (
    Hypergraph,
    hypergraph,
    hypergraph_from_json,
    hypergraph_to_json,
    transversal_number,
    verify_eg_equivalence,
)
from .lp import lp_budget
from .piercing import (
    IntersectionOracle,
    PiercingSolution,
    PqReport,
    build_GF,
    has_pq_property,
    is_m_free,
    min_partition,
    piercing_number,
)
from .pipelines import (
    BoundClaim,
    HypothesisCheck,
    PipelineReport,
    pierce_via_free_family,
    pierce_via_projection,
    pierce_via_transversal,
    verify_counterexample,
    verify_projection_equivalence,
)
from .rational import to_json
from .sets import (
    ConvexSet,
    Family,
    common_recession_direction,
    contains_point,
    convex_hull_union,
    family,
    family_from_json,
    family_to_json,
    hrep_set,
    intersect_nonempty,
    is_bounded,
    is_empty,
    project_drop_last,
    recession_cone,
    set_from_json,
    set_to_json,
    vrep_set,
)

__version__ = "0.1.0"
