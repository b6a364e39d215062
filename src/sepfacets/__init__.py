"""Exact facet counting for symmetric edge polytopes of small graphs."""

from .canon import canonical_form, generate_all, generate_connected
from .facets import (
    count_bipartite_strict,
    count_facets,
    count_suspension_via_domination,
    enumerate_facet_subgraphs,
    enumerate_facets_oracle,
    mu_of,
    subgraph_component_value,
)
from .formats import (
    FormatError,
    emit_edge_spec,
    emit_graph6,
    parse_edge_list,
    parse_edge_spec,
    parse_graph6,
)
from .formulas import (
    BoundPair,
    classify_extremal,
    conjecture_bounds,
    join_upper_bound,
    n_complete_bipartite,
    n_complete_multipartite,
)
from .graphs import (
    Graph,
    GraphError,
    bipartition,
    components,
    contract_edges,
    contract_vertex,
    delete_closed_neighborhood,
    delete_vertex,
    from_edges,
    induced,
    is_connected,
    join,
    one_sum,
    suspension,
)
from .harness import (
    VerificationReport,
    sweep_conjecture,
    verify_identities,
)

__version__ = "0.1.0"
