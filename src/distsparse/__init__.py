"""Distributed spectral sparsification of weighted graphs, a deterministic
Number-On-Forehead protocol simulator, and a spectral-clustering application."""

from .cluster import (
    ClusterAssignment,
    adjusted_rand_index,
    kmeans,
    multicut_weight,
    spectral_clustering,
    spectral_embedding,
)
from .errors import DimensionMismatch, Error, ParseError, PreconditionError
from .graph import (
    WeightedGraph,
    connected_components,
    dump_graph,
    induced_subgraph,
    laplacian,
    load_graph,
    load_graph_file,
    normalized_laplacian,
    quadratic_form,
)
from .nof import (
    DeltaSystemReport,
    Transcript,
    deza_threshold,
    greatest_overlapping_coefficient,
    is_delta_system,
    lemma2_check,
    lemma3_check,
    overlapping_coefficient,
    protocol_broadcast_graph,
    protocol_sparsifier_exchange,
    protocol_verify_sunflower,
    site_view,
    symmetric_difference_on_site,
)
from .overlap import (
    EdgeFamily,
    combined_laplacian_residual,
    family_from_dict,
    load_family,
    occurrence_number,
    overlapping_cardinality,
    overlapping_cardinality_partition,
)
from .sparsify import (
    SparsifierResult,
    UnionSparsifier,
    effective_resistances,
    epsilon_prime,
    sparsify_er,
    union_sparsifiers,
    verify_epsilon,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
