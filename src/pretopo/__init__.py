"""Multi-criteria hierarchical clustering of finite item sets via pretopology.

The package is organized around a pseudoclosure space (:mod:`pretopo.core`)
built from similarity criteria (:mod:`pretopo.similarity`); the clustering
pipeline (:mod:`pretopo.hierarchy`) grows closed subsets from seeds and
organizes them into a quasi-hierarchy, which flattens to clusters plus
outliers.  :mod:`pretopo.datagen`, :mod:`pretopo.evaluation` and
:mod:`pretopo.ingest` provide benchmark generators, agreement metrics and
raw series ingestion; :mod:`pretopo.cli` wires everything into commands.
"""

from .core import (
    CheckResult,
    ElementSet,
    FilterSpace,
    GraphSpace,
    NeighborhoodBasis,
    PrefilterSpace,
    PseudoclosureSpace,
    Universe,
    check_additivity,
    check_isotony,
    check_singleton_union,
    pseudoclosure_from_prefilter_roundtrip,
    reconstruct_neighborhoods,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    ParseError,
    PretopoError,
    UnsupportedSpaceError,
)
from .evaluation import Partition, adjusted_rand_index, confusion_matrix
from .hierarchy import (
    ClosedFamily,
    ClosestNode,
    ClusteringResult,
    QuasiHierarchy,
    RandomNeighbor,
    Seed,
    elementary_closed_subsets,
    elementary_quasiclosures,
    extract_adjacency,
    extract_quasihierarchy,
    flatten,
    quasistructural_analysis,
)
from .similarity import (
    EuclideanBall,
    FeatureTable,
    PearsonBall,
    SizeBall,
    build_basis,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClosedFamily",
    "ClosestNode",
    "ClusteringResult",
    "ConfigError",
    "DataError",
    "DegenerateSeriesError",
    "ElementSet",
    "EuclideanBall",
    "FeatureTable",
    "FilterSpace",
    "GraphSpace",
    "NeighborhoodBasis",
    "ParseError",
    "Partition",
    "PearsonBall",
    "PrefilterSpace",
    "PretopoError",
    "PseudoclosureSpace",
    "QuasiHierarchy",
    "RandomNeighbor",
    "Seed",
    "SizeBall",
    "Universe",
    "UnsupportedSpaceError",
    "adjusted_rand_index",
    "build_basis",
    "check_additivity",
    "check_isotony",
    "check_singleton_union",
    "confusion_matrix",
    "elementary_closed_subsets",
    "elementary_quasiclosures",
    "extract_adjacency",
    "extract_quasihierarchy",
    "flatten",
    "pseudoclosure_from_prefilter_roundtrip",
    "quasistructural_analysis",
    "reconstruct_neighborhoods",
]
