"""Graded dimensions and representation type of Hecke-algebra blocks.

The package models blocks of cyclotomic quiver Hecke algebras in affine
type A at levels one and two: exact graded dimensions from standard
bitableau combinatorics, Weyl-orbit reduction of blocks to canonical
labels, and the resulting representation-type classification, including
front-ends for type B and type D Hecke algebras.

The verification suites live in ``heckeblocks.checks``, which this package
does not import.
"""

from .cartan import (
    AffineRank,
    RootVec,
    lambda_rep,
    mu_rep,
    null_root,
)
from .classify import (
    FINITE,
    SIMPLE,
    TAME,
    WILD,
    BlockReport,
    BrauerData,
    ClassifierConfig,
    RepType,
    UnsupportedConfigError,
    brauer_of_finite,
    classify_block,
    classify_canonical,
    classify_heckeB,
    classify_heckeD,
    classify_level_two,
    classify_tensor,
    normalize,
)
from .fock import (
    Bipartition,
    Bitableau,
    FockContext,
    Node,
    addable_nodes,
    add_node,
    content,
    enumerate_standard,
    removable_nodes,
    residue,
    tableau_stats,
)
from .gdim import (
    DimMatrix,
    QuiverBound,
    QuiverShapeError,
    block_bipartitions,
    class_matrix,
    count_standard,
    dim_matrix,
    graded_dim,
    kostka_q,
    nonzero_idempotents,
    quiver_bounds,
    residue_sequences,
    ungraded_block_dim,
)
from .orbits import (
    CanonicalRep,
    NotAWeightError,
    canonical_rep,
    dominant_reduce,
    rep_root,
)
from .qpoly import QPoly, quantum_int

__version__ = "0.1.0"

__all__ = [
    "AffineRank",
    "Bipartition",
    "Bitableau",
    "BlockReport",
    "BrauerData",
    "CanonicalRep",
    "ClassifierConfig",
    "DimMatrix",
    "FINITE",
    "FockContext",
    "Node",
    "NotAWeightError",
    "QPoly",
    "QuiverBound",
    "QuiverShapeError",
    "RepType",
    "RootVec",
    "SIMPLE",
    "TAME",
    "UnsupportedConfigError",
    "WILD",
    "add_node",
    "addable_nodes",
    "block_bipartitions",
    "brauer_of_finite",
    "canonical_rep",
    "class_matrix",
    "classify_block",
    "classify_canonical",
    "classify_heckeB",
    "classify_heckeD",
    "classify_level_two",
    "classify_tensor",
    "content",
    "count_standard",
    "dim_matrix",
    "dominant_reduce",
    "enumerate_standard",
    "graded_dim",
    "kostka_q",
    "lambda_rep",
    "mu_rep",
    "nonzero_idempotents",
    "normalize",
    "null_root",
    "quantum_int",
    "quiver_bounds",
    "removable_nodes",
    "rep_root",
    "residue",
    "residue_sequences",
    "tableau_stats",
    "ungraded_block_dim",
    "__version__",
]
