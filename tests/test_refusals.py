"""Public calls that refuse their input, each with its exception and text."""

import re

import pytest

from heckeblocks import (
    AffineRank,
    Bipartition,
    Bitableau,
    BrauerData,
    CanonicalRep,
    ClassifierConfig,
    DimMatrix,
    FockContext,
    Node,
    RootVec,
    UnsupportedConfigError,
    block_bipartitions,
    brauer_of_finite,
    class_matrix,
    classify_canonical,
    classify_heckeD,
    classify_typeA_levelone,
    tableau_stats,
)
from heckeblocks.orbits import LAMBDA, MU, label_dominant

RANK = AffineRank(2)
LEVEL_TWO = FockContext(RANK, 1)
LEVEL_ONE = FockContext(RANK, 0, level=1)


@pytest.mark.parametrize(
    "call, error, text",
    [
        (
            lambda: classify_heckeD(4, 3),
            UnsupportedConfigError,
            "type-D classification requires odd ground-field characteristic",
        ),
        (
            lambda: classify_canonical(LEVEL_TWO, CanonicalRep(MU, 1, 1, 0), ClassifierConfig()),
            ValueError,
            "normalize the label before classifying",
        ),
        (
            lambda: classify_canonical(LEVEL_ONE, CanonicalRep(LAMBDA, 0, 0, 0), ClassifierConfig()),
            ValueError,
            "use classify_typeA_levelone for level-one contexts",
        ),
        (
            lambda: classify_typeA_levelone(LEVEL_TWO, RootVec(RANK, (1, 0, 0))),
            ValueError,
            "context must be level one",
        ),
        (
            lambda: brauer_of_finite(LEVEL_TWO, CanonicalRep(MU, 1, 1, 0)),
            ValueError,
            "normalize the label before asking for structure",
        ),
        (lambda: BrauerData("tree", 1), ValueError, "kind must be 'line' or 'graph', got tree"),
        (lambda: BrauerData("line", -1), ValueError, "edges must be nonnegative"),
        (
            lambda: label_dominant(LEVEL_TWO, (0, 1, 0)),
            RuntimeError,
            "dominant reduction (0, 1, 0) matches no family member; "
            "this contradicts the orbit classification and indicates a bug",
        ),
        (lambda: FockContext(RANK, 1, level=1), ValueError, "a level-one context has charge 0"),
        (
            lambda: Bipartition((2,), (1,)).component(3),
            ValueError,
            "component must be 1 or 2, got 3",
        ),
        (
            lambda: tableau_stats(
                LEVEL_TWO, Bitableau(Bipartition((2,), (1,)), (Node(1, 1, 1), Node(1, 1, 2)))
            ),
            ValueError,
            "not a standard bitableau: growth does not fill the shape",
        ),
        (
            lambda: block_bipartitions(LEVEL_TWO, RootVec(AffineRank(1), (1, 1))),
            ValueError,
            "rank mismatch between context and root vector",
        ),
        (
            lambda: class_matrix(LEVEL_TWO, RootVec(RANK, (1, -1, 0))),
            ValueError,
            "(1,-1,0) is not in the positive cone",
        ),
        (
            lambda: DimMatrix(((0,),), ()),
            ValueError,
            "entry matrix shape does not match idempotent count",
        ),
    ],
)
def test_refused_with_its_text(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()
