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
    QPoly,
    RootVec,
    UnsupportedConfigError,
    block_bipartitions,
    brauer_of_finite,
    class_matrix,
    classify_canonical,
    classify_heckeB,
    classify_heckeD,
    classify_level_two,
    tableau_stats,
)
from heckeblocks import classify
from heckeblocks.orbits import LAMBDA, MU, label_dominant

RANK = AffineRank(2)
TOO_LARGE = "rank 18446744073709551616 is too large: a listing takes ranks below 2**64"
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
            lambda: classify_canonical(LEVEL_ONE, CanonicalRep(LAMBDA, 0, 1, 0), ClassifierConfig()),
            ValueError,
            "lambda label index 1 is not in [0] for this context",
        ),
        (
            lambda: classify_level_two(RANK, (0, 1, 2), RootVec(RANK, (1, 0, 0))),
            ValueError,
            "charges must be a pair of integers, got (0, 1, 2)",
        ),
        (
            lambda: brauer_of_finite(LEVEL_TWO, CanonicalRep(MU, 1, 1, 0)),
            ValueError,
            "normalize the label before asking for structure",
        ),
        (lambda: BrauerData("tree", 1), ValueError, "kind must be 'line' or 'graph', got tree"),
        (lambda: BrauerData("line", -1), ValueError, "edges must be nonnegative"),
        (lambda: BrauerData("line", True), ValueError, "edges must be an integer, got True"),
        (
            lambda: classify_heckeD(4, 6, ClassifierConfig(char_odd="no")),
            ValueError,
            "char_odd must be True or False, got 'no'",
        ),
        (
            lambda: ClassifierConfig(lambda_is_sign=1),
            ValueError,
            "lambda_is_sign must be True or False, got 1",
        ),
        (lambda: FockContext(2), ValueError, "rank must be an AffineRank, got 2"),
        (lambda: RootVec(2, (1, 1)), ValueError, "rank must be an AffineRank, got 2"),
        (lambda: LEVEL_TWO.charge(True), ValueError, "component must be in 1..2, got True"),
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
            lambda: Bipartition((2,), (1,)).component(True),
            ValueError,
            "component must be 1 or 2, got True",
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
        (
            lambda: DimMatrix(((0, 1),), ((QPoly({0: 1, 2: 2}),),)),
            ValueError,
            "diagonal graded dimension at e(0, 1) is not palindromic: 1+2q^2",
        ),
        (lambda: classify_heckeB(3, 1, 2**64), ValueError, TOO_LARGE),
        (lambda: classify_heckeB(2, None, 2**64), ValueError, TOO_LARGE),
        (lambda: classify_heckeD(5, 2**64, ClassifierConfig(char_odd=True)), ValueError, TOO_LARGE),
    ],
)
def test_refused_with_its_text(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


@pytest.mark.parametrize("s", [1, None])
def test_the_rank_below_the_listing_limit_reaches_the_grower(monkeypatch, s):
    """The limit is 2**64 exactly: the rank below it reaches the grower, a stub here."""
    heights = []
    monkeypatch.setattr(classify, "_grow_blocks", lambda ctx, n, low=0: heights.append(n) or [{}])
    assert classify_heckeB(3, s, 2**64 - 1) == []
    assert heights == [2**64 - 1]
