"""The contract of the public value types: equality and hashing by class and
fields, the repr, immutability, and copying and pickling."""

import copy
import pickle

import pytest

from heckeblocks import (
    AffineRank,
    Bipartition,
    Bitableau,
    BlockReport,
    BrauerData,
    CanonicalRep,
    ClassifierConfig,
    DimMatrix,
    FockContext,
    Node,
    QPoly,
    QuiverBound,
    RepType,
    RootVec,
    classify_block,
)

RANK = AffineRank(2)
LINE = BrauerData("line", 2, (), "straight line")


def _report(ctx=FockContext(RANK, 1), beta=(1, 1, 0)):
    return classify_block(ctx, RootVec(ctx.rank, beta))


#: (build a value, the repr it had as a dataclass, build one that differs
#: from it in one field)
VALUES = [
    (lambda: AffineRank(2), "AffineRank(ell=2)", lambda: AffineRank(3)),
    (
        lambda: RootVec(RANK, (1, 0, 2)),
        "RootVec(rank=AffineRank(ell=2), coeffs=(1, 0, 2))",
        lambda: RootVec(RANK, (1, 0, 1)),
    ),
    (
        lambda: Bipartition((2, 1), (1,)),
        "Bipartition(comp1=(2, 1), comp2=(1,))",
        lambda: Bipartition((2, 1), ()),
    ),
    (
        lambda: FockContext(RANK, 1),
        "FockContext(rank=AffineRank(ell=2), s=1, level=2)",
        lambda: FockContext(RANK, 0),
    ),
    (
        lambda: FockContext(RANK, 0, level=1),
        "FockContext(rank=AffineRank(ell=2), s=0, level=1)",
        lambda: FockContext(RANK, 0, level=2),
    ),
    (
        lambda: Bitableau(Bipartition((1,), (1,)), (Node(1, 1, 1), Node(2, 1, 1))),
        "Bitableau(shape=Bipartition(comp1=(1,), comp2=(1,)), "
        "growth=(Node(component=1, row=1, col=1), Node(component=2, row=1, col=1)))",
        lambda: Bitableau(Bipartition((1,), (1,)), (Node(2, 1, 1), Node(1, 1, 1))),
    ),
    (
        lambda: CanonicalRep("lambda", 1, 0, 2),
        "CanonicalRep(family='lambda', s=1, i=0, k=2)",
        lambda: CanonicalRep("lambda", 1, 0, 3),
    ),
    (
        lambda: DimMatrix(
            ((0,), (1,)), ((QPoly({0: 1}), QPoly()), (QPoly(), QPoly({-2: 1, 0: 1, 2: 1})))
        ),
        "DimMatrix(idempotents=((0,), (1,)), "
        "entries=((QPoly(1), QPoly(0)), (QPoly(0), QPoly(q^-2+1+q^2))))",
        lambda: DimMatrix(((0,), (1,)), ((QPoly({0: 1}), QPoly()), (QPoly(), QPoly({0: 1})))),
    ),
    (
        lambda: QuiverBound((0, 1), ((0, 1), (1, 1)), False),
        "QuiverBound(loops=(0, 1), arrows=((0, 1), (1, 1)), wild=False)",
        lambda: QuiverBound((0, 1), ((0, 1), (1, 1)), True),
    ),
    (
        lambda: ClassifierConfig(),
        "ClassifierConfig(char2=False, char_odd=False, lambda_is_sign=True)",
        lambda: ClassifierConfig(lambda_is_sign=False),
    ),
    (
        lambda: BrauerData("graph", 3, ((0, 1),), "x"),
        "BrauerData(kind='graph', edges=3, exceptional=((0, 1),), description='x')",
        lambda: BrauerData("graph", 3, ((0, 1),), "y"),
    ),
    (
        lambda: RepType("finite", LINE),
        "RepType(tag='finite', structure=BrauerData(kind='line', edges=2, "
        "exceptional=(), description='straight line'))",
        lambda: RepType("finite"),
    ),
    (lambda: RepType("wild"), "RepType(tag='wild', structure=None)", lambda: RepType("simple")),
    (
        _report,
        "BlockReport(input={'ell': 2, 's': 1, 'level': 2, 'beta': [1, 1, 0]}, "
        "canonical=CanonicalRep(family='lambda', s=1, i=1, k=0), "
        "rep_type=RepType(tag='finite', structure=BrauerData(kind='line', edges=2, "
        "exceptional=(), description='straight line with 2 edges and no exceptional vertex')), "
        "quiver=None, notes=('quiver bounds not applicable: entry (0,1) = q is not "
        "delta + c*q^2 + O(q^3)',))",
        lambda: _report(beta=(1, 0, 0)),
    ),
]

IDS = [want.split("(")[0] for _, want, _ in VALUES]


@pytest.mark.parametrize("make, want, other", VALUES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, want, other):
    assert repr(make()) == want


@pytest.mark.parametrize("make, want, other", VALUES, ids=IDS)
def test_equal_by_class_and_fields(make, want, other):
    value, twin = make(), make()
    fields = tuple(getattr(value, n) for n in type(value)._fields)
    assert value is not twin and value == twin and not value != twin
    assert value != other()
    assert value.__eq__(fields) is NotImplemented
    if isinstance(value, BlockReport):  # its input is a dict
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(fields)
        assert len({value, twin, other()}) == 2


@pytest.mark.parametrize("make, want, other", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, want, other):
    value = make()
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(other(), name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
)
@pytest.mark.parametrize("make, want, other", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(make, want, other, clone):
    value = make()
    twin = clone(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == want


def test_a_copied_context_keeps_its_charges():
    for ctx in (FockContext(RANK, 1), FockContext(RANK, 0, level=1)):
        for twin in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert twin.charges == ctx.charges == (0, ctx.s)[: ctx.level]
