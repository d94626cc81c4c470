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
    classify_heckeB,
    classify_heckeD,
    classify_level_two,
)

RANK = AffineRank(2)
LINE = BrauerData("line", 2, (), "straight line")


def _report(ctx=FockContext(RANK, 1), beta=(1, 1, 0)):
    return classify_block(ctx, RootVec(ctx.rank, beta))


def _typeD_report():
    return classify_heckeD(3, 4, ClassifierConfig(char_odd=True))[0]


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
    # reports as the listings build them, one per listed block
    (
        lambda: classify_heckeB(3, 1, 4)[0],
        "BlockReport(input={'ell': 2, 's': 1, 'level': 2, 'beta': [1, 1, 2]}, "
        "canonical=CanonicalRep(family='lambda', s=1, i=1, k=0), "
        "rep_type=RepType(tag='finite', structure=BrauerData(kind='line', edges=2, "
        "exceptional=(), description='straight line with 2 edges and no exceptional vertex')), "
        "quiver=None, notes=())",
        lambda: classify_heckeB(3, 1, 4)[1],
    ),
    (
        lambda: classify_heckeB(3, None, 4)[0],
        "BlockReport(input={'ell': 2, 'separated': True, 'beta1': [0, 0, 0], "
        "'beta2': [1, 1, 2]}, canonical=None, rep_type=RepType(tag='simple', structure=None), "
        "quiver=None, notes=('separated parameters: outer tensor product of two level-one "
        "blocks (simple x simple)',))",
        _typeD_report,
    ),
    (
        _typeD_report,
        "BlockReport(input={'ell': 2, 'separated': True, 'beta1': [0, 0, 0], "
        "'beta2': [1, 1, 2]}, canonical=None, rep_type=RepType(tag='simple', structure=None), "
        "quiver=None, notes=('separated parameters: outer tensor product of two level-one "
        "blocks (simple x simple)', 'type-D block shares the representation type of its "
        "type-B covering block with separated parameters'))",
        lambda: classify_heckeB(3, None, 4)[0],
    ),
]

IDS = [want.split("(")[0] for _, want, _ in VALUES]
IDS[-3:] = ["BlockReport-heckeB", "BlockReport-separated", "BlockReport-heckeD"]


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


@pytest.mark.parametrize(
    "clone",
    [lambda v: v, copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["built", "copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("make, want, other", VALUES, ids=IDS)
def test_every_slot_is_filled(make, want, other, clone):
    # every slot, a derived one too: reading one never filled raises AttributeError
    value = make()
    twin = clone(value)
    for name in type(value).__slots__:
        assert getattr(twin, name) == getattr(value, name)


@pytest.mark.parametrize("e", range(2, 9))
def test_listed_reports_equal_the_reports_built_from_their_fields(e):
    for s in (*range(e), None):
        for n in range(11):
            for r in classify_heckeB(e, s, n):
                assert r == BlockReport(*(getattr(r, f) for f in BlockReport._fields))


@pytest.mark.parametrize(
    "make",
    [
        lambda: classify_heckeB(3, 1, 4)[0],
        lambda: classify_heckeB(3, None, 4)[0],
        lambda: classify_level_two(RANK, (1, 2), RootVec(RANK, (1, 1, 0))),
    ],
    ids=["heckeB", "separated", "level_two"],
)
def test_the_json_form_shares_no_list_with_the_report(make):
    report = make()
    before, want = repr(report), report.to_json()
    lists = [v for v in report.to_json()["input"].values() if type(v) is list]
    assert lists
    for value in lists:
        value.append(9)
    assert repr(report) == before and report.to_json() == want
