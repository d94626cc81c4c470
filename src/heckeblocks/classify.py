"""Representation-type classification of blocks.

The decision tables live in :func:`classify_canonical`; everything else
reduces its input to a canonical label (or a pair of level-one labels in
the separated-parameter case) and dispatches.  :func:`classify_heckeB` and
:func:`classify_heckeD` take their blocks with their labels from
``orbits._grow_blocks``, so they reduce no block and classify each distinct
label once: at level two the blocks of height n, the one height the grower
decodes, and with separated parameters the level-one blocks of every height
up to n, paired so that the heights sum to n.  With separated parameters
each level-one block's type is read once, and the tensor type and note of
each pair of types are built once and shared by the reports of every pair
of blocks with those types.
"""

from __future__ import annotations

from typing import Optional

from .cartan import AffineRank, RootVec, _int_tuple, _Value
from .fock import FockContext
from .gdim import QuiverBound, QuiverShapeError, _class_verdict
from .orbits import LAMBDA, MU, CanonicalRep, _check_label, _grow_blocks, canonical_rep

SIMPLE = "simple"
FINITE = "finite"
TAME = "tame"
WILD = "wild"

#: blocks of height above this skip the quiver computation in reports
QUIVER_HEIGHT_CAP = 8


class UnsupportedConfigError(ValueError):
    """The ground-field configuration is outside the supported range."""


class ClassifierConfig(_Value):
    """Ground-field assumptions.

    char2/char_odd record what is known about the characteristic;
    lambda_is_sign records whether the deformation scalar attached to
    the double-charge-zero tame candidate equals the critical sign.
    """

    __slots__ = _fields = ("char2", "char_odd", "lambda_is_sign")
    char2: bool
    char_odd: bool
    lambda_is_sign: bool

    def __init__(
        self, char2: bool = False, char_odd: bool = False, lambda_is_sign: bool = True
    ) -> None:
        for name, flag in zip(self._fields, (char2, char_odd, lambda_is_sign)):
            if type(flag) is not bool:
                raise ValueError(f"{name} must be True or False, got {flag!r}")
        if char2 and char_odd:
            raise ValueError("char2 and char_odd cannot both hold")
        put = self._put
        put[0](self, char2)
        put[1](self, char_odd)
        put[2](self, lambda_is_sign)


class BrauerData(_Value):
    """Shape of the basic algebra when it is special biserial."""

    __slots__ = _fields = ("kind", "edges", "exceptional", "description")
    kind: str  # "line" or "graph"
    edges: int
    exceptional: tuple[tuple[int, int], ...]
    description: str

    def __init__(
        self,
        kind: str,
        edges: int,
        exceptional: tuple[tuple[int, int], ...] = (),
        description: str = "",
    ) -> None:
        if kind not in ("line", "graph"):
            raise ValueError(f"kind must be 'line' or 'graph', got {kind}")
        if type(edges) is not int:
            raise ValueError(f"edges must be an integer, got {edges!r}")
        if edges < 0:
            raise ValueError("edges must be nonnegative")
        put = self._put
        put[0](self, kind)
        put[1](self, edges)
        put[2](self, exceptional)
        put[3](self, description)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "edges": self.edges,
            "exceptional": [list(pair) for pair in self.exceptional],
            "description": self.description,
        }


class RepType(_Value):
    """A representation-type verdict, with structure when one is known."""

    __slots__ = _fields = ("tag", "structure")
    tag: str
    structure: Optional[BrauerData]

    def __init__(self, tag: str, structure: Optional[BrauerData] = None) -> None:
        if tag not in (SIMPLE, FINITE, TAME, WILD):
            raise ValueError(f"unknown tag {tag}")
        if structure is not None and tag in (SIMPLE, WILD):
            raise ValueError("structure data only applies to finite/tame blocks")
        put = self._put
        put[0](self, tag)
        put[1](self, structure)

    def __str__(self) -> str:
        return self.tag


class BlockReport(_Value):
    """Everything the classifier can say about one block; ``input`` names the
    block as (key, value) pairs, such as ``(("ell", 2), ("beta", (1, 1)))``."""

    __slots__ = _fields = ("input", "canonical", "rep_type", "quiver", "notes")
    input: tuple[tuple[str, object], ...]
    canonical: Optional[CanonicalRep]
    rep_type: RepType
    quiver: Optional[QuiverBound]
    notes: tuple[str, ...]

    def __init__(
        self,
        input: tuple[tuple[str, object], ...],
        canonical: Optional[CanonicalRep],
        rep_type: RepType,
        quiver: Optional[QuiverBound] = None,
        notes: tuple[str, ...] = (),
    ) -> None:
        put = self._put
        put[0](self, input)
        put[1](self, canonical)
        put[2](self, rep_type)
        put[3](self, quiver)
        put[4](self, notes)

    def to_json(self) -> dict:
        return {
            "input": {k: list(v) if type(v) is tuple else v for k, v in self.input},
            "canonical": None if self.canonical is None else self.canonical.to_json(),
            "rep_type": self.rep_type.tag,
            "brauer": (
                None
                if self.rep_type.structure is None
                else self.rep_type.structure.to_json()
            ),
            "quiver": None if self.quiver is None else self.quiver.to_json(),
            "notes": list(self.notes),
        }


def normalize(ctx: FockContext, rep: CanonicalRep) -> tuple[FockContext, CanonicalRep]:
    """Rewrite a mu-family label as the lambda-family label of the rotated
    context; lambda-family labels pass through unchanged.  ValueError when
    rep is not a label of the context."""
    _check_label(ctx, rep)
    if rep.family == LAMBDA:
        return ctx, rep
    s2 = ctx.rank.ell - rep.s + 1
    ctx2 = FockContext(ctx.rank, s2, level=2)
    return ctx2, CanonicalRep(LAMBDA, s2, rep.i, rep.k)


def brauer_of_finite(ctx: FockContext, rep: CanonicalRep) -> BrauerData:
    """Basic-algebra shape of a finite-type block: a straight line whose
    edge count depends only on the charges."""
    if rep.family != LAMBDA:
        raise ValueError("normalize the label before asking for structure")
    if ctx.level == 1:
        edges = ctx.rank.ell
    else:
        edges = ctx.s + 1
    return BrauerData(
        kind="line",
        edges=edges,
        description=f"straight line with {edges} edges and no exceptional vertex",
    )


def _tame_graph_level_two() -> BrauerData:
    return BrauerData(
        kind="graph",
        edges=2,
        exceptional=((1, 2), (3, 2)),
        description=(
            "path on vertices 1-2-3 with exceptional vertices 1 and 3 "
            "of multiplicity 2"
        ),
    )


def classify_canonical(
    ctx: FockContext, rep: CanonicalRep, cfg: ClassifierConfig
) -> RepType:
    """Decision table on a normalized (lambda-family) canonical label, at
    either level."""
    if rep.family != LAMBDA:
        raise ValueError("normalize the label before classifying")
    _check_label(ctx, rep)
    ell, s, i, k = ctx.rank.ell, ctx.s, rep.i, rep.k
    if (i, k) == (0, 0):
        return RepType(SIMPLE)
    if ctx.level == 1:
        # the block of k times the null root
        if k == 1:
            return RepType(FINITE, brauer_of_finite(ctx, rep))
        return RepType(TAME) if (k, ell) == (2, 1) else RepType(WILD)
    if (i, k) == (1, 0):
        return RepType(FINITE, brauer_of_finite(ctx, rep))
    if s >= 1:
        if (i, k) == (0, 1) and ell == 1:
            return RepType(TAME, _tame_graph_level_two())
        return RepType(WILD)
    # distinct-charge rules above; equal charges (s == 0) below
    if (i, k) == (0, 1):
        if ell == 1 or not cfg.lambda_is_sign:
            return RepType(TAME)
        return RepType(WILD)
    if (i, k) == (2, 0) and not cfg.char2:
        return RepType(TAME)
    return RepType(WILD)


def classify_tensor(t1: RepType, t2: RepType, ell: int) -> RepType:
    """Representation type of an outer tensor product of two blocks."""
    if t1.tag == SIMPLE:
        return t2
    if t2.tag == SIMPLE:
        return t1
    if WILD in (t1.tag, t2.tag):
        return RepType(WILD)
    if t1.tag == FINITE and t2.tag == FINITE:
        return RepType(TAME) if ell == 1 else RepType(WILD)
    # finite x tame, tame x finite, tame x tame all have too much growth
    return RepType(WILD)


def _label_type(
    ctx: FockContext, rep: CanonicalRep, cfg: ClassifierConfig, notes: list[str]
) -> RepType:
    """Representation type of the block labelled rep, appending to notes
    the rewrite of a mu label."""
    ctx2, rep2 = normalize(ctx, rep)
    if rep.family == MU:
        notes.append(f"mu label rewritten as lambda label with charge {rep2.s}")
    return classify_canonical(ctx2, rep2, cfg)


def _attach_quiver(
    ctx: FockContext, beta: RootVec
) -> tuple[Optional[QuiverBound], list[str]]:
    notes: list[str] = []
    if beta.height > QUIVER_HEIGHT_CAP:
        notes.append(
            f"quiver bounds skipped: block height {beta.height} exceeds "
            f"cap {QUIVER_HEIGHT_CAP}"
        )
        return None, notes
    try:
        return _class_verdict(ctx, beta), notes
    except QuiverShapeError as exc:
        notes.append(f"quiver bounds not applicable: {exc}")
        return None, notes


def classify_block(
    ctx: FockContext,
    beta: RootVec,
    cfg: Optional[ClassifierConfig] = None,
    with_quiver: bool = True,
) -> BlockReport:
    """Full report for the block of beta in the given context."""
    if cfg is None:
        cfg = ClassifierConfig()
    rep = canonical_rep(ctx, beta)
    notes: list[str] = []
    rep_type = _label_type(ctx, rep, cfg, notes)
    quiver: Optional[QuiverBound] = None
    if with_quiver:
        quiver, qnotes = _attach_quiver(ctx, beta)
        notes.extend(qnotes)
    return BlockReport(
        input=(("ell", ctx.rank.ell), ("s", ctx.s), ("level", ctx.level), ("beta", beta.coeffs)),
        canonical=rep,
        rep_type=rep_type,
        quiver=quiver,
        notes=tuple(notes),
    )


def classify_level_two(
    rank: AffineRank,
    charges: tuple[int, int],
    beta: RootVec,
    cfg: Optional[ClassifierConfig] = None,
) -> BlockReport:
    """Classify for an arbitrary pair of charges by rotating the quiver so
    the first charge moves to vertex zero."""
    charges = _int_tuple(charges, "charges")
    if len(charges) != 2:
        raise ValueError(f"charges must be a pair of integers, got {charges!r}")
    a, b = charges
    e = rank.e
    t = (-a) % e
    c = beta.coeffs
    rotated = RootVec(beta.rank, c[a % e :] + c[: a % e])  # vertex a % e moves to 0
    report = classify_block(FockContext(rank, (b - a) % e), rotated, cfg)
    notes = report.notes
    if t != 0:
        notes = notes + (f"quiver rotated by {t} to move a charge to vertex 0",)
    block = (("ell", rank.ell), ("charges", (a % e, b % e)), ("level", 2), ("beta", c))
    return BlockReport(block, report.canonical, report.rep_type, report.quiver, notes)


def classify_heckeB(
    e: int,
    s: Optional[int],
    n: int,
    cfg: Optional[ClassifierConfig] = None,
) -> list[BlockReport]:
    """Blocks of the rank-n type-B algebra at quantum characteristic e.

    s gives the exponent linking the two parameters; None means the
    parameters are separated and every block is an outer tensor product
    of two level-one blocks.
    """
    return _heckeB_reports(e, s, n, cfg, ())


def _heckeB_reports(
    e: int, s: Optional[int], n: int, cfg: Optional[ClassifierConfig], extra: tuple[str, ...]
) -> list[BlockReport]:
    """``classify_heckeB`` with the notes extra appended to every report.
    The labels come with the grown blocks; each distinct one is classified
    once, and at level two each block reads its label's type and notes with
    one dict lookup.  With separated parameters each level-one block carries
    the index of its type among the distinct types, and ``classify_tensor``
    and the note run once per pair of indices.  Both lookups key on the
    label's plain (family, i, k), as the charge is fixed within a listing.
    The reports share the immutable results and their inputs' (key, value)
    pairs, which hold the grower's tuples, and are built with positional
    arguments, since a listing builds one per block."""
    if cfg is None:
        cfg = ClassifierConfig()
    if type(e) is not int or e < 2:
        raise ValueError(f"quantum characteristic must be an integer at least 2, got {e!r}")
    if s is not None and type(s) is not int:
        raise ValueError(f"s must be an integer or None, got {s!r}")
    if type(n) is not int or n < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {n!r}")
    rank = AffineRank(e - 1)
    ell = rank.ell
    reports = []
    if s is not None:
        ctx = FockContext(rank, s % e, level=2)
        ell_pair, s_pair, level_pair = ("ell", ell), ("s", ctx.s), ("level", 2)
        kinds: dict[tuple[str, int, int], tuple[RepType, tuple[str, ...]]] = {}
        for c, rep in _grow_blocks(ctx, n, n)[0].items():
            key = (rep.family, rep.i, rep.k)
            kind = kinds.get(key)
            if kind is None:
                notes: list[str] = []
                kind = kinds[key] = (_label_type(ctx, rep, cfg, notes), tuple(notes) + extra)
            block = (ell_pair, s_pair, level_pair, ("beta", c))
            reports.append(BlockReport(block, rep, kind[0], None, kind[1]))
        return reports
    # separated parameters: pairs of level-one blocks
    ctx1 = FockContext(rank, 0, level=1)
    ones = _grow_blocks(ctx1, n)
    # each block's type read once, as an index into the distinct types, and
    # its ("beta2", c) pair built once for every pair that it ends
    types: list[RepType] = []
    index: dict[tuple[str, int, int], int] = {}
    typed: list[list[tuple[tuple[str, tuple[int, ...]], int]]] = []
    for blocks in ones:
        typed.append([])
        for c, rep in blocks.items():
            key = (rep.family, rep.i, rep.k)
            k = index.get(key)
            if k is None:
                rep_type = _label_type(ctx1, rep, cfg, [])
                if rep_type not in types:
                    types.append(rep_type)
                k = index[key] = types.index(rep_type)
            typed[-1].append((("beta2", c), k))
    note = "separated parameters: outer tensor product of two level-one blocks"
    shared: dict[tuple[int, int], tuple[RepType, tuple[str, ...]]] = {}
    ell_pair, separated = ("ell", ell), ("separated", True)
    # the first blocks of all heights in order, each with the second blocks
    # of the complementary height in order: the pairs in order
    for c1, k1, m in sorted((p[1], k, m) for m, row in enumerate(typed) for p, k in row):
        first = ("beta1", c1)
        for second, k2 in typed[n - m]:
            result = shared.get((k1, k2))
            if result is None:
                t1, t2 = types[k1], types[k2]
                why = f"{note} ({t1} x {t2})"
                result = shared[k1, k2] = (classify_tensor(t1, t2, ell), (why, *extra))
            block = (ell_pair, separated, first, second)
            reports.append(BlockReport(block, None, result[0], None, result[1]))
    return reports


def classify_heckeD(
    e: int,
    n: int,
    cfg: Optional[ClassifierConfig] = None,
) -> list[BlockReport]:
    """Blocks of the rank-n type-D algebra at quantum characteristic e.

    Requires odd ground-field characteristic: the type-D algebra is then
    a subalgebra of a type-B algebra at parameter -1 fixed by an
    involution, and blocks share representation type with their covering
    blocks.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    if not cfg.char_odd:
        raise UnsupportedConfigError(
            "type-D classification requires odd ground-field characteristic"
        )
    s = e // 2 if e % 2 == 0 else None
    cover = "separated parameters" if s is None else f"charge {s}"
    note = "type-D block shares the representation type of its type-B covering block with "
    return _heckeB_reports(e, s, n, cfg, (note + cover,))
