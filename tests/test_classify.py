"""Representation-type decision tables and the algebra front-ends."""

import pytest

from heckeblocks import (
    FINITE,
    SIMPLE,
    TAME,
    WILD,
    AffineRank,
    BlockReport,
    CanonicalRep,
    ClassifierConfig,
    FockContext,
    NotAWeightError,
    RepType,
    RootVec,
    UnsupportedConfigError,
    canonical_rep,
    classify_block,
    classify_canonical,
    classify_heckeB,
    classify_heckeD,
    classify_level_two,
    classify_tensor,
    lambda_rep,
    mu_rep,
    normalize,
    null_root,
    rep_root,
)
from heckeblocks import classify, orbits
from heckeblocks.checks import cartan_entry, pair_coroot
from heckeblocks.fock import Bipartition, bipartitions, content, partitions
from heckeblocks.orbits import LAMBDA, MU, _grow_blocks


def ctx_for(ell, s):
    return FockContext(AffineRank(ell), s, level=2)


def rep(s, i, k):
    return CanonicalRep(LAMBDA, s, i, k)


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(char2=True, char_odd=True)
    cfg = ClassifierConfig(char2=True)
    assert cfg.char2 is True


def test_rep_type_structure_only_on_small_types():
    with pytest.raises(ValueError):
        RepType(WILD, structure=_line_data())
    with pytest.raises(ValueError):
        RepType("sporadic")


def _line_data():
    from heckeblocks import BrauerData

    return BrauerData("line", 2, (), "two edges")


def test_adjacent_charges_table():
    cfg = ClassifierConfig()
    table = {
        (0, 0): SIMPLE,
        (1, 0): FINITE,
        (0, 1): WILD,
        (0, 2): WILD,
        (1, 1): WILD,
    }
    ctx = ctx_for(2, 1)
    for (i, k), tag in table.items():
        assert classify_canonical(ctx, rep(1, i, k), cfg).tag == tag


def test_distinct_charges_tame_needs_smallest_rank():
    cfg = ClassifierConfig()
    assert classify_canonical(ctx_for(2, 1), rep(1, 0, 1), cfg).tag == WILD
    assert classify_canonical(ctx_for(1, 1), rep(1, 0, 1), cfg).tag == TAME


def test_finite_line_edge_count_grows_with_charge_distance():
    cfg = ClassifierConfig()
    for ell, s in ((2, 1), (3, 2), (4, 1), (5, 3)):
        result = classify_canonical(ctx_for(ell, s), rep(s, 1, 0), cfg)
        assert result.tag == FINITE
        assert result.structure.kind == "line"
        assert result.structure.edges == s + 1
        assert result.structure.exceptional == ()


def test_equal_charges_table_depends_on_scalars():
    plain = ClassifierConfig()
    other_scalar = ClassifierConfig(lambda_is_sign=False)
    char2 = ClassifierConfig(char2=True)
    ctx3 = ctx_for(3, 0)
    assert classify_canonical(ctx3, rep(0, 0, 0), plain).tag == SIMPLE
    assert classify_canonical(ctx3, rep(0, 1, 0), plain).tag == FINITE
    assert classify_canonical(ctx3, rep(0, 0, 1), plain).tag == WILD
    assert classify_canonical(ctx3, rep(0, 0, 1), other_scalar).tag == TAME
    assert classify_canonical(ctx3, rep(0, 2, 0), plain).tag == TAME
    assert classify_canonical(ctx3, rep(0, 2, 0), char2).tag == WILD
    ctx1 = ctx_for(1, 0)
    assert classify_canonical(ctx1, rep(0, 0, 1), plain).tag == TAME
    assert classify_canonical(ctx1, rep(0, 0, 1), other_scalar).tag == TAME


@pytest.mark.parametrize(
    "label, match",
    [
        (CanonicalRep(MU, 2, 1, 0), "^label charge 2 does not match context charge 1$"),
        (CanonicalRep(MU, 3, 1, 0), "^label charge 3 does not match context charge 1$"),
        (CanonicalRep(MU, 1, 1, 0), r"^mu label index 1 is not in \[\] for this context$"),
        (rep(1, 2, 0), r"^lambda label index 2 is not in \[0, 1\] for this context$"),
    ],
)
def test_a_label_of_another_context_is_rejected(label, match):
    """A label whose charge or index the context does not have names no
    block of it: normalize and classify_canonical refuse it rather than
    classify the label of another context."""
    ctx = ctx_for(3, 1)
    with pytest.raises(ValueError, match=match):
        normalize(ctx, label)
    if label.family == LAMBDA:
        with pytest.raises(ValueError, match=match):
            classify_canonical(ctx, label, ClassifierConfig())


def test_a_mu_label_at_level_one_is_rejected():
    """A level-one context has charge 0, so its mu family is empty."""
    ctx = FockContext(AffineRank(2), 0, level=1)
    label = CanonicalRep(MU, 0, 1, 0)
    for call in (rep_root, normalize):
        with pytest.raises(ValueError, match=r"^mu label index 1 is not in \[\] for this context$"):
            call(ctx, label)


def test_tame_reports_carry_graph_data():
    cfg = ClassifierConfig()
    result = classify_canonical(ctx_for(1, 1), rep(1, 0, 1), cfg)
    assert result.tag == TAME
    assert result.structure.kind == "graph"
    assert result.structure.exceptional == ((1, 2), (3, 2))


def test_wildness_propagates_up_both_ladders():
    cfg = ClassifierConfig()
    for ell in range(1, 7):
        for s in range(ell + 1):
            ctx = ctx_for(ell, s)
            top = (ell - s + 1) // 2
            tags = {
                (i, k): classify_canonical(ctx, rep(s, i, k), cfg).tag
                for i in range(top + 1)
                for k in range(4)
            }
            for (i, k), tag in tags.items():
                if tag != WILD:
                    continue
                if i + 1 <= top:
                    assert tags[(i + 1, k)] == WILD
                if i >= 1 and k + 1 <= 3:
                    assert tags[(i - 1, k + 1)] == WILD


def test_classify_block_end_to_end(ctx11, delta1):
    report = classify_block(ctx11, delta1)
    assert isinstance(report, BlockReport)
    assert report.rep_type.tag == TAME
    assert report.canonical == rep(1, 0, 1)
    assert report.quiver is not None and not report.quiver.wild
    data = report.to_json()
    assert data["rep_type"] == TAME
    assert data["brauer"]["kind"] == "graph"
    assert data["input"]["beta"] == [1, 1]


def test_classify_block_rejects_non_weights(ctx21):
    with pytest.raises(
        NotAWeightError,
        match=r"^\(5,0,0\) does not correspond to a module weight; the block is zero$",
    ):
        classify_block(ctx21, RootVec(ctx21.rank, (5, 0, 0)))
    with pytest.raises(
        NotAWeightError,
        match=r"^\(-1,1,0\) is outside the positive cone; the block is zero$",
    ):
        classify_block(ctx21, RootVec(ctx21.rank, (-1, 1, 0)), with_quiver=False)


def test_classify_block_rejects_a_root_vector_of_another_rank(ctx21):
    with pytest.raises(ValueError, match="^rank mismatch between context and root vector$"):
        classify_block(ctx21, RootVec(AffineRank(1), (1, 1)))


def test_classify_block_skips_quiver_above_cap(ctx11):
    report = classify_block(ctx11, RootVec(ctx11.rank, (5, 5)))
    assert report.rep_type.tag == WILD
    assert report.quiver is None
    assert any("exceeds cap" in note for note in report.notes)
    quick = classify_block(ctx11, RootVec(ctx11.rank, (5, 5)), with_quiver=False)
    assert quick.quiver is None and quick.notes == ()


def test_second_family_normalization_is_reported():
    rank = AffineRank(3)
    ctx = FockContext(rank, 2, level=2)
    from heckeblocks import mu_rep

    report = classify_block(ctx, mu_rep(2, 1, rank))
    assert report.canonical.family == MU
    assert report.rep_type.tag == FINITE
    assert any("mu label rewritten" in note for note in report.notes)


def test_rotation_invariance_of_charged_classification():
    rank = AffineRank(3)
    base = FockContext(rank, 2, level=2)
    for beta in (null_root(rank), lambda_rep(2, 1, rank), rep_root(base, rep(2, 0, 2))):
        want = classify_block(base, beta, with_quiver=False).rep_type.tag
        c = beta.coeffs
        for t in range(rank.e):
            # rotate the cycle by t: vertex j moves to j + t, charges (0, 2) with it
            rotated = RootVec(rank, c[rank.e - t :] + c[: rank.e - t])
            got = classify_level_two(rank, (t, 2 + t), rotated)
            assert got.rep_type.tag == want


def _block_type(ctx, beta):
    return classify_block(ctx, beta, with_quiver=False).rep_type


def test_level_one_classification(rank2):
    ctx = FockContext(rank2, 0, level=1)
    assert _block_type(ctx, RootVec(rank2, (0, 0, 0))).tag == SIMPLE
    finite = _block_type(ctx, null_root(rank2))
    assert finite.tag == FINITE
    assert finite.structure.edges == 2
    assert _block_type(ctx, 2 * null_root(rank2)).tag == WILD
    one = FockContext(AffineRank(1), 0, level=1)
    assert _block_type(one, 2 * null_root(AffineRank(1))).tag == TAME
    assert _block_type(one, 3 * null_root(AffineRank(1))).tag == WILD


@pytest.mark.parametrize("char2", [False, True])
@pytest.mark.parametrize("lambda_is_sign", [False, True])
def test_level_one_rows_of_the_decision_table(char2, lambda_is_sign):
    """At level one the label is k times the null root and only k and ell
    decide: k = 0 simple, k = 1 finite on a line of ell edges, k = 2 tame at
    ell = 1, wild otherwise; the ground-field settings play no part."""
    cfg = ClassifierConfig(char2=char2, lambda_is_sign=lambda_is_sign)
    for ell in range(1, 7):
        ctx = FockContext(AffineRank(ell), 0, level=1)
        for k in range(5):
            got = classify_canonical(ctx, rep(0, 0, k), cfg)
            want = {0: SIMPLE, 1: FINITE, 2: TAME if ell == 1 else WILD}.get(k, WILD)
            assert got.tag == want, (ell, k)
            if k == 1:
                assert got.structure.edges == ell


def test_tensor_rules():
    simple = RepType(SIMPLE)
    finite = RepType(FINITE)
    tame = RepType(TAME)
    wild = RepType(WILD)
    for t in (simple, finite, tame, wild):
        assert classify_tensor(simple, t, 2).tag == t.tag
        assert classify_tensor(t, simple, 2).tag == t.tag
        assert classify_tensor(wild, t, 2).tag == WILD
    assert classify_tensor(finite, finite, 1).tag == TAME
    assert classify_tensor(finite, finite, 3).tag == WILD
    assert classify_tensor(finite, tame, 1).tag == WILD
    assert classify_tensor(tame, tame, 1).tag == WILD


def test_heckeB_block_enumeration():
    reports = classify_heckeB(2, 1, 2)
    assert len(reports) == 1
    assert reports[0].rep_type.tag == TAME
    assert dict(reports[0].input)["beta"] == (1, 1)
    two = classify_heckeB(3, 1, 1)
    assert [dict(r.input)["beta"] for r in two] == [(0, 1, 0), (1, 0, 0)]
    assert all(r.rep_type.tag == SIMPLE for r in two)
    # past the reach of the brute-force comparison below
    assert len(classify_heckeB(3, 1, 40)) == 32
    assert len(classify_heckeB(3, None, 30)) == 1031


def test_heckeB_separated_parameters_tensor():
    reports = classify_heckeB(3, None, 2)
    assert len(reports) == 5
    for r in reports:
        assert r.canonical is None
        assert any("separated" in note for note in r.notes)
        assert r.rep_type.tag == SIMPLE


def test_heckeD_delegation_and_refusal():
    cfg = ClassifierConfig(char_odd=True)
    with pytest.raises(UnsupportedConfigError):
        classify_heckeD(4, 2, ClassifierConfig())
    even = classify_heckeD(4, 2, cfg)
    assert [dict(r.input)["beta"] for r in even] == [
        dict(r.input)["beta"] for r in classify_heckeB(4, 2, 2, cfg)
    ]
    assert all(
        any("type-B covering block" in n for n in r.notes) for r in even
    )
    odd = classify_heckeD(3, 2, cfg)
    assert all(any("separated" in n for n in r.notes) for r in odd)
    # the covering note comes last, after the notes of the type-B report
    cover = "type-D block shares the representation type of its type-B covering block with "
    [mu] = [r for r in classify_heckeD(6, 4, cfg) if dict(r.input)["beta"] == (1, 0, 0, 1, 1, 1)]
    assert mu.notes == (
        "mu label rewritten as lambda label with charge 3",
        cover + "charge 3",
    )
    assert dict(odd[0].input) == {
        "ell": 2, "separated": True, "beta1": (0, 0, 0), "beta2": (1, 0, 1)
    }
    assert odd[0].notes == (
        "separated parameters: outer tensor product of two level-one blocks (simple x simple)",
        cover + "separated parameters",
    )


@pytest.mark.parametrize(
    "e, s, n, match",
    [
        (3, 0, 2.5, "rank"),
        (3, 0, True, "rank"),
        (3, True, 2, "s must be"),
        (3, 1.0, 2, "s must be"),
        (3.0, 0, 2, "quantum characteristic"),
        (True, None, 2, "quantum characteristic"),
    ],
)
def test_heckeB_rejects_arguments_that_are_not_ints(e, s, n, match):
    with pytest.raises(ValueError, match=match):
        classify_heckeB(e, s, n)


@pytest.mark.parametrize("e, n", [(4, 2.0), (4, True), (4.0, 2), (3.0, 2)])
def test_heckeD_rejects_arguments_that_are_not_ints(e, n):
    with pytest.raises(ValueError, match="must be"):
        classify_heckeD(e, n, ClassifierConfig(char_odd=True))


@pytest.mark.parametrize("charges", [(0.0, 1), (True, 1), (0, 1.0), (0, False)])
def test_level_two_rejects_charges_that_are_not_ints(charges):
    rank = AffineRank(2)
    with pytest.raises(ValueError, match="charges must be integers"):
        classify_level_two(rank, charges, RootVec(rank, (1, 1, 0)))


@pytest.mark.parametrize("charges", [(0, 1), (1, 1), (5, 2)])
def test_level_two_rejects_a_root_of_another_rank(charges):
    with pytest.raises(ValueError, match="rank mismatch"):
        classify_level_two(AffineRank(2), charges, RootVec(AffineRank(1), (1, 1)))
    with pytest.raises(ValueError, match="rank mismatch"):
        classify_level_two(AffineRank(1), charges, RootVec(AffineRank(2), (1, 1, 0)))


def test_partition_generator_counts():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in enumerate(counts):
        parts = list(partitions(n))
        assert len(parts) == len(set(parts)) == want
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)
        assert parts == sorted(parts, reverse=True)


@pytest.mark.parametrize("e", range(2, 9))
def test_block_contents_match_brute_force(e):
    rank = AffineRank(e - 1)
    contexts = [FockContext(rank, 0, level=1)]
    contexts += [FockContext(rank, s, level=2) for s in range(e)]
    for ctx in contexts:
        grown = _grow_blocks(ctx, 10)
        for n, blocks in enumerate(grown):
            want = {content(ctx, bp).coeffs for bp in bipartitions(ctx, n)}
            assert list(blocks) == sorted(want)


@pytest.mark.parametrize("e", range(2, 9))
def test_grown_labels_match_canonical_rep(e):
    rank = AffineRank(e - 1)
    contexts = [FockContext(rank, 0, level=1)]
    contexts += [FockContext(rank, s, level=2) for s in range(e)]
    for ctx in contexts:
        for blocks in _grow_blocks(ctx, 10):
            for c, label in blocks.items():
                assert label == canonical_rep(ctx, RootVec(rank, c)), (ctx, c)


@pytest.mark.parametrize("e", range(2, 9))
def test_grown_blocks_at_their_own_height(e):
    """A code's fields hold every coefficient up to n for a grower called at
    height n: the blocks of height n, whose largest coefficient may equal n,
    are still grown."""
    rank = AffineRank(e - 1)
    contexts = [FockContext(rank, 0, level=1)]
    contexts += [FockContext(rank, s, level=2) for s in range(e)]
    for ctx in contexts:
        for n in range(9):
            blocks = _grow_blocks(ctx, n)[n]
            want = {content(ctx, bp).coeffs for bp in bipartitions(ctx, n)}
            assert list(blocks) == sorted(want), (ctx, n)
            for c, label in blocks.items():
                assert label == canonical_rep(ctx, RootVec(rank, c)), (ctx, c)


@pytest.mark.parametrize(
    "e, s, level, top",
    [(2, 0, 2, (2, 0)), (2, 0, 1, (1, 0)), (3, 0, 2, (2, 0, 0))],
)
def test_a_coefficient_equal_to_the_height_is_a_digit(e, s, level, top):
    ctx = FockContext(AffineRank(e - 1), s, level=level)
    n = max(top)
    blocks = _grow_blocks(ctx, n)[n]
    assert top in blocks
    assert blocks[top] == canonical_rep(ctx, RootVec(ctx.rank, top))


def _first_negative(ctx, beta):
    """The first vertex j with <h_j, Lambda - beta> < 0, or e if none."""
    pairs = [pair_coroot(ctx.charges, j, beta) for j in ctx.rank.vertices]
    return next((j for j, p in enumerate(pairs) if p < 0), ctx.rank.e), pairs


@pytest.mark.parametrize("e, wrapped", [(2, 5), (3, 10), (8, 39)])
def test_one_parent_rule_at_its_edge_vertices(e, wrapped):
    """Heights 11 and 12, past the brute-force tests above, where the grower's
    one-parent rule has its edge cases: at e = 2 the vertices j - 1 and j + 1
    coincide, and at the wrap vertex j = e - 1 a push moves vertex 0 too.  The
    grown blocks are the bipartition contents with canonical_rep's labels, and
    the grid holds the blocks whose first negative vertex is e - 1 and whose
    parent, their r_(e-1)-image, has its first negative vertex at 0: the
    pushes that only the wrap vertex's reading of the pushed pairings keeps."""
    rank = AffineRank(e - 1)
    contexts = [FockContext(rank, 0, level=1)]
    contexts += [FockContext(rank, s, level=2) for s in range(e)]
    wrap = RootVec.simple(rank, e - 1)
    kept_at_wrap = 0
    for ctx in contexts:
        grown = _grow_blocks(ctx, 12)
        top = [list(blocks.items()) for blocks in _grow_blocks(ctx, 12, 11)]
        assert top == [list(blocks.items()) for blocks in grown[11:]]
        for n in (11, 12):
            want = {content(ctx, bp).coeffs for bp in bipartitions(ctx, n)}
            assert list(grown[n]) == sorted(want), (ctx, n)
            for c, label in grown[n].items():
                beta = RootVec(rank, c)
                assert label == canonical_rep(ctx, beta), (ctx, c)
                j, pairs = _first_negative(ctx, beta)
                if j == e - 1:
                    parent = beta + wrap * pairs[j]
                    kept_at_wrap += _first_negative(ctx, parent)[0] == 0
    assert kept_at_wrap == wrapped


def _defect(rank, fund, c):
    """def(beta) = (Lambda|beta) - (beta|beta)/2 from the Cartan matrix."""
    e = rank.e
    norm = sum(c[i] * c[j] * cartan_entry(rank, i, j) for i in range(e) for j in range(e))
    return sum(f * x for f, x in zip(fund, c)) - norm // 2


def _obeys_defect_rules(tag, defect):
    """simple iff def 0, finite iff def 1, tame only at def 2, wild from def 3."""
    if (tag == SIMPLE) != (defect == 0) or (tag == FINITE) != (defect == 1):
        return False
    return (tag != TAME or defect == 2) and (defect < 3 or tag == WILD)


def _separated_defect(rank, report):
    one = [1] + [0] * (rank.e - 1)
    block = dict(report.input)
    return _defect(rank, one, block["beta1"]) + _defect(rank, one, block["beta2"])


@pytest.mark.parametrize("e", range(2, 8))
def test_decision_table_follows_the_defect(e):
    """Every verdict agrees with the defect of its block, computed here from
    the Cartan matrix alone: no grower or canonical label is in the check."""
    rank = AffineRank(e - 1)
    odd = ClassifierConfig(char_odd=True)
    for n in range(13):
        for s in range(e):
            fund = [0] * e
            fund[0] += 1
            fund[s] += 1
            for r in classify_heckeB(e, s, n):
                defect = _defect(rank, fund, dict(r.input)["beta"])
                assert _obeys_defect_rules(r.rep_type.tag, defect), r
        separated = classify_heckeB(e, None, n)
        if e % 2:
            separated += classify_heckeD(e, n, odd)
        for r in separated:
            assert _obeys_defect_rules(r.rep_type.tag, _separated_defect(rank, r)), r


def test_separated_types_are_read_once_per_block_and_pair(monkeypatch):
    """Each distinct level-one label is classified once, and each distinct
    pair of types is tensored once, not once per report."""
    counts = {"label": 0, "tensor": 0}
    label_type, tensor = classify._label_type, classify.classify_tensor

    def counted_label_type(*args):
        counts["label"] += 1
        return label_type(*args)

    def counted_tensor(*args):
        counts["tensor"] += 1
        return tensor(*args)

    monkeypatch.setattr(classify, "_label_type", counted_label_type)
    monkeypatch.setattr(classify, "classify_tensor", counted_tensor)
    reports = classify_heckeB(8, None, 16)
    one = FockContext(AffineRank(7), 0, level=1)
    labels = {label for blocks in _grow_blocks(one, 16) for label in blocks.values()}
    assert counts["label"] == len(labels)
    assert counts["tensor"] == len({r.notes for r in reports}) < len(reports)


def test_seeds_are_labelled_from_their_family_member(monkeypatch):
    """The grower labels each dominant block, a family member plus k delta, as
    it seeds it: the listings read no label off a root vector, and every seed's
    label is the one label_dominant reads off it.  The seeds are the dominant
    blocks, one per label."""
    read = []

    def recorded(name, call):
        def spy(*args):
            read.append((name, args))
            return call(*args)

        return spy

    spied = [(orbits, "label_dominant"), (orbits, "canonical_rep"), (classify, "canonical_rep")]
    for module, name in spied:
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    assert classify_heckeB(8, 3, 14) and classify_heckeB(8, None, 14)
    assert classify_heckeD(7, 12, ClassifierConfig(char_odd=True))
    assert read == []
    monkeypatch.undo()
    for e in range(2, 9):
        rank = AffineRank(e - 1)
        contexts = [FockContext(rank, 0, level=1)]
        contexts += [FockContext(rank, s, level=2) for s in range(e)]
        for ctx in contexts:
            grown = _grow_blocks(ctx, 14)
            members = [lambda_rep(ctx.s, i, rank) for i in orbits._lambda_range(ctx)]
            members += [mu_rep(ctx.s, i, rank) for i in orbits._mu_range(ctx)]
            seeds = set()
            for member in members:
                for k in range(15):
                    beta = member + null_root(rank) * k
                    if beta.height > 14:
                        break
                    label = grown[beta.height][beta.coeffs]
                    assert label == orbits.label_dominant(ctx, beta.coeffs), (ctx, beta)
                    seeds.add(beta.coeffs)
            dominant = {
                c
                for blocks in grown
                for c in blocks
                if all(pair_coroot(ctx.charges, j, RootVec(rank, c)) >= 0 for j in rank.vertices)
            }
            assert seeds == dominant, ctx
            assert len(seeds) == len({label for blocks in grown for label in blocks.values()})


def _compositions(n, parts):
    """The tuples of parts nonnegative integers summing to n, in sorted order."""
    if parts == 1:
        return [(n,)]
    return [(a, *rest) for a in range(n + 1) for rest in _compositions(n - a, parts - 1)]


@pytest.mark.parametrize(
    "e, n, charges",
    [
        (2, 255, (None, 0, 1)),
        (2, 256, (None, 0, 1)),
        (2, 300, (None, 0, 1)),
        (3, 256, (1,)),
        (2, 520, (None, 0, 1)),
    ],
)
def test_grown_blocks_past_one_byte(e, n, charges):
    """Past n = 255 a code's fields are two bytes wide.  At height n the grown
    blocks are the compositions of n into e parts that canonical_rep accepts,
    in sorted order and with its labels, whether grown from height 0 or only
    decoded at n.  None stands for the level-one context.  A coefficient
    itself passes 255 only at n = 520, where one-byte fields would carry."""
    rank = AffineRank(e - 1)
    widest = 0
    for s in charges:
        ctx = FockContext(rank, 0, level=1) if s is None else FockContext(rank, s, level=2)
        want = {}
        for c in _compositions(n, e):
            try:
                want[c] = canonical_rep(ctx, RootVec(rank, c))
            except NotAWeightError:
                pass
        blocks = _grow_blocks(ctx, n)[n]
        assert list(blocks.items()) == list(want.items()), ctx
        top = _grow_blocks(ctx, n, n)
        assert len(top) == 1 and list(top[0].items()) == list(blocks.items()), ctx
        widest = max(widest, *map(max, blocks))
    assert (widest > 255) == (n == 520)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_heckeB_separated_matches_per_combo_recompute(e):
    n = 6
    rank = AffineRank(e - 1)
    one = FockContext(rank, 0, level=1)
    reports = classify_heckeB(e, None, n)
    pairs = sorted(
        {
            (content(one, Bipartition(p1)).coeffs, content(one, Bipartition(p2)).coeffs)
            for m in range(n + 1)
            for p1 in partitions(m)
            for p2 in partitions(n - m)
        }
    )
    assert [(dict(r.input)["beta1"], dict(r.input)["beta2"]) for r in reports] == pairs
    for report, (c1, c2) in zip(reports, pairs):
        t1 = _block_type(one, RootVec(rank, c1))
        t2 = _block_type(one, RootVec(rank, c2))
        assert report.rep_type == classify_tensor(t1, t2, rank.ell)
        assert report.notes[0].endswith(f"({t1.tag} x {t2.tag})")
