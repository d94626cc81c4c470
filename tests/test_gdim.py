"""Graded dimension tables, tableau generating functions, block enumeration."""

import functools
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import (
    AffineRank,
    Bipartition,
    BlockReport,
    DimMatrix,
    FockContext,
    NotAWeightError,
    QPoly,
    QuiverShapeError,
    RootVec,
    block_bipartitions,
    canonical_rep,
    class_matrix,
    classify_block,
    content,
    count_standard,
    dim_matrix,
    graded_dim,
    kostka_q,
    lambda_rep,
    nonzero_idempotents,
    null_root,
    quiver_bounds,
    residue_sequences,
    ungraded_block_dim,
)
from heckeblocks import fock, gdim
from heckeblocks.checks import (
    _contexts,
    _replay,
    _replay_dim,
    _weight_vectors,
    defect,
    oracle_engine_replay,
)
from heckeblocks.fock import partitions
from heckeblocks.gdim import _fold, _read_bound, _seq_content, _unpack, _width


def replay_kostka(ctx, shape, nu, convention="post"):
    """K_q by replaying every standard bitableau of the shape."""
    return _replay(ctx, [shape], convention)[shape].get(tuple(nu), QPoly.zero())


def test_kostka_explicit_values(ctx11):
    shape = Bipartition((2,), (1,))
    assert kostka_q(ctx11, shape, (0, 1, 1)) == QPoly({2: 1, 0: 1})
    assert kostka_q(ctx11, shape, (1, 0, 1)) == QPoly({2: 1})
    assert kostka_q(ctx11, shape, (1, 1, 0)) == QPoly.zero()
    assert kostka_q(ctx11, shape, (0, 0, 1)) == QPoly.zero()
    with pytest.raises(ValueError):
        kostka_q(ctx11, shape, (0, 1))


# (component 1, component 2, word, ell, s, K_q) on a level-two context
KOSTKA_CASES = [
    ((2,), (1,), (0, 1, 1), 1, 1, QPoly({0: 1, 2: 1})),
    ((2,), (1,), (1, 0, 1), 1, 1, QPoly({2: 1})),
    ((3, 1), (2,), (0, 1, 0, 1, 2, 0), 2, 1, QPoly.zero()),
    ((2, 2), (1, 1), (0, 1, 1, 0, 2, 2), 2, 2, QPoly.zero()),
    ((4,), (), (0, 1, 0, 1), 1, 0, QPoly({4: 1})),
]


def test_kostka_level_two_cases():
    for comp1, comp2, nu, ell, s, want in KOSTKA_CASES:
        ctx = FockContext(AffineRank(ell), s, level=2)
        shape = Bipartition(comp1, comp2)
        assert kostka_q(ctx, shape, nu) == want
        assert replay_kostka(ctx, shape, nu) == want
        assert replay_kostka(ctx, shape, nu, "pre") == want


def test_known_degree_histogram(ctx11):
    """The two growths of ((2)|(1)) with word (0,1,1) have degrees 0 and 2."""
    assert kostka_q(ctx11, Bipartition((2,), (1,)), (0, 1, 1)) == QPoly({0: 1, 2: 1})


def test_level_one_delta_block():
    """Level one has no second component, so no phantom corner enters a
    degree: the delta block has the identity in degree 0."""
    ctx = FockContext(AffineRank(1), 0, level=1)
    assert graded_dim(ctx, (0, 1), (0, 1)) == QPoly({0: 1, 2: 1})
    assert kostka_q(ctx, Bipartition((2,)), (0, 1)) == QPoly({1: 1})
    assert kostka_q(ctx, Bipartition((1, 1)), (0, 1)) == QPoly.one()


@pytest.mark.parametrize("ell", [1, 2])
def test_level_one_double_delta_words_match_replay(ell):
    rank = AffineRank(ell)
    ctx = FockContext(rank, 0, level=1)
    beta = 2 * null_root(rank)
    shapes = block_bipartitions(ctx, beta)
    words = residue_sequences(ctx, beta)
    assert words
    for nu in words:
        column = [kostka_q(ctx, shape, nu) for shape in shapes]
        assert column == [replay_kostka(ctx, shape, nu) for shape in shapes]
        diag = graded_dim(ctx, nu, nu)
        assert diag == sum((k * k for k in column), QPoly.zero())
        assert diag.coeff(0) >= 1 and diag.is_palindromic()
    idems = nonzero_idempotents(ctx, beta)
    total = sum(graded_dim(ctx, a, b).evaluate() for a in words for b in words)
    assert total == ungraded_block_dim(ctx, beta)
    assert dim_matrix(ctx, beta, idems).entries == tuple(
        tuple(graded_dim(ctx, a, b) for b in idems) for a in idems
    )


def test_engine_replay_oracle_covers_both_levels():
    passed, detail = oracle_engine_replay()
    assert passed, detail
    assert "match the tableau replay" in detail


def test_kostka_conventions_agree(ctx11, ctx21):
    for ctx, data in ((ctx11, [[2], [1]]), (ctx21, [[2, 1], [1]])):
        shape = Bipartition.from_json(data)
        for nu in residue_sequences(ctx, content(ctx, shape)):
            assert kostka_q(ctx, shape, nu) == replay_kostka(ctx, shape, nu, "pre")


def test_block_bipartitions_of_the_small_cyclic_block(ctx11, delta1):
    shapes = block_bipartitions(ctx11, delta1)
    assert set(shapes) == {
        Bipartition((2,)),
        Bipartition((1, 1)),
        Bipartition((1,), (1,)),
        Bipartition((), (2,)),
        Bipartition((), (1, 1)),
    }
    assert block_bipartitions(ctx11, lambda_rep(1, 0, delta1.rank)) == [Bipartition()]


def test_residue_sequences_and_idempotent_classes(ctx11, delta1):
    assert residue_sequences(ctx11, delta1) == [(0, 1), (1, 0)]
    assert nonzero_idempotents(ctx11, delta1) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_finite_block_has_two_idempotent_classes(ell):
    rank = AffineRank(ell)
    ctx = FockContext(rank, 1, level=2)
    beta = lambda_rep(1, 1, rank)
    assert len(nonzero_idempotents(ctx, beta)) == 2


def classes_by_definition(ctx, beta):
    """The smallest word of each group of realised words whose folds are
    equal, each word folded on its own."""
    classes = {}
    width = _width(ctx.level, beta.height)
    for word in residue_sequences(ctx, beta):
        fold = _fold(ctx.rank.e, ctx.charges, word)
        key = frozenset(
            (shape, frozenset(_unpack(*entry, width).items())) for shape, entry in fold.items()
        )
        classes.setdefault(key, word)
    return sorted(classes.values())


# (ell, s, level, multiple of delta): blocks where many prefixes share a state
MERGED_WALK_BLOCKS = [(3, 2, 2, 2), (3, 0, 2, 2), (1, 1, 2, 3), (2, 0, 1, 2)]


@pytest.mark.parametrize("ell,s,level,k", MERGED_WALK_BLOCKS)
def test_nonzero_idempotents_match_the_definition(ell, s, level, k):
    ctx = FockContext(AffineRank(ell), s, level=level)
    beta = k * null_root(ctx.rank)
    assert nonzero_idempotents(ctx, beta) == classes_by_definition(ctx, beta)
    assert_class_matrix_is_the_dim_matrix(ctx, beta)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nonzero_idempotents_match_the_definition_on_random_blocks(data):
    ell = data.draw(st.integers(min_value=1, max_value=3), label="ell")
    level = data.draw(st.sampled_from([1, 2]), label="level")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s") if level == 2 else 0
    ctx = FockContext(AffineRank(ell), s, level=level)
    height = data.draw(st.integers(min_value=0, max_value=6), label="height")
    m = height if level == 1 else data.draw(st.integers(min_value=0, max_value=height))
    comp1 = data.draw(st.sampled_from(list(partitions(m))), label="component 1")
    comp2 = data.draw(st.sampled_from(list(partitions(height - m))), label="component 2")
    beta = content(ctx, Bipartition(comp1, comp2))
    idems = nonzero_idempotents(ctx, beta)
    assert idems and idems == classes_by_definition(ctx, beta)
    assert_class_matrix_is_the_dim_matrix(ctx, beta)


def assert_class_matrix_is_the_dim_matrix(ctx, beta):
    want = dim_matrix(ctx, beta, nonzero_idempotents(ctx, beta))
    got = class_matrix(ctx, beta)
    assert got.idempotents == want.idempotents
    assert got.entries == want.entries


@pytest.mark.parametrize("level", [1, 2])
def test_class_matrix_of_the_height_zero_block(level):
    ctx = FockContext(AffineRank(2), 1 if level == 2 else 0, level=level)
    m = class_matrix(ctx, 0 * null_root(ctx.rank))
    assert m.idempotents == ((),)
    assert m.entries == ((QPoly.one(),),)


def _counted_steps(monkeypatch, run):
    """How many times ``run()`` calls the engine's step."""
    calls = [0]
    step = gdim._step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(gdim, "_step", counted)
    run()
    monkeypatch.setattr(gdim, "_step", step)
    return calls[0]


def test_classify_block_folds_each_class_once(monkeypatch):
    """The quiver path stops at the entry that rules the bound out: on this
    block it steps fewer times than the class walk, and no further than the
    walk's second class."""
    ctx = FockContext(AffineRank(3), 2, level=2)
    beta = 2 * null_root(ctx.rank)
    walk = _counted_steps(monkeypatch, lambda: nonzero_idempotents(ctx, beta))
    two = _counted_steps(
        monkeypatch, lambda: list(itertools.islice(gdim._walk(ctx, beta, merge=True), 2))
    )
    notes = []
    quiver = _counted_steps(monkeypatch, lambda: notes.extend(classify_block(ctx, beta).notes))
    assert notes[0].startswith("quiver bounds not applicable")
    assert 0 < quiver <= two < walk


@pytest.mark.parametrize(
    "ell, s, k", [(1, 1, 2), (1, 0, 2), (2, 1, 2), (2, 0, 2), (1, 1, 3), (3, 2, 2), (3, 0, 2)]
)
def test_classify_block_steps_less_than_the_class_walk(monkeypatch, ell, s, k):
    """On the benchmark's k*delta blocks the quiver verdict comes before the
    class walk ends."""
    ctx = FockContext(AffineRank(ell), s, level=2)
    beta = k * null_root(ctx.rank)
    walk = _counted_steps(monkeypatch, lambda: nonzero_idempotents(ctx, beta))
    quiver = _counted_steps(monkeypatch, lambda: classify_block(ctx, beta))
    assert 0 < quiver < walk


def _weight_blocks(max_height):
    """Every weight block of height at most max_height, ell <= 3, at both
    levels and every charge."""
    for ell in (1, 2, 3):
        for ctx in _contexts(ell):
            for beta in _weight_vectors(ell, max_height):
                try:
                    canonical_rep(ctx, beta)
                except NotAWeightError:
                    continue
                yield ctx, beta


def test_classify_block_matches_the_bounds_of_the_class_matrix():
    """The early exit gives the report that reading quiver_bounds off the
    whole class matrix gives, error text included."""
    count = 0
    for ctx, beta in _weight_blocks(8):
        plain = classify_block(ctx, beta, with_quiver=False)
        try:
            bound = quiver_bounds(class_matrix(ctx, beta))
            want = BlockReport(plain.input, plain.canonical, plain.rep_type, bound, plain.notes)
        except QuiverShapeError as exc:
            notes = plain.notes + (f"quiver bounds not applicable: {exc}",)
            want = BlockReport(plain.input, plain.canonical, plain.rep_type, None, notes)
        assert classify_block(ctx, beta).to_json() == want.to_json(), (ctx, beta)
        count += 1
    assert count == 481


#: bits per degree of the hand-built folds below
WIDTH = 8


def _packed(fold):
    """A hand-built fold {shape: {degree: count}} in the engine's packed form
    {shape: (least degree, packed histogram)}."""
    return {
        shape: (min(hist), sum(c << WIDTH * (d - min(hist)) for d, c in hist.items()))
        for shape, hist in fold.items()
    }


def _verdict(monkeypatch, folds):
    """The early-exit verdict of ``_class_verdict`` with the class walk
    replaced by the hand-built folds, pulled one at a time, or the error text
    of its QuiverShapeError."""
    monkeypatch.setattr(
        gdim,
        "_walk",
        lambda ctx, beta, merge: (((j,), _packed(fold)) for j, fold in enumerate(folds)),
    )
    monkeypatch.setattr(gdim, "_layout", lambda e, charges, n: (WIDTH, (), {}))
    ctx = FockContext(AffineRank(1), 0)
    try:
        return gdim._class_verdict(ctx, RootVec(ctx.rank, (1, 1)))
    except QuiverShapeError as exc:
        return str(exc)


def _matrix_verdict(folds):
    """The verdict read off the whole matrix of the folds."""
    rows = gdim._matrix([_packed(fold) for fold in folds], WIDTH)
    try:
        return _read_bound(len(rows), lambda i, j: rows[i][j])
    except QuiverShapeError as exc:
        return str(exc)


def test_matrix_shifts_each_product_by_its_two_least_degrees():
    """Hand-built folds whose least degrees spread over -9..7, with shapes
    that some folds share and none all: each entry of ``_matrix`` is the sum
    over shared shapes of the products of the two histograms.  The largest
    coefficient, 243, fills the top bit of the 8-bit chunks, so a wrong shift
    or a carry would show.  The diagonals are not palindromic."""
    rng = random.Random(17)
    folds = []
    for _ in range(7):
        fold = {}
        for name in rng.sample("abcde", rng.randint(1, 4)):
            least = rng.randint(-9, 7)
            fold[(name,)] = {least + d: rng.randint(1, 9) for d in range(rng.randint(1, 3))}
        folds.append(fold)
    want = tuple(
        tuple(
            sum((QPoly(a[shape]) * QPoly(b[shape]) for shape in a if shape in b), QPoly())
            for b in folds
        )
        for a in folds
    )
    leasts = [min(hist) for fold in folds for hist in fold.values()]
    assert (min(leasts), max(leasts)) == (-9, 7)
    assert not set(folds[0]).intersection(*folds[1:])
    assert max(c for row in want for poly in row for _, c in poly.items()) == 243
    assert gdim._matrix([_packed(fold) for fold in folds], WIDTH) == want


# The least degrees of the products over shared shapes, in the order the
# iterated fold meets them; an unshared shape comes first and one sits between.
DOT_ORDERS = {
    "rising": [-4, -1, 3],
    "falling": [6, 2, -5],
    "equal": [2, 2, 2],
    "mixed": [1, 1, -3, 4, -3, -7],
}


@pytest.mark.parametrize("leasts", DOT_ORDERS.values(), ids=DOT_ORDERS)
def test_dot_adds_each_product_at_the_least_degree_so_far(leasts):
    """Hand-built folds of equal size, so ``_dot`` walks the first in its
    order: the products of the shared shapes' histograms arrive with least
    degrees rising, falling, equal or mixed, and the one-pass sum shifts the
    accumulator whenever a lower one arrives.  It equals the decoded sum of
    the products, either way round."""
    rng = random.Random(len(leasts) + leasts[0])
    one = {("only one",): {rng.randint(-9, 9): 2}}
    other = {("only other",): {rng.randint(-9, 9): 3}}
    for k, least in enumerate(leasts):
        here = rng.randint(-6, 6)
        one[(k,)] = {here + d: rng.randint(1, 3) for d in range(rng.randint(1, 3))}
        other[(k,)] = {least - here + d: rng.randint(1, 3) for d in range(rng.randint(1, 3))}
        if k == 1:
            one[("between",)] = {0: 1}
            other[("elsewhere",)] = {0: 1}
    shared = [shape for shape in one if shape in other]
    assert [min(one[s]) + min(other[s]) for s in shared] == leasts
    want = sum((QPoly(one[s]) * QPoly(other[s]) for s in shared), QPoly())
    assert want != QPoly()
    assert gdim._dot(_packed(one), _packed(other), WIDTH) == want
    assert gdim._dot(_packed(other), _packed(one), WIDTH) == want


def test_dot_of_folds_sharing_no_shape_is_zero():
    one = _packed({("a",): {-2: 1, 0: 3}, ("b",): {5: 2}})
    other = _packed({("c",): {-2: 1}, ("d",): {1: 1, 2: 1}, ("e",): {0: 4}})
    assert gdim._dot(one, other, WIDTH) == gdim._dot(other, one, WIDTH) == QPoly.zero()
    assert gdim._dot({}, other, WIDTH) == QPoly.zero()


def test_quiver_verdict_checks_the_later_rows_after_the_walk(monkeypatch):
    """Row 0 passes and entry (1,2) = q fails: the rows after the first are
    read once every fold is in, and the error matches the matrix's."""
    folds = [
        {("z",): {0: 1}},
        {("a",): {0: 1}, ("s",): {1: 1}},
        {("b",): {0: 1}, ("s",): {0: 1}},
    ]
    got = _verdict(monkeypatch, iter(folds))
    assert got == "entry (1,2) = q is not delta + c*q^2 + O(q^3)"
    assert got == _matrix_verdict(folds)


def test_quiver_verdict_stops_pulling_at_a_failure_in_row_zero(monkeypatch):
    """Entry (0,3) = q fails: exactly four folds are pulled."""
    folds = [{("s",): {0: 1}}, {("a",): {0: 1}}, {("b",): {0: 1}}, {("s",): {1: 1}}]
    pulled = []

    def source():
        for fold in folds:
            pulled.append(fold)
            yield fold
        raise AssertionError("pulled past the failing entry")

    got = _verdict(monkeypatch, source())
    assert len(pulled) == 4
    assert got == "entry (0,3) = q is not delta + c*q^2 + O(q^3)"
    assert got == _matrix_verdict(folds)


def test_quiver_verdict_of_folds_that_pass(monkeypatch):
    folds = [
        {("a",): {0: 1}, ("s",): {1: 1}, ("u",): {1: 1}, ("v",): {2: 1}},
        {("b",): {0: 1}, ("s",): {1: 1}},
    ]
    got = _verdict(monkeypatch, iter(folds))
    assert got == _matrix_verdict(folds)
    assert got.arrows == ((2, 1), (1, 1)) and got.wild
    # one loop at each vertex with arrows both ways is not wild
    tame = [{("a",): {0: 1}, ("s",): {1: 1}}, {("b",): {0: 1}, ("s",): {1: 1}}]
    got = _verdict(monkeypatch, iter(tame))
    assert got == _matrix_verdict(tame)
    assert got.arrows == ((1, 1), (1, 1)) and not got.wild
    assert _verdict(monkeypatch, iter([])) == _matrix_verdict([])


def test_every_weight_block_has_a_class():
    """A block that canonical_rep labels has at least one idempotent class, so
    classify_block always has a matrix to read quiver bounds from."""
    count = 0
    for ctx, beta in _weight_blocks(6):
        assert nonzero_idempotents(ctx, beta), (ctx, beta)
        count += 1
    assert count == 292


def test_every_class_matrix_entry_is_palindromic_about_the_defect():
    """Each nonzero entry of the class matrix, off the diagonal too, has the
    coefficient of q^d equal to that of q^(2 def(beta) - d).  DimMatrix
    checks only that each diagonal is palindromic about its own centre."""
    blocks = entries = 0
    for ctx, beta in _weight_blocks(6):
        twice = 2 * defect(ctx, beta)
        for row in class_matrix(ctx, beta).entries:
            for poly in row:
                if poly:
                    assert all(poly.coeff(twice - d) == c for d, c in poly.items()), (
                        ctx, beta, poly
                    )
                    entries += 1
        blocks += 1
    assert (blocks, entries) == (292, 10165)


def pairwise_dims(ctx, words):
    return tuple(tuple(graded_dim(ctx, a, b) for b in words) for a in words)


def test_dim_matrix_keeps_the_input_order(ctx11, delta1):
    idems = nonzero_idempotents(ctx11, 2 * delta1)
    for words in (idems[::-1], [idems[2], idems[0], idems[3], idems[1]]):
        m = dim_matrix(ctx11, 2 * delta1, words)
        assert m.idempotents == tuple(words)
        assert m.entries == pairwise_dims(ctx11, words)


def test_dim_matrix_repeats_a_duplicated_word(ctx11, delta1):
    one, other = nonzero_idempotents(ctx11, 2 * delta1)[:2]
    words = [other, one, other]
    m = dim_matrix(ctx11, 2 * delta1, words)
    assert m.entries == pairwise_dims(ctx11, words)
    assert m.entries[0] == m.entries[2]


def test_dim_matrix_unrealised_word_gives_a_zero_row(ctx11, delta1):
    words = [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert words[0] not in residue_sequences(ctx11, 2 * delta1)
    m = dim_matrix(ctx11, 2 * delta1, words)
    assert m.entries == pairwise_dims(ctx11, words)
    assert m.entry(0, 0) == m.entry(0, 1) == m.entry(1, 0) == QPoly.zero()
    assert m.entry(1, 1) == QPoly({0: 1, 2: 3, 4: 4, 6: 3, 8: 1})


def test_dim_matrix_negative_degree_diagonal():
    ctx = FockContext(AffineRank(1), 0, level=2)
    beta = 2 * null_root(ctx.rank)
    idems = nonzero_idempotents(ctx, beta)
    m = dim_matrix(ctx, beta, idems)
    assert idems[0] == (0, 0, 1, 1)
    assert m.entry(0, 0) == QPoly(
        {-4: 1, -2: 5, 0: 12, 2: 19, 4: 22, 6: 19, 8: 12, 10: 5, 12: 1}
    )
    assert m.entries == pairwise_dims(ctx, idems)


def test_dim_matrix_full_block_matches_pairwise_dims():
    ctx = FockContext(AffineRank(3), 0, level=2)
    beta = 2 * null_root(ctx.rank)
    idems = nonzero_idempotents(ctx, beta)
    m = dim_matrix(ctx, beta, idems)
    assert len(idems) == 57
    for a, one in enumerate(idems):
        for b in range(a, len(idems)):
            assert m.entry(a, b) == m.entry(b, a) == graded_dim(ctx, one, idems[b])


def test_graded_dim_smallest_cyclic_block(ctx11, delta1):
    one = (0, 1)
    other = (1, 0)
    assert graded_dim(ctx11, one, one) == QPoly({0: 1, 2: 1, 4: 1})
    assert graded_dim(ctx11, other, other) == QPoly({0: 1, 2: 1, 4: 1})
    assert graded_dim(ctx11, one, other) == QPoly({2: 1})
    assert ungraded_block_dim(ctx11, delta1) == 8


def test_graded_dim_double_cyclic_block_regression(ctx11, delta1):
    """Recomputed table for the height-four block; the diagonal ungraded
    count 12 is forced by direct enumeration of the twelve growths and by
    the block dimension 256 = sum of all word-pair dimensions."""
    beta = 2 * delta1
    a = (0, 1, 0, 1)
    b = (1, 0, 1, 0)
    diag = QPoly({0: 1, 2: 3, 4: 4, 6: 3, 8: 1})
    assert graded_dim(ctx11, a, a) == diag
    assert graded_dim(ctx11, b, b) == diag
    assert graded_dim(ctx11, a, b) == QPoly({2: 2, 4: 4, 6: 2})
    assert ungraded_block_dim(ctx11, beta) == 256
    words = residue_sequences(ctx11, beta)
    total = sum(
        graded_dim(ctx11, x, y).evaluate() for x in words for y in words
    )
    assert total == 256


def test_graded_dim_mismatched_words(ctx11):
    assert graded_dim(ctx11, (0, 1), (0, 0)) == QPoly.zero()
    with pytest.raises(ValueError):
        graded_dim(ctx11, (0, 1), (0, 1, 0))


def test_count_standard_explicit():
    assert count_standard(Bipartition()) == 1
    assert count_standard(Bipartition((2,), (1,))) == 3
    assert count_standard(Bipartition((1,), (1,))) == 2
    assert count_standard(Bipartition((2, 1))) == 2
    assert count_standard(Bipartition((2,), (2,))) == 6


def test_dim_matrix_structure(ctx11, delta1):
    idems = nonzero_idempotents(ctx11, delta1)
    m = dim_matrix(ctx11, delta1, idems)
    assert m.size == 2
    assert m.entry(0, 1) == m.entry(1, 0)
    diag, off = {"min_deg": 0, "coeffs": [1, 0, 1, 0, 1]}, {"min_deg": 2, "coeffs": [1]}
    assert m.to_json() == {"idempotents": [[0, 1], [1, 0]], "entries": [[diag, off], [off, diag]]}
    text = str(m)
    assert "1+q^2+q^4" in text and "q^2" in text
    with pytest.raises(ValueError):
        dim_matrix(ctx11, delta1, [(0, 0)])


def test_dim_matrix_rejects_asymmetric_or_negative_entries(ctx11, delta1):
    idems = tuple(nonzero_idempotents(ctx11, delta1))
    one, off = QPoly({0: 1, 2: 1}), QPoly({2: 1})
    assert DimMatrix(idems, ((one, off), (off, one))).entry(1, 0) == off
    bad = QPoly({0: 1, 2: -1})
    for entries, message in [
        (((one, off), (QPoly({4: 1}), one)), "symmetric"),
        (((one, bad), (bad, one)), "nonnegative"),
        (((one, off), (off, bad)), "nonnegative"),
    ]:
        with pytest.raises(ValueError, match=message):
            DimMatrix(idems, entries)


@pytest.mark.parametrize(
    "build",
    [
        lambda ctx: graded_dim(ctx, (0.9, 1.2), (0, 1)),
        lambda ctx: graded_dim(ctx, (0, 1), (True, 0)),
        lambda ctx: kostka_q(ctx, Bipartition((2,), (1,)), (0.2, 1.9, 1)),
        lambda ctx: dim_matrix(ctx, null_root(ctx.rank), [(0, 1.0)]),
    ],
)
def test_words_that_are_not_ints_are_rejected_not_truncated(ctx11, build):
    with pytest.raises(ValueError, match="integers"):
        build(ctx11)


def test_letters_outside_the_residues_are_reduced_mod_e():
    """Letters -1 and e + 1 name the residues e - 1 and 1: graded_dim,
    kostka_q and dim_matrix answer for words holding either or both as for
    the words reduced, and dim_matrix stores the reduced words as its
    idempotents."""
    ctx = FockContext(AffineRank(2), 1, level=2)
    e, beta = ctx.rank.e, 2 * null_root(ctx.rank)
    words = nonzero_idempotents(ctx, beta)[:4]
    shapes = block_bipartitions(ctx, beta)
    wants = dim_matrix(ctx, beta, words).entries
    assert wants == pairwise_dims(ctx, words)
    hits = 0
    for low, high in [(-1, 1), (e - 1, e + 1), (-1, e + 1)]:
        raw = [[low if v == e - 1 else high if v == 1 else v for v in nu] for nu in words]
        assert all(min(r) < 0 or max(r) >= e for r in raw)
        for i, (a, ra) in enumerate(zip(words, raw)):
            for j, rb in enumerate(raw):
                assert graded_dim(ctx, ra, rb) == graded_dim(ctx, a, rb) == wants[i][j]
            for shape in shapes:
                want = kostka_q(ctx, shape, a)
                assert kostka_q(ctx, shape, ra) == want
                hits += want != QPoly.zero()
        m = dim_matrix(ctx, beta, raw)
        assert m.idempotents == tuple(words) and m.entries == wants
    assert hits and all(wants[i][i] != QPoly.zero() for i in range(len(words)))


def test_quiver_bounds_flags_the_doubled_loop():
    rank = AffineRank(4)
    ctx = FockContext(rank, 1, level=2)
    beta = lambda_rep(1, 2, rank)
    words = [(0, 1, 2, 4, 0, 1), (1, 0, 2, 4, 1, 0)]
    bounds = quiver_bounds(dim_matrix(ctx, beta, words))
    assert bounds.loops == (2, 2)
    assert bounds.arrows[0][1] == 1
    assert bounds.wild


def test_quiver_bounds_on_the_tame_table(ctx11, delta1):
    bounds = quiver_bounds(dim_matrix(ctx11, delta1, nonzero_idempotents(ctx11, delta1)))
    assert bounds.loops == (1, 1)
    assert not bounds.wild
    assert bounds.to_json()["wild"] is False


def test_quiver_bounds_rejects_low_degree_off_diagonal():
    rank = AffineRank(4)
    ctx = FockContext(rank, 1, level=2)
    beta = lambda_rep(1, 1, rank)
    m = dim_matrix(ctx, beta, nonzero_idempotents(ctx, beta))
    with pytest.raises(QuiverShapeError):
        quiver_bounds(m)


_NOT_A_BOUND = "is not delta + c*q^2 + O(q^3)"


@pytest.mark.parametrize(
    "i, j, terms, want",
    [
        (0, 0, {0: 1, 2: 2, 4: 1}, 2),
        (0, 1, {2: 1, 3: 1}, 1),
        (0, 1, {}, 0),
        (0, 0, {}, f"entry (0,0) = 0 {_NOT_A_BOUND}"),
        (0, 1, {0: 1, 2: 1}, f"entry (0,1) = 1+q^2 {_NOT_A_BOUND}"),
        (0, 1, {1: 1, 3: 1}, f"entry (0,1) = q+q^3 {_NOT_A_BOUND}"),
        (1, 1, {-2: 1, 0: 1, 2: 1}, f"entry (1,1) = q^-2+1+q^2 {_NOT_A_BOUND}"),
        (1, 1, {0: 1, 4: -1}, f"entry (1,1) = 1-q^4 {_NOT_A_BOUND}"),
    ],
)
def test_quiver_coeff_reads_each_clause(i, j, terms, want):
    """Each entry either reads as delta_ij + c q^2 + O(q^3) with c returned,
    or fails exactly one clause: the q^0 term, the q^1 term, a negative
    degree, or a negative coefficient."""
    poly = QPoly(terms)
    if isinstance(want, int):
        assert gdim._quiver_coeff(i, j, poly) == want
    else:
        with pytest.raises(QuiverShapeError) as exc:
            gdim._quiver_coeff(i, j, poly)
        assert str(exc.value) == want


def _fresh_cache(monkeypatch, maxsize):
    """An empty fold cache of the given size for the test, the module's own
    restored after.  The lookups call ``_fold`` through the module, so they
    go through this cache."""
    cache = functools.lru_cache(maxsize=maxsize)(gdim._fold.__wrapped__)
    monkeypatch.setattr(gdim, "_fold", cache)
    return cache


def _clear_memos():
    gdim._fold.cache_clear()
    gdim._moves.cache_clear()
    gdim._layout.cache_clear()


@pytest.fixture
def fresh_cache():
    """The module's own fold cache, emptied before and after the test, as are
    the memo of moves and the layouts of word lengths."""
    _clear_memos()
    yield gdim._fold
    _clear_memos()


def _cold(call):
    """The answer of ``call()`` with nothing cached or memoised before or
    after it."""
    _clear_memos()
    try:
        return call()
    finally:
        _clear_memos()


def _query_stream(seed, count):
    """Seeded graded_dim, kostka_q and dim_matrix calls interleaved over the
    e = 3 contexts: level two at every charge and level one, on words of
    lengths 4 to 6 that share their prefixes."""
    rng = random.Random(seed)
    rank = AffineRank(2)
    contexts = _contexts(2)
    longest = residue_sequences(contexts[1], 2 * null_root(rank))
    calls = []
    for _ in range(count):
        ctx = rng.choice(contexts)
        word = rng.choice(longest)[: rng.randint(4, 6)]
        other = tuple(rng.sample(word, len(word)))
        kind = rng.randrange(3)
        if kind == 0:
            calls.append(lambda ctx=ctx, a=word, b=other: graded_dim(ctx, a, b))
        elif kind == 1:
            shapes = block_bipartitions(ctx, RootVec(rank, _seq_content(ctx, word)))
            shape = rng.choice(shapes) if shapes else Bipartition()
            if shape.size == len(word):
                calls.append(lambda ctx=ctx, sh=shape, a=word: kostka_q(ctx, sh, a))
        else:
            beta = RootVec(rank, _seq_content(ctx, word))
            words = [word, other, tuple(rng.sample(word, len(word)))]
            calls.append(lambda ctx=ctx, beta=beta, w=words: dim_matrix(ctx, beta, w).entries)
    return calls


def test_memoised_answers_equal_cold_answers(fresh_cache, monkeypatch):
    """Contexts that share e but not s or the level, and words of different
    lengths sharing a prefix, never read each other's cached states."""
    calls = _query_stream(1, 160)
    cold = [_cold(call) for call in calls]
    heads = set()
    build = gdim._layout.__wrapped__

    def spy(e, charges, n):  # called once for each layout missed
        heads.add((e, charges, n))
        return build(e, charges, n)

    monkeypatch.setattr(gdim, "_layout", functools.cache(spy))
    warm = [call() for call in calls]
    assert warm == cold
    assert any(answer for answer in cold)
    assert len(heads) > 4
    assert fresh_cache.cache_info().hits > 0


def test_memo_never_holds_more_than_its_bound(fresh_cache):
    """(4,1,2delta) has 5 070 words, so a stream of 800 lookups of two words
    each folds more distinct words than the cache holds."""
    assert fresh_cache.cache_info().maxsize == gdim._CACHE_STATES
    ctx = FockContext(AffineRank(4), 1, level=2)
    words = residue_sequences(ctx, 2 * null_root(ctx.rank))
    rng = random.Random(2)
    for _ in range(800):
        graded_dim(ctx, rng.choice(words), rng.choice(words))
        assert fresh_cache.cache_info().currsize <= gdim._CACHE_STATES
    assert fresh_cache.cache_info().misses > gdim._CACHE_STATES  # the stream outgrew it


def test_answers_stay_right_after_eviction(monkeypatch):
    cache = _fresh_cache(monkeypatch, 40)
    calls = _query_stream(3, 160)
    cold = [_cold(call) for call in calls]
    warm = []
    for call in calls:
        warm.append(call())
        assert cache.cache_info().currsize <= 40
    assert warm == cold
    assert cache.cache_info().misses > 40
    assert cache.cache_info().currsize > 0


def test_memo_is_safe_under_threads(monkeypatch):
    """Four threads evicting from a small cache at once, and racing on the
    first writes of each table of moves, raise nothing and get the
    single-threaded answers."""
    cache = _fresh_cache(monkeypatch, 40)
    streams = [_query_stream(seed, 200) for seed in (4, 5, 6, 7)]
    want = [[_cold(call) for call in calls] for calls in streams]
    gdim._moves.cache_clear()
    got = [[] for _ in streams]
    errors = []

    def work(k):
        try:
            for call in streams[k]:
                got[k].append(call())
        except Exception as exc:  # reported below, with the thread's answers
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == want
    assert 0 < cache.cache_info().currsize <= 40


def test_moves_memo_keeps_charges_and_levels_apart(fresh_cache):
    """One shape stepped at every residue under each charge at level two, and
    its first component under level one, interleaved over three rounds, gets
    the cold answer each time, shapes in the same order."""
    rank = AffineRank(2)
    cases = [(FockContext(rank, s, level=2), ((2, 1), (1,))) for s in range(3)]
    cases.append((FockContext(rank, 0, level=1), ((2, 1),)))

    def step(ctx, shape, i):
        mask = gdim._masks(ctx.rank.e, ctx.charges, 5)[i]
        return list(gdim._step({gdim._code(shape, 5): (0, 1)}, mask, 8).items())

    cold = {(ctx, i): _cold(lambda: step(ctx, shape, i)) for ctx, shape in cases for i in range(3)}
    # the charge moves the second component's residues, so it changes answers
    assert len({repr(cold[ctx, 1]) for ctx, _ in cases[:3]}) == 3
    for _ in range(3):
        for i in range(3):
            for ctx, shape in cases:
                assert step(ctx, shape, i) == cold[ctx, i]


def test_moves_memo_is_bounded_by_the_fock_space(fresh_cache):
    """After the class walk of (2,1,3delta), whose words have 9 letters, the
    memo holds at most e entries per bipartition of size at most 8 for the
    context, whatever the walk's traffic."""
    ctx = FockContext(AffineRank(2), 1, level=2)
    assert len(nonzero_idempotents(ctx, 3 * null_root(ctx.rank))) == 312
    shapes = sum(1 for n in range(9) for _ in fock.bipartitions(ctx, n))
    assert shapes == 434
    entries = gdim._moves.cache_info().currsize
    assert 0 < entries <= ctx.rank.e * shapes


def test_moves_memo_after_folds_of_mixed_lengths(fresh_cache):
    """A shape's code depends on the word length, so folding words of lengths
    1 to 8 keeps one memo entry per shape, residue and length: every prefix
    of the words of (1,1,4delta) leaves at most 908, under the e entries per
    bipartition of size < n summed over the lengths n."""
    ctx = FockContext(AffineRank(1), 1, level=2)
    words = residue_sequences(ctx, 4 * null_root(ctx.rank))
    prefixes = {w[:k] for w in words for k in range(1, 9)}
    assert len(prefixes) == 124
    gdim._moves.cache_clear()
    for word in prefixes:
        gdim._fold(ctx.rank.e, ctx.charges, word)
    below = [sum(1 for m in range(n) for _ in fock.bipartitions(ctx, m)) for n in range(1, 9)]
    entries = gdim._moves.cache_info().currsize
    assert 0 < entries <= 908 < ctx.rank.e * sum(below)


def _layout_blocks():
    """A block of each height 0 to 6 in level one and in level two at charges
    0 and 1, for ell 1 to 3: the middle content of each height."""
    out = []
    for ell in (1, 2, 3):
        for s, level in ((0, 1), (0, 2), (1, 2)):
            ctx = FockContext(AffineRank(ell), s, level=level)
            for height in range(7):
                blocks = _blocks_of_height(ell, s, level, height)
                out.append((ctx, RootVec(ctx.rank, blocks[len(blocks) // 2])))
    return out


def _run_every_reader(ctx, beta):
    """Each public reader of the layouts, on one block."""
    words = nonzero_idempotents(ctx, beta)
    shape = block_bipartitions(ctx, beta)[0]
    graded_dim(ctx, words[0], words[-1])
    kostka_q(ctx, shape, words[-1])
    dim_matrix(ctx, beta, words[:3])
    class_matrix(ctx, beta)
    classify_block(ctx, beta)


def test_each_layout_is_built_once_and_never_mutated(fresh_cache):
    """Every reader on blocks of heights 0 to 6, twice over, builds one layout
    per (e, charges, height), keeps the same objects the second time and
    leaves each as a fresh build would make it: the masks a tuple, the start
    state the empty shape alone."""
    blocks = _layout_blocks()
    triples = {(ctx.rank.e, ctx.charges, beta.height) for ctx, beta in blocks}
    assert len(triples) == 3 * 3 * 7
    for ctx, beta in blocks:
        _run_every_reader(ctx, beta)
    first = {t: gdim._layout(*t) for t in triples}
    for ctx, beta in blocks:
        _run_every_reader(ctx, beta)
    info = gdim._layout.cache_info()
    assert info.currsize == info.misses == len(triples)
    for (e, charges, n), layout in first.items():
        assert gdim._layout(e, charges, n) is layout
        width, masks, start = layout
        assert width == gdim._width(len(charges), n)
        assert type(masks) is tuple and masks == gdim._masks(e, charges, n)
        assert start == {gdim._code(((),) * len(charges), n): (0, 1)}


MIXED_CONTEXTS = [FockContext(AffineRank(3), s, level=2) for s in range(4)] + [
    FockContext(AffineRank(3), 0, level=1)
]


def _mixed_length_stream(seed, rounds):
    """Seeded graded_dim, kostka_q and dim_matrix calls on words of lengths 0
    to 8, prefixes of the words of 2delta, over every e = 4 context, level one
    and level two at each charge, interleaved with class walks of the blocks
    of the same prefixes, so walks and folds of one length share a layout.
    Each (context, length) comes ``rounds`` times, in a shuffled order."""
    rng = random.Random(seed)
    rank = AffineRank(3)
    longest = {
        ctx: _cold(lambda ctx=ctx: residue_sequences(ctx, 2 * null_root(rank)))
        for ctx in MIXED_CONTEXTS
    }
    pairs = [(ctx, n) for ctx in MIXED_CONTEXTS for n in range(9)] * rounds
    rng.shuffle(pairs)
    calls = []
    for ctx, n in pairs:
        word = rng.choice(longest[ctx])[:n]
        other = tuple(rng.sample(word, len(word)))
        beta = RootVec(rank, _seq_content(ctx, word))
        kind = rng.randrange(5)
        if kind == 0:
            calls.append(lambda ctx=ctx, a=word, b=other: graded_dim(ctx, a, b))
        elif kind == 1:
            shape = rng.choice(block_bipartitions(ctx, beta))
            calls.append(lambda ctx=ctx, sh=shape, a=word: kostka_q(ctx, sh, a))
        elif kind == 2:
            words = [word, other, tuple(rng.sample(word, len(word)))]
            calls.append(lambda ctx=ctx, beta=beta, w=words: dim_matrix(ctx, beta, w).entries)
        elif kind == 3:
            calls.append(lambda ctx=ctx, beta=beta: class_matrix(ctx, beta).entries)
        else:
            calls.append(lambda ctx=ctx, beta=beta: nonzero_idempotents(ctx, beta))
    return calls


def test_layouts_of_mixed_lengths_and_charges_give_cold_answers(fresh_cache):
    """Lookups and class walks over every e = 4 context and word lengths 0
    to 8, in one process, answer as each does with nothing cached: a layout
    read under the wrong charges, level or length would step the wrong
    masks, widths or start codes."""
    calls = _mixed_length_stream(11, 5)
    cold = [_cold(call) for call in calls]
    warm = [call() for call in calls]
    assert warm == cold
    assert sum(1 for answer in cold if answer) > 100
    # one layout for each of the 5 contexts at each of the 9 lengths
    assert gdim._layout.cache_info().currsize == len(MIXED_CONTEXTS) * 9


@pytest.mark.parametrize("word", [(0,) * 2000, (0, 0) + (0, 1) * 600])
def test_long_words_fold_without_deep_recursion(ctx11, word, fresh_cache):
    """A word far longer than the recursion limit folds in one loop, which
    stops at its first empty state, and takes one cache slot."""
    assert graded_dim(ctx11, word, word) == 0
    assert fresh_cache.cache_info().currsize < 5


@functools.lru_cache(maxsize=None)
def _blocks_of_height(ell, s, level, height):
    """The content of every (bi)partition of the given size, once each."""
    ctx = FockContext(AffineRank(ell), s, level=level)
    sizes = [height] if level == 1 else range(height + 1)
    return sorted(
        {
            content(ctx, Bipartition(p1, p2)).coeffs
            for m in sizes
            for p1 in partitions(m)
            for p2 in partitions(height - m)
        }
    )


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_graded_dims_match_the_tableau_replay_at_heights_seven_and_eight(data):
    """graded_dim, dim_matrix and kostka_q against the replay of every
    standard (bi)tableau of the block, above O7's height-6 reach."""
    ell = data.draw(st.integers(min_value=1, max_value=4), label="ell")
    level = data.draw(st.sampled_from([1, 2]), label="level")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s") if level == 2 else 0
    height = data.draw(st.sampled_from([7, 8]), label="height")
    ctx = FockContext(AffineRank(ell), s, level=level)
    coeffs = data.draw(st.sampled_from(_blocks_of_height(ell, s, level, height)), label="beta")
    beta = RootVec(ctx.rank, coeffs)
    table = _replay(ctx, block_bipartitions(ctx, beta), "post")
    words = sorted({word for row in table.values() for word in row})
    picked = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=4), label="words")
    assert dim_matrix(ctx, beta, picked).entries == tuple(
        tuple(_replay_dim(table, a, b) for b in picked) for a in picked
    )
    a = data.draw(st.sampled_from(words), label="a")
    b = data.draw(st.sampled_from(words), label="b")
    assert graded_dim(ctx, a, b) == _replay_dim(table, a, b)
    shape = data.draw(st.sampled_from(sorted(table, key=lambda bp: (bp.comp1, bp.comp2))))
    assert kostka_q(ctx, shape, a) == table[shape].get(a, QPoly.zero())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_step_matches_the_corner_count_on_shapes_up_to_fourteen_nodes(data):
    """``_step`` on a state of random (bi)partitions of one size, each with a
    random histogram from a random least degree, against the count built
    from ``fock``'s corners: every addable i-node adds the histogram shifted
    by its below-statistic in the larger shape, and the new shapes come in
    the order the state's shapes and, within each, its nodes from the bottom
    up first reach them.  Shapes are keyed by their codes at a random word
    length longer than the state's size.  The state is stepped with the memo
    of moves empty, then again with it warm, to the same shapes in the same
    order."""
    ell = data.draw(st.integers(min_value=1, max_value=4), label="ell")
    level = data.draw(st.sampled_from([1, 2]), label="level")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s") if level == 2 else 0
    ctx = FockContext(AffineRank(ell), s, level=level)
    n = data.draw(st.integers(min_value=0, max_value=14), label="size")
    i = data.draw(st.integers(min_value=0, max_value=ell), label="i")
    length = data.draw(st.integers(min_value=n + 1, max_value=16), label="word length")
    width = 8  # no sum of at most six counts of at most 9 carries
    hists = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="shapes")):
        m = data.draw(st.integers(min_value=0, max_value=n), label="m") if level == 2 else n
        bp = Bipartition(
            data.draw(st.sampled_from(list(partitions(m))), label="first"),
            data.draw(st.sampled_from(list(partitions(n - m))), label="second"),
        )
        lo = data.draw(st.integers(min_value=-30, max_value=30), label="lo")
        counts = [data.draw(st.integers(min_value=1, max_value=9), label="least count")]
        counts += data.draw(st.lists(st.integers(min_value=0, max_value=9), max_size=5))
        hists[bp] = {lo + k: c for k, c in enumerate(counts) if c}
    state = {}
    for bp, hist in hists.items():
        packed = sum(c << width * (d - min(hist)) for d, c in hist.items())
        state[gdim._code(bp.parts[:level], length)] = (min(hist), packed)
    want = {}
    for bp, hist in hists.items():
        for node in reversed(fock.addable_nodes(ctx, bp, i)):
            grown = fock.add_node(bp, node)
            below = fock._stat_below(ctx, grown, node, i)
            acc = want.setdefault(gdim._code(grown.parts[:level], length), {})
            for d, c in hist.items():
                acc[d + below] = acc.get(d + below, 0) + c
    mask = gdim._masks(ctx.rank.e, ctx.charges, length)[i]
    gdim._moves.cache_clear()
    got = gdim._step(state, mask, width)
    assert list(gdim._step(state, mask, width).items()) == list(got.items())
    assert list(got) == list(want)
    assert {shape: _unpack(lo, packed, width) for shape, (lo, packed) in got.items()} == want


@pytest.mark.parametrize("level", [1, 2])
def test_codes_tell_every_shape_of_at_most_eight_nodes_apart(level):
    """At word length 8, every (bi)partition of size at most 8 of each
    context with ell <= 3 has its own code, and each field of 18 bits holds
    9 beads below its top bit."""
    for ell in (1, 2, 3):
        for s in range(ell + 1) if level == 2 else (0,):
            ctx = FockContext(AffineRank(ell), s, level=level)
            shapes = [bp.parts[:level] for m in range(9) for bp in fock.bipartitions(ctx, m)]
            codes = {gdim._code(shape, 8) for shape in shapes}
            assert len(codes) == len(shapes)
            for code in codes:
                fields = [code >> 18 * k & (1 << 18) - 1 for k in range(level)]
                assert code >> 18 * level == 0
                assert all(f.bit_count() == 9 and f < 1 << 17 for f in fields)


def test_masks_hold_each_residue_below_the_top_bit_of_every_field():
    """Bit b of field k (component 0 highest) is in the mask of residue i
    exactly when b is below the field's top bit and b + c_k - n = i mod e:
    no mask holds bit 2n + 1 of a field, so no pattern crosses two fields."""
    for e in (2, 3, 4, 5):
        for charges in [(0,), (3,)] + [(0, s) for s in range(e)]:
            for n in range(13):
                field, top = 2 * n + 2, 2 * n + 1
                masks = gdim._masks(e, charges, n)
                assert len(masks) == e
                for i, mask in enumerate(masks):
                    want = 0
                    for c in charges:
                        want <<= field
                        want |= sum(1 << b for b in range(top) if (b + c - n) % e == i)
                    assert mask == want
                    for k in range(len(charges)):
                        assert not mask >> field * k + top & 1
