"""Bipartition combinatorics and the charged two-component node calculus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import (
    AffineRank,
    Bipartition,
    Bitableau,
    FockContext,
    Node,
    QPoly,
    addable_nodes,
    add_node,
    content,
    count_standard,
    enumerate_standard,
    pair_coroot,
    quantum_int,
    removable_nodes,
    residue,
    tableau_stats,
)
from heckeblocks.checks import _stat_above, apply_e, apply_f, fock_sum, remove_node
from heckeblocks.fock import _stat_below, partitions


def test_bipartition_validation_and_size():
    bp = Bipartition((3, 1), (2,))
    assert bp.size == 6
    assert bp.component(1) == (3, 1)
    assert bp.component(2) == (2,)
    with pytest.raises(ValueError):
        Bipartition((1, 2))
    with pytest.raises(ValueError):
        Bipartition((2, 0))


@pytest.mark.parametrize("data", [[[2.7], [1]], [["2"], [1]], [[True], [1]]])
def test_bipartition_rejects_parts_that_are_not_ints(data):
    with pytest.raises(ValueError, match="must consist of integers"):
        Bipartition.from_json(data)


@pytest.mark.parametrize(
    "data",
    [{"a": 1, "b": 2}, "ab", [[1], 2], [1, 2], None, [[1], [1], [1]], ([1], [1]), [(1,), [1]]],
)
def test_bipartition_from_json_takes_only_a_list_of_two_lists(data):
    with pytest.raises(ValueError, match="a bipartition is a pair of partitions"):
        Bipartition.from_json(data)


def test_bipartition_json_and_str():
    bp = Bipartition((2, 1))
    assert Bipartition.from_json(bp.to_json()) == bp
    assert Bipartition.from_json([[2], [1]]) == Bipartition((2,), (1,))
    assert "|" in str(bp)


def test_cells_are_listed_component_then_row():
    bp = Bipartition((2,), (1, 1))
    assert list(bp.cells()) == [
        Node(1, 1, 1),
        Node(1, 1, 2),
        Node(2, 1, 1),
        Node(2, 2, 1),
    ]


def test_residues_shift_the_second_component(ctx21):
    assert residue(ctx21, Node(1, 1, 1)) == 0
    assert residue(ctx21, Node(1, 1, 2)) == 1
    assert residue(ctx21, Node(1, 2, 1)) == 2
    assert residue(ctx21, Node(2, 1, 1)) == 1
    assert residue(ctx21, Node(2, 1, 2)) == 2
    assert residue(ctx21, Node(2, 3, 1)) == 2


def test_context_validation(rank2):
    with pytest.raises(ValueError):
        FockContext(rank2, 3, level=2)
    with pytest.raises(ValueError):
        FockContext(rank2, 1, level=3)
    for bad_s in (1.0, True):
        with pytest.raises(ValueError, match="s must be an integer"):
            FockContext(rank2, bad_s)
    with pytest.raises(ValueError, match="level must be"):
        FockContext(rank2, 0, level=2.0)
    ctx = FockContext(rank2, 1, level=2)
    assert ctx.highest_weight().level == 2
    assert (ctx.charge(1), ctx.charge(2)) == (0, 1)
    one_comp = FockContext(rank2, 0, level=1)
    with pytest.raises(ValueError):
        one_comp.check_shape(Bipartition((1,), (1,)))
    assert (ctx.charges, one_comp.charges) == ((0, 1), (0,))
    assert one_comp.charge(1) == 0
    # A component outside 1..level has no charge, at either level.
    for context, bad in [(ctx, 0), (ctx, 3), (ctx, -1), (ctx, True), (one_comp, 2)]:
        with pytest.raises(ValueError, match="component must be"):
            context.charge(bad)
    with pytest.raises(ValueError, match="component must be"):
        residue(one_comp, Node(2, 1, 1))


def test_addable_nodes_of_empty_and_hook(ctx21):
    assert addable_nodes(ctx21, Bipartition()) == [Node(1, 1, 1), Node(2, 1, 1)]
    bp = Bipartition((2, 1), (1,))
    assert addable_nodes(ctx21, bp) == [
        Node(1, 1, 3),
        Node(1, 2, 2),
        Node(1, 3, 1),
        Node(2, 1, 2),
        Node(2, 2, 1),
    ]
    assert addable_nodes(ctx21, bp, 1) == [Node(1, 3, 1)]
    assert addable_nodes(ctx21, bp, 2) == [Node(1, 1, 3), Node(2, 1, 2)]


def test_removable_nodes(ctx21):
    bp = Bipartition((2, 1), (1,))
    assert removable_nodes(ctx21, bp) == [Node(1, 1, 2), Node(1, 2, 1), Node(2, 1, 1)]
    assert removable_nodes(ctx21, bp, 1) == [Node(1, 1, 2), Node(2, 1, 1)]
    assert removable_nodes(ctx21, Bipartition()) == []


def test_add_and_remove_are_inverse(ctx21):
    bp = Bipartition((2,), (1,))
    for node in addable_nodes(ctx21, bp):
        assert remove_node(add_node(bp, node), node) == bp
    with pytest.raises(ValueError):
        add_node(bp, Node(1, 3, 1))
    with pytest.raises(ValueError):
        remove_node(bp, Node(1, 1, 1))


def test_content_counts_residues(ctx21):
    beta = content(ctx21, Bipartition((2,), (1,)))
    assert beta.coeffs == (1, 2, 0)
    assert content(ctx21, Bipartition()).coeffs == (0, 0, 0)


def test_corner_statistics_explicit(ctx11):
    lam, node = Bipartition((2,)), Node(1, 1, 2)
    assert _stat_below(ctx11, lam, node, 1) == 2
    assert _stat_above(ctx11, lam, node, 1) == 0
    lam2, node2 = Bipartition((1,), (1,)), Node(2, 1, 1)
    assert _stat_below(ctx11, lam2, node2, 1) == 0
    assert _stat_above(ctx11, lam2, node2, 1) == 2


def test_corner_counts_pair_the_highest_weight_with_the_content():
    """Addable minus removable i-nodes of a shape is <h_i, Lambda - content>,
    and at a removable i-node it is also _stat_below + _stat_above - 1."""
    shapes = [
        Bipartition(a, b)
        for n in range(7)
        for m in range(n + 1)
        for a in partitions(m)
        for b in partitions(n - m)
    ]
    cases = 0
    for ell in (1, 2, 3):
        rank = AffineRank(ell)
        ctxs = [FockContext(rank, s, level=2) for s in range(ell + 1)]
        for ctx in ctxs + [FockContext(rank, 0, level=1)]:
            weight = ctx.highest_weight()
            for bp in shapes:
                if ctx.level == 1 and bp.comp2:
                    continue
                beta = content(ctx, bp)
                for i in rank.vertices:
                    want = pair_coroot(i, weight, beta)
                    add = addable_nodes(ctx, bp, i)
                    rem = removable_nodes(ctx, bp, i)
                    assert len(add) - len(rem) == want, (ctx, bp, i)
                    for node in rem:
                        below = _stat_below(ctx, bp, node, i)
                        above = _stat_above(ctx, bp, node, i)
                        assert below + above - 1 == want, (ctx, bp, node)
                    cases += 1
    assert cases == 4301


def test_enumerate_standard_matches_hook_counts(ctx21):
    for data in ([[2], [1]], [[2, 1], []], [[1], [1, 1]], [[3], [2]]):
        shape = Bipartition.from_json(data)
        tabs = list(enumerate_standard(ctx21, shape))
        assert len(tabs) == count_standard(shape)
        assert len({t.growth for t in tabs}) == len(tabs)
        for tab in tabs:
            assert tab.shape == shape
            seen = Bipartition()
            for node in tab.growth:
                seen = add_node(seen, node)
            assert seen == shape


def test_tableau_stats_explicit(ctx11):
    shape = Bipartition((2,), (1,))
    by_growth = {t.growth: t for t in enumerate_standard(ctx11, shape)}
    assert len(by_growth) == 3
    first = (Node(1, 1, 1), Node(1, 1, 2), Node(2, 1, 1))
    second = (Node(1, 1, 1), Node(2, 1, 1), Node(1, 1, 2))
    assert tableau_stats(ctx11, by_growth[first]) == (2, (0, 1, 1))
    assert tableau_stats(ctx11, by_growth[second]) == (0, (0, 1, 1))


def test_tableau_stats_rejects_bad_growth(ctx11):
    shape = Bipartition((2,))
    bad = Bitableau(shape, (Node(1, 1, 2), Node(1, 1, 1)))
    with pytest.raises(ValueError):
        tableau_stats(ctx11, bad)
    with pytest.raises(ValueError):
        tableau_stats(ctx11, next(enumerate_standard(ctx11, shape)), "sideways")


def test_fock_vector_arithmetic():
    a = Bipartition((1,))
    b = Bipartition((), (1,))
    one = QPoly.one()
    total = fock_sum([(a, one), (b, one), (a, QPoly.monomial(2))])
    assert total == {a: QPoly({0: 1, 2: 1}), b: one}
    assert fock_sum([*total.items(), *((bp, -c) for bp, c in total.items())]) == {}
    assert fock_sum([(a, QPoly.zero()), (b, one)]) == {b: one}
    assert fock_sum([]) == {}


def test_lowering_from_vacuum(ctx11):
    vacuum = {Bipartition(): QPoly.one()}
    assert apply_f(ctx11, vacuum, 0) == {Bipartition((1,)): quantum_int(1)}
    assert apply_f(ctx11, vacuum, 1) != {}
    assert apply_e(ctx11, vacuum, 0) == {}


def test_commutator_on_vacuum_matches_the_pairing(ctx11):
    vacuum = {Bipartition(): QPoly.one()}
    for i, expected in ((0, 1), (1, 1)):
        ef = apply_e(ctx11, apply_f(ctx11, vacuum, i), i)
        fe = apply_f(ctx11, apply_e(ctx11, vacuum, i), i)
        assert ef == fock_sum([*fe.items(), (Bipartition(), quantum_int(expected))])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_commutator_matches_the_pairing_at_level_one(data):
    """[e_i, f_i] acts on a partition as the quantum integer of
    <h_i, Lambda - content>: A9's identity at level one, where A9 checks
    level two only."""
    ell = data.draw(st.integers(min_value=1, max_value=4), label="ell")
    size = data.draw(st.integers(min_value=0, max_value=6), label="size")
    parts = data.draw(st.sampled_from(list(partitions(size))), label="partition")
    ctx = FockContext(AffineRank(ell), 0, level=1)
    i = data.draw(st.integers(min_value=0, max_value=ell), label="i")
    shape = Bipartition(parts)
    vec = {shape: QPoly.one()}
    ef = apply_e(ctx, apply_f(ctx, vec, i), i)
    fe = apply_f(ctx, apply_e(ctx, vec, i), i)
    pairing = pair_coroot(i, ctx.highest_weight(), content(ctx, shape))
    assert ef == fock_sum([*fe.items(), (shape, quantum_int(pairing))])


def test_bitableau_json_round_trip(ctx11):
    shape = Bipartition((2,), (1,))
    tab = next(enumerate_standard(ctx11, shape))
    data = tab.to_json()
    assert Bitableau.from_json(data) == tab
    assert "growth" in data
