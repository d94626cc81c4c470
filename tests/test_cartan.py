"""Affine root-lattice data: Cartan matrix, pairings, reflections, orbit reps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import (
    AffineRank,
    RootVec,
    WeightVec,
    cartan_entry,
    dynkin_rotate,
    lambda_rep,
    mu_rep,
    null_root,
    pair_coroot,
    simple_reflection,
)


def level_two(rank, s):
    fund = [0] * rank.e
    fund[0] += 1
    fund[s] += 1
    return WeightVec(rank, tuple(fund))


def test_rank_validation():
    with pytest.raises(ValueError):
        AffineRank(0)
    assert AffineRank(3).e == 4
    assert list(AffineRank(2).vertices) == [0, 1, 2]
    assert AffineRank(2).reduce(-1) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: AffineRank(1.5),
        lambda: AffineRank(True),
        lambda: RootVec(AffineRank(1), (1.7, True)),
        lambda: RootVec.from_json(AffineRank(1), ["2", 1]),
        lambda: WeightVec(AffineRank(1), (0.5, 1)),
    ],
)
def test_values_that_are_not_ints_are_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_cartan_matrix_smallest_rank_doubles_the_off_diagonal():
    rank = AffineRank(1)
    assert [[cartan_entry(rank, i, j) for j in range(2)] for i in range(2)] == [
        [2, -2],
        [-2, 2],
    ]


def test_cartan_matrix_cycle():
    rank = AffineRank(2)
    assert [[cartan_entry(rank, i, j) for j in range(3)] for i in range(3)] == [
        [2, -1, -1],
        [-1, 2, -1],
        [-1, -1, 2],
    ]


@pytest.mark.parametrize("ell", [1, 2, 3, 5])
def test_cartan_rows_sum_to_zero(ell):
    rank = AffineRank(ell)
    for i in rank.vertices:
        assert sum(cartan_entry(rank, i, j) for j in rank.vertices) == 0


def test_root_vector_arithmetic():
    rank = AffineRank(2)
    a = RootVec(rank, (1, 0, 2))
    b = RootVec.simple(rank, 1)
    assert (a + b).coeffs == (1, 1, 2)
    assert (a - b).coeffs == (1, -1, 2)
    assert (2 * a).coeffs == (2, 0, 4)
    assert a.height == 3
    assert a.in_positive_cone()
    assert not (a - 2 * b).in_positive_cone()
    assert RootVec.from_json(rank, a.to_json()) == a
    assert str(a) == "(1,0,2)"


def test_fundamental_weight_pairing_is_kronecker():
    rank = AffineRank(3)
    for j in rank.vertices:
        w = WeightVec.fundamental(rank, j)
        assert [pair_coroot(i, w) for i in rank.vertices] == [
            1 if i == j else 0 for i in rank.vertices
        ]
        assert w.level == 1


def test_null_root_is_invisible_to_pairings():
    rank = AffineRank(2)
    w = level_two(rank, 1)
    beta = RootVec(rank, (1, 0, 2))
    for i in rank.vertices:
        assert pair_coroot(i, w, beta + null_root(rank)) == pair_coroot(i, w, beta)


def test_level_counts_both_charges():
    rank = AffineRank(2)
    assert level_two(rank, 1).level == 2
    assert level_two(rank, 0).level == 2


def test_reflection_is_an_involution():
    rank = AffineRank(2)
    w = level_two(rank, 1)
    beta = RootVec(rank, (2, 1, 0))
    for i in rank.vertices:
        assert simple_reflection(i, w, simple_reflection(i, w, beta)) == beta


def test_reflection_flips_the_pairing():
    rank = AffineRank(3)
    w = level_two(rank, 2)
    beta = RootVec(rank, (1, 1, 0, 3))
    for i in rank.vertices:
        refl = simple_reflection(i, w, beta)
        assert pair_coroot(i, w, refl) == -pair_coroot(i, w, beta)


def test_rotation_composes_and_returns():
    rank = AffineRank(3)
    w = level_two(rank, 1)
    beta = RootVec(rank, (3, 1, 4, 1))
    w1, b1 = dynkin_rotate(1, w, beta)
    w2, b2 = dynkin_rotate(3, w1, b1)
    assert (w2, b2) == (w, beta)
    assert dynkin_rotate(rank.e, w, beta) == (w, beta)
    assert b1.coeffs == (1, 3, 1, 4)


def test_first_family_small_members():
    rank = AffineRank(4)
    assert lambda_rep(1, 0, rank).coeffs == (0, 0, 0, 0, 0)
    assert lambda_rep(1, 1, rank).coeffs == (1, 1, 0, 0, 0)
    assert lambda_rep(1, 2, rank).coeffs == (2, 2, 1, 0, 1)
    assert lambda_rep(0, 1, AffineRank(2)).coeffs == (1, 0, 0)
    assert lambda_rep(0, 2, AffineRank(3)).coeffs == (2, 1, 0, 1)


def test_second_family_small_members():
    assert mu_rep(2, 1, AffineRank(2)).coeffs == (1, 0, 1)
    assert mu_rep(2, 1, AffineRank(3)).coeffs == (1, 0, 1, 1)
    assert mu_rep(4, 2, AffineRank(4)).coeffs == (2, 1, 0, 1, 2)


def test_rep_heights_follow_the_closed_form():
    for ell in range(1, 7):
        rank = AffineRank(ell)
        for s in range(ell + 1):
            for i in range((ell - s + 1) // 2 + 1):
                assert lambda_rep(s, i, rank).height == i * (s + i)
        for s in range(1, ell + 1):
            for i in range(1, s // 2 + 1):
                assert mu_rep(s, i, rank).height == i * (i + ell - s + 1)


def test_rep_range_validation():
    rank = AffineRank(2)
    with pytest.raises(ValueError):
        lambda_rep(2, 1, rank)
    with pytest.raises(ValueError):
        mu_rep(1, 1, rank)
    with pytest.raises(ValueError):
        mu_rep(3, 1, rank)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=5),
)
def test_reflection_preserves_rotation(ell, t, raw):
    rank = AffineRank(ell)
    coeffs = tuple((raw + [0] * rank.e)[: rank.e])
    w = level_two(rank, ell)
    beta = RootVec(rank, coeffs)
    for i in rank.vertices:
        w_r, b_r = dynkin_rotate(t, w, simple_reflection(i, w, beta))
        _, b_alt = dynkin_rotate(t, w, beta)
        assert simple_reflection(i + t, w_r, b_alt) == b_r
