"""Affine root-lattice data and orbit reps, with the Cartan matrix, pairings
and reflections that ``heckeblocks.checks`` keeps for the oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import AffineRank, RootVec, lambda_rep, mu_rep, null_root
from heckeblocks.checks import cartan_entry, pair_coroot, simple_reflection


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
    assert (a + (-1) * b).coeffs == (1, -1, 2)
    assert (2 * a).coeffs == (2, 0, 4)
    assert a.height == 3
    assert a.in_positive_cone()
    assert not (a + (-2) * b).in_positive_cone()
    assert a.to_json() == [1, 0, 2]
    assert str(a) == "(1,0,2)"


def test_fundamental_weight_pairing_is_kronecker():
    rank = AffineRank(3)
    zero = 0 * null_root(rank)
    for j in rank.vertices:
        assert [pair_coroot((j,), i, zero) for i in rank.vertices] == [
            1 if i == j else 0 for i in rank.vertices
        ]


def test_null_root_is_invisible_to_pairings():
    rank = AffineRank(2)
    beta = RootVec(rank, (1, 0, 2))
    for i in rank.vertices:
        assert pair_coroot((0, 1), i, beta + null_root(rank)) == pair_coroot((0, 1), i, beta)


def test_reflection_is_an_involution():
    rank = AffineRank(2)
    beta = RootVec(rank, (2, 1, 0))
    for i in rank.vertices:
        assert simple_reflection((0, 1), i, simple_reflection((0, 1), i, beta)) == beta


def test_reflection_flips_the_pairing():
    rank = AffineRank(3)
    beta = RootVec(rank, (1, 1, 0, 3))
    for i in rank.vertices:
        refl = simple_reflection((0, 2), i, beta)
        assert pair_coroot((0, 2), i, refl) == -pair_coroot((0, 2), i, beta)


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
    """Rotating the cycle by t (vertex j to j + t, charges with it) carries
    r_i to r_(i+t)."""
    rank = AffineRank(ell)
    coeffs = tuple((raw + [0] * rank.e)[: rank.e])
    beta = RootVec(rank, coeffs)
    cut = t % rank.e

    def rotate(b):
        return RootVec(rank, b.coeffs[-cut:] + b.coeffs[:-cut])

    for i in rank.vertices:
        rotated = rotate(simple_reflection((0, ell), i, beta))
        assert simple_reflection((t, ell + t), i + t, rotate(beta)) == rotated
