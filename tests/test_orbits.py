"""Orbit reduction and canonical representatives, with the orbit BFS and the
two ladder walks that ``heckeblocks.checks`` keeps as oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import (
    AffineRank,
    CanonicalRep,
    FockContext,
    NotAWeightError,
    RootVec,
    canonical_rep,
    dominant_reduce,
    is_weight,
    lambda_rep,
    mu_rep,
    null_root,
    pair_coroot,
    rep_root,
    simple_reflection,
)
from heckeblocks.checks import (
    _reduction_outcome,
    propagation_check_1,
    propagation_check_2,
    textbook_reduce,
    weyl_orbit_bfs,
)
from heckeblocks.orbits import LAMBDA, MU


def test_canonical_rep_validation_and_round_trip():
    rep = CanonicalRep(LAMBDA, 1, 0, 2)
    assert CanonicalRep.from_json(rep.to_json()) == rep
    assert str(rep) == "lambda(s=1, i=0) + 2*delta"
    with pytest.raises(ValueError):
        CanonicalRep("rho", 1, 0, 0)
    with pytest.raises(ValueError):
        CanonicalRep(LAMBDA, 1, 0, -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CanonicalRep(LAMBDA, 0, 0, True),
        lambda: CanonicalRep(LAMBDA, 0, 0, 1.5),
        lambda: CanonicalRep(LAMBDA, 1.0, 0, 0),
        lambda: CanonicalRep.from_json({"family": LAMBDA, "s": 0, "i": "1", "k": 0}),
    ],
)
def test_canonical_rep_rejects_values_that_are_not_ints(make):
    with pytest.raises(ValueError, match="s, i and k must be integers"):
        make()


def test_dominant_reduce_explicit(ctx21):
    beta = RootVec(ctx21.rank, (3, 1, 1))
    reduced = dominant_reduce(ctx21, beta)
    assert reduced.coeffs == (0, 0, 0)
    assert dominant_reduce(ctx21, reduced) == reduced


def test_dominant_reduce_is_idempotent_on_a_grid(ctx21):
    for a in range(3):
        for b in range(3):
            for c in range(3):
                beta = RootVec(ctx21.rank, (a, b, c))
                reduced = dominant_reduce(ctx21, beta)
                assert dominant_reduce(ctx21, reduced) == reduced


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dominant_reduce_matches_textbook_reduction(data):
    ell = data.draw(st.integers(min_value=1, max_value=5), label="ell")
    level = data.draw(st.sampled_from([1, 2]), label="level")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s") if level == 2 else 0
    coeffs = data.draw(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=ell + 1, max_size=ell + 1),
        label="coeffs",
    )
    rank = AffineRank(ell)
    ctx = FockContext(rank, s, level=level)
    beta = RootVec(rank, tuple(coeffs))
    got = dominant_reduce(ctx, beta)
    # A textbook loop that hits its cap returns a message, not a RootVec.
    assert got == _reduction_outcome(textbook_reduce, ctx, beta)
    weight = ctx.highest_weight()
    assert all(pair_coroot(i, weight, got) >= 0 for i in rank.vertices)
    assert dominant_reduce(ctx, got) == got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dominant_reduce_is_constant_on_weyl_orbits(data):
    """Push a small label through a random word of simple reflections, which
    reaches coefficients far beyond the textbook comparison's and shares no
    code with the closed form, and reduce both ends."""
    ell = data.draw(st.integers(min_value=1, max_value=6), label="ell")
    level = data.draw(st.sampled_from([1, 2]), label="level")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s") if level == 2 else 0
    coeffs = data.draw(
        st.lists(st.integers(min_value=-3, max_value=5), min_size=ell + 1, max_size=ell + 1),
        label="coeffs",
    )
    word = data.draw(st.lists(st.integers(min_value=0, max_value=ell), max_size=40), label="word")
    rank = AffineRank(ell)
    ctx = FockContext(rank, s, level=level)
    weight = ctx.highest_weight()
    start = RootVec(rank, tuple(coeffs))
    moved = start
    for i in word:
        moved = simple_reflection(i, weight, moved)
    got = dominant_reduce(ctx, start)
    assert dominant_reduce(ctx, moved) == got
    assert all(pair_coroot(i, weight, got) >= 0 for i in rank.vertices)
    assert dominant_reduce(ctx, got) == got


def test_weight_detection(ctx21):
    assert is_weight(ctx21, RootVec(ctx21.rank, (0, 0, 0)))
    assert is_weight(ctx21, null_root(ctx21.rank))
    assert not is_weight(ctx21, RootVec(ctx21.rank, (5, 0, 0)))
    assert not is_weight(ctx21, RootVec(ctx21.rank, (-1, 0, 0)))


@pytest.mark.parametrize(
    "coeffs, why",
    [
        ((5, 0, 0), "does not correspond to a module weight"),
        ((-1, 1, 0), "is outside the positive cone"),
    ],
)
def test_canonical_rep_says_why_a_block_is_zero(ctx21, coeffs, why):
    beta = RootVec(ctx21.rank, coeffs)
    with pytest.raises(NotAWeightError) as info:
        canonical_rep(ctx21, beta)
    assert str(info.value) == f"{beta} {why}; the block is zero"


def test_a_large_non_weight_is_rejected_in_closed_form(ctx11):
    """(10**7, 0) lies 10**7 reflections from the dominant chamber; a
    reflection loop took seconds on it."""
    beta = RootVec(ctx11.rank, (10**7, 0))
    assert not is_weight(ctx11, beta)
    with pytest.raises(NotAWeightError):
        canonical_rep(ctx11, beta)


def test_rep_root_and_canonical_round_trip():
    for ell, s in ((1, 1), (2, 1), (3, 2), (4, 1), (4, 4)):
        rank = AffineRank(ell)
        ctx = FockContext(rank, s, level=2)
        reps = [
            CanonicalRep(LAMBDA, s, i, k)
            for i in range((ell - s + 1) // 2 + 1)
            for k in range(3)
        ] + [
            CanonicalRep(MU, s, i, k)
            for i in range(1, s // 2 + 1)
            for k in range(3)
        ]
        for rep in reps:
            assert canonical_rep(ctx, rep_root(ctx, rep)) == rep


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_rep_inverts_rep_root(data):
    ell = data.draw(st.integers(min_value=1, max_value=6), label="ell")
    s = data.draw(st.integers(min_value=0, max_value=ell), label="s")
    families = [LAMBDA] + ([MU] if s >= 2 else [])
    family = data.draw(st.sampled_from(families), label="family")
    if family == LAMBDA:
        i = data.draw(st.integers(min_value=0, max_value=(ell - s + 1) // 2), label="i")
    else:
        i = data.draw(st.integers(min_value=1, max_value=s // 2), label="i")
    k = data.draw(st.integers(min_value=0, max_value=4), label="k")
    ctx = FockContext(AffineRank(ell), s, level=2)
    rep = CanonicalRep(family, s, i, k)
    assert canonical_rep(ctx, rep_root(ctx, rep)) == rep


def test_canonical_rep_of_rotund_vector(ctx21):
    beta = RootVec(ctx21.rank, (3, 1, 1))
    assert canonical_rep(ctx21, beta) == CanonicalRep(LAMBDA, 1, 0, 0)


def test_orbit_members_share_the_canonical_rep(ctx21):
    beta = lambda_rep(1, 1, ctx21.rank)
    rep = canonical_rep(ctx21, beta)
    orbit = weyl_orbit_bfs(ctx21, beta, 3)
    assert beta in orbit
    assert len(orbit) > 3
    for member in orbit:
        assert is_weight(ctx21, member)
        assert canonical_rep(ctx21, member) == rep


def test_level_one_context_has_single_family():
    rank = AffineRank(2)
    ctx = FockContext(rank, 0, level=1)
    rep = canonical_rep(ctx, null_root(rank))
    assert rep == CanonicalRep(LAMBDA, 0, 0, 1)
    assert canonical_rep(ctx, RootVec(rank, (1, 0, 0))) == CanonicalRep(LAMBDA, 0, 0, 0)


def test_second_family_reduces_across_the_mirror():
    rank = AffineRank(3)
    ctx = FockContext(rank, 2, level=2)
    beta = mu_rep(2, 1, rank)
    assert canonical_rep(ctx, beta) == CanonicalRep(MU, 2, 1, 0)


@pytest.mark.parametrize("ell,s", [(1, 1), (2, 1), (3, 1), (3, 3), (4, 2)])
def test_ladder_walks_close(ell, s):
    rank = AffineRank(ell)
    ctx = FockContext(rank, s, level=2)
    for k in range(3):
        for i in range(1, (ell - s + 1) // 2 + 1):
            assert propagation_check_1(ctx, i, k)
        for i in range((ell - s - 1) // 2 + 1):
            assert propagation_check_2(ctx, i, k)
