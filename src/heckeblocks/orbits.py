"""Weyl-orbit reduction of blocks to canonical labels.

Every nonzero block corresponds to a weight of the integrable module with
the context's highest weight.  Each reflection at a vertex with negative
pairing lowers by one the number of positive real coroots that pair
negatively with Lambda - beta, so repeated reflection reaches the dominant
chamber (Kac, Infinite dimensional Lie algebras, Lemma 3.11); the block is
then labelled by the distinguished family member (lambda or mu) plus a
multiple of the null root.

The same pairings list every nonzero block of a given height without
listing partitions: ``_grow_blocks`` grows the blocks of height m + 1 from
those of height m by the weight rule stated in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import RootVec, _int_tuple, lambda_rep, mu_rep, null_root
from .fock import FockContext


class NotAWeightError(ValueError):
    """The root vector does not correspond to a nonzero block."""


class ReductionCapError(RuntimeError):
    """Dominant reduction exceeded its iteration budget."""


LAMBDA = "lambda"
MU = "mu"


@dataclass(frozen=True)
class CanonicalRep:
    """Canonical orbit label: a family member plus k copies of delta."""

    family: str
    s: int
    i: int
    k: int

    def __post_init__(self) -> None:
        if self.family not in (LAMBDA, MU):
            raise ValueError(f"family must be '{LAMBDA}' or '{MU}', got {self.family}")
        _int_tuple((self.s, self.i, self.k), "s, i and k")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")

    def to_json(self) -> dict:
        return {"family": self.family, "s": self.s, "i": self.i, "k": self.k}

    @classmethod
    def from_json(cls, data: dict) -> "CanonicalRep":
        return cls(data["family"], data["s"], data["i"], data["k"])

    def __str__(self) -> str:
        return f"{self.family}(s={self.s}, i={self.i}) + {self.k}*delta"


def _lambda_range(ctx: FockContext) -> range:
    if ctx.level == 1:
        return range(0, 1)
    return range(0, (ctx.rank.ell - ctx.s + 1) // 2 + 1)


def _mu_range(ctx: FockContext) -> range:
    if ctx.level == 1:
        return range(1, 1)
    return range(1, ctx.s // 2 + 1)


def dominant_reduce(ctx: FockContext, beta: RootVec) -> RootVec:
    """Reflect at the smallest vertex with negative pairing until dominant.

    beta = sum c_j alpha_j is held as a list of ints together with the
    pairings p_j = <h_j, Lambda - beta> = fund_j - 2c_j + c_{j+1} + c_{j-1}
    (indices mod e).  The reflection r_i adds p_i alpha_i to beta, which
    changes p_j by -a_ji p_i: p_i becomes -p_i and each neighbour gains
    p_i, so a reflection costs O(1) and no pairing is recomputed (Kac,
    Infinite dimensional Lie algebras, 3.12).  At e = 2 both neighbour
    updates land on the one other vertex, which is the Cartan entry -2.
    """
    return _reduce(ctx, beta, cone=False)


def _reduce(ctx: FockContext, beta: RootVec, cone: bool) -> RootVec | None:
    """``dominant_reduce``, or with ``cone`` None at the first negative
    coefficient.  A reflection is taken only at a negative pairing, so it
    lowers the one coefficient it touches: once a coefficient is negative the
    reduction never returns to the positive cone, and in cone mode it stops
    within height(beta) reflections.

    Each reflection lowers by one the number N of positive real coroots that
    pair negatively with Lambda - beta, so the reduction takes exactly N
    steps (Kac, Infinite dimensional Lie algebras, Lemma 3.11).  In affine
    type A at positive level, N <= sum over 1 <= i <= j <= ell of
    |p_i + ... + p_j| <= e^2 * sum_j |p_j| for the initial pairings p_j;
    that is the cap, and ReductionCapError past it means a bug."""
    if beta.rank != ctx.rank:
        raise ValueError("rank mismatch between context and root vector")
    e = ctx.rank.e
    fund = ctx.highest_weight().fund
    c = list(beta.coeffs)
    if cone and min(c) < 0:
        return None
    p = [fund[j] - 2 * c[j] + c[(j + 1) % e] + c[j - 1] for j in range(e)]
    cap = e * e * max(1, sum(map(abs, p)))
    for _ in range(cap):
        for i in range(e):
            if p[i] < 0:
                break
        else:
            return RootVec(ctx.rank, tuple(c))
        pi = p[i]
        c[i] += pi
        if cone and c[i] < 0:
            return None
        p[i] = -pi
        p[i - 1] += pi
        p[(i + 1) % e] += pi
    raise ReductionCapError(
        f"dominant reduction did not terminate within {cap} reflections for {beta}"
    )


def _grow_blocks(ctx: FockContext, n: int) -> list[list[RootVec]]:
    """The nonzero blocks of heights 0..n, each height sorted by coefficients.

    c is a block exactly when Lambda - c is a weight, and the weights have
    unbroken i-strings and are W-invariant (Kac, Infinite dimensional Lie
    algebras, ch. 3 and ch. 12).  Let c have height m and p = <h_i, Lambda - c>
    as in ``_reduce``.  If p >= 1, c + alpha_i is a block.  If p <= 0, r_i
    maps Lambda - c - alpha_i to Lambda - (c - (1 - p) alpha_i), a label of
    height m - 1 + p that is already listed.  A block of height m + 1 has a
    removable node, so it is c + alpha_i for some block c of height m."""
    e = ctx.rank.e
    fund = ctx.highest_weight().fund
    heights = [{(0,) * e}]
    for m in range(n):
        grown = set()
        for c in heights[m]:
            for i in range(e):
                p = fund[i] - 2 * c[i] + c[i - 1] + c[(i + 1) % e]
                if p <= 0:
                    low = c[:i] + (c[i] - 1 + p,) + c[i + 1 :]
                    if low[i] < 0 or low not in heights[m - 1 + p]:
                        continue
                grown.add(c[:i] + (c[i] + 1,) + c[i + 1 :])
        heights.append(grown)
    return [[RootVec(ctx.rank, c) for c in sorted(level)] for level in heights]


def is_weight(ctx: FockContext, beta: RootVec) -> bool:
    """Whether the context's highest weight minus beta is a module weight."""
    return _reduce(ctx, beta, cone=True) is not None


def rep_root(ctx: FockContext, rep: CanonicalRep) -> RootVec:
    """The root vector named by a canonical label."""
    if rep.family == LAMBDA:
        base = lambda_rep(rep.s, rep.i, ctx.rank)
    else:
        base = mu_rep(rep.s, rep.i, ctx.rank)
    return base + null_root(ctx.rank) * rep.k


def canonical_rep(ctx: FockContext, beta: RootVec) -> CanonicalRep:
    """Canonical orbit label of the block of beta.

    This is the one test of whether a block is zero: NotAWeightError when
    Lambda - beta is not a module weight, saying whether beta is outside
    the positive cone or only reduces out of it, and ValueError when beta's
    rank is not the context's."""
    plus = _reduce(ctx, beta, cone=True)
    if plus is None:
        if beta.in_positive_cone():
            why = "does not correspond to a module weight"
        else:
            why = "is outside the positive cone"
        raise NotAWeightError(f"{beta} {why}; the block is zero")
    return label_dominant(ctx, plus)


def label_dominant(ctx: FockContext, plus: RootVec) -> CanonicalRep:
    """Canonical label of a dominant root vector in the positive cone.

    The label is read off plus directly.  Every family member has a zero
    coefficient, so plus - k*delta can be a member only for k = min(plus).
    Every member lambda_rep(s, i) and mu_rep(s, i) has coefficient i at
    vertex 0, so i is the vertex-0 coefficient of plus - k*delta, and only
    the lambda member and the mu member of that index are compared.
    """
    s = ctx.s
    k = min(plus.coeffs)
    rem = tuple(c - k for c in plus.coeffs)
    i = rem[0]
    if i in _lambda_range(ctx) and lambda_rep(s, i, ctx.rank).coeffs == rem:
        return CanonicalRep(LAMBDA, s, i, k)
    if i in _mu_range(ctx) and mu_rep(s, i, ctx.rank).coeffs == rem:
        return CanonicalRep(MU, s, i, k)
    raise RuntimeError(
        f"dominant reduction {plus} matches no family member; "
        "this contradicts the orbit classification and indicates a bug"
    )

