"""Weyl-orbit reduction of blocks to canonical labels.

Every nonzero block corresponds to a weight of the integrable module with
the context's highest weight.  ``_reduce`` moves Lambda - beta to the
dominant chamber in closed form, without reflecting: at level L the affine
Weyl group acts on the finite part as S_e and translations by L times the
finite root lattice, and the W-invariant norm fixes the multiple of delta
(Kac, Infinite dimensional Lie algebras, 6.5-6.6).  The block is then zero
unless the reduction is in the positive cone (Kac, Prop. 12.5), and
otherwise labelled by the distinguished family member (lambda or mu) plus
a multiple of the null root.  ``canonical_rep`` is the only code that
makes this test: a caller that needs to know whether a block is zero asks
it for the label and catches ``NotAWeightError``.

The pairings <h_i, Lambda - beta> list every nonzero block of a given
height without listing partitions: ``_grow_blocks`` grows the blocks of
height m + 1 from those of height m by the weight rule stated in its
docstring, and labels each as it finds it: W fixes the label, so a block
takes that of its reflection's image, and only a dominant one is read by
``label_dominant``.  It keys the blocks of each height by an integer code,
their coefficients as digits in base n + 1: no coefficient of a block of
height at most n exceeds n, so a step or a reflection is one addition with
no carry or borrow, and the codes sort as the coefficient tuples do.  A
tuple is built only for a candidate that is a block.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from .cartan import RootVec, _int_tuple, _Value, lambda_rep, mu_rep, null_root
from .fock import FockContext


class NotAWeightError(ValueError):
    """The root vector does not correspond to a nonzero block."""


LAMBDA = "lambda"
MU = "mu"


class CanonicalRep(_Value):
    """Canonical orbit label: a family member plus k copies of delta."""

    __slots__ = _fields = ("family", "s", "i", "k")
    family: str
    s: int
    i: int
    k: int

    def __init__(self, family: str, s: int, i: int, k: int) -> None:
        if family not in (LAMBDA, MU):
            raise ValueError(f"family must be '{LAMBDA}' or '{MU}', got {family}")
        _int_tuple((s, i, k), "s, i and k")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        put = self._put
        put[0](self, family)
        put[1](self, s)
        put[2](self, i)
        put[3](self, k)

    def to_json(self) -> dict:
        return {"family": self.family, "s": self.s, "i": self.i, "k": self.k}

    def __str__(self) -> str:
        return f"{self.family}(s={self.s}, i={self.i}) + {self.k}*delta"


def _lambda_range(ctx: FockContext) -> range:
    if ctx.level == 1:
        return range(0, 1)
    return range(0, (ctx.rank.ell - ctx.s + 1) // 2 + 1)


def _mu_range(ctx: FockContext) -> range:
    return range(1, ctx.s // 2 + 1)


def dominant_reduce(ctx: FockContext, beta: RootVec) -> RootVec:
    """The root vector beta' with Lambda - beta' dominant in the W-orbit of
    Lambda - beta, computed in closed form by ``_reduce``."""
    return RootVec(ctx.rank, _reduce(ctx, beta))


def _reduce(ctx: FockContext, beta: RootVec) -> tuple[int, ...]:
    """Coefficients of ``dominant_reduce``, with no reflection taken.

    At level L, W acts on the finite part of a weight as S_e permuting its
    epsilon-coordinates and translating them by L times the integer vectors
    of sum zero, and it keeps |weight|^2 = |finite part|^2 + 2L * (multiple
    of delta) (Kac, Infinite dimensional Lie algebras, 6.5-6.6).  Only the
    charges are read: L is their number and, with indices mod e and lam_t
    the number of charges above t, Lambda - beta has the coordinates
    x_t = lam_t + c_t - c_{t+1}, which sum to |lam|, the sum of the charges.
    Its pairing at vertex t + 1 is x_t - x_{t+1}, at vertex 0 L + x_ell - x_0,
    and its multiple of delta is -c_0.  So the orbit keeps the multiset of the
    x_t mod L and sum x_t^2 - 2L c_0, and its dominant point y is the
    decreasing vector with those residues, sum |lam| and y_0 - y_ell <= L:
    the k smallest residues r become L(q + 1) + r and the others Lq + r, for
    (q, k) = divmod((|lam| - sum r) / L, e).  The reduction b then has
    b_0 = c_0 + (sum y_t^2 - sum x_t^2) / 2L and b_{t+1} = b_t + lam_t - y_t.
    """
    if beta.rank != ctx.rank:
        raise ValueError("rank mismatch between context and root vector")
    charges = ctx.charges
    level = len(charges)
    c = beta.coeffs
    e = len(c)
    lam = [0] * e
    for charge in charges:
        for t in range(charge):
            lam[t] += 1
    x = [u + a - b for u, a, b in zip(lam, c, c[1:] + c[:1])]
    rs = sorted([v % level for v in x], reverse=True)
    q, k = divmod((sum(charges) - sum(rs)) // level, e)
    low = level * q
    y = [low + level + r for r in rs[e - k :]] + [low + r for r in rs[: e - k]]
    top = c[0] + (sum([v * v for v in y]) - sum([v * v for v in x])) // (2 * level)
    # tuple() of an iterator grows and then shrinks its allocation; from a
    # list it allocates once.
    return tuple(list(accumulate(map(sub, lam[:-1], y), initial=top)))


def _grow_blocks(ctx: FockContext, n: int) -> list[dict[tuple[int, ...], CanonicalRep]]:
    """The nonzero blocks of heights 0..n with their canonical labels: per
    height, a dict from coefficients to label, sorted by coefficients.

    c is a block exactly when Lambda - c is a weight; the weights have
    unbroken i-strings and, with their labels, are W-invariant (Kac, Infinite
    dimensional Lie algebras, ch. 3 and Prop. 12.5).  A block of height m + 1
    is c' = c + alpha_i for a block c of height m (it has a removable node).
    With q_j = <h_j, Lambda - c'>: if every q_j >= 0, c' is a dominant block,
    labelled by ``label_dominant``; else, for the first j with q_j < 0, r_j
    maps Lambda - c' to Lambda - (c' + q_j alpha_j), of height m + 1 + q_j,
    and c' is a block exactly when that is one, with its label.  As
    q_i = <h_i, Lambda - c> - 2, j = i is tried first.  When q_i >= 0 the
    i-string through Lambda - c reaches Lambda - c', so c' is a block, and
    only then are the other q_j read.

    Each height's dict is keyed by the integer code sum_t c_t (n + 1)^(e-1-t)
    of c, so that c + alpha_i and c' + q alpha_j are one addition each.  The
    coefficients of a block are nonnegative and sum to its height, so none
    of a block of height at most n exceeds n.  So no digit carries; none
    borrows, as c' + q_j alpha_j is looked up only once its digit c'_j + q_j
    is known to be nonnegative (by a test for j = i, and for j != i because
    c' is a block and so is its image); and the codes order as the tuples do.
    The tuple of a candidate is built only once it is known to be a block,
    and it is kept beside the block's label."""
    e = ctx.rank.e
    fund = [0] * e
    for c in ctx.charges:
        fund[c] += 1
    unit = [(n + 1) ** (e - 1 - t) for t in range(e)]
    zero = (0,) * e
    heights = [{0: (zero, label_dominant(ctx, zero))}]
    for m in range(n):
        grown: dict[int, tuple[tuple[int, ...], CanonicalRep]] = {}
        for code, (c, _) in heights[m].items():
            for i in range(e):
                up = code + unit[i]
                if up in grown:
                    continue
                q = fund[i] - 2 * c[i] + c[i - 1] + c[(i + 1) % e] - 2
                if q < 0:
                    if c[i] + 1 + q >= 0:
                        low = heights[m + 1 + q].get(up + q * unit[i])
                        if low is not None:
                            grown[up] = (c[:i] + (c[i] + 1,) + c[i + 1 :], low[1])
                    continue
                # <h_i, Lambda - c> >= 2, so the i-string makes c' a block
                plus = c[:i] + (c[i] + 1,) + c[i + 1 :]
                for j in range(e):
                    q = fund[j] - 2 * plus[j] + plus[j - 1] + plus[(j + 1) % e]
                    if q < 0:
                        grown[up] = (plus, heights[m + 1 + q][up + q * unit[j]][1])
                        break
                else:
                    grown[up] = (plus, label_dominant(ctx, plus))
        heights.append(grown)
    return [dict([level[code] for code in sorted(level)]) for level in heights]


def _check_label(ctx: FockContext, rep: CanonicalRep) -> None:
    """ValueError unless rep is a label of the context: its charge is the
    context's and its index is in its family's range."""
    if rep.s != ctx.s:
        raise ValueError(f"label charge {rep.s} does not match context charge {ctx.s}")
    span = _lambda_range(ctx) if rep.family == LAMBDA else _mu_range(ctx)
    if rep.i not in span:
        raise ValueError(
            f"{rep.family} label index {rep.i} is not in {list(span)} for this context"
        )


def rep_root(ctx: FockContext, rep: CanonicalRep) -> RootVec:
    """The root vector named by a canonical label of the context."""
    _check_label(ctx, rep)
    if rep.family == LAMBDA:
        base = lambda_rep(rep.s, rep.i, ctx.rank)
    else:
        base = mu_rep(rep.s, rep.i, ctx.rank)
    return base + null_root(ctx.rank) * rep.k


def canonical_rep(ctx: FockContext, beta: RootVec) -> CanonicalRep:
    """Canonical orbit label of the block of beta.

    This is the one test of whether a block is zero, so the library and the
    command line ask it rather than testing the reduction themselves:
    NotAWeightError when Lambda - beta is not a module weight (its dominant
    reduction leaves the positive cone; Kac, Prop. 12.5), saying whether
    beta is outside the positive cone or only reduces out of it, and
    ValueError when beta's rank is not the context's."""
    plus = _reduce(ctx, beta)
    if min(plus) < 0:
        if beta.in_positive_cone():
            why = "does not correspond to a module weight"
        else:
            why = "is outside the positive cone"
        raise NotAWeightError(f"{beta} {why}; the block is zero")
    return label_dominant(ctx, plus)


def label_dominant(ctx: FockContext, plus: tuple[int, ...]) -> CanonicalRep:
    """Canonical label of the coefficients of a dominant root vector in the
    positive cone.

    The label is read off plus directly.  Every family member has a zero
    coefficient, so plus - k*delta can be a member only for k = min(plus).
    Every member lambda_rep(s, i) and mu_rep(s, i) has coefficient i at
    vertex 0, so i is the vertex-0 coefficient of plus - k*delta, and only
    the lambda member and the mu member of that index are compared.
    """
    s = ctx.s
    k = min(plus)
    rem = tuple([c - k for c in plus])
    i = rem[0]
    if i in _lambda_range(ctx) and lambda_rep(s, i, ctx.rank).coeffs == rem:
        return CanonicalRep(LAMBDA, s, i, k)
    if i in _mu_range(ctx) and mu_rep(s, i, ctx.rank).coeffs == rem:
        return CanonicalRep(MU, s, i, k)
    raise RuntimeError(
        f"dominant reduction {plus} matches no family member; "
        "this contradicts the orbit classification and indicates a bug"
    )

