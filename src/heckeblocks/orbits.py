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
height without listing partitions: ``_grow_blocks`` seeds the dominant ones,
the family members plus k delta, with their labels and pushes each block up
by the reflections that raise its height, keeping a push only at the pushed
block's first negative pairing, so that every block is reached once and
takes its parent's label (W fixes it); it decodes coefficient tuples only
for the heights a caller reads.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from struct import Struct

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


def _grow_blocks(
    ctx: FockContext, n: int, low: int = 0
) -> list[dict[tuple[int, ...], CanonicalRep]]:
    """The nonzero blocks of heights low..n with their canonical labels: per
    height, a dict from coefficients to label, sorted by coefficients.

    c is a block exactly when Lambda - c is a weight; the weights and their
    labels are W-invariant, and the dominant ones are Lambda minus a family
    member plus k delta (Kac, Infinite dimensional Lie algebras, Prop. 12.5),
    seeded with their labels.  With p_j = <h_j, Lambda - c> > 0, r_j maps c
    to c + p_j alpha_j, of height p_j more, with pairings -p_j at j and
    p_(j-/+1) + p_j beside it.  A block is kept only from the reflection at
    its first negative vertex, so from one parent: when the parent has no
    negative pairing before j - 1 and p_(j-1) + p_j >= 0, or at the wrap
    vertex j = e - 1, whose push moves vertex 0 too, when the pushed pairings
    have none before j.  A block is (code, label, pairings, first negative
    vertex), its code c_0 ... c_(e-1) in big-endian fields of 1, 2, 4 or 8
    bytes: no coefficient exceeds n, so a push is one addition, the codes
    sort as the tuples do and a block decodes with one struct unpack.  Each
    height is pushed once, decoded only from low on, and dropped."""
    e = ctx.rank.e
    fund = [ctx.charges.count(t) for t in range(e)]
    width, field = next((w, f) for w, f in zip((1, 2, 4, 8), "BHIQ") if n < 1 << 8 * w)
    unit = [1 << 8 * width * (e - 1 - t) for t in range(e)]
    unpack, size = Struct(f">{e}{field}").unpack, width * e
    members = [(LAMBDA, i, lambda_rep(ctx.s, i, ctx.rank).coeffs) for i in _lambda_range(ctx)]
    members += [(MU, i, mu_rep(ctx.s, i, ctx.rank).coeffs) for i in _mu_range(ctx)]
    todo: list = [[] for _ in range(n + 1)]
    for family, i, c in members:
        p = [f - 2 * x + y + z for f, x, y, z in zip(fund, c, c[-1:] + c[:-1], c[1:] + c[:1])]
        code = sum([x * u for x, u in zip(c, unit)])
        for k, height in enumerate(range(sum(c), n + 1, e)):
            todo[height].append((code + k * sum(unit), CanonicalRep(family, ctx.s, i, k), p, e))
    last = e - 1
    # the pushes a block with first negative vertex f can keep: j <= f + 1 but not f, or the wrap
    reach = [[j for j in range(min(f + 2, e)) if j != f] for f in range(e + 1)]
    reach[0] = sorted({1, last})
    heights = []
    for height in range(n + 1):
        blocks, todo[height] = todo[height], None
        room = n - height
        for code, label, p, first in blocks:
            for j in reach[first]:
                pj = p[j]
                if pj <= 0 or pj > room or first < j < last and p[first] + pj < 0:
                    continue
                q = p.copy()
                q[j] = -pj
                q[j - 1] += pj
                q[j + 1 - e] += pj
                if first < j == last and min(q[:j]) < 0:
                    continue
                todo[height + pj].append((code + pj * unit[j], label, q, j))
        if height >= low:
            level = {unpack(b[0].to_bytes(size, "big")): b[1] for b in sorted(blocks)}
            if len(level) < len(blocks):
                raise RuntimeError(f"a block of height {height} was reached twice")
            heights.append(level)
    return heights


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

