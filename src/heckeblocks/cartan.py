"""Root-lattice data for affine type A.

Vertices of the cycle quiver are labelled 0..ell and all index arithmetic
wraps modulo e = ell + 1.  Roots are integer vectors in the basis of simple
roots, and the two families of orbit representatives are roots.  There is
no weight type: a context's highest weight is the sum of the fundamental
weights Lambda_c over its charges c, and ``FockContext.charges`` is the
one form of it.  The Cartan pairing and the simple reflections that read
it live in ``heckeblocks.checks``, beside the oracles that use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def _int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple; a bool, float or other non-int is rejected, not truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {values!r}")
    return values


@dataclass(frozen=True)
class AffineRank:
    """The rank datum: ell >= 1, quantum characteristic e = ell + 1."""

    ell: int

    def __post_init__(self) -> None:
        if type(self.ell) is not int or self.ell < 1:
            raise ValueError(f"ell must be an integer at least 1, got {self.ell!r}")

    @property
    def e(self) -> int:
        return self.ell + 1

    def reduce(self, i: int) -> int:
        """Normalise a vertex index into 0..ell."""
        return i % self.e

    @property
    def vertices(self) -> range:
        return range(self.e)


@dataclass(frozen=True)
class RootVec:
    """An element of the root lattice, coefficients over the simple roots."""

    rank: AffineRank
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.rank.e:
            raise ValueError(
                f"expected {self.rank.e} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", _int_tuple(self.coeffs, "root coefficients"))

    @classmethod
    def simple(cls, rank: AffineRank, i: int) -> "RootVec":
        i = rank.reduce(i)
        return cls(rank, tuple(1 if j == i else 0 for j in range(rank.e)))

    def __add__(self, other: "RootVec") -> "RootVec":
        if self.rank != other.rank:
            raise ValueError("rank mismatch between root vectors")
        return RootVec(self.rank, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, n: int) -> "RootVec":
        return RootVec(self.rank, tuple(n * c for c in self.coeffs))

    __rmul__ = __mul__

    @property
    def height(self) -> int:
        """Total number of boxes |beta| = sum of coefficients."""
        return sum(self.coeffs)

    def in_positive_cone(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def null_root(rank: AffineRank) -> RootVec:
    """delta = alpha_0 + ... + alpha_ell."""
    return RootVec(rank, (1,) * rank.e)


def lambda_rep(s: int, i: int, rank: AffineRank) -> RootVec:
    """Orbit representative of the first family for highest weight
    Lambda_0 + Lambda_s.

    Valid for 0 <= s <= ell and 0 <= i <= (ell - s + 1) // 2; the i = 0
    member is the zero root and i = 1 gives alpha_0 + ... + alpha_s.
    """
    ell = rank.ell
    if not 0 <= s <= ell:
        raise ValueError(f"s must lie in 0..{ell}, got {s}")
    if not 0 <= i <= (ell - s + 1) // 2:
        raise ValueError(f"i out of range 0..{(ell - s + 1) // 2} for ell={ell}, s={s}")
    coeffs = [0] * rank.e
    for k in range(0, s + 1):
        coeffs[rank.reduce(k)] += i
    for k in range(1, i):
        coeffs[rank.reduce(s + k)] += i - k
    for k in range(1, i):
        coeffs[rank.reduce(ell - i + 1 + k)] += k
    return RootVec(rank, tuple(coeffs))


def mu_rep(s: int, i: int, rank: AffineRank) -> RootVec:
    """Orbit representative of the second family for Lambda_0 + Lambda_s.

    Valid for 1 <= s <= ell and 1 <= i <= s // 2.
    """
    ell = rank.ell
    if not 1 <= s <= ell:
        raise ValueError(f"s must lie in 1..{ell}, got {s}")
    if not 1 <= i <= s // 2:
        raise ValueError(f"i out of range 1..{s // 2} for s={s}")
    coeffs = [0] * rank.e
    for k in range(0, i):
        coeffs[rank.reduce(k)] += i - k
    for k in range(1, i):
        coeffs[rank.reduce(s - i + k)] += k
    for k in range(1, ell - s + 2):
        coeffs[rank.reduce(s - 1 + k)] += i
    return RootVec(rank, tuple(coeffs))
