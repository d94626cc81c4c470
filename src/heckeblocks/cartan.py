"""Cartan data for affine type A.

Vertices of the cycle quiver are labelled 0..ell and all index arithmetic
wraps modulo e = ell + 1.  Roots are integer vectors in the basis of simple
roots; weights are integer combinations of fundamental weights.  A
weight's multiple of the null root delta pairs to zero with every coroot,
so it is not stored.
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


def cartan_entry(rank: AffineRank, i: int, j: int) -> int:
    """Entry a_ij of the affine Cartan matrix.

    The single formula 2*[i==j] - [j==i+1] - [j==i-1] covers ell = 1 as
    well: both neighbour conditions then hit the same vertex, giving -2.
    """
    i, j = rank.reduce(i), rank.reduce(j)
    a = 2 if i == j else 0
    if j == rank.reduce(i + 1):
        a -= 1
    if j == rank.reduce(i - 1):
        a -= 1
    return a


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
        self._check(other)
        return RootVec(self.rank, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RootVec") -> "RootVec":
        self._check(other)
        return RootVec(self.rank, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, n: int) -> "RootVec":
        return RootVec(self.rank, tuple(n * c for c in self.coeffs))

    __rmul__ = __mul__

    def _check(self, other: "RootVec") -> None:
        if self.rank != other.rank:
            raise ValueError("rank mismatch between root vectors")

    @property
    def height(self) -> int:
        """Total number of boxes |beta| = sum of coefficients."""
        return sum(self.coeffs)

    def in_positive_cone(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, rank: AffineRank, data: list[int]) -> "RootVec":
        return cls(rank, tuple(data))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class WeightVec:
    """An integral weight, as a sum of fundamental weights."""

    rank: AffineRank
    fund: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.fund) != self.rank.e:
            raise ValueError(
                f"expected {self.rank.e} fundamental coefficients, got {len(self.fund)}"
            )
        object.__setattr__(self, "fund", _int_tuple(self.fund, "weight coefficients"))

    @classmethod
    def fundamental(cls, rank: AffineRank, j: int) -> "WeightVec":
        j = rank.reduce(j)
        return cls(rank, tuple(1 if t == j else 0 for t in range(rank.e)))

    @property
    def level(self) -> int:
        return sum(self.fund)


def pair_coroot(i: int, weight: WeightVec, beta: RootVec | None = None) -> int:
    """<h_i, weight> or, with beta given, <h_i, weight - beta>.

    <h_i, Lambda_j> is the Kronecker delta_ij.
    """
    rank = weight.rank
    i = rank.reduce(i)
    val = weight.fund[i]
    if beta is not None:
        if beta.rank != rank:
            raise ValueError("rank mismatch between weight and root")
        val -= sum(cartan_entry(rank, i, j) * beta.coeffs[j] for j in range(rank.e))
    return val


def null_root(rank: AffineRank) -> RootVec:
    """delta = alpha_0 + ... + alpha_ell."""
    return RootVec(rank, (1,) * rank.e)


def simple_reflection(i: int, weight: WeightVec, beta: RootVec) -> RootVec:
    """Reflect weight - beta in r_i, returned as the new beta.

    r_i(weight - beta) = weight - beta', where
    beta' = beta + <h_i, weight - beta> alpha_i.
    """
    rank = weight.rank
    if beta.rank != rank:
        raise ValueError("rank mismatch between weight and root")
    i = rank.reduce(i)
    p = pair_coroot(i, weight, beta)
    new = list(beta.coeffs)
    new[i] += p
    return RootVec(rank, tuple(new))


def dynkin_rotate(t: int, weight: WeightVec, beta: RootVec) -> tuple[WeightVec, RootVec]:
    """Apply the cycle rotation sigma^t: index j goes to j + t."""
    rank = weight.rank
    if beta.rank != rank:
        raise ValueError("rank mismatch between weight and root")
    e = rank.e
    t = t % e
    fund = [0] * e
    coeffs = [0] * e
    for j in range(e):
        fund[(j + t) % e] = weight.fund[j]
        coeffs[(j + t) % e] = beta.coeffs[j]
    return WeightVec(rank, tuple(fund)), RootVec(rank, tuple(coeffs))


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
