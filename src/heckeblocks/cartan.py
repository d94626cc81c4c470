"""Root-lattice data for affine type A.

Vertices of the cycle quiver are labelled 0..ell and all index arithmetic
wraps modulo e = ell + 1.  Roots are integer vectors in the basis of simple
roots, and the two families of orbit representatives are roots.  There is
no weight type: a context's highest weight is the sum of the fundamental
weights Lambda_c over its charges c, and ``FockContext.charges`` is the
one form of it.  The Cartan pairing and the simple reflections that read
it live in ``heckeblocks.checks``, beside the oracles that use them.

Every public value type of the package derives from ``_Value``, defined
here because this module is imported first.  A type lists its ``__slots__``
and ``_fields``, the slots its ``__init__`` takes in order; its instances
are equal when their classes and fields are, hash as the tuple of their
fields, print as ``Type(field=value, ...)``, refuse assignment and deletion
with ``AttributeError``, and copy and pickle through their constructor.
A slot left out of ``_fields`` is derived, so ``__init__`` sets it.

``__init_subclass__`` binds three things once per class: ``_get``, which
reads the fields for equality as a tuple, a one-field type's as the bare
field; ``_key``, which reads them for the hash as a tuple, a one-field
type's too; and ``_put``, the ``__set__`` of each slot's member descriptor
in ``__slots__`` order.  ``__init__`` fills slot k with
``_put[k](self, value)``.  Like ``object.__setattr__`` this
bypasses the refusing ``__setattr__``, but it skips the lookup of the
descriptor by name that ``object.__setattr__`` makes on every call; a
listing of blocks builds one report per block, and filling its five slots
this way takes about half the time.  No type writes its own equality or
hash; the caches hit on every call key on plain data instead.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable


class _Value:
    """Base of the frozen value types; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _get: Callable[[_Value], object]
    _key: Callable[[_Value], tuple]
    _put: tuple[Callable[[_Value, object], None], ...]

    def __init_subclass__(cls) -> None:
        get = cls._get = attrgetter(*cls._fields)
        # one name's attrgetter returns the bare field: hash it as a 1-tuple
        cls._key = staticmethod(lambda v: (get(v),)) if len(cls._fields) == 1 else get
        cls._put = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other is self:  # as a rank compared with its context's, say
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)


def _int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as a tuple; a bool, float or other non-int is rejected, not truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {values!r}")
    return values


def _check_rank(rank: AffineRank) -> None:
    if not isinstance(rank, AffineRank):
        raise ValueError(f"rank must be an AffineRank, got {rank!r}")


class AffineRank(_Value):
    """The rank datum: ell >= 1, quantum characteristic e = ell + 1."""

    __slots__ = _fields = ("ell",)
    ell: int

    def __init__(self, ell: int) -> None:
        if type(ell) is not int or ell < 1:
            raise ValueError(f"ell must be an integer at least 1, got {ell!r}")
        self._put[0](self, ell)

    @property
    def e(self) -> int:
        return self.ell + 1

    def reduce(self, i: int) -> int:
        """Normalise a vertex index into 0..ell."""
        return i % self.e

    @property
    def vertices(self) -> range:
        return range(self.e)


class RootVec(_Value):
    """An element of the root lattice, coefficients over the simple roots."""

    __slots__ = _fields = ("rank", "coeffs")
    rank: AffineRank
    coeffs: tuple[int, ...]

    def __init__(self, rank: AffineRank, coeffs: tuple[int, ...]) -> None:
        _check_rank(rank)
        if len(coeffs) != rank.e:
            raise ValueError(f"expected {rank.e} coefficients, got {len(coeffs)}")
        put = self._put
        put[0](self, rank)
        put[1](self, _int_tuple(coeffs, "root coefficients"))

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
