"""Exact Laurent polynomials in the grading variable q.

Graded dimensions live in Z[q, q^-1], so coefficients are plain Python
integers and exponents may be negative.  Polynomials are immutable and
hashable; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class QPoly:
    """An integer Laurent polynomial in q, stored as exponent -> coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, val in items:
            if type(exp) is not int or type(val) is not int:
                raise ValueError(f"terms must be integers, got {exp!r}: {val!r}")
            if val:
                new = acc.get(exp, 0) + val
                if new:
                    acc[exp] = new
                else:
                    del acc[exp]
        self._coeffs = acc

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "QPoly":
        return cls({exp: coeff})

    def items(self) -> list[tuple[int, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self._coeffs.items())

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def min_deg(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

    @property
    def max_deg(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):  # bools too, as 1 == True
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._coeffs.keys() <= {0}:  # a constant equals its int, so hashes like it
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, val in other._coeffs.items():
            new = out.get(exp, 0) + val
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
        return _from_coeffs(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _from_coeffs({e: -v for e, v in self._coeffs.items()})

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly({0: other})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "QPoly | int") -> "QPoly":
        return (-self) + other

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return _from_coeffs({e: v * other for e, v in self._coeffs.items()} if other else {})
        if not isinstance(other, QPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, v1 in self._coeffs.items():
            for e2, v2 in other._coeffs.items():
                e = e1 + e2
                new = out.get(e, 0) + v1 * v2
                if new:
                    out[e] = new
                else:
                    del out[e]
        return _from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for QPoly")
        out = QPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, x: int = 1) -> int | Fraction:
        """Evaluate at an integer point; x=1 gives the ungraded dimension."""
        if all(e >= 0 for e in self._coeffs):
            return sum(v * x**e for e, v in self._coeffs.items())
        if x == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        total = sum(Fraction(v) * Fraction(x) ** e for e, v in self._coeffs.items())
        return int(total) if total.denominator == 1 else total

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self._coeffs.values())

    def is_palindromic(self) -> bool:
        """True when the coefficient list reads the same from both ends."""
        if not self._coeffs:
            return True
        lo, hi = self.min_deg, self.max_deg
        return all(self.coeff(e) == self.coeff(lo + hi - e) for e in self._coeffs)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        return _from_coeffs({e + k: v for e, v in self._coeffs.items()})

    def bar(self) -> "QPoly":
        """Substitute q -> q^-1."""
        return _from_coeffs({-e: v for e, v in self._coeffs.items()})

    def to_json(self) -> dict:
        """Dense form {"min_deg": d, "coeffs": [...]} starting at q^d."""
        if not self._coeffs:
            return {"min_deg": 0, "coeffs": []}
        lo, hi = self.min_deg, self.max_deg
        return {"min_deg": lo, "coeffs": [self.coeff(e) for e in range(lo, hi + 1)]}

    @classmethod
    def from_json(cls, data: dict) -> "QPoly":
        lo = data["min_deg"]
        if type(lo) is not int:
            raise ValueError(f"min_deg must be an integer, got {lo!r}")
        return cls({lo + k: c for k, c in enumerate(data["coeffs"])})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for exp, val in self.items():
            if exp == 0:
                term = str(abs(val))
            else:
                qpow = "q" if exp == 1 else f"q^{exp}"
                term = qpow if abs(val) == 1 else f"{abs(val)}{qpow}"
            if not parts:
                parts.append(term if val > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if val > 0 else f"-{term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


def _from_coeffs(coeffs: dict[int, int]) -> QPoly:
    """A QPoly over a dict of nonzero integer coefficients, taken as it is,
    without the public constructor's checks and normalising."""
    poly = QPoly.__new__(QPoly)
    poly._coeffs = coeffs
    return poly


def quantum_int(m: int) -> QPoly:
    """The balanced quantum integer [m] = (q^m - q^-m) / (q - q^-1)."""
    if m < 0:
        return -quantum_int(-m)
    return QPoly({m - 1 - 2 * j: 1 for j in range(m)})
