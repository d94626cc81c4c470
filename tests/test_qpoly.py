"""Laurent polynomial arithmetic and formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeblocks import QPoly, quantum_int


def poly_strategy():
    return st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-9, max_value=9),
        max_size=5,
    ).map(QPoly)


def test_zero_coefficients_are_dropped():
    assert QPoly({2: 0, 0: 1}) == QPoly.one()
    assert not QPoly({3: 0})
    assert QPoly.zero().items() == []


def test_items_sorted_by_exponent():
    p = QPoly({4: 1, -2: 3, 0: 2})
    assert p.items() == [(-2, 3), (0, 2), (4, 1)]
    assert p.min_deg == -2
    assert p.max_deg == 4
    assert p.coeff(0) == 2
    assert p.coeff(17) == 0


def test_arithmetic_identities():
    p = QPoly({0: 1, 2: 2, 4: 1})
    assert p + QPoly.zero() == p
    assert p * QPoly.one() == p
    assert p - p == QPoly.zero()
    assert p * 0 == QPoly.zero()
    assert 1 + p == p + 1
    assert (p - 1) + 1 == p


def test_product_and_power():
    one_plus_q2 = QPoly({0: 1, 2: 1})
    assert one_plus_q2 * one_plus_q2 == QPoly({0: 1, 2: 2, 4: 1})
    assert one_plus_q2 * one_plus_q2 * one_plus_q2 == QPoly({0: 1, 2: 3, 4: 3, 6: 1})


def test_evaluate_plain_polynomial():
    p = QPoly({0: 1, 2: 3, 4: 4, 6: 3, 8: 1})
    assert p.evaluate() == 12
    assert isinstance(p.evaluate(), int)


def test_evaluate_laurent_is_exact():
    p = QPoly({-2: 1, 0: 2, 2: 1})
    assert p.evaluate() == 4
    assert isinstance(p.evaluate(), int)


def test_quantum_integers():
    assert quantum_int(0) == QPoly.zero()
    assert quantum_int(1) == QPoly.one()
    assert quantum_int(2) == QPoly({1: 1, -1: 1})
    assert quantum_int(3) == QPoly({2: 1, 0: 1, -2: 1})
    assert quantum_int(-2) == QPoly({1: -1, -1: -1})


def test_quantum_integer_evaluates_to_integer():
    for m in range(-4, 5):
        assert quantum_int(m).evaluate() == m


def test_bar_involution():
    p = QPoly({-1: 2, 3: 5})
    assert p.bar() == QPoly({1: 2, -3: 5})
    assert p.bar().bar() == p
    assert quantum_int(3).bar() == quantum_int(3)


def test_shift_moves_every_exponent():
    p = QPoly({0: 1, 2: 1})
    assert p.shift(3) == QPoly({3: 1, 5: 1})
    assert p.shift(-2) == QPoly({-2: 1, 0: 1})
    assert p.shift(0) == p


def test_palindromic_detection():
    assert QPoly({0: 1, 2: 3, 4: 1}).is_palindromic()
    assert QPoly({-2: 1, 0: 2, 2: 1}).is_palindromic()
    assert not QPoly({0: 1, 2: 2}).is_palindromic()
    assert QPoly.zero().is_palindromic()


def test_nonnegative_detection():
    assert QPoly({0: 1, 2: 2}).is_nonnegative()
    assert not QPoly({0: 1, 2: -1}).is_nonnegative()


def test_string_formatting():
    assert str(QPoly.zero()) == "0"
    assert str(QPoly.one()) == "1"
    assert str(QPoly({1: 1})) == "q"
    assert str(QPoly({2: 1})) == "q^2"
    assert str(QPoly({0: 1, 2: 2, 4: 1})) == "1+2q^2+q^4"
    assert str(QPoly({-2: 1, 0: 2, 2: 1})) == "q^-2+2+q^2"
    assert str(QPoly({0: 1, 1: -1})) == "1-q"


def test_constants_hash_like_the_ints_they_equal():
    assert QPoly.one() == 1
    assert QPoly.one() == True and QPoly.zero() == False  # noqa: E712
    assert len({QPoly.one(), 1}) == 1
    assert hash(QPoly.zero()) == hash(0)
    assert hash(QPoly({0: -3})) == hash(-3)
    assert {7: "seven"}[QPoly({0: 7})] == "seven"


def test_json_round_trip():
    p = QPoly({-3: 2, 0: 1, 5: -4})
    assert QPoly.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "build",
    [
        lambda: QPoly({0.5: 1.7}),
        lambda: QPoly({0: True}),
        lambda: QPoly.from_json({"min_deg": "0", "coeffs": [1]}),
        lambda: QPoly.from_json({"min_deg": 0, "coeffs": [1.5]}),
    ],
)
def test_terms_that_are_not_ints_are_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="integer"):
        build()


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_bar_is_a_ring_map(a, b):
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_evaluation_is_multiplicative(a):
    b = QPoly({0: 1, 1: 1})
    assert (a * b).evaluate() == a.evaluate() * b.evaluate()
