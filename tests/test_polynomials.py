from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc_hermite.linearization import linearization_coefficient_hypergeometric
from assoc_hermite.polynomials import (
    C,
    Poly,
    X,
    _add_scaled,
    _gf,
    binomial_poly,
    rising_factorial,
    rising_factorial_value,
)

coefficients = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
).filter(lambda q: q != 0)

polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    coefficients,
    max_size=6,
).map(Poly)

points = st.tuples(
    st.integers(-4, 4).map(Fraction), st.integers(-4, 4).map(Fraction)
)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()


@given(polys, polys, points)
def test_evaluate_is_a_homomorphism(p, q, point):
    x, c = point
    assert (p + q).evaluate(x, c) == p.evaluate(x, c) + q.evaluate(x, c)
    assert (p * q).evaluate(x, c) == p.evaluate(x, c) * q.evaluate(x, c)


@given(polys, polys)
def test_shift_c_is_a_homomorphism(p, q):
    assert (p + q).shift_c() == p.shift_c() + q.shift_c()
    assert (p * q).shift_c() == p.shift_c() * q.shift_c()


@given(polys, points)
def test_shift_c_evaluates_at_c_plus_one(p, point):
    x, c = point
    assert p.shift_c().evaluate(x, c) == p.evaluate(x, c + 1)


@given(polys)
def test_json_round_trip(p):
    assert Poly.from_json_obj(p.to_json_obj()) == p


@settings(max_examples=30)
@given(polys, st.integers(0, 4))
def test_pow_matches_repeated_multiplication(p, k):
    expected = Poly.one()
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


def test_scalar_interplay():
    p = 2 * X + 1 - C
    assert p == X + X + Poly.one() - C
    assert p * Fraction(1, 2) == X + Fraction(1, 2) - C * Fraction(1, 2)
    assert (X * C).evaluate(Fraction(3), Fraction(5)) == 15


def test_zero_terms_are_dropped():
    assert (X - X).terms == {}
    assert Poly({(1, 0): Fraction(0)}) == Poly.zero()
    # Cancellation through each accumulator that builds via Poly._raw.
    assert ((X + C) * (X - C)).terms == {(2, 0): 1, (0, 2): -1}
    assert (C - 1).shift_c().terms == {(0, 1): 1}
    assert _gf([X, -X, C, -C], lambda p: p).terms == {}


@pytest.mark.parametrize(
    "poly, text",
    [
        (Poly.zero(), "0"),
        (Poly.constant(Fraction(-3, 2)), "-3/2"),
        (-X, "-x"),
        (Poly.monomial(2, 1, Fraction(1, 2)), "(1/2)x^2c"),
        (X - 1, "x - 1"),
        (X**2 - Fraction(1, 2) * X, "x^2 + (-1/2)x"),
        (-C + 2, "-c + 2"),
    ],
)
def test_str_is_pinned(poly, text):
    # `conjecture --csv` and failure records print this form.
    assert str(poly) == text


def test_only_zero_is_false():
    assert bool(Poly.zero()) is False
    assert bool(Poly.constant(Fraction(-3, 2))) is True


def test_poly_is_not_hashable():
    with pytest.raises(TypeError):
        hash(X)


def test_sorted_terms_order():
    p = X**2 + X * C + C**3 + 1
    degrees = [(xd, cd) for (xd, cd), _ in p.sorted_terms()]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("n", range(7))
def test_rising_factorial_at_one_counts_permutations(n):
    assert rising_factorial(C, n).evaluate(c_value=1) == factorial(n)


def test_rising_factorial_small_cases():
    assert rising_factorial(C, 0) == Poly.one()
    assert rising_factorial(C, 2) == C * (C + 1)
    assert rising_factorial(C + 1, 2) == (C + 1) * (C + 2)


@pytest.mark.parametrize("top,k", [(7, 3), (5, 0), (4, 5)])
def test_binomial_poly_matches_comb_on_integers(top, k):
    assert binomial_poly(Poly.constant(top), k) == Poly.constant(comb(top, k))


def test_binomial_poly_symbolic():
    assert binomial_poly(C, 2) == C * (C - 1) * Fraction(1, 2)


def test_rising_factorial_value():
    assert rising_factorial_value(Fraction(3), 4) == 3 * 4 * 5 * 6
    assert rising_factorial_value(Fraction(1, 2), 2) == Fraction(3, 4)


def test_exact_rationals_are_accepted():
    # An int or bool is converted to a Fraction; a Fraction is kept as it is.
    half = Fraction(1, 2)
    assert Poly({(0, 0): half}).terms[(0, 0)] is half
    assert Poly({(0, 0): True}) == Poly.one()
    assert Poly.monomial(1, 2, Fraction(3, 4)).terms == {(1, 2): Fraction(3, 4)}


def test_any_exact_rational_is_a_scalar_of_the_ring():
    # sympy's Integer and Rational register as numbers.Rational, so the
    # ring operations take them as the constructor does.
    three, half = sympy.Integer(3), sympy.Rational(1, 2)
    assert Poly({(0, 0): three}) == Poly.constant(3)
    assert Poly.constant(three) == three
    assert C * three == three * C == Poly.monomial(0, 1, 3)
    assert C + half == half + C == C + Fraction(1, 2)
    assert C - half == -(half - C) == C - Fraction(1, 2)
    assert_canonical(C * three)
    assert_canonical(C + half)


@pytest.mark.parametrize(
    "value",
    [0.5, Decimal("0.5"), 1 + 0j, sympy.Float(0.5)],
    ids=["float", "Decimal", "complex", "sympy-Float"],
)
def test_ring_operations_refuse_inexact_scalars(value):
    for operation in (
        lambda: C * value,
        lambda: value * C,
        lambda: C + value,
        lambda: value + C,
        lambda: C - value,
        lambda: value - C,
    ):
        with pytest.raises(TypeError):
            operation()
    assert (C == value) is False


@pytest.mark.parametrize("value", [0.1, 0.5, Decimal("0.5"), 1 + 0j, 1.5, 2.9])
def test_inexact_scalars_are_refused(value):
    with pytest.raises(TypeError, match="not an exact rational"):
        Poly({(0, 0): value})
    with pytest.raises(TypeError, match="not an exact rational"):
        Poly.constant(value)
    with pytest.raises(TypeError, match="not an exact rational"):
        Poly.monomial(1, 0, value)
    with pytest.raises(TypeError, match="not an exact rational"):
        X.evaluate(value, 1)
    with pytest.raises(TypeError, match="not an exact rational"):
        C.evaluate(1, value)
    with pytest.raises(TypeError, match="not an exact rational"):
        rising_factorial_value(value, 2)
    with pytest.raises(TypeError, match="not an exact rational"):
        linearization_coefficient_hypergeometric(2, 2, 1, value)
    # Exponents and JSON fields are refused too, where int() would truncate.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Poly({(value, 0): 1})
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Poly.monomial(2, value, 3)
    for field in ("xd", "cd", "num", "den"):
        record = {"xd": 0, "cd": 0, "num": 1, "den": 1, field: value}
        with pytest.raises(ValueError, match=f"term field '{field}' must be an int or"):
            Poly.from_json_obj([record])


@pytest.mark.parametrize("text", ["1.5", "1e3", "+3", " 3", "1_000", "0x10", "\u0663", "-", ""])
def test_json_fields_must_be_decimal_integers(text):
    for field in ("xd", "cd", "num", "den"):
        record = {"xd": "0", "cd": "0", "num": "1", "den": "1", field: text}
        with pytest.raises(ValueError, match=f"term field '{field}' must be an int or"):
            Poly.from_json_obj([record])


@pytest.mark.parametrize("den", [0, "0", "-0"], ids=["int", "text", "negative-text"])
def test_json_zero_denominator_is_a_value_error(den):
    with pytest.raises(ValueError, match=r"zero denominator in term \(1, 2\)"):
        Poly.from_json_obj([{"xd": 1, "cd": 2, "num": "3", "den": den}])


def test_negative_exponents_are_still_a_value_error():
    with pytest.raises(ValueError, match=r"negative exponent in term \(-1, 0\)"):
        Poly({(-1, 0): 1})


x_sym, c_sym = sympy.symbols("x c")


def to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly.from_dict(
        {key: sympy.Rational(q.numerator, q.denominator) for key, q in p.terms.items()},
        x_sym, c_sym, domain=sympy.QQ,
    )


def assert_canonical(p: Poly) -> None:
    """What Poly._raw takes on trust: int exponents, nonzero Fractions."""
    for (xd, cd), q in p.terms.items():
        assert type(xd) is int and type(cd) is int and xd >= 0 and cd >= 0
        assert type(q) is Fraction and q != 0


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 3), points)
def test_arithmetic_matches_sympy(p, q, k, point):
    sp, sq = to_sympy(p), to_sympy(q)
    results = [
        (p + q, sp + sq),
        (p - q, sp - sq),
        (-p, -sp),
        (p * q, sp * sq),
        (p**k, sp**k),
        (p.shift_c(), sympy.Poly(sp.as_expr().subs(c_sym, c_sym + 1), x_sym, c_sym, domain=sympy.QQ)),
    ]
    for ours, theirs in results:
        assert_canonical(ours)
        assert to_sympy(ours) == theirs
    x, c = point
    value = sympy.Rational(sp.as_expr().subs({x_sym: x, c_sym: c}))
    assert p.evaluate(x, c) == Fraction(int(value.p), int(value.q))


rational_points = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@given(polys, rational_points)
def test_evaluate_at_rational_points_matches_the_term_sum(p, point):
    x, c = point
    expected = sum((q * x**xd * c**cd for (xd, cd), q in p.terms.items()), Fraction(0))
    value = p.evaluate(x, c)
    assert type(value) is Fraction and value == expected
    assert Poly.zero().evaluate(x, c) == 0


# Int coefficient lists in c with zeros, and int rows with empty columns.
int_lists = st.lists(st.integers(-3, 3), max_size=5)
int_rows = st.lists(int_lists, max_size=4)


def row_by_poly_arithmetic(rows: list[list[int]]) -> Poly:
    """The sum of rows[xd][cd] x^xd c^cd, one monomial at a time."""
    return sum(
        (q * X**xd * C**cd for xd, col in enumerate(rows) for cd, q in enumerate(col)),
        Poly.zero(),
    )


@given(int_rows, int_lists, st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4))
def test_int_rows_match_poly_arithmetic(rows, coeffs, factor, shift, xd):
    before = Poly._from_rows(rows)
    assert_canonical(before)
    assert before == row_by_poly_arithmetic(rows)
    acc = [col[:] for col in rows] + [[] for _ in range(xd + 1 - len(rows))]
    kept = coeffs[:]
    _add_scaled(acc[xd], coeffs, factor, shift)
    after = Poly._from_rows(acc)
    assert_canonical(after)
    assert after == before + factor * X**xd * C**shift * Poly._from_rows([coeffs])
    assert coeffs == kept
