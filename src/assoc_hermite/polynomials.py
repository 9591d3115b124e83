"""Exact sparse arithmetic for polynomials in the variables x and c.

A polynomial is a map from exponent pairs (x degree, c degree) to rational
coefficients.  Zero coefficients are never stored, so the term map is a
canonical form: two polynomials are equal exactly when their maps coincide.
All coefficients are fractions.Fraction values, which keeps every identity
in this package exact; nothing here ever rounds.  A coefficient must be an
exact rational (any numbers.Rational, int and bool included): a float,
Decimal or complex raises TypeError instead of being rounded to a fraction.
An exponent must be an integer (whatever operator.index accepts), and
`from_json_obj` reads only ints and decimal-integer strings; neither
truncates a float.

The public constructor checks every term.  The ring operations, shift_c and
`_gf`, the one fold that sums weights, hand their sums to the private
Poly._raw: the one place zero sums are dropped, with no other check.

The recurrences elsewhere (the three-term rows of `models`, the history
recurrences of `_history`) run on int rows instead: row[xd][cd] is the
integer coefficient of x^xd c^cd, and a list of coefficients in c alone is
the one-column row [coeffs].  This module owns both operations on them:
`_add_scaled` is the one scaled add, and Poly._from_rows, which hands its
Fractions to Poly._raw, is the one way integers become a Poly.

Instances are immutable by convention.  Every operation returns a fresh
polynomial and never mutates its operands.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from numbers import Rational
from operator import index
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Key = tuple[int, int]
# An int row: row[xd][cd] is the coefficient of x^xd c^cd.
_Row = list[list[int]]


def _json_int(record: Mapping, field: str) -> int:
    """A term record's field: an int, or a decimal-integer string as
    `to_json_obj` writes it.  Anything else raises ValueError, as malformed
    input does in every `from_json_obj`, and nothing is truncated."""
    value = record[field]
    if type(value) is int:
        return value
    if type(value) is str:
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise ValueError(
        f"term field {field!r} must be an int or a decimal-integer string, got {value!r}"
    )


def _exact(value) -> Fraction:
    """value as a Fraction; anything but an exact rational raises TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"{value!r} is not an exact rational; polynomials never round")


class Poly:
    """Sparse bivariate polynomial in x and c over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        clean: dict[Key, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                xd, cd = map(index, key)
                if xd < 0 or cd < 0:
                    raise ValueError(f"negative exponent in term {key!r}")
                q = coeff if type(coeff) is Fraction else _exact(coeff)
                if q:
                    clean[(xd, cd)] = q
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, terms: dict[Key, Fraction]) -> "Poly":
        """A sum's term map made canonical by dropping its zero coefficients;
        the caller guarantees int exponents >= 0 and Fraction coefficients."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", {key: q for key, q in terms.items() if q})
        return p

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]]) -> "Poly":
        """The Poly of an int row, rows[xd][cd] the coefficient of x^xd c^cd,
        zeros dropped; the caller guarantees int coefficients."""
        return cls._raw(
            {(xd, cd): Fraction(q) for xd, col in enumerate(rows) for cd, q in enumerate(col)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._raw, (self.terms,)

    # ----- constructors -----

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, xd: int, cd: int, coeff: Scalar = 1) -> "Poly":
        return cls({(xd, cd): coeff})

    # ----- ring operations -----

    @staticmethod
    def _coerce(value) -> "Poly | None":
        """A Poly for the scalars the constructor takes (int and Fraction,
        tested first, then any numbers.Rational); None for anything else."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction, Rational)):
            return Poly.constant(value)
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return Poly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Key, Fraction] = {}
        for (xa, ca), qa in self.terms.items():
            for (xb, cb), qb in other.terms.items():
                key = (xa + xb, ca + cb)
                out[key] = out.get(key, 0) + qa * qb
        return Poly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ----- queries -----

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        """Terms sorted by (x degree, c degree) descending; the canonical order."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    # ----- transforms -----

    def evaluate(self, x_value: Scalar = 0, c_value: Scalar = 0) -> Fraction:
        """The value at x = a/b, c = p/q, summed as integers over one common
        denominator and made a Fraction at the end: with X and K the top
        degrees in x and c, each term is scaled by b^(X-xd) q^(K-cd)."""
        xv = _exact(x_value)
        cv = _exact(c_value)
        a, b = xv.numerator, xv.denominator
        p, q = cv.numerator, cv.denominator
        top_x, top_c = map(max, zip((0, 0), *self.terms))
        den = lcm(*(r.denominator for r in self.terms.values()))
        return Fraction(
            sum(
                r.numerator * (den // r.denominator)
                * a**xd * b ** (top_x - xd) * p**cd * q ** (top_c - cd)
                for (xd, cd), r in self.terms.items()
            ),
            den * b**top_x * q**top_c,
        )

    def shift_c(self) -> "Poly":
        """Substitute c -> c + 1 on int rows: scaled to their common
        denominator, each x degree's coefficients in c are shifted by repeated
        additions (the binomial transform), then divided back."""
        den = lcm(*(q.denominator for q in self.terms.values()))
        rows: dict[int, list[int]] = {}
        for (xd, cd), q in self.terms.items():
            row = rows.setdefault(xd, [])
            row.extend([0] * (cd + 1 - len(row)))
            row[cd] = q.numerator * (den // q.denominator)
        for row in rows.values():
            for i in range(len(row) - 1):
                for j in range(len(row) - 2, i - 1, -1):
                    row[j] += row[j + 1]
        return Poly._raw(
            {(xd, cd): Fraction(q, den) for xd, row in rows.items() for cd, q in enumerate(row)}
        )

    # ----- encoding -----

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: term records sorted by (xd, cd) descending."""
        return [
            {"xd": xd, "cd": cd, "num": str(q.numerator), "den": str(q.denominator)}
            for (xd, cd), q in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "Poly":
        terms: dict[Key, Fraction] = {}
        for record in obj:
            key = (_json_int(record, "xd"), _json_int(record, "cd"))
            if key in terms:
                raise ValueError(f"duplicate term {key!r}")
            den = _json_int(record, "den")
            if den == 0:
                raise ValueError(f"zero denominator in term {key!r}")
            terms[key] = Fraction(_json_int(record, "num"), den)
        return cls(terms)

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (xd, cd), q in self.sorted_terms():
            mono = "".join(
                (f"{name}^{e}" if e > 1 else name) if e else ""
                for name, e in (("x", xd), ("c", cd))
            )
            if not mono:
                body = str(q)
            elif q == 1:
                body = mono
            elif q == -1:
                body = "-" + mono
            elif q.denominator == 1:
                body = f"{q}{mono}"
            else:
                body = f"({q}){mono}"
            parts.append(body)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


X = Poly.monomial(1, 0)
C = Poly.monomial(0, 1)


def _gf(objects: Iterable, weigh: Callable[..., Poly]) -> Poly:
    """The sum of weigh(obj) over the objects, built as one polynomial."""
    acc: dict = {}
    for obj in objects:
        for key, q in weigh(obj).terms.items():
            acc[key] = acc.get(key, 0) + q
    return Poly._raw(acc)


def _add_scaled(acc: list[int], coeffs: Sequence[int], factor: int, shift: int = 0) -> None:
    """acc += factor * c**shift * coeffs, on int coefficient lists in c
    (lowest degree first); acc grows as far as the sum needs."""
    if not factor:
        return
    acc.extend([0] * (len(coeffs) + shift - len(acc)))
    for i, q in enumerate(coeffs, shift):
        acc[i] += factor * q


def _rising_factorials(base: Poly | Scalar, k: int) -> list[Poly]:
    """The prefix list (base)_0, (base)_1, ..., (base)_k, each one product
    from the one before."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    base = base if isinstance(base, Poly) else Poly.constant(base)
    prefixes = [Poly.one()]
    for i in range(k):
        prefixes.append(prefixes[-1] * (base + i))
    return prefixes


def rising_factorial(base: Poly | Scalar, k: int) -> Poly:
    """The product base (base+1) ... (base+k-1); equals 1 when k = 0."""
    return _rising_factorials(base, k)[k]


def binomial_poly(top: Poly | Scalar, k: int) -> Poly:
    """Binomial coefficient with polynomial top: (top-k+1)_k / k!."""
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    return rising_factorial(top - (k - 1), k) * Fraction(1, factorial(k))


def rising_factorial_value(base: Scalar, k: int) -> Fraction:
    """Rising factorial of a plain rational value."""
    if k < 0:
        raise ValueError("rising factorial needs k >= 0")
    base = _exact(base)
    total = Fraction(1)
    for i in range(k):
        total *= base + i
    return total
