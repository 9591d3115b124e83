"""Linearization coefficients and the product-functional conjecture.

The product of two associated Hermite polynomials expands back in the
same family with coefficients that are polynomials in c with nonnegative
integer coefficients; a mixed product with a usual Hermite factor also
linearizes when the associated factor's degree is at least the other
degree minus one.  The conjecture checker compares the functional of a
longer product against a weighted inhomogeneous-matching count, which
`_history._histories` sums by a history recurrence without enumerating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from ._history import _histories
from .matchings import Blocks, WeightScheme, _Record
from .models import associated_hermite, usual_hermite
from .moments import apply_functional
from .polynomials import (
    C,
    Poly,
    _exact,
    _gf,
    _rising_factorials,
    binomial_poly,
    rising_factorial_value,
)


def linearization_coefficient(N: int, M: int, j: int) -> Poly:
    """The coefficient of H_{N+M-2j} in H_N H_M, as a polynomial in c.

    Computed from the manifestly nonnegative form
    sum_k C(N-j,k) C(M-j,k) (j-k+1)_k (N+M-2j+c)_{j-k}.
    """
    if not 0 <= j <= min(N, M):
        raise ValueError(f"j must lie in 0..min(N,M), got {j}")
    rising = _rising_factorials(C + (N + M - 2 * j), j)

    def term(k: int) -> Poly:
        scalar = (
            math.comb(N - j, k)
            * math.comb(M - j, k)
            * rising_factorial_value(j - k + 1, k)
        )
        return scalar * rising[j - k]

    return _gf(range(min(N - j, M - j, j) + 1), term)


def linearization_coefficient_hypergeometric(
    N: int, M: int, j: int, c_value: int | Fraction
) -> Fraction:
    """The raw hypergeometric form of the coefficient at a numeric c.

    (N+M-2j+c)_j times the terminating series with numerator parameters
    j-N, j-M, -j and denominator parameters j-N-M-c+1 and 1.  A vanishing
    denominator factor inside the terminating range is a domain error.
    """
    if not 0 <= j <= min(N, M):
        raise ValueError(f"j must lie in 0..min(N,M), got {j}")
    c = _exact(c_value)
    prefactor = rising_factorial_value(N + M - 2 * j + c, j)
    e = j - N - M - c + 1
    total = Fraction(0)
    term_top = Fraction(1)
    term_bottom = Fraction(1)
    for k in range(min(N - j, M - j, j) + 1):
        if k:
            term_top *= (j - N + k - 1) * (j - M + k - 1) * (-j + k - 1)
            bottom_factor = (e + k - 1) * k * k
            if bottom_factor == 0:
                raise ValueError(f"denominator parameter vanishes at term k={k}")
            term_bottom *= bottom_factor
        total += term_top / term_bottom
    return prefactor * total


def _expansion(coefficients: list[Poly], top: int) -> Poly:
    """The sum of coefficients[k] H_{top-2k}(x; c), lowest degree first to walk forward."""
    return _gf(
        reversed(range(len(coefficients))),
        lambda k: coefficients[k] * associated_hermite(top - 2 * k),
    )


def _coefficients(N: int, M: int) -> list[Poly]:
    """The linearization coefficients of H_N H_M for j = 0..min(N,M)."""
    return [linearization_coefficient(N, M, j) for j in range(min(N, M) + 1)]


def _linearize(N: int, M: int) -> tuple[list[Poly], Poly, Poly]:
    """The coefficients for j = 0..min(N,M), H_N H_M, and their expansion."""
    coefficients = _coefficients(N, M)
    lhs = associated_hermite(N) * associated_hermite(M)
    return coefficients, lhs, _expansion(coefficients, N + M)


def verify_linearization(N: int, M: int) -> bool:
    """Whether H_N H_M equals the coefficient-weighted expansion, exactly."""
    _, lhs, rhs = _linearize(N, M)
    return lhs == rhs


def mixed_coefficient(n: int, m: int, k: int) -> Poly:
    """The coefficient of H_{n+m-2k}(x;c) in H_n(x;c) times plain H_m(x)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return binomial_poly(C + (n - 1), k) * (math.comb(m, k) * math.factorial(k))


def _mix(n: int, m: int) -> tuple[list[Poly], Poly, Poly]:
    """The coefficients for k = 0..min(m, (n+m)//2), H_n(x;c) H_m(x), and
    their expansion."""
    coefficients = [mixed_coefficient(n, m, k) for k in range(min(m, (n + m) // 2) + 1)]
    lhs = associated_hermite(n) * usual_hermite(m)
    return coefficients, lhs, _expansion(coefficients, n + m)


def mixed_residual(n: int, m: int) -> Poly:
    """H_n(x;c) H_m(x) minus its claimed expansion; zero when n >= m-1.

    For n < m-1 this is a diagnostic: the returned polynomial is what the
    expansion misses.
    """
    _, lhs, rhs = _mix(n, m)
    return lhs - rhs


def verify_mixed(n: int, m: int) -> bool:
    return mixed_residual(n, m).is_zero()


def product_functional(ns: Sequence[int]) -> Poly:
    """The orthogonality functional applied to a product of the polynomials."""
    p = Poly.one()
    for n in ns:
        p = p * associated_hermite(n)
    return apply_functional(p)


def inhomogeneous_gf(sizes: Sequence[int], scheme: WeightScheme) -> Poly:
    """Weighted sum over inhomogeneous matchings on blocks of these sizes.

    The sizes are taken in the order given; rearranging them changes the
    answer for every weighting here.  An odd total gives zero.

    Nothing is enumerated.  A history (transfer-matrix) recurrence reads
    the vertices left to right and tracks how many arcs are open, how many
    of those opened in the current block, and how many opened since the
    last close; under every scheme a closing arc's weight depends on those
    counts alone, so the sum costs time polynomial in the total.  The
    tests check it against `enumerate_inhomogeneous` summed with `weight`.
    """
    blocks = Blocks(sizes)
    if blocks.total % 2:
        return Poly.zero()
    return _histories(blocks.sizes, scheme)


class ConjectureReport(_Record):
    sizes: tuple[int, ...]
    match: bool
    lhs: Poly
    rhs: Poly


def conjecture_check(ns: Sequence[int]) -> ConjectureReport:
    """Compare the product functional with the no-right-crossing matching sum.

    The blocks are sorted weakly increasing by size; permuting equal sizes
    leaves the size tuple unchanged.  Only the matching side feels the
    order, so another one, say (3,4,3) for (3,3,4), is compared by calling
    product_functional and inhomogeneous_gf directly.
    """
    sizes = tuple(sorted(ns))
    if any(n < 1 for n in sizes):
        raise ValueError("block sizes must be positive")
    lhs = product_functional(sizes)
    rhs = inhomogeneous_gf(sizes, WeightScheme.MOMENT_NO_RIGHT_CROSSING)
    return ConjectureReport(sizes, lhs == rhs, lhs, rhs)


def _weakly_increasing_tuples(total_max: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix: tuple[int, ...], minimum: int, budget: int) -> Iterator[tuple[int, ...]]:
        if prefix:
            yield prefix
        for nxt in range(minimum, budget + 1):
            yield from rec(prefix + (nxt,), nxt, budget - nxt)

    yield from rec((), 1, total_max)


def conjecture_sweep(sum_max: int) -> Iterator[ConjectureReport]:
    """Reports for every multiset of positive block sizes with sum <= sum_max."""
    for sizes in _weakly_increasing_tuples(sum_max):
        yield conjecture_check(sizes)
