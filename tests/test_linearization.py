"""Tests for linearization coefficients and the block-matching comparison."""

from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc_hermite._history import _histories
from assoc_hermite.linearization import (
    conjecture_check,
    inhomogeneous_gf,
    linearization_coefficient,
    linearization_coefficient_hypergeometric,
    mixed_coefficient,
    mixed_residual,
    product_functional,
    verify_linearization,
    verify_mixed,
)
from assoc_hermite.matchings import (
    Blocks,
    WeightScheme,
    enumerate_inhomogeneous,
    weight,
)
from assoc_hermite.models import associated_hermite, usual_hermite
from assoc_hermite.polynomials import C, Poly, _gf

NO_RIGHT_CROSSING = WeightScheme.MOMENT_NO_RIGHT_CROSSING


def poly_from_descending(coeffs: list[int]) -> Poly:
    """Build sum(coeffs[i] * c^(len-1-i)) for compact frozen tables."""
    total = Poly.zero()
    top = len(coeffs) - 1
    for i, a in enumerate(coeffs):
        if a:
            total = total + a * Poly.monomial(0, top - i)
    return total


def test_expansion_holds_exactly():
    for N in range(9):
        for M in range(9):
            assert verify_linearization(N, M)


def test_coefficients_trivial_cases():
    assert linearization_coefficient(5, 7, 0) == Poly.one()
    assert linearization_coefficient(1, 1, 1) == C


def test_coefficient_rejects_bad_index():
    with pytest.raises(ValueError):
        linearization_coefficient(3, 5, 4)
    with pytest.raises(ValueError):
        linearization_coefficient(3, 5, -1)


def test_hypergeometric_rejects_vanishing_denominator():
    with pytest.raises(ValueError, match="denominator"):
        linearization_coefficient_hypergeometric(3, 3, 2, -3)


def test_mixed_coefficient_instance():
    assert mixed_coefficient(2, 1, 1) == C + 1


def test_mixed_expansion_small_instance():
    # H_2(x;c) x = H_3(x;c) + (c+1) H_1(x;c)
    lhs = associated_hermite(2) * usual_hermite(1)
    rhs = associated_hermite(3) + (C + 1) * associated_hermite(1)
    assert lhs == rhs
    assert verify_mixed(2, 1)
    # Outside the range n >= m - 1 the expansion misses, by a residual that
    # vanishes at c = 1, where the two families coincide.
    assert mixed_residual(1, 3) == C - C**2


def enumerated_gf(sizes: tuple[int, ...], scheme: WeightScheme) -> Poly:
    """The block-matching sum by enumeration: the reference for _histories."""
    return _gf(enumerate_inhomogeneous(Blocks(sizes)), lambda m: weight(m, scheme))


# Every arrangement of at most five blocks, empty blocks included, with an
# even total of at most 8.
SMALL_ARRANGEMENTS = [
    sizes
    for blocks in range(6)
    for sizes in product(range(9), repeat=blocks)
    if sum(sizes) % 2 == 0 and sum(sizes) <= 8
]


# Blocks of one vertex each put a block boundary at every vertex, past the
# five blocks the small arrangements stop at.  They give every complete
# matching, so this is also the oracle for moment_via_matchings at every n
# the moment-tables suite checks.
UNIT_BLOCKS = [(1,) * n for n in range(0, 13, 2)]


# Past the totals of the small arrangements: a last block as large as all
# the blocks before it or larger, and a block larger than the vertices after
# it, where the backward bound of _histories prunes histories that cannot
# close every arc in time.
LATE_BLOCKS = [
    (2, 2, 6), (4, 6), (1, 4, 5), (1, 1, 1, 1, 6), (3, 3, 6), (2, 2, 2, 6),
    (1, 1, 1, 3, 6), (1, 5, 6), (2, 6, 2), (1, 1, 6, 4), (1, 1, 1, 1, 5, 3),
]


def test_histories_match_enumeration_on_small_arrangements():
    assert len(SMALL_ARRANGEMENTS) * len(WeightScheme) == 6060
    for sizes in SMALL_ARRANGEMENTS + UNIT_BLOCKS + LATE_BLOCKS:
        for scheme in WeightScheme:
            assert _histories(sizes, scheme) == enumerated_gf(sizes, scheme), (sizes, scheme)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=6)
    .filter(lambda sizes: sum(sizes) % 2 == 0 and sum(sizes) <= 12)
    .map(tuple),
    st.sampled_from(list(WeightScheme)),
)
def test_histories_match_enumeration(sizes, scheme):
    assert _histories(sizes, scheme) == enumerated_gf(sizes, scheme)


def test_inhomogeneous_gf_error_contract():
    scheme = WeightScheme.MOMENT_NONNESTED
    # Negative sizes are refused, whatever the parity of the total...
    for sizes in ((-1, 2), (-2, 20)):
        with pytest.raises(ValueError, match="^block sizes must be nonnegative$"):
            inhomogeneous_gf(sizes, scheme)
    # ...an odd total is zero, and no total is too large, since nothing is
    # enumerated.
    assert inhomogeneous_gf((1, 2), scheme).is_zero()
    assert inhomogeneous_gf((9, 9), scheme).evaluate(c_value=1) == factorial(9)


def test_conjecture_check_rejects_bad_sizes():
    with pytest.raises(ValueError):
        conjecture_check((0, 2))


def test_conjecture_check_always_sorts_the_blocks():
    assert conjecture_check((3, 2, 2, 3)).sizes == (2, 2, 3, 3)
    with pytest.raises(TypeError):
        conjecture_check((3, 2, 2, 3), arrange=False)


def test_conjecture_control_cases_match():
    report = conjecture_check((1, 1, 3, 3))
    assert report.match
    assert report.lhs == poly_from_descending([2, 11, 19, 10, 0])
    assert conjecture_check((3, 3, 4)).match


def test_arrangement_rescues_2233():
    # The order (3,2,2,3) does satisfy the identity even though the sorted
    # arrangement (2,2,3,3) does not.
    sizes = (3, 2, 2, 3)
    assert product_functional(sizes) == inhomogeneous_gf(sizes, NO_RIGHT_CROSSING)
    assert not conjecture_check(sizes).match


def test_no_arrangement_rescues_1333():
    seen = set(permutations((1, 3, 3, 3)))
    assert len(seen) == 4
    lhs = product_functional((1, 3, 3, 3))
    for sizes in sorted(seen):
        assert lhs != inhomogeneous_gf(sizes, NO_RIGHT_CROSSING), sizes
