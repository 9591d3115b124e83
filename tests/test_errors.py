"""The library's refusals that no other test reaches, each pinned to its
exact message."""

import re

import pytest

from assoc_hermite._history import _histories
from assoc_hermite.linearization import (
    linearization_coefficient_hypergeometric,
    mixed_coefficient,
)
from assoc_hermite.maps import RootedMap, double_occurrence_word, marked_word
from assoc_hermite.matchings import (
    Matching,
    WeightScheme,
    enumerate_complete,
    is_connected,
    weight,
)
from assoc_hermite.models import associated_in_hermite_basis, two_row_matching_gf
from assoc_hermite.moments import PairedMatching, moment_series, paired_to_permutation
from assoc_hermite.polynomials import (
    C,
    Poly,
    binomial_poly,
    rising_factorial,
    rising_factorial_value,
)
from assoc_hermite.verification import run_all

INCOMPLETE = Matching(3, ((1, 2),))
TERM = {"xd": 0, "cd": 0, "num": "1", "den": "1"}

REFUSALS = {
    "_histories": (
        lambda: _histories((2,), "nonnested"),
        "unknown weight scheme 'nonnested'",
    ),
    "linearization_coefficient_hypergeometric": (
        lambda: linearization_coefficient_hypergeometric(2, 2, 3, 1),
        "j must lie in 0..min(N,M), got 3",
    ),
    "mixed_coefficient": (lambda: mixed_coefficient(2, 2, -1), "k must be nonnegative"),
    "RootedMap": (lambda: RootedMap((), (), 0), "the empty map has no root dart"),
    "double_occurrence_word": (
        lambda: double_occurrence_word(INCOMPLETE),
        "needs a complete matching",
    ),
    "marked_word": (lambda: marked_word(Matching(3, ((2, 3),))), "needs vertex 1 matched"),
    "weight-scheme": (lambda: weight(INCOMPLETE, "x"), "unknown weight scheme 'x'"),
    "weight-incomplete": (
        lambda: weight(INCOMPLETE, WeightScheme.MOMENT_NONNESTED),
        "moment weightings apply to complete matchings only",
    ),
    "enumerate_complete-negative": (
        lambda: list(enumerate_complete(-2)),
        "vertex count must be nonnegative",
    ),
    "enumerate_complete-odd": (
        lambda: list(enumerate_complete(3)),
        "complete matchings need an even vertex count",
    ),
    "is_connected": (
        lambda: is_connected(INCOMPLETE),
        "connectivity is defined for complete matchings",
    ),
    "associated_in_hermite_basis": (
        lambda: associated_in_hermite_basis(-1),
        "degree must be nonnegative",
    ),
    "two_row_matching_gf": (lambda: two_row_matching_gf(0), "needs n >= 1"),
    "PairedMatching": (
        lambda: PairedMatching(2, 2, ((2, 3),), ((1, 4),)),
        "black edge (2, 3) crosses the row boundary",
    ),
    "paired_to_permutation": (
        lambda: paired_to_permutation(PairedMatching(2, 2, ((1, 2),), ((3, 4),))),
        "needs an all-green matching",
    ),
    "moment_series": (lambda: moment_series(-1, 2), "depth and order must be nonnegative"),
    "Poly.__pow__": (lambda: C**-1, "negative power of a polynomial"),
    "Poly.from_json_obj": (
        lambda: Poly.from_json_obj([TERM, TERM]),
        "duplicate term (0, 0)",
    ),
    "rising_factorial": (lambda: rising_factorial(C, -1), "rising factorial needs k >= 0"),
    "rising_factorial_value": (
        lambda: rising_factorial_value(1, -1),
        "rising factorial needs k >= 0",
    ),
    "binomial_poly": (lambda: binomial_poly(C, -1), "binomial needs k >= 0"),
    "run_all": (lambda: run_all("bogus"), "unknown verification level 'bogus'"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_edge_of_a_fixed_point_is_none():
    assert INCOMPLETE.edge_of(3) is None
    assert INCOMPLETE.edge_of(2) == (1, 2)
