import inspect
import sys
from math import comb, prod

import pytest

from assoc_hermite.matchings import Matching
from assoc_hermite.models import (
    anchored_config_gf,
    anchored_config_slots,
    associated_hermite,
    associated_hermite_matchings,
    associated_in_hermite_basis,
    chebyshev_limit,
    chebyshev_rescaled_terms,
    chebyshev_u,
    chebyshev_u_matchings,
    enumerate_anchored_configs,
    enumerate_marker_edge_matchings,
    enumerate_two_row_matchings,
    marker_edge_model,
    two_row_matching_gf,
    usual_hermite,
)
from assoc_hermite.polynomials import C, Poly, X, rising_factorial


def test_low_degree_polynomials():
    assert associated_hermite(0) == Poly.one()
    assert associated_hermite(1) == X
    assert associated_hermite(2) == X**2 - C
    assert associated_hermite(3) == X**3 - (2 * C + 1) * X
    assert associated_hermite(4) == X**4 - (3 * C + 3) * X**2 + C**2 + 2 * C


def test_recurrence_holds():
    for n in range(1, 12):
        assert associated_hermite(n + 1) == X * associated_hermite(n) - (
            C + (n - 1)
        ) * associated_hermite(n - 1)


def test_usual_hermite_is_the_c_one_specialization():
    assert usual_hermite(3) == X**3 - 3 * X
    for n in range(9):
        expect = {
            (xd, 0): coeff.evaluate(c_value=1)
            for (xd, cd), coeff in _collect_by_x(associated_hermite(n)).items()
        }
        assert usual_hermite(n) == Poly(
            {k: v for k, v in expect.items() if v}
        )


def _collect_by_x(p):
    out = {}
    for (xd, cd), q in p.terms.items():
        out.setdefault((xd, 0), Poly.zero())
        out[(xd, 0)] = out[(xd, 0)] + Poly({(0, cd): q})
    return out


@pytest.mark.parametrize("n", range(9))
def test_matchings_model_matches_recurrence(n):
    assert associated_hermite_matchings(n) == associated_hermite(n)


@pytest.mark.parametrize("n", range(8))
def test_marker_edge_model_is_the_shifted_polynomial(n):
    assert marker_edge_model(n) == associated_hermite(n).shift_c()


def test_marker_edge_enumeration_order_is_pinned():
    assert [(m.n, m.edges) for m in enumerate_marker_edge_matchings(2)] == [
        (4, ((1, 3), (2, 4))), (4, ((1, 4),)), (4, ((1, 4), (2, 3))),
    ]


def test_basis_expansion_identity():
    for n in range(11):
        expected = Poly.zero()
        for k in range(n // 2 + 1):
            expected = expected + (
                (-1) ** k
                * rising_factorial(C, k)
                * comb(n - k, k)
                * usual_hermite(n - 2 * k)
            )
        assert associated_in_hermite_basis(n) == expected
        assert expected == associated_hermite(n).shift_c()


def test_chebyshev_polynomials():
    assert chebyshev_u(0) == Poly.one()
    assert chebyshev_u(1) == X
    assert chebyshev_u(2) == X**2 - 1
    for n in range(1, 9):
        assert chebyshev_u(n + 1) == X * chebyshev_u(n) - chebyshev_u(n - 1)
        assert chebyshev_u_matchings(n) == chebyshev_u(n)


def test_recurrences_past_the_default_recursion_limit():
    chebyshev_u.cache_clear()
    usual_hermite.cache_clear()
    assert chebyshev_u(600).evaluate(2) == 601
    # H_2k(0) = (-1)^k (2k - 1)!!, counting the perfect matchings on 2k points.
    assert usual_hermite(520).evaluate(0) == prod(range(1, 520, 2))


def test_associated_recurrence_depth_does_not_grow_with_degree():
    # Degree 80 would recurse about twice as deep as the lowered limit allows
    # if each degree called the next one down.
    associated_hermite.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 120)
    try:
        h = associated_hermite(80)
    finally:
        sys.setrecursionlimit(limit)
    assert h.evaluate(2, 1) == usual_hermite(80).evaluate(2)


def test_chebyshev_limit():
    for n in range(9):
        assert chebyshev_limit(n) == chebyshev_u(n)


def test_rescaled_terms_never_grow_with_c():
    for n in range(2, 9):
        shifts = {shift for (_, shift) in chebyshev_rescaled_terms(n)}
        assert max(shifts) <= 0
        if n >= 3:
            assert min(shifts) < 0  # something genuinely vanishes in the limit


def test_anchored_config_gf():
    for k in range(5):
        assert anchored_config_gf(k) == (-1) ** k * rising_factorial(C, k)


def test_anchored_config_slots():
    for k in range(1, 4):
        for cfg in enumerate_anchored_configs(k):
            plain, special = anchored_config_slots(cfg)
            assert (plain, special) == (k, 1)


def test_two_row_gf():
    for n in range(1, 7):
        assert two_row_matching_gf(n) == rising_factorial(C + 1, n - 1)


def test_two_row_matchings_shape():
    for m in enumerate_two_row_matchings(3):
        assert isinstance(m, Matching)
        assert m.is_complete()
        assert m.n == 6
