import inspect
import sys
import tracemalloc
from math import comb, prod

import pytest

from assoc_hermite import models
from assoc_hermite.matchings import (
    Matching,
    WeightScheme,
    _pairings,
    enumerate_incomplete,
    nonnested_edges,
    weight,
)
from assoc_hermite.models import (
    associated_hermite,
    associated_hermite_matchings,
    associated_in_hermite_basis,
    chebyshev_rescaled_terms,
    chebyshev_u,
    enumerate_marker_edge_matchings,
    enumerate_two_row_matchings,
    marker_edge_model,
    usual_hermite,
)
from assoc_hermite.polynomials import C, Poly, X, _gf, rising_factorial
from assoc_hermite.verification import suite_polynomial_models
from test_polynomials import assert_canonical


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


# The history recurrences of the two matching models against the
# enumerations they replace.


@pytest.mark.parametrize("n", range(11))
def test_matchings_model_matches_recurrence(n):
    expected = _gf(enumerate_incomplete(n), lambda m: weight(m, WeightScheme.POLY_RIGHTMOST))
    summed = associated_hermite_matchings(n)
    assert_canonical(summed)
    assert summed == expected


def test_matchings_model_sums_past_the_enumeration_cap():
    # The recurrence enumerates nothing, so 17 vertices are no limit; the
    # CLI's own degree limit is checked in test_cli.
    assert associated_hermite_matchings(17) == associated_hermite(17)


def marker_edge_weight(m: Matching) -> Poly:
    """The weight of one marker-edge matching: the marker edge weighs +1,
    fixed points x, edges nested by another -1 and the rest -c."""
    # The marker edge starts at vertex 1, so nothing nests it.
    special = len(nonnested_edges(m)) - 1
    sign = -1 if (len(m.edges) - 1) % 2 else 1
    return Poly.monomial(len(m.fixed_points()), special, sign)


@pytest.mark.parametrize("n", range(10))
def test_marker_edge_model_is_the_shifted_polynomial(n):
    expected = _gf(enumerate_marker_edge_matchings(n), marker_edge_weight)
    summed = marker_edge_model(n)
    assert_canonical(summed)
    assert summed == expected


def test_marker_edge_model_sums_past_the_enumeration_cap():
    # Degree 15 reads 17 vertices, one past the enumeration cap.
    assert marker_edge_model(15) == associated_hermite(15).shift_c()


def filtered_marker_edge_matchings(n: int) -> list[Matching]:
    """Every partial matching of the vertices other than 1 and t, kept when
    no fixed point and no edge start lies beyond t, joined by the marker
    edge (1, t)."""
    total = n + 2
    out = []
    for t in range(2, total + 1):
        others = tuple(v for v in range(2, total + 1) if v != t)
        for sub in _pairings(others, free=others):
            fixed = set(others) - {v for e in sub for v in e}
            if any(v > t for v in fixed) or any(a > t for a, _ in sub):
                continue
            out.append(Matching(total, sub + ((1, t),)))
    return out


@pytest.mark.parametrize("n", range(9))
def test_marker_edge_enumeration_matches_filter(n):
    assert list(enumerate_marker_edge_matchings(n)) == filtered_marker_edge_matchings(n)


def test_marker_edge_enumeration_order_is_pinned():
    assert [(m.n, m.edges) for m in enumerate_marker_edge_matchings(2)] == [
        (4, ((1, 3), (2, 4))), (4, ((1, 4),)), (4, ((1, 4), (2, 3))),
    ]


def test_basis_expansion_identity():
    # The Poly product formula is the oracle for the int-row sum.
    rising = [rising_factorial(C, k) for k in range(31)]
    for n in range(61):
        expected = Poly.zero()
        for k in range(n // 2 + 1):
            expected = expected + (
                (-1) ** k
                * rising[k]
                * comb(n - k, k)
                * usual_hermite(n - 2 * k)
            )
        basis = associated_in_hermite_basis(n)
        assert_canonical(basis)
        assert basis == expected
        if n <= 10:
            assert expected == associated_hermite(n).shift_c()


FAMILY_TABLES = ("_ASSOCIATED", "_HERMITE", "_CHEBYSHEV")


@pytest.fixture
def cold_tables(monkeypatch):
    """Every family table reset to the rows of P_0 and P_1 alone, with no
    Poly built, restored afterwards."""
    for name in FAMILY_TABLES:
        monkeypatch.setattr(models, name, models._new_table())


def test_recurrences_past_the_default_recursion_limit(cold_tables):
    assert chebyshev_u(600).evaluate(2) == 601
    # H_2k(0) = (-1)^k (2k - 1)!!, counting the perfect matchings on 2k points.
    assert usual_hermite(520).evaluate(0) == prod(range(1, 520, 2))


FAMILY_IDS = ["associated", "hermite", "chebyshev"]


@pytest.mark.parametrize(
    "family, expected",
    [
        (associated_hermite, lambda: usual_hermite(80).evaluate(2)),
        (usual_hermite, lambda: associated_hermite(80).evaluate(2, 1)),
        (chebyshev_u, lambda: 81),
    ],
    ids=FAMILY_IDS,
)
def test_recurrence_depth_does_not_grow_with_degree(cold_tables, family, expected):
    # Degree 80 would recurse about twice as deep as the lowered limit allows
    # if each degree called the next one down.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 120)
    try:
        p = family(80)
    finally:
        sys.setrecursionlimit(limit)
    assert p.evaluate(2, 1) == expected()


@pytest.mark.parametrize(
    "family", [associated_hermite, usual_hermite, chebyshev_u], ids=FAMILY_IDS
)
def test_tables_grow_the_same_in_any_order(cold_tables, monkeypatch, family):
    # A partly filled table must extend from where it stops, whatever the
    # order in which degrees are first asked for.
    degrees = [17, 1, 42, -1, 3, 0, 41, 5, 2, 40]
    shuffled = {n: family(n) for n in degrees}
    for name in FAMILY_TABLES:
        monkeypatch.setattr(models, name, models._new_table())
    assert shuffled == {n: family(n) for n in sorted(degrees)}
    assert shuffled[-1] == Poly.zero()


def test_tables_keep_two_rows(cold_tables):
    # Each table keeps the rows of its last two degrees and the Poly of each
    # degree asked for, not the rows of every degree it has walked past.
    tracemalloc.start()
    try:
        for family in (associated_hermite, usual_hermite, chebyshev_u):
            family(150)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4_000_000, held


# b(k) of P_k = x P_{k-1} - b(k) P_{k-2} for each family, as a Poly.
FAMILY_B = [
    (associated_hermite, lambda k: C + (k - 2)),
    (usual_hermite, lambda k: Poly.constant(k - 1)),
    (chebyshev_u, lambda k: Poly.one()),
]


@pytest.mark.parametrize("family, b", FAMILY_B, ids=FAMILY_IDS)
def test_int_rows_match_the_poly_recurrence(cold_tables, family, b):
    # The oracle runs the recurrence in Poly (Fraction) arithmetic.
    table = [Poly.one(), X]
    for k in range(2, 61):
        table.append(X * table[k - 1] - b(k) * table[k - 2])
    for n in reversed(range(61)):
        p = family(n)
        assert_canonical(p)
        assert p == table[n], n


def test_rescaled_terms_never_grow_with_c():
    for n in range(2, 9):
        shifts = {shift for (_, shift) in chebyshev_rescaled_terms(n)}
        assert max(shifts) <= 0
        if n >= 3:
            assert min(shifts) < 0  # something genuinely vanishes in the limit


def test_two_row_matchings_shape():
    for m in enumerate_two_row_matchings(3):
        assert isinstance(m, Matching)
        assert m.is_complete()
        assert m.n == 6


def reference_anchored_special(m):
    """The per-edge scan that the relation masks replaced: the edges of the
    complete matching m that nest no edge and have no left crossing, when
    every other edge has a left crossing by one of them."""
    special = frozenset(
        (a, b) for a, b in m.edges
        if not any(a < a2 and b2 < b or a2 < a < b2 < b for a2, b2 in m.edges)
    )
    for a, b in m.edges:
        if (a, b) not in special and not any(a2 < a < b2 < b for a2, b2 in special):
            return None
    return special


def test_is_anchored_matches_the_scan_on_the_suite_inputs(monkeypatch):
    found = []
    fast = models._anchored_special

    def checked(m):
        special = fast(m)
        assert special == reference_anchored_special(m), m
        found.append(special)
        return special

    monkeypatch.setattr(models, "_anchored_special", checked)
    assert suite_polynomial_models().ok
    assert (len(found), sum(s is not None for s in found)) == (522, 221)
