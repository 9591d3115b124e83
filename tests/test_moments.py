from fractions import Fraction
from itertools import product
from math import prod

import pytest

from assoc_hermite import moments
from assoc_hermite._history import _paired_rows
from assoc_hermite.linearization import product_functional
from assoc_hermite.matchings import WeightScheme, enumerate_complete
from assoc_hermite.models import _hermite_b
from assoc_hermite.moments import (
    PairedMatching,
    cycle_count,
    enumerate_dyck_paths,
    enumerate_paired,
    flip_candidate,
    left_to_right_maxima,
    moment,
    moment_series,
    moment_via_matchings,
    orthogonality_involution,
    paired_to_permutation,
    paired_weight,
)
from assoc_hermite.polynomials import C, Poly, _gf, rising_factorial


def test_dyck_path_counts():
    assert [sum(1 for _ in enumerate_dyck_paths(2 * k)) for k in range(6)] == [
        1, 1, 2, 5, 14, 42,
    ]


def test_moment_reads_the_family_rule(monkeypatch):
    # Under the usual Hermite rule b(k) = k - 1 a down step from height j
    # weighs j, and the moments are those of the Gaussian, (2k - 1)!!.
    moment.cache_clear()
    monkeypatch.setattr(moments, "_associated_b", _hermite_b)
    try:
        for k in range(6):
            assert moment(2 * k) == Poly.constant(prod(range(1, 2 * k, 2))), k
    finally:
        moment.cache_clear()


def test_negative_indices_are_refused():
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        list(enumerate_dyck_paths(-1))
    with pytest.raises(ValueError, match="^moment index must be nonnegative$"):
        moment(-1)


def test_moment_via_matchings_error_contract():
    scheme = WeightScheme.MOMENT_NONNESTED
    assert moment_via_matchings(7, scheme) == Poly.zero()
    # A negative count is refused whether odd or even, as moment(-3) is.
    for n in (-3, -2):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            moment_via_matchings(n, scheme)
    # Past the enumeration cap: nothing is enumerated.  The continued
    # fraction gives the same moment without enumerating Dyck paths.
    assert moment_via_matchings(18, scheme) == moment_series(10, 18, shifted=False)[18]


def test_continued_fraction_truncation():
    series = moment_series(depth=5, order=8, shifted=False)
    assert series[: 9] == [moment(k) for k in range(9)]
    shifted = moment_series(depth=5, order=8, shifted=True)
    assert shifted[: 9] == [moment(k).shift_c() for k in range(9)]


def test_enumerate_paired_is_guarded_by_the_complete_enumerator():
    # An odd total yields nothing, even past the cap; an even one past the
    # cap is refused by enumerate_complete on the first next().
    assert list(enumerate_paired(9, 8)) == []
    paired = enumerate_paired(9, 9)
    with pytest.raises(ValueError, match="^n=18 exceeds the enumeration cap 16$"):
        next(paired)


def test_paired_rows_match_the_per_colouring_sum():
    for total in range(9):
        for n in range(total + 1):
            fast = _paired_rows((n, total - n))
            assert fast == _gf(enumerate_paired(n, total - n), paired_weight)
            for q in fast.terms.values():
                assert type(q) is Fraction and q != 0


def test_paired_rows_reach_past_the_enumeration_cap():
    assert _paired_rows((9, 8)) == Poly.zero()
    assert _paired_rows((9, 9)) == rising_factorial(C, 9)


def enumerate_paired_rows(rows: tuple[int, ...]):
    """enumerate_paired on any number of consecutive rows: every complete
    matching, coloured in all ways that keep each black edge inside one row.
    paired_weight reads only the colours, so each comes back as a
    PairedMatching whose one row holds every vertex."""
    total = sum(rows)
    row_of = [None] + [i for i, size in enumerate(rows) for _ in range(size)]
    for matching in enumerate_complete(total):
        edges = matching.edges
        homogeneous = [e for e in edges if row_of[e[0]] == row_of[e[1]]]
        for mask in range(1 << len(homogeneous)):
            black = tuple(e for i, e in enumerate(homogeneous) if mask >> i & 1)
            green = tuple(e for e in edges if e not in black)
            yield PairedMatching(total, 0, black, green)


def compositions(total: int):
    """Every tuple of positive row sizes summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


# Every row arrangement of an even total of at most 8, and some of total 10.
ROW_ARRANGEMENTS = [rows for total in range(0, 9, 2) for rows in compositions(total)] + [
    (3, 3, 4), (3, 4, 3), (4, 3, 3), (2, 2, 2, 2, 2), (1, 3, 3, 3), (2, 2, 3, 3),
]


def test_paired_rows_match_the_k_row_enumeration():
    assert len(ROW_ARRANGEMENTS) == 177
    for rows in ROW_ARRANGEMENTS:
        assert _paired_rows(rows) == _gf(enumerate_paired_rows(rows), paired_weight), rows


def test_paired_rows_equal_the_product_functional():
    # An observation, not a theorem of the paper: with a row per factor the
    # signed sum is L(H_{n1} ... H_{nk}).
    tuples = [
        ns for parts in range(1, 5) for ns in product(range(6), repeat=parts) if sum(ns) <= 12
    ]
    assert len(tuples) == 1234
    for ns in tuples:
        assert _paired_rows(ns) == product_functional(ns), ns


@pytest.mark.parametrize("n, m", [(-1, 3), (3, -1), (-2, -2)])
def test_negative_row_sizes_are_refused(n, m):
    with pytest.raises(ValueError, match="^row sizes must be nonnegative$"):
        PairedMatching(n, m, (), ((1, 2),))
    with pytest.raises(ValueError, match="^row sizes must be nonnegative$"):
        list(enumerate_paired(n, m))
    with pytest.raises(ValueError, match="^row sizes must be nonnegative$"):
        _paired_rows((n, m))


@pytest.mark.parametrize(
    "black, green, message",
    [
        ((), ((1, 2), (3, 5)), r"^edge \(3,5\) out of range$"),
        ((), ((0, 1), (2, 3)), r"^edge \(0,1\) out of range$"),
        (((2, 1),), ((3, 4),), r"^edge \(2,1\) out of range$"),
        (((1, 2),), ((2, 3),), r"^vertex reused in edge \(2,3\)$"),
        ((), ((1, 3), (3, 4)), r"^vertex reused in edge \(3,4\)$"),
        ((), ((1, 4),), "^paired matching must be complete$"),
        ((), (), "^paired matching must be complete$"),
    ],
    ids=["past-the-end", "vertex-zero", "reversed", "black-and-green", "green-twice",
         "two-left-out", "empty"],
)
def test_paired_matching_refuses_edges_that_do_not_pair_every_vertex(black, green, message):
    with pytest.raises(ValueError, match=message):
        PairedMatching(2, 2, black, green)


def test_flip_candidate_picks_the_leftmost_nest_free_edge():
    # left block of five, right block of three; black (1,5), rest green
    pm = PairedMatching(5, 3, ((1, 5),), ((2, 4), (3, 6), (7, 8)))
    assert flip_candidate(pm) == (2, 4)


def test_fixed_point_permutation_reading():
    pm = PairedMatching(4, 4, (), ((1, 7), (2, 5), (3, 8), (4, 6)))
    pi = paired_to_permutation(pm)
    assert pi == (3, 1, 4, 2)
    assert left_to_right_maxima(pi) == 2
    assert paired_weight(pm) == C**2


def test_permutation_reading_requires_spanning_green():
    with pytest.raises(ValueError):
        paired_to_permutation(PairedMatching(1, 3, (), ((1, 2), (3, 4))))
    with pytest.raises(ValueError):
        paired_to_permutation(PairedMatching(2, 2, (), ((1, 2), (3, 4))))


def test_orthogonality_involution_requires_a_candidate():
    with pytest.raises(ValueError):
        orthogonality_involution(PairedMatching(1, 1, (), ((1, 2),)))


def test_permutation_statistics():
    assert left_to_right_maxima((1, 2, 3)) == 3
    assert left_to_right_maxima((3, 2, 1)) == 1
    assert cycle_count((1, 2, 3)) == 3
    assert cycle_count((2, 3, 1)) == 1
    both = lambda n: (
        sorted(
            left_to_right_maxima(pi)
            for pi in __import__("itertools").permutations(range(1, n + 1))
        ),
        sorted(
            cycle_count(pi)
            for pi in __import__("itertools").permutations(range(1, n + 1))
        ),
    )
    lrm, cyc = both(5)
    assert lrm == cyc  # equidistributed


def reference_paired_weight(pm):
    """The per-edge scans that the colour-masked relation sweep replaced."""
    edges = pm.all_edges()
    sign = 1
    cd = 0
    for e in pm.black:
        a, b = e
        nests = any(a < a2 and b2 < b for a2, b2 in edges if (a2, b2) != e)
        green_cross = any(
            (a2 < a < b2 < b) or (a < a2 < b < b2) for a2, b2 in pm.green
        )
        left_black = any(a2 < a < b2 < b for a2, b2 in pm.black)
        sign = -sign
        if not nests and not green_cross and not left_black:
            cd += 1
    for e in pm.green:
        a, b = e
        if not any(a < a2 < b < b2 for a2, b2 in pm.green):
            cd += 1
    return Poly.monomial(0, cd, sign)


def reference_flip_candidate(pm):
    edges = pm.all_edges()
    best = None
    for e in edges:
        if not pm.is_homogeneous(e):
            continue
        a, b = e
        if any(a < a2 and b2 < b for a2, b2 in edges if (a2, b2) != e):
            continue
        if best is None or e < best:
            best = e
    return best


def test_paired_weight_and_flip_candidate_match_the_scans():
    checked = 0
    for total in range(0, 9, 2):
        for n in range(total + 1):
            for pm in enumerate_paired(n, total - n):
                assert paired_weight(pm) == reference_paired_weight(pm), pm
                assert flip_candidate(pm) == reference_flip_candidate(pm), pm
                checked += 1
    assert checked == 8202


def test_recoloring_keeps_the_public_validation():
    pm = PairedMatching(2, 2, ((1, 2),), ((3, 4),))
    assert pm.recolored((1, 2)) == PairedMatching(2, 2, (), ((1, 2), (3, 4)))
    assert pm.recolored((3, 4)) == PairedMatching(2, 2, ((1, 2), (3, 4)), ())
    spanning = PairedMatching(1, 1, (), ((1, 2),))
    with pytest.raises(ValueError, match=r"black edge \(1, 2\) crosses the row boundary"):
        spanning.recolored((1, 2))
    with pytest.raises(ValueError, match="not present"):
        pm.recolored((1, 3))
