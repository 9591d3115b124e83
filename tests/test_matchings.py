import pytest
from hypothesis import given
from hypothesis import strategies as st

from assoc_hermite._history import _paired_rows
from assoc_hermite.linearization import inhomogeneous_gf
from assoc_hermite.matchings import (
    Blocks,
    EdgeStats,
    Matching,
    WeightScheme,
    _relation_masks,
    edge_stats,
    enumerate_complete,
    enumerate_incomplete,
    enumerate_inhomogeneous,
    is_connected,
    nonnested_edges,
    reverse,
    weight,
)
from assoc_hermite.moments import PairedMatching, enumerate_paired
from assoc_hermite.polynomials import Poly
from assoc_hermite.tableaux import OscillatingTableau, enumerate_tableaux


def complete_from_order(order):
    """Pair consecutive entries of a shuffled vertex list."""
    edges = []
    for i in range(0, len(order), 2):
        a, b = sorted(order[i : i + 2])
        edges.append((a, b))
    return Matching(len(order), tuple(sorted(edges)))


complete_matchings = (
    st.integers(1, 6)
    .flatmap(lambda h: st.permutations(list(range(1, 2 * h + 1))))
    .map(complete_from_order)
)


def test_double_factorial_counts():
    sizes = [sum(1 for _ in enumerate_complete(2 * h)) for h in range(5)]
    assert sizes == [1, 1, 3, 15, 105]


def test_incomplete_counts_include_fixed_points():
    sizes = [sum(1 for _ in enumerate_incomplete(n)) for n in range(7)]
    assert sizes == [1, 1, 2, 4, 10, 26, 76]


def test_from_text_examples():
    m = Matching.from_text("(1,5)(2,4)(3,8)(6,7)")
    assert m.n == 8
    assert m.edges == ((1, 5), (2, 4), (3, 8), (6, 7))
    assert m.to_text() == "(1,5)(2,4)(3,8)(6,7)"
    assert Matching.from_text("", n=3).fixed_points() == (1, 2, 3)
    # n defaults to the largest endpoint on either side of an edge.
    assert Matching.from_text("(2,1)") == Matching(2, ((1, 2),))
    assert Matching.from_text("(1,2)(4,3)") == Matching(4, ((1, 2), (3, 4)))


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Matching.from_text("(1,1)")
    with pytest.raises(ValueError):
        Matching.from_text("(1,2)(2,3)")
    with pytest.raises(ValueError):
        Matching.from_text("(1,2", n=2)


@given(complete_matchings)
def test_text_round_trip(m):
    assert Matching.from_text(m.to_text()) == m


@given(complete_matchings)
def test_reverse_is_an_involution(m):
    assert reverse(reverse(m)) == m


@given(complete_matchings)
def test_reverse_swaps_crossing_sides(m):
    # weight reads MOMENT_NO_LEFT_CROSSING off the reversed matching, so the
    # mirror is checked on the edge relations themselves.
    r = reverse(m)
    for a, b in m.edges:
        stats = edge_stats(m, (a, b))
        mirrored = edge_stats(r, (m.n + 1 - b, m.n + 1 - a))
        assert (stats.has_left_crossing, stats.has_right_crossing) == (
            mirrored.has_right_crossing, mirrored.has_left_crossing
        )


def test_edge_stats_on_a_small_instance():
    m = Matching.from_text("(1,5)(2,4)(3,6)")
    outer = edge_stats(m, (1, 5))
    inner = edge_stats(m, (2, 4))
    late = edge_stats(m, (3, 6))
    assert outer.nests_edge_or_fixed_point and not outer.is_nested_by_other
    assert inner.is_nested_by_other and not inner.nests_edge_or_fixed_point
    assert outer.has_right_crossing and inner.has_right_crossing
    assert late.has_left_crossing and not late.has_right_crossing
    assert nonnested_edges(m) == ((1, 5), (3, 6))


def reference_edge_stats(m, e):
    """The per-edge scan that the single relation pass replaced."""
    if e not in m.edges:
        raise ValueError(f"edge {e!r} not in matching {m}")
    a, b = e
    nested = False
    left = False
    right = False
    nests = any(a < v < b for v in m.fixed_points())
    for a2, b2 in m.edges:
        if (a2, b2) == e:
            continue
        if a2 < a and b < b2:
            nested = True
        if a2 < a < b2 < b:
            left = True
        if a < a2 < b < b2:
            right = True
        if a < a2 and b2 < b:
            nests = True
    return EdgeStats(nested, left, right, nests)


def reference_nonnested_edges(m):
    return tuple(
        e for e in m.edges
        if not any(a2 < e[0] and e[1] < b2 for a2, b2 in m.edges if (a2, b2) != e)
    )


def reference_weight(m, scheme):
    """The weight of m under scheme, counted from the per-edge scan."""
    if scheme is WeightScheme.POLY_REVERSED_RIGHTMOST:
        return reference_weight(reverse(m), WeightScheme.POLY_RIGHTMOST)
    stats = [reference_edge_stats(m, e) for e in m.edges]
    if scheme is WeightScheme.POLY_RIGHTMOST:
        special = sum(not s.nests_edge_or_fixed_point and not s.has_left_crossing for s in stats)
        return Poly.monomial(len(m.fixed_points()), special, (-1) ** len(m.edges))
    if scheme is WeightScheme.MOMENT_NONNESTED:
        return Poly.monomial(0, len(reference_nonnested_edges(m)))
    if scheme is WeightScheme.MOMENT_NO_RIGHT_CROSSING:
        return Poly.monomial(0, sum(not s.has_right_crossing for s in stats))
    return Poly.monomial(0, sum(not s.has_left_crossing for s in stats))


def test_edge_relations_match_the_per_edge_scan():
    checked = 0
    for n in range(9):
        for m in enumerate_incomplete(n):
            for e in m.edges:
                assert edge_stats(m, e) == reference_edge_stats(m, e), (m, e)
            assert nonnested_edges(m) == reference_nonnested_edges(m)
            schemes = WeightScheme if m.is_complete() else (
                WeightScheme.POLY_RIGHTMOST, WeightScheme.POLY_REVERSED_RIGHTMOST
            )
            for scheme in schemes:
                assert weight(m, scheme) == reference_weight(m, scheme), (m, scheme)
            checked += 1
    assert checked == 1116


def pairwise_relation_masks(edges):
    """The edges each edge nests, and those crossing it from the left and
    from the right, by comparing every pair."""
    masks = ([], [], [])
    for a, b in edges:
        for mask, related in zip(masks, (
            lambda a2, b2: a < a2 and b2 < b,
            lambda a2, b2: a2 < a < b2 < b,
            lambda a2, b2: a < a2 < b < b2,
        )):
            mask.append(sum(1 << j for j, (a2, b2) in enumerate(edges) if related(a2, b2)))
    return tuple(tuple(mask) for mask in masks)


def test_cached_relation_masks_equal_the_uncached_sweep():
    sweep = _relation_masks.__wrapped__
    checked = 0
    for n in range(11):
        for m in enumerate_incomplete(n):
            cached = _relation_masks(m.edges)
            assert cached == sweep(m.edges) == pairwise_relation_masks(m.edges), m
            assert _relation_masks(m.edges) is cached
            checked += 1
    assert checked == 13232


def test_relation_mask_cache_is_small_and_its_values_immutable():
    maxsize = _relation_masks.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    masks = _relation_masks(((1, 4), (2, 5), (3, 6)))
    assert masks == ((0, 0, 0), (0, 1, 3), (6, 4, 0))
    for part in masks:
        assert type(part) is tuple
        with pytest.raises(TypeError):
            part[0] = 1
    # Far more distinct matchings than entries: the cache stays at its bound.
    for m in enumerate_complete(8):
        _relation_masks(m.edges)
    assert _relation_masks.cache_info().currsize == maxsize


def test_enumeration_order_is_pinned():
    assert [m.edges for m in enumerate_incomplete(4)] == [
        (), ((3, 4),), ((2, 3),), ((2, 4),), ((1, 2),), ((1, 2), (3, 4)),
        ((1, 3),), ((1, 3), (2, 4)), ((1, 4),), ((1, 4), (2, 3)),
    ]
    assert [m.to_text() for m in enumerate_complete(6)] == [
        "(1,2)(3,4)(5,6)", "(1,2)(3,5)(4,6)", "(1,2)(3,6)(4,5)",
        "(1,3)(2,4)(5,6)", "(1,3)(2,5)(4,6)", "(1,3)(2,6)(4,5)",
        "(1,4)(2,3)(5,6)", "(1,4)(2,5)(3,6)", "(1,4)(2,6)(3,5)",
        "(1,5)(2,3)(4,6)", "(1,5)(2,4)(3,6)", "(1,5)(2,6)(3,4)",
        "(1,6)(2,3)(4,5)", "(1,6)(2,4)(3,5)", "(1,6)(2,5)(3,4)",
    ]
    assert [m.to_text() for m in enumerate_inhomogeneous(Blocks((2, 1, 3)))] == [
        "(1,4)(2,5)(3,6)", "(1,4)(2,6)(3,5)", "(1,5)(2,4)(3,6)",
        "(1,5)(2,6)(3,4)", "(1,6)(2,4)(3,5)", "(1,6)(2,5)(3,4)",
    ]


def test_edge_stats_requires_membership():
    with pytest.raises(ValueError):
        edge_stats(Matching.from_text("(1,2)"), (1, 3))


def test_poly_rightmost_weighting_instance():
    # weight -c needs: nests nothing, no left crossing
    m = Matching.from_text("(2,5)(3,4)", n=6)
    w = weight(m, WeightScheme.POLY_RIGHTMOST)
    assert w == Poly({(2, 1): 1})  # x^2 from 1 and 6, (3,4) earns -c, (2,5) nests


def test_blocks_partition_vertices():
    b = Blocks((2, 3, 1))
    assert b.total == 6
    assert b.labels() == [0, 0, 0, 1, 1, 1, 2]
    # Empty blocks hold no vertex, wherever they sit.
    assert Blocks((0, 2, 0, 1)).labels() == [0, 1, 1, 3]


# Each entry point that takes block or row sizes, with sizes that are not
# exact ints; none may round them to the ints below.
INEXACT_SIZES = {
    "Blocks": lambda: Blocks((2.7, 1.3)),
    "inhomogeneous_gf": lambda: inhomogeneous_gf((2.5, 1.5), WeightScheme.MOMENT_NONNESTED),
    "PairedMatching": lambda: PairedMatching(2.0, 0, ((1, 2),), ()),
    "enumerate_paired": lambda: list(enumerate_paired(0.5, 0.5)),
}


@pytest.mark.parametrize("call", INEXACT_SIZES.values(), ids=INEXACT_SIZES)
def test_inexact_sizes_are_refused(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Blocks((1, -1)), "block sizes must be nonnegative"),
        (lambda: PairedMatching(-1, 1, (), ()), "row sizes must be nonnegative"),
        (lambda: list(enumerate_paired(2, -2)), "row sizes must be nonnegative"),
        (lambda: _paired_rows((1, -1)), "row sizes must be nonnegative"),
    ],
    ids=["Blocks", "PairedMatching", "enumerate_paired", "_paired_rows"],
)
def test_negative_sizes_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_inhomogeneous_enumeration_count():
    ms = list(enumerate_inhomogeneous(Blocks((2, 2, 2))))
    assert len(ms) == 8
    assert all(m.is_complete() for m in ms)
    label = Blocks((2, 2, 2)).labels()
    for m in ms:
        assert all(label[x] != label[y] for x, y in m.edges)


def test_inhomogeneous_needs_even_total():
    with pytest.raises(ValueError):
        list(enumerate_inhomogeneous(Blocks((1, 2))))


def test_is_connected_examples():
    assert is_connected(Matching.from_text("(1,3)(2,4)"))
    assert not is_connected(Matching.from_text("(1,2)(3,4)"))
    assert not is_connected(Matching.from_text("(1,4)(2,3)(5,6)"))
    assert is_connected(Matching.from_text("(1,4)(2,6)(3,5)"))
    assert is_connected(Matching(0, ()))


def test_trusted_results_equal_their_validated_rebuilds():
    """Every enumerator, and the forward walk that builds tableaux, skips
    validation; the public constructors must accept each object it yields
    and rebuild an equal one."""
    matchings = [m for n in range(9) for m in enumerate_incomplete(n)]
    matchings += [m for n in range(0, 9, 2) for m in enumerate_complete(n)]
    matchings += [
        m
        for sizes in ((2, 2, 2), (1, 3, 2), (3, 1, 1, 1), (0, 4, 2, 2))
        for m in enumerate_inhomogeneous(Blocks(sizes))
    ]
    for m in matchings:
        rebuilt = Matching(m.n, m.edges)
        assert rebuilt == m and repr(rebuilt) == repr(m), m
    paired = [pm for total in range(0, 9, 2) for n in range(total + 1)
              for pm in enumerate_paired(n, total - n)]
    paired += [pm.recolored(e) for pm in paired for e in pm.all_edges()
               if pm.is_homogeneous(e)]
    for pm in paired:
        rebuilt = PairedMatching(pm.n, pm.m, pm.black, pm.green)
        assert rebuilt == pm and repr(rebuilt) == repr(pm), pm
    tableaux = [t for length in range(0, 11, 2) for t in enumerate_tableaux(length)]
    for t in tableaux:
        rebuilt = OscillatingTableau(t.shapes)
        assert rebuilt == t and repr(rebuilt) == repr(t), t
    assert (len(matchings), len(paired), len(tableaux)) == (1285, 34890, 1070)
