import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from assoc_hermite.matchings import (
    Matching,
    WeightScheme,
    edge_stats,
    weight,
)
from assoc_hermite.polynomials import Poly
from assoc_hermite.tableaux import (
    OscillatingTableau,
    _edge_labels,
    _label_depths,
    _walk_back,
    _walk_step,
    enumerate_tableaux,
    forward_fillings,
    matching_to_tableau,
    tableau_to_matching,
    tableau_weight,
)

WORKED = Matching.from_text("(1,3)(2,6)(4,8)(5,7)")


def complete_from_order(order):
    edges = []
    for i in range(0, len(order), 2):
        a, b = sorted(order[i : i + 2])
        edges.append((a, b))
    return Matching(len(order), tuple(edges))


complete_matchings = (
    st.integers(1, 6)
    .flatmap(lambda h: st.permutations(list(range(1, 2 * h + 1))))
    .map(complete_from_order)
)


def test_worked_instance_shapes():
    t = matching_to_tableau(WORKED)
    assert t.to_text() == "-;1;11;1;11;21;2;1;-"
    assert t.length == 8
    assert tableau_to_matching(t) == WORKED


def test_worked_instance_fillings():
    fillings = forward_fillings(WORKED)
    assert fillings[0] == ()
    assert fillings[1] == ((4,),)
    assert fillings[2] == ((3,), (4,))
    assert fillings[5] == ((1, 2), (3,))
    assert fillings[8] == ()


def test_worked_instance_weights():
    t = matching_to_tableau(WORKED)
    assert tableau_weight(t, "column") == Poly.monomial(0, 3)
    assert tableau_weight(t, "row") == Poly.monomial(0, 2)
    assert tableau_weight(t, "column") == weight(WORKED, WeightScheme.MOMENT_NONNESTED)
    assert tableau_weight(t, "row") == weight(
        WORKED, WeightScheme.MOMENT_NO_RIGHT_CROSSING
    )


@pytest.mark.parametrize(
    "text",
    ["", "1;-", "-;1", "-;3;-", "-;1;1;-", "-;21;-", "-;1,1;-", "-;,;-"],
)
def test_from_text_rejects_bad_walks(text):
    with pytest.raises(ValueError):
        OscillatingTableau.from_text(text)


def test_a_walk_needs_a_shape_and_prints_as_its_text():
    with pytest.raises(ValueError, match="^needs at least the empty shape$"):
        OscillatingTableau(())
    t = matching_to_tableau(WORKED)
    assert str(t) == t.to_text() == "-;1;11;1;11;21;2;1;-"


def test_text_round_trips_on_every_walk_up_to_length_ten():
    walks = [t for length in range(0, 11, 2) for t in enumerate_tableaux(length)]
    assert len(walks) == 1070
    for t in walks:
        assert OscillatingTableau.from_text(t.to_text()) == t


def test_rows_of_ten_or_more_boxes_end_each_part_with_a_comma():
    # The nested matching (1,22)(2,21)...(11,12) grows one row to 11 boxes;
    # read one digit a part, "11" would be the shape (1, 1).
    nested = Matching(22, tuple((i, 23 - i) for i in range(1, 12)))
    text = matching_to_tableau(nested).to_text()
    assert text == "-;1;2;3;4;5;6;7;8;9;10,;11,;10,;9;8;7;6;5;4;3;2;1;-"
    assert tableau_to_matching(OscillatingTableau.from_text(text)) == nested
    text = "-;1;2;3;4;5;6;7;8;9;10,;10,1,;10,;9;8;7;6;5;4;3;2;1;-"
    assert OscillatingTableau.from_text(text).shapes[11] == (10, 1)
    assert OscillatingTableau.from_text(text).to_text() == text
    # Either form reads any shape.
    assert OscillatingTableau.from_text("-;1,;11;1;-") == OscillatingTableau.from_text(
        "-;1;1,1,;1,;-"
    )


@given(complete_matchings)
def test_round_trip_random(m):
    assert tableau_to_matching(matching_to_tableau(m)) == m


@given(complete_matchings)
def test_column_statistic_matches_nonnested_weight(m):
    t = matching_to_tableau(m)
    assert tableau_weight(t, "column") == weight(m, WeightScheme.MOMENT_NONNESTED)


def test_unknown_statistic_rejected():
    with pytest.raises(ValueError):
        tableau_weight(matching_to_tableau(WORKED), "diagonal")


def test_right_crossing_does_not_force_leaving_row_one():
    m = Matching.from_text("(1,5)(2,4)(3,6)")
    assert _edge_labels(m)[2] == 3
    deep_row, _ = _label_depths(matching_to_tableau(m))[3]
    assert deep_row == 0  # crossed from the right, never bumped
    assert edge_stats(m, (2, 4)).has_right_crossing
    assert tableau_weight(matching_to_tableau(m), "row") == Poly.monomial(0, 2)
    assert weight(m, WeightScheme.MOMENT_NO_RIGHT_CROSSING) == Poly.monomial(0, 1)


# ----- the earlier per-label scans and forward walk, kept as oracles -----


def reference_step_size(prev, cur):
    """+1 for one box added, -1 for one removed; anything else is invalid."""
    if len(cur) == len(prev) + 1 and cur[:-1] == prev and cur[-1] == 1:
        return 1
    if len(prev) == len(cur) + 1 and prev[:-1] == cur and prev[-1] == 1:
        return -1
    if len(prev) != len(cur):
        return 0
    diffs = [(i, b - a) for i, (a, b) in enumerate(zip(prev, cur)) if a != b]
    if len(diffs) != 1 or abs(diffs[0][1]) != 1:
        return 0
    return diffs[0][1]


def reference_step_row(prev, cur):
    """The row of a valid step: the first row in which the bigger shape differs."""
    big, small = (prev, cur) if reference_step_size(prev, cur) == -1 else (cur, prev)
    return next(i for i in range(len(big)) if i >= len(small) or big[i] != small[i])


def scan_label_depths(fillings):
    """The deepest row and deepest column, from 0, that each label reaches:
    the scan of every filling that the walk's depth tracking replaced."""
    depths = {}
    for filling in fillings:
        for r, row in enumerate(filling):
            for col, label in enumerate(row):
                deep_row, deep_col = depths.get(label, (0, 0))
                depths[label] = (max(deep_row, r), max(deep_col, col))
    return depths


def forward_tableau_weights(fillings):
    """The column and row weights as defined before the one-walk version:
    each label's depths read from the forward fillings of the inverted
    walk."""
    depths = scan_label_depths(fillings).values()
    return tuple(
        Poly.monomial(0, sum(1 for depth in depths if depth[axis] == 0)) for axis in (1, 0)
    )


def test_backward_walk_retraces_the_forward_fillings():
    count = 0
    for length in range(0, 13, 2):
        for t in enumerate_tableaux(length):
            m = tableau_to_matching(t)
            labels = {}
            backward = [()]
            for v, label, (row, col), rows in _walk_back(t):
                labels[v] = label
                filling = tuple(tuple(r) for r in rows)
                # The label's box: in the filling before v at a right
                # endpoint, in the one after v at a left endpoint.
                boxed = filling if m.edge_of(v)[1] == v else backward[-1]
                assert boxed[row][col] == label
                backward.append(filling)
            fillings = forward_fillings(m)
            assert labels == _edge_labels(m)
            assert backward == fillings[::-1]
            assert _label_depths(t) == scan_label_depths(fillings)
            weights = (tableau_weight(t, "column"), tableau_weight(t, "row"))
            assert weights == forward_tableau_weights(fillings)
            count += 1
    assert count == 11465


@given(
    st.integers(7, 10)
    .flatmap(lambda h: st.permutations(list(range(1, 2 * h + 1))))
    .map(complete_from_order)
)
def test_depth_tracking_and_step_reading_match_the_scans_past_twelve(m):
    t = matching_to_tableau(m)
    assert _label_depths(t) == scan_label_depths(forward_fillings(m))
    for prev, cur in zip(t.shapes, t.shapes[1:]):
        expected = (reference_step_size(prev, cur), reference_step_row(prev, cur))
        assert _walk_step(prev, cur) == expected


def test_step_matches_the_size_and_row_scans():
    pairs = set()
    for length in range(0, 9, 2):
        for t in enumerate_tableaux(length):
            for prev, cur in zip(t.shapes, t.shapes[1:]):
                pairs.update({(prev, cur), (cur, prev)})
    assert len(pairs) == 2 * 14  # every edge of Young's lattice up to four boxes
    for prev, cur in pairs:
        direction = reference_step_size(prev, cur)
        assert direction != 0
        assert _walk_step(prev, cur) == (direction, reference_step_row(prev, cur))


def grown(shape):
    """The shapes from the empty one to the given one, a box at a time, row by row."""
    return [()] + [
        shape[:row] + (width,) for row in range(len(shape)) for width in range(1, shape[row] + 1)
    ]


INVALID_STEPS = [
    ((2, 1), (3, 2)),  # two boxes change
    ((1, 1), (2, 2)),
    ((2, 1), (2, 1)),  # equal shapes
    ((), ()),
    ((2,), (2, 2)),  # a new row whose last part is bigger than 1
    ((3, 2), (3,)),
    ((), (2,)),
]


@pytest.mark.parametrize("prev, cur", INVALID_STEPS)
def test_a_step_of_more_or_less_than_one_box_is_refused(prev, cur):
    # A walk from the empty shape up to prev, over to cur and back down is
    # valid everywhere but at the one step prev -> cur.
    shapes = grown(prev) + grown(cur)[::-1]
    assert reference_step_size(prev, cur) == 0
    message = f"step {prev!r} -> {cur!r} is not a single box"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OscillatingTableau(tuple(shapes))
