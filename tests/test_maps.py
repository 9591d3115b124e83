"""Tests for rooted one-vertex-marked maps and the tail swap bijection."""

import os
import subprocess
import sys
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest

from assoc_hermite import maps
from assoc_hermite.maps import (
    RootedMap,
    connected_matching_tags,
    connected_matching_weight,
    double_occurrence_word,
    enumerate_rooted_maps,
    map_to_connected_matching,
    marked_word,
    tail_swap,
    tail_swap_inverse,
)
from assoc_hermite.matchings import Matching, _pairings, enumerate_complete, is_connected
from assoc_hermite.polynomials import Poly
from assoc_hermite.verification import suite_bijections

# Rooted maps with E edges (Walsh and Lehman), equivalently connected
# complete matchings on 2E + 2 vertices.
MAP_COUNTS = [1, 2, 10, 74, 706, 8162]

WORKED = RootedMap(
    rotation=(1, 2, 0, 4, 5, 6, 7, 8, 3, 9),
    pairing=(3, 7, 9, 0, 5, 4, 8, 1, 6, 2),
    root=0,
)


def brute_force_rooted_maps(edge_count: int) -> list[RootedMap]:
    """Every (pairing, rotation) pair on 2E darts whose breadth-first
    discovery order from dart 0 is 0, 1, 2, ..., in lexicographic order."""
    if edge_count == 0:
        return [RootedMap((), (), None)]
    n = 2 * edge_count
    out = []
    for edges in _pairings(tuple(range(n))):
        pairing = [0] * n
        for a, b in edges:
            pairing[a], pairing[b] = b, a
        for rotation in permutations(range(n)):
            order = [0]
            for h in order:
                for nxt in (rotation[h], pairing[h]):
                    if nxt not in order:
                        order.append(nxt)
            if order == list(range(n)):
                out.append(RootedMap(rotation, tuple(pairing), 0))
    return out


def test_rooted_maps_match_brute_force():
    for edges in range(4):
        assert list(enumerate_rooted_maps(edges)) == brute_force_rooted_maps(edges)


def test_map_counts():
    for edges, expected in enumerate(MAP_COUNTS):
        assert sum(1 for _ in enumerate_rooted_maps(edges)) == expected


def test_map_counts_match_connected_matchings():
    for edges, expected in enumerate(MAP_COUNTS[:5]):
        n = 2 * edges + 2
        conn = [m for m in enumerate_complete(n) if is_connected(m)]
        assert len(conn) == expected
        images = {map_to_connected_matching(rm) for rm in enumerate_rooted_maps(edges)}
        assert images == set(conn)


def cycles(perm) -> int:
    """The number of cycles of a permutation of range(len(perm))."""
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            h = start
            while h not in seen:
                seen.add(h)
                h = perm[h]
    return count


# Rooted maps by genus (Walsh and Lehman), E = 0..5 edges.
GENUS_COUNTS = {
    0: [1, 2, 9, 54, 378, 2916],
    1: [0, 0, 1, 20, 307, 4280],
    2: [0, 0, 0, 0, 21, 966],
}


def test_rooted_maps_by_genus():
    # Vertices are the cycles of the rotation and faces those of
    # rotation∘pairing; Euler's formula V - E + F = 2 - 2g gives the genus.
    for edges in range(len(MAP_COUNTS)):
        by_genus = {g: 0 for g in GENUS_COUNTS}
        by_vertices_faces = {}
        for rm in enumerate_rooted_maps(edges):
            v = max(1, cycles(rm.rotation))
            f = max(1, cycles([rm.rotation[p] for p in rm.pairing]))
            genus, odd = divmod(2 - v + edges - f, 2)
            assert odd == 0
            by_genus[genus] += 1
            by_vertices_faces[v, f] = by_vertices_faces.get((v, f), 0) + 1
        assert by_genus == {g: counts[edges] for g, counts in GENUS_COUNTS.items()}
        # Tutte's census of rooted planar maps.
        assert by_genus[0] == 2 * 3**edges * factorial(2 * edges) // (
            factorial(edges) * factorial(edges + 2)
        )
        # Duality swaps vertices and faces.
        assert all(by_vertices_faces.get((f, v)) == n for (v, f), n in by_vertices_faces.items())


def test_loop_map():
    rm = RootedMap(rotation=(1, 0), pairing=(1, 0), root=0)
    assert rm.weight() == Poly.one()  # one vertex
    m = map_to_connected_matching(rm)
    assert m == Matching.from_text("(1,4)(2,3)")
    assert connected_matching_tags(m) == frozenset()


def test_link_map():
    rm = RootedMap(rotation=(0, 1), pairing=(1, 0), root=0)
    assert rm.weight() == Poly.monomial(0, 1)  # two vertices
    m = map_to_connected_matching(rm)
    assert m == Matching.from_text("(1,3)(2,4)")
    assert connected_matching_tags(m) == frozenset({(2, 4)})


def test_worked_map_matching_and_word():
    m = map_to_connected_matching(WORKED)
    assert m == Matching.from_text("(1,5)(2,11)(3,9)(4,12)(6,7)(8,10)")
    assert marked_word(m) == ("a", "1", "2", "3", "a", "4", "4", "5", "2", "5", "1", "3")
    assert connected_matching_tags(m) == frozenset({(2, 11), (4, 12)})
    # Map weight (vertices minus one) survives the translation as the tag count.
    assert WORKED.weight() == connected_matching_weight(m) == Poly.monomial(0, 2)


def test_double_occurrence_word():
    m = Matching.from_text("(1,3)(2,6)(4,8)(5,7)")
    assert double_occurrence_word(m) == (1, 2, 1, 3, 4, 2, 4, 3)


def test_marked_word_marks_first_edge():
    m = Matching.from_text("(1,3)(2,4)")
    assert marked_word(m) == ("a", "1", "a", "1")


@pytest.mark.parametrize(
    "rotation, pairing, root, message",
    [
        ((0, 1), (0, 1), 0, "fixed-point-free"),
        ((2, 1), (1, 0), 0, "not a permutation"),
        ((0, 1), (1, 0), 5, "root"),
        ((0, 1, 2, 3), (1, 0, 3, 2), 0, "not connected"),
        ((1, 0, 2), (1, 0, 2), 0, "even"),
    ],
)
def test_rooted_map_validation(rotation, pairing, root, message):
    with pytest.raises(ValueError, match=message):
        RootedMap(rotation=rotation, pairing=pairing, root=root)


def test_tail_swap_worked_map_matching():
    m = map_to_connected_matching(WORKED)
    image, tags = tail_swap(m)
    assert image == Matching.from_text("(1,4)(2,8)(3,10)(5,6)(7,9)")
    assert tags == frozenset({(1, 4), (3, 10)})
    assert tail_swap_inverse(image, tags) == m


def test_tail_swap_inverse_rejects_bad_tags():
    m = Matching.from_text("(1,4)(2,3)")
    with pytest.raises(ValueError, match="nested"):
        tail_swap_inverse(m, {(2, 3)})
    with pytest.raises(ValueError, match="not an edge"):
        tail_swap_inverse(m, {(2, 5)})


def reference_crossing_count(edges):
    """The pairwise scan that the relation masks replaced."""
    return sum(
        1
        for e, f in combinations(edges, 2)
        for a, b in [min(e, f)]
        for a2, b2 in [max(e, f)]
        if a < a2 < b < b2
    )


def test_crossing_count_matches_the_scan_on_the_suite_inputs(monkeypatch):
    counts = []
    fast = maps._crossing_count

    def checked(edges):
        count = fast(edges)
        assert count == reference_crossing_count(edges), edges
        counts.append(count)
        return count

    monkeypatch.setattr(maps, "_crossing_count", checked)
    assert suite_bijections().ok
    # One count per tail swap, of its first state; later states update it.
    assert len(counts) == 1588


ALL_CROSSING = Matching.from_text("".join(f"({i},{i + 300})" for i in range(1, 301)))


@pytest.mark.parametrize(
    "matchings, states",
    [
        ([m for n in range(2, 11, 2) for m in enumerate_complete(n) if is_connected(m)], 1957),
        ([ALL_CROSSING], 300),
    ],
    ids=["connected-up-to-10-vertices", "all-crossing-300-edges"],
)
def test_swap_states_count_crossings_as_the_sweep_does(matchings, states):
    seen = 0
    for m in matchings:
        for edges, marker, _, crossings in maps._swap_states(m):
            assert crossings == maps._crossing_count(edges + [marker]), (m, marker)
            seen += 1
    assert seen == states


# Each stub breaks one invariant the tail swap checks, on a matching it
# reaches.  A swap asks for the crossings of its two new edges, then of the
# two old ones, so answering 1, 1, 0, 0 makes every swap add a crossing.
BROKEN_INVARIANTS = {
    "untagged crossing edge (2, 4)": (
        "(1,3)(2,4)", "maps.connected_matching_tags = lambda m: frozenset()"
    ),
    "crossings did not drop": (
        "(1,3)(2,4)",
        "import itertools\n"
        "answers = itertools.cycle((1, 1, 0, 0))\n"
        "maps._crossings_with = lambda edge, edges: next(answers)",
    ),
    "marker did not reach the last vertex": ("(1,2)(3,4)", "maps.is_connected = lambda m: True"),
}


@pytest.mark.parametrize("message", BROKEN_INVARIANTS)
def test_tail_swap_checks_its_invariants_under_python_O(message):
    matching, stub = BROKEN_INVARIANTS[message]
    code = (
        "from assoc_hermite import maps\n"
        "from assoc_hermite.matchings import Matching\n"
        f"{stub}\n"
        f"maps.tail_swap(Matching.from_text({matching!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(maps.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 1
    assert out.stderr.endswith(f"AssertionError: {message}\n"), out.stderr
