"""Oscillating tableaux and their bijection with complete matchings.

An oscillating tableau is a walk on Young diagrams that starts and ends
at the empty shape and adds or removes exactly one box per step.  Walks
of length 2n correspond to complete matchings on [n]: processing vertices
left to right, a left endpoint row-inserts its edge label and a right
endpoint deletes the label's box.  Labels are assigned to edges by right
endpoint, in descending order, so the deleted label is always the largest
in the filling and its box is a corner.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import zip_longest
from typing import Iterator

from .matchings import Matching, _Record, _trusted, enumerate_complete
from .polynomials import Poly

Partition = tuple[int, ...]
Filling = tuple[tuple[int, ...], ...]


def _is_partition(shape: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(shape, shape[1:])) and all(a > 0 for a in shape)


class OscillatingTableau(_Record):
    """A sequence of partitions changing by one box, empty to empty."""

    shapes: tuple[Partition, ...]

    def __post_init__(self):
        shapes = tuple(tuple(s) for s in self.shapes)
        object.__setattr__(self, "shapes", shapes)
        if not shapes:
            raise ValueError("needs at least the empty shape")
        if shapes[0] != () or shapes[-1] != ():
            raise ValueError("walk must start and end at the empty shape")
        for s in shapes:
            if not _is_partition(s):
                raise ValueError(f"{s!r} is not a partition")
        for prev, cur in zip(shapes, shapes[1:]):
            if sum(abs(a - b) for a, b in zip_longest(prev, cur, fillvalue=0)) != 1:
                raise ValueError(f"step {prev!r} -> {cur!r} is not a single box")

    @property
    def length(self) -> int:
        return len(self.shapes) - 1

    def to_text(self) -> str:
        """The shapes joined by ";", "-" for the empty one.  A shape whose
        parts are all at most 9 is its digits ("21"); any other shape ends
        each part with "," ("10,1,"), so no part is misread as two."""

        def one(s: Partition) -> str:
            if not s:
                return "-"
            return "".join(map(str, s)) if s[0] <= 9 else "".join(f"{part}," for part in s)

        return ";".join(one(s) for s in self.shapes)

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "OscillatingTableau":
        """Read the form to_text writes; a shape may take either form."""
        shapes = []
        for chunk in text.strip().split(";"):
            chunk = chunk.strip()
            if chunk == "-":
                shapes.append(())
            elif re.fullmatch(r"\d+", chunk):
                shapes.append(tuple(int(d) for d in chunk))
            elif re.fullmatch(r"(\d+,)+", chunk):
                shapes.append(tuple(int(part) for part in chunk[:-1].split(",")))
            else:
                raise ValueError(f"bad shape {chunk!r}")
        return cls(tuple(shapes))


def _edge_labels(m: Matching) -> dict[int, int]:
    """Label each edge by its right endpoint, in descending order from 1.

    Returns a map from either endpoint to the shared label, so the edge
    closing last gets label 1 and the one closing first gets the largest.
    """
    by_right = sorted(m.edges, key=lambda e: e[1], reverse=True)
    labels: dict[int, int] = {}
    for i, (a, b) in enumerate(by_right, start=1):
        labels[a] = i
        labels[b] = i
    return labels


def _row_insert(rows: list[list[int]], value: int) -> None:
    v = value
    for row in rows:
        pos = bisect_right(row, v)
        if pos == len(row):
            row.append(v)
            return
        row[pos], v = v, row[pos]
    rows.append([v])


def _delete_value(rows: list[list[int]], value: int) -> None:
    """Remove a value that is the maximum of the filling.

    Being the maximum it sits at the end of its row with nothing below,
    so removing its box keeps the rows a valid filling.
    """
    for i, row in enumerate(rows):
        if row and row[-1] == value:
            row.pop()
            if not row:
                rows.pop(i)
            return
    raise ValueError(f"{value} is not removable")


def forward_fillings(m: Matching) -> list[Filling]:
    """The filling after each vertex, starting from the empty one.

    Entry k is the filling after processing vertices 1..k; the shapes of
    these fillings form the oscillating tableau of the matching.
    """
    if not m.is_complete():
        raise ValueError("needs a complete matching")
    labels = _edge_labels(m)
    rows: list[list[int]] = []
    out: list[Filling] = [()]
    for v in range(1, m.n + 1):
        a, b = m.edge_of(v)
        if v == a:
            _row_insert(rows, labels[v])
        else:
            _delete_value(rows, labels[v])
        out.append(tuple(tuple(r) for r in rows))
    return out


def matching_to_tableau(m: Matching) -> OscillatingTableau:
    shapes = tuple(tuple(len(r) for r in f) for f in forward_fillings(m))
    return _trusted(OscillatingTableau, shapes=shapes)


def _reverse_insert(rows: list[list[int]], row_index: int) -> tuple[int, int]:
    """Undo a row insertion whose final box is the corner of row_index;
    return the value ejected from row 0 and the column it left."""
    row = rows[row_index]
    v = row.pop()
    col = len(row)
    if not row:
        rows.pop(row_index)
    for i in range(row_index - 1, -1, -1):
        col = bisect_left(rows[i], v) - 1
        rows[i][col], v = v, rows[i][col]
    return v, col


def _walk_step(prev: Partition, cur: Partition) -> tuple[int, int]:
    """The direction and row of a step that moves one box: (+1, row) for a
    box added in that row, (-1, row) for one removed.  Compared as tuples,
    the shape with the box is the bigger one, and the box's row is the
    first in which the two differ."""
    row = 0
    for a, b in zip(prev, cur):
        if a != b:
            break
        row += 1
    return (1 if cur > prev else -1), row


def _walk_back(
    t: OscillatingTableau,
) -> Iterator[tuple[int, int, tuple[int, int], list[list[int]]]]:
    """Run the walk backward, from the final empty shape toward the start.

    A shrink step of the forward walk looks like growth: it reintroduces
    the next unseen label (counting up from 1) at the recorded corner, for
    a right endpoint.  A forward growth step looks like a shrink: reverse
    insertion from its corner ejects the label, for a left endpoint.  For
    each vertex v from the last this yields v, the label _edge_labels gives
    its edge, the box (row, column) where the label enters the filling at a
    right endpoint or leaves it at a left one, and the filling before v,
    forward_fillings(m)[v - 1]: one list of rows, changed in place by the
    next step.
    """
    shapes = t.shapes
    rows: list[list[int]] = []
    next_label = 1
    for v in range(t.length, 0, -1):
        direction, row_index = _walk_step(shapes[v - 1], shapes[v])
        if direction == -1:
            if row_index == len(rows):
                rows.append([])
            row = rows[row_index]
            row.append(next_label)
            label, box = next_label, (row_index, len(row) - 1)
            next_label += 1
        else:
            label, col = _reverse_insert(rows, row_index)
            box = (0, col)
        yield v, label, box, rows


def tableau_to_matching(t: OscillatingTableau) -> Matching:
    """Invert the bijection by running the walk backward: a label met for
    the first time marks a right endpoint, and met again its edge's left
    one."""
    right_end: dict[int, int] = {}
    edges = []
    for v, label, _, _ in _walk_back(t):
        if label in right_end:
            edges.append((v, right_end.pop(label)))
        else:
            right_end[label] = v
    if right_end:
        raise ValueError("walk did not close all edges")
    return Matching(t.length, tuple(edges))


def _label_depths(t: OscillatingTableau) -> dict[int, tuple[int, int]]:
    """The deepest row and deepest column, from 0, that each label reaches
    in the fillings of the walk.

    Reverse insertion moves a label up one row and weakly right: the entry
    above it is smaller (columns increase), so the largest entry smaller
    than it in the row above sits in that column or further right.  Nothing
    else moves a label.  So along the backward walk a label's row index only
    falls and its column only grows: its deepest row is where it enters the
    filling, and its deepest column where it leaves."""
    entry_row: dict[int, int] = {}
    depths: dict[int, tuple[int, int]] = {}
    for _, label, (row, col), _ in _walk_back(t):
        if label in entry_row:
            depths[label] = (entry_row.pop(label), col)
        else:
            entry_row[label] = row
    return depths


def tableau_weight(t: OscillatingTableau, statistic: str = "column") -> Poly:
    """c to the number of labels confined to column 1 (or row 1).

    The column statistic matches the nonnested moment weight of the
    corresponding matching, edge for edge.  The row statistic is weaker:
    a label that leaves row 1 was bumped by an edge crossing it from the
    right, but an edge with such a crossing need not be the one bumped,
    so confinement to row 1 neither matches the no-right-crossing weight
    pointwise nor sums to the moments.  Smallest separating matching:
    (1,5)(2,4)(3,6), row weight c^2, no-right-crossing weight c.
    """
    if statistic not in ("column", "row"):
        raise ValueError(f"unknown statistic {statistic!r}")
    axis = 1 if statistic == "column" else 0
    depths = _label_depths(t).values()
    return Poly.monomial(0, sum(1 for depth in depths if depth[axis] == 0))


def enumerate_tableaux(length: int) -> Iterator[OscillatingTableau]:
    """All oscillating tableaux of the given even length, via matchings."""
    for m in enumerate_complete(length):
        yield matching_to_tableau(m)
