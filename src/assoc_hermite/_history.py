"""History (transfer-matrix) recurrences for sums over matchings.

A history reads the vertices left to right and records, at each vertex,
whether an arc opens or closes there.  Whenever a closing arc's weight
depends only on a few counts of the arcs open at that moment, the sum of
weights over all matchings is a sum over histories in those counts, which
costs time polynomial in the number of vertices (Flajolet, "Combinatorial
aspects of continued fractions", 1980; Viennot, UQAM 1983).  Each state
carries its weight sum as a list of integer coefficients of c, summed by
`polynomials._add_scaled`, and the final list becomes a Poly through
Poly._from_rows.

- `_histories` sums complete matchings on consecutive blocks with no arc
  inside a block, under every WeightScheme; unit blocks give all complete
  matchings, so the moments too.
- `_paired_rows` sums the signed weights of paired matchings on consecutive
  rows, black arcs staying inside one row.
- `_partial_matchings` and `_marker_edge` sum the two polynomial models of
  `models`, keeping the number of fixed points, the power of x, in the state.

The enumerators these replace stay in the tests as their oracles.
"""

from __future__ import annotations

from typing import Sequence

from .matchings import WeightScheme
from .polynomials import Poly, _add_scaled

_States = dict[tuple[int, ...], list[int]]


# How closing one arc weighs, as plain + special * c, given the number of
# closable arcs, k and r (see _histories), for each scheme read left to right.
_CLOSING_WEIGHTS = {
    # Only the oldest open arc is nested by no other arc.
    WeightScheme.MOMENT_NONNESTED: lambda closable, k, r: (closable - 1, 1),
    # Only the newest open arc has no right crossing, and it is closable
    # only when no arc opened in the current block.
    WeightScheme.MOMENT_NO_RIGHT_CROSSING: lambda closable, k, r: (
        (closable - 1, 1) if k == 0 else (closable, 0)
    ),
    # An arc nests nothing and has no left crossing exactly when no vertex
    # closed since it opened: r - k of the closable arcs, each weighing -c.
    WeightScheme.POLY_RIGHTMOST: lambda closable, k, r: (
        -(closable - max(r - k, 0)), -max(r - k, 0)
    ),
}
# The schemes whose closing weight reads r; the others keep r at 0, so
# states that differ only in r merge.
_READS_R = {WeightScheme.POLY_RIGHTMOST}


def _histories(sizes: tuple[int, ...], scheme: WeightScheme) -> Poly:
    """The weighted block-matching sum as a history recurrence.

    The vertices are read left to right in the state (h, k, r): h arcs are
    open, k of them opened in the current block and r since the last close
    (r stays 0 under the schemes that do not read it).  A vertex opens an
    arc, or closes one of the h - k arcs from earlier blocks; that closing
    arc's weight depends only on its rank among the open arcs.
    """
    if scheme is WeightScheme.MOMENT_NO_LEFT_CROSSING:
        return _histories(sizes[::-1], WeightScheme.MOMENT_NO_RIGHT_CROSSING)
    if scheme is WeightScheme.POLY_REVERSED_RIGHTMOST:
        return _histories(sizes[::-1], WeightScheme.POLY_RIGHTMOST)
    if scheme not in _CLOSING_WEIGHTS:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    closing_weight = _CLOSING_WEIGHTS[scheme]
    tracks_r = scheme in _READS_R
    states: _States = {(0, 0, 0): [1]}
    remaining = sum(sizes)
    for size in sizes:
        boundary: _States = {}
        for (h, _, r), coeffs in states.items():
            _add_scaled(boundary.setdefault((h, 0, r), []), coeffs, 1)
        states = boundary
        for _ in range(size):
            remaining -= 1
            step: _States = {}
            for (h, k, r), coeffs in states.items():
                if h < remaining:
                    opened = step.setdefault((h + 1, k + 1, r + 1 if tracks_r else 0), [])
                    _add_scaled(opened, coeffs, 1)
                if h > k:
                    plain, special = closing_weight(h - k, k, r)
                    closed = step.setdefault((h - 1, k, 0), [])
                    _add_scaled(closed, coeffs, plain)
                    _add_scaled(closed, coeffs, special, 1)
            states = step
    return Poly._from_rows([states.get((0, 0, 0), [])])


def _check_rows(rows: Sequence[int]) -> None:
    if any(n < 0 for n in rows):
        raise ValueError("row sizes must be nonnegative")


def _paired_rows(rows: Sequence[int]) -> Poly:
    """The sum of the signed paired-matching weights on consecutive rows.

    A paired matching here is a complete matching of the sum(rows) vertices
    whose arcs are black or green, every black arc inside one row; with two
    rows this is enumerate_paired, and each matching weighs as in
    paired_weight.  The vertices are read left to right in the state
    (g, k, r): g green and k black arcs are open, r of the black ones opened
    since the last close or green opening.

    - A green arc weighs c only when no newer green arc is open as it
      closes, so closing one of the g weighs c + (g - 1).
    - A black arc weighs -c only when nothing closes and no green arc opens
      inside it, which holds for exactly the r newest black arcs, so closing
      one of the k weighs -(r c + (k - r)).
    - Every close and every green opening sets r to 0, and k is 0 at every
      row boundary.
    """
    _check_rows(rows)
    remaining = sum(rows)
    if remaining % 2:
        return Poly.zero()
    states: _States = {(0, 0, 0): [1]}
    for size in rows:
        for _ in range(size):
            remaining -= 1
            step: _States = {}
            for (g, k, r), coeffs in states.items():
                if g + k < remaining:
                    _add_scaled(step.setdefault((g + 1, k, 0), []), coeffs, 1)
                    _add_scaled(step.setdefault((g, k + 1, r + 1), []), coeffs, 1)
                if g:
                    closed = step.setdefault((g - 1, k, 0), [])
                    _add_scaled(closed, coeffs, g - 1)
                    _add_scaled(closed, coeffs, 1, 1)
                if k:
                    closed = step.setdefault((g, k - 1, 0), [])
                    _add_scaled(closed, coeffs, r - k)
                    _add_scaled(closed, coeffs, -r, 1)
            states = step
        # Black arcs stay inside their row.
        states = {key: coeffs for key, coeffs in states.items() if key[1] == 0}
    return Poly._from_rows([states.get((0, 0, 0), [])])


def _partial_matchings(n: int) -> Poly:
    """The sum of the POLY_RIGHTMOST weights of the partial matchings of [n].

    The vertices are read left to right in the state (h, r, f): h arcs are
    open, r of them opened since the last close or fixed point, and f
    vertices stayed fixed.  A fixed point weighs x.  An arc nests nothing
    and has no left crossing exactly when no vertex closed or stayed fixed
    since it opened, which holds for the r newest open arcs, so a close
    weighs -(r c + (h - r)), the `_histories` closing weight with k = 0.
    Every close and fixed point sets r to 0.
    """
    closing_weight = _CLOSING_WEIGHTS[WeightScheme.POLY_RIGHTMOST]
    states: _States = {(0, 0, 0): [1]}
    # remaining vertices follow this one, at least one per arc left open.
    for remaining in range(n - 1, -1, -1):
        step: _States = {}
        for (h, r, f), coeffs in states.items():
            if h <= remaining:
                _add_scaled(step.setdefault((h, 0, f + 1), []), coeffs, 1)
            if h < remaining:
                _add_scaled(step.setdefault((h + 1, r + 1, f), []), coeffs, 1)
            if h:
                plain, special = closing_weight(h, 0, r)
                closed = step.setdefault((h - 1, 0, f), [])
                _add_scaled(closed, coeffs, plain)
                _add_scaled(closed, coeffs, special, 1)
        states = step
    return Poly._from_rows([states.get((0, 0, f), []) for f in range(n + 1)])


def _marker_edge(n: int) -> Poly:
    """The sum of the weights of the marker-edge matchings on n + 2 vertices.

    The marker edge (1, t) weighs +1.  The vertices 2, ..., n + 2 are read
    left to right in the state (h, f): h arcs are open and f vertices stayed
    fixed.
    - Inside the marker every arc is nested by it, so a fixed point weighs
      x and closing one of the h open arcs weighs -h.
    - At t the marker closes, which needs one open arc for each of the
      n + 2 - t vertices after t.
    - After t every vertex closes an arc that crosses the marker.  Only the
      oldest of the j open arcs is nested by none, so the close weighs
      -(c + j - 1).
    """
    inside: _States = {(0, 0): [1]}
    after: _States = {}
    # remaining vertices follow this one; past a vertex inside the marker
    # come t and then one vertex per open arc.
    for remaining in range(n, -1, -1):
        next_inside: _States = {}
        next_after: _States = {}
        for (j, f), coeffs in after.items():
            closed = next_after.setdefault((j - 1, f), [])
            _add_scaled(closed, coeffs, 1 - j)
            _add_scaled(closed, coeffs, -1, 1)
        for (h, f), coeffs in inside.items():
            if h == remaining:
                _add_scaled(next_after.setdefault((h, f), []), coeffs, 1)
            if h < remaining:
                _add_scaled(next_inside.setdefault((h, f + 1), []), coeffs, 1)
            if h + 1 < remaining:
                _add_scaled(next_inside.setdefault((h + 1, f), []), coeffs, 1)
            if h:
                _add_scaled(next_inside.setdefault((h - 1, f), []), coeffs, -h)
        inside, after = next_inside, next_after
    return Poly._from_rows([after.get((0, f), []) for f in range(n + 1)])
