"""History (transfer-matrix) recurrences for sums over matchings.

A history reads the vertices left to right and records, at each vertex,
whether an arc opens or closes there.  Whenever a closing arc's weight
depends only on a few counts of the arcs open at that moment, the sum of
weights over all matchings is a sum over histories in those counts, which
costs time polynomial in the number of vertices (Flajolet, "Combinatorial
aspects of continued fractions", 1980; Viennot, UQAM 1983).

One kernel, `_sweep`, sums every recurrence here: each state maps to its
weight sum, a list of integer coefficients of c, and a move function says
where a state goes at the next vertex and what the step weighs.  Blocks
and rows add a boundary rule, which `_regroup` applies between them.

- `_histories` sums complete matchings on consecutive blocks with no arc
  inside a block, under every WeightScheme (a mirrored one as its image on
  the reversed sizes), so the moments on unit blocks; a backward bound,
  `need`, drops the states that cannot close in time.
- `_paired_rows` sums the signed weights of paired matchings on consecutive
  rows, black arcs staying inside one row.
- `_partial_matchings` and `_marker_edge` sum the two polynomial models of
  `models`, keeping the number of fixed points, the power of x, in the state.

The enumerators these replace stay in the tests as their oracles.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .matchings import _MIRROR, WeightScheme, _exact_sizes
from .polynomials import Poly, _add_scaled

_States = dict[tuple[int, ...], list[int]]


def _sweep(states: _States, remaining: range, moves: Callable) -> _States:
    """Read one vertex per count in remaining, the number of vertices after
    it, largest first.  moves(state, left) yields (state', plain, special):
    state' gains (plain + special c) times the sum of state."""
    for left in reversed(remaining):
        step: _States = {}
        for state, coeffs in states.items():
            for nxt, plain, special in moves(state, left):
                acc = step.setdefault(nxt, [])
                _add_scaled(acc, coeffs, plain)
                _add_scaled(acc, coeffs, special, 1)
        states = step
    return states


def _regroup(states: _States, key: Callable) -> _States:
    """The states renamed by key, summing those it merges and dropping those
    it sends to None."""
    merged: _States = {}
    for state, coeffs in states.items():
        if (new := key(state)) is not None:
            _add_scaled(merged.setdefault(new, []), coeffs, 1)
    return merged


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


def _histories(sizes: tuple[int, ...], scheme: WeightScheme) -> Poly:
    """The weighted block-matching sum as a history recurrence.

    The state is (h, k, r): h arcs are open, k of them opened in the
    current block and r since the last close (0 unless the scheme reads it).
    A vertex opens an arc, or closes one of the h - k from earlier blocks.
    A block opens at most room arcs, room being the vertices after it, so
    need[v], the fewest arcs open with v vertices left, grows by one per
    vertex counted back from the end, but falls by one, down to 0, over each
    block's last room vertices; in the last block every vertex closes.
    """
    if scheme in _MIRROR:
        return _histories(sizes[::-1], _MIRROR[scheme])
    if scheme not in _CLOSING_WEIGHTS:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    closing_weight = _CLOSING_WEIGHTS[scheme]
    tracks_r = scheme is WeightScheme.POLY_RIGHTMOST  # the others keep r at 0
    need = [0]
    for size in reversed(sizes):
        room = len(need) - 1
        for j in range(size):
            need.append(need[-1] + 1 if j >= room else max(need[-1] - 1, 0))

    def moves(state, left):
        h, k, r = state
        if need[left] <= h + 1 <= left:
            yield (h + 1, k + 1, r + 1 if tracks_r else 0), 1, 0
        if h > k and h > need[left]:
            yield (h - 1, k, 0), *closing_weight(h - k, k, r)

    # Every block starts with k = 0.
    return _blockwise(sizes, lambda state: (state[0], 0, state[2]), moves)


def _blockwise(sizes: Sequence[int], boundary: Callable, moves: Callable) -> Poly:
    """The sum of the histories in (h, k, r) on consecutive blocks of these
    sizes that end with no arc open, regrouped by boundary before each."""
    states, remaining = {(0, 0, 0): [1]}, sum(sizes)
    for size in sizes:
        states = _sweep(_regroup(states, boundary), range(remaining - size, remaining), moves)
        remaining -= size
    return Poly._from_rows([states.get((0, 0, 0), [])])


def _paired_rows(rows: Sequence[int]) -> Poly:
    """The sum of the signed paired-matching weights on consecutive rows.

    A paired matching here is a complete matching whose arcs are black or
    green, every black arc inside one row (on two rows, enumerate_paired),
    weighed as in paired_weight.  The state is (g, k, r): g green and k
    black arcs open, r of the black ones since the last close or green
    opening.  Only a green arc with no newer green arc open weighs c, so a
    green close weighs c + g - 1; only the r newest black arcs enclose no
    close or green opening and weigh -c, so a black close -(r c + k - r).
    """
    rows = _exact_sizes(rows, "row")

    def moves(state, left):
        g, k, r = state
        if g + k < left:
            yield (g + 1, k, 0), 1, 0
            yield (g, k + 1, r + 1), 1, 0
        if g:
            yield (g - 1, k, 0), g - 1, 1
        if k:
            yield (g, k - 1, 0), r - k, -r

    # Black arcs stay inside their row.
    return _blockwise(rows, lambda state: state if state[1] == 0 else None, moves)


def _partial_matchings(n: int) -> Poly:
    """The sum of the POLY_RIGHTMOST weights of the partial matchings of [n].

    The state is (h, r, f): h arcs are open, r of them opened since the
    last close or fixed point, and f vertices stayed fixed, each weighing x.
    Only the r newest arcs nest nothing and have no left crossing, so a
    close weighs the `_histories` closing weight with k = 0.
    """
    closing_weight = _CLOSING_WEIGHTS[WeightScheme.POLY_RIGHTMOST]

    def moves(state, left):
        # At least one vertex must follow for each arc left open.
        h, r, f = state
        if h <= left:
            yield (h, 0, f + 1), 1, 0
        if h < left:
            yield (h + 1, r + 1, f), 1, 0
        if h:
            yield (h - 1, 0, f), *closing_weight(h, 0, r)

    states = _sweep({(0, 0, 0): [1]}, range(n), moves)
    return Poly._from_rows([states.get((0, 0, f), []) for f in range(n + 1)])


def _marker_edge(n: int) -> Poly:
    """The sum of the weights of the marker-edge matchings on n + 2 vertices.

    The marker edge (1, t) weighs +1.  The vertices 2, ..., n + 2 are read
    in the state (after, h, f): whether t is read, h arcs open, f fixed.
    Inside the marker every arc is nested by it: a fixed point weighs x, a
    close -h.  t leaves one open arc per vertex after it, each closing one
    that crosses the marker, -(c + h - 1) as only the oldest is unnested.
    """

    def moves(state, left):
        after, h, f = state
        if after:
            yield (1, h - 1, f), 1 - h, -1
            return
        if h == left:
            yield (1, h, f), 1, 0
        if h < left:
            yield (0, h, f + 1), 1, 0
        if h + 1 < left:
            yield (0, h + 1, f), 1, 0
        if h:
            yield (0, h - 1, f), -h, 0

    states = _sweep({(0, 0, 0): [1]}, range(n + 1), moves)
    return Poly._from_rows([states.get((1, 0, f), []) for f in range(n + 1)])
