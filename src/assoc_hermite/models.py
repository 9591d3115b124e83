"""Associated Hermite polynomials by recurrence and by matching models.

The polynomials H_n(x; c) satisfy H_{n+1} = x H_n - (n - 1 + c) H_{n-1}
with H_0 = 1 and H_n = 0 for n < 0.  At c = 1 they reduce to the usual
Hermite polynomials H_{n+1} = x H_n - n H_{n-1}, and Chebyshev U_n sets that
coefficient to 1.  One forward walk runs all three on dense int rows, since
every coefficient counts signed matchings, and keeps only its last two rows.
Each model below builds the same polynomials from weighted matchings, and
the Chebyshev limit extracts U_n(x) from the leading behaviour in c.  The
partial-matching and marker-edge models are summed by the history
recurrences of `_history`; the tests check them against the enumerations
they replace.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator

from .matchings import (
    Blocks,
    Edge,
    Matching,
    _Record,
    _check_cap,
    _pairings,
    _special_mask,
    _trusted,
    enumerate_complete,
    enumerate_incomplete,
    enumerate_inhomogeneous,
    nonnested_edges,
)
from ._history import _marker_edge, _partial_matchings
from .polynomials import Poly, _add_scaled, _gf, _Row


def _next_row(p1: _Row, p2: _Row, b0: int, b1: int) -> _Row:
    """The row of x P1 - (b0 + b1 c) P2: the x-shift copies P1's columns one
    place up, and each b-term is subtracted in place."""
    row = [[]] + [col[:] for col in p1]
    for xd, col in enumerate(p2):
        _add_scaled(row[xd], col, -b0)
        _add_scaled(row[xd], col, -b1, 1)
    return row


def _new_table() -> tuple[list, dict[int, Poly]]:
    """A family table: the walk state [k, row of P_{k-1}, row of P_k], cold
    at k = 1 (P_0 = 1, P_1 = x), and the Poly of each degree asked for."""
    return [1, [[1]], [[], [1]]], {}


def _walk(state: list, b, n: int) -> Iterator[tuple[int, _Row]]:
    """Each degree and int row from P_{k-1} through P_{max(n, k)} of
    P_k = x P_{k-1} - (b0 + b1 c) P_{k-2}, b(k) = (b0, b1).  The state moves
    forward with the walk; a degree it has passed restarts from P_0 and P_1."""
    if n < state[0] - 1:
        state[:] = _new_table()[0]
    k, prev, row = state
    yield from ((k - 1, prev), (k, row))
    while k < n:
        k += 1
        prev, row = row, _next_row(row, prev, *b(k))
        state[:] = k, prev, row
        yield k, row


def _three_term(table: tuple[list, dict[int, Poly]], b, n: int) -> Poly:
    """P_n of the table's walk, zero for n < 0; its Poly is built the first
    time it is asked for and kept."""
    if n < 0:
        return Poly.zero()
    state, polys = table
    if n not in polys:
        polys[n] = Poly._from_rows(next(row for k, row in _walk(state, b, n) if k == n))
    return polys[n]


_ASSOCIATED, _HERMITE, _CHEBYSHEV = (_new_table() for _ in range(3))


def associated_hermite(n: int) -> Poly:
    """H_n(x; c) from the three-term recurrence."""
    return _three_term(_ASSOCIATED, _associated_b, n)


def _associated_b(k: int) -> tuple[int, int]:
    return k - 2, 1


def _hermite_b(k: int) -> tuple[int, int]:
    return k - 1, 0


def usual_hermite(n: int) -> Poly:
    """The matchings-normalized Hermite polynomial H_n(x)."""
    return _three_term(_HERMITE, _hermite_b, n)


def associated_hermite_matchings(n: int) -> Poly:
    """H_n(x; c) as the generating function of partial matchings on [n].

    Fixed points weigh x; an edge weighs -c when it nests no fixed point or
    edge and has no left crossing, and -1 otherwise.  The sum runs as a
    history recurrence and enumerates nothing, so no enumeration cap applies.
    """
    return _partial_matchings(n)


def enumerate_marker_edge_matchings(n: int) -> Iterator[Matching]:
    """Partial matchings on n + 2 vertices whose edge at vertex 1 covers the rest.

    The edge containing vertex 1 is the marker edge.  Every fixed point must sit
    under it, and every other edge must cross it or nest under it, so the
    whole diagram hangs together.
    """
    total = n + 2
    _check_cap(total)
    rest = tuple(range(2, total + 1))
    for t in rest:
        others = tuple(v for v in rest if v != t)
        # Vertices beyond t share a label, so no two of them pair, and only
        # vertices under the marker may stay unpaired.
        label = [min(v, t) for v in range(total + 1)]
        for sub in _pairings(others, label, free=range(2, t)):
            yield _trusted(Matching, n=total, edges=((1, t),) + sub)


def marker_edge_model(n: int) -> Poly:
    """H_n(x; c+1) as the generating function of marker-edge matchings.

    The marker edge weighs +1, fixed points weigh x, edges nested by some
    other edge weigh -1, and the remaining edges weigh -c.  The sum runs as
    a history recurrence and enumerates nothing, so no enumeration cap
    applies.
    """
    return _marker_edge(n)


def associated_in_hermite_basis(n: int) -> Poly:
    """The sum (-1)^k (c)_k binom(n-k, k) H_{n-2k}(x), equal to H_n(x; c+1).

    One walk of the usual Hermite recurrence folds each int row of n's parity,
    times (c)_k, into one dense int row as it passes; the Poly is built once.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rising = [[1]]  # (c)_k for k = 0..n//2, lowest power of c first
    for k in range(1, n // 2 + 1):
        rising.append([(k - 1) * a + b for a, b in zip(rising[-1] + [0], [0] + rising[-1])])
    total: _Row = [[] for _ in range(n + 1)]
    for degree, row in _walk(_new_table()[0], _hermite_b, n):
        if (n - degree) % 2:
            continue
        k = (n - degree) // 2
        scale = (-1) ** k * comb(n - k, k)
        for xd, col in enumerate(row):
            for shift, q in enumerate(col):
                _add_scaled(total[xd], rising[k], scale * q, shift)
    return Poly._from_rows(total)


def chebyshev_u(n: int) -> Poly:
    """Chebyshev U_n(x) via U_{n+1} = x U_n - U_{n-1}."""
    return _three_term(_CHEBYSHEV, lambda k: (1, 0), n)


def chebyshev_u_matchings(n: int) -> Poly:
    """U_n(x) as the generating function of matchings with adjacent edges only.

    Fixed points weigh x and each edge (i, i+1) weighs -1; no other edges
    are allowed.  Used as an independent cross-check of the recurrence.
    """
    adjacent = (
        m for m in enumerate_incomplete(n)
        if all(b == a + 1 for a, b in m.edges)
    )
    return _gf(
        adjacent,
        lambda m: Poly.monomial(len(m.fixed_points()), 0, -1 if len(m.edges) % 2 else 1),
    )


def chebyshev_rescaled_terms(n: int) -> dict[tuple[int, int], Fraction]:
    """Terms of c^(-n/2) H_n(x sqrt(c); c) keyed by (x degree, c exponent).

    The substitution sends x^k c^m to x^k c^(m + (k - n)/2); the parity of
    H_n makes every shifted exponent an integer, and none is positive.
    """
    terms = associated_hermite(n).terms
    for xd, cd in terms:
        if (xd - n) % 2:
            raise AssertionError(f"parity violation in H_{n}: term ({xd},{cd})")
    return {(xd, cd + (xd - n) // 2): q for (xd, cd), q in terms.items()}


def chebyshev_limit(n: int) -> Poly:
    """The limit of c^(-n/2) H_n(x sqrt(c); c) as c grows, computed exactly.

    Rescaling makes every c exponent nonpositive; the limit is the c-degree
    zero part, which equals U_n(x).
    """
    terms = chebyshev_rescaled_terms(n)
    bad = [key for key, _ in terms.items() if key[1] > 0]
    if bad:
        raise AssertionError(f"positive c exponent after rescaling H_{n}: {bad}")
    return Poly({(xd, 0): q for (xd, shift), q in terms.items() if shift == 0})


# ----- complete matchings whose plain edges are anchored by special edges -----


class AnchoredConfig(_Record):
    """A complete matching with its forced set of weight -c (special) edges.

    Special edges are those that nest no edge and have no left crossing; all
    other edges weigh -1 and each must have a left crossing by a special
    edge.  The generating function over 2k vertices is (-1)^k (c)_k.
    """

    matching: Matching
    special: frozenset[Edge]

    def weight(self) -> Poly:
        sign = -1 if len(self.matching.edges) % 2 else 1
        return Poly.monomial(0, len(self.special), sign)


def _anchored_special(m: Matching) -> frozenset[Edge] | None:
    """The special edges of m when every other edge has a left crossing by
    one of them; None when m is not anchored."""
    special, left = _special_mask(m.edges)
    if any(not left[i] & special for i in range(len(m.edges)) if not special >> i & 1):
        return None
    return frozenset(e for i, e in enumerate(m.edges) if special >> i & 1)


def enumerate_anchored_configs(k: int) -> Iterator[AnchoredConfig]:
    """All anchored configurations on 2k vertices."""
    for m in enumerate_complete(2 * k):
        special = _anchored_special(m)
        if special is not None:
            yield AnchoredConfig(m, special)


def anchored_config_gf(k: int) -> Poly:
    """Sum of anchored-configuration weights; equals (-1)^k (c)_k."""
    return _gf(enumerate_anchored_configs(k), AnchoredConfig.weight)


def _insert_edge(m: Matching, gap: int) -> tuple[Matching, Edge, dict[Edge, Edge]]:
    """Insert a new edge with left endpoint after position gap, right endpoint last.

    Returns the enlarged matching, the new edge, and the relabeling of the
    old edges.
    """
    n = m.n
    relabel = {v: (v if v <= gap else v + 1) for v in range(1, n + 1)}
    moved = {e: (relabel[e[0]], relabel[e[1]]) for e in m.edges}
    new_edge = (gap + 1, n + 2)
    enlarged = Matching(n + 2, tuple(moved.values()) + (new_edge,))
    return enlarged, new_edge, moved


def anchored_config_slots(cfg: AnchoredConfig) -> tuple[int, int]:
    """Count gap positions accepting a new -1 edge and a new -c edge.

    The new edge runs from a chosen gap to a fresh rightmost vertex.  For
    every anchored configuration on 2k vertices the counts are (k, 1).
    """
    m = cfg.matching
    plain_slots = 0
    special_slots = 0
    for gap in range(m.n + 1):
        enlarged, new_edge, moved = _insert_edge(m, gap)
        base = frozenset(moved[e] for e in cfg.special)
        special = _anchored_special(enlarged)
        plain_slots += special == base
        special_slots += special == base | {new_edge}
    return plain_slots, special_slots


# ----- complete matchings across two rows, in bijection with permutations -----


def enumerate_two_row_matchings(n: int) -> Iterator[Matching]:
    """Complete matchings on [n] + [n] with every edge spanning the two rows."""
    yield from enumerate_inhomogeneous(Blocks((n, n)))


def two_row_matching_gf(n: int) -> Poly:
    """Nonnested edges weigh c, except the one at vertex 1; equals (c+1)_{n-1}.

    The matchings correspond to permutations of [n], with weight-c edges
    marking left-to-right maxima other than the first.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    # The edge at vertex 1 is never nested.
    return _gf(
        enumerate_two_row_matchings(n),
        lambda m: Poly.monomial(0, len(nonnested_edges(m)) - 1),
    )
