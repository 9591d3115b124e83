"""Associated Hermite polynomials by recurrence and by matching models.

The polynomials H_n(x; c) satisfy H_{n+1} = x H_n - (n - 1 + c) H_{n-1}
with H_0 = 1 and H_n = 0 for n < 0.  At c = 1 they reduce to the usual
Hermite polynomials H_{n+1} = x H_n - n H_{n-1}.  Each model below builds
the same polynomials from weighted matchings, and the Chebyshev limit
extracts U_n(x) from the leading behaviour in c.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Iterator

from .matchings import (
    DEFAULT_CAP,
    Blocks,
    Edge,
    Matching,
    WeightScheme,
    _edge_relations,
    _gf,
    _pairings,
    enumerate_incomplete,
    enumerate_inhomogeneous,
    nonnested_edges,
    weight,
)
from .polynomials import C, Poly, X, rising_factorial


# Each cached recurrence below first fills its cache at every _STRIDE-th
# degree from the bottom up, so a call recurses at most _STRIDE degrees deep
# whatever its degree, and each degree is still computed once.
_STRIDE = 32


def _fill_below(recurrence, n: int) -> None:
    for k in range(_STRIDE, n - 1, _STRIDE):
        recurrence(k)


@cache
def associated_hermite(n: int) -> Poly:
    """H_n(x; c) from the three-term recurrence."""
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    _fill_below(associated_hermite, n)
    # H_n = x H_{n-1} - (n - 2 + c) H_{n-2}
    return X * associated_hermite(n - 1) - (C + (n - 2)) * associated_hermite(n - 2)


@cache
def usual_hermite(n: int) -> Poly:
    """The matchings-normalized Hermite polynomial H_n(x)."""
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    _fill_below(usual_hermite, n)
    return X * usual_hermite(n - 1) - (n - 1) * usual_hermite(n - 2)


def associated_hermite_matchings(n: int, cap: int = DEFAULT_CAP) -> Poly:
    """H_n(x; c) as the generating function of partial matchings on [n].

    Fixed points weigh x; an edge weighs -c when it nests no fixed point or
    edge and has no left crossing, and -1 otherwise.
    """
    return _gf(
        enumerate_incomplete(n, cap=cap),
        lambda m: weight(m, WeightScheme.POLY_RIGHTMOST),
    )


def enumerate_marker_edge_matchings(n: int, cap: int = DEFAULT_CAP) -> Iterator[Matching]:
    """Partial matchings on n + 2 vertices whose edge at vertex 1 covers the rest.

    The edge containing vertex 1 is the marker edge.  Every fixed point must sit
    under it, and every other edge must cross it or nest under it, so the
    whole diagram hangs together.
    """
    total = n + 2
    if total > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")
    rest = tuple(range(2, total + 1))
    for t in rest:
        others = tuple(v for v in rest if v != t)
        for sub in _pairings(others, partial=True):
            fixed = set(others) - {v for e in sub for v in e}
            if any(v > t for v in fixed):
                continue
            if any(a > t for a, _ in sub):
                continue
            yield Matching(total, sub + ((1, t),))


def marker_edge_model(n: int, cap: int = DEFAULT_CAP) -> Poly:
    """H_n(x; c+1) as the generating function of marker-edge matchings.

    The marker edge weighs +1, fixed points weigh x, edges nested by some
    other edge weigh -1, and the remaining edges weigh -c.
    """

    def weigh(m: Matching) -> Poly:
        # The marker edge starts at vertex 1, so nothing nests it.
        special = len(nonnested_edges(m)) - 1
        sign = -1 if (len(m.edges) - 1) % 2 else 1
        return Poly.monomial(len(m.fixed_points()), special, sign)

    return _gf(enumerate_marker_edge_matchings(n, cap=cap), weigh)


def associated_in_hermite_basis(n: int) -> Poly:
    """The sum (-1)^k (c)_k binom(n-k, k) H_{n-2k}(x), equal to H_n(x; c+1)."""
    return _gf(
        range(n // 2 + 1),
        lambda k: (-1) ** k * comb(n - k, k) * rising_factorial(C, k) * usual_hermite(n - 2 * k),
    )


@cache
def chebyshev_u(n: int) -> Poly:
    """Chebyshev U_n(x) via U_{n+1} = x U_n - U_{n-1}."""
    if n < 0:
        return Poly.zero()
    if n == 0:
        return Poly.one()
    _fill_below(chebyshev_u, n)
    return X * chebyshev_u(n - 1) - chebyshev_u(n - 2)


def chebyshev_u_matchings(n: int, cap: int = DEFAULT_CAP) -> Poly:
    """U_n(x) as the generating function of matchings with adjacent edges only.

    Fixed points weigh x and each edge (i, i+1) weighs -1; no other edges
    are allowed.  Used as an independent cross-check of the recurrence.
    """
    adjacent = (
        m for m in enumerate_incomplete(n, cap=cap)
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
    out: dict[tuple[int, int], Fraction] = {}
    for (xd, cd), q in associated_hermite(n).terms.items():
        if (xd - n) % 2:
            raise AssertionError(f"parity violation in H_{n}: term ({xd},{cd})")
        key = (xd, cd + (xd - n) // 2)
        out[key] = out.get(key, Fraction(0)) + q
    return {key: q for key, q in out.items() if q}


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


@dataclass(frozen=True)
class AnchoredConfig:
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


def _special_edges(m: Matching) -> frozenset[Edge]:
    return frozenset(
        e for e, s in _edge_relations(m).items()
        if not s.nests_edge_or_fixed_point and not s.has_left_crossing
    )


def _is_anchored(m: Matching, special: frozenset[Edge]) -> bool:
    if special != _special_edges(m):
        return False
    for e in m.edges:
        if e in special:
            continue
        a, b = e
        if not any(a2 < a < b2 < b for a2, b2 in special):
            return False
    return True


def enumerate_anchored_configs(k: int, cap: int = DEFAULT_CAP) -> Iterator[AnchoredConfig]:
    """All anchored configurations on 2k vertices."""
    from .matchings import enumerate_complete

    for m in enumerate_complete(2 * k, cap=cap):
        special = _special_edges(m)
        if _is_anchored(m, special):
            yield AnchoredConfig(m, special)


def anchored_config_gf(k: int, cap: int = DEFAULT_CAP) -> Poly:
    """Sum of anchored-configuration weights; equals (-1)^k (c)_k."""
    return _gf(enumerate_anchored_configs(k, cap=cap), AnchoredConfig.weight)


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
        if _is_anchored(enlarged, frozenset(base)):
            plain_slots += 1
        if _is_anchored(enlarged, base | {new_edge}):
            special_slots += 1
    return plain_slots, special_slots


# ----- complete matchings across two rows, in bijection with permutations -----


def enumerate_two_row_matchings(n: int, cap: int = DEFAULT_CAP) -> Iterator[Matching]:
    """Complete matchings on [n] + [n] with every edge spanning the two rows."""
    yield from enumerate_inhomogeneous(Blocks((n, n)), cap=cap)


def two_row_matching_gf(n: int, cap: int = DEFAULT_CAP) -> Poly:
    """Nonnested edges weigh c, except the one at vertex 1; equals (c+1)_{n-1}.

    The matchings correspond to permutations of [n], with weight-c edges
    marking left-to-right maxima other than the first.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    # The edge at vertex 1 is never nested.
    return _gf(
        enumerate_two_row_matchings(n, cap=cap),
        lambda m: Poly.monomial(0, len(nonnested_edges(m)) - 1),
    )
