"""Moments of the associated Hermite orthogonality functional.

The functional L_c sends x^n to the nth moment mu_n(c), the generating
function of weighted Dyck paths: an up step weighs 1 and a down step from
height j weighs j - 1 + c.  Orthogonality L_c(H_n H_m) = 0 (n != m) and
(c)_n (n = m) is also checked combinatorially here, through paired
matchings and a sign-reversing involution on them.

The moments as sums over complete matchings, `moment_via_matchings`, come
from the history recurrence `_history._histories` on blocks of one vertex,
and the sum of paired-matching weights from `_history._paired_rows`; neither
enumerates.  `weight` over `enumerate_complete` and `paired_weight` over
`enumerate_paired` stay the per-object definitions, and the tests check
both recurrences against them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from ._history import _check_rows, _histories
from .matchings import (
    Edge,
    WeightScheme,
    _Record,
    _relation_masks,
    _trusted,
    enumerate_complete,
)
from .models import associated_hermite
from .polynomials import C, Poly, _gf

DyckPath = tuple[int, ...]

_SIGNS = (Fraction(1), Fraction(-1))


def enumerate_dyck_paths(length: int) -> Iterator[DyckPath]:
    """All +-1 step sequences of the given length from height 0 back to 0."""
    if length < 0:
        raise ValueError("length must be nonnegative")

    def rec(steps: tuple[int, ...], height: int, remaining: int) -> Iterator[DyckPath]:
        if remaining == 0:
            if height == 0:
                yield steps
            return
        if height > remaining:
            return
        yield from rec(steps + (1,), height + 1, remaining - 1)
        if height > 0:
            yield from rec(steps + (-1,), height - 1, remaining - 1)

    yield from rec((), 0, length)


def _path_weight(path: DyckPath, down: Sequence[Poly]) -> Poly:
    """The product over the path's down steps of down[j], j the height the
    step starts from."""
    height = 0
    w = Poly.one()
    for step in path:
        if step == 1:
            height += 1
        else:
            w = w * down[height]
            height -= 1
    return w


@cache
def moment(n: int) -> Poly:
    """The nth moment mu_n(c), summed over weighted Dyck paths."""
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    if n % 2:
        return Poly.zero()
    # The weight c + j - 1 of a down step from each height j a path reaches.
    down = [C + (j - 1) for j in range(n // 2 + 1)]
    return _gf(enumerate_dyck_paths(n), lambda path: _path_weight(path, down))


def moment_via_matchings(n: int, scheme: WeightScheme) -> Poly:
    """The nth moment as a sum over complete matchings on [n].

    Blocks of one vertex each admit every complete matching, so this is the
    block-matching history recurrence on n unit blocks; odd n gives zero.
    """
    if n % 2:
        return Poly.zero()
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return _histories((1,) * n, scheme)


def apply_functional(p: Poly) -> Poly:
    """Apply L_c coefficientwise: x^k c^m goes to mu_k(c) c^m."""

    def term(item) -> Poly:
        (xd, cd), q = item
        return Poly.monomial(0, cd, q) * moment(xd)

    return _gf(p.terms.items(), term)


def inner_product(n: int, m: int) -> Poly:
    """L_c(H_n H_m); zero off the diagonal and (c)_n on it."""
    return apply_functional(associated_hermite(n) * associated_hermite(m))


# ----- paired matchings -----


class PairedMatching(_Record):
    """A complete matching on [n] + [m] with black and green edges.

    Vertices 1..n form the left row and n+1..n+m the right row.  Black
    edges stay inside one row (they come from the two polynomial factors);
    green edges are unrestricted (they come from the moment functional).
    """

    n: int
    m: int
    black: tuple[Edge, ...]
    green: tuple[Edge, ...]

    def __post_init__(self):
        _check_rows((self.n, self.m))
        object.__setattr__(self, "black", tuple(sorted(self.black)))
        object.__setattr__(self, "green", tuple(sorted(self.green)))
        total = self.n + self.m
        seen: set[int] = set()
        for a, b in self.black + self.green:
            if not (1 <= a < b <= total):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a in seen or b in seen:
                raise ValueError(f"vertex reused in edge ({a},{b})")
            seen.update((a, b))
        if len(seen) != total:
            raise ValueError("paired matching must be complete")
        for e in self.black:
            if not self.is_homogeneous(e):
                raise ValueError(f"black edge {e!r} crosses the row boundary")

    def is_homogeneous(self, e: Edge) -> bool:
        a, b = e
        return (b <= self.n) or (a > self.n)

    def all_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.black + self.green))

    def recolored(self, e: Edge) -> "PairedMatching":
        """The same matching with e in the other colour; e must be homogeneous
        to turn black."""
        if e in self.black:
            black = tuple(x for x in self.black if x != e)
            green = tuple(sorted(self.green + (e,)))
        elif e in self.green:
            if not self.is_homogeneous(e):
                raise ValueError(f"black edge {e!r} crosses the row boundary")
            black = tuple(sorted(self.black + (e,)))
            green = tuple(x for x in self.green if x != e)
        else:
            raise ValueError(f"edge {e!r} not present")
        return _trusted(PairedMatching, n=self.n, m=self.m, black=black, green=green)


def enumerate_paired(n: int, m: int) -> Iterator[PairedMatching]:
    """All paired matchings on [n] + [m].

    Every complete matching of the n + m vertices is colored in all ways
    that keep black edges homogeneous.  An odd total yields nothing.
    """
    _check_rows((n, m))
    total = n + m
    if total % 2:
        return
    for matching in enumerate_complete(total):
        edges = matching.edges
        homogeneous = [e for e in edges if (e[1] <= n) or (e[0] > n)]
        for mask in range(1 << len(homogeneous)):
            black = tuple(e for i, e in enumerate(homogeneous) if mask >> i & 1)
            green = tuple(e for e in edges if e not in black)
            yield _trusted(PairedMatching, n=n, m=m, black=black, green=green)


def paired_weight(pm: PairedMatching) -> Poly:
    """The signed weight of a paired matching.

    A black edge weighs -c when it nests no edge, has no green crossing,
    and has no left black crossing; otherwise -1.  A green edge weighs c
    when it has no right green crossing; otherwise 1.
    """
    edges = pm.all_edges()
    nests, left, right = _relation_masks(edges)
    green = sum(1 << i for i, e in enumerate(edges) if e not in pm.black)
    cd = 0
    for i in range(len(edges)):
        if green >> i & 1:
            cd += not right[i] & green
        else:
            # A left crossing of either colour disqualifies a black edge.
            cd += not (nests[i] or left[i] or right[i] & green)
    return Poly._raw({(0, cd): _SIGNS[len(pm.black) % 2]})


def flip_candidate(pm: PairedMatching) -> Edge | None:
    """The leftmost homogeneous edge that nests no other edge, if any.

    When n >= m (the bigger block on the left) the candidate always lies in
    the left block, where it can have no left crossing, so changing its
    color reverses the sign of the weight and keeps its magnitude.  That
    pairs off everything except the all-green, all-spanning matchings.
    With n < m the candidate can sit in the right block underneath a
    spanning edge that crosses it from the left; recoloring is still an
    involution, but it only cancels weights in the aggregate, not edge for
    edge.  Returns None when no homogeneous edge exists, which forces
    n = m.
    """
    edges = pm.all_edges()
    nests = _relation_masks(edges)[0]
    for i, e in enumerate(edges):
        if pm.is_homogeneous(e) and not nests[i]:
            return e
    return None


def orthogonality_involution(pm: PairedMatching) -> PairedMatching:
    """Recolor the edge found by flip_candidate; raises when none exists."""
    e = flip_candidate(pm)
    if e is None:
        raise ValueError("no homogeneous edge to flip; the matching is a fixed point")
    return pm.recolored(e)


# ----- fixed points of the involution and permutation statistics -----


def paired_to_permutation(pm: PairedMatching) -> tuple[int, ...]:
    """Read an all-spanning paired matching with n = m as a permutation.

    The right row, numbered inward (rightmost vertex is 1), is the domain;
    the left row, numbered outward, is the range.  Entry i of the result is
    the left endpoint matched to right label i.  Weight-c edges correspond
    to left-to-right maxima.
    """
    if pm.n != pm.m:
        raise ValueError("needs equal row sizes")
    if pm.black:
        raise ValueError("needs an all-green matching")
    n = pm.n
    partner = {}
    for a, b in pm.green:
        if b <= n or a > n:
            raise ValueError("needs every edge to span the rows")
        partner[b] = a
    return tuple(partner[2 * n + 1 - i] for i in range(1, n + 1))


def left_to_right_maxima(pi: tuple[int, ...]) -> int:
    count = 0
    best = 0
    for v in pi:
        if v > best:
            count += 1
            best = v
    return count


def cycle_count(pi: tuple[int, ...]) -> int:
    seen: set[int] = set()
    count = 0
    for start in range(1, len(pi) + 1):
        if start in seen:
            continue
        count += 1
        v = start
        while v not in seen:
            seen.add(v)
            v = pi[v - 1]
    return count


# ----- moment generating function as a continued fraction -----


def moment_series(depth: int, order: int, shifted: bool = True) -> list[Poly]:
    """Coefficients of t^0 .. t^order of the truncated continued fraction.

    The fraction is 1/(1 - b_1 t^2/(1 - b_2 t^2/(...))) cut after depth
    levels, with b_j = c + j for the shifted moments mu_{2n}(c+1) and
    b_j = c + j - 1 for the plain ones.  Coefficients of t^(2n) with
    n < depth equal the corresponding moments.
    """
    if depth < 0 or order < 0:
        raise ValueError("depth and order must be nonnegative")
    level = [Poly.one()] + [Poly.zero()] * order
    for j in range(depth, 0, -1):
        b = C + (j if shifted else j - 1)
        g = [Poly.zero(), Poly.zero()] + [b * p for p in level[: order - 1]]
        # 1/(1 - g) term by term: f_0 = 1 and f_i = sum of g_k f_(i-k), k = 1..i.
        f = [Poly.one()]
        for i in range(1, order + 1):
            f.append(_gf(range(1, i + 1), lambda k: g[k] * f[i - k]))
        level = f
    return level
