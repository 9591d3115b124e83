"""Partial matchings on {1, ..., n}: enumeration, edge statistics, weights.

A matching is a set of disjoint edges (i, j) with 1 <= i < j <= n; vertices
on no edge are fixed points.  Two private helpers carry every matching
model in the package:

- `_pairings` is the one pairing kernel.  The smallest unmatched vertex is
  joined to each larger available vertex with a different label, in
  increasing order (with the fixed-point branch first when vertices
  may stay unpaired), so enumeration is deterministic and repeated runs
  stream identical sequences.
- `_relation_masks` is the one edge-relation sweep: bitmasks of the edges
  each edge nests and of those crossing it from the left or right.  Every
  weight and edge statistic reads them, the weights of coloured matchings
  through a colour mask; `edge_stats` gathers one edge's into a record.
  It keeps its last few results, since consecutive calls mostly share a
  matching.

`weight` weighs a matching under a mirrored scheme, no-left-crossing or
reversed-rightmost, as its `_MIRROR` image weighs the reversed matching.

The package's records derive from `_Record`: immutable, and compared,
hashed and printed by their fields.  Enumerators build them through
`_trusted`, without the public constructors' validation.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from operator import attrgetter, index
from typing import Iterator, Sequence

from .polynomials import Poly

Edge = tuple[int, int]
Masks = tuple[int, ...]  # one bitmask over edge indices per edge

DEFAULT_CAP = 16


def _trusted(cls, **fields):
    """An instance of the record class cls holding fields as given, without
    running __post_init__; only for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Record:
    """Base of the package's records, which behave as frozen dataclasses.
    A subclass's fields are its own annotations, in order; a class attribute
    gives a default.  __init__ binds them, then runs __post_init__.  An
    instance's __dict__ holds exactly its fields, which equality compares
    within one class; hash and repr read the field tuple.  Fields are frozen."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        values = attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
        form = cls.__qualname__ + "(" + ", ".join(f"{name}=%r" for name in names) + ")"
        cls.__hash__ = lambda self: hash(values(self))
        cls.__repr__ = lambda self: form % values(self)
        cls._fields = names
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        names = self._fields
        fields = dict(zip(names, args))
        if kwargs or len(args) != len(names):
            fields = {**self._defaults, **fields, **kwargs}
            bad = len(args) > len(names) or kwargs.keys() & names[: len(args)]
            if bad or fields.keys() != set(names):
                raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}")
        self.__dict__.update(fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Matching(_Record):
    """A partial matching on {1, ..., n}; edges are stored sorted."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges))
        object.__setattr__(self, "edges", norm)
        seen: set[int] = set()
        for a, b in norm:
            if not (1 <= a < b <= self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")
            if a in seen or b in seen:
                raise ValueError(f"vertex reused in edge ({a},{b})")
            seen.update((a, b))

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "Matching":
        """Parse the pair form "(1,5)(2,4)"; n defaults to the max endpoint."""
        stripped = text.strip()
        pairs = re.findall(r"\((\d+)\s*,\s*(\d+)\)", stripped)
        if re.sub(r"\(\d+\s*,\s*\d+\)|\s", "", stripped):
            raise ValueError(f"unparseable matching text: {text!r}")
        edges = tuple((int(a), int(b)) for a, b in pairs)
        if n is None:
            n = max((v for e in edges for v in e), default=0)
        return cls(n, edges)

    def to_text(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.edges)

    def __str__(self) -> str:
        return self.to_text()

    def fixed_points(self) -> tuple[int, ...]:
        used = {v for e in self.edges for v in e}
        return tuple(v for v in range(1, self.n + 1) if v not in used)

    def is_complete(self) -> bool:
        return 2 * len(self.edges) == self.n

    def edge_of(self, v: int) -> Edge | None:
        for e in self.edges:
            if v in e:
                return e
        return None


class EdgeStats(_Record):
    is_nested_by_other: bool
    has_left_crossing: bool
    has_right_crossing: bool
    nests_edge_or_fixed_point: bool


class WeightScheme(Enum):
    """Edge weightings for moment and polynomial generating functions.

    The two MOMENT schemes weight complete matchings: an edge that is not
    nested by any other edge (NONNESTED), or that has no right (left)
    crossing, gets weight c, all others get 1.  POLY_RIGHTMOST weights
    partial matchings: fixed points contribute x, edges that nest no fixed
    point or edge and have no left crossing contribute -c, all other edges
    contribute -1.  POLY_REVERSED_RIGHTMOST is the mirror image, obtained by
    weighting the reversed matching under POLY_RIGHTMOST.
    """

    MOMENT_NONNESTED = "nonnested"
    MOMENT_NO_RIGHT_CROSSING = "no-right-crossing"
    MOMENT_NO_LEFT_CROSSING = "no-left-crossing"
    POLY_RIGHTMOST = "rightmost"
    POLY_REVERSED_RIGHTMOST = "reversed-rightmost"


MOMENT_SCHEMES = (
    WeightScheme.MOMENT_NONNESTED,
    WeightScheme.MOMENT_NO_RIGHT_CROSSING,
    WeightScheme.MOMENT_NO_LEFT_CROSSING,
)
_MIRROR = {
    WeightScheme.MOMENT_NO_LEFT_CROSSING: WeightScheme.MOMENT_NO_RIGHT_CROSSING,
    WeightScheme.POLY_REVERSED_RIGHTMOST: WeightScheme.POLY_RIGHTMOST,
}


@lru_cache(maxsize=16)
def _relation_masks(edges: tuple[Edge, ...]) -> tuple[Masks, Masks, Masks]:
    """Bitmasks over edge indices: the edges that edge i nests, and those
    crossing it from the left and from the right.

    The edges are disjoint and sorted by left endpoint, so a later edge that
    starts beyond the right end of an earlier one is disjoint from it, and
    so is every edge after that.

    The last 16 results are kept, keyed by the edge tuple, as tuples that
    callers cannot change.  Consecutive calls mostly share a matching: the
    colourings of one paired matching, or a weight and the edge statistics
    of one matching.  Enumerations that move on to a new matching every
    call only miss, so the bound is small: a 300-edge matching and its
    masks take about 80 kB."""
    k = len(edges)
    nests = [0] * k
    left = [0] * k
    right = [0] * k
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, k):
            a2, b2 = edges[j]
            if a2 > b:
                break
            if b2 < b:
                nests[i] |= 1 << j
            else:
                right[i] |= 1 << j
                left[j] |= 1 << i
    return tuple(nests), tuple(left), tuple(right)


def _special_mask(edges: tuple[Edge, ...]) -> tuple[int, Masks]:
    """Bitmask over edge indices of the edges that nest no edge or fixed
    point and have no left crossing, with each edge's left-crossing mask.

    A vertex strictly inside edge (a, b) is a fixed point, an endpoint of a
    nested edge, or the one inside endpoint of a crossing edge, so (a, b)
    nests nothing exactly when its crossings account for all b - a - 1."""
    _, left, right = _relation_masks(edges)
    special = 0
    for i, (a, b) in enumerate(edges):
        if not left[i] and right[i].bit_count() == b - a - 1:
            special |= 1 << i
    return special, left


def edge_stats(m: Matching, e: Edge) -> EdgeStats:
    """Nesting and crossing relations of edge e inside matching m."""
    if e not in m.edges:
        raise ValueError(f"edge {e!r} not in matching {m}")
    i = m.edges.index(e)
    nests, left, right = _relation_masks(m.edges)
    a, b = e
    return EdgeStats(
        is_nested_by_other=any(mask >> i & 1 for mask in nests),
        has_left_crossing=bool(left[i]),
        has_right_crossing=bool(right[i]),
        nests_edge_or_fixed_point=left[i].bit_count() + right[i].bit_count() < b - a - 1,
    )


def nonnested_edges(m: Matching) -> tuple[Edge, ...]:
    """Edges of m not nested by any other edge."""
    nested = 0
    for mask in _relation_masks(m.edges)[0]:
        nested |= mask
    return tuple(e for i, e in enumerate(m.edges) if not nested >> i & 1)


def weight(m: Matching, scheme: WeightScheme) -> Poly:
    """The weight of one matching; always a signed monomial in x and c."""
    if scheme in _MIRROR:
        return weight(reverse(m), _MIRROR[scheme])
    if scheme is WeightScheme.POLY_RIGHTMOST:
        sign = -1 if len(m.edges) % 2 else 1
        special = _special_mask(m.edges)[0].bit_count()
        return Poly.monomial(m.n - 2 * len(m.edges), special, sign)
    if scheme not in MOMENT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    if not m.is_complete():
        raise ValueError("moment weightings apply to complete matchings only")
    if scheme is WeightScheme.MOMENT_NONNESTED:
        return Poly.monomial(0, len(nonnested_edges(m)))
    return Poly.monomial(0, _relation_masks(m.edges)[2].count(0))


def _check_cap(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > DEFAULT_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_CAP}")


def _pairings(
    vertices: tuple[int, ...],
    label: Sequence[int] | None = None,
    free: bool = False,
) -> Iterator[tuple[Edge, ...]]:
    """Edge tuples pairing the vertices, in the order the module promises.

    Two vertices pair only when their labels differ (any two, without
    labels).  With free, any vertex may stay unpaired.
    """
    if not vertices:
        yield ()
        return
    v, rest = vertices[0], vertices[1:]
    if free:
        yield from _pairings(rest, label, free)
    own = None if label is None else label[v]
    for i, w in enumerate(rest):
        if own is not None and label[w] == own:
            continue
        for tail in _pairings(rest[:i] + rest[i + 1:], label, free):
            yield ((v, w),) + tail


def enumerate_complete(n: int) -> Iterator[Matching]:
    """All complete matchings on {1, ..., n}; there are (n-1)!! of them."""
    _check_cap(n)
    if n % 2:
        raise ValueError("complete matchings need an even vertex count")
    for edges in _pairings(tuple(range(1, n + 1))):
        yield _trusted(Matching, n=n, edges=edges)


def enumerate_incomplete(n: int) -> Iterator[Matching]:
    """All partial matchings on {1, ..., n} (fixed points allowed)."""
    _check_cap(n)
    for edges in _pairings(tuple(range(1, n + 1)), free=True):
        yield _trusted(Matching, n=n, edges=edges)


def _exact_sizes(sizes: Sequence[int], what: str) -> tuple[int, ...]:
    """The sizes of blocks or rows (what) as exact ints.  operator.index
    refuses an inexact size, such as a float, rather than rounding it."""
    exact = tuple(map(index, sizes))
    if any(s < 0 for s in exact):
        raise ValueError(f"{what} sizes must be nonnegative")
    return exact


class Blocks(_Record):
    """Consecutive blocks partitioning {1, ..., total}; sizes in given order."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", _exact_sizes(self.sizes, "block"))

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def labels(self) -> list[int]:
        """Entry v is the block of vertex v; entry 0 pads the list."""
        return [0] + [i for i, s in enumerate(self.sizes) for _ in range(s)]


def enumerate_inhomogeneous(blocks: Blocks) -> Iterator[Matching]:
    """Complete matchings on the block structure with no edge inside a block."""
    n = blocks.total
    _check_cap(n)
    if n % 2:
        raise ValueError("inhomogeneous matchings need an even vertex total")
    for edges in _pairings(tuple(range(1, n + 1)), blocks.labels()):
        yield _trusted(Matching, n=n, edges=edges)


def reverse(m: Matching) -> Matching:
    """Mirror the matching: vertex i goes to n + 1 - i."""
    n = m.n
    return Matching(n, tuple((n + 1 - b, n + 1 - a) for a, b in m.edges))


def is_connected(m: Matching) -> bool:
    """True when no proper prefix {1..2j} is a union of whole edges.

    Equivalently, the matching's double occurrence word is not a
    concatenation of two shorter double occurrence words.
    """
    if not m.is_complete():
        raise ValueError("connectivity is defined for complete matchings")
    half = m.n // 2
    for j in range(1, half):
        boundary = 2 * j
        if not any(a <= boundary < b for a, b in m.edges):
            return False
    return True
