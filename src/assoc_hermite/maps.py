"""Rooted maps, connected matchings, and the tail-swap bijection.

A rooted map is a graph embedded in an oriented surface, encoded by its
darts (half-edges): a rotation permutation giving the counterclockwise
order of darts around each vertex, a fixed-point-free pairing matching the
two darts of each edge, and a distinguished root dart.  Maps with n edges
are counted by the shifted moment mu_2n(c+1) at c = 1, and refine it by
c^(vertices - 1).

The chain runs maps -> connected matchings -> arbitrary matchings with
tagged nonnested edges, the second step by repeatedly swapping the tails
of a distinguished edge through the crossings it is involved in.
"""

from __future__ import annotations

from typing import Iterator

from .matchings import Edge, Matching, _Record, _relation_masks, is_connected, nonnested_edges
from .moments import cycle_count
from .polynomials import Poly


def _discovery_order(
    rotation: tuple[int, ...], pairing: tuple[int, ...], root: int
) -> list[int]:
    """The darts reachable from root, in breadth-first discovery order.

    The neighbours of a dart are its rotation successor, then its partner.
    """
    order = [root]
    seen = {root}
    for h in order:
        for nxt in (rotation[h], pairing[h]):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


class RootedMap(_Record):
    """A connected map on darts 0..2E-1; root is None only when E = 0."""

    rotation: tuple[int, ...]
    pairing: tuple[int, ...]
    root: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "rotation", tuple(self.rotation))
        object.__setattr__(self, "pairing", tuple(self.pairing))
        n = len(self.rotation)
        if len(self.pairing) != n:
            raise ValueError("rotation and pairing must act on the same darts")
        if n % 2:
            raise ValueError("dart count must be even")
        if sorted(self.rotation) != list(range(n)):
            raise ValueError("rotation is not a permutation")
        for h, p in enumerate(self.pairing):
            if not (0 <= p < n) or p == h or self.pairing[p] != h:
                raise ValueError("pairing is not a fixed-point-free involution")
        if n == 0:
            if self.root is not None:
                raise ValueError("the empty map has no root dart")
            return
        if self.root is None or not (0 <= self.root < n):
            raise ValueError("root must be a dart")
        if len(_discovery_order(self.rotation, self.pairing, self.root)) != n:
            raise ValueError("map is not connected")

    @property
    def edge_count(self) -> int:
        return len(self.rotation) // 2

    @property
    def vertex_count(self) -> int:
        if not self.rotation:
            return 1
        return cycle_count(tuple(h + 1 for h in self.rotation))

    def weight(self) -> Poly:
        return Poly.monomial(0, self.vertex_count - 1)

    def canonical(self) -> "RootedMap":
        """The same map relabeled so breadth-first discovery order is 0,1,2,...

        Neighbors of a dart are its rotation successor, then its partner.
        Isomorphic rooted maps have equal canonical forms.
        """
        if not self.rotation:
            return self
        order = _discovery_order(self.rotation, self.pairing, self.root)
        relabel = {old: new for new, old in enumerate(order)}
        rot = tuple(relabel[self.rotation[old]] for old in order)
        pair = tuple(relabel[self.pairing[old]] for old in order)
        return RootedMap(rot, pair, 0)

    def to_json_obj(self) -> dict:
        return {
            "rotation": list(self.rotation),
            "pairing": list(self.pairing),
            "root": self.root,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RootedMap":
        """Parse the to_json_obj form; malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a map must be an object with rotation, pairing and root")
        for key in ("rotation", "pairing"):
            darts = obj.get(key)
            if not isinstance(darts, (list, tuple)) or any(type(h) is not int for h in darts):
                raise ValueError(f"map {key} must be a list of integer darts")
        if "root" not in obj or not (obj["root"] is None or type(obj["root"]) is int):
            raise ValueError("map root must be an integer dart or null")
        return cls(tuple(obj["rotation"]), tuple(obj["pairing"]), obj["root"])


def enumerate_rooted_maps(edge_count: int) -> Iterator[RootedMap]:
    """All rooted maps with the given number of edges, once each.

    Each map is built directly in its canonical labelling, in which darts
    are numbered in breadth-first discovery order from root 0.  Dart h is
    given its rotation successor and then its partner; each is either a
    dart discovered already or the next undiscovered one.  Maps are yielded
    sorted by (pairing, rotation).
    """
    if edge_count < 0:
        raise ValueError("edge count must be nonnegative")
    if edge_count == 0:
        yield RootedMap((), (), None)
        return
    n = 2 * edge_count
    rotation = [0] * n
    pairing = [-1] * n
    is_image = [False] * n
    found = []

    def grow(h: int, discovered: int) -> None:
        # Darts below h are done and darts below `discovered` are reached.
        if h == n:
            found.append((tuple(pairing), tuple(rotation)))
            return
        if h == discovered:
            return  # the darts reached so far close up without the rest
        for r in range(min(discovered + 1, n)):
            if is_image[r]:
                continue
            rotation[h] = r
            is_image[r] = True
            reached = max(discovered, r + 1)
            if pairing[h] >= 0:
                grow(h + 1, reached)
            else:
                for p in range(h + 1, min(reached + 1, n)):
                    if pairing[p] < 0:
                        pairing[h], pairing[p] = p, h
                        grow(h + 1, max(reached, p + 1))
                        pairing[h] = pairing[p] = -1
            is_image[r] = False

    grow(0, 1)
    for pair, rot in sorted(found):
        yield RootedMap(rot, pair, 0)


def map_to_connected_matching(rm: RootedMap) -> Matching:
    """Trace the map into a connected matching on 2E + 2 vertices.

    A marker loop is spliced into the root vertex just before the root
    dart.  Visiting a vertex writes its full rotation cycle starting after
    the entry dart; the next vertex entered is the partner of the leftmost
    written dart whose partner is unwritten.  Word positions of partner
    darts form the edges; the marker edge contains position 1.
    """
    n = len(rm.rotation)
    h1, h2 = n, n + 1
    rot = list(rm.rotation) + [0, 0]
    pair = list(rm.pairing) + [h2, h1]
    if n == 0:
        rot[h1] = h2
        rot[h2] = h1
    else:
        root = rm.root
        rot[rm.rotation.index(root)] = h2
        rot[h2] = h1
        rot[h1] = root

    word: list[int] = []
    pos: dict[int, int] = {}

    def visit(entry: int) -> None:
        h = rot[entry]
        while True:
            word.append(h)
            pos[h] = len(word)
            if h == entry:
                return
            h = rot[h]

    visit(h2)
    while len(word) < n + 2:
        for d in word:
            if pair[d] not in pos:
                visit(pair[d])
                break
    edges = tuple((p, pos[pair[d]]) for d, p in pos.items() if p < pos[pair[d]])
    return Matching(n + 2, edges)


def double_occurrence_word(m: Matching) -> tuple[int, ...]:
    """Edge letters in vertex order, numbered by first occurrence."""
    letter: dict[Edge, int] = {}
    out = []
    for v in range(1, m.n + 1):
        e = m.edge_of(v)
        if e is None:
            raise ValueError("needs a complete matching")
        if e not in letter:
            letter[e] = len(letter) + 1
        out.append(letter[e])
    return tuple(out)


def marked_word(m: Matching) -> tuple[str, ...]:
    """double_occurrence_word with the edge at vertex 1 printed as "a" and
    every later letter k printed as k - 1."""
    if m.edge_of(1) is None:
        raise ValueError("needs vertex 1 matched")
    return tuple("a" if k == 1 else str(k - 1) for k in double_occurrence_word(m))


def connected_matching_tags(m: Matching) -> frozenset[Edge]:
    """Edges nested by nothing, excluding any edge containing vertex 1."""
    return frozenset(e for e in nonnested_edges(m) if e[0] != 1)


def connected_matching_weight(m: Matching) -> Poly:
    return Poly.monomial(0, len(connected_matching_tags(m)))


def _crossing_count(edges: list[Edge]) -> int:
    return sum(mask.bit_count() for mask in _relation_masks(tuple(sorted(edges)))[2])


def _crossings_with(edge: Edge, edges: list[Edge]) -> int:
    """How many of the edges cross the given one: of two edges on distinct
    vertices, each crosses the other when exactly one end of it lies
    inside the other."""
    a, b = edge
    return sum((a < c < b) != (a < d < b) for c, d in edges)


def _swap_states(m: Matching) -> Iterator[tuple[list[Edge], Edge, set[Edge], int]]:
    """The states of the tail swap on a connected matching m, from m itself
    to the last: the edges but the marker, the marker, the tagged edges and
    the total crossing count.  The edge list and the tag set change in
    place from one state to the next.

    A swap changes the crossings of the two edges that trade tails and no
    others: the count gains their crossings with the other edges after the
    swap, loses those before it, and loses one more, since the marker
    crossed the chosen edge and now nests it."""
    marker = m.edge_of(1)
    edges = [e for e in m.edges if e != marker]
    tags = set(connected_matching_tags(m))
    crossings = _crossing_count(edges + [marker])
    while True:
        yield edges, marker, tags, crossings
        f = marker[1]
        crossers = [e for e in edges if e[0] < f < e[1]]
        if not crossers:
            return
        chosen = min(crossers)
        if chosen not in tags:
            raise AssertionError(f"untagged crossing edge {chosen!r}")
        a, b = chosen
        edges.remove(chosen)
        tags.remove(chosen)
        before = crossings
        crossings += (
            _crossings_with((1, b), edges) + _crossings_with((a, f), edges)
            - _crossings_with(marker, edges) - _crossings_with(chosen, edges) - 1
        )
        if crossings >= before:
            raise AssertionError("crossings did not drop")
        edges.append((a, f))
        tags.add((a, f))
        marker = (1, b)


def tail_swap(m: Matching) -> tuple[Matching, frozenset[Edge]]:
    """Turn a connected matching into a smaller matching with tagged edges.

    The edge at vertex 1 plays the marker.  While some edge starts inside
    the marker and ends beyond it, the leftmost such edge trades tails with
    the marker, which grows; each trade lowers the total crossing count.
    The marker ends at the last vertex, is dropped, and the rest renumbers
    down to a matching on two fewer vertices.  Tags travel with the traded
    edges; they start on the nonnested edges away from vertex 1 and end on
    nonnested edges of the result.
    """
    if not m.is_complete():
        raise ValueError("needs a complete matching")
    if not is_connected(m):
        raise ValueError("needs a connected matching")
    if m.n == 0:
        raise ValueError("needs at least one edge")
    for edges, marker, tags, _ in _swap_states(m):
        pass
    if marker != (1, m.n):
        raise AssertionError("marker did not reach the last vertex")
    return (
        Matching(m.n - 2, tuple((a - 1, b - 1) for a, b in edges)),
        frozenset((a - 1, b - 1) for a, b in tags),
    )


def tail_swap_inverse(m: Matching, tags: frozenset[Edge] | set[Edge]) -> Matching:
    """Rebuild the connected matching from a matching and tagged edges.

    Everything shifts up by one and a marker edge spans vertex 1 to the new
    last vertex; the tagged edges, taken by right endpoint in descending
    order, trade tails with the marker, which shrinks.  Tags must sit on
    edges nested by nothing.
    """
    if not m.is_complete():
        raise ValueError("needs a complete matching")
    tags = frozenset(tags)
    nonnested = nonnested_edges(m)
    for e in tags:
        if e not in m.edges:
            raise ValueError(f"tag {e!r} is not an edge")
        if e not in nonnested:
            raise ValueError(f"tag {e!r} sits on a nested edge")
    edges = [(a + 1, b + 1) for a, b in m.edges]
    marker = (1, m.n + 2)
    for a, b in sorted(tags, key=lambda e: e[1], reverse=True):
        a, b = a + 1, b + 1
        edges.remove((a, b))
        edges.append((a, marker[1]))
        marker = (1, b)
    return Matching(m.n + 2, tuple(edges) + (marker,))
