"""Strand graphs: sites, admissible and current edges, moves, and exploration.

A strand graph keeps the static shape of a process (one vertex per strand,
one site per domain position) apart from its dynamic state, the current edge
set E.  Admissible edges connect every pair of complementary sites; moves
rewrite E only.  Rule names follow the trace vocabulary GB (bind), GU
(unbind), G3 (displace), GM (ring migration).

The rule appliers (bind, unbind, displace, migrate) check their premises on
edge sets.  Enumeration and exploration run on integer edge ranks instead,
over one integer index of the shape that the constructor builds and every
state shares: a state is a bitmask over the ranked admissible edges, and
explore() caches move lists per vertex-connected component, as no move
touches two of them.  explore() still checks each state it reaches once,
with with_current, and reports states as edge sets and moves as Move objects.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from .process import Domain, Process, antiparallel_adjacent, format_domain, parse_domain


class GraphError(ValueError):
    """Malformed strand graph or graph text."""


class MoveError(ValueError):
    """A graph move was applied where its premises do not hold."""


class ExplorationLimitError(RuntimeError):
    """State-space bounds were hit before the closure finished."""


class Site(NamedTuple):
    vertex: int
    position: int

    def __str__(self) -> str:
        return f"({self.vertex},{self.position})"


@dataclass(frozen=True, order=True)
class Edge:
    """An unordered pair of distinct sites; endpoints are stored sorted."""

    a: Site
    b: Site

    def __post_init__(self):
        a = Site(*self.a)
        b = Site(*self.b)
        if a == b:
            raise GraphError(f"edge endpoints coincide: {a}")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def sites(self) -> frozenset[Site]:
        return frozenset((self.a, self.b))

    def other(self, site: Site) -> Site:
        if site == self.a:
            return self.b
        if site == self.b:
            return self.a
        raise GraphError(f"{site} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


RULES = ("GB", "GU", "G3", "GM")
_RULE_ORDER = {rule: k for k, rule in enumerate(RULES)}
# removed/added cardinality per rule; None means any N >= 2 with both equal
_RULE_SHAPE = {"GB": (0, 1), "GU": (1, 0), "G3": (1, 1), "GM": None}


@dataclass(frozen=True)
class Move:
    rule: str
    removed: frozenset[Edge]
    added: frozenset[Edge]

    def __post_init__(self):
        if self.rule not in _RULE_SHAPE:
            raise MoveError(f"unknown rule {self.rule!r}")
        shape = _RULE_SHAPE[self.rule]
        if shape is not None:
            if (len(self.removed), len(self.added)) != shape:
                raise MoveError(f"{self.rule} must remove/add {shape} edges")
        elif not (len(self.removed) == len(self.added) >= 2):
            raise MoveError("GM swaps N>=2 edges for N edges")

    def describe(self) -> str:
        rm = ",".join(str(e) for e in sorted(self.removed))
        ad = ",".join(str(e) for e in sorted(self.added))
        return f"{self.rule} removed={{{rm}}} added={{{ad}}}"


@dataclass(frozen=True)
class Trace:
    initial: frozenset[Edge]
    moves: tuple[Move, ...]
    final: frozenset[Edge]

    def replay(self) -> frozenset[Edge]:
        """Re-apply the moves set-wise, checking each is consistent."""
        current = self.initial
        for move in self.moves:
            if not move.removed <= current or move.added & current:
                raise MoveError(f"move {move.describe()} does not apply")
            current = (current - move.removed) | move.added
        if current != self.final:
            raise MoveError("trace does not end in its recorded final state")
        return current

    def lines(self) -> list[str]:
        out = []
        current = self.initial
        for k, move in enumerate(self.moves, start=1):
            current = (current - move.removed) | move.added
            out.append(f"step {k}: {move.describe()} |E|={len(current)}")
        return out


def sites_of(edges: Iterable[Edge]) -> frozenset[Site]:
    return frozenset(s for e in edges for s in (e.a, e.b))


def edge_adjacent(e: Edge, edges: Iterable[Edge]) -> frozenset[Edge]:
    """Edges on the same vertex pair as e, offset by one antiparallel step."""
    return frozenset(
        f for f in edges if f != e and antiparallel_adjacent((e.a, e.b), (f.a, f.b))
    )


def is_anchored(e: Edge, edges: Iterable[Edge]) -> bool:
    return bool(edge_adjacent(e, edges))


@dataclass(frozen=True)
class StrandGraph:
    """A shape, the bond-free site labels, and a state, the current edges.

    The labels fix the rest of the shape: each vertex's length, its colour
    (strand types numbered by first appearance) and the admissible edges,
    every complementary site pair.  These are derived once, and indexed once
    on integers (_Index: edges by rank, site ids, anchor bitmasks, toehold
    flags, components); with_current shares them all and checks only the new
    edge set, in O(|E|)."""

    domains: tuple[tuple[Domain, ...], ...]  # per-site labels, bond-free
    current: frozenset[Edge]
    lengths: tuple[int, ...] = field(init=False)
    colours: tuple[int, ...] = field(init=False)
    admissible: frozenset[Edge] = field(init=False)

    def __post_init__(self):
        if any(d.bond is not None for row in self.domains for d in row):
            raise GraphError("graph site labels carry no bonds")
        types: dict[tuple[Domain, ...], int] = {}
        object.__setattr__(self, "lengths", tuple(len(row) for row in self.domains))
        object.__setattr__(self, "colours", tuple(types.setdefault(row, len(types) + 1) for row in self.domains))
        object.__setattr__(self, "admissible", _complementary_pairs(self.domains))
        object.__setattr__(self, "_index", _build_index(self))
        self._check_current()

    def _check_current(self) -> None:
        for e in self.current - self.admissible:
            raise GraphError(f"current edge {e} is not admissible")
        ends = [s for e in self.current for s in (e.a, e.b)]
        if len(set(ends)) < len(ends):
            twice = next(s for s, k in Counter(ends).items() if k > 1)
            raise GraphError(f"site {twice} is bound twice")

    def vertex_count(self) -> int:
        return len(self.lengths)

    def sites(self) -> list[Site]:
        return [
            Site(v, n)
            for v in range(1, len(self.lengths) + 1)
            for n in range(1, self.lengths[v - 1] + 1)
        ]

    def label(self, site: Site) -> Domain:
        v, n = site
        if not (1 <= v <= len(self.lengths) and 1 <= n <= self.lengths[v - 1]):
            raise GraphError(f"no site {Site(v, n)}")
        return self.domains[v - 1][n - 1]

    def toehold(self, e: Edge) -> bool:
        return self.label(e.a).toehold

    def with_current(self, current: Iterable[Edge]) -> "StrandGraph":
        g = object.__new__(type(self))
        g.__dict__.update(self.__dict__, current=frozenset(current))
        g._check_current()
        return g


def _complementary_pairs(domains: tuple[tuple[Domain, ...], ...]) -> frozenset[Edge]:
    """Every pair of sites whose labels could bond: same name and toehold
    flag, exactly one of the two starred."""
    ends: dict[tuple[str, bool], tuple[list[Site], list[Site]]] = {}
    for v, row in enumerate(domains, start=1):
        for n, d in enumerate(row, start=1):
            ends.setdefault((d.name, d.toehold), ([], []))[d.complemented].append(Site(v, n))
    return frozenset(Edge(s, t) for plain, starred in ends.values() for s in plain for t in starred)


class _Index(NamedTuple):
    """A shape's admissible edges by rank, in sorted order, and what
    bind_chain, moves and explore read of them, on integers.  Built once by
    the constructor and shared by every state.  Sites are numbered in order
    of first appearance in rank order."""

    edges: list[Edge]  # rank -> edge
    rank: dict[Edge, int]
    ends: list[tuple[int, int]]  # rank -> its two site ids
    anchors: list[int]  # rank -> bitmask of its admissible antiparallel neighbours
    toeholds: list[bool]  # rank -> toehold edge
    partners: list[dict[int, int]]  # site id -> other site id -> edge rank, in rank order
    components: list[tuple[int, list[int]]]  # per vertex-connected component: rank mask, ranks


def _build_index(g: StrandGraph) -> _Index:
    edges = sorted(g.admissible, key=lambda e: (e.a, e.b))
    site_id: dict[Site, int] = {}
    ends = [(site_id.setdefault(e.a, len(site_id)), site_id.setdefault(e.b, len(site_id))) for e in edges]
    partners: list[dict[int, int]] = [{} for _ in site_id]
    for r, (s, t) in enumerate(ends):
        partners[s][t] = r
        partners[t][s] = r
    # the antiparallel neighbours of (v1,n1)-(v2,n2) can only be (v1,n1+d)-(v2,n2-d);
    # on a hairpin one of them may be the edge itself
    anchors = [0] * len(edges)
    for r, e in enumerate(edges):
        (v1, n1), (v2, n2) = e.a, e.b
        for d in (1, -1):
            s, t = site_id.get((v1, n1 + d)), site_id.get((v2, n2 - d))
            f = None if s is None else partners[s].get(t)
            if f not in (None, r):
                anchors[r] |= 1 << f
    # anchors join edges on one vertex pair and every other premise joins
    # edges that share a site, so no move touches two components
    root = list(range(len(g.lengths) + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for e in edges:
        root[find(e.a.vertex)] = find(e.b.vertex)
    groups: dict[int, list[int]] = {}
    for r, e in enumerate(edges):
        groups.setdefault(find(e.a.vertex), []).append(r)
    components = [(sum(1 << r for r in ranks), ranks) for ranks in groups.values()]
    rank = {e: r for r, e in enumerate(edges)}
    return _Index(edges, rank, ends, anchors, [g.toehold(e) for e in edges], partners, components)


def from_process(p: Process) -> StrandGraph:
    """Strand graph of a process: one vertex per strand in order, the
    strands' bond-free labels, current edges from bonds."""
    ends: dict[str, list[Site]] = {}
    for (s, n), d in p.occurrences():
        if d.bond is not None:
            ends.setdefault(d.bond, []).append(Site(s, n))
    labels = tuple(tuple(d.free() for d in s.domains) for s in p.strands)
    return StrandGraph(labels, frozenset(Edge(*pair) for pair in ends.values()))


def unbindable_sites(g: StrandGraph) -> frozenset[Site]:
    """Sites no admissible edge touches; they stay free in every reachable state."""
    return frozenset(g.sites()) - sites_of(g.admissible)


def bind_chain(g: StrandGraph) -> list[Edge] | None:
    """The edges explore() binds first, in order, when GB is the only move
    that can ever fire from g; None when another rule might fire.

    GB alone fires when no edge is current, no admissible edge is a toehold
    edge (no GU) and no admissible edge has an admissible antiparallel
    neighbour (nothing can anchor a G3 or GM).  The reachable states are then
    the matchings of the admissible graph, which is complete bipartite per
    domain name, so every maximal matching is maximum.  Breadth-first search
    with rank-sorted moves meets first the greedy chain: at each step the
    least-ranked admissible edge with two free ends.  O(admissible edges)."""
    ix: _Index = g._index
    if g.current or any(ix.toeholds) or any(ix.anchors):
        return None
    bound: set[int] = set()
    chain = []
    for x, (s, t) in zip(ix.edges, ix.ends):
        if s not in bound and t not in bound:
            bound.update((s, t))
            chain.append(x)
    return chain


# --- moves -------------------------------------------------------------------

MAX_RING = 4  # longest migration ring, in current edges, that moves() searches


def bind(g: StrandGraph, x: Edge) -> StrandGraph:
    """GB: add an admissible edge between two unbound sites."""
    if x not in g.admissible or x in g.current:
        raise MoveError(f"{x} is not an admissible free edge")
    occupied = sites_of(g.current)
    if x.a in occupied or x.b in occupied:
        raise MoveError(f"an endpoint of {x} is already bound")
    return g.with_current(g.current | {x})


def unbind(g: StrandGraph, e: Edge) -> StrandGraph:
    """GU: drop an unanchored toehold edge."""
    if e not in g.current:
        raise MoveError(f"{e} is not a current edge")
    if not g.toehold(e):
        raise MoveError(f"{e} is not a toehold edge")
    if is_anchored(e, g.current):
        raise MoveError(f"{e} is anchored")
    return g.with_current(g.current - {e})


def displace(g: StrandGraph, e: Edge, x: Edge) -> StrandGraph:
    """G3: swap a current edge for an admissible one sharing a single site.

    The freshly bound site of x must be unbound before the move, and x must
    be anchored once the swap is done.
    """
    if e not in g.current:
        raise MoveError(f"{e} is not a current edge")
    if x not in g.admissible or x in g.current:
        raise MoveError(f"{x} is not an admissible free edge")
    shared = e.sites & x.sites
    if len(shared) != 1:
        raise MoveError(f"{e} and {x} must share exactly one site")
    incoming = x.other(next(iter(shared)))
    if incoming in sites_of(g.current):
        raise MoveError(f"site {incoming} is already bound")
    result = (g.current - {e}) | {x}
    if not is_anchored(x, result):
        raise MoveError(f"{x} would not be anchored after displacement")
    return g.with_current(result)


def migrate(g: StrandGraph, removed: Iterable[Edge], added: Iterable[Edge]) -> StrandGraph:
    """GM: rotate a closed ring of current edges simultaneously.

    The removed edges and the added edges must alternate around a single
    closed ring: every endpoint of a removed edge is picked up by exactly one
    added edge, and following shared endpoints from removed edge to added
    edge visits all of them once.  Every added edge must be anchored after
    the swap.  |E| is unchanged.  Order of the arguments is irrelevant.
    """
    removed = frozenset(removed)
    added = frozenset(added)
    n = len(removed)
    if n < 2 or len(added) != n:
        raise MoveError("GM needs matching rings of at least two distinct edges")
    for e in removed:
        if e not in g.current:
            raise MoveError(f"{e} is not a current edge")
    for x in added:
        if x not in g.admissible or x in g.current:
            raise MoveError(f"{x} is not an admissible free edge")
    # removed edges are current, hence site-disjoint: owner is well defined
    owner = {s: e for e in removed for s in (e.a, e.b)}
    if sites_of(added) != frozenset(owner):
        raise MoveError("added edges must repartition exactly the removed endpoints")
    # each removed edge now meets exactly two added-edge endpoints; the swap
    # is a ring rotation iff the alternation closes into one cycle
    links: dict[Edge, list[Edge]] = {e: [] for e in removed}
    for x in added:
        links[owner[x.a]].append(x)
        links[owner[x.b]].append(x)
    seen = {next(iter(removed))}
    frontier = list(seen)
    while frontier:
        e = frontier.pop()
        for x in links[e]:
            for neighbour in (owner[x.a], owner[x.b]):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
    if len(seen) != n:
        raise MoveError("removed and added edges do not form a single closed ring")
    result = (g.current - removed) | added
    for x in added:
        if not is_anchored(x, result):
            raise MoveError(f"{x} would not be anchored after migration")
    return g.with_current(result)


def apply_move(g: StrandGraph, move: Move) -> StrandGraph:
    """Apply a Move through the rule-specific applier, re-checking premises."""
    if move.rule == "GB":
        (x,) = move.added
        return bind(g, x)
    if move.rule == "GU":
        (e,) = move.removed
        return unbind(g, e)
    if move.rule == "G3":
        (e,) = move.removed
        (x,) = move.added
        return displace(g, e, x)
    return migrate(g, move.removed, move.added)


def moves(g: StrandGraph) -> list[Move]:
    """Every move whose premises hold in g, in a deterministic order: by rule
    (GB, GU, G3, GM), then by the sorted ranks of the removed edges, then of
    the added ones.  Migration rings are searched up to MAX_RING edges.

    This decodes the integer enumerator that explore() runs on edge ranks."""
    ix: _Index = g._index
    state = sum(1 << ix.rank[e] for e in g.current)
    return [_decode(ix, m) for m in _enumerator(ix)(state)]


# A move on edge ranks: (rule order, sorted removed ranks, sorted added ranks,
# flip mask).  The successor of a bitmask state is state ^ flip.
_RankMove = tuple[int, tuple[int, ...], tuple[int, ...], int]


def _decode(t: _Index, move: _RankMove) -> Move:
    rule, removed, added, _ = move
    return Move(RULES[rule], frozenset([t.edges[r] for r in removed]), frozenset([t.edges[r] for r in added]))


def _enumerator(t: _Index) -> Callable[[int], list[_RankMove]]:
    """state -> its moves, sorted: the merge of each component's moves on its
    part of the state.  Each (component, part) is enumerated once per
    enumerator; with a single component nothing is cached, as no part could
    come back without its whole state coming back."""
    if len(t.components) == 1:
        ((_, ranks),) = t.components
        return lambda state: _component_moves(t, ranks, state)
    parts = [(mask, ranks, {}) for mask, ranks in t.components]

    def merged(state: int) -> list[_RankMove]:
        out: list[_RankMove] = []
        for mask, ranks, cache in parts:
            part = state & mask
            found = cache.get(part)
            if found is None:
                found = cache[part] = _component_moves(t, ranks, part)
            out += found
        out.sort()  # a merge of sorted runs
        return out

    return merged


def _component_moves(t: _Index, ranks: list[int], state: int) -> list[_RankMove]:
    """The sorted moves of the component whose edges are ranks, in a state
    with no current edge outside it."""
    ends, anchors, partners = t.ends, t.anchors, t.partners
    current = []
    owner: dict[int, int] = {}  # bound site id -> its current edge
    bits = state
    while bits:
        e = (bits & -bits).bit_length() - 1
        bits ^= 1 << e
        current.append(e)
        s, u = ends[e]
        owner[s] = owner[u] = e
    out: list[_RankMove] = []
    for x in ranks:
        s, u = ends[x]
        if s not in owner and u not in owner:
            out.append((0, (), (x,), 1 << x))
    for e in current:
        if t.toeholds[e] and not anchors[e] & state:
            out.append((1, (e,), (), 1 << e))
    for e in current:
        # x shares the site s with e and its other end u must be free; e
        # itself never anchors x, as no neighbour of x shares a site with it
        for s in ends[e]:
            for u, x in partners[s].items():
                if u not in owner and anchors[x] & state:
                    out.append((2, (e,), (x,), 1 << e | 1 << x))
    out += _ring_moves(t, owner, current, state)
    out.sort()
    return out


def _ring_moves(t: _Index, owner: dict[int, int], current: list[int], state: int) -> set[_RankMove]:
    """Rings alternate current edges with admissible linking edges whose
    endpoints all lie on the ring's current edges."""
    ends, anchors, partners = t.ends, t.anchors, t.partners
    found: set[_RankMove] = set()

    def extend(start: int, ring: list[int], links: list[int], exit_site: int, entry_site: int):
        # exit_site: the still-unlinked endpoint of ring[-1]
        if len(ring) >= 2:
            closing = partners[exit_site].get(entry_site)
            if closing is not None:
                added = links + [closing]
                flip = sum(1 << r for r in ring + added)
                if all(anchors[x] & (state ^ flip) for x in added):
                    found.add((3, tuple(sorted(ring)), tuple(sorted(added)), flip))
        if len(ring) >= MAX_RING:
            return
        for landing, x in partners[exit_site].items():
            nxt = owner.get(landing)
            if nxt is None or nxt in ring or nxt < start:
                continue
            s, u = ends[nxt]
            extend(start, ring + [nxt], links + [x], s + u - landing, entry_site)

    for start in current:
        # fix the lowest-ranked ring edge as the start; try both orientations
        s, u = ends[start]
        extend(start, [start], [], u, s)
        extend(start, [start], [], s, u)
    return found


# --- exploration -------------------------------------------------------------

MAX_STATES = 50_000  # default state budget of explore() and hybridization_verdict()


@dataclass
class ExploreReport:
    graph: StrandGraph
    states: list[frozenset[Edge]]
    depths: list[int]
    parents: list[tuple[int, Move] | None]
    terminals: list[int]

    def trace_to(self, index: int) -> Trace:
        moves_back: list[Move] = []
        k = index
        while self.parents[k] is not None:
            parent, move = self.parents[k]
            moves_back.append(move)
            k = parent
        return Trace(self.states[0], tuple(reversed(moves_back)), self.states[index])


def explore(g: StrandGraph, max_states: int = MAX_STATES) -> ExploreReport:
    """Breadth-first closure of the move relation from g's current state.

    The report lists the states in discovery order as edge sets, with their
    depths, the terminal states, and a shortest trace to any state on
    request.  If the closure has more than max_states states,
    ExplorationLimitError is raised; no partial verdicts are produced.  A
    state at depth d has d ancestors, so max_states bounds the depth too.

    The search runs on edge ranks: a state is a bitmask over the ranked
    admissible edges, and a move flips the bits of the edges it removes and
    adds.  Move lists are cached per vertex-connected component of the
    admissible edges, since no move touches two components.  Only a new
    state becomes an edge set, and only a move that reaches a new state
    becomes a Move.  Each state is still checked once, by with_current, when
    it is dequeued.
    """
    if max_states <= 0:
        raise ValueError("exploration bounds must be positive")
    ix: _Index = g._index
    moves_of = _enumerator(ix)
    start = sum(1 << ix.rank[e] for e in g.current)
    # states hold the ranked edge objects, so set operations on them find
    # each edge by identity and never call Edge.__eq__
    states = [frozenset(e for e in ix.edges if e in g.current)]
    masks = [start]
    depths = [0]
    parents: list[tuple[int, Move] | None] = [None]
    index = {start: 0}
    decoded: dict[_RankMove, Move] = {}  # a move recurs while other components change
    terminals: list[int] = []
    queue: deque[int] = deque([0])
    while queue:
        i = queue.popleft()
        g.with_current(states[i])  # the check: admissible, each site bound once
        state = masks[i]
        available = moves_of(state)
        if not available:
            terminals.append(i)
            continue
        for m in available:
            nxt = state ^ m[3]
            if nxt in index:
                continue
            if len(states) >= max_states:
                raise ExplorationLimitError(f"more than {max_states} states")
            move = decoded.get(m)
            if move is None:
                move = decoded[m] = _decode(ix, m)
            index[nxt] = len(states)
            states.append((states[i] - move.removed) | move.added)
            masks.append(nxt)
            depths.append(depths[i] + 1)
            parents.append((i, move))
            queue.append(index[nxt])
    return ExploreReport(g, states, depths, parents, terminals)


# --- interchange formats -----------------------------------------------------


def to_json_dict(g: StrandGraph) -> dict:
    admissible = g._index.edges  # sorted
    return {
        "vertices": [
            {
                "id": v + 1,
                "length": g.lengths[v],
                "colour": g.colours[v],
                "domains": [format_domain(d) for d in g.domains[v]],
            }
            for v in range(len(g.lengths))
        ],
        "admissible": [[[e.a.vertex, e.a.position], [e.b.vertex, e.b.position]] for e in admissible],
        "toehold": [g.toehold(e) for e in admissible],
        "current": [[[e.a.vertex, e.a.position], [e.b.vertex, e.b.position]] for e in sorted(g.current)],
    }


def to_json(g: StrandGraph) -> str:
    return json.dumps(to_json_dict(g), indent=2) + "\n"


def _edge_from_json(pair) -> Edge:
    try:
        (v1, n1), (v2, n2) = pair
    except (TypeError, ValueError) as exc:
        raise GraphError(f"bad edge entry {pair!r}: {exc}") from None
    # JSON integers only: a bool is an int in Python, and int() would accept 1.9 and "1"
    if not all(type(x) is int for x in (v1, n1, v2, n2)):
        raise GraphError(f"bad edge entry {pair!r}: coordinates must be integers")
    return Edge(Site(v1, n1), Site(v2, n2))


def from_json(text: str | dict) -> StrandGraph:
    try:
        data = json.loads(text) if isinstance(text, str) else text
    except RecursionError:
        raise GraphError("graph JSON nests too deeply") from None
    try:
        vertices = data["vertices"]
        admissible_rows = data["admissible"]
        toehold_rows = data["toehold"]
        current_rows = data["current"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"missing graph field: {exc}") from None
    if not all(isinstance(rows, list) for rows in (vertices, admissible_rows, toehold_rows, current_rows)):
        raise GraphError("graph fields vertices, admissible, toehold and current must be lists")
    domains = []
    for k, row in enumerate(vertices, start=1):
        if not isinstance(row, dict):
            raise GraphError(f"vertex entry {row!r} is not an object")
        if type(row.get("id")) is not int or row["id"] != k:
            raise GraphError(f"vertex ids must run 1..n, found {row.get('id')!r}")
        if not isinstance(row.get("domains"), list):
            raise GraphError(f"vertex {k}: domains must be a list of domain tokens")
        try:
            domains.append(tuple(parse_domain(tok) for tok in row["domains"]))
        except TypeError as exc:
            raise GraphError(f"vertex {k}: malformed domain token ({exc})") from None
    admissible = [_edge_from_json(pair) for pair in admissible_rows]
    g = StrandGraph(tuple(domains), frozenset(_edge_from_json(pair) for pair in current_rows))
    # every field but the labels and the current edges is derived: check it agrees
    for k, row in enumerate(vertices):
        if type(row.get("length")) is not int or row["length"] != g.lengths[k]:
            raise GraphError(f"vertex {k + 1} length disagrees with its domain list")
        if type(row.get("colour")) is not int or row["colour"] != g.colours[k]:
            raise GraphError(
                f"vertex {k + 1} colour must be {g.colours[k]}: colours number strand types by first appearance"
            )
    if frozenset(admissible) != g.admissible:
        raise GraphError("admissible edges must be exactly the complementary site pairs")
    if len(toehold_rows) != len(admissible):
        raise GraphError("toehold flags must align with the admissible list")
    for e, flag in zip(admissible, toehold_rows):
        if type(flag) is not bool:
            raise GraphError(f"toehold flag for {e} must be true or false, found {flag!r}")
        if flag != g.toehold(e):
            raise GraphError(f"toehold flag for {e} disagrees with its site labels")
    return g


def to_dot(g: StrandGraph) -> str:
    """Graphviz rendering: current edges red, admissible-only edges blue,
    toehold edges dashed."""
    return "\n".join(_dot_lines(g)) + "\n"


def _dot_lines(g: StrandGraph) -> Iterator[str]:
    yield "graph strand_system {"
    yield "  node [shape=box, fontname=monospace];"
    for v in range(1, len(g.lengths) + 1):
        seq = " ".join(format_domain(d) for d in g.domains[v - 1])
        yield f'  v{v} [label="{v}: <{seq}>  colour {g.colours[v - 1]}"];'
    for e in g._index.edges:  # sorted
        colour = "red" if e in g.current else "blue"
        style = "dashed" if g.toehold(e) else "solid"
        width = ", penwidth=2.0" if e in g.current else ""
        yield (
            f'  v{e.a.vertex} -- v{e.b.vertex} '
            f'[label="{e.a}-{e.b}", color={colour}, style={style}{width}];'
        )
    yield "}"
