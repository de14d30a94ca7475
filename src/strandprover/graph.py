"""Strand graphs: sites, admissible and current edges, moves, and exploration.

A strand graph keeps the static shape of a process (one vertex per strand,
one site per domain position) apart from its dynamic state, the current edge
set E.  Admissible edges connect every pair of complementary sites; moves
rewrite E only.  Rule names follow the trace vocabulary GB (bind), GU
(unbind), G3 (displace), GM (ring migration).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
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

    def touches(self, site: Site) -> bool:
        return site == self.a or site == self.b

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

    def sort_key(self):
        return (_RULE_ORDER[self.rule], tuple(sorted(self.removed)), tuple(sorted(self.added)))

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
    return bool(edge_adjacent(e, set(edges) - {e}))


class _Index(NamedTuple):
    """Lookups derived once from a validated shape and shared by its states."""

    by_site: dict[Site, dict[Site, Edge]]  # site -> other endpoint -> admissible edge
    anchors: dict[Edge, frozenset[Edge]]  # admissible antiparallel neighbours
    toeholds: frozenset[Edge]
    rank: dict[Edge, int]  # position in sorted order, so moves sort on integers


@dataclass(frozen=True)
class StrandGraph:
    """A shape (lengths, colours, labels, admissible edges) and a state, the
    current edges.  The shape is validated and indexed once; with_current
    reuses both and checks only the new edge set, in O(|E|)."""

    lengths: tuple[int, ...]
    colours: tuple[int, ...]
    domains: tuple[tuple[Domain, ...], ...]  # per-site labels, bond-free
    admissible: frozenset[Edge]
    current: frozenset[Edge]

    def __post_init__(self):
        n = len(self.lengths)
        if not (len(self.colours) == len(self.domains) == n):
            raise GraphError("lengths, colours and domains must align")
        for v in range(n):
            if self.lengths[v] != len(self.domains[v]):
                raise GraphError(f"vertex {v + 1} length disagrees with its domain list")
            for d in self.domains[v]:
                if d.bond is not None:
                    raise GraphError("graph site labels carry no bonds")
        by_colour: dict[int, tuple[Domain, ...]] = {}
        for v in range(n):
            prior = by_colour.setdefault(self.colours[v], self.domains[v])
            if prior != self.domains[v]:
                raise GraphError(f"colour {self.colours[v]} is used for two different strand types")
        if self.admissible != _complementary_pairs(self.domains):
            raise GraphError("admissible edges must be exactly the complementary site pairs")
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


def _build_index(g: StrandGraph) -> _Index:
    ranked = sorted(g.admissible)
    by_site: dict[Site, dict[Site, Edge]] = {}
    for e in ranked:
        by_site.setdefault(e.a, {})[e.b] = e
        by_site.setdefault(e.b, {})[e.a] = e
    # the antiparallel neighbours of (v1,n1)-(v2,n2) can only be (v1,n1+d)-(v2,n2-d)
    anchors = {}
    for e in ranked:
        (v1, n1), (v2, n2) = e.a, e.b
        near = (by_site.get(Site(v1, n1 + d), {}).get(Site(v2, n2 - d)) for d in (1, -1))
        anchors[e] = frozenset(f for f in near if f not in (None, e))
    toeholds = frozenset(e for e in ranked if g.toehold(e))
    return _Index(by_site, anchors, toeholds, {e: k for k, e in enumerate(ranked)})


def from_process(p: Process) -> StrandGraph:
    """Strand graph of a process: one vertex per strand in order, colour by
    first appearance of the strand type, admissible edges from complementary
    site labels, current edges from bonds."""
    lengths = tuple(len(s) for s in p.strands)
    labels = tuple(tuple(d.free() for d in s.domains) for s in p.strands)
    type_index: dict[tuple, int] = {}
    colours = []
    for row in labels:
        key = tuple((d.name, d.complemented, d.toehold) for d in row)
        colours.append(type_index.setdefault(key, len(type_index) + 1))
    ends: dict[str, list[Site]] = {}
    for (s, n), d in p.occurrences():
        if d.bond is not None:
            ends.setdefault(d.bond, []).append(Site(s, n))
    current = frozenset(Edge(*pair) for pair in ends.values())
    return StrandGraph(lengths, tuple(colours), labels, _complementary_pairs(labels), current)


def unbindable_sites(g: StrandGraph) -> frozenset[Site]:
    """Sites no admissible edge touches; they stay free in every reachable state."""
    return frozenset(g.sites()) - sites_of(g.admissible)


HiddenEdgePredicate = Callable[[Edge, frozenset[Edge]], bool]


def _never_hidden(edge: Edge, current: frozenset[Edge]) -> bool:
    return False


# --- moves -------------------------------------------------------------------


def bind(g: StrandGraph, x: Edge, hidden: HiddenEdgePredicate | None = None) -> StrandGraph:
    """GB: add an admissible edge between two unbound sites."""
    if x not in g.admissible or x in g.current:
        raise MoveError(f"{x} is not an admissible free edge")
    occupied = sites_of(g.current)
    if x.a in occupied or x.b in occupied:
        raise MoveError(f"an endpoint of {x} is already bound")
    if (hidden or _never_hidden)(x, g.current):
        raise MoveError(f"{x} is hidden")
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


def apply_move(g: StrandGraph, move: Move, hidden: HiddenEdgePredicate | None = None) -> StrandGraph:
    """Apply a Move through the rule-specific applier, re-checking premises."""
    if move.rule == "GB":
        (x,) = move.added
        return bind(g, x, hidden)
    if move.rule == "GU":
        (e,) = move.removed
        return unbind(g, e)
    if move.rule == "G3":
        (e,) = move.removed
        (x,) = move.added
        return displace(g, e, x)
    return migrate(g, move.removed, move.added)


def moves(
    g: StrandGraph,
    max_ring: int = 4,
    hidden: HiddenEdgePredicate | None = None,
) -> list[Move]:
    """Every move whose premises hold in g, in a deterministic order.

    Migration rings are searched up to max_ring edges.
    """
    hidden = hidden or _never_hidden
    ix: _Index = g._index
    current = g.current
    owner = {s: e for e in current for s in (e.a, e.b)}
    out = []
    for s, partners in ix.by_site.items():
        if s not in owner:
            for t, x in partners.items():
                if s == x.a and t not in owner and not hidden(x, current):
                    out.append(Move("GB", frozenset(), frozenset([x])))
    for e in current:
        if e in ix.toeholds and ix.anchors[e].isdisjoint(current):
            out.append(Move("GU", frozenset([e]), frozenset()))
    for e in current:
        # x shares the site s with e and its other end t must be free; e
        # itself never anchors x, as no neighbour of x shares a site with it
        for s in (e.a, e.b):
            for t, x in ix.by_site[s].items():
                if t not in owner and not ix.anchors[x].isdisjoint(current):
                    out.append(Move("G3", frozenset([e]), frozenset([x])))
    out += _ring_moves(g, owner, max_ring)
    rank = ix.rank.__getitem__
    return sorted(out, key=lambda m: (_RULE_ORDER[m.rule], sorted(map(rank, m.removed)), sorted(map(rank, m.added))))


def _ring_moves(g: StrandGraph, owner: dict[Site, Edge], max_ring: int) -> set[Move]:
    """Rings alternate current edges with admissible linking edges whose
    endpoints all lie on the ring's current edges."""
    ix: _Index = g._index
    found: set[Move] = set()

    def extend(start: Edge, ring: list[Edge], links: list[Edge], exit_site: Site, entry_site: Site):
        # exit_site: the still-unlinked endpoint of ring[-1]
        if len(ring) >= 2:
            closing = ix.by_site[exit_site].get(entry_site)
            if closing is not None:
                added = frozenset(links + [closing])
                removed = frozenset(ring)
                result = (g.current - removed) | added
                if all(not ix.anchors[x].isdisjoint(result) for x in added):
                    found.add(Move("GM", removed, added))
        if len(ring) >= max_ring:
            return
        for landing, x in ix.by_site[exit_site].items():
            nxt = owner.get(landing)
            if nxt is None or nxt in ring or ix.rank[nxt] < ix.rank[start]:
                continue
            extend(start, ring + [nxt], links + [x], nxt.other(landing), entry_site)

    for start in g.current:
        # fix the lowest-ranked ring edge as the start; try both orientations
        for entry_site, exit_site in ((start.a, start.b), (start.b, start.a)):
            extend(start, [start], [], exit_site, entry_site)
    return found


# --- exploration -------------------------------------------------------------


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

    def terminal_traces(self) -> list[Trace]:
        return [self.trace_to(i) for i in self.terminals]


def explore(
    g: StrandGraph,
    max_states: int = 50_000,
    max_depth: int = 200,
    max_ring: int = 4,
    hidden: HiddenEdgePredicate | None = None,
) -> ExploreReport:
    """Breadth-first closure of the move relation from g's current state.

    States are keyed by their edge sets; the report lists them in
    discovery order with their depths, the terminal states, and a shortest
    trace to any state on request.  If the closure cannot finish within
    max_states or max_depth, ExplorationLimitError is raised; no partial
    verdicts are produced.
    """
    if max_states <= 0 or max_depth <= 0:
        raise ValueError("exploration bounds must be positive")
    states = [g.current]
    depths = [0]
    parents: list[tuple[int, Move] | None] = [None]
    index = {g.current: 0}
    terminals: list[int] = []
    queue: deque[int] = deque([0])
    while queue:
        i = queue.popleft()
        here = g.with_current(states[i])
        available = moves(here, max_ring=max_ring, hidden=hidden)
        if not available:
            terminals.append(i)
            continue
        for move in available:
            nxt = (states[i] - move.removed) | move.added
            if nxt in index:
                continue
            if depths[i] >= max_depth:
                raise ExplorationLimitError(f"new states beyond depth {max_depth}")
            if len(states) >= max_states:
                raise ExplorationLimitError(f"more than {max_states} states")
            # construct the successor through the validating constructor
            g.with_current(nxt)
            index[nxt] = len(states)
            states.append(nxt)
            depths.append(depths[i] + 1)
            parents.append((i, move))
            queue.append(index[nxt])
    return ExploreReport(g, states, depths, parents, terminals)


# --- interchange formats -----------------------------------------------------


def to_json_dict(g: StrandGraph) -> dict:
    admissible = sorted(g.admissible)
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
        return Edge(Site(int(v1), int(n1)), Site(int(v2), int(n2)))
    except (TypeError, ValueError) as exc:
        raise GraphError(f"bad edge entry {pair!r}: {exc}") from None


def from_json(text: str | dict) -> StrandGraph:
    data = json.loads(text) if isinstance(text, str) else text
    try:
        vertices = data["vertices"]
        admissible_rows = data["admissible"]
        toehold_rows = data["toehold"]
        current_rows = data["current"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"missing graph field: {exc}") from None
    lengths, colours, domains = [], [], []
    for k, row in enumerate(vertices, start=1):
        if row.get("id") != k:
            raise GraphError(f"vertex ids must run 1..n, found {row.get('id')!r}")
        labels = tuple(parse_domain(tok) for tok in row["domains"])
        if row.get("length") != len(labels):
            raise GraphError(f"vertex {k} length disagrees with its domain list")
        lengths.append(len(labels))
        colours.append(int(row["colour"]))
        domains.append(labels)
    admissible = [_edge_from_json(pair) for pair in admissible_rows]
    current = frozenset(_edge_from_json(pair) for pair in current_rows)
    g = StrandGraph(tuple(lengths), tuple(colours), tuple(domains), frozenset(admissible), current)
    if len(toehold_rows) != len(admissible):
        raise GraphError("toehold flags must align with the admissible list")
    for e, flag in zip(admissible, toehold_rows):
        if bool(flag) != g.toehold(e):
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
    for e in sorted(g.admissible):
        colour = "red" if e in g.current else "blue"
        style = "dashed" if g.toehold(e) else "solid"
        width = ", penwidth=2.0" if e in g.current else ""
        yield (
            f'  v{e.a.vertex} -- v{e.b.vertex} '
            f'[label="{e.a}-{e.b}", color={colour}, style={style}{width}];'
        )
    yield "}"
