"""Strand graphs: sites, admissible and current edges, moves, and exploration.

A strand graph keeps the static shape of a process (one vertex per strand,
one site per domain position) apart from its dynamic state, the current edge
set E.  Admissible edges connect every pair of complementary sites; moves
rewrite E only, and each move rewrites edges of one domain name.  Rule names
follow the trace vocabulary GB (bind), GU (unbind), G3 (displace), GM (ring
migration).

The rule appliers (bind, unbind, displace, migrate) check their premises on
edge sets.  moves and explore run on the shape's integer index (_Index)
instead, and the appliers stay their independent cross-check.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from .process import Domain, Process, antiparallel_adjacent, code_labels, decode_labels, format_domain, parse_domain


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


class _EdgeFields(NamedTuple):
    a: Site
    b: Site


class Edge(_EdgeFields):
    """An unordered pair of distinct sites; endpoints are stored sorted.

    A named tuple, it compares, hashes and sorts as the tuple (a, b).  Its
    one constructor, which copy, pickle (protocol 2 and up) and _replace
    also call, wraps both endpoints as Sites, refuses endpoints that
    coincide, and sorts them."""

    __slots__ = ()

    def __new__(cls, a: tuple[int, int], b: tuple[int, int]) -> Edge:
        a, b = Site(*a), Site(*b)
        if a == b:
            raise GraphError(f"edge endpoints coincide: {a}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable: Iterable[tuple[int, int]]) -> Edge:
        return cls(*iterable)

    @property
    def sites(self) -> frozenset[Site]:
        return frozenset(self)

    def other(self, site: Site) -> Site:
        if site == self.a:
            return self.b
        if site == self.b:
            return self.a
        raise GraphError(f"{site} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


RULES = ("GB", "GU", "G3", "GM")
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

    def walk(self, g: StrandGraph) -> Iterator[StrandGraph]:
        """g's shape in each state of the trace, the initial state first; each
        move is applied by apply_move, so MoveError when a premise fails."""
        g = g.with_current(self.initial)
        yield g
        for move in self.moves:
            g = apply_move(g, move)
            yield g

    def replay(self, g: StrandGraph) -> frozenset[Edge]:
        """The final edges, each move re-applied on g's shape by apply_move;
        MoveError when a premise fails or the trace ends elsewhere."""
        for state in self.walk(g):
            current = state.current
        if current != self.final:
            raise MoveError("trace does not end in its recorded final state")
        return current

    def lines(self, g: StrandGraph) -> list[str]:
        """One line per move: its rule, its edges and |E| in the state that
        walk(g) reaches by it, so MoveError when a premise fails."""
        after = islice(self.walk(g), 1, None)  # the state each move reaches
        return [
            f"step {k}: {move.describe()} |E|={len(state.current)}"
            for k, (move, state) in enumerate(zip(self.moves, after), start=1)
        ]


def sites_of(edges: Iterable[Edge]) -> frozenset[Site]:
    return frozenset(s for e in edges for s in (e.a, e.b))


def edge_adjacent(e: Edge, edges: Iterable[Edge]) -> frozenset[Edge]:
    """Edges on the same vertex pair as e, offset by one antiparallel step."""
    return frozenset(f for f in edges if f != e and antiparallel_adjacent(e, f))


def is_anchored(e: Edge, edges: Iterable[Edge]) -> bool:
    return bool(edge_adjacent(e, edges))


@dataclass(frozen=True)
class StrandGraph:
    """A shape, the bond-free site labels, and a state, the current edges.

    The labels fix the rest of the shape: each vertex's length, its colour
    (strand types numbered by first appearance) and the admissible edges,
    every complementary site pair.  Every vertex needs a label.  The shape is
    indexed once, on label codes (_build_index); the state is a bitmask over
    its edge ranks, and with_current checks only the new edge set, in O(|E|).
    A field not given is built from the index or the mask when first read."""

    domains: tuple[tuple[Domain, ...], ...]  # per-site labels, bond-free
    current: frozenset[Edge]
    lengths: tuple[int, ...] = field(init=False)
    colours: tuple[int, ...] = field(init=False)
    admissible: frozenset[Edge] = field(init=False)

    def __post_init__(self):
        if not all(self.domains):
            raise GraphError("a vertex needs at least one domain")
        if any(d.bond is not None for row in self.domains for d in row):
            raise GraphError("graph site labels carry no bonds")
        labels, names, _ = code_labels(self.domains)
        self.__dict__["_index"] = _build_index(labels, names, tuple(map(len, self.domains)))
        # current may come as a sequence, checked in its order and then stored as a set
        self.__dict__["_mask"] = self._mask_of(self.current)
        self.__dict__["current"] = frozenset(self.current)

    def __getattr__(self, name: str):
        # only names not yet set come here: the current edges, decoded from
        # the mask, and the shape's fields, which the index builds for every state
        d = self.__dict__
        if "_index" not in d or name not in ("current", "domains", "lengths", "colours", "admissible"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d[name] = value = _edges_of(d["_index"], d["_mask"]) if name == "current" else getattr(d["_index"], name)
        return value

    def _mask_of(self, current: Collection[Edge]) -> int:
        """current as a rank bitmask; GraphError naming the first edge, in current's
        order, that is not admissible, or else the first site bound twice."""
        ranks = [self._index.rank.get(e) for e in current]
        if None in ranks:
            raise GraphError(f"current edge {list(current)[ranks.index(None)]} is not admissible")
        ends = [s for e in current for s in (e.a, e.b)]
        if len(set(ends)) < len(ends):
            raise GraphError(f"site {next(s for s in ends if ends.count(s) > 1)} is bound twice")
        return sum(1 << r for r in ranks)

    def vertex_count(self) -> int:
        return len(self.lengths)

    def sites(self) -> list[Site]:
        return list(self._index.sites)

    def label(self, site: Site) -> Domain:
        v, n = site
        if not (1 <= v <= len(self.lengths) and 1 <= n <= self.lengths[v - 1]):
            raise GraphError(f"no site {Site(v, n)}")
        return self.domains[v - 1][n - 1]

    def toehold(self, e: Edge) -> bool:
        return self.label(e.a).toehold

    def with_current(self, current: Iterable[Edge]) -> "StrandGraph":
        current = frozenset(current)
        g = object.__new__(type(self))
        g.__dict__.update(self.__dict__, current=current, _mask=self._mask_of(current))
        return g


@dataclass
class _Index:
    """A shape on integers, built once from label codes and shared by every
    state: sites numbered from 0 in Site order, admissible edges ranked in
    sorted order, and what moves and explore read of them.  Its objects, the
    sites, the edges and the StrandGraph fields, are built when first read.
    It keeps no exploration state: each closure has its own memos (_closure)."""

    labels: list[int]  # site id -> 2 * rank of (name, toehold) + complemented, as bind_chain reads it
    names: list[tuple[str, bool]]  # rank -> (name, toehold)
    lengths: tuple[int, ...]  # vertex -> its number of sites
    toehold_labels: frozenset[int]  # the codes of toehold labels
    ends: list[tuple[int, int]]  # rank -> its two site ids, ascending
    anchors: list[int]  # rank -> bitmask of its admissible antiparallel neighbours
    toeholds: list[bool]  # rank -> toehold edge
    partners: list[dict[int, int]]  # site id -> other site id -> edge rank, in rank order
    # per vertex-connected component: its rank mask, and each name's rank mask
    # and ranks in it, in order of their first rank
    components: list[tuple[int, list[tuple[int, list[int]]]]]

    @cached_property
    def sites(self) -> list[Site]:  # site id -> site
        return [Site(v, n) for v, length in enumerate(self.lengths, start=1) for n in range(1, length + 1)]

    @cached_property
    def edges(self) -> list[Edge]:  # rank -> edge
        sites = self.sites
        return [Edge(sites[s], sites[t]) for s, t in self.ends]

    @cached_property
    def rank(self) -> dict[Edge, int]:
        return {e: r for r, e in enumerate(self.edges)}

    @cached_property
    def admissible(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def domains(self) -> tuple[tuple[Domain, ...], ...]:
        labels = iter(decode_labels(self.names, self.labels))
        return tuple(tuple(islice(labels, length)) for length in self.lengths)

    @cached_property
    def colours(self) -> tuple[int, ...]:
        types: dict[tuple[Domain, ...], int] = {}
        return tuple(types.setdefault(row, len(types) + 1) for row in self.domains)


def _build_index(labels: list[int], names: list[tuple[str, bool]], lengths: tuple[int, ...]) -> _Index:
    """The shape of these label codes on vertices of these lengths, in one pass over site ids."""
    toehold_labels = frozenset(2 * k + c for k, (_, toehold) in enumerate(names) if toehold for c in (0, 1))
    by_label: dict[int, list[int]] = {}
    for s, code in enumerate(labels):
        by_label.setdefault(code, []).append(s)
    # site id -> vertex, and -1 past either end: ids s - 1 and s + 1 lie on
    # the vertex of s exactly when their entries equal its own
    vertex = [v for v, length in enumerate(lengths) for _ in range(length)] + [-1]
    # union-find over vertices: anchors join edges on one vertex pair and every
    # other premise joins edges that share a site, so no move spans two components
    root = list(range(len(lengths)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    ends: list[tuple[int, int]] = []
    anchors: list[int] = []
    toeholds: list[bool] = []
    partners: list[dict[int, int]] = [{} for _ in labels]
    # each site paired with the later sites of the complementary label
    # (Domain.matches), in order: as site ids follow Site order, edges come sorted
    for s, code in enumerate(labels):
        toehold, v = code in toehold_labels, vertex[s]
        inner = vertex[s - 1] == v  # s is not its vertex's first site
        for t in by_label.get(code ^ 1, ()):
            if t <= s:
                continue
            r = len(ends)
            ends.append((s, t))
            toeholds.append(toehold)
            partners[s][t] = partners[t][s] = r
            root[find(v)] = find(vertex[t])
            # the antiparallel neighbour on ids s-1 and t+1 ranks first, so it is
            # indexed already; the one on s+1 and t-1 sets both masks when it comes
            f = partners[s - 1].get(t + 1) if inner and vertex[t + 1] == vertex[t] else None
            anchors.append(0 if f is None else 1 << f)
            if f is not None:
                anchors[f] |= 1 << r
    # every rule rewrites edges of one name, as an edge joins complementary
    # labels: moves are enumerated name by name (_component_moves).  Each
    # name's edges lie in one component, as an edge joins each of its sites
    # to each complementary one; its masks are built as its ranks are grouped
    masks: dict[int, int] = {}  # name code -> rank mask
    by_name: dict[int, list[int]] = {}  # name code -> ranks
    groups: dict[int, list[int]] = {}  # component root -> name codes, in order of first rank
    for r, (s, _) in enumerate(ends):
        k = labels[s] >> 1
        if k in masks:
            masks[k] |= 1 << r
            by_name[k].append(r)
        else:
            masks[k], by_name[k] = 1 << r, [r]
            groups.setdefault(find(vertex[s]), []).append(k)
    components = []
    for codes in groups.values():
        mask = 0
        for k in codes:
            mask |= masks[k]
        components.append((mask, [(masks[k], by_name[k]) for k in codes]))
    return _Index(labels, names, lengths, toehold_labels, ends, anchors, toeholds, partners, components)


def from_process(p: Process) -> StrandGraph:
    """Strand graph of a process: one vertex per strand in order, the strands'
    bond-free labels, current edges from bonds, all read off the process's
    codes and strand lengths: no strand is read."""
    ix = _build_index(p._codes, p._names, p._lengths)
    g = object.__new__(StrandGraph)
    g.__dict__.update(_index=ix, _mask=sum(1 << ix.partners[s][t] for s, t in p._bonds.values()))
    return g


def bind_chain(labels: Sequence[Sequence[int]], toeholds: Collection[int] = ()) -> list[tuple[int, int]] | None:
    """The greedy maximum binding of a graph with these labels per vertex and
    no current edge, as site pairs in rank order; None when a toehold label
    meets its complement, so that an edge might unbind (GU).

    A label is an integer code, and code ^ 1 codes its complement
    (Domain.matches); toeholds holds the codes of toehold labels.  A pair
    holds two site ids, ascending, with sites numbered from 0 in Site order.

    With no GU, only GB changes how many edges a label pair has: G3 and GM
    swap edges within one name.  Every terminal state is therefore a maximum
    binding of the admissible graph, which is complete bipartite per label,
    and so is the greedy chain: each site in Site order, while it is free,
    binds the first later free site of the complementary label.  Without an
    adjacent pair x y that meets a y* x* elsewhere, GB is the only move, and
    the chain is the binding that breadth-first search with rank-sorted moves
    meets first; otherwise the chain's end may still admit a G3 or GM.

    One pass builds the chain with a first-in first-out queue per label: each
    site pairs with the earliest still-unpaired earlier site of the
    complementary label, or else joins its own label's queue.  That is the
    greedy chain, since a site the forward scan reaches still free has no
    free complementary site before it, and each earlier site, in order, took
    the first free site after itself.  At most one of a name's two queues is
    ever non-empty, so at the end each name's unpaired sites all carry one
    label: no two free sites can bind, and per name the binding has as many
    pairs as the rarer label has sites, the most there can be.  O(sites)."""
    flat = [label for row in labels for label in row]
    present = set(flat)
    for label in toeholds:
        if label in present and label ^ 1 in present:
            return None
    waiting: dict[int, deque[int]] = {}  # label -> its unpaired site ids so far, ascending
    chain = []
    for t, label in enumerate(flat):
        queue = waiting.get(label ^ 1)
        if queue:
            chain.append((queue.popleft(), t))
        else:
            waiting.setdefault(label, deque()).append(t)
    chain.sort()  # pairs come in order of their later site
    return chain


def binding_trace(g: StrandGraph) -> Trace | None:
    """The greedy maximum binding of g (bind_chain) as GB moves in rank order;
    None when g has a current edge or a toehold label meets its complement."""
    ix = g._index  # it codes the labels as bind_chain reads them, all sites in one row
    chain = None if g._mask else bind_chain([ix.labels], ix.toehold_labels)
    if chain is None:
        return None
    edges = [ix.edges[ix.partners[a][b]] for a, b in chain]
    return Trace(frozenset(), tuple(Move("GB", frozenset(), frozenset([x])) for x in edges), frozenset(edges))


# --- moves -------------------------------------------------------------------

MAX_RING = 4  # longest migration ring, in current edges, that moves() searches: a budget


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
    # n added edges cover the 2n removed endpoints, so each site has one mate;
    # walk removed -> added -> removed from one removed edge: the edges form
    # a single ring iff the walk gets back to its start after n removed edges
    mate = {s: x.other(s) for x in added for s in (x.a, x.b)}
    first = next(iter(removed))
    site, walked = mate[first.b], 1
    while site != first.a:
        site = mate[owner[site].other(site)]
        walked += 1
    if walked != n:
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
    the added ones.  Migration rings are searched up to MAX_RING current
    edges; ExplorationLimitError where a ring would need more (_ring_moves).

    This decodes the integer enumerator that explore() runs, run on each
    component's part of g's state and merged: no move spans two components."""
    ix: _Index = g._index
    found = [m for mask, names in ix.components
             for m in _component_moves(ix, [(*name, {}) for name in names], g._mask & mask)]
    return [_decode(ix, m) for m in sorted(found)]


# A move on edge ranks: (rule order, sorted removed ranks, sorted added ranks,
# flip mask).  The successor of a bitmask state is state ^ flip.
_RankMove = tuple[int, tuple[int, ...], tuple[int, ...], int]
# A candidate move and what its premises still read in the state after it:
# a mask that must hold no current edge, and masks that must each hold one.
_Candidate = tuple[_RankMove, int, tuple[int, ...]]


def _decode(t: _Index, move: _RankMove) -> Move:
    rule, removed, added, _ = move
    return Move(RULES[rule], frozenset([t.edges[r] for r in removed]), frozenset([t.edges[r] for r in added]))


def _component_moves(t: _Index, names: list[tuple[int, list[int], dict]], state: int) -> list[_RankMove]:
    """The sorted moves of a component of t.components in a state with no
    current edge outside it, where names holds each of the component's names
    as its rank mask, its ranks and a memo of its candidates by its current
    edges.  GraphError if the state binds a site twice.

    Each move rewrites edges of one name, as every edge joins complementary
    sites, and all its premises but one read that name's edges alone: a
    site of the name is bound by no edge of another name, and a ring's edges
    all share its name.  The one left, an anchor, may read any edge.  So each
    name's candidates are built once per set of its current edges
    (_name_moves) and kept in its memo, which lives for one closure
    (_closure) or one moves() call, and in each state only that premise is
    tested.  Two edges that bind one site share its name, so a state that
    binds a site twice is never kept, and raises each time it is read."""
    out: list[_RankMove] = []
    for mask, ranks, memo in names:
        edges = state & mask
        entry = memo.get(edges)
        if entry is None:
            entry = memo[edges] = _name_moves(t, ranks, edges)
        binds, premised = entry
        out += binds
        for move, avoid, need in premised:
            after = state ^ move[3]
            if after & avoid:
                continue
            for anchor in need:
                if not after & anchor:
                    break
            else:
                out.append(move)
    out.sort()
    return out


def _name_moves(t: _Index, ranks: list[int], edges: int) -> tuple[list[_RankMove], list[_Candidate]]:
    """The candidate moves of the name whose edges are ranks, where its
    current edges are edges: its GB moves, whose premises all hold, and its
    other moves with the premise they still need.  A GU needs its
    edge unanchored, a G3 its added edge anchored, and a GM every added edge
    anchored, each in the state after the move.  GraphError if edges bind a
    site twice.

    G3 is tried from every current edge: one that shares no site with
    another has only itself as a partner, whose far end it binds, so it
    gives no candidate.  GM is searched only where the name holds two
    current edges or more, so that each of its labels has two sites or more."""
    ends, anchors, partners = t.ends, t.anchors, t.partners
    current = []
    owner: dict[int, int] = {}  # bound site id -> its current edge
    bits = edges
    while bits:
        e = (bits & -bits).bit_length() - 1
        bits ^= 1 << e
        current.append(e)
        s, u = ends[e]
        if s in owner or u in owner:
            raise GraphError(f"site {t.sites[s if s in owner else u]} is bound twice")
        owner[s] = owner[u] = e
    binds = [(0, (), (x,), 1 << x) for x in ranks if ends[x][0] not in owner and ends[x][1] not in owner]
    premised: list[_Candidate] = [((1, (e,), (), 1 << e), anchors[e], ()) for e in current if t.toeholds[e]]
    for e in current:
        # x shares the site s with e and its other end u must be free; e
        # itself never anchors x, as no neighbour of x shares a site with it
        for s in ends[e]:
            for u, x in partners[s].items():
                if u not in owner:
                    premised.append(((2, (e,), (x,), 1 << e | 1 << x), 0, (anchors[x],)))
    if edges & edges - 1:  # two current edges or more
        premised += _ring_moves(t, owner, edges)
    return binds, premised


def _ring_moves(t: _Index, owner: dict[int, int], seeds: int) -> list[_Candidate]:
    """Rings alternate current edges with admissible linking edges whose
    endpoints all lie on the ring's current edges.  All of a ring's edges
    share one name, so its current edges are among seeds, that name's, and
    owner, the sites they bind, is all the search reads; each ring comes with
    its added edges' anchors, which _component_moves tests in each state.
    A ring holds at most MAX_RING current edges, a budget: where a link from
    a full ring's open end reaches a current edge that could extend it, a
    longer ring may close, so ExplorationLimitError, even where none does."""
    ends, anchors, partners = t.ends, t.anchors, t.partners
    found: list[_Candidate] = []

    def extend(start: int, ring: list[int], links: list[int], flip: int, exit_site: int, entry_site: int):
        # exit_site: the still-unlinked endpoint of ring[-1]; flip: the ring's
        # edges and links so far, so a current edge in it is on the ring
        if len(ring) >= 2:
            closing = partners[exit_site].get(entry_site)
            if closing is not None:
                added = links + [closing]
                move = (3, tuple(sorted(ring)), tuple(sorted(added)), flip | 1 << closing)
                found.append((move, 0, tuple(anchors[x] for x in added)))
        for landing, x in partners[exit_site].items():
            nxt = owner.get(landing)
            if nxt is None or nxt < start or flip >> nxt & 1:
                continue
            if len(ring) >= MAX_RING:
                raise ExplorationLimitError(f"a migration ring may need more than {MAX_RING} edges")
            s, u = ends[nxt]
            extend(start, ring + [nxt], links + [x], flip | 1 << nxt | 1 << x, s + u - landing, entry_site)

    while seeds:
        # a ring's removed and added edges form one cycle; it starts at its
        # lowest-ranked edge and leaves it by one fixed endpoint, so each ring
        # has one traversal and is found once
        start = (seeds & -seeds).bit_length() - 1
        seeds ^= 1 << start
        s, u = ends[start]
        extend(start, [start], [], 1 << start, u, s)
    return found


# --- exploration -------------------------------------------------------------

MAX_STATES = 50_000  # default state budget of explore() and hybridization_verdict()


class _Decoded(Sequence):
    """A read-only list of items decoded from integer codes when read; a slice is a list."""

    def __init__(self, codes: list, decode: Callable):
        self._codes, self._decode = codes, decode

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, k):
        return list(map(self._decode, self._codes[k])) if isinstance(k, slice) else self._decode(self._codes[k])

    def __iter__(self):
        return map(self._decode, self._codes)

    def __eq__(self, other):
        return list(self) == other


def _edges_of(t: _Index, mask: int) -> frozenset[Edge]:
    return frozenset([e for r, e in enumerate(t.edges) if mask >> r & 1])


def _link(t: _Index, decoded: dict[_RankMove, Move], link: tuple[int, _RankMove] | None) -> tuple[int, Move] | None:
    """The link with its move decoded once per report, as a move recurs on many links."""
    if link is None:
        return None
    i, m = link
    if m not in decoded:
        decoded[m] = _decode(t, m)
    return i, decoded[m]


@dataclass
class ExploreReport:
    """States as edge sets and links to parents as (index, Move), each
    decoded from explore's integer walk when it is read.  masks holds the
    states as the walk keeps them, bitmasks over the ranks of the graph's
    admissible edges in sorted order: a state's edge count is its mask's
    bit count."""

    graph: StrandGraph
    states: Sequence[frozenset[Edge]]
    depths: list[int]
    parents: Sequence[tuple[int, Move] | None]
    terminals: list[int]
    masks: list[int]

    def trace_to(self, index: int) -> Trace:
        moves_back, k = [], index
        while (link := self.parents[k]) is not None:
            k, move = link
            moves_back.append(move)
        return Trace(self.states[0], tuple(reversed(moves_back)), self.states[index])


def _closure(t: _Index, component: tuple[int, list[tuple[int, list[int]]]], state: int,
             max_states: int) -> tuple[int, dict[int, list[_RankMove]], set[int]]:
    """One component's closure from state's part, walked breadth first: its
    rank mask, the moves by which each expanded part found parts first (its
    children), and the expanded parts with no move (terminals).  Each part
    is checked on its bitmask, every bit a ranked edge, and then its moves
    are enumerated once (GraphError on a site bound twice), from each name's
    candidates, built once per set of its current edges (_component_moves)
    in memos that live for this walk only, so that the shape holds no
    exploration state and pickles the same after it.  The walk stops,
    without raising, once it holds more than max_states parts."""
    mask, names = component
    names = [(*name, {}) for name in names]  # each name's memo, empty
    width = len(t.ends)
    parts = [state & mask]
    seen = set(parts)
    children: dict[int, list[_RankMove]] = {}
    terminals: set[int] = set()
    for part in parts:
        if len(parts) > max_states:
            break
        if part >> width:
            raise GraphError(f"state {part:#x} has a bit past the last edge rank")
        found = _component_moves(t, names, part)
        if not found:
            terminals.add(part)
        kids = children[part] = []
        for m in found:
            nxt = part ^ m[3]
            if nxt not in seen:
                seen.add(nxt)
                parts.append(nxt)
                kids.append(m)
    return mask, children, terminals


def explore(g: StrandGraph, max_states: int = MAX_STATES) -> ExploreReport:
    """Breadth-first closure of the move relation from g's current state.

    The report lists the states in discovery order as edge sets, with their
    depths, the terminal states, and a shortest trace to any state on
    request.  If the closure has more than max_states states,
    ExplorationLimitError is raised, naming the depth of the state whose
    successor went over; no partial verdicts are produced.  A state at depth
    d has d ancestors, so max_states bounds the depth too.  The ring cap is
    a budget as well (_ring_moves).  GraphError if a reached state has a
    bit past the last edge rank or binds a site twice.

    The search runs on integers only: a state is a bitmask over the ranked
    admissible edges, a move flips the bits of the edges it removes and
    adds, and a state keeps its depth and a link to its parent (index, move
    on ranks).  The report decodes a state into an edge set, and a move into
    a Move, when it is read.

    No move touches two vertex-connected components of the admissible
    edges, so the states are the product of each component's states, its
    parts, and a state's depth is the sum of its parts' depths.  Each
    component's closure is walked once, before the product (_closure), so
    each reachable part's moves are enumerated once, and each name's
    candidate moves once per set of its current edges: they read no other
    name's edges, and the one premise that does, an anchor, is tested per
    part (_component_moves).  Those candidates live for one closure, and g
    and its shape are left as they were.  Only the product raises on
    max_states, and at the right depth: each part a stopped closure found,
    with every other component at its first part, is a product state
    reached through children of expanded parts, and every part shallower
    than the last one expanded was expanded, so the product passes
    max_states at the same depth as with whole closures and raises there.

    The product is assembled a depth at a time.  Only a forward move, one
    that reaches a part one depth deeper, can reach a new state, and the
    state it reaches is one depth deeper.  Of the forward moves, only a
    part's children, the moves by which its closure found other parts
    first, can be a state's first link: by induction on depth, of two states
    at one depth that differ in one part only, the one whose part its
    closure found first is found first, so a state's earliest parent among
    those that differ from it in one component holds the closure parent of
    its part there.  Each child is tested against the states of the next
    depth only, and one sort on (parent index, move) puts that depth in
    breadth-first order, each state's moves in the order moves() gives.  A
    state is terminal when all its parts are.
    """
    if max_states <= 0:
        raise ValueError("exploration bounds must be positive")
    ix: _Index = g._index
    state = g._mask
    closures = [_closure(ix, component, state, max_states) for component in ix.components]
    masks, depths, links = [state], [0], [None]
    start = depth = 0
    while start < len(masks):
        end = len(masks)
        first: dict[int, tuple[int, _RankMove]] = {}  # state of the next depth -> its first link
        for i in range(start, end):
            s = masks[i]
            for mask, children, _ in closures:
                for m in children.get(s & mask, ()):
                    nxt = s ^ m[3]
                    if nxt not in first:
                        first[nxt] = (i, m)
            if end + len(first) > max_states:
                raise ExplorationLimitError(f"more than {max_states} states, at depth {depth}")
        found = sorted(first.values())  # breadth-first order: by parent, then as moves() lists moves
        masks += [masks[i] ^ m[3] for i, m in found]
        links += found
        depth += 1
        depths += [depth] * len(found)
        start = end
    terminals = list(range(len(masks)))
    for mask, _, stuck in closures:  # a state is terminal when all its parts are
        terminals = [i for i in terminals if masks[i] & mask in stuck] if stuck else []
    states = _Decoded(masks, partial(_edges_of, ix))
    return ExploreReport(g, states, depths, _Decoded(links, partial(_link, ix, {})), terminals, masks)


# --- interchange formats -----------------------------------------------------


def to_json_dict(g: StrandGraph) -> dict:
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
        "admissible": [[[e.a.vertex, e.a.position], [e.b.vertex, e.b.position]] for e in g._index.edges],
        "toehold": list(g._index.toeholds),
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
    current = [_edge_from_json(pair) for pair in current_rows]
    g = StrandGraph(tuple(domains), tuple(dict.fromkeys(current)))  # checked in the order listed
    if len(g.current) < len(current):
        raise GraphError("current edges must each be listed once")
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
    if len(admissible) > len(g.admissible):
        raise GraphError("admissible edges must each be listed once")
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
    for e, toehold in zip(g._index.edges, g._index.toeholds):
        colour = "red" if e in g.current else "blue"
        style = "dashed" if toehold else "solid"
        width = ", penwidth=2.0" if e in g.current else ""
        yield (
            f'  v{e.a.vertex} -- v{e.b.vertex} '
            f'[label="{e.a}-{e.b}", color={colour}, style={style}{width}];'
        )
    yield "}"
