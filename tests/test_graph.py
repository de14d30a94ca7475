"""Strand graphs: structure, moves, exploration, and interchange formats."""

import copy
import hashlib
import math
import pickle
import random
import re
from collections import Counter, deque
from dataclasses import replace
from itertools import combinations, permutations

import pytest

import oracles
from strandprover import cli
from strandprover import graph as graph_module
from strandprover import process as pr
from strandprover.fixtures import FOURWAY, HAIRPIN, fourway, hairpin, theorem_graph, theorem_process
from strandprover.graph import (
    Edge,
    ExplorationLimitError,
    GraphError,
    Move,
    MoveError,
    Site,
    StrandGraph,
    Trace,
    apply_move,
    bind,
    bind_chain,
    binding_trace,
    displace,
    edge_adjacent,
    explore,
    from_json,
    from_process,
    is_anchored,
    migrate,
    moves,
    sites_of,
    to_dot,
    to_json,
    to_json_dict,
    unbind,
)


def E(v1, n1, v2, n2) -> Edge:
    return Edge(Site(v1, n1), Site(v2, n2))


def coded_bind_chain(g: StrandGraph) -> list[tuple[Site, Site]] | None:
    """bind_chain on g's labels, coded by the name order of (name, toehold),
    its site-id pairs read back as Sites."""
    keys = sorted({(d.name, d.toehold) for row in g.domains for d in row})
    rank = {key: 2 * k for k, key in enumerate(keys)}
    labels = [[rank[d.name, d.toehold] + d.complemented for d in row] for row in g.domains]
    toeholds = [rank[key] + c for key in keys if key[1] for c in (0, 1)]
    chain = bind_chain(labels, toeholds)
    sites = [Site(v, n) for v, row in enumerate(g.domains, start=1) for n in range(1, len(row) + 1)]
    return None if chain is None else [(sites[s], sites[t]) for s, t in chain]


def fourway_graph() -> StrandGraph:
    return from_process(fourway())


def hairpin_graph() -> StrandGraph:
    return from_process(hairpin())


FOURWAY_A = {
    E(1, 1, 2, 3), E(1, 2, 2, 2), E(1, 2, 3, 2), E(1, 3, 3, 1),
    E(2, 1, 4, 3), E(2, 2, 4, 2), E(3, 2, 4, 2), E(3, 3, 4, 1),
}
FOURWAY_E = {E(1, 1, 2, 3), E(1, 2, 2, 2), E(3, 2, 4, 2), E(3, 3, 4, 1)}
FOURWAY_TOEHOLDS = {E(1, 1, 2, 3), E(1, 3, 3, 1), E(2, 1, 4, 3), E(3, 3, 4, 1)}

THEOREM_A = {E(1, 1, 5, 1), E(1, 2, 3, 1), E(1, 3, 2, 3), E(2, 1, 6, 1), E(2, 2, 4, 1)}


# --- sites and edges ---------------------------------------------------------


class TestEdge:
    def test_endpoints_are_stored_sorted(self):
        assert E(3, 1, 1, 2) == E(1, 2, 3, 1)
        assert str(E(3, 1, 1, 2)) == "(1,2)-(3,1)"
        assert repr(E(3, 1, 1, 2)) == "Edge(a=Site(vertex=1, position=2), b=Site(vertex=3, position=1))"
        assert sorted([E(2, 1, 3, 1), E(1, 2, 3, 1), E(1, 2, 2, 3)]) == [E(1, 2, 2, 3), E(1, 2, 3, 1), E(2, 1, 3, 1)]

    def test_plain_pairs_are_wrapped_as_sites(self):
        e = Edge((3, 1), [1, 2])
        assert type(e.a) is Site and type(e.b) is Site
        assert e == E(1, 2, 3, 1)

    def test_coinciding_endpoints_rejected(self):
        with pytest.raises(GraphError):
            Edge(Site(1, 1), Site(1, 1))

    def test_equal_and_hash_equal_to_the_tuple_of_its_sites(self):
        e = E(3, 1, 1, 2)
        assert e == ((1, 2), (3, 1))
        assert hash(e) == hash(((1, 2), (3, 1)))
        assert ((1, 2), (3, 1)) in {e}

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        e = E(3, 1, 1, 2)
        back = pickle.loads(pickle.dumps(e, protocol))
        assert back == e
        assert type(back) is Edge and type(back.a) is Site

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copies_are_edges(self, duplicate):
        e = E(3, 1, 1, 2)
        assert duplicate(e) == e
        assert type(duplicate(e)) is Edge

    def test_replace_goes_through_the_constructor(self):
        e = E(1, 2, 3, 1)
        assert e._replace(a=(4, 1)) == E(3, 1, 4, 1)
        with pytest.raises(GraphError):
            e._replace(a=e.b)

    def test_other_endpoint(self):
        e = E(1, 2, 3, 1)
        assert e.other(Site(1, 2)) == Site(3, 1)
        with pytest.raises(GraphError):
            e.other(Site(9, 9))

    def test_sites_of(self):
        assert sites_of(FOURWAY_E) == frozenset(
            Site(v, n) for v, n in
            [(1, 1), (2, 3), (1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (4, 1)]
        )
        assert sites_of([]) == frozenset()


class TestEdgeAdjacency:
    def test_antiparallel_neighbours(self):
        assert edge_adjacent(E(1, 1, 2, 3), FOURWAY_E) == {E(1, 2, 2, 2)}

    def test_different_vertex_pairs_are_never_adjacent(self):
        assert edge_adjacent(E(1, 1, 2, 3), [E(3, 2, 4, 2)]) == frozenset()

    def test_parallel_offset_is_not_adjacent(self):
        assert edge_adjacent(E(1, 1, 2, 2), [E(1, 2, 2, 3)]) == frozenset()

    def test_anchoring(self):
        assert is_anchored(E(1, 1, 2, 3), FOURWAY_E)
        assert not is_anchored(E(3, 3, 4, 1), {E(3, 3, 4, 1)})


# --- construction from processes ---------------------------------------------


class TestFromProcess:
    def test_theorem_listing(self):
        g = theorem_graph()
        assert g.lengths == (3, 3, 1, 1, 1, 1)
        assert g.admissible == frozenset(THEOREM_A)
        assert not any(g.toehold(e) for e in g.admissible)
        assert g.current == frozenset()

    def test_fourway_listing(self):
        g = fourway_graph()
        assert g.lengths == (3, 3, 3, 3)
        assert g.admissible == frozenset(FOURWAY_A)
        assert g.current == frozenset(FOURWAY_E)
        assert {e for e in g.admissible if g.toehold(e)} == FOURWAY_TOEHOLDS

    def test_single_strand(self):
        g = from_process(pr.parse_process("<a>"))
        assert g.lengths == (1,)
        assert g.admissible == frozenset()

    def test_identical_strands_share_a_colour(self):
        g = from_process(pr.parse_process("<a> | <a> | <a*>"))
        assert g.colours == (1, 1, 2)

    def test_colours_ignore_bonds(self):
        g = from_process(pr.parse_process("<a!x> | <a*!x> | <a> | <a*>"))
        assert g.colours == (1, 2, 1, 2)

    def test_hairpin_has_intra_strand_edges(self):
        g = hairpin_graph()
        assert g.current == {E(3, 1, 3, 5), E(3, 2, 3, 4)}
        assert len(g.admissible) == 8

    def test_labels_carry_no_bonds(self):
        g = hairpin_graph()
        assert all(d.bond is None for row in g.domains for d in row)


class TestStrandGraphValidation:
    def test_admissible_must_match_complementary_pairs(self):
        data = to_json_dict(theorem_graph())
        data["admissible"].append([[1, 1], [1, 2]])  # P and Q* do not pair
        data["toehold"].append(False)
        with pytest.raises(GraphError, match="complementary site pairs"):
            from_json(data)

    def test_current_must_be_admissible(self):
        g = theorem_graph()
        with pytest.raises(GraphError):
            g.with_current({E(1, 1, 1, 2)})

    def test_current_must_be_site_disjoint(self):
        g = hairpin_graph()
        with pytest.raises(GraphError):
            g.with_current({E(3, 1, 3, 5), E(1, 2, 3, 5)})

    def test_colour_type_consistency(self):
        # two strand types sharing a colour, and one type with two colours
        for system, colours in (("<a> | <a*>", [1, 1]), ("<a> | <a>", [1, 2])):
            data = to_json_dict(from_process(pr.parse_process(system)))
            for vertex, colour in zip(data["vertices"], colours):
                vertex["colour"] = colour
            with pytest.raises(GraphError, match="first appearance"):
                from_json(data)

    def test_labels_fix_lengths_colours_and_admissible_edges(self):
        g = StrandGraph(fourway_graph().domains, frozenset())
        assert g.lengths == (3, 3, 3, 3)
        assert g.colours == (1, 2, 3, 4)
        assert g.admissible == frozenset(FOURWAY_A)

    def test_shape_matches_a_site_pair_definition(self):
        # the shape by definition, on Site objects: every site pair whose
        # labels match, sorted; a toehold flag per edge from its labels; and
        # per edge its antiparallel neighbours (v1,n1+d)-(v2,n2-d) on the
        # same two vertices
        graphs = [hairpin_graph(), fourway_graph(), theorem_graph()]
        graphs.append(from_process(pr.parse_process(HAIRPIN_AND_FOURWAY)))
        # labels only a graph can hold: a name used both as toehold and long
        mixed = tuple(tuple(map(pr.parse_domain, row.split())) for row in ("a^ b a", "a* a^* b*"))
        graphs.append(StrandGraph(mixed, frozenset()))
        rng = random.Random(13)
        for _ in range(150):
            graphs.append(from_process(oracles.random_process(rng, strands=4, max_len=8, bond_fraction=0.8)))
        anchored = []
        for g in graphs:
            sites = [Site(v, n) for v, row in enumerate(g.domains, start=1) for n in range(1, len(row) + 1)]
            edges = sorted(Edge(s, t) for s, t in combinations(sites, 2) if g.label(s).matches(g.label(t)))
            ix = g._index
            assert g.sites() == sites
            # label codes: equal labels share a code, and code ^ 1 is the complement
            for (s, a), (t, b) in combinations(enumerate(sites), 2):
                assert (ix.labels[s] == ix.labels[t], ix.labels[s] ^ 1 == ix.labels[t]) == (
                    g.label(a) == g.label(b), g.label(a).matches(g.label(b)))
            assert [code in ix.toehold_labels for code in ix.labels] == [g.label(a).toehold for a in sites]
            assert g.admissible == frozenset(edges)
            assert ix.edges == edges
            assert ix.toeholds == [g.label(e.a).toehold for e in edges]
            assert oracles.unbindable_sites(g) == frozenset(sites) - sites_of(edges)
            for e, mask in zip(edges, ix.anchors):
                (v1, n1), (v2, n2) = e.a, e.b
                candidates = [(Site(v1, n1 + d), Site(v2, n2 - d)) for d in (1, -1)]
                neighbours = {Edge(s, t) for s, t in candidates if s != t} & (frozenset(edges) - {e})
                assert {edges[f] for f in range(len(edges)) if mask >> f & 1} == neighbours
                if neighbours:
                    anchored.append(e)
        # hairpin loops, where both ends of an anchored edge lie on one vertex, are covered
        assert any(e.a.vertex == e.b.vertex for e in anchored)

    def test_bind_chain_reads_only_the_labels(self):
        # bind_chain gives up exactly when the index has a toehold edge;
        # otherwise it binds the greedy chain over the ranked edges, anchored
        # ones included: each edge whose two sites are both still free, in
        # rank order
        from strandprover.compiler import clause_process
        from strandprover.fixtures import FIXTURES
        from strandprover.logic import ClauseSet

        graphs = []
        for kind, load in FIXTURES.values():
            graphs.append(from_process(clause_process(load()) if kind == "clauses" else load()))
        # x x* is its own mirror: one occurrence anchors nothing, two anchor
        # each other; x y anchors y* x* and nothing else, in a clause or two
        for text in ("P ~P\nQ\n", "Q P ~P\nP ~P R\n", "P Q\n~Q ~P\n", "P Q ~Q ~P\n", "P Q\nR P Q\n~Q P\n"):
            graphs.append(from_process(clause_process(ClauseSet.parse(text))))
        mixed = tuple(tuple(map(pr.parse_domain, row.split())) for row in ("a^ b a", "a* b* c"))
        graphs.append(StrandGraph(mixed, frozenset()))
        rng = random.Random(17)
        while len(graphs) < 400:
            s = oracles.random_clause_set(rng, variables=rng.randint(1, 4), clauses=6, max_len=4)
            if not any(c.is_empty() for c in s):
                graphs.append(from_process(clause_process(s)))
        for _ in range(150):
            graphs.append(from_process(oracles.random_process(rng, strands=4, max_len=8, bond_fraction=0.8)))
        outcomes = Counter()
        for g in graphs:
            ix = g._index
            chain = coded_bind_chain(g)
            if any(ix.toeholds):
                assert chain is None
                outcomes["toehold"] += 1
                continue
            bound: set[int] = set()
            greedy = []
            for e, (s, t) in zip(ix.edges, ix.ends):
                if s not in bound and t not in bound:
                    bound.update((s, t))
                    greedy.append((e.a, e.b))
            assert chain == greedy
            outcomes["chain" if chain else "empty"] += 1
            outcomes["anchored"] += any(ix.anchors)
        assert min(outcomes[k] for k in ("toehold", "anchored", "chain", "empty")) > 0, outcomes

    def test_bind_chain_is_the_forward_greedy_on_long_rows(self):
        # hundreds of sites per label, some rows skewed to one label first, so
        # that long runs of a label wait for their complements
        rng = random.Random(29)
        for _ in range(60):
            names = rng.randint(1, 3)
            skew = rng.choice([0.5, 0.8, 0.95])
            length = rng.randint(250, 400) * names
            flat = []
            for k in range(length):
                name = rng.randrange(names)
                # the first half leans to the plain labels, the second to their complements
                plain = (rng.random() < skew) == (k < length // 2)
                flat.append(2 * name + (not plain))
            cuts = sorted(rng.sample(range(1, length), rng.randint(0, 5)))
            rows = [flat[a:b] for a, b in zip([0] + cuts, cuts + [length])]
            assert max(Counter(flat).values()) >= 100
            assert bind_chain(rows) == oracles.forward_greedy_chain(flat)
            # toehold codes: a name whose complement never occurs changes
            # nothing; a name with both labels present gives up
            extra = 2 * names
            lonely = rows + [[extra] * rng.randint(1, 3)]
            assert bind_chain(lonely, [extra, extra + 1]) == oracles.forward_greedy_chain(flat + lonely[-1])
            name = rng.randrange(names)
            assert {2 * name, 2 * name + 1} <= set(flat)
            assert bind_chain(rows, [2 * name, 2 * name + 1]) is None

    def test_the_shape_is_indexed_once(self, monkeypatch):
        calls = []
        build_index = graph_module._build_index

        def counted(*args):
            calls.append(args)
            return build_index(*args)

        monkeypatch.setattr(graph_module, "_build_index", counted)
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))
        report = explore(g)
        for state in report.states:
            moves(g.with_current(state))
        coded_bind_chain(g)
        assert len(calls) == 1

    def test_position_bounds(self):
        g = theorem_graph()
        with pytest.raises(GraphError):
            g.label(Site(1, 4))

    def test_unbindable_sites(self):
        s = pr.parse_process("<P> | <P*> | <Q>")
        assert oracles.unbindable_sites(from_process(s)) == {Site(3, 1)}
        assert oracles.unbindable_sites(fourway_graph()) == frozenset()


# --- the four moves ----------------------------------------------------------


class TestBindMove:
    def test_theorem_first_bind(self):
        g = bind(theorem_graph(), E(1, 2, 3, 1))
        assert g.current == {E(1, 2, 3, 1)}

    def test_fourway_toehold_bind(self):
        g = bind(fourway_graph(), E(1, 3, 3, 1))
        assert len(g.current) == 5

    def test_occupied_site_rejected(self):
        with pytest.raises(MoveError):
            bind(fourway_graph(), E(1, 2, 3, 2))

    def test_non_admissible_edge_rejected(self):
        with pytest.raises(MoveError):
            bind(theorem_graph(), E(1, 1, 1, 2))


class TestUnbindMove:
    def test_anchored_toehold_rejected(self):
        with pytest.raises(MoveError):
            unbind(fourway_graph(), E(1, 1, 2, 3))

    def test_long_domain_rejected(self):
        with pytest.raises(MoveError):
            unbind(fourway_graph(), E(1, 2, 2, 2))

    def test_unbinds_after_losing_the_anchor(self):
        g = fourway_graph()
        g = bind(g, E(1, 3, 3, 1))
        g = bind(g, E(2, 1, 4, 3))
        g = migrate(g, {E(1, 2, 2, 2), E(3, 2, 4, 2)}, {E(1, 2, 3, 2), E(2, 2, 4, 2)})
        shed = unbind(g, E(1, 1, 2, 3))
        assert E(1, 1, 2, 3) not in shed.current

    def test_non_current_edge_rejected(self):
        with pytest.raises(MoveError):
            unbind(fourway_graph(), E(1, 3, 3, 1))


class TestDisplaceMove:
    def test_hairpin_first_displacement(self):
        g = bind(hairpin_graph(), E(1, 1, 3, 6))
        g = displace(g, E(3, 1, 3, 5), E(1, 2, 3, 5))
        assert E(1, 2, 3, 5) in g.current and E(3, 1, 3, 5) not in g.current

    def test_occupied_incoming_site_rejected(self):
        with pytest.raises(MoveError):
            displace(fourway_graph(), E(1, 2, 2, 2), E(1, 2, 3, 2))

    def test_unanchored_result_rejected(self):
        g = hairpin_graph()  # without the toehold bond nothing holds the invader
        with pytest.raises(MoveError):
            displace(g, E(3, 1, 3, 5), E(1, 2, 3, 5))

    def test_disjoint_edges_rejected(self):
        g = bind(hairpin_graph(), E(1, 1, 3, 6))
        with pytest.raises(MoveError):
            displace(g, E(3, 2, 3, 4), E(1, 2, 3, 5))

    def test_non_current_edge_rejected(self):
        with pytest.raises(MoveError, match=r"^\(1,1\)-\(3,6\) is not a current edge$"):
            displace(hairpin_graph(), E(1, 1, 3, 6), E(1, 2, 3, 5))


class TestMigrateMove:
    def swapped(self) -> StrandGraph:
        g = fourway_graph()
        g = bind(g, E(1, 3, 3, 1))
        g = bind(g, E(2, 1, 4, 3))
        return g

    def test_fourway_swap(self):
        g = migrate(
            self.swapped(),
            {E(1, 2, 2, 2), E(3, 2, 4, 2)},
            {E(1, 2, 3, 2), E(2, 2, 4, 2)},
        )
        assert E(1, 2, 3, 2) in g.current and E(2, 2, 4, 2) in g.current

    def test_argument_order_is_irrelevant(self):
        a = migrate(
            self.swapped(),
            [E(1, 2, 2, 2), E(3, 2, 4, 2)],
            [E(1, 2, 3, 2), E(2, 2, 4, 2)],
        )
        b = migrate(
            self.swapped(),
            [E(3, 2, 4, 2), E(1, 2, 2, 2)],
            [E(2, 2, 4, 2), E(1, 2, 3, 2)],
        )
        assert a.current == b.current

    def test_swap_is_an_involution(self):
        ready = self.swapped()
        there = migrate(ready, {E(1, 2, 2, 2), E(3, 2, 4, 2)}, {E(1, 2, 3, 2), E(2, 2, 4, 2)})
        back = migrate(there, {E(1, 2, 3, 2), E(2, 2, 4, 2)}, {E(1, 2, 2, 2), E(3, 2, 4, 2)})
        assert back.current == ready.current

    def test_single_edge_ring_rejected(self):
        with pytest.raises(MoveError):
            migrate(self.swapped(), [E(1, 2, 2, 2)], [E(1, 2, 3, 2)])

    def test_unanchored_rotation_rejected(self):
        g = from_process(pr.parse_process("<b!x1> | <b*!x1> | <b!x2> | <b*!x2>"))
        with pytest.raises(MoveError):
            migrate(g, [E(1, 1, 2, 1), E(3, 1, 4, 1)], [E(1, 1, 4, 1), E(2, 1, 3, 1)])

    def duplexes(self) -> StrandGraph:
        # b-b* duplexes (1,1)-(2,1), (3,1)-(4,1), ...: any b meets any b*
        return from_process(pr.parse_process(" | ".join(f"<b!x{k}> | <b*!x{k}>" for k in range(1, 5))))

    def test_endpoints_must_be_repartitioned(self):
        with pytest.raises(MoveError, match="^added edges must repartition exactly the removed endpoints$"):
            migrate(
                self.duplexes(),
                [E(1, 1, 2, 1), E(3, 1, 4, 1)],
                [E(1, 1, 4, 1), E(2, 1, 5, 1)],  # second edge leaves the ring
            )

    def test_two_rings_at_once_rejected(self):
        # two 2-rings are refused; one 4-ring passes the ring check and fails
        # only on anchoring
        g = self.duplexes()
        removed = [E(1, 1, 2, 1), E(3, 1, 4, 1), E(5, 1, 6, 1), E(7, 1, 8, 1)]
        with pytest.raises(MoveError, match="^removed and added edges do not form a single closed ring$"):
            migrate(g, removed, [E(1, 1, 4, 1), E(2, 1, 3, 1), E(5, 1, 8, 1), E(6, 1, 7, 1)])
        with pytest.raises(MoveError, match="would not be anchored after migration$"):
            migrate(g, removed, [E(1, 1, 4, 1), E(3, 1, 6, 1), E(5, 1, 8, 1), E(2, 1, 7, 1)])

    @pytest.mark.parametrize("added, message", [
        (E(1, 3, 3, 1), r"^\(1,3\)-\(3,1\) is not an admissible free edge$"),  # already current
        (E(1, 1, 1, 2), r"^\(1,1\)-\(1,2\) is not an admissible free edge$"),  # joins no complementary pair
    ], ids=["current", "not-admissible"])
    def test_added_edge_must_be_admissible_and_free(self, added, message):
        with pytest.raises(MoveError, match=message):
            migrate(self.swapped(), [E(1, 2, 2, 2), E(3, 2, 4, 2)], [added, E(2, 2, 4, 2)])

    def test_unbound_removed_edge_rejected(self):
        g = fourway_graph()  # toehold edges not yet bound
        with pytest.raises(MoveError):
            migrate(
                g.with_current(g.current - {E(1, 2, 2, 2)}),
                [E(1, 2, 2, 2), E(3, 2, 4, 2)],
                [E(1, 2, 3, 2), E(2, 2, 4, 2)],
            )


class TestMoveObjects:
    def test_rule_shapes_are_enforced(self):
        with pytest.raises(MoveError):
            Move("GB", frozenset([E(1, 1, 2, 3)]), frozenset())
        with pytest.raises(MoveError):
            Move("GM", frozenset([E(1, 1, 2, 3)]), frozenset([E(1, 2, 2, 2)]))
        with pytest.raises(MoveError):
            Move("XX", frozenset(), frozenset())

    def test_describe(self):
        move = Move("GB", frozenset(), frozenset([E(1, 2, 3, 1)]))
        assert move.describe() == "GB removed={} added={(1,2)-(3,1)}"

    def test_apply_move_matches_direct_appliers(self):
        g = fourway_graph()
        for move in moves(g):
            assert apply_move(g, move).current == (g.current - move.removed) | move.added


class TestEnumerateMoves:
    def test_theorem_initial_is_five_binds(self):
        out = moves(theorem_graph())
        assert len(out) == 5
        assert all(m.rule == "GB" for m in out)
        assert {next(iter(m.added)) for m in out} == THEOREM_A

    def test_theorem_all_bound_is_terminal(self):
        g = theorem_graph().with_current(THEOREM_A)
        assert moves(g) == []

    def test_fourway_initial_is_two_toehold_binds(self):
        out = moves(fourway_graph())
        assert [m.rule for m in out] == ["GB", "GB"]
        assert {next(iter(m.added)) for m in out} == {E(1, 3, 3, 1), E(2, 1, 4, 3)}

    def test_fourway_ready_state_enables_the_ring_swap(self):
        g = fourway_graph()
        g = bind(g, E(1, 3, 3, 1))
        g = bind(g, E(2, 1, 4, 3))
        out = moves(g)
        kinds = sorted(m.rule for m in out)
        assert kinds == ["GM", "GU", "GU"]
        (ring,) = [m for m in out if m.rule == "GM"]
        assert ring.removed == {E(1, 2, 2, 2), E(3, 2, 4, 2)}
        assert ring.added == {E(1, 2, 3, 2), E(2, 2, 4, 2)}

    def test_hairpin_initial_is_three_binds(self):
        out = moves(hairpin_graph())
        assert [m.rule for m in out] == ["GB", "GB", "GB"]

    def test_enumeration_is_deterministic_and_sorted(self):
        rule_order = graph_module.RULES.index

        def order(m):
            return (rule_order(m.rule), sorted(m.removed), sorted(m.added))

        g = fourway_graph()
        assert moves(g) == moves(g)
        assert moves(g) == sorted(moves(g), key=order)
        # two components, whose moves interleave in rule order: at every state
        # the list is sorted and equals the per-component lists merged
        g = hairpin_and_fourway_graph()
        ix = g._index
        states = explore(g).states
        assert len(states) == 176
        for state in states:
            out = moves(g.with_current(state))
            assert out == sorted(out, key=order)
            bits = sum(1 << ix.rank[e] for e in state)
            merged = sorted(
                m for mask, names in ix.components
                for m in graph_module._component_moves(ix, [(*name, {}) for name in names], bits & mask)
            )
            assert out == [graph_module._decode(ix, m) for m in merged]

    def test_every_enumerated_move_applies(self):
        rng = random.Random(41)
        for _ in range(150):
            g = from_process(oracles.random_process(rng))
            for move in moves(g):
                result = apply_move(g, move)
                assert result.current <= g.admissible
                delta = {"GB": 1, "GU": -1, "G3": 0, "GM": 0}[move.rule]
                assert len(result.current) == len(g.current) + delta


def brute_force_moves(g: StrandGraph, max_ring: int = 4) -> set[Move]:
    """Every candidate move the rule appliers accept: single GB, GU and G3
    edges, and GM rings of up to max_ring current edges with every
    admissible repartition of their endpoints."""
    free = g.admissible - g.current
    candidates = [Move("GB", frozenset(), frozenset([x])) for x in free]
    for e in g.current:
        candidates.append(Move("GU", frozenset([e]), frozenset()))
        candidates += [Move("G3", frozenset([e]), frozenset([x])) for x in g.admissible]
    for k in range(2, max_ring + 1):
        for ring in combinations(g.current, k):
            ends = sites_of(ring)
            linkers = [x for x in free if x.a in ends and x.b in ends]
            for added in combinations(linkers, k):
                if sites_of(added) == ends:
                    candidates.append(Move("GM", frozenset(ring), frozenset(added)))
    accepted = set()
    for move in candidates:
        try:
            apply_move(g, move)
        except MoveError:
            continue
        accepted.add(move)
    return accepted


# renamed copies of the hairpin and four-way fixtures in one system
HAIRPIN_AND_FOURWAY = (
    "<t_1^ p_1> | <r_1* q_1* p_1*> | <p_1!y1_1 q_1!z1_1 r_1 q_1*!z1_1 p_1*!y1_1 t_1^*> | "
    "<a_2^!i_2 b_2!j1_2 c_2^*> | <d_2^* b_2*!j1_2 a_2^*!i_2> | "
    "<c_2^ b_2*!j2_2 e_2^!k_2> | <e_2^*!k_2 b_2!j2_2 d_2^>"
)


def hairpin_and_fourway_graph() -> StrandGraph:
    return from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))


# a hairpin and two four-way junctions, renamed per copy: three components
HAIRPIN_AND_FOURWAYS = HAIRPIN_AND_FOURWAY + (
    " | <a_3^!i_3 b_3!j1_3 c_3^*> | <d_3^* b_3*!j1_3 a_3^*!i_3> | "
    "<c_3^ b_3*!j2_3 e_3^!k_3> | <e_3^*!k_3 b_3!j2_3 d_3^>"
)


# two hairpins and a four-way junction, renamed per copy and interleaved
HAIRPINS_AND_FOURWAY = (
    "<p_2!y1_2 q_2!z1_2 r_2 q_2*!z1_2 p_2*!y1_2 t_2^*> | <e_3^*!k_3 b_3!j2_3 d_3^> | <t_2^ p_2> | "
    "<r_2* q_2* p_2*> | <a_3^!i_3 b_3!j1_3 c_3^*> | <d_3^* b_3*!j1_3 a_3^*!i_3> | "
    "<p_1!y1_1 q_1!z1_1 r_1 q_1*!z1_1 p_1*!y1_1 t_1^*> | <c_3^ b_3*!j2_3 e_3^!k_3> | "
    "<r_1* q_1* p_1*> | <t_1^ p_1>"
)


# three renamed hairpins: three components, 22 ** 3 states
THREE_HAIRPINS = " | ".join(
    f"<t_{k}^ p_{k}> | <r_{k}* q_{k}* p_{k}*> | <p_{k}!y1_{k} q_{k}!z1_{k} r_{k} q_{k}*!z1_{k} p_{k}*!y1_{k} t_{k}^*>"
    for k in (1, 2, 3)
)


def report_digest(report) -> str:
    h = hashlib.sha256()
    for i, state in enumerate(report.states):
        parent = report.parents[i]
        link = "-" if parent is None else f"{parent[0]} {parent[1].describe()}"
        h.update(f"{i} {report.depths[i]} {','.join(map(str, sorted(state)))} {link}\n".encode())
    h.update(" ".join(map(str, report.terminals)).encode())
    return h.hexdigest()


# two ring-capable names, c and d, on one vertex pair: each holds two current
# edges, and G3 and GB reach the free c and d
TWO_RING_NAMES = "<c!r0 c!r1 d!s0 d!s1 c d> | <c*!r0 c*!r1 d*!s0 d*!s1 d*>"


def displacing_edges(g: StrandGraph) -> set[Edge]:
    """The admissible edges that share a site with another admissible edge."""
    return {e for e in g.admissible if any(f != e and f.sites & e.sites for f in g.admissible)}


def ring_names(g: StrandGraph) -> set[frozenset[Edge]]:
    """The admissible edges of each name whose two labels each have 2 sites or more."""
    count = Counter(g.label(s) for s in g.sites())
    edges: dict[pr.Domain, set[Edge]] = {}
    for e in g.admissible:
        label = g.label(e.a)
        edges.setdefault(label._replace(complemented=False), set()).add(e)
    return {frozenset(es) for label, es in edges.items() if count[label] >= 2 and count[label.complement()] >= 2}


class TestIndexedEnumeration:
    """moves() decodes the integer enumerator over the shape's index; the
    rule appliers re-check every premise from scratch.  Both must accept
    exactly the same moves."""

    def assert_matches_appliers(self, g: StrandGraph):
        report = explore(g)
        for state in report.states:
            here = g.with_current(state)
            found = moves(here)
            assert len(set(found)) == len(found)
            assert set(found) == brute_force_moves(here)

    def test_fixtures(self):
        for g in (hairpin_graph(), fourway_graph(), theorem_graph()):
            self.assert_matches_appliers(g)

    def test_rings_of_every_length(self):
        # four parallel bonds of one repeated domain: rings of 2, 3 and 4 edges
        g = from_process(pr.parse_process("<c!r0 c!r1 c!r2 c!r3> | <c*!r0 c*!r1 c*!r2 c*!r3>"))
        states = explore(g).states
        assert {len(m.removed) for s in states for m in moves(g.with_current(s)) if m.rule == "GM"} == {2, 3, 4}
        self.assert_matches_appliers(g)

    def test_two_ring_capable_names_in_one_component(self):
        g = from_process(pr.parse_process(TWO_RING_NAMES))
        assert len(g._index.components) == 1 and len(ring_names(g)) == 2
        states = explore(g).states
        assert len(states) == 16
        # both names hold two current edges at once, and each rotates its own ring
        assert all(len(edges & g.current) == 2 for edges in ring_names(g))
        rings = {m.removed for m in moves(g) if m.rule == "GM"}
        assert rings == {edges & g.current for edges in ring_names(g)}
        self.assert_matches_appliers(g)

    def test_rings_are_searched_only_where_a_name_can_hold_one(self, monkeypatch):
        """Each name's candidates are built once per set of its current edges
        that explore meets, and its rings are searched then: once per seed
        set, and only where a ring-capable name holds two current edges or
        more.  The memos live for one closure: a second explore of the shape
        builds the same entries and searches again, in the same order."""
        built, searched = [], []
        name_moves, ring_moves = graph_module._name_moves, graph_module._ring_moves

        def counted_names(t, ranks, edges):
            built.append((ranks[0], edges))
            return name_moves(t, ranks, edges)

        def counted_rings(t, owner, seeds):
            searched.append(seeds)
            return ring_moves(t, owner, seeds)

        monkeypatch.setattr(graph_module, "_name_moves", counted_names)
        monkeypatch.setattr(graph_module, "_ring_moves", counted_rings)
        # (name entries built, ring searches) per shape
        for text, want in ((HAIRPIN, (11, 2)), (FOURWAY, (10, 2)), (HAIRPIN_AND_FOURWAY, (11 + 10, 2 + 2)),
                           (TWO_RING_NAMES, (10, 10)), (THREE_HAIRPINS, (3 * 11, 3 * 2))):
            built.clear()
            searched.clear()
            g = from_process(pr.parse_process(text))
            names = [sum(1 << g._index.rank[e] for e in edges) for edges in ring_names(g)]
            masks = explore(g).masks
            assert (len(built), len(searched)) == want, text
            assert len(set(built)) == len(built) and len(set(searched)) == len(searched)
            assert set(searched) == {s & name for s in masks for name in names if bin(s & name).count("1") >= 2}
            first = (built[:], searched[:])
            built.clear()
            searched.clear()
            explore(g)
            assert (built, searched) == first, text

    def test_the_memo_gives_the_moves_of_a_fresh_shape(self):
        """moves() on each state of an explored shape, reached by
        with_current, equals moves() on a freshly built shape."""
        graphs = [hairpin_graph(), fourway_graph(), theorem_graph(), from_process(pr.parse_process(TWO_RING_NAMES))]
        rng = random.Random(43)
        graphs += [from_process(oracles.random_process(rng, strands=3, max_len=6, bond_fraction=0.8))
                   for _ in range(150)]
        for g in graphs:
            for state in explore(g).states:
                assert moves(g.with_current(state)) == moves(StrandGraph(g.domains, state))

    @pytest.mark.parametrize("text", [HAIRPIN_AND_FOURWAYS, TWO_RING_NAMES], ids=["three-components", "two-ring-names"])
    def test_exploring_twice_gives_one_report(self, text):
        g = from_process(pr.parse_process(text))
        first, second = explore(g), explore(g)
        assert (first.masks, first.depths, first.terminals) == (second.masks, second.depths, second.terminals)
        assert report_digest(first) == report_digest(second)

    @pytest.mark.parametrize("make", [
        hairpin_graph, fourway_graph, theorem_graph,
        lambda: from_process(pr.parse_process(HAIRPIN_AND_FOURWAYS)),
        lambda: from_process(pr.parse_process(TWO_RING_NAMES)),
    ], ids=["hairpin", "fourway", "theorem", "three-components", "two-ring-names"])
    def test_exploring_leaves_the_graph_as_it_was(self, make):
        """Each name's memo lives for one closure: explore adds nothing to
        the shape's index, so the graph pickles to the same bytes."""
        g = make()
        before = pickle.dumps(g), set(g._index.__dict__)
        explore(g)
        assert (pickle.dumps(g), set(g._index.__dict__)) == before

    def test_renamed_hairpin_and_fourway(self):
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))
        report = explore(g)
        assert len(report.states) == 22 * 8
        self.assert_matches_appliers(g)

    def test_random_processes(self):
        rng = random.Random(17)
        for _ in range(150):
            p = oracles.random_process(rng, strands=3, max_len=6, bond_fraction=0.8)
            self.assert_matches_appliers(from_process(p))

    def test_discovery_order_is_pinned(self):
        # a change to enumeration or state keys must not reorder exploration
        report = explore(from_process(pr.parse_process(HAIRPINS_AND_FOURWAY)))
        assert len(report.states) == 22 * 22 * 8
        assert report_digest(report) == "e77e1d917707f29b57f6b04edcee6b193bc386bd6a98282baca8cb3c9de8ba90"

    def test_discovery_order_of_three_components_is_pinned(self):
        # a hairpin and two four-ways: two ring-capable names read the memo
        report = explore(from_process(pr.parse_process(HAIRPIN_AND_FOURWAYS)))
        assert len(report.states) == 22 * 8 * 8
        assert report_digest(report) == "86ecef2733e44fe757a624286a85518d5424d6e8e3588135222512a402f223c6"


def duplex(bonds: int) -> str:
    """Two strands joined by this many bonds, all of the one name c."""
    return " | ".join("<" + " ".join(f"{label}!r{k}" for k in range(bonds)) + ">" for label in ("c", "c*"))


RING_CAP = "a migration ring may need more than 4 edges"


class TestRingCap:
    """moves() searches migration rings of up to MAX_RING current edges.
    Where a ring would need one more, it raises ExplorationLimitError, a
    budget like max_states, instead of leaving moves out: a longer ring may
    close there, so a state reported without it could be a false terminal."""

    @staticmethod
    def simulate(tmp_path, capsys, bonds: int) -> tuple[int, str, str]:
        path = tmp_path / "duplex.txt"
        path.write_text(duplex(bonds) + "\n")
        code = cli.main(["simulate", "--input", str(path)])
        return code, *capsys.readouterr()

    @pytest.mark.parametrize("bonds, states, terminals", [(2, 2, 1), (3, 4, 1), (4, 8, 2)])
    def test_short_duplexes_are_explored(self, tmp_path, capsys, bonds, states, terminals):
        g = from_process(pr.parse_process(duplex(bonds)))
        report = explore(g)
        assert (len(report.states), len(report.terminals)) == (states, terminals)
        for state in report.states:
            moves(g.with_current(state))  # no ring reaches past the cap
        code, out, _ = self.simulate(tmp_path, capsys, bonds)
        assert code == 0
        assert out.splitlines()[:2] == [f"states explored: {states}", f"terminal states: {terminals}"]

    @pytest.mark.parametrize("bonds", [5, 6, 7])
    def test_longer_duplexes_end_indeterminate(self, tmp_path, capsys, bonds):
        g = from_process(pr.parse_process(duplex(bonds)))
        with pytest.raises(ExplorationLimitError, match=f"^{RING_CAP}$"):
            explore(g)
        with pytest.raises(ExplorationLimitError, match=f"^{RING_CAP}$"):
            moves(g)
        assert self.simulate(tmp_path, capsys, bonds) == (2, "", f"INDETERMINATE: {RING_CAP}\n")

    @pytest.mark.parametrize("bonds, states", [(5, 22), (6, 66)])
    def test_a_higher_cap_finds_no_terminal(self, monkeypatch, bonds, states):
        monkeypatch.setattr(graph_module, "MAX_RING", 8)
        report = explore(from_process(pr.parse_process(duplex(bonds))))
        assert (len(report.states), report.terminals) == (states, [])

    def test_the_cap_is_not_reached_elsewhere(self, monkeypatch):
        # the fixtures are among these processes
        graphs = [from_process(p) for p in TestCodedFrontEnd.processes() + [pr.parse_process(TWO_RING_NAMES)]]
        reports = [explore(g) for g in graphs]
        monkeypatch.setattr(graph_module, "MAX_RING", 8)
        for g, want in zip(graphs, reports):
            got = explore(g)
            assert (got.masks, got.depths, got.terminals) == (want.masks, want.depths, want.terminals)


class TestShapeIndex:
    """The shape's integer index against the set-level definitions:
    sorted edges, edge_adjacent, toehold, vertex connectivity and each
    component's names."""

    def assert_matches_definitions(self, g: StrandGraph) -> list[Edge]:
        ix = g._index
        assert ix.edges == sorted(g.admissible)
        assert ix.rank == {e: r for r, e in enumerate(ix.edges)}
        for r, e in enumerate(ix.edges):
            anchors = {ix.edges[f] for f in range(len(ix.edges)) if ix.anchors[r] >> f & 1}
            assert anchors == edge_adjacent(e, g.admissible)
            assert ix.toeholds[r] == g.toehold(e)
        ranks = [r for _, names in ix.components for _, group in names for r in group]
        assert sorted(ranks) == list(range(len(ix.edges)))
        seen: set[int] = set()
        for mask, names in ix.components:
            # each rank once, grouped by name in order of first rank, each
            # group ascending, with the component's and each name's mask
            component = sorted(r for _, group in names for r in group)
            assert mask == sum(1 << r for r in component)
            assert all(group == sorted(group) for _, group in names)
            assert [group[0] for _, group in names] == sorted(group[0] for _, group in names)
            labels = [{g.label(ix.edges[r].a).name for r in group} for _, group in names]
            assert all(len(name) == 1 for name in labels) and len(set.union(*labels)) == len(labels)
            assert all(name_mask == sum(1 << r for r in group) for name_mask, group in names)
            vertices = {s.vertex for r in component for s in ix.edges[r].sites}
            assert not vertices & seen
            seen |= vertices
        return [e for r, e in enumerate(ix.edges) if ix.anchors[r]]

    def test_the_fixtures_displace_and_migrate_in_one_name(self):
        # the hairpin's p and q edges can be displaced and only p holds rings;
        # in the four-way junction both are b's alone
        for g, displacing, rings in ((hairpin_graph(), "pq", "p"), (fourway_graph(), "b", "b")):
            assert {g.label(e.a).name for e in displacing_edges(g)} == set(displacing)
            assert [{g.label(e.a).name for e in edges} for edges in ring_names(g)] == [set(rings)]

    def test_fixtures_and_random_processes(self):
        graphs = [hairpin_graph(), fourway_graph(), theorem_graph()]
        graphs += [from_process(pr.parse_process(text)) for text in (HAIRPIN_AND_FOURWAY, TWO_RING_NAMES)]
        rng = random.Random(31)
        for _ in range(150):
            graphs.append(from_process(oracles.random_process(rng, strands=4, max_len=8, bond_fraction=0.8)))
        anchored = [e for g in graphs for e in self.assert_matches_definitions(g)]
        # hairpin loops, where both ends of an anchored edge lie on one vertex, are covered
        assert any(e.a.vertex == e.b.vertex for e in anchored)


# the shape fields, as _Index names them, and the StrandGraph fields
INDEX_FIELDS = ("sites", "labels", "toehold_labels", "edges", "rank", "ends", "anchors", "toeholds", "partners",
                "components")
GRAPH_FIELDS = ("domains", "current", "lengths", "colours", "admissible")


class TestCodedFrontEnd:
    """from_process indexes the label codes that the process derived once,
    and builds no Site, Edge or bond-free Domain on the way to explore; every
    field read later equals the definition on objects (oracles.object_shape)."""

    @staticmethod
    def processes() -> list[pr.Process]:
        from strandprover.compiler import clause_process
        from strandprover.fixtures import clause_set_s

        texts = [HAIRPIN, FOURWAY, HAIRPIN_AND_FOURWAY, HAIRPINS_AND_FOURWAY, THREE_HAIRPINS]
        rng = random.Random(1)
        # toehold systems in the mix of the bench's explore workload: (hairpins, four-ways), count
        mix = (((0, 1), 14), ((1, 0), 16), ((0, 2), 20), ((1, 1), 6), ((2, 0), 20), ((0, 3), 2), ((1, 2), 1), ((2, 1), 1))
        for (hairpins, fourways), count in mix:
            texts += [oracles.toehold_system(rng, hairpins, fourways) for _ in range(count)]
        processes = [pr.parse_process(text) for text in texts] + [theorem_process(), clause_process(clause_set_s())]
        rng = random.Random(37)
        processes += [oracles.random_process(rng, strands=4, max_len=8, bond_fraction=0.8) for _ in range(160)]
        return processes

    def test_every_field_matches_the_definition(self):
        for p in self.processes():
            want = oracles.object_shape(p)
            # the process as built and as parsed back from its text; the
            # graph as from_process gives it and as the constructor checks it
            q = pr.parse_process(str(p))
            graphs = [from_process(p), from_process(q), StrandGraph(want["domains"], want["current"])]
            for g in graphs:
                assert {name: getattr(g._index, name) for name in INDEX_FIELDS} == {n: want[n] for n in INDEX_FIELDS}
                assert {name: getattr(g, name) for name in GRAPH_FIELDS} == {n: want[n] for n in GRAPH_FIELDS}
                assert to_json_dict(g) == want["json"]
            assert (p._codes, p._names, p._bonds) == (q._codes, q._names, q._bonds)
            assert graphs[0] == graphs[1] == graphs[2] and len({hash(g) for g in graphs}) == 1

    @pytest.mark.parametrize("text", [HAIRPIN, FOURWAY, HAIRPINS_AND_FOURWAY],
                             ids=["hairpin", "fourway", "two-hairpins-and-fourway"])
    def test_no_object_is_built_on_the_way_to_explore(self, monkeypatch, text):
        built = Counter()

        def counting(name, make):
            def counted(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return counted

        monkeypatch.setattr(Site, "__new__", staticmethod(counting("Site", Site.__new__)))
        monkeypatch.setattr(Edge, "__new__", staticmethod(counting("Edge", Edge.__new__)))
        monkeypatch.setattr(pr.Domain, "free", counting("Domain.free", pr.Domain.free))
        report = explore(from_process(pr.parse_process(text)))
        assert built == Counter()
        # reading a state decodes it: the counters see every Edge and Site built
        assert len(report.states[-1]) == bin(report.masks[-1]).count("1")
        assert built["Edge"] == len(report.graph._index.ends) and built["Site"] > built["Edge"]

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_equal_whether_or_not_fields_were_read(self, copier):
        for read in ((), GRAPH_FIELDS):
            g = hairpin_and_fourway_graph()
            for name in read:
                getattr(g, name)
            h = copier(g)
            assert h == g and hash(h) == hash(g)
            assert {name: getattr(h, name) for name in GRAPH_FIELDS} == {name: getattr(g, name) for name in GRAPH_FIELDS}
            assert report_digest(explore(h)) == report_digest(explore(g))


def reference_explore(g: StrandGraph):
    """Breadth-first closure over frozenset states, each state's moves those
    the rule appliers accept (brute_force_moves), sorted by rule order and
    then by the sorted ranks of the removed and of the added edges."""
    rank = {e: k for k, e in enumerate(sorted(g.admissible))}

    def key(m: Move):
        return graph_module.RULES.index(m.rule), sorted(map(rank.get, m.removed)), sorted(map(rank.get, m.added))

    states, depths, parents, terminals = [g.current], [0], [None], []
    index = {g.current: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        available = sorted(brute_force_moves(g.with_current(states[i])), key=key)
        if not available:
            terminals.append(i)
        for move in available:
            nxt = (states[i] - move.removed) | move.added
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                depths.append(depths[i] + 1)
                parents.append((i, move))
                queue.append(index[nxt])
    return states, depths, parents, terminals


def disjoint_union(rng: random.Random, parts: list[pr.Process]) -> pr.Process:
    """The parts side by side, domains and bonds renamed per part so that no
    two parts pair, and the strands shuffled."""
    strands = [
        pr.Strand(tuple(
            pr.Domain(f"{d.name}_{k}", d.complemented, d.toehold, None if d.bond is None else f"{d.bond}_{k}")
            for d in strand.domains
        ))
        for k, part in enumerate(parts)
        for strand in part.strands
    ]
    rng.shuffle(strands)
    return pr.Process(tuple(strands))


class TestReferenceExploration:
    """explore() runs on edge-rank bitmasks, walks each connected
    component's closure once and builds their product a depth at a time; a
    plain search over edge sets, with the moves the rule appliers accept,
    must produce the same report."""

    def assert_matches_reference(self, g: StrandGraph) -> int:
        report = explore(g)
        assert (report.states, report.depths, report.parents, report.terminals) == reference_explore(g)
        return len(report.states)

    def test_random_processes(self):
        rng = random.Random(23)
        for _ in range(150):
            p = oracles.random_process(rng, strands=3, max_len=5, bond_fraction=0.8)
            self.assert_matches_reference(from_process(p))

    def test_disjoint_unions_interleave_their_components(self):
        def part(rng: random.Random) -> pr.Process:
            # a part that moves, small enough that the product stays small
            while True:
                p = oracles.random_process(rng, strands=3, max_len=4, bond_fraction=0.7)
                if 1 < len(explore(from_process(p)).states) <= 12:
                    return p

        rng = random.Random(29)
        for _ in range(50):
            parts = [part(rng) for _ in range(rng.randint(2, 3))]
            count = self.assert_matches_reference(from_process(disjoint_union(rng, parts)))
            # the parts move independently: the closure is their product
            assert count == math.prod(len(explore(from_process(p)).states) for p in parts)

    def test_budget_message_on_several_components(self):
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))
        with pytest.raises(ExplorationLimitError) as info:
            explore(g, max_states=100)
        assert str(info.value) == "more than 100 states, at depth 5"

    @pytest.mark.parametrize("max_states, depth", [(100, 3), (1000, 8), (1407, 14)])
    def test_budget_messages_on_three_components(self, max_states, depth):
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAYS))
        assert len(g._index.components) == 3
        assert len(explore(g).states) == 22 * 8 * 8
        with pytest.raises(ExplorationLimitError) as info:
            explore(g, max_states=max_states)
        assert str(info.value) == f"more than {max_states} states, at depth {depth}"


class TestProcessClosure:
    """explore() against a breadth-first closure over processes under
    process.py's own rules, with no ring cap (oracles.process_closure):
    the same states, each at the same shortest depth, and the same
    terminals."""

    @staticmethod
    def assert_matches_process_closure(p: pr.Process) -> int:
        depths, terminals = oracles.process_closure(p)
        report = explore(from_process(p))
        assert dict(zip(report.masks, report.depths)) == depths
        assert {report.masks[i] for i in report.terminals} == terminals
        return len(depths)

    def test_fixtures(self):
        processes = [pr.parse_process(text) for text in (HAIRPIN, FOURWAY, HAIRPIN_AND_FOURWAY)] + [theorem_process()]
        assert [self.assert_matches_process_closure(p) for p in processes] == [22, 8, 22 * 8, 32]

    def test_random_processes(self):
        rng = random.Random(7)
        assert sum(self.assert_matches_process_closure(oracles.random_process(rng)) for _ in range(200)) == 395

    def test_more_random_processes(self):
        rng = random.Random(39)
        assert sum(self.assert_matches_process_closure(oracles.random_process(rng)) for _ in range(200)) == 344

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("hairpins, fourways, states", [(0, 2, 64), (1, 1, 176)],
                             ids=["two-fourways", "hairpin-and-fourway"])
    def test_shuffled_toehold_systems(self, seed, hairpins, fourways, states):
        # the bench mix's systems, renamed per copy and shuffled: the process
        # is parsed, and each rule successor is a Process built from strands
        text = oracles.toehold_system(random.Random(seed), hairpins, fourways)
        assert self.assert_matches_process_closure(pr.parse_process(text)) == states

    @pytest.mark.parametrize("bonds, states", [(2, 2), (3, 4), (4, 8)])
    def test_short_duplexes(self, bonds, states):
        assert self.assert_matches_process_closure(pr.parse_process(duplex(bonds))) == states

    def test_a_duplex_past_the_ring_cap(self, monkeypatch):
        # five bonds may rotate in one ring of five: explore needs a higher cap
        monkeypatch.setattr(graph_module, "MAX_RING", 8)
        assert self.assert_matches_process_closure(pr.parse_process(duplex(5))) == 22


class TestBudgetMessages:
    """Each component's closure is walked first and stops, without raising,
    once it holds more than max_states parts; the product alone raises.
    Whether the product or one closure passes max_states first, the message
    names the depth of the state whose successor went over."""

    def assert_messages_match(self, g: StrandGraph, depths: list[int], step: int = 1):
        """Under every step-th budget below the closure's size, the message
        names the least depth D at which the unbounded exploration, whose
        state depths are given, has more than max_states states at depth
        D + 1 or less."""
        for max_states in range(1, len(depths), step):
            depth = next(d for d in range(max(depths)) if sum(k <= d + 1 for k in depths) > max_states)
            with pytest.raises(ExplorationLimitError) as info:
                explore(g, max_states=max_states)
            assert str(info.value) == f"more than {max_states} states, at depth {depth}"

    def test_disjoint_unions(self):
        def part(rng: random.Random) -> pr.Process:
            while True:
                p = oracles.random_process(rng, strands=3, max_len=4, bond_fraction=0.7)
                if 1 < len(explore(from_process(p)).states) <= 6:
                    return p

        rng = random.Random(37)
        for _ in range(12):
            parts = [part(rng) for _ in range(rng.randint(2, 3))]
            g = from_process(disjoint_union(rng, parts))
            self.assert_messages_match(g, reference_explore(g)[1])

    @pytest.mark.parametrize("make", [hairpin_graph, fourway_graph], ids=["hairpin", "fourway"])
    def test_one_component(self, make):
        g = make()
        assert len(g._index.components) == 1
        self.assert_messages_match(g, reference_explore(g)[1])

    @pytest.mark.parametrize("text, components, step", [
        (HAIRPIN_AND_FOURWAY, 2, 1),
        (HAIRPIN_AND_FOURWAYS, 3, 7),
    ], ids=["hairpin-and-fourway", "hairpin-and-two-fourways"])
    def test_several_components(self, text, components, step):
        g = from_process(pr.parse_process(text))
        assert len(g._index.components) == components
        self.assert_messages_match(g, explore(g).depths, step)

    def test_one_deep_component(self):
        g = from_process(pr.parse_process(oracles.branch_migration(40)))
        assert len(g._index.components) == 1
        depths = explore(g).depths  # the reference's ring search over 40 bonds is too slow here
        assert depths == [0, 1, *range(1, 41)]  # the toehold unbound at depth 1, beside 40 migration steps
        self.assert_messages_match(g, depths)

    def test_a_closure_that_overflows_first(self, monkeypatch):
        # the duplex beside the chain has one state, so the chain's closure
        # passes each budget first, while its parts of the named depth expand
        g = from_process(pr.parse_process(oracles.branch_migration(40) + " | <bb!xx> | <bb*!xx>"))
        assert len(g._index.components) == 2
        depths = explore(g).depths  # the reference's ring search over 40 bonds is too slow here
        assert len(depths) == 42
        self.assert_messages_match(g, depths)
        for max_states, depth in ((10, 8), (30, 28), (41, 39)):
            with pytest.raises(ExplorationLimitError, match=f"^more than {max_states} states, at depth {depth}$"):
                explore(g, max_states=max_states)
        # under 10 states the chain's closure stops, holding 11 parts, after
        # expanding 10 of them; the duplex's one part is expanded once
        ix = g._index
        chain = next(c for c in ix.components if bin(c[0]).count("1") > 1)  # more than one rank
        _, children, _ = graph_module._closure(ix, chain, g._mask, 10)
        assert len(children) == 10
        assert len({part ^ m[3] for part, kids in children.items() for m in kids} | {g._mask & chain[0]}) == 11
        calls = Counter()
        component_moves = graph_module._component_moves

        def counted(t, names, state):
            calls[sum(len(ranks) for _, ranks, _ in names) > 1] += 1
            return component_moves(t, names, state)

        monkeypatch.setattr(graph_module, "_component_moves", counted)
        with pytest.raises(ExplorationLimitError, match="^more than 10 states, at depth 8$"):
            explore(g, max_states=10)
        assert calls == {True: 10, False: 1}


# --- exploration -------------------------------------------------------------


def _component_ranks(names) -> list[int]:
    """The ranks of a component, ascending, from its names as _component_moves takes them."""
    return sorted(r for _, ranks, _ in names for r in ranks)


def _bound_sites(t, ranks: list[int], state: int) -> set[int]:
    return {s for e in ranks if state >> e & 1 for s in t.ends[e]}


def _rebinding_move(t, names, state: int):
    """A GB on a free edge that shares a site with a current edge, if any."""
    ranks = _component_ranks(names)
    bound = _bound_sites(t, ranks, state)
    return next(((0, (), (x,), 1 << x) for x in ranks if not state >> x & 1 and bound & set(t.ends[x])), None)


def _overflowing_move(t, names, state: int):
    """A GB whose flip also sets the bit after the last rank, if any GB fires."""
    ranks = _component_ranks(names)
    bound = _bound_sites(t, ranks, state)
    return next(((0, (), (x,), 1 << x | 1 << len(t.edges)) for x in ranks if not bound & set(t.ends[x])), None)


class TestExplore:
    def test_theorem_unique_all_bound_terminal(self):
        g = theorem_graph()
        report = explore(g)
        assert report.terminals == [len(report.states) - 1]
        (terminal,) = report.terminals
        assert report.states[terminal] == g.admissible
        assert report.depths[terminal] == 5
        trace = report.trace_to(terminal)
        assert [m.rule for m in trace.moves] == ["GB"] * 5
        assert trace.replay(g) == g.admissible

    def test_fourway_swapped_state_within_depth_three(self):
        g = fourway_graph()
        report = explore(g)
        swapped = (g.current - {E(1, 2, 2, 2), E(3, 2, 4, 2)}) | {
            E(1, 3, 3, 1), E(2, 1, 4, 3), E(1, 2, 3, 2), E(2, 2, 4, 2),
        }
        assert swapped in report.states
        assert report.depths[report.states.index(swapped)] <= 3

    def test_fourway_cycles_without_terminals(self):
        report = explore(fourway_graph())
        assert len(report.states) == 8
        assert report.terminals == []

    def test_single_strand_is_terminal_at_once(self):
        report = explore(from_process(pr.parse_process("<a>")))
        assert len(report.states) == 1
        assert report.terminals == [0]
        assert report.trace_to(0).moves == ()

    def test_discovery_order_is_deterministic(self):
        a = explore(fourway_graph())
        b = explore(fourway_graph())
        assert a.states == b.states and a.depths == b.depths

    def test_state_limit_raises(self):
        with pytest.raises(ExplorationLimitError):
            explore(theorem_graph(), max_states=4)

    def test_a_deep_chain_needs_only_its_states(self):
        report = explore(from_process(pr.parse_process(oracles.branch_migration(210))))
        assert len(report.states) == 212
        assert max(report.depths) == 210
        assert len(report.terminals) == 1

    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ValueError):
            explore(theorem_graph(), max_states=0)

    @pytest.mark.parametrize("text, parts, states", [
        (HAIRPIN_AND_FOURWAYS, 22 + 8 + 8, 22 * 8 * 8),
        (THREE_HAIRPINS, 3 * 22, 22 ** 3),
        (HAIRPIN, 22, 22),
        (FOURWAY, 8, 8),
    ], ids=["hairpin-and-two-fourways", "three-hairpins", "hairpin", "fourway"])
    def test_each_part_is_enumerated_once(self, monkeypatch, text, parts, states):
        """Moves are enumerated once per reachable part of each component,
        not once per state of the product."""
        calls = []
        component_moves = graph_module._component_moves

        def counted(t, names, state):
            calls.append((names[0][1][0], state))  # the part, keyed by its component's first rank
            return component_moves(t, names, state)

        monkeypatch.setattr(graph_module, "_component_moves", counted)
        report = explore(from_process(pr.parse_process(text)))
        assert len(report.states) == states
        assert len(calls) == len(set(calls)) == parts

    @pytest.mark.parametrize("make", [hairpin_graph, hairpin_and_fourway_graph], ids=["1-component", "2-components"])
    @pytest.mark.parametrize("extra, error", [
        (_rebinding_move, "is bound twice"),
        (_overflowing_move, "past the last edge rank"),
    ], ids=["site-bound-twice", "bit-past-last-rank"])
    def test_a_faulty_enumerator_is_caught(self, monkeypatch, make, extra, error):
        """Every component's move list also holds extra(index, names, state):
        explore must reject the state that move reaches."""
        component_moves = graph_module._component_moves

        def patched(t, names, state):
            found = component_moves(t, names, state)
            move = extra(t, names, state)
            return found if move is None else sorted(found + [move])

        monkeypatch.setattr(graph_module, "_component_moves", patched)
        g = make()
        assert len(g._index.components) == (1 if make is hairpin_graph else 2)
        with pytest.raises(GraphError, match=error):
            explore(g)

    @pytest.mark.parametrize("make, count", [(hairpin_and_fourway_graph, 176), (fourway_graph, 8)])
    def test_each_discovery_replays_through_the_rule_appliers(self, make, count):
        g = make()
        report = explore(g)
        assert len(report.states) == count
        for k in range(1, count):
            i, move = report.parents[k]
            assert apply_move(g.with_current(report.states[i]), move).current == report.states[k]

    def test_traces_replay_for_every_state(self):
        g = hairpin_graph()
        report = explore(g)
        for k in range(len(report.states)):
            assert report.trace_to(k).replay(g) == report.states[k]


class TestLazyReport:
    """explore walks on integers; the report decodes states and moves when
    they are read, and reads like the lists reference_explore builds."""

    def counted_decode(self, monkeypatch) -> list:
        calls = []
        decode = graph_module._decode

        def counted(t, move):
            calls.append(move)
            return decode(t, move)

        monkeypatch.setattr(graph_module, "_decode", counted)
        return calls

    def test_explore_decodes_no_move(self, monkeypatch):
        calls = self.counted_decode(monkeypatch)
        report = explore(hairpin_and_fourway_graph())
        assert len(report.states) == 176
        assert calls == []

    def test_a_trace_decodes_only_its_own_moves(self, monkeypatch):
        calls = self.counted_decode(monkeypatch)
        g = hairpin_and_fourway_graph()
        report = explore(g)
        k = len(report.states) - 1
        trace = report.trace_to(k)
        assert len(trace.moves) == report.depths[k] == len(calls)
        assert trace.replay(g) == report.states[k]
        report.trace_to(k)  # a move is decoded once per report
        assert len(calls) == report.depths[k]

    def test_states_and_parents_read_as_lists(self):
        g = hairpin_and_fourway_graph()
        report = explore(g)
        states, depths, parents, terminals = reference_explore(g)
        assert (report.states, report.parents) == (states, parents)
        assert report.states != states[:-1] and report.parents != parents[::-1]
        for seq, ref in ((report.states, states), (report.parents, parents)):
            assert len(seq) == len(ref) == 176
            assert list(seq) == ref and list(reversed(seq)) == ref[::-1]
            assert seq[-1] == ref[-1] and seq[-176] == ref[0]
            assert seq[3:9] == ref[3:9] and type(seq[3:9]) is list
            assert seq[:2] + [ref[5]] == ref[:2] + [ref[5]]
            assert ref[7] in seq and seq.index(ref[7]) == 7
            with pytest.raises(IndexError):
                seq[176]
        assert frozenset() not in report.states

    def test_a_report_with_replaced_states_still_traces(self):
        g = hairpin_graph()
        report = explore(g)
        copy = replace(report, states=list(report.states))
        assert type(copy.states) is list and copy == report
        for k in report.terminals:
            assert copy.trace_to(k) == report.trace_to(k)
            assert copy.trace_to(k).replay(g) == copy.states[k]


class TestTrace:
    def test_replay_rejects_inconsistent_moves(self):
        g = theorem_graph()
        move = Move("GB", frozenset(), frozenset([E(1, 2, 3, 1)]))
        bad = Trace(frozenset([E(1, 2, 3, 1)]), (move,), frozenset([E(1, 2, 3, 1)]))
        with pytest.raises(MoveError):
            bad.replay(g)

    def test_replay_rejects_wrong_final_state(self):
        move = Move("GB", frozenset(), frozenset([E(1, 2, 3, 1)]))
        bad = Trace(frozenset(), (move,), frozenset())
        with pytest.raises(MoveError):
            bad.replay(theorem_graph())

    def test_replay_checks_each_premise_through_the_rule_appliers(self):
        # the second GB adds an edge that no current edge holds, but it binds
        # site (1,1) again: bind refuses it, and no step line counts the
        # edges of the state it would reach
        g = from_process(pr.parse_process("<a> | <a*> | <a*>"))
        first, second = (Move("GB", frozenset(), frozenset([x])) for x in (E(1, 1, 2, 1), E(1, 1, 3, 1)))
        twice = Trace(frozenset(), (first, second), frozenset([E(1, 1, 2, 1), E(1, 1, 3, 1)]))
        assert [state.current for state in Trace(frozenset(), (first,), frozenset()).walk(g)] == [
            frozenset(), frozenset([E(1, 1, 2, 1)])]
        for read in (twice.replay, twice.lines):
            with pytest.raises(MoveError, match=r"an endpoint of \(1,1\)-\(3,1\) is already bound"):
                read(g)

    def test_lines_show_rule_and_edge_count(self):
        g = theorem_graph()
        report = explore(g)
        lines = report.trace_to(report.terminals[0]).lines(g)
        assert len(lines) == 5
        assert lines[0].startswith("step 1: GB ")
        assert lines[-1].endswith("|E|=5")

    def test_lines_count_the_edges_of_each_state_walked(self):
        # on every explored trace of the hairpin, the four-way (which has no
        # terminal) and the theorem, the counts are those of the set walk
        # (current - removed) | added; the terminal traces' lines are pinned
        terminal_lines = []
        for g in (hairpin_graph(), fourway_graph(), theorem_graph()):
            report = explore(g)
            for i in range(len(report.states)):
                trace = report.trace_to(i)
                current, want = trace.initial, []
                for k, move in enumerate(trace.moves, start=1):
                    current = (current - move.removed) | move.added
                    want.append(f"step {k}: {move.describe()} |E|={len(current)}")
                assert trace.lines(g) == want
                if i in report.terminals:
                    terminal_lines += want
        assert len(terminal_lines) == 10
        digest = hashlib.sha256("\n".join(terminal_lines).encode()).hexdigest()
        assert digest == "c401d11331d2b52139b3e1661d862e302e5b3de3155a978bdc594eb7884913c7"

    def test_binding_trace_binds_the_greedy_chain(self):
        g = theorem_graph()
        witness = binding_trace(g)
        assert [m.rule for m in witness.moves] == ["GB"] * 5 and not any(m.removed for m in witness.moves)
        assert [next(iter(m.added)) for m in witness.moves] == [Edge(*pair) for pair in coded_bind_chain(g)]
        assert witness.initial == frozenset() and witness.final == THEOREM_A
        assert witness.replay(g) == THEOREM_A
        # a toehold whose complement is absent changes nothing; no complement at all binds nothing
        lone = from_process(pr.parse_process("<t^ a> | <a*>"))
        assert binding_trace(lone).final == {E(1, 2, 2, 1)}
        assert binding_trace(from_process(pr.parse_process("<a> | <b>"))) == Trace(frozenset(), (), frozenset())

    def test_binding_trace_declines_where_an_edge_might_unbind(self):
        # a current edge, or a toehold label that meets its complement
        assert binding_trace(theorem_graph().with_current([E(1, 1, 5, 1)])) is None
        assert binding_trace(from_process(pr.parse_process("<t^ a> | <a* t^*>"))) is None
        assert binding_trace(from_process(pr.parse_process("<t^> | <a> | <a*> | <t^*>"))) is None


# --- process/graph agreement -------------------------------------------------


class TestEngineAgreement:
    def test_hairpin_script(self):
        p = hairpin()
        g = from_process(p)
        script = [
            (lambda p: pr.bind(p, (1, 1), (3, 6)),
             lambda g: bind(g, E(1, 1, 3, 6))),
            (lambda p: pr.displace(p, (1, 2), "y1"),
             lambda g: displace(g, E(3, 1, 3, 5), E(1, 2, 3, 5))),
            (lambda p: pr.bind(p, (2, 3), (3, 1)),
             lambda g: bind(g, E(2, 3, 3, 1))),
        ]
        for process_step, graph_step in script:
            p = process_step(p)
            g = graph_step(g)
            assert from_process(p).current == g.current

    def test_fourway_script(self):
        p = fourway()
        g = from_process(p)
        p = pr.bind(p, (1, 3), (3, 1));  g = bind(g, E(1, 3, 3, 1))
        assert from_process(p).current == g.current
        p = pr.bind(p, (2, 1), (4, 3));  g = bind(g, E(2, 1, 4, 3))
        assert from_process(p).current == g.current
        p = pr.migrate_ring(p, ["j1", "j2"])
        g = migrate(g, {E(1, 2, 2, 2), E(3, 2, 4, 2)}, {E(1, 2, 3, 2), E(2, 2, 4, 2)})
        assert from_process(p).current == g.current


# --- interchange formats -----------------------------------------------------


class TestJson:
    def test_round_trip_is_byte_exact(self):
        for g in (theorem_graph(), fourway_graph(), hairpin_graph()):
            text = to_json(g)
            assert to_json(from_json(text)) == text

    def test_round_trip_preserves_the_graph(self):
        g = fourway_graph()
        again = from_json(to_json(g))
        assert again == g

    def test_vertex_ids_must_run_from_one(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["id"] = 7
        with pytest.raises(GraphError):
            from_json(data)

    def test_length_field_must_match_domains(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["length"] = 2
        with pytest.raises(GraphError):
            from_json(data)

    def test_toehold_flags_must_agree_with_labels(self):
        data = to_json_dict(fourway_graph())
        data["toehold"][0] = not data["toehold"][0]
        with pytest.raises(GraphError):
            from_json(data)

    @pytest.mark.parametrize("truthy, falsy", [("no", 0), (1, ""), ("true", None)])
    def test_toehold_flags_must_be_booleans(self, truthy, falsy):
        data = to_json_dict(fourway_graph())
        assert True in data["toehold"] and False in data["toehold"]
        data["toehold"] = [truthy if flag else falsy for flag in data["toehold"]]
        with pytest.raises(GraphError, match="must be true or false"):
            from_json(data)

    def test_admissible_list_must_be_complete(self):
        data = to_json_dict(theorem_graph())
        del data["admissible"][0], data["toehold"][0]
        with pytest.raises(GraphError):
            from_json(data)

    @pytest.mark.parametrize("reverse", [False, True], ids=["same", "reversed"])
    def test_admissible_edge_listed_twice_rejected(self, reverse):
        data = to_json_dict(fourway_graph())
        first = data["admissible"][0]
        data["admissible"].append(first[::-1] if reverse else first)
        data["toehold"].append(data["toehold"][0])
        with pytest.raises(GraphError, match="must each be listed once"):
            from_json(data)

    @pytest.mark.parametrize("reverse", [False, True], ids=["same", "reversed"])
    def test_current_edge_listed_twice_rejected(self, reverse):
        data = to_json_dict(fourway_graph())
        first = data["current"][0]
        data["current"].append(first[::-1] if reverse else first)
        with pytest.raises(GraphError, match="must each be listed once"):
            from_json(data)

    @pytest.mark.parametrize("order", list(permutations(range(3))), ids=str)
    def test_the_first_bad_current_edge_listed_is_named(self, order):
        data = to_json_dict(from_process(pr.parse_process("<a^!x b> | <b* a^*!x>")))
        bad = [E(1, 2, 2, 2), E(1, 1, 2, 1), E(1, 1, 3, 1)]
        data["current"] = [[list(bad[k].a), list(bad[k].b)] for k in order]
        with pytest.raises(GraphError, match=rf"^current edge {re.escape(str(bad[order[0]]))} is not admissible$"):
            from_json(data)

    @pytest.mark.parametrize("order, site", [((0, 1, 2), "(1,1)"), ((1, 0, 2), "(2,1)"), ((2, 1, 0), "(1,1)"),
                                             ((1, 2, 0), "(2,1)")])
    def test_the_first_site_bound_twice_is_named_in_the_order_listed(self, order, site):
        data = to_json_dict(from_process(pr.parse_process("<a> | <a*> | <a> | <a*>")))
        edges = [E(1, 1, 2, 1), E(2, 1, 3, 1), E(1, 1, 4, 1)]
        data["current"] = [[list(edges[k].a), list(edges[k].b)] for k in order]
        with pytest.raises(GraphError, match=rf"^site {re.escape(site)} is bound twice$"):
            from_json(data)

    def test_vertex_without_domains_rejected(self):
        data = to_json_dict(theorem_graph())
        colour = max(row["colour"] for row in data["vertices"]) + 1
        data["vertices"].append({"id": len(data["vertices"]) + 1, "length": 0, "colour": colour, "domains": []})
        with pytest.raises(GraphError, match="at least one domain"):
            from_json(data)

    def test_missing_field_rejected(self):
        with pytest.raises(GraphError):
            from_json({"vertices": []})

    def test_vertex_id_must_be_an_integer(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["id"] = True
        with pytest.raises(GraphError, match="vertex ids"):
            from_json(data)

    def test_length_must_be_an_integer(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["length"] = float(data["vertices"][0]["length"])
        with pytest.raises(GraphError, match="length"):
            from_json(data)

    def test_colour_must_be_an_integer(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["colour"] = True
        with pytest.raises(GraphError, match="colour"):
            from_json(data)

    def test_admissible_coordinates_must_be_integers(self):
        data = to_json_dict(theorem_graph())
        data["admissible"][0][0][0] += 0.9
        with pytest.raises(GraphError, match="must be integers"):
            from_json(data)

    def test_current_coordinates_must_be_integers(self):
        data = to_json_dict(fourway_graph())
        data["current"][0][0][0] += 0.9
        with pytest.raises(GraphError, match="must be integers"):
            from_json(data)

    def test_malformed_edge_rejected(self):
        data = to_json_dict(theorem_graph())
        data["current"] = [[[1, 2]]]
        with pytest.raises(GraphError):
            from_json(data)

    def test_bonded_label_rejected(self):
        data = to_json_dict(fourway_graph())
        data["vertices"][0]["domains"][0] += "!x"
        with pytest.raises(GraphError, match="^graph site labels carry no bonds$"):
            from_json(data)

    def test_non_string_domain_token_rejected(self):
        data = to_json_dict(theorem_graph())
        data["vertices"][0]["domains"][0] = 5
        with pytest.raises(GraphError, match="^vertex 1: malformed domain token"):
            from_json(data)

    def test_short_toehold_list_rejected(self):
        data = to_json_dict(fourway_graph())
        data["toehold"].pop()
        with pytest.raises(GraphError, match="^toehold flags must align with the admissible list$"):
            from_json(data)


class TestDot:
    def test_contains_vertices_and_styled_edges(self):
        text = to_dot(fourway_graph())
        assert text.startswith("graph strand_system {")
        assert 'v1 [label="1: <a^ b c^*>  colour 1"]' in text
        assert "penwidth=2.0" in text      # current edges highlighted
        assert "style=dashed" in text      # toehold edges dashed
        assert "color=blue" in text        # admissible-only edges present
        assert text.rstrip().endswith("}")
