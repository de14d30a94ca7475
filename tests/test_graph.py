"""Strand graphs: structure, moves, exploration, and interchange formats."""

import hashlib
import math
import random
from collections import deque
from itertools import combinations

import pytest

import oracles
from strandprover import graph as graph_module
from strandprover import process as pr
from strandprover.fixtures import fourway, hairpin, theorem_graph, theorem_process
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
    unbindable_sites,
)


def E(v1, n1, v2, n2) -> Edge:
    return Edge(Site(v1, n1), Site(v2, n2))


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

    def test_coinciding_endpoints_rejected(self):
        with pytest.raises(GraphError):
            Edge(Site(1, 1), Site(1, 1))

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

    def test_from_process_derives_admissible_edges_once(self, monkeypatch):
        calls = []
        complementary_pairs = graph_module._complementary_pairs

        def counted(domains):
            calls.append(domains)
            return complementary_pairs(domains)

        monkeypatch.setattr(graph_module, "_complementary_pairs", counted)
        from_process(fourway())
        assert len(calls) == 1

    def test_the_shape_is_indexed_once(self, monkeypatch):
        calls = []
        build_index = graph_module._build_index

        def counted(g):
            calls.append(g)
            return build_index(g)

        monkeypatch.setattr(graph_module, "_build_index", counted)
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))
        report = explore(g)
        for state in report.states:
            moves(g.with_current(state))
        bind_chain(g)
        assert len(calls) == 1

    def test_position_bounds(self):
        g = theorem_graph()
        with pytest.raises(GraphError):
            g.label(Site(1, 4))

    def test_unbindable_sites(self):
        s = pr.parse_process("<P> | <P*> | <Q>")
        assert unbindable_sites(from_process(s)) == {Site(3, 1)}
        assert unbindable_sites(fourway_graph()) == frozenset()


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

    def test_endpoints_must_be_repartitioned(self):
        with pytest.raises(MoveError):
            migrate(
                self.swapped(),
                [E(1, 2, 2, 2), E(3, 2, 4, 2)],
                [E(1, 2, 3, 2), E(3, 3, 4, 1)],  # second edge leaves the ring
            )

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
        g = fourway_graph()
        assert moves(g) == moves(g)
        rule_order = graph_module.RULES.index
        assert moves(g) == sorted(moves(g), key=lambda m: (rule_order(m.rule), sorted(m.removed), sorted(m.added)))

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

# two hairpins and a four-way junction, renamed per copy and interleaved
HAIRPINS_AND_FOURWAY = (
    "<p_2!y1_2 q_2!z1_2 r_2 q_2*!z1_2 p_2*!y1_2 t_2^*> | <e_3^*!k_3 b_3!j2_3 d_3^> | <t_2^ p_2> | "
    "<r_2* q_2* p_2*> | <a_3^!i_3 b_3!j1_3 c_3^*> | <d_3^* b_3*!j1_3 a_3^*!i_3> | "
    "<p_1!y1_1 q_1!z1_1 r_1 q_1*!z1_1 p_1*!y1_1 t_1^*> | <c_3^ b_3*!j2_3 e_3^!k_3> | "
    "<r_1* q_1* p_1*> | <t_1^ p_1>"
)


def report_digest(report) -> str:
    h = hashlib.sha256()
    for i, state in enumerate(report.states):
        parent = report.parents[i]
        link = "-" if parent is None else f"{parent[0]} {parent[1].describe()}"
        h.update(f"{i} {report.depths[i]} {','.join(map(str, sorted(state)))} {link}\n".encode())
    h.update(" ".join(map(str, report.terminals)).encode())
    return h.hexdigest()


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


class TestShapeIndex:
    """The constructor's integer index against the set-level definitions:
    sorted edges, edge_adjacent, toehold and vertex connectivity."""

    def assert_matches_definitions(self, g: StrandGraph) -> list[Edge]:
        ix = g._index
        assert ix.edges == sorted(g.admissible)
        assert ix.rank == {e: r for r, e in enumerate(ix.edges)}
        for r, e in enumerate(ix.edges):
            anchors = {ix.edges[f] for f in range(len(ix.edges)) if ix.anchors[r] >> f & 1}
            assert anchors == edge_adjacent(e, g.admissible)
            assert ix.toeholds[r] == g.toehold(e)
        ranks = [r for _, component in ix.components for r in component]
        assert sorted(ranks) == list(range(len(ix.edges)))
        seen: set[int] = set()
        for mask, component in ix.components:
            assert mask == sum(1 << r for r in component)
            vertices = {s.vertex for r in component for s in ix.edges[r].sites}
            assert not vertices & seen
            seen |= vertices
        return [e for r, e in enumerate(ix.edges) if ix.anchors[r]]

    def test_fixtures_and_random_processes(self):
        graphs = [hairpin_graph(), fourway_graph(), theorem_graph()]
        graphs.append(from_process(pr.parse_process(HAIRPIN_AND_FOURWAY)))
        rng = random.Random(31)
        for _ in range(150):
            graphs.append(from_process(oracles.random_process(rng, strands=4, max_len=8, bond_fraction=0.8)))
        anchored = [e for g in graphs for e in self.assert_matches_definitions(g)]
        # hairpin loops, where both ends of an anchored edge lie on one vertex, are covered
        assert any(e.a.vertex == e.b.vertex for e in anchored)


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
    """explore() runs on edge-rank bitmasks with move lists cached per
    connected component; a plain search over edge sets, with the moves the
    rule appliers accept, must produce the same report."""

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
        assert str(info.value) == "more than 100 states"


# --- exploration -------------------------------------------------------------


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
        assert trace.replay() == g.admissible

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

    def test_each_state_is_checked_once(self, monkeypatch):
        g = from_process(pr.parse_process(HAIRPIN_AND_FOURWAY))
        checked = []
        with_current = StrandGraph.with_current

        def counted(self, current):
            checked.append(current)
            return with_current(self, current)

        monkeypatch.setattr(StrandGraph, "with_current", counted)
        report = explore(g)
        assert checked == report.states

    def test_traces_replay_for_every_state(self):
        report = explore(hairpin_graph())
        for k in range(len(report.states)):
            assert report.trace_to(k).replay() == report.states[k]


class TestTrace:
    def test_replay_rejects_inconsistent_moves(self):
        g = theorem_graph()
        move = Move("GB", frozenset(), frozenset([E(1, 2, 3, 1)]))
        bad = Trace(frozenset([E(1, 2, 3, 1)]), (move,), frozenset([E(1, 2, 3, 1)]))
        with pytest.raises(MoveError):
            bad.replay()

    def test_replay_rejects_wrong_final_state(self):
        move = Move("GB", frozenset(), frozenset([E(1, 2, 3, 1)]))
        bad = Trace(frozenset(), (move,), frozenset())
        with pytest.raises(MoveError):
            bad.replay()

    def test_lines_show_rule_and_edge_count(self):
        report = explore(theorem_graph())
        lines = report.trace_to(report.terminals[0]).lines()
        assert len(lines) == 5
        assert lines[0].startswith("step 1: GB ")
        assert lines[-1].endswith("|E|=5")


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


class TestDot:
    def test_contains_vertices_and_styled_edges(self):
        text = to_dot(fourway_graph())
        assert text.startswith("graph strand_system {")
        assert 'v1 [label="1: <a^ b c^*>  colour 1"]' in text
        assert "penwidth=2.0" in text      # current edges highlighted
        assert "style=dashed" in text      # toehold edges dashed
        assert "color=blue" in text        # admissible-only edges present
        assert text.rstrip().endswith("}")
