"""End-to-end acceptance gate for the two proof engines.

Each test covers one numbered acceptance criterion and prints a single
``acceptance criterion N (...): PASS``/``FAIL`` line (visible under
``pytest -s`` and in the captured output of failures).  Tolerances are
pinned inside the tests; randomized criteria run at least 1000 seeded
cases per property.
"""

import functools
import io
import random
import time

import oracles
from strandprover import cli
from strandprover import process as pr
from strandprover.compiler import (
    UNSAT_BY_HYBRIDIZATION,
    clause_process,
    compile_clauses,
    default_codebook,
    hybridization_verdict,
)
from strandprover.fixtures import clause_set_s, fourway, hairpin
from strandprover.graph import (
    Edge,
    Site,
    apply_move,
    bind,
    displace,
    explore,
    from_process,
    migrate,
    moves,
    sites_of,
)
from strandprover.logic import Clause, ClauseSet, Literal, to_clausal_form
from strandprover.resolution import UNSAT, refute, resolve_pair


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance criterion {number} ({title}): FAIL")
                raise
            print(f"acceptance criterion {number} ({title}): PASS")

        return run

    return wrap


def E(v1, n1, v2, n2) -> Edge:
    return Edge(Site(v1, n1), Site(v2, n2))


def C(text: str) -> Clause:
    return Clause.parse(text)


# frozen expectations, stated locally so the tests do not trust the library
THEOREM_TEXT = "<P Q* R> | <U* V R*> | <Q> | <V*> | <P*> | <U>"
THEOREM_A = {E(1, 1, 5, 1), E(1, 2, 3, 1), E(1, 3, 2, 3), E(2, 1, 6, 1), E(2, 2, 4, 1)}
THEOREM_BASES = [
    "ACGTAGTCACGAATTGACTGTCAGTCGAAT",  # P ~Q R
    "ATGGACCTAGGATCGTGCATATTCGACTGA",  # ~U V ~R
    "CAGTCAATTC",                      # Q
    "ATGCACGATC",                      # ~V
    "GTGACTACGT",                      # ~P
    "CTAGGTCCAT",                      # U
]
FOURWAY_A = {
    E(1, 1, 2, 3), E(1, 2, 2, 2), E(1, 2, 3, 2), E(1, 3, 3, 1),
    E(2, 1, 4, 3), E(2, 2, 4, 2), E(3, 2, 4, 2), E(3, 3, 4, 1),
}
FOURWAY_E = {E(1, 1, 2, 3), E(1, 2, 2, 2), E(3, 2, 4, 2), E(3, 3, 4, 1)}
FOURWAY_TOEHOLDS = {E(1, 1, 2, 3), E(1, 3, 3, 1), E(2, 1, 4, 3), E(3, 3, 4, 1)}


def _revcomp(seq: str) -> str:
    """Local Watson-Crick oracle, independent of the library's."""
    pairs = {"A": "T", "C": "G", "G": "C", "T": "A"}
    return "".join(pairs[ch] for ch in reversed(seq))


@criterion(1, "resolution refutes the six-clause example")
def test_criterion_1():
    started = time.perf_counter()
    result = refute(clause_set_s())
    elapsed = time.perf_counter() - started

    assert result.verdict == UNSAT
    inputs = [s for s in result.steps if s.parents is None]
    resolutions = [s for s in result.steps if s.parents is not None]
    assert len(inputs) == 6
    assert len(resolutions) == 5
    assert result.steps[result.empty_step].clause.is_empty()
    assert elapsed < 1.0

    # the classical presentation order is reachable pair by pair:
    # the two wide clauses fall to units, their resolvents meet, and two
    # further unit resolutions reach {}
    assert (C("P R"), Literal("Q", True)) in resolve_pair(C("P ~Q R"), C("Q"))
    assert (C("~U ~R"), Literal("V")) in resolve_pair(C("~U V ~R"), C("~V"))
    assert (C("P ~U"), Literal("R")) in resolve_pair(C("P R"), C("~U ~R"))
    assert (C("~U"), Literal("P")) in resolve_pair(C("P ~U"), C("~P"))
    assert (Clause(), Literal("U", True)) in resolve_pair(C("~U"), C("U"))


@criterion(2, "hybridization refutes the compiled six-clause example")
def test_criterion_2():
    started = time.perf_counter()
    p = clause_process(clause_set_s())
    g = from_process(p)
    report = explore(g)
    verdict = hybridization_verdict(p)
    elapsed = time.perf_counter() - started

    assert str(p) == THEOREM_TEXT
    assert g.vertex_count() == 6
    assert g.lengths == (3, 3, 1, 1, 1, 1)
    assert g.admissible == frozenset(THEOREM_A)
    assert not any(g.toehold(e) for e in g.admissible)
    assert g.current == frozenset()

    (terminal,) = report.terminals            # unique terminal state
    state = report.states[terminal]
    assert sites_of(state) == frozenset(g.sites())   # every site bound
    assert report.depths[terminal] == 5
    trace = report.trace_to(terminal)
    assert [m.rule for m in trace.moves] == ["GB"] * 5

    assert verdict.outcome == UNSAT_BY_HYBRIDIZATION
    assert [m.rule for m in verdict.witness.moves] == ["GB"] * 5
    assert elapsed < 1.0


@criterion(3, "compiled base sequences match the published table")
def test_criterion_3():
    p, compiled = compile_clauses(clause_set_s(), default_codebook())
    assert [item.bases for item in compiled] == THEOREM_BASES

    # every complementary site pair carries antiparallel complementary bases
    g = from_process(p)
    width = default_codebook().code_length()

    def slice_at(site):
        return compiled[site.vertex - 1].bases[(site.position - 1) * width:][:width]

    assert g.admissible  # non-vacuous
    for edge in g.admissible:
        assert slice_at(edge.a) == _revcomp(slice_at(edge.b))


@criterion(4, "four-way junction swaps within three moves")
def test_criterion_4():
    g = from_process(fourway())
    assert g.lengths == (3, 3, 3, 3)
    assert g.admissible == frozenset(FOURWAY_A)
    assert g.current == frozenset(FOURWAY_E)
    assert {e for e in g.admissible if g.toehold(e)} == FOURWAY_TOEHOLDS

    # GB, GB, then the middle-edge ring swap
    first = moves(g)
    assert [m.rule for m in first] == ["GB", "GB"]
    ready = g
    for move in first:
        ready = apply_move(ready, move)
    swap = [m for m in moves(ready) if m.rule == "GM"]
    assert len(swap) == 1
    assert swap[0].removed == {E(1, 2, 2, 2), E(3, 2, 4, 2)}
    assert swap[0].added == {E(1, 2, 3, 2), E(2, 2, 4, 2)}
    swapped = apply_move(ready, swap[0])

    report = explore(g)
    assert swapped.current in report.states
    assert report.depths[report.states.index(swapped.current)] <= 3

    unbinds = [m for m in moves(swapped) if m.rule == "GU"]
    assert unbinds, "no toehold can detach after the swap"
    assert all(swapped.toehold(e) for m in unbinds for e in m.removed)


@criterion(5, "hairpin cascade replays step for step on both engines")
def test_criterion_5():
    expected = [
        "<t^!x p> | <r* q* p*> | <p!y1 q!z1 r q*!z1 p*!y1 t^*!x>",
        "<t^!x p!y2> | <r* q* p*> | <p q!z1 r q*!z1 p*!y2 t^*!x>",
        "<t^!x p!y2> | <r* q* p*!y3> | <p!y3 q!z1 r q*!z1 p*!y2 t^*!x>",
        "<t^!x p!y2> | <r* q*!z2 p*!y3> | <p!y3 q!z2 r q* p*!y2 t^*!x>",
        "<t^!x p!y2> | <r*!u q*!z2 p*!y3> | <p!y3 q!z2 r!u q* p*!y2 t^*!x>",
    ]
    script = [
        # (process step, graph move of the matching family)
        (lambda p: pr.bind(p, (1, 1), (3, 6)), lambda g: bind(g, E(1, 1, 3, 6))),
        (lambda p: pr.displace(p, (1, 2), "y1"),
         lambda g: displace(g, E(3, 1, 3, 5), E(1, 2, 3, 5))),
        (lambda p: pr.bind(p, (2, 3), (3, 1)), lambda g: bind(g, E(2, 3, 3, 1))),
        (lambda p: pr.displace(p, (2, 2), "z1"),
         lambda g: displace(g, E(3, 2, 3, 4), E(2, 2, 3, 2))),
        # the cascade closes by pairing two free domains; that is the bind
        # rule's shape, and the new bond must end up anchored
        (lambda p: pr.bind(p, (2, 1), (3, 3)), lambda g: bind(g, E(2, 1, 3, 3))),
    ]
    p = hairpin()
    g = from_process(p)
    for text, (process_step, graph_step) in zip(expected, script):
        p = process_step(p)          # well-formedness checked on construction
        g = graph_step(g)
        assert pr.alpha_equal(p, pr.parse_process(text))
        assert from_process(p).current == g.current

    closing = p.domain_at((2, 1)).bond
    assert pr.is_anchored(p, closing)
    from strandprover.graph import is_anchored as edge_anchored

    assert edge_anchored(E(2, 1, 3, 3), g.current)


@criterion(6, "randomized property suite, 1000+ seeded cases per property")
def test_criterion_6():
    # (a) clausal conversion preserves truth-table satisfiability (<= 8 vars)
    rng = random.Random(101)
    for _ in range(1000):
        f = oracles.random_formula(rng, variables=8, depth=3)
        s = to_clausal_form(f)
        sat_f = sat_s = False
        for a in oracles.assignments(oracles.formula_variables(f)):
            value = oracles.eval_formula(f, a)
            assert value == oracles.eval_clause_set(s, a)
            sat_f = sat_f or value
            sat_s = sat_s or oracles.eval_clause_set(s, a)
        assert sat_f == sat_s

    # (b) resolvents are logical consequences of their parents
    rng = random.Random(102)
    for _ in range(1000):
        c1 = oracles.random_clause(rng, variables=4)
        c2 = oracles.random_clause(rng, variables=4)
        for resolvent, pivot in resolve_pair(c1, c2):
            assert pivot in c1 and pivot.complement() in c2
            assert oracles.is_consequence([c1, c2], resolvent)

    # (c) refute agrees with the truth-table oracle (<= 4 vars, <= 8 clauses)
    rng = random.Random(103)
    for _ in range(1000):
        s = oracles.random_clause_set(rng, variables=4, clauses=8)
        assert refute(s).is_unsat == (not oracles.clause_set_satisfiable(s))

    # (d) every enumerated move keeps E inside A, site-disjoint, with the
    #     per-rule |E| deltas; GM moves that re-apply backwards restore E
    rng = random.Random(104)
    deltas = {"GB": 1, "GU": -1, "G3": 0, "GM": 0}
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20_000, "random corpus is too thin"
        g = from_process(oracles.random_process(rng))
        for move in moves(g):
            result = apply_move(g, move)
            assert result.current <= g.admissible
            seen = set()
            for edge in result.current:
                assert edge.a not in seen and edge.b not in seen
                seen.update((edge.a, edge.b))
            assert len(result.current) == len(g.current) + deltas[move.rule]
            checked += 1

    # (e) bind-then-unbind is the identity wherever unbind may fire, and the
    #     four-way junction's ring swap is an involution
    rng = random.Random(105)
    verified = 0
    attempts = 0
    while verified < 1000:
        attempts += 1
        assert attempts < 40_000, "random corpus is too thin"
        p = oracles.random_process(rng)
        candidates = [
            (l1, l2)
            for l1, d1 in p.occurrences()
            if d1.toehold and d1.bond is None
            for l2, d2 in p.occurrences()
            if l2 > l1 and d2.bond is None and d1.matches(d2)
        ]
        for a, b in candidates:
            bound = pr.bind(p, a, b)
            fresh = bound.domain_at(a).bond
            if pr.is_anchored(bound, fresh):
                continue  # unbind's premise fails; nothing to verify
            assert pr.unbind(bound, fresh) == p
            verified += 1

    ready = fourway()
    ready = pr.bind(ready, (1, 3), (3, 1))
    ready = pr.bind(ready, (2, 1), (4, 3))
    assert pr.migrate_ring(pr.migrate_ring(ready, ["j1", "j2"]), ["j1", "j2"]) == ready
    gr = from_process(ready)
    swap = {E(1, 2, 2, 2), E(3, 2, 4, 2)}, {E(1, 2, 3, 2), E(2, 2, 4, 2)}
    assert migrate(migrate(gr, *swap), *reversed(swap)).current == gr.current


@criterion(7, "the engines disagree honestly on the isolated-literal case")
def test_criterion_7(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("P\n~P\nQ\n"))
    code = cli.main(["compare", "--input", "-"])
    out = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_DISAGREE == 3
    assert "resolution: UNSAT" in out
    assert "hybridization: SATISFIABLE" in out
    assert "DISAGREE" in " ".join(out)
    named = [line for line in out if "(3,1)" in line]
    assert named and any("Q" in line for line in named)
