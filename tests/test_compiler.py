"""Clause-to-strand compilation, DNA codebooks, and hybridization verdicts."""

import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import time
from collections import Counter
from math import comb, factorial

import pytest

import oracles
from strandprover import compiler as compiler_module
from strandprover import graph as graph_module
from strandprover.compiler import (
    SAT_BY_HYBRIDIZATION,
    UNSAT_BY_HYBRIDIZATION,
    Codebook,
    CodebookError,
    CompileError,
    Verdict,
    clause_process,
    compile_clauses,
    default_codebook,
    format_fasta,
    generate_codebook,
    hamming,
    hybridization_verdict,
    reverse_complement,
)
from strandprover.fixtures import CLAUSES_S, clause_set_s, fourway, hairpin
from strandprover.graph import MAX_STATES, ExplorationLimitError, Site, explore, from_process, sites_of
from strandprover.logic import Clause, ClauseSet, Literal, parse_formula, to_clausal_form
from strandprover.process import Domain, Process, Strand, parse_process

# a hairpin and two four-way junctions, renamed per copy: three components, 22 * 8 * 8 states
HAIRPIN_AND_FOURWAYS = (
    "<t_1^ p_1> | <r_1* q_1* p_1*> | <p_1!y1_1 q_1!z1_1 r_1 q_1*!z1_1 p_1*!y1_1 t_1^*> | "
    "<a_2^!i_2 b_2!j1_2 c_2^*> | <d_2^* b_2*!j1_2 a_2^*!i_2> | <c_2^ b_2*!j2_2 e_2^!k_2> | <e_2^*!k_2 b_2!j2_2 d_2^> | "
    "<a_3^!i_3 b_3!j1_3 c_3^*> | <d_3^* b_3*!j1_3 a_3^*!i_3> | <c_3^ b_3*!j2_3 e_3^!k_3> | <e_3^*!k_3 b_3!j2_3 d_3^>"
)

ROW_1 = "ACGTAGTCACGAATTGACTGTCAGTCGAAT"   # P ~Q R
ROW_2 = "ATGGACCTAGGATCGTGCATATTCGACTGA"   # ~U V ~R


class TestReverseComplement:
    def test_known_pair(self):
        assert reverse_complement("ACGTAGTCAC") == "GTGACTACGT"

    def test_empty(self):
        assert reverse_complement("") == ""

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(200):
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 12)))
            assert reverse_complement(reverse_complement(seq)) == seq

    def test_rejects_non_bases(self):
        with pytest.raises(ValueError):
            reverse_complement("ACGU")


class TestHamming:
    def test_counts_mismatches(self):
        assert hamming("ACGT", "ACGT") == 0
        assert hamming("ACGT", "TCGA") == 2

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            hamming("ACG", "ACGT")


class TestCodebook:
    def test_default_sense_codes(self):
        cb = default_codebook()
        assert cb.lookup(Literal("P")) == "ACGTAGTCAC"
        assert cb.lookup(Literal("Q")) == "CAGTCAATTC"
        assert cb.lookup(Literal("R")) == "TCAGTCGAAT"
        assert cb.lookup(Literal("U")) == "CTAGGTCCAT"
        assert cb.lookup(Literal("V")) == "GATCGTGCAT"

    def test_negated_literals_read_as_reverse_complements(self):
        cb = default_codebook()
        assert cb.lookup(Literal("P", True)) == "GTGACTACGT"
        assert cb.lookup(Literal("V", True)) == "ATGCACGATC"
        for var in cb.variables():
            assert cb.lookup(Literal(var, True)) == reverse_complement(cb.sense(var))

    def test_shape(self):
        cb = default_codebook()
        assert cb.variables() == ("P", "Q", "R", "U", "V")
        assert cb.code_length() == 10
        assert "P" in cb and "Z" not in cb

    def test_missing_variable(self):
        with pytest.raises(CodebookError):
            default_codebook().sense("Z")

    def test_rejects_empty(self):
        with pytest.raises(CodebookError):
            Codebook({})

    def test_rejects_mixed_lengths(self):
        with pytest.raises(CodebookError):
            Codebook({"P": "ACGT", "Q": "ACGTA"})

    def test_rejects_duplicate_codes(self):
        with pytest.raises(CodebookError, match="P and Q share a code"):
            Codebook({"P": "ACGT", "Q": "ACGT"})

    def test_rejects_reverse_complement_collisions(self):
        # Q's code would also spell ~P, collapsing the two variables
        with pytest.raises(CodebookError, match="code for P is the reverse complement of Q's"):
            Codebook({"P": "AACC", "Q": "GGTT"})
        # a code that spells its own reverse complement would give P and ~P
        # the same bases
        for codes in ({"P": "ACGTACGT"}, {"Q": "CAGTCAATTC", "P": "ACGTTAACGT"}):
            with pytest.raises(CodebookError, match="code for P is its own reverse complement"):
                Codebook(codes)

    def test_names_the_defect_a_scan_of_every_pair_names(self):
        # the first code with a defect, with its first later partner: a
        # shared code before a reverse complement at one partner, and both
        # before the code's own reverse complement
        def pairwise(codes):
            entries = [(var, seq, reverse_complement(seq)) for var, seq in codes.items()]
            for i, (v1, s1, rc1) in enumerate(entries):
                for v2, s2, rc2 in entries[i + 1:]:
                    if s1 == s2:
                        return f"{v1} and {v2} share a code"
                    if s1 == rc2:
                        return f"code for {v1} is the reverse complement of {v2}'s"
                if s1 == rc1:
                    return f"code for {v1} is its own reverse complement"
            return None

        rng = random.Random(41)
        kinds = Counter()
        for _ in range(2000):
            # four-base codes from a few words, so most tables hold several defects
            words = ["".join(rng.choice("ACGT") for _ in range(4)) for _ in range(rng.randint(1, 4))]
            words += [reverse_complement(w) for w in words[:rng.randint(0, len(words))]]
            if rng.random() < 0.3:
                half = rng.choice(words)[:2]
                words.append(half + reverse_complement(half))  # its own reverse complement
            codes = {f"x{k}": rng.choice(words) for k in range(rng.randint(1, 6))}
            want = pairwise(codes)
            if want is None:
                assert Codebook(codes).variables() == tuple(sorted(codes))
                kinds["valid"] += 1
                continue
            with pytest.raises(CodebookError) as err:
                Codebook(codes)
            assert str(err.value) == want, codes
            kinds["shared" if "share" in want else "own" if "own" in want else "other's"] += 1
        assert min(kinds.values()) > 100 and len(kinds) == 4, kinds

    def test_rejects_non_bases(self):
        with pytest.raises(CodebookError):
            Codebook({"P": "ACGX"})

    def test_text_round_trip(self):
        cb = default_codebook()
        assert Codebook.from_text(cb.to_text()) == cb

    def test_from_text_accepts_comments_and_case(self):
        cb = Codebook.from_text("# two codes\nP acgtagtcac\nQ CAGTCAATTC\n")
        assert cb.sense("P") == "ACGTAGTCAC"

    def test_from_text_rejects_malformed_lines(self):
        with pytest.raises(CodebookError):
            Codebook.from_text("P ACGT extra\n")

    def test_from_text_rejects_duplicates(self):
        with pytest.raises(CodebookError) as err:
            Codebook.from_text("# codes\nP ACGT\n\nQ AAAA\np CCCC\nP TTTT\n")
        assert str(err.value) == "line 6: duplicate entry for P"


def assert_codes_apart(cb: Codebook) -> None:
    """Every code at least 4 bases from every other code and reverse
    complement, its own reverse complement included."""
    codes = [cb.sense(v) for v in cb.variables()]
    pool = [(k, seq) for k, code in enumerate(codes) for seq in (code, reverse_complement(code))]
    for (i, a), (j, b) in itertools.combinations(pool, 2):
        assert hamming(a, b) >= 4, (codes[i], codes[j])


class TestGenerateCodebook:
    def test_deterministic(self):
        assert generate_codebook(["P", "Q", "R"]) == generate_codebook(["R", "Q", "P", "Q"])

    def test_search_gives_the_pinned_codes(self):
        # pinned: a change to the probes, the word order or to any marked
        # word changes every generated code after it
        cb = generate_codebook(["P", "Q", "R"])
        assert cb.to_text() == "P TACCATTGTC\nQ TCCTCCCCAG\nR ACCAGTGGCC\n"
        many = generate_codebook([f"x{k}" for k in range(1, 101)], base=default_codebook())
        digest = hashlib.sha256(many.to_text().encode()).hexdigest()
        assert digest == "c8a7062cc5c9855923656e1da54f1f44cdf0b2b94b86ceee9993dfac2e4f7ff2"

    def test_two_variables_meet_the_distance(self):
        assert_codes_apart(generate_codebook(["P", "Q"]))

    @pytest.mark.parametrize("count", [40, 200])
    def test_every_code_is_apart_from_every_reverse_complement(self, count):
        cb = generate_codebook([f"x{k}" for k in range(1, count + 1)], base=default_codebook())
        assert len(cb.variables()) == count + 5
        assert_codes_apart(cb)

    def test_infeasible_search_fails(self):
        # the search fails exactly when no word is left: after the five
        # built-in codes, 884 more fit and the 885th does not
        variables = [f"x{k}" for k in range(1, 886)]
        assert len(generate_codebook(variables[:-1], base=default_codebook()).variables()) == 889
        start = time.perf_counter()
        with pytest.raises(CodebookError, match="^no 10-base code left for 'x99'$"):
            generate_codebook(variables, base=default_codebook())
        assert time.perf_counter() - start < 2

    def test_a_base_is_marked_once_and_the_last_code_never(self, monkeypatch):
        # a base's marks are built on the first search from it and copied by
        # each later one, from an equal base too; no search reads the marks of
        # the code it takes last
        taken = []
        take = compiler_module._take
        monkeypatch.setattr(compiler_module, "_take", lambda marked, seq: taken.append(seq) or take(marked, seq))
        compiler_module._marked.cache_clear()
        first = generate_codebook(["x1", "x2"], base=default_codebook())
        assert sorted(taken) == sorted([*default_codebook()._codes.values(), first.sense("x1")])
        taken.clear()
        again = generate_codebook(["x2", "x1"], base=Codebook.from_text(default_codebook().to_text()))
        assert again == first and taken == [first.sense("x1")]

    def test_existing_codes_are_kept(self):
        base = default_codebook()
        cb = generate_codebook(["P", "Z"], base=base)
        assert cb.sense("P") == base.sense("P")
        assert "Z" in cb
        assert_codes_apart(cb)

    def test_base_length_must_agree(self):
        with pytest.raises(CodebookError, match="10 bases"):
            generate_codebook(["Z"], base=Codebook({"P": "ACGTAGTC"}))


class TestCompileClauses:
    def test_six_clause_fixture(self):
        from strandprover.fixtures import CLAUSES_S, THEOREM

        p, compiled = compile_clauses(ClauseSet.parse(CLAUSES_S), default_codebook())
        assert str(p) == THEOREM
        assert [c.bases for c in compiled] == [
            ROW_1,
            ROW_2,
            "CAGTCAATTC",   # Q
            "ATGCACGATC",   # ~V
            "GTGACTACGT",   # ~P
            "CTAGGTCCAT",   # U
        ]

    def test_literal_order_is_the_clause_order(self):
        p, _ = compile_clauses(ClauseSet.parse("R ~Q P\n"), default_codebook())
        assert str(p) == "<R Q* P>"

    def test_single_literal_clause(self):
        p, compiled = compile_clauses(ClauseSet.parse("U\n"), default_codebook())
        assert str(p) == "<U>"
        assert compiled[0].bases == "CTAGGTCCAT"

    def test_strand_shape_tracks_the_clause(self):
        s = ClauseSet.parse("P ~Q R\n~U V\n")
        _, compiled = compile_clauses(s, default_codebook())
        for item in compiled:
            assert len(item.strand) == len(item.clause)
            assert len(item.bases) == len(item.clause) * 10

    def test_no_toeholds_are_emitted(self):
        p, _ = compile_clauses(ClauseSet.parse("P ~Q\nQ\n"), default_codebook())
        assert all(not d.toehold for s in p.strands for d in s.domains)

    def test_empty_clause_rejected(self):
        with pytest.raises(CompileError):
            compile_clauses(ClauseSet([Clause()]), default_codebook())

    def test_unknown_variable_rejected(self):
        with pytest.raises(CodebookError):
            compile_clauses(ClauseSet.parse("Z\n"), default_codebook())


class TestClauseProcess:
    def test_is_the_process_compile_clauses_returns(self):
        s = clause_set_s()
        assert clause_process(s) == compile_clauses(s, default_codebook())[0]
        rng = random.Random(11)
        for _ in range(200):
            s = oracles.random_clause_set(rng, variables=rng.randint(1, 5), clauses=8, max_len=3)
            for r in renderings(rng, s):
                if len(r) and not any(c.is_empty() for c in r):
                    assert clause_process(r) == compile_clauses(r, codebook_for(r))[0], str(r)

    def test_empty_clause_rejected(self):
        with pytest.raises(CompileError):
            clause_process(ClauseSet([Clause([Literal("P")]), Clause()]))

    def test_variables_no_codebook_covers_are_accepted(self):
        s = ClauseSet.parse("Z ~alpha\nx682\n")
        assert str(clause_process(s)) == "<Z alpha*> | <x682>"

    def test_it_is_the_reference_process_field_for_field(self):
        for s in compiled_sets():
            q = oracles.clause_process(s)
            p = clause_process(s)
            assert (p._codes, p._names, p._bonds, p._lengths) == (q._codes, q._names, q._bonds, q._lengths)
            assert "strands" not in vars(p)
            # each copy made before its strands are read
            copies = [
                pickle.loads(pickle.dumps(clause_process(s))),
                copy.deepcopy(clause_process(s)),
                copy.copy(clause_process(s)),
                dataclasses.replace(clause_process(s)),
            ]
            for r in [p, *copies]:
                assert r == q and q == r and hash(r) == hash(q)
                assert (repr(r), str(r), r.bonds()) == (repr(q), str(q), q.bonds()), str(s)
                assert r.strands == q.strands

    def test_an_empty_clause_is_refused_as_the_reference_refuses_it(self):
        s = ClauseSet([Clause([Literal("P")]), Clause(), Clause([Literal("Q", True)])])
        for compile_ in (clause_process, oracles.clause_process):
            with pytest.raises(CompileError, match="^the empty clause has no strand image$"):
                compile_(s)

    @pytest.mark.parametrize("how", ["parse", "from_dimacs", "to_clausal_form"])
    def test_no_literal_clause_domain_or_strand_is_built_on_the_way_to_a_verdict(self, monkeypatch, how):
        rng = random.Random(43)
        text = "p cnf 30 120\n" + "".join(
            " ".join(str(v if rng.random() < 0.5 else -v) for v in rng.sample(range(1, 31), 3)) + " 0\n"
            for _ in range(120)
        )
        s = ClauseSet.from_dimacs(text)
        lines, formula = str(s), " & ".join("(" + " | ".join(map(_literal_text, c)) + ")" for c in s)
        read = {
            "parse": lambda: ClauseSet.parse(lines),
            "from_dimacs": lambda: ClauseSet.from_dimacs(text),
            "to_clausal_form": lambda: to_clausal_form(parse_formula(formula)),
        }[how]
        built = Counter()

        def counting(name, make):
            def counted(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return counted

        for kind in (Literal, Domain):
            monkeypatch.setattr(kind, "__new__", staticmethod(counting(kind.__name__, kind.__new__)))
            monkeypatch.setattr(kind, "_make", classmethod(counting(kind.__name__, kind._make.__func__)))
        for kind in (Clause, Strand):
            monkeypatch.setattr(kind, "__init__", counting(kind.__name__, kind.__init__))
        verdict = hybridization_verdict(clause_process(read()))
        assert built == Counter()
        assert "edges" not in verdict.graph._index.__dict__
        monkeypatch.undo()
        assert verdict == hybridization_verdict(oracles.clause_process(read()))


def compiled_sets() -> list[ClauseSet]:
    """Fixture S, two hand-written sets and 300 seeded ones, built through
    ClauseSet(Clause...), parse, from_dimacs and to_clausal_form."""
    rng = random.Random(43)
    sets = [clause_set_s(), ClauseSet.parse("Z ~alpha\nx682\n"), ClauseSet()]
    while len(sets) < 303:
        s = oracles.random_clause_set(rng, variables=rng.randint(1, 5), clauses=8, max_len=3)
        sets += [s, *renderings(rng, s)]
    return sets


class TestFormatFasta:
    def test_fixture_rendering(self):
        from strandprover.fixtures import CLAUSES_S

        _, compiled = compile_clauses(ClauseSet.parse(CLAUSES_S), default_codebook())
        text = format_fasta(compiled)
        assert text.splitlines()[:4] == [
            ">clause 1: P ~Q R",
            ROW_1,
            ">clause 2: ~U V ~R",
            ROW_2,
        ]


class TestHybridizationVerdict:
    def test_fixture_reaches_the_complete_duplex(self):
        from strandprover.fixtures import clause_set_s

        p, _ = compile_clauses(clause_set_s(), default_codebook())
        verdict = hybridization_verdict(p)
        assert verdict.outcome == UNSAT_BY_HYBRIDIZATION
        assert verdict.is_unsat
        assert verdict.free_sites == frozenset()
        assert [m.rule for m in verdict.witness.moves] == ["GB"] * 5
        assert verdict.witness.replay(verdict.graph) == verdict.graph.admissible

    def test_single_positive_unit_stays_free(self):
        p, _ = compile_clauses(ClauseSet.parse("P\n"), default_codebook())
        verdict = hybridization_verdict(p)
        assert verdict.outcome == SAT_BY_HYBRIDIZATION
        assert verdict.free_sites == {Site(1, 1)}

    def test_divergence_case_leaves_the_isolated_unit_free(self):
        p, _ = compile_clauses(ClauseSet.parse("P\n~P\nQ\n"), default_codebook())
        verdict = hybridization_verdict(p)
        assert verdict.outcome == SAT_BY_HYBRIDIZATION
        assert verdict.free_sites == {Site(3, 1)}

    def test_outcome_matches_free_sites(self):
        rng = random.Random(29)
        for _ in range(200):
            s = oracles.random_clause_set(rng, variables=3, clauses=4, max_len=2)
            if any(c.is_empty() for c in s):
                continue
            p, _ = compile_clauses(s, default_codebook())
            verdict = hybridization_verdict(p)
            assert verdict.is_unsat == (not verdict.free_sites)
            if verdict.is_unsat:
                # a perfect matching needs balanced positive/negative counts
                for var in s.variables():
                    pos = sum(
                        lit == Literal(var) for c in s for lit in c
                    )
                    neg = sum(
                        lit == Literal(var, True) for c in s for lit in c
                    )
                    assert pos == neg

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            hybridization_verdict(Process(()))

    def test_exploration_limits_propagate(self):
        # toeholds and bonds: the hairpin cascade is explored, under the budget
        with pytest.raises(ExplorationLimitError):
            hybridization_verdict(hairpin(), max_states=2)

    def test_bind_only_fixture_decides_under_any_budget(self):
        p, _ = compile_clauses(clause_set_s(), default_codebook())
        assert hybridization_verdict(p, max_states=2) == hybridization_verdict(p)

    @pytest.mark.parametrize("text, outcome", [
        (HAIRPIN_AND_FOURWAYS, SAT_BY_HYBRIDIZATION),
        ("<a!x b> | <b* c a*!x> | <c*>", UNSAT_BY_HYBRIDIZATION),
    ], ids=["1408-states-none-terminal", "fully-bound-at-depth-2"])
    def test_explore_path_decodes_only_the_states_it_returns(self, monkeypatch, text, outcome):
        """Sizes are read off the state bitmasks: only the witness's first
        and last states are decoded into edge sets."""
        decoded = []
        edges_of = graph_module._edges_of

        def counted(edges, mask):
            decoded.append(mask)
            return edges_of(edges, mask)

        p = parse_process(text)
        monkeypatch.setattr(graph_module, "_edges_of", counted)
        verdict = hybridization_verdict(p)
        assert len(decoded) == 2
        monkeypatch.undo()
        assert verdict.outcome == outcome
        assert verdict == explored_verdict(p, MAX_STATES)
        assert verdict.witness.replay(verdict.graph) == verdict.witness.final

    @pytest.mark.parametrize("bounds", [{"max_states": 0}, {"max_states": -1}])
    def test_non_positive_bounds_are_rejected_on_both_paths(self, bounds):
        compiled, _ = compile_clauses(clause_set_s(), default_codebook())
        for p in (compiled, hairpin()):
            with pytest.raises(ValueError, match="exploration bounds must be positive"):
                hybridization_verdict(p, **bounds)


def explored_verdict(p: Process, max_states: int) -> Verdict:
    """The verdict by breadth-first exploration: the first fully bound state,
    else the earliest terminal of largest |E|.  Reference for the closed form."""
    g = from_process(p)
    all_sites = frozenset(g.sites())
    report = explore(g, max_states=max_states)
    for i, edges in enumerate(report.states):
        if sites_of(edges) == all_sites:
            return Verdict(UNSAT_BY_HYBRIDIZATION, report.trace_to(i), frozenset(), g)
    pool = report.terminals if report.terminals else range(len(report.states))
    best = max(pool, key=lambda i: (len(report.states[i]), -i))
    free = all_sites - sites_of(report.states[best])
    return Verdict(SAT_BY_HYBRIDIZATION, report.trace_to(best), free, g)


def assert_same_binding(verdict: Verdict, explored: Verdict) -> None:
    """Equal outcome, UNSAT witness and free-site labels; a SAT witness may end
    in another largest binding, but it replays and has the explored |E|."""
    if explored.is_unsat:
        assert verdict == explored
        return
    assert verdict.outcome == explored.outcome
    labels = [Counter(map(v.graph.label, v.free_sites)) for v in (verdict, explored)]
    assert labels[0] == labels[1]
    assert len(verdict.witness.replay(verdict.graph)) == len(explored.witness.final)


def _literal_text(lit: Literal) -> str:
    return ("~" if lit.negated else "") + lit.variable


def renderings(rng: random.Random, s: ClauseSet) -> list[ClauseSet]:
    """s read back from clause lines, from DIMACS and from a formula mixing
    disjunctions and implications, as the CLI reads each kind of input."""
    number = {var: k for k, var in enumerate(s.variables(), start=1)}
    dimacs = f"p cnf {len(number)} {len(s)}\n" + "".join(
        " ".join(str(-number[lit.variable] if lit.negated else number[lit.variable]) for lit in c) + " 0\n"
        for c in s
    )
    conjuncts = []
    for c in s:
        lits = list(c)
        if len(lits) > 1 and rng.random() < 0.5:
            premise = " & ".join(_literal_text(lit.complement()) for lit in lits[:-1])
            conjuncts.append(f"(({premise}) -> {_literal_text(lits[-1])})")
        else:
            conjuncts.append("(" + " | ".join(map(_literal_text, lits)) + ")")
    formula = to_clausal_form(parse_formula(" & ".join(conjuncts)))
    return [ClauseSet.parse(str(s)), ClauseSet.from_dimacs(dimacs), formula]


def codebook_for(s: ClauseSet) -> Codebook:
    base = default_codebook()
    missing = [var for var in s.variables() if var not in base]
    return generate_codebook(missing, base=base) if missing else base


def reachable_states(s: ClauseSet) -> int:
    """Matchings of the compiled admissible graph: complete bipartite per name."""
    counts = Counter((lit.variable, lit.negated) for c in s for lit in c)
    total = 1
    for var in s.variables():
        plain, starred = counts[var, False], counts[var, True]
        total *= sum(comb(plain, k) * comb(starred, k) * factorial(k) for k in range(min(plain, starred) + 1))
    return total


def largest_matching(s: ClauseSet) -> int:
    counts = Counter((lit.variable, lit.negated) for c in s for lit in c)
    return sum(min(counts[var, False], counts[var, True]) for var in s.variables())


class TestClosedForm:
    def test_equals_exploration_on_a_seeded_corpus(self):
        rng = random.Random(7)
        compared = 0
        kinds = Counter()
        while compared < 1500:
            s = oracles.random_clause_set(rng, variables=rng.randint(1, 4), clauses=5, max_len=3)
            for r in renderings(rng, s):
                if not len(r) or any(c.is_empty() for c in r):
                    continue  # a formula can reduce to no clause at all
                p = clause_process(r)
                verdict, explored = hybridization_verdict(p), explored_verdict(p, max_states=2000)
                anchored = any(verdict.graph._index.anchors)
                if anchored:
                    assert_same_binding(verdict, explored)
                    kinds["another binding"] += verdict != explored
                else:
                    assert verdict == explored, str(r)
                compared += 1
                kinds["anchored " * anchored + explored.outcome] += 1
        assert len(kinds) == 5 and min(kinds.values()) > 0, kinds

    def test_the_witness_is_the_reference_binding_trace(self):
        kinds = Counter()
        for s in compiled_sets():
            if not len(s):
                continue
            verdict = hybridization_verdict(clause_process(s))
            g = from_process(oracles.clause_process(s))
            assert verdict.witness == oracles.binding_trace(g), str(s)
            assert verdict.graph == g
            kinds[verdict.outcome] += 1
        assert min(kinds.values()) > 10, kinds

    def test_only_toehold_or_bond_processes_explore(self, monkeypatch):
        def no_exploring(*args, **kwargs):
            raise AssertionError("explored")

        monkeypatch.setattr("strandprover.compiler.explore", no_exploring)
        # P-P* beside Q-Q* anchors each other, so G3 could fire: the closed form
        # holds all the same
        for text in (CLAUSES_S, "P\n", "P\n~P\nQ\n", "P ~Q R\n~P Q ~R\n", "P Q\n~Q ~P\n"):
            hybridization_verdict(clause_process(ClauseSet.parse(text)))
        # a toehold label meeting its complement could unbind (GU), anchored or
        # not, and a bond is a current edge
        for p in (parse_process("<a^> | <a^*>"), parse_process("<b a^> | <c a^*>"), hairpin(), fourway()):
            with pytest.raises(AssertionError, match="explored"):
                hybridization_verdict(p)
        hybridization_verdict(parse_process("<a^ b> | <b*>"))  # a^ meets no a^*

    def test_bond_and_toehold_free_processes_are_decided_without_exploring(self, monkeypatch):
        def no_exploring(*args, **kwargs):
            raise AssertionError("explored")

        monkeypatch.setattr("strandprover.compiler.explore", no_exploring)
        rng = random.Random(23)
        kinds = Counter()
        while kinds["anchored"] < 30:
            p = oracles.random_process(rng, strands=4, max_len=4, bond_fraction=0.0)
            if any(from_process(p)._index.toeholds):
                continue
            try:
                explored = explored_verdict(p, max_states=2000)
            except ExplorationLimitError:
                kinds["skipped"] += 1
                continue
            verdict = hybridization_verdict(p)
            assert verdict.outcome == explored.outcome
            assert len(verdict.free_sites) == len(explored.free_sites)
            assert len(verdict.witness.replay(verdict.graph)) == len(explored.witness.final)
            kinds[verdict.outcome] += 1
            kinds["anchored"] += any(verdict.graph._index.anchors)
        assert kinds["skipped"] < 10 and kinds[UNSAT_BY_HYBRIDIZATION] > 0, kinds

    @pytest.mark.parametrize("size", [12, 15, 23])
    def test_sets_beyond_the_state_budget_are_decided(self, size):
        rng = random.Random(0)
        names = ("P", "Q", "R", "U", "V")
        clauses: dict[Clause, None] = {}
        while len(clauses) < size:
            # literals in name order, as in the bench's inputs: no anchored pair
            picked = sorted(rng.sample(names, rng.randint(1, 3)))
            clauses[Clause(Literal(var, rng.random() < 0.5) for var in picked)] = None
        s = ClauseSet(clauses)
        assert reachable_states(s) > 50_000
        verdict = hybridization_verdict(clause_process(s))
        assert len(verdict.witness.replay(verdict.graph)) == largest_matching(s)
        assert len(verdict.free_sites) == sum(map(len, s)) - 2 * largest_matching(s)

    def test_more_binds_than_the_depth_budget(self):
        names = [f"x{k}" for k in range(1, 202)]
        s = ClauseSet(Clause([Literal(var, negated)]) for var in names for negated in (False, True))
        verdict = hybridization_verdict(clause_process(s))
        assert verdict.is_unsat
        assert len(verdict.witness.moves) == 201 > 200
        assert len(verdict.witness.replay(verdict.graph)) == largest_matching(s) == 201
