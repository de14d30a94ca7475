"""Binary resolution, the bucket elimination loop, its certificates, and deduction rendering."""

import hashlib
import itertools
import random
import sys
import time
import types

import pytest

import oracles
from strandprover.logic import Clause, ClauseSet, Literal, Not, Var, parse_formula, to_clausal_form
from strandprover.resolution import (
    SATURATED,
    UNSAT,
    DeductionStep,
    RefutationResult,
    ResourceLimitError,
    refute,
    render_deduction,
    resolve_pair,
)


def C(text: str) -> Clause:
    return Clause.parse(text)


def random_3cnf(rng: random.Random, variables: int, ratio: float) -> ClauseSet:
    """round(variables * ratio) clauses over three distinct variables each."""
    names = [f"x{v}" for v in range(1, variables + 1)]
    return ClauseSet(
        Clause(Literal(name, rng.random() < 0.5) for name in rng.sample(names, 3))
        for _ in range(round(variables * ratio))
    )


def pinned_corpus():
    """(clause set, goal) pairs whose refutations are pinned by a digest."""
    from strandprover.fixtures import clause_set_s

    rng = random.Random(2024)
    for variables in range(1, 7):
        for _ in range(150):
            yield oracles.random_clause_set(rng, variables=variables, clauses=9, max_len=4), None
    for variables in (5, 6):
        for ratio in (4.3, 6.0):
            for _ in range(3):
                yield random_3cnf(rng, variables, ratio), None
    for goal in (None, "P", "~U | R", "Q -> V", "P & ~P"):
        yield clause_set_s(), None if goal is None else parse_formula(goal)


class TestResolvePair:
    def test_unit_against_binary(self):
        assert resolve_pair(C("P"), C("~P Q")) == {(C("Q"), Literal("P"))}

    def test_pivot_reported_from_first_clause(self):
        assert resolve_pair(C("~Q R"), C("~P Q ~S")) == {
            (C("R ~P ~S"), Literal("Q", True))
        }

    def test_no_complementary_pair(self):
        assert resolve_pair(C("~R S"), C("~R Q T")) == set()

    def test_complementary_units_give_empty_clause(self):
        assert resolve_pair(C("P"), C("~P")) == {(Clause(), Literal("P"))}

    def test_two_pivots_give_two_resolvents(self):
        out = resolve_pair(C("P Q"), C("~P ~Q"))
        assert out == {
            (C("Q ~Q"), Literal("P")),
            (C("P ~P"), Literal("Q")),
        }
        assert all(oracles.is_tautology(clause) for clause, _ in out)

    def test_duplicate_literals_merge(self):
        assert resolve_pair(C("P R"), C("~P R")) == {(C("R"), Literal("P"))}

    def test_resolvents_are_consequences(self):
        rng = random.Random(5)
        for _ in range(300):
            c1 = oracles.random_clause(rng)
            c2 = oracles.random_clause(rng)
            for resolvent, pivot in resolve_pair(c1, c2):
                assert pivot in c1 and pivot.complement() in c2
                assert oracles.is_consequence([c1, c2], resolvent)


class TestRefute:
    def test_six_clause_fixture_is_refuted(self):
        from strandprover.fixtures import clause_set_s

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

    def test_fixture_trace_is_deterministic(self):
        from strandprover.fixtures import clause_set_s

        first = refute(clause_set_s()).trace_lines()
        second = refute(clause_set_s()).trace_lines()
        assert first == second

    def test_single_positive_unit_saturates(self):
        result = refute(ClauseSet.parse("P\n"))
        assert result.verdict == SATURATED
        assert not result.is_unsat

    def test_complementary_units_one_step(self):
        result = refute(ClauseSet.parse("P\n~P\n"))
        assert result.verdict == UNSAT
        assert len([s for s in result.steps if s.parents is not None]) == 1

    def test_empty_clause_in_input(self):
        result = refute(ClauseSet([Clause()]))
        assert result.verdict == UNSAT
        assert result.trace_lines() == ["0: {} [input]"]

    def test_empty_clause_set_rejected(self):
        with pytest.raises(ValueError):
            refute(ClauseSet([]))

    def test_goal_is_negated_and_added(self):
        result = refute(ClauseSet.parse("P\n"), goal=Var("P"))
        assert result.verdict == UNSAT
        assert result.trace_lines() == [
            "0: {P} [input]",
            "1: {~P} [input]",
            "2: {} [0 ⊗ 1 on P]",
        ]

    def test_goal_via_modus_ponens(self):
        result = refute(ClauseSet.parse("~P Q\nP\n"), goal=parse_formula("Q"))
        assert result.verdict == UNSAT

    def test_unreachable_goal_saturates(self):
        result = refute(ClauseSet.parse("P\n"), goal=parse_formula("Q"))
        assert result.verdict == SATURATED

    def test_step_invariants(self):
        from strandprover.fixtures import clause_set_s

        result = refute(clause_set_s())
        for index, step in enumerate(result.steps):
            assert step.index == index
            if step.parents is not None:
                i, j = step.parents
                assert i < index and j < index
                assert step.pivot in result.steps[i].clause
                assert step.pivot.complement() in result.steps[j].clause

    def test_tautologies_are_dropped(self):
        # {P, ~P} contributes nothing; the rest saturates without it
        result = refute(ClauseSet.parse("P ~P\nQ\n"))
        assert result.verdict == SATURATED
        assert all(not oracles.is_tautology(s.clause) for s in result.steps)

    def test_subsumed_resolvents_are_not_admitted(self):
        result = refute(ClauseSet.parse("P Q\n~P Q\nQ R\n"))
        assert result.verdict == SATURATED
        clauses = [s.clause for s in result.steps]
        for k, clause in enumerate(clauses):
            for other in clauses[:k]:
                assert not oracles.subsumes(other, clause)

    def test_clause_budget_is_enforced(self):
        wide = ClauseSet.parse(
            "\n".join(
                " ".join(f"{'~' if (k >> b) & 1 else ''}x{b}" for b in range(4))
                for k in range(16)
            )
        )
        with pytest.raises(ResourceLimitError):
            refute(wide, max_clauses=20)

    def test_time_budget_is_enforced(self):
        with pytest.raises(ResourceLimitError):
            refute(ClauseSet.parse("P Q\n~P Q\nP ~Q\n~P ~Q\n"), max_seconds=0.0)

    def test_clause_budget_message_says_how_far_it_got(self):
        # the inputs fill the budget; the first resolvent, {P, Q} on R, overflows it
        wide = ClauseSet.parse("P Q R\n~P Q R\nP ~Q R\nP Q ~R\n")
        assert refute(wide).verdict == SATURATED
        with pytest.raises(ResourceLimitError) as info:
            refute(wide, max_clauses=4)
        assert str(info.value) == "clause budget of 4 exhausted at variable R with 4 clauses retained"

    def test_time_budget_is_checked_during_admission(self, monkeypatch):
        # the six inputs are admitted first, and then bucket R, the first one
        # eliminated, yields two resolvents, {P} and {Q}; on a clock that
        # passes the deadline at its k-th read, some k stops the search before
        # each input and after {P} is retained and before {Q} is: the search
        # can stop before each clause it admits, with the count it reached
        from strandprover import resolution

        s = ClauseSet.parse("P R\nQ R\n~R\n~P ~Q\n~P Q\nP ~Q\n")
        stops = []
        for k in itertools.count(1):
            reads = itertools.count(1)
            clock = types.SimpleNamespace(monotonic=lambda: 1e9 if next(reads) > k else 0.0)
            monkeypatch.setattr(resolution, "time", clock)
            try:
                result = refute(s, max_seconds=10.0)
            except ResourceLimitError as exc:
                stops.append(str(exc))
            else:
                break
        assert result.is_unsat
        assert list(dict.fromkeys(stops)) == [
            f"time budget exhausted at variable {variable} with {retained} clauses retained"
            for variable, retained in [("R", k) for k in range(8)] + [("Q", 8), ("P", 9)]
        ]

    def test_the_deadline_starts_before_the_goal_is_converted(self, monkeypatch):
        # max_seconds covers all of refute's work: the goal's clausal form,
        # the tautology drop and the sort come after the first clock read
        from strandprover import resolution

        events = []

        def now():
            events.append("clock")
            return 0.0

        def converted(f):
            events.append("goal")
            return to_clausal_form(f)

        monkeypatch.setattr(resolution, "time", types.SimpleNamespace(monotonic=now))
        monkeypatch.setattr(resolution, "to_clausal_form", converted)
        result = refute(ClauseSet.parse("P Q\n~Q\n"), goal=Var("P"), max_seconds=1.0)
        assert result.is_unsat
        assert events[:2] == ["clock", "goal"]

    def test_time_budget_is_checked_while_candidates_are_built(self, monkeypatch):
        # bucket Z, the first one eliminated, resolves twelve clauses {Ak, Z}
        # with twelve {~Z, Bk} into 144 candidates; on a clock that counts the
        # lines run in the resolution module, the search must stop within 100
        # lines of its deadline wherever the deadline falls: while the inputs
        # are admitted, while partners are paired, while the candidates are
        # built, and while they are admitted
        from strandprover import resolution

        lines = [0]
        reads: list[int] = []  # the line count at each clock read

        def count_lines(frame, event, arg):
            if event == "line":
                lines[0] += 1
            return count_lines

        def trace(frame, event, arg):
            return count_lines if frame.f_code.co_filename == resolution.__file__ else None

        def now():
            reads.append(lines[0])
            return lines[0]

        monkeypatch.setattr(resolution, "time", types.SimpleNamespace(monotonic=now))
        s = ClauseSet.parse("\n".join([f"A{k} Z" for k in range(12)] + [f"~Z B{k}" for k in range(12)]))
        overruns = []
        for budget in itertools.count(0, 53):
            lines[0] = 0
            reads.clear()
            sys.settrace(trace)
            try:
                refute(s, max_seconds=budget)
            except ResourceLimitError:
                overruns.append(reads[-1] - (reads[0] + budget))
            else:
                break
            finally:
                sys.settrace(None)
        assert len(overruns) > 100
        assert max(overruns) <= 100

    def test_input_edge_cases(self):
        # Z occurs only in the tautology, which is dropped, so Z is never named
        # and R is the largest variable: the inputs fill a budget of 3, and
        # bucket R's resolvent {~Q} fills a budget of 4
        s = ClauseSet.parse("P ~P Z\nP Q\n~Q R\n~R\n")
        for budget, variable in ((3, "R"), (4, "Q")):
            with pytest.raises(ResourceLimitError) as info:
                refute(s, max_clauses=budget)
            assert str(info.value) == (
                f"clause budget of {budget} exhausted at variable {variable} with {budget} clauses retained"
            )
        result = refute(s)
        assert result.verdict == SATURATED
        assert [step.clause for step in result.steps if step.is_input] == [C("P Q"), C("~Q R"), C("~R")]
        assert all(lit.variable != "Z" for step in result.steps for lit in step.clause)

        # a goal that repeats an input adds no step, and the input steps are the
        # caller's clauses in their written order, not the goal's sorted one
        s = ClauseSet([C("P"), C("~Q ~P"), C("Q R"), C("~R")])
        result = refute(s, goal=parse_formula("P & Q"))
        assert result.trace_lines() == refute(s).trace_lines()
        assert "{~Q, ~P} [input]" in " ".join(result.trace_lines())
        for step in result.steps:
            if step.is_input:
                assert any(step.clause is clause for clause in s)

        # {} sorts first, so it is the whole refutation whatever else is given
        empty = Clause()
        result = refute(ClauseSet([C("P Q"), C("Z ~Z"), empty, C("~P")]), goal=Var("P"))
        assert result.trace_lines() == ["0: {} [input]"]
        assert result.steps[0].clause is empty and result.empty_step == 0

    def test_steps_are_built_when_first_read(self, monkeypatch):
        # a caller that reads only the verdict, as compare does, builds no
        # step; the steps, once read, are those of an eager result, and a
        # result pickles and copies whether or not they were read
        import copy
        import pickle

        from strandprover import resolution

        built = []

        def counted(*args):
            built.append(args[0])
            return DeductionStep(*args)

        texts = ("P Q\n~P Q\nP ~Q\n~P ~Q\n", "P Q\n~Q R\n~R\n")
        monkeypatch.setattr(resolution, "DeductionStep", counted)
        for text in texts:
            result = refute(ClauseSet.parse(text))
            assert result.verdict in (UNSAT, SATURATED) and not built
            assert built == [] and result.steps is result.steps
            assert built == list(range(len(result.steps)))
            built.clear()
        monkeypatch.undo()
        for text in texts:
            result = refute(ClauseSet.parse(text))
            assert pickle.loads(pickle.dumps(result)) == copy.copy(result) == result
            eager = RefutationResult(result.verdict, tuple(result.steps), result.empty_step)
            assert result == eager and repr(result) == repr(eager) and hash(result) == hash(eager)
        with pytest.raises(AttributeError, match="'RefutationResult' object has no attribute 'stepz'"):
            refute(ClauseSet.parse("P\n")).stepz

    def test_step_lists_are_pinned_on_a_seeded_corpus(self):
        # trace lines, stored literal order and the empty step reach the CLI's
        # output, so they must not drift; the digest was recorded from the
        # bucket elimination loop
        digest = hashlib.sha256()
        for s, goal in pinned_corpus():
            result = refute(s, goal)
            digest.update(repr((
                result.verdict,
                result.trace_lines(),
                [[(lit.variable, lit.negated) for lit in step.clause.literals] for step in result.steps],
                result.empty_step,
            )).encode() + b"\n")
        assert digest.hexdigest() == "28d609c0568684521b3ba7ec4933794cc7ad36627291992443e94e8420e12413"

    def test_resolvents_are_those_of_resolve_pair(self):
        for s, goal in pinned_corpus():
            steps = refute(s, goal).steps
            for step in steps:
                if step.parents is None:
                    continue
                i, j = step.parents
                assert i < j < step.index
                assert (step.clause.literals, step.pivot) in {
                    (clause.literals, pivot) for clause, pivot in resolve_pair(steps[i].clause, steps[j].clause)
                }

    def test_agrees_with_truth_table_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            s = oracles.random_clause_set(rng, variables=4, clauses=8)
            result = refute(s)
            assert result.is_unsat == (not oracles.clause_set_satisfiable(s))


class TestCertificates:
    """Every verdict checked by the oracles' step checker and model builder,
    which share no code with refute."""

    @staticmethod
    def inputs(s, goal):
        return s if goal is None else s.union(to_clausal_form(Not(goal)))

    def test_every_pinned_verdict_carries_a_certificate(self):
        verdicts = {UNSAT: 0, SATURATED: 0}
        for s, goal in pinned_corpus():
            result = refute(s, goal)
            oracles.check_certificate(self.inputs(s, goal), result)
            verdicts[result.verdict] += 1
        assert verdicts == {UNSAT: 207, SATURATED: 710}

    def test_random_3cnf_at_14_variables_is_decided(self):
        # near the 3-CNF satisfiability threshold; each must be decided within
        # the default budgets
        rng = random.Random(14)
        for _ in range(5):
            s = random_3cnf(rng, 14, 4.3)
            oracles.check_certificate(s, refute(s))

    def test_goal_eliminated_last_is_decided_past_a_14_variable_3cnf(self):
        # A sorts before every x, so its bucket is eliminated last, after the
        # whole 3-CNF, although {A} and {~A} alone give {}
        rng = random.Random(1960)
        for _ in range(3):
            s = random_3cnf(rng, 14, 4.3).union(ClauseSet([C("A")]))
            result = refute(s, Var("A"))
            assert result.is_unsat
            oracles.check_certificate(self.inputs(s, Var("A")), result)

    def test_checkers_reject_a_broken_certificate(self):
        from strandprover.fixtures import clause_set_s

        s = clause_set_s()
        result = refute(s)
        last = result.steps[-1]
        wrong = DeductionStep(last.index, C("P"), last.parents, last.pivot)
        broken = RefutationResult(UNSAT, result.steps[:-1] + (wrong,), last.index)
        with pytest.raises(AssertionError):
            oracles.check_refutation(s, broken)
        with pytest.raises(AssertionError):
            oracles.check_refutation(ClauseSet(s.clauses[1:]), result)
        with pytest.raises(AssertionError):
            oracles.saturation_model([C("P"), C("~P")], ["P"])


class TestRenderDeduction:
    def test_fixture_tree_has_root_and_six_leaves(self):
        from strandprover.fixtures import clause_set_s

        text = render_deduction(refute(clause_set_s()))
        lines = text.splitlines()
        assert lines[0].startswith("{}")
        assert sum("[input]" in line for line in lines) == 6

    def test_unit_conflict_tree(self):
        text = render_deduction(refute(ClauseSet.parse("P\n~P\n")))
        assert text.splitlines() == [
            "{}  [0 ⊗ 1 on P]",
            "  {P}  [input]",
            "  {~P}  [input]",
        ]

    def test_saturated_result_is_rejected(self):
        with pytest.raises(ValueError):
            render_deduction(refute(ClauseSet.parse("P\n")))

    def test_deep_chain_renders_without_recursion(self):
        # {} resolves {x1} against {~x1}; each {xk} resolves {x(k+1)}
        # against {~x(k+1) xk}, down to the input {x5000}
        depth = 5000
        steps = [DeductionStep(0, C(f"x{depth}"))]
        for k in range(depth - 1, -1, -1):
            side = C(f"~x{k + 1} x{k}") if k else C("~x1")
            steps.append(DeductionStep(len(steps), side))
            steps.append(DeductionStep(len(steps), C(f"x{k}") if k else Clause(),
                                       (len(steps) - 2, len(steps) - 1), Literal(f"x{k + 1}")))
        result = RefutationResult(UNSAT, tuple(steps), empty_step=len(steps) - 1)
        lines = render_deduction(result).splitlines()
        assert len(lines) == 2 * depth + 1
        assert lines[0] == f"{{}}  [{2 * depth - 2} ⊗ {2 * depth - 1} on x1]"
        assert lines[1] == "  {x1}  " + f"[{2 * depth - 4} ⊗ {2 * depth - 3} on x2]"
        # the chain of first parents comes first, then the side inputs bottom-up
        assert lines[depth] == "  " * depth + f"{{x{depth}}}  [input]"
        assert lines[depth + 1] == "  " * depth + f"{{~x{depth}, x{depth - 1}}}  [input]"
        assert lines[-1] == "  {~x1}  [input]"


class TestTextbookReplay:
    """The fixture's refutation replayed pair-by-pair in its classical
    presentation order: the two width-3 clauses are each resolved against a
    negated unit, the two results against each other, then two more unit
    resolutions reach {}."""

    def test_replay_reaches_empty_clause(self):
        s = [C("P ~Q R"), C("~U V ~R"), C("Q"), C("~V"), C("~P"), C("U")]
        r7 = (C("P R"), Literal("Q", True))
        r8 = (C("~U ~R"), Literal("V"))
        r9 = (C("P ~U"), Literal("R"))
        r10 = (C("~U"), Literal("P"))
        r11 = (Clause(), Literal("U", True))
        assert r7 in resolve_pair(s[0], s[2])
        assert r8 in resolve_pair(s[1], s[3])
        assert r9 in resolve_pair(r7[0], r8[0])
        assert r10 in resolve_pair(r9[0], s[4])
        assert r11 in resolve_pair(r10[0], s[5])

    def test_replay_renders_as_a_depth_five_tree(self):
        s = [C("P ~Q R"), C("~U V ~R"), C("Q"), C("~V"), C("~P"), C("U")]
        steps = [DeductionStep(k, clause) for k, clause in enumerate(s)]
        chain = [
            (C("P R"), (0, 2), Literal("Q", True)),
            (C("~U ~R"), (1, 3), Literal("V")),
            (C("P ~U"), (6, 7), Literal("R")),
            (C("~U"), (8, 4), Literal("P")),
            (Clause(), (9, 5), Literal("U", True)),
        ]
        for clause, parents, pivot in chain:
            steps.append(DeductionStep(len(steps), clause, parents, pivot))
        result = RefutationResult(UNSAT, tuple(steps), empty_step=10)
        text = render_deduction(result)
        lines = text.splitlines()
        assert lines[0].startswith("{}")
        assert sum("[input]" in line for line in lines) == 6
        depth = max((len(line) - len(line.lstrip())) // 2 for line in lines)
        assert depth == 4  # five levels: {} at the root, inputs at the deepest
