"""Binary resolution, the conflict-driven search, its certificates, and deduction rendering."""

import copy
import hashlib
import io
import itertools
import json
import pickle
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
        # {P, ~P} contributes nothing; the rest is satisfiable without it
        result = refute(ClauseSet.parse("P ~P\nQ\n"))
        assert result.verdict == SATURATED
        assert all(not oracles.is_tautology(s.clause) for s in result.steps)

    def test_satisfiable_input_ends_with_a_model(self):
        # decisions go in name order while no conflict has raised an
        # activity, each to its negative literal first: ~P makes {P, Q} a
        # unit, Q follows, and ~R is decided; no conflict, so no resolvent
        s = ClauseSet.parse("P Q\n~P Q\nQ R\n")
        result = refute(s)
        assert result.verdict == SATURATED and result.empty_step is None
        assert result.model == (Literal("P", True), Literal("Q"), Literal("R", True))
        assert result.trace_lines() == ["0: {P, Q} [input]", "1: {~P, Q} [input]", "2: {Q, R} [input]"]
        oracles.check_model(s, result.model)
        assert refute(ClauseSet.parse("P\n~P\n")).model is None

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
        # the four inputs, then the learned unit {P} on Q (conflict 1), then
        # {~P} and {} at level 0 (conflict 2): each budget stops the search
        # at the step that would pass it
        s = ClauseSet.parse("P Q\nP ~Q\n~P Q\n~P ~Q\n")
        assert len(refute(s, max_clauses=7).steps) == 7
        for budget, conflicts in ((3, 0), (4, 1), (5, 2), (6, 2)):
            with pytest.raises(ResourceLimitError) as info:
                refute(s, max_clauses=budget)
            assert str(info.value) == (
                f"clause budget of {budget} exhausted after {conflicts} conflicts with {budget} steps logged"
            )

    def test_time_budget_is_checked_throughout_the_search(self, monkeypatch):
        # ~P is decided and {P, Q} makes Q true, so {P, ~Q} conflicts
        # (conflict 1): it resolves with {P, Q} into the learned unit {P}.
        # At level 0, P and then Q make {~P, ~Q} conflict (conflict 2),
        # which resolves with {~P, Q} and {P} down to {}.  On a clock that
        # passes the deadline at its k-th read, some k stops the search at
        # every stage, with the counts it reached
        from strandprover import resolution

        s = ClauseSet.parse("P Q\nP ~Q\n~P Q\n~P ~Q\n")
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
        assert result.is_unsat and len(result.steps) == 7
        assert list(dict.fromkeys(stops)) == [
            f"time budget exhausted after {conflicts} conflicts with {logged} steps logged"
            for conflicts, logged in [(0, 4), (1, 4), (1, 5), (2, 5), (2, 6)]
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

    def test_time_budget_is_checked_within_100_lines(self, monkeypatch):
        # {~W} makes W false at level 0, and 12 clauses {W, Uk, Uk+1} watch
        # W: a long watch list.  ~A is then decided, and {A, X1} starts a
        # chain X1 -> ... -> X10 that {~X10, A} refutes: conflict analysis
        # resolves back along all 10 links to the learned unit {A}.  At level
        # 0, A starts a chain Y1 -> ... -> Y10 that {~Y10, ~A} refutes, and
        # that chain is resolved down to {}.  On a clock that counts the
        # lines run in the resolution module, the search must stop within 100
        # lines of its deadline wherever the deadline falls.  A one-line pass
        # over the inputs or the variables reads no clock, so the set keeps
        # fewer than 100 of each
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
        chain = 10
        s = ClauseSet.parse("\n".join(
            ["~W"] + [f"W U{k} U{k + 1}" for k in range(12)]
            + ["A X1"] + [f"~X{k} X{k + 1}" for k in range(1, chain)] + [f"~X{chain} A"]
            + ["~A Y1"] + [f"~Y{k} Y{k + 1}" for k in range(1, chain)] + [f"~Y{chain} ~A"]
        ))
        result = refute(s)
        assert result.is_unsat and len([step for step in result.steps if not step.is_input]) == 2 * chain + 1
        overruns = []
        for budget in itertools.count(0, 7):
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
        # Z occurs only in the tautology, which is dropped, so no step holds
        # Z, but the model still gives it a value: the three inputs left pass
        # a budget of 2 and decide the set with no conflict under a budget of 3
        s = ClauseSet.parse("P ~P Z\nP Q\n~Q R\n~R\n")
        with pytest.raises(ResourceLimitError) as info:
            refute(s, max_clauses=2)
        assert str(info.value) == "clause budget of 2 exhausted after 0 conflicts with 2 steps logged"
        result = refute(s, max_clauses=3)
        assert result.verdict == SATURATED
        assert [step.clause for step in result.steps if step.is_input] == [C("P Q"), C("~Q R"), C("~R")]
        assert all(lit.variable != "Z" for step in result.steps for lit in step.clause)
        assert [str(lit) for lit in result.model] == ["P", "~Q", "~R", "~Z"]

        # a goal that repeats an input adds no step, and the input steps are the
        # caller's clauses in their written order, not the goal's sorted one
        s = ClauseSet([C("P"), C("~Q ~P"), C("Q R"), C("~R")])
        result = refute(s, goal=parse_formula("P & Q"))
        assert result.trace_lines() == refute(s).trace_lines()
        assert "{~Q, ~P} [input]" in " ".join(result.trace_lines())
        for step in result.steps:
            if step.is_input:
                assert any(step.clause is clause for clause in s)

        # {} sorts first, so it is the whole refutation whatever else is
        # given, and a budget of one step is enough for it
        empty = Clause()
        result = refute(ClauseSet([C("P Q"), C("Z ~Z"), empty, C("~P")]), goal=Var("P"))
        assert result.trace_lines() == ["0: {} [input]"]
        assert result.steps[0].clause is empty and result.empty_step == 0
        assert refute(ClauseSet([C("P Q"), empty, C("~P")]), max_clauses=1).trace_lines() == ["0: {} [input]"]

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
            eager = RefutationResult(result.verdict, tuple(result.steps), result.empty_step, result.model)
            assert result == eager and repr(result) == repr(eager) and hash(result) == hash(eager)
        with pytest.raises(AttributeError, match="'RefutationResult' object has no attribute 'stepz'"):
            refute(ClauseSet.parse("P\n")).stepz

    def test_step_lists_are_pinned_on_a_seeded_corpus(self):
        # trace lines, stored literal order, the empty step and the model
        # reach the CLI's output, so they must not drift; the digest was
        # recorded from the conflict-driven search, with a satisfiable result
        # holding only its input steps
        digest = hashlib.sha256()
        for s, goal in pinned_corpus():
            result = refute(s, goal)
            digest.update(repr((
                result.verdict,
                result.trace_lines(),
                [[(lit.variable, lit.negated) for lit in step.clause.literals] for step in result.steps],
                result.empty_step,
                result.model,
            )).encode() + b"\n")
        assert digest.hexdigest() == "a07a10afc667813a3b72efa144c79c8afbe993fb1f3162bd1cf54817f35a441c"

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
            if not result.is_unsat:  # its model is the evidence: no resolvent is kept
                assert all(step.is_input for step in result.steps)
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
        # A sorts before every x, so an engine that eliminates variables in
        # reverse name order reaches it last, although {A} and {~A} alone
        # give {}
        rng = random.Random(1960)
        for _ in range(3):
            s = random_3cnf(rng, 14, 4.3).union(ClauseSet([C("A")]))
            result = refute(s, Var("A"))
            assert result.is_unsat
            oracles.check_certificate(self.inputs(s, Var("A")), result)

    @pytest.mark.parametrize("variables", [22, 26, 30])
    def test_a_goal_that_sorts_first_is_refuted_at_once(self, variables):
        # {A} and the negated goal {~A} are units: propagation refutes them
        # at level 0 before any decision, whatever the 3-CNF beside them
        rng = random.Random(variables)
        for _ in range(3):
            s = random_3cnf(rng, variables, 4.3).union(ClauseSet([C("A")]))
            result = refute(s, Var("A"))
            assert result.is_unsat
            oracles.check_certificate(self.inputs(s, Var("A")), result)

    def test_random_3cnf_at_50_variables_is_decided(self):
        rng = random.Random(50)
        for _ in range(3):
            s = random_3cnf(rng, 50, 4.3)
            oracles.check_certificate(s, refute(s))

    def test_pigeonhole_5_into_4_is_refuted(self):
        s = oracles.pigeonhole(4)
        assert len(s) == 5 + 4 * 10 and len(s.names) == 20
        result = refute(s)
        assert result.is_unsat
        oracles.check_refutation(s, result)

    def test_activities_are_rescaled_past_their_limit(self, monkeypatch):
        # at the real limit one rescale takes thousands of conflicts; at 1.5
        # the bump passes it every few conflicts, and each time every
        # variable goes back on a rebuilt heap
        import heapq

        from strandprover import resolution

        rebuilt = []

        def heapify(heap):
            rebuilt.append(len(heap))
            heapq.heapify(heap)

        monkeypatch.setattr(resolution, "_ACTIVITY_LIMIT", 1.5)
        monkeypatch.setattr(resolution, "heapq", types.SimpleNamespace(
            heappop=heapq.heappop, heappush=heapq.heappush, heapify=heapify))
        s = oracles.pigeonhole(4)
        result = refute(s)
        assert rebuilt and set(rebuilt) == {len(s.names)}
        oracles.check_certificate(s, result)

    def test_pigeonhole_9_into_8_runs_out_of_time_with_a_message(self):
        with pytest.raises(ResourceLimitError, match=r"^time budget exhausted after \d+ conflicts with \d+ steps logged$"):
            refute(oracles.pigeonhole(8), max_seconds=0.2)

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
        sat = ClauseSet.parse("P Q\n~Q\n")
        result = refute(sat)
        oracles.check_certificate(sat, result)
        for model in (None, (Literal("P"),), (Literal("P"), Literal("Q")), (Literal("Q", True), Literal("P"))):
            with pytest.raises(AssertionError):
                oracles.check_certificate(sat, RefutationResult(SATURATED, result.steps, None, model))


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

    # a result built from steps is checked when its steps are first read,
    # before any text is formatted: before the check, a step naming itself
    # or a later step as a parent rendered until memory ran out

    @pytest.mark.parametrize("parent", [2, 3])
    def test_a_parent_that_does_not_come_first_is_refused(self, parent):
        steps = (DeductionStep(0, C("P")), DeductionStep(1, C("~P")),
                 DeductionStep(2, Clause(), (0, parent), Literal("P")), DeductionStep(3, C("Q")))
        result = RefutationResult(UNSAT, steps, empty_step=2)
        for view in (RefutationResult.trace_lines, render_deduction):
            with pytest.raises(ValueError, match=rf"^step 2 names step {parent} as a parent; a step's parents come before it$"):
                view(result)

    def test_an_unsat_result_without_an_empty_step_is_refused(self):
        steps = (DeductionStep(0, C("P")), DeductionStep(1, C("~P")), DeductionStep(2, Clause(), (0, 1), Literal("P")))
        with pytest.raises(ValueError, match=r"^empty step None is not one of the 3 steps$"):
            render_deduction(RefutationResult(UNSAT, steps, empty_step=None))

    @pytest.mark.parametrize("empty_step", [3, -1])
    def test_an_empty_step_out_of_range_is_refused(self, empty_step):
        steps = (DeductionStep(0, C("P")), DeductionStep(1, C("~P")), DeductionStep(2, Clause(), (0, 1), Literal("P")))
        with pytest.raises(ValueError, match=rf"^empty step {empty_step} is not one of the 3 steps$"):
            render_deduction(RefutationResult(UNSAT, steps, empty_step=empty_step))


def formatted_from_objects(result: RefutationResult) -> tuple[str | None, list[str], list[dict]]:
    """The tree, the trace lines and prove's JSON steps formatted from the
    step objects alone: an oracle that shares no code with the records the
    text views read."""
    steps = result.steps

    def note(step: DeductionStep) -> str:
        return "[input]" if step.parents is None else f"[{step.parents[0]} ⊗ {step.parents[1]} on {step.pivot}]"

    trace = [f"{step.index}: {step.clause} {note(step)}" for step in steps]
    payload = [{"index": step.index, "clause": [str(lit) for lit in step.clause],
                "parents": list(step.parents) if step.parents else None,
                "on": None if step.pivot is None else str(step.pivot)} for step in steps]
    if not result.is_unsat:
        return None, trace, payload
    tree, stack = [], [(result.empty_step, 0)]
    while stack:
        index, depth = stack.pop()
        tree.append("  " * depth + f"{steps[index].clause}  {note(steps[index])}")
        if steps[index].parents is not None:
            i, j = steps[index].parents
            stack += ((j, depth + 1), (i, depth + 1))
    return "\n".join(tree), trace, payload


class TestProofText:
    """The text views format an engine result's coded records: they print
    what an eager copy's step objects say, and build none of them."""

    @staticmethod
    def clause_sets():
        from strandprover.fixtures import clause_set_s

        yield clause_set_s()
        yield oracles.pigeonhole(4)
        rng = random.Random(32)
        for k in range(200):
            yield random_3cnf(rng, 5 + k % 2, (4.3, 6.0)[k // 2 % 2])

    def test_text_views_match_an_eager_copy_and_build_no_objects(self, monkeypatch, capsys):
        from strandprover import cli, logic, resolution

        built = []

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            return counted

        for cls in (resolution.DeductionStep, logic.Clause):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        verdicts = []
        for s in self.clause_sets():
            built.clear()
            result = refute(s)
            verdicts.append(result.verdict)
            tree = render_deduction(result) if result.is_unsat else None
            trace = result.trace_lines()
            texts = result.step_texts()
            assert built == []
            fresh = refute(s)
            eager = RefutationResult(fresh.verdict, tuple(fresh.steps), fresh.empty_step, fresh.model)
            assert built  # the counters see the eager copy's objects
            want_tree, want_trace, want_json = formatted_from_objects(eager)
            assert tree == want_tree == (render_deduction(eager) if eager.is_unsat else None)
            assert trace == want_trace == eager.trace_lines() == [step.describe() for step in eager.steps]
            assert texts == eager.step_texts()
            monkeypatch.setattr("sys.stdin", io.StringIO(str(s)))
            cli.main(["prove", "--input", "-", "--format", "json"])
            assert json.loads(capsys.readouterr().out)["steps"] == want_json
            assert result.steps == eager.steps and result == eager
            assert [step.clause.literals for step in result.steps] == [step.clause.literals for step in eager.steps]
        assert verdicts[:2] == [UNSAT, UNSAT] and 40 < verdicts.count(SATURATED) < 160

    def test_a_pigeonhole_tree_matches_an_eager_copy(self):
        # PHP 7 -> 6: deep indents, and sub-derivations shared by many parents
        result = refute(oracles.pigeonhole(6))
        tree = render_deduction(result)
        eager = RefutationResult(result.verdict, tuple(result.steps), result.empty_step)
        assert tree == formatted_from_objects(eager)[0]
        assert (len(eager.steps), tree.count("\n") + 1) == (6542, 37915)

    @pytest.mark.parametrize("copier", [
        *(pytest.param(lambda r, p=p: pickle.loads(pickle.dumps(r, p)), id=f"pickle{p}")
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ])
    def test_results_copy_whether_or_not_their_steps_were_read(self, copier):
        from strandprover.fixtures import clause_set_s

        for s in (clause_set_s(), oracles.pigeonhole(3), ClauseSet.parse("P Q\n~Q R\n~R\n")):
            want = refute(s)
            text = (render_deduction(want) if want.is_unsat else None, want.trace_lines(), want.step_texts())
            for read in (False, True):
                result = refute(s)
                if read:
                    assert result.steps == want.steps
                back = copier(result)
                assert back == want and back.model == want.model and back.empty_step == want.empty_step
                assert (render_deduction(back) if back.is_unsat else None, back.trace_lines(), back.step_texts()) == text


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
