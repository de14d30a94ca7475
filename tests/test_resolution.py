"""Binary resolution, the saturation loop, and deduction rendering."""

import hashlib
import random
import time
import types

import pytest

import oracles
from strandprover.logic import Clause, ClauseSet, Literal, Var, parse_formula
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
        assert all(clause.is_tautology() for clause, _ in out)

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
        assert all(not s.clause.is_tautology() for s in result.steps)

    def test_subsumed_resolvents_are_not_admitted(self):
        result = refute(ClauseSet.parse("P Q\n~P Q\nQ R\n"))
        assert result.verdict == SATURATED
        clauses = [s.clause for s in result.steps]
        for k, clause in enumerate(clauses):
            for other in clauses[:k]:
                assert not other.subsumes(clause)

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
        wide = ClauseSet.parse("P Q R\n~P Q R\nP ~Q R\nP Q ~R\n")
        with pytest.raises(ResourceLimitError) as info:
            refute(wide, max_clauses=5)
        assert str(info.value) == "clause budget of 5 exhausted at level 1 with 5 clauses retained"

    def test_time_budget_is_checked_during_admission(self, monkeypatch):
        # the clock passes the deadline as soon as the first resolvent is
        # retained: the search stops there, in the middle of level 1
        from strandprover import resolution
        from strandprover.fixtures import clause_set_s

        resolvents = []

        def counting_step(index, clause, parents=None, pivot=None):
            if parents is not None:
                resolvents.append(index)
            return DeductionStep(index, clause, parents, pivot)

        monkeypatch.setattr(resolution, "DeductionStep", counting_step)
        clock = types.SimpleNamespace(monotonic=lambda: 1e9 if resolvents else 0.0)
        monkeypatch.setattr(resolution, "time", clock)
        with pytest.raises(ResourceLimitError) as info:
            refute(clause_set_s(), max_seconds=10.0)
        assert str(info.value) == "time budget exhausted at level 1 with 7 clauses retained"
        assert resolvents == [6]
        monkeypatch.undo()
        steps = refute(clause_set_s()).steps
        # on its own clock, level 1 (resolvents of two inputs) retains more
        assert sum(not s.is_input and all(steps[k].is_input for k in s.parents) for s in steps) > 1

    def test_step_lists_are_pinned_on_a_seeded_corpus(self):
        # trace lines, stored literal order and the empty step reach the CLI's
        # output, so they must not drift; the digest was recorded from the
        # saturation loop that called resolve_pair on every pair
        digest = hashlib.sha256()
        for s, goal in pinned_corpus():
            result = refute(s, goal)
            digest.update(repr((
                result.verdict,
                result.trace_lines(),
                [[(lit.variable, lit.negated) for lit in step.clause.literals] for step in result.steps],
                result.empty_step,
            )).encode() + b"\n")
        assert digest.hexdigest() == "91a162004a30906d7e2a768cbf516ac28b06edbd20f9aeb93776a35d42af99cd"

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
