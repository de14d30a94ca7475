"""Resolution refutation over clause sets, with reproducible deduction traces."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .logic import Clause, ClauseSet, Formula, Literal, Not, normalize_clause_set, to_clausal_form

UNSAT = "unsat"
SATURATED = "saturated"


class ResourceLimitError(RuntimeError):
    """Saturation gave up (clause or time budget) before reaching a verdict."""


@dataclass(frozen=True)
class DeductionStep:
    """One retained clause: either an input or a resolvent of two earlier steps."""

    index: int
    clause: Clause
    parents: tuple[int, int] | None = None
    pivot: Literal | None = None  # the literal resolved away, as it occurs in parents[0]

    @property
    def is_input(self) -> bool:
        return self.parents is None

    def describe(self) -> str:
        if self.is_input:
            return f"{self.index}: {self.clause} [input]"
        i, j = self.parents
        return f"{self.index}: {self.clause} [{i} ⊗ {j} on {self.pivot}]"


@dataclass(frozen=True)
class RefutationResult:
    verdict: str
    steps: tuple[DeductionStep, ...]
    empty_step: int | None

    @property
    def is_unsat(self) -> bool:
        return self.verdict == UNSAT

    def trace_lines(self) -> list[str]:
        return [step.describe() for step in self.steps]


def resolve_pair(c1: Clause, c2: Clause) -> set[tuple[Clause, Literal]]:
    """All resolvents of c1 and c2, each tagged with the c1 literal resolved on.

    Each resolvent removes exactly one complementary pair; removing two pairs
    at once is not resolution and is never produced here.
    """
    out: set[tuple[Clause, Literal]] = set()
    for lit in c1:
        if lit.complement() in c2:
            out.add((c1.without(lit).union(c2.without(lit.complement())), lit))
    return out


def refute(
    s: ClauseSet,
    goal: Formula | None = None,
    *,
    max_clauses: int = 100_000,
    max_seconds: float | None = 10.0,
) -> RefutationResult:
    """Decide unsatisfiability of s by saturation.

    If a goal formula is given, its negation is converted to clauses and added
    first, so an UNSAT verdict means s entails the goal.  Search is level by
    level: every level resolves the newest clauses against everything retained,
    discards tautologies and forward-subsumed clauses, and admits the rest in a
    fixed lexicographic order, so two runs on the same input produce identical
    step lists.  Exceeding max_clauses or max_seconds raises
    ResourceLimitError rather than guessing a verdict.
    """
    if goal is not None:
        s = s.union(to_clausal_form(Not(goal)))
    if len(s) == 0:
        raise ValueError("clause set is empty")

    working = normalize_clause_set(s, drop_tautologies=True)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds

    steps: list[DeductionStep] = []
    known: dict[Clause, int] = {}

    def admit(clause: Clause, parents: tuple[int, int] | None, pivot: Literal | None) -> int | None:
        if clause in known:
            return None
        if any(existing.subsumes(clause) for existing in known):
            return None  # forward subsumption
        index = len(steps)
        if index >= max_clauses:
            raise ResourceLimitError(f"clause budget of {max_clauses} exhausted")
        steps.append(DeductionStep(index, clause, parents, pivot))
        known[clause] = index
        return index

    empty_index: int | None = None
    for clause in sorted(working, key=Clause.sorted_literals):
        index = admit(clause, None, None)
        if index is not None and clause.is_empty() and empty_index is None:
            empty_index = index
    if empty_index is not None:
        return _backtrace(steps, empty_index)
    if not steps:
        # every input clause was a tautology
        return RefutationResult(SATURATED, (), None)

    level_start = 0
    while True:
        level_end = len(steps)
        candidates: list[tuple[tuple[Literal, ...], tuple[int, int], Clause, Literal]] = []
        # pair every clause of the newest level against everything before it;
        # older pairs were already resolved when their younger member was new
        for j in range(max(level_start, 1), level_end):
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceLimitError("time budget exhausted")
            for i in range(j):
                for resolvent, pivot in resolve_pair(steps[i].clause, steps[j].clause):
                    if resolvent.is_tautology():
                        continue
                    candidates.append((resolvent.sorted_literals(), (i, j), resolvent, pivot))
        candidates.sort(key=lambda item: (item[0], item[1], item[3]))
        admitted = 0
        for _, parents, resolvent, pivot in candidates:
            index = admit(resolvent, parents, pivot)
            if index is None:
                continue
            admitted += 1
            if resolvent.is_empty():
                return _backtrace(steps, index)
        if admitted == 0:
            return RefutationResult(SATURATED, tuple(steps), None)
        level_start = level_end


def _backtrace(steps: list[DeductionStep], empty_index: int) -> RefutationResult:
    """Keep only the ancestors of the empty clause and renumber them."""
    keep: set[int] = set()
    stack = [empty_index]
    while stack:
        k = stack.pop()
        if k in keep:
            continue
        keep.add(k)
        parents = steps[k].parents
        if parents is not None:
            stack.extend(parents)
    order = sorted(keep)
    renumber = {old: new for new, old in enumerate(order)}
    pruned = tuple(
        DeductionStep(
            renumber[old],
            steps[old].clause,
            None if steps[old].parents is None else (renumber[steps[old].parents[0]], renumber[steps[old].parents[1]]),
            steps[old].pivot,
        )
        for old in order
    )
    return RefutationResult(UNSAT, pruned, renumber[empty_index])


def render_deduction(result: RefutationResult) -> str:
    """Indented tree rooted at the empty clause; children are the parents of
    each resolvent and the leaves are input clauses."""
    if not result.is_unsat:
        raise ValueError("deduction tree exists only for an unsat result")
    steps = result.steps
    lines: list[str] = []
    # depth-first, first parent before second, on an explicit stack so that
    # deep proofs do not hit the recursion limit
    stack = [(result.empty_step, 0)]
    while stack:
        index, depth = stack.pop()
        step = steps[index]
        if step.is_input:
            note = "[input]"
        else:
            i, j = step.parents
            note = f"[{i} ⊗ {j} on {step.pivot}]"
            stack += ((j, depth + 1), (i, depth + 1))
        lines.append("  " * depth + f"{step.clause}  {note}")
    return "\n".join(lines)
