"""Resolution refutation over clause sets, with reproducible deduction traces."""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    ResourceLimitError rather than guessing a verdict; its message names the
    level reached (0 for the input clauses) and the clauses retained.
    """
    if goal is not None:
        s = s.union(to_clausal_form(Not(goal)))
    if len(s) == 0:
        raise ValueError("clause set is empty")

    working = normalize_clause_set(s, drop_tautologies=True)
    monotonic = time.monotonic
    deadline = None if max_seconds is None else monotonic() + max_seconds

    # A literal is coded 2 * (rank of its variable in name order) + negated:
    # integer order is Literal order and l ^ 1 is the complement of l.  A
    # clause is also a bitmask with bit l set for each of its literals.
    names = sorted({lit.variable for clause in working for lit in clause})
    code = {Literal(name, negated): 2 * k + negated for k, name in enumerate(names) for negated in (False, True)}
    literal = list(code)  # code -> Literal
    positive = sum(1 << 2 * k for k in range(len(names)))  # the bits of the unnegated literals

    steps: list[DeductionStep] = []
    lits: list[tuple[int, ...]] = []  # per step: literal codes in stored order
    masks: list[int] = []  # per step: bitmask
    occurs: list[list[int]] = [[] for _ in literal]  # per literal: the steps holding it, ascending
    known: set[int] = set()  # the bitmasks of the steps
    level = 0

    def check_time() -> None:
        if deadline is not None and monotonic() > deadline:
            raise ResourceLimitError(f"time budget exhausted at level {level} with {len(steps)} clauses retained")

    def admit(clause_lits: tuple[int, ...], mask: int, parents: tuple[int, int] | None,
              pivot: int | None, clause: Clause | None = None) -> int | None:
        if mask in known:
            return None
        # forward subsumption: D subsumes C when D's bits are all in C's; a
        # non-empty D then holds a literal of C (the empty clause ends the search)
        outside = ~mask
        for lit in clause_lits:
            for d in occurs[lit]:
                if not masks[d] & outside:
                    return None
        index = len(steps)
        if index >= max_clauses:
            raise ResourceLimitError(
                f"clause budget of {max_clauses} exhausted at level {level} with {index} clauses retained")
        if clause is None:
            clause = Clause([literal[lit] for lit in clause_lits])
        steps.append(DeductionStep(index, clause, parents, None if pivot is None else literal[pivot]))
        lits.append(clause_lits)
        masks.append(mask)
        known.add(mask)
        for lit in clause_lits:
            occurs[lit].append(index)
        return index

    for clause in sorted(working, key=Clause.sorted_literals):
        clause_lits = tuple(code[lit] for lit in clause)
        index = admit(clause_lits, sum(1 << lit for lit in clause_lits), None, None, clause)
        if index is not None and not clause_lits:
            return _backtrace(steps, index)  # {} sorts first and subsumes every later input
    if not steps:
        # every input clause was a tautology
        return RefutationResult(SATURATED, (), None)

    level_start = 0
    while True:
        level += 1
        level_end = len(steps)
        # resolvent bitmask -> its least (i, j, pivot): a later candidate for
        # the same clause sorts after it and is never admitted
        first: dict[int, tuple[int, int, int]] = {}
        # pair every clause of the newest level with the older clauses that
        # hold the complement of one of its literals; older pairs were already
        # resolved when their younger member was new
        for j in range(max(level_start, 1), level_end):
            check_time()
            mask_j = masks[j]
            for lit in lits[j]:
                pivot = lit ^ 1  # the literal resolved away, as it occurs in clause i
                clash = (1 << lit) | (1 << pivot)
                for i in occurs[pivot]:
                    if i >= j:
                        break
                    if deadline is not None and monotonic() > deadline:  # inlined: the hottest loop
                        check_time()
                    mask = (masks[i] | mask_j) & ~clash
                    if mask & (mask >> 1) & positive or mask in known:
                        continue  # a tautology, or a clause already retained
                    candidate = (i, j, pivot)
                    best = first.get(mask)
                    if best is None or candidate < best:
                        first[mask] = candidate
        # candidates in the order of (sorted literals, parents, pivot); each
        # literal tuple is the one Clause.union builds: clause i without the
        # pivot, then the literals of clause j it does not already hold
        candidates = []
        for mask, (i, j, pivot) in first.items():
            mask_i = masks[i]
            complement = pivot ^ 1
            clause_lits = tuple([lit for lit in lits[i] if lit != pivot]
                                + [lit for lit in lits[j] if lit != complement and not mask_i >> lit & 1])
            candidates.append((sorted(clause_lits), i, j, pivot, clause_lits, mask))
        candidates.sort()
        admitted = 0
        for _, i, j, pivot, clause_lits, mask in candidates:
            check_time()
            index = admit(clause_lits, mask, (i, j), pivot)
            if index is None:
                continue
            admitted += 1
            if not clause_lits:
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
