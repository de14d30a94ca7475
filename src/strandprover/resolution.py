"""Resolution refutation over clause sets, with reproducible deduction traces."""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable

from .logic import MAX_CLAUSES, Clause, ClauseSet, Formula, Literal, Not, to_clausal_form

UNSAT = "unsat"
SATURATED = "saturated"
_ACTIVITY_LIMIT = 1e100  # past this, refute divides every activity and the bump by it


class ResourceLimitError(RuntimeError):
    """Resolution gave up (clause or time budget) before reaching a verdict."""


@dataclass(frozen=True)
class DeductionStep:
    """One logged clause: either an input or a resolvent of two earlier steps."""

    index: int
    clause: Clause
    parents: tuple[int, int] | None = None
    pivot: Literal | None = None  # the literal resolved away, as it occurs in parents[0]

    @property
    def is_input(self) -> bool:
        return self.parents is None

    @property
    def note(self) -> str:
        """[input], or the parents and the pivot of a resolvent."""
        if self.is_input:
            return "[input]"
        i, j = self.parents
        return f"[{i} ⊗ {j} on {self.pivot}]"

    def describe(self) -> str:
        return f"{self.index}: {self.clause} {self.note}"


@dataclass(frozen=True)
class RefutationResult:
    """A verdict and the deduction steps behind it.  refute leaves the steps
    to be built when they are first read, so a caller that reads only the
    verdict builds no step objects."""

    verdict: str
    steps: tuple[DeductionStep, ...]
    empty_step: int | None
    model: tuple[Literal, ...] | None = None  # on SATURATED: one literal per variable, true in a model

    @classmethod
    def _deferred(cls, verdict: str, empty_step: int | None, build: Callable[[], tuple[DeductionStep, ...]],
                  model: tuple[Literal, ...] | None = None):
        """A result whose steps build() returns when they are first read."""
        result = object.__new__(cls)
        result.__dict__.update(verdict=verdict, empty_step=empty_step, model=model, _build=build)
        return result

    def __getattr__(self, name: str):
        build = self.__dict__.get("_build") if name == "steps" else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = self.__dict__["steps"] = build()
        self.__dict__.pop("_build", None)
        return steps

    def __getstate__(self) -> dict:
        return {"verdict": self.verdict, "steps": self.steps, "empty_step": self.empty_step, "model": self.model}

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
    max_clauses: int = MAX_CLAUSES,
    max_seconds: float | None = 10.0,
) -> RefutationResult:
    """Decide unsatisfiability of s by conflict-driven clause learning.

    A goal's negation is converted to clauses and added first, so UNSAT
    means s entails the goal.  Unit propagation watches two literals per
    clause, and a decision makes the unassigned variable of highest activity
    false, ties going to the smallest name.  Each resolution that first-UIP
    conflict analysis performs is logged as a step, and a conflict with no
    decision left is resolved down to {}: an UNSAT result keeps the steps {}
    derives from, a satisfiable one its input steps and a model, one literal
    per variable in name order.  The inputs, tautologies dropped, are the first
    steps, in bitmask order, so equal inputs give equal step lists.  Past
    max_clauses steps, inputs included, or max_seconds from the call, it
    raises ResourceLimitError with the conflicts and steps it reached.  The
    search reads the set's codes and masks; step objects are built when
    first read, and an input step holds the set's own Clause.
    """
    monotonic, limit = time.monotonic, _ACTIVITY_LIMIT
    deadline = None if max_seconds is None else monotonic() + max_seconds
    if goal is not None:
        s = s.union(to_clausal_form(Not(goal)))
    if len(s) == 0:
        raise ValueError("clause set is empty")

    names, codes = s.names, s.codes
    conflicts = 0

    def stop(budget: str) -> None:
        raise ResourceLimitError(f"{budget} exhausted after {conflicts} conflicts with {len(origins)} steps logged")

    # A literal is coded 2 * (rank of its variable in name order) + negated,
    # so l ^ 1 is its complement and l >> 1 its variable.  A clause is also a
    # bitmask with bit l set for each of its literals.
    positive = (4 ** len(names) - 1) // 3  # bits 0, 2, 4, ...: the unnegated literals
    sources = [k for k, mask in enumerate(s.masks) if not mask & mask >> 1 & positive]  # drop tautologies
    sources.sort(key=s.masks.__getitem__)  # per input step: its clause's index in s, {} first
    # per step, the inputs first: its bitmask, and (i, j, pivot) for a
    # resolvent of steps i < j on clause i's literal pivot, None for an input
    masks: list[int] = list(map(s.masks.__getitem__, sources[:max_clauses]))
    origins: list[tuple[int, int, int] | None] = [None] * len(masks)
    if deadline is not None and monotonic() > deadline:
        stop("time budget")  # each pass over the inputs above is as long as the input

    def resolve(a: int, b: int, pivot: int) -> int:
        """Log the resolvent of steps a and b on a's literal pivot."""
        if len(origins) >= max_clauses:
            stop(f"clause budget of {max_clauses}")
        origins.append((a, b, pivot) if a < b else (b, a, pivot ^ 1))
        masks.append((masks[a] | masks[b]) & ~(1 << pivot | 1 << (pivot ^ 1)))
        work.append(None)
        return len(origins) - 1

    def returned(verdict: str, order: list[int], model: tuple[Literal, ...] | None = None) -> RefutationResult:
        def build() -> tuple[DeductionStep, ...]:
            # the steps in order, renumbered from 0: the only ones built as
            # objects; on UNSAT the last is {}.  A resolvent's literals are
            # clause i's without the pivot, then those of clause j that
            # clause i lacks, as Clause.union orders them.
            literal = [Literal(name, negated) for name in names for negated in (False, True)]
            renumber: dict[int, int] = {}
            rows: dict[int, list[int] | tuple[int, ...]] = {}  # per step: its literal codes in stored order
            steps = []
            for new, old in enumerate(order):
                renumber[old] = new
                if origins[old] is None:
                    rows[old] = codes[sources[old]]
                    steps.append(DeductionStep(new, s.clauses[sources[old]]))
                    continue
                i, j, pivot = origins[old]
                mask_i, complement = masks[i], pivot ^ 1
                row = rows[old] = ([lit for lit in rows[i] if lit != pivot]
                                   + [lit for lit in rows[j] if lit != complement and not mask_i >> lit & 1])
                clause = Clause([literal[lit] for lit in row])
                steps.append(DeductionStep(new, clause, (renumber[i], renumber[j]), literal[pivot]))
            return tuple(steps)

        return RefutationResult._deferred(verdict, len(order) - 1 if verdict == UNSAT else None, build, model)

    if masks and not masks[0]:
        return returned(UNSAT, [0])  # {} sorts first and is the whole refutation
    if len(sources) > max_clauses:
        stop(f"clause budget of {max_clauses}")
    value = [0] * (2 * len(names))  # per literal: 1 true, -1 false, 0 unassigned
    level = [0] * len(names)  # per assigned variable: its decision level
    reason = [0] * len(names)  # per assigned variable not decided: the step that implied it
    trail: list[int] = []  # the true literals in the order assigned
    starts: list[int] = []  # per decision level above 0: where it starts on the trail
    watches: list[list[int]] = [[] for _ in value]  # per literal: the steps watching it
    work: list[list[int] | None] = [None] * len(masks)  # per input and learned step: its literals, two watched first
    conflict = None  # the step all of whose literals are false
    for index, k in enumerate(sources):
        if deadline is not None and monotonic() > deadline:
            stop("time budget")
        clause_lits = work[index] = list(codes[k])
        if len(clause_lits) > 1:
            watches[clause_lits[0]].append(index)
            watches[clause_lits[1]].append(index)
        elif value[clause_lits[0]] < 0:
            conflict = index  # the complement of an earlier unit
            break
        else:
            value[clause_lits[0]], value[clause_lits[0] ^ 1] = 1, -1
            reason[clause_lits[0] >> 1] = index
            trail.append(clause_lits[0])

    activity = [0.0] * len(names)
    bump = 1.0  # grows by 1 / 0.95 per conflict, so recent conflicts weigh more
    heap = list(zip(activity, range(len(names))))  # (-activity, variable), stale once the activity moved on
    queued = [True] * len(names)  # per variable: the heap holds an entry at its activity
    head = 0  # the trail position of the next literal to propagate
    while True:
        while conflict is None and head < len(trail):
            if deadline is not None and monotonic() > deadline:
                stop("time budget")
            false = trail[head] ^ 1
            head += 1
            watching = watches[false]
            kept = []
            for position, index in enumerate(watching):
                if deadline is not None and monotonic() > deadline:
                    stop("time budget")
                clause = work[index]
                other = clause[0]
                if other == false:
                    other = clause[0] = clause[1]
                    clause[1] = false
                if value[other] > 0:
                    kept.append(index)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] >= 0:  # watch lit instead
                        clause[1], clause[k] = lit, false
                        watches[lit].append(index)
                        break
                else:
                    kept.append(index)
                    if value[other] < 0:
                        conflict = index
                        kept += watching[position + 1:]
                        break
                    value[other], value[other ^ 1] = 1, -1
                    level[other >> 1] = len(starts)
                    reason[other >> 1] = index
                    trail.append(other)
            watches[false] = kept

        if conflict is None:
            while heap:  # decide
                if deadline is not None and monotonic() > deadline:
                    stop("time budget")
                negated, v = heapq.heappop(heap)
                if -negated == activity[v]:
                    queued[v] = False
                    if not value[2 * v]:
                        break
            else:
                model = tuple([Literal(name, value[2 * v] < 0) for v, name in enumerate(names)])
                return returned(SATURATED, list(range(len(sources))), model)
            starts.append(len(trail))
            value[2 * v + 1], value[2 * v] = 1, -1
            level[v] = len(starts)
            trail.append(2 * v + 1)
            continue

        conflicts += 1
        clause = antecedent = conflict
        # first-UIP analysis: resolve the conflict with the reasons of its
        # literals of this level, latest first, until one of them is left;
        # the learned clause is that literal and those below this level.  At
        # level 0 every literal is resolved, down to {}
        current = len(starts)
        seen = set()
        count = 0  # literals of this level in the clause
        below: list[int] = []  # literals below this level in the clause
        back = top = 0  # the highest level in below, and its first place there
        position = len(trail)
        while True:
            if deadline is not None and monotonic() > deadline:
                stop("time budget")
            for lit in work[antecedent]:
                v = lit >> 1
                if v not in seen:
                    seen.add(v)
                    activity[v] += bump
                    queued[v] = False
                    if level[v] == current:
                        count += 1
                    else:
                        if level[v] > back:
                            back, top = level[v], len(below)
                        below.append(lit)
            position -= 1
            while trail[position] >> 1 not in seen:
                if deadline is not None and monotonic() > deadline:
                    stop("time budget")
                position -= 1
            true = trail[position]
            count -= 1
            if not count and current:
                break
            antecedent = reason[true >> 1]
            clause = resolve(clause, antecedent, true ^ 1)
            if not masks[clause]:
                return returned(UNSAT, _backtrace(origins, clause))
        bump /= 0.95
        if bump > limit:
            activity = [a / limit for a in activity]
            bump /= limit
            heap = [(-a, v) for v, a in enumerate(activity)]
            heapq.heapify(heap)
            queued = [True] * len(names)

        # backjump to the highest level below this one in the learned clause,
        # where it is a unit: watch its asserted literal and one of that level
        for lit in trail[starts[back]:]:
            if deadline is not None and monotonic() > deadline:
                stop("time budget")
            value[lit] = value[lit ^ 1] = 0
            if not queued[lit >> 1]:
                heapq.heappush(heap, (-activity[lit >> 1], lit >> 1))
                queued[lit >> 1] = True
        del trail[starts[back]:]
        del starts[back:]
        head = len(trail)
        asserted = true ^ 1
        if below:
            below[0], below[top] = below[top], below[0]
            watches[asserted].append(clause)
            watches[below[0]].append(clause)
        work[clause] = [asserted] + below
        value[asserted], value[true] = 1, -1
        level[asserted >> 1] = back
        reason[asserted >> 1] = clause
        trail.append(asserted)
        conflict = None


def _backtrace(origins: list[tuple[int, int, int] | None], empty_index: int) -> list[int]:
    """The steps the empty clause derives from, itself included, ascending:
    one sweep down from it, as a step's parents come before it."""
    keep = [False] * empty_index + [True]
    for k in range(empty_index, -1, -1):
        if keep[k] and origins[k] is not None:
            i, j, _ = origins[k]
            keep[i] = keep[j] = True
    return [k for k, kept in enumerate(keep) if kept]


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
        if not step.is_input:
            i, j = step.parents
            stack += ((j, depth + 1), (i, depth + 1))
        lines.append("  " * depth + f"{step.clause}  {step.note}")
    return "\n".join(lines)
