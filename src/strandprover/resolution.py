"""Resolution refutation over clause sets, with reproducible deduction traces."""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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

    def describe(self) -> str:
        """The step as trace_lines prints it."""
        return f"{self.index}: {_Records.of([self]).lines(' ')[0]}"


class _Records(NamedTuple):
    """A result's steps as codes, which its text views format and its steps
    are built from.  Literal code k reads texts[k]; per step, its literal codes
    in stored order, its parents (i, j) or None for an input, and its pivot's
    code or None.  An engine result's input steps are source.clauses[inputs[k]]."""

    texts: Sequence[str]
    rows: Sequence[Sequence[int]]
    parents: Sequence[tuple[int, int] | None]
    pivots: Sequence[int | None]
    source: ClauseSet | None = None
    inputs: Sequence[int] = ()

    @classmethod
    def of(cls, steps: Sequence[DeductionStep]) -> _Records:
        """The records of a result built from its steps."""
        code: dict[Literal, int] = {}
        rows = [[code.setdefault(lit, len(code)) for lit in step.clause] for step in steps]
        pivots = [None if step.pivot is None else code.setdefault(step.pivot, len(code)) for step in steps]
        return cls([str(lit) for lit in code], rows, [step.parents for step in steps], pivots)

    def lines(self, gap: str) -> list[str]:
        """Per step: its clause, gap, then [input] or its parents and pivot."""
        texts = self.texts
        return ["{" + ", ".join([texts[lit] for lit in row]) + "}" + gap
                + ("[input]" if pair is None else f"[{pair[0]} ⊗ {pair[1]} on {texts[pivot]}]")
                for row, pair, pivot in zip(self.rows, self.parents, self.pivots)]

    def steps(self) -> tuple[DeductionStep, ...]:
        """An engine result's steps: an input step holds the set's own Clause."""
        literal = [Literal(name, negated) for name in self.source.names for negated in (False, True)]
        clauses = self.source.clauses
        return tuple([
            DeductionStep(k, clauses[self.inputs[k]]) if pair is None
            else DeductionStep(k, Clause([literal[lit] for lit in row]), pair, literal[pivot])
            for k, (row, pair, pivot) in enumerate(zip(self.rows, self.parents, self.pivots))
        ])


@dataclass(frozen=True)
class RefutationResult:
    """A verdict and the deduction steps behind it.  refute leaves the steps'
    records (literal codes, parents and pivots) to be derived when first
    read: the text views format the records, and steps is built from them
    when read, so a caller that reads only the verdict derives nothing and
    one that prints the proof builds no step object."""

    verdict: str
    steps: tuple[DeductionStep, ...]
    empty_step: int | None
    model: tuple[Literal, ...] | None = None  # on SATURATED: one literal per variable, true in a model

    @classmethod
    def _deferred(cls, verdict: str, empty_step: int | None, build: Callable[[], _Records],
                  model: tuple[Literal, ...] | None = None):
        """A result whose records build() returns when they are first read."""
        result = object.__new__(cls)
        result.__dict__.update(verdict=verdict, empty_step=empty_step, model=model, _build=build)
        return result

    def __getattr__(self, name: str):
        # only names not yet set come here: an engine result's records, then
        # its steps, built from them; a result built from steps reads its
        # records off them
        d = self.__dict__
        if name == "_records" and ("_build" in d or "steps" in d):
            build = d.pop("_build", None)
            value = build() if build is not None else _Records.of(d["steps"])
        elif name == "steps" and ("_build" in d or "_records" in d):
            value = self._records.steps()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d[name] = value
        return value

    def __getstate__(self) -> dict:
        return {"verdict": self.verdict, "steps": self.steps, "empty_step": self.empty_step, "model": self.model}

    @property
    def is_unsat(self) -> bool:
        return self.verdict == UNSAT

    def step_texts(self) -> list[tuple[list[str], tuple[int, int] | None, str | None]]:
        """Per step: its literals, its parents or None for an input, and its
        pivot or None, as text, read from the records without building steps."""
        texts, rows, parents, pivots = self._records[:4]
        return [([texts[lit] for lit in row], pair, None if pivot is None else texts[pivot])
                for row, pair, pivot in zip(rows, parents, pivots)]

    def trace_lines(self) -> list[str]:
        return [f"{k}: {line}" for k, line in enumerate(self._records.lines(" "))]


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
    search reads the set's codes and masks; the steps' records are derived
    when first read, step objects only when steps is read, and an input step
    holds the set's own Clause.
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
    # per step, the inputs first: (i, j, pivot) for a resolvent of steps
    # i < j on clause i's literal pivot, None for an input
    origins: list[tuple[int, int, int] | None] = [None] * len(sources[:max_clauses])
    if deadline is not None and monotonic() > deadline:
        stop("time budget")  # each pass over the inputs above is as long as the input

    def resolve(a: int, b: int, pivot: int) -> int:
        """Log the resolvent of steps a and b on a's literal pivot."""
        if len(origins) >= max_clauses:
            stop(f"clause budget of {max_clauses}")
        origins.append((a, b, pivot) if a < b else (b, a, pivot ^ 1))
        work.append(None)
        return len(origins) - 1

    def returned(verdict: str, order: list[int], model: tuple[Literal, ...] | None = None) -> RefutationResult:
        def build() -> _Records:
            # the steps in order, renumbered from 0; on UNSAT the last is {}.
            # A resolvent's literals are clause i's without the pivot, then
            # those of clause j that clause i lacks, as Clause.union orders them.
            renumber: dict[int, int] = {}
            rows: list[Sequence[int]] = []
            parents: list[tuple[int, int] | None] = []
            pivots: list[int | None] = []
            inputs = []
            for new, old in enumerate(order):
                renumber[old] = new
                if origins[old] is None:
                    inputs.append(sources[old])
                    rows.append(codes[sources[old]])
                    parents.append(None)
                    pivots.append(None)
                    continue
                i, j, pivot = origins[old]
                i, j = renumber[i], renumber[j]
                row_i, complement = set(rows[i]), pivot ^ 1
                rows.append([lit for lit in rows[i] if lit != pivot]
                            + [lit for lit in rows[j] if lit != complement and lit not in row_i])
                parents.append((i, j))
                pivots.append(pivot)
            texts = [text for name in names for text in (name, "~" + name)]
            return _Records(texts, rows, parents, pivots, s, inputs)

        return RefutationResult._deferred(verdict, len(order) - 1 if verdict == UNSAT else None, build, model)

    if origins and not s.masks[sources[0]]:
        return returned(UNSAT, [0])  # {} sorts first and is the whole refutation
    if len(sources) > max_clauses:
        stop(f"clause budget of {max_clauses}")
    value = [0] * (2 * len(names))  # per literal: 1 true, -1 false, 0 unassigned
    level = [0] * len(names)  # per assigned variable: its decision level
    reason = [0] * len(names)  # per assigned variable not decided: the step that implied it
    trail: list[int] = []  # the true literals in the order assigned
    starts: list[int] = []  # per decision level above 0: where it starts on the trail
    watches: list[list[int]] = [[] for _ in value]  # per literal: the steps watching it
    work: list[list[int] | None] = [None] * len(origins)  # per input and learned step: its literals, two watched first
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
            if not count:  # at level 0 every literal counts, so the clause is {}
                return returned(UNSAT, _backtrace(origins, clause))
            if deadline is not None and monotonic() > deadline:
                stop("time budget")
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
    records = result._records
    parents, body = records.parents, records.lines("  ")
    lines: list[str] = []
    # depth-first, first parent before second, on an explicit stack so that
    # deep proofs do not hit the recursion limit
    stack = [(result.empty_step, 0)]
    while stack:
        index, depth = stack.pop()
        pair = parents[index]
        if pair is not None:
            stack += ((pair[1], depth + 1), (pair[0], depth + 1))
        lines.append("  " * depth + body[index])
    return "\n".join(lines)
