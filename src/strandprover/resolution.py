"""Resolution refutation over clause sets, with reproducible deduction traces."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .logic import MAX_CLAUSES, Clause, ClauseSet, Formula, Literal, Not, to_clausal_form

UNSAT = "unsat"
SATURATED = "saturated"


class ResourceLimitError(RuntimeError):
    """Resolution gave up (clause or time budget) before reaching a verdict."""


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

    @classmethod
    def _deferred(cls, verdict: str, empty_step: int | None, build: Callable[[], tuple[DeductionStep, ...]]):
        """A result whose steps build() returns when they are first read."""
        result = object.__new__(cls)
        result.__dict__.update(verdict=verdict, empty_step=empty_step, _build=build)
        return result

    def __getattr__(self, name: str):
        build = self.__dict__.get("_build") if name == "steps" else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = self.__dict__["steps"] = build()
        self.__dict__.pop("_build", None)
        return steps

    def __getstate__(self) -> dict:
        return {"verdict": self.verdict, "steps": self.steps, "empty_step": self.empty_step}

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
    """Decide unsatisfiability of s by ordered (Davis-Putnam bucket) resolution.

    If a goal formula is given, its negation is converted to clauses and added
    first, so an UNSAT verdict means s entails the goal.  Each clause sits in
    the bucket of its largest variable in name order, and the variables are
    eliminated from the largest to the smallest: every positive clause of a
    bucket is resolved with every negative one, so each resolvent falls into a
    lower bucket.  Tautologies and forward-subsumed clauses are discarded and
    the rest admitted in a fixed lexicographic order, so two runs on the same
    input produce identical step lists.  Exceeding max_clauses or max_seconds
    raises ResourceLimitError rather than guessing a verdict; its message
    names the variable being eliminated (the largest while the inputs are
    admitted) and the clauses retained.

    The search reads the set's integer literal codes (ClauseSet.codes), and
    tautologies are dropped on the clause bitmasks.  It keeps only codes,
    parents and pivots; Literal, Clause and DeductionStep objects are built
    only for the steps returned, when they are first read.  An input step
    holds the set's Clause, in its written literal order: the caller's, for
    a set built from Clauses.  The time budget starts when refute is called.
    """
    monotonic = time.monotonic
    deadline = None if max_seconds is None else monotonic() + max_seconds
    if goal is not None:
        s = s.union(to_clausal_form(Not(goal)))
    if len(s) == 0:
        raise ValueError("clause set is empty")

    names = s.names
    masks: list[int] = []  # per step: bitmask
    v = len(names) - 1  # the variable being eliminated

    def reached() -> str:
        variable = names[v] if v >= 0 else "{}"  # only {} has no variable
        return f"at variable {variable} with {len(masks)} clauses retained"

    def check_time() -> None:
        if deadline is not None and monotonic() > deadline:
            raise ResourceLimitError(f"time budget exhausted {reached()}")

    # A literal is coded 2 * (rank of its variable in name order) + negated:
    # integer order is Literal order and l ^ 1 is the complement of l.  A
    # clause is also a bitmask with bit l set for each of its literals.
    positive = (4 ** len(names) - 1) // 3  # bits 0, 2, 4, ...: the unnegated literals
    inputs = [(clause_lits, mask, k) for k, (clause_lits, mask) in enumerate(zip(s.codes, s.masks))
              if not mask & mask >> 1 & positive]  # drop tautologies
    if len(inputs) < len(s):
        # start at the largest variable a kept clause holds (-1 for none): a
        # variable that only dropped tautologies hold has an empty bucket
        used = 0
        for _, mask, _ in inputs:
            used |= mask
        v = (used.bit_length() - 1) >> 1
    check_time()  # each pass over the inputs, this one and the sort, is as long as the input
    inputs.sort(key=lambda entry: sorted(entry[0]))

    lits: list[tuple[int, ...]] = []  # per step: literal codes in stored order
    origins: list[tuple[int, int, int] | None] = []  # per step: (i, j, pivot code), None for an input
    occurs: list[list[int]] = [[] for _ in range(2 * len(names))]  # per literal: the steps holding it, ascending
    known: set[int] = set()  # the bitmasks of the steps
    sources: list[int] = []  # per input step: its clause's index in s

    def admit(clause_lits: tuple[int, ...], mask: int, origin: tuple[int, int, int] | None) -> int | None:
        # forward subsumption: D subsumes C when D's bits are all in C's; a
        # non-empty D then holds a literal of C (the empty clause ends the search)
        outside = ~mask
        for lit in clause_lits:
            for d in occurs[lit]:
                if not masks[d] & outside:
                    return None
        index = len(masks)
        if index >= max_clauses:
            raise ResourceLimitError(f"clause budget of {max_clauses} exhausted {reached()}")
        lits.append(clause_lits)
        masks.append(mask)
        origins.append(origin)
        known.add(mask)
        for lit in clause_lits:
            occurs[lit].append(index)
        return index

    def returned(verdict: str, order: list[int]) -> RefutationResult:
        def build() -> tuple[DeductionStep, ...]:
            # the steps in order, renumbered from 0: the only ones built as
            # objects; on UNSAT the last is {}
            literal = [Literal(name, negated) for name in names for negated in (False, True)]
            renumber = {old: new for new, old in enumerate(order)}
            steps = []
            for new, old in enumerate(order):
                origin = origins[old]
                if origin is None:
                    steps.append(DeductionStep(new, s.clauses[sources[old]]))
                else:
                    i, j, pivot = origin
                    clause = Clause([literal[lit] for lit in lits[old]])
                    steps.append(DeductionStep(new, clause, (renumber[i], renumber[j]), literal[pivot]))
            return tuple(steps)

        return RefutationResult._deferred(verdict, len(order) - 1 if verdict == UNSAT else None, build)

    for clause_lits, mask, k in inputs:
        # inlined, as in the partner loop: forward subsumption makes admission quadratic
        if deadline is not None and monotonic() > deadline:
            check_time()
        index = admit(clause_lits, mask, None)
        if index is not None:
            sources.append(k)
            if not clause_lits:
                return returned(UNSAT, [index])  # {} sorts first and subsumes every later input

    for v in range(v, -1, -1):
        # bucket v: the retained clauses on v with no bit above v's two literals;
        # its resolvents lack v and so fall into lower buckets, never this one
        above = 2 * v + 2
        clash = 3 << 2 * v
        positives = [k for k in occurs[2 * v] if not masks[k] >> above]
        negatives = [k for k in occurs[2 * v + 1] if not masks[k] >> above]
        # resolvent bitmask -> its least (i, j, pivot): a later candidate for
        # the same clause sorts after it and is never admitted
        first: dict[int, tuple[int, int, int]] = {}
        for p in positives:
            check_time()
            mask_p = masks[p]
            for n in negatives:
                if deadline is not None and monotonic() > deadline:  # inlined: the hottest loop
                    check_time()
                mask = (mask_p | masks[n]) & ~clash
                if mask & (mask >> 1) & positive or mask in known:
                    continue  # a tautology, or a clause already retained
                # i < j, and the pivot is v's literal as it occurs in clause i
                candidate = (p, n, 2 * v) if p < n else (n, p, 2 * v + 1)
                best = first.get(mask)
                if best is None or candidate < best:
                    first[mask] = candidate
        # candidates in the order of (sorted literals, parents, pivot); each
        # literal tuple is the one Clause.union builds: clause i without the
        # pivot, then the literals of clause j it does not already hold
        candidates = []
        for mask, origin in first.items():
            if deadline is not None and monotonic() > deadline:  # inlined, as in the partner loop
                check_time()
            i, j, pivot = origin
            mask_i = masks[i]
            complement = pivot ^ 1
            clause_lits = tuple([lit for lit in lits[i] if lit != pivot]
                                + [lit for lit in lits[j] if lit != complement and not mask_i >> lit & 1])
            candidates.append((sorted(clause_lits), origin, clause_lits, mask))
        candidates.sort()
        for _, origin, clause_lits, mask in candidates:
            check_time()
            index = admit(clause_lits, mask, origin)
            if index is not None and not clause_lits:
                return returned(UNSAT, _backtrace(origins, index))
    return returned(SATURATED, list(range(len(masks))))


def _backtrace(origins: list[tuple[int, int, int] | None], empty_index: int) -> list[int]:
    """The steps the empty clause derives from, itself included, ascending."""
    keep: set[int] = set()
    stack = [empty_index]
    while stack:
        k = stack.pop()
        if k in keep:
            continue
        keep.add(k)
        origin = origins[k]
        if origin is not None:
            stack += origin[:2]
    return sorted(keep)


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
