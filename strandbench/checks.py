"""Oracles that judge the program's answers without using its code.

A clause is a frozenset of nonzero ints: v for variable v, -v for its
negation.  Propositional verdicts come from the truth table, refutations are
re-derived step by step, and hybridization verdicts of unbound compiled
clause sets come from literal occurrence counts alone.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial
from typing import Iterable, Sequence

Clause = frozenset  # of nonzero ints


class WrongAnswer(Exception):
    """The program's answer contradicts an oracle."""


class NoVerdict(Exception):
    """The program ended without a verdict: an error exit or a spent budget."""


# --- truth table -------------------------------------------------------------


def satisfiable(clauses: Iterable[Clause], n: int) -> bool:
    """Truth table over variables 1..n, one bit per assignment."""
    assignments = 1 << n
    models = (1 << assignments) - 1
    true_where = {}
    for v in range(1, n + 1):
        pos = sum(1 << a for a in range(assignments) if a >> (v - 1) & 1)
        true_where[v], true_where[-v] = pos, models & ~pos
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            satisfied |= true_where[lit]
        models &= satisfied
    return models != 0


# --- refutations -------------------------------------------------------------

# A step is (clause, parents, pivot): parents is None for an input step, and
# the pivot is the literal resolved away as it occurs in the first parent.
Step = tuple


def check_refutation(inputs: Iterable[Clause], steps: Sequence[Step], root: int) -> None:
    """Each step is an input clause or the resolvent of two earlier steps on
    its pivot, and the root step is the empty clause."""
    inputs = set(inputs)
    if not 0 <= root < len(steps) or steps[root][0]:
        raise WrongAnswer(f"root step {root} is not the empty clause")
    for k, (clause, parents, pivot) in enumerate(steps):
        if parents is None:
            if clause not in inputs:
                raise WrongAnswer(f"step {k} is marked as input but is not an input clause")
            continue
        i, j = parents
        if not (0 <= i < k and 0 <= j < k):
            raise WrongAnswer(f"step {k} has parents {parents} that do not precede it")
        first, second = steps[i][0], steps[j][0]
        if pivot is None or pivot not in first or -pivot not in second:
            raise WrongAnswer(f"step {k}: pivot {pivot} is not complementary across its parents")
        if clause != (first - {pivot}) | (second - {-pivot}):
            raise WrongAnswer(f"step {k} is not the resolvent of steps {i} and {j} on {pivot}")


def tree_size(steps: Sequence[Step], root: int) -> int:
    """Nodes of the refutation drawn as a tree: shared steps count once per use."""
    size = [1] * len(steps)
    for k, (_, parents, _) in enumerate(steps):
        if parents is not None:
            size[k] = 1 + size[parents[0]] + size[parents[1]]
    return size[root]


# --- hybridization of unbound compiled clause sets -----------------------------


def _occurrences(clauses: Iterable[Clause]) -> dict[int, tuple[int, int]]:
    counts = Counter(lit for clause in clauses for lit in clause)
    variables = {abs(lit) for lit in counts}
    return {v: (counts[v], counts[-v]) for v in variables}


def matching_count(plain: int, starred: int) -> int:
    """Matchings of the complete bipartite graph between plain and starred sites."""
    return sum(comb(plain, k) * comb(starred, k) * factorial(k) for k in range(min(plain, starred) + 1))


def state_count(clauses: Iterable[Clause]) -> int:
    """Reachable states of the compiled system: every matching, per variable."""
    total = 1
    for plain, starred in _occurrences(clauses).values():
        total *= matching_count(plain, starred)
    return total


def balanced(clauses: Iterable[Clause]) -> bool:
    """A fully bound state is reachable exactly when every variable occurs as
    often positive as negative."""
    return all(plain == starred for plain, starred in _occurrences(clauses).values())


def surplus(clauses: Iterable[Clause]) -> int:
    """Sites left free by a largest reachable matching."""
    return sum(abs(plain - starred) for plain, starred in _occurrences(clauses).values())


def check_compare(clauses: Sequence[Clause], n: int, max_states: int, code: int, stdout: str) -> bool:
    """Judge `strandprover compare` output; True when both engines decided.

    An engine may report INDETERMINATE only when its budget truly ran out,
    which for hybridization means more than max_states reachable states.
    Raises NoVerdict when the output holds no verdict (a failure, not a
    wrong answer).
    """
    lines = stdout.splitlines()
    if len(lines) < 3 or not lines[0].startswith("resolution: ") or not lines[1].startswith("hybridization: "):
        raise NoVerdict(f"no verdict in output (exit {code})")
    words = {"UNSAT": True, "SATISFIABLE": False, "INDETERMINATE": None}
    res, hyb = (words.get(line.split(": ", 1)[1], "?") for line in lines[:2])
    if res == "?" or hyb == "?":
        raise WrongAnswer(f"unreadable verdict lines {lines[:2]}")
    if res is None:
        raise NoVerdict("resolution gave up on its budget")
    if res != (not satisfiable(clauses, n)):
        raise WrongAnswer(f"resolution says {lines[0]!r}, the truth table disagrees")
    if hyb is None:
        if state_count(clauses) <= max_states:
            raise WrongAnswer(f"hybridization gave up, but only {state_count(clauses)} states are reachable")
        if code != 2 or lines[-1] != "INDETERMINATE":
            raise WrongAnswer(f"an undecided run must end INDETERMINATE with exit 2, got exit {code}")
        return False
    if hyb != balanced(clauses):
        raise WrongAnswer(f"hybridization says {lines[1]!r}, the occurrence balance disagrees")
    expected_code = 0 if res == hyb else 3
    if code != expected_code:
        raise WrongAnswer(f"exit {code}, expected {expected_code}")
    free = sum(line.startswith("free site ") for line in lines)
    if code == 3 and free != surplus(clauses):
        raise WrongAnswer(f"{free} free sites listed, {surplus(clauses)} stay free")
    return True


# --- toehold systems -----------------------------------------------------------

# states of one hairpin and one four-way copy; disjoint copies multiply
HAIRPIN_STATES = 22
FOURWAY_STATES = 8


def toehold_expectation(hairpins: int, fourways: int) -> tuple[int, int]:
    """(states, terminal states) of disjoint hairpin and four-way copies.

    A four-way copy never stops moving (its toeholds bind and unbind), so
    only systems without one have a terminal state.
    """
    return HAIRPIN_STATES**hairpins * FOURWAY_STATES**fourways, int(fourways == 0)


def replay(initial: frozenset, moves: Iterable[tuple[frozenset, frozenset]]) -> frozenset:
    """Apply (removed, added) edge sets in turn; each must fit the state it meets."""
    current = frozenset(initial)
    for k, (removed, added) in enumerate(moves, start=1):
        if not removed <= current or added & current:
            raise WrongAnswer(f"move {k} of a trace does not apply")
        current = (current - removed) | added
    return current
