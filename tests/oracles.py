"""Brute-force semantic oracles and seeded random generators.

Everything here judges formulas and clause sets by direct truth-table
enumeration and builds processes by explicit construction, independent of
the library's conversion, search, and parsing code, so library results can
be cross-checked from first principles.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from functools import partial
from typing import Iterable, Iterator

from strandprover.fixtures import FOURWAY, HAIRPIN
from strandprover.graph import Edge, Site, StrandGraph, from_process
from strandprover.logic import (
    _ATOM_RE,
    And,
    Clause,
    ClauseSet,
    Formula,
    Iff,
    ImpliedBy,
    Implies,
    MAX_CLAUSES,
    Literal,
    Not,
    Or,
    ParseError,
    Var,
)
from strandprover.process import (
    Domain,
    Process,
    RuleError,
    Strand,
    antiparallel_adjacent,
    bind,
    displace,
    format_domain,
    migrate_ring,
    unbind,
)

Assignment = dict[str, bool]


# --- truth-table semantics ---------------------------------------------------


def eval_formula(f: Formula, assignment: Assignment) -> bool:
    if isinstance(f, Var):
        return assignment[f.name]
    if isinstance(f, Not):
        return not eval_formula(f.arg, assignment)
    if isinstance(f, And):
        return all(eval_formula(g, assignment) for g in f.args)
    if isinstance(f, Or):
        return any(eval_formula(g, assignment) for g in f.args)
    if isinstance(f, Implies):
        return (not eval_formula(f.lhs, assignment)) or eval_formula(f.rhs, assignment)
    if isinstance(f, ImpliedBy):
        return eval_formula(f.lhs, assignment) or not eval_formula(f.rhs, assignment)
    if isinstance(f, Iff):
        return eval_formula(f.lhs, assignment) == eval_formula(f.rhs, assignment)
    raise TypeError(f"unknown formula node {type(f).__name__}")


def eval_literal(lit: Literal, assignment: Assignment) -> bool:
    value = assignment[lit.variable]
    return not value if lit.negated else value


def eval_clause(clause: Clause, assignment: Assignment) -> bool:
    return any(eval_literal(lit, assignment) for lit in clause)


def eval_clause_set(s: ClauseSet, assignment: Assignment) -> bool:
    return all(eval_clause(c, assignment) for c in s)


def formula_variables(f: Formula) -> tuple[str, ...]:
    seen: dict[str, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, Var):
            seen.setdefault(g.name)
        elif isinstance(g, Not):
            walk(g.arg)
        elif isinstance(g, (And, Or)):
            for h in g.args:
                walk(h)
        elif isinstance(g, (Implies, ImpliedBy, Iff)):
            walk(g.lhs)
            walk(g.rhs)
        else:
            raise TypeError(f"unknown formula node {type(g).__name__}")

    walk(f)
    return tuple(sorted(seen))


def assignments(variables: Iterable[str]) -> Iterator[Assignment]:
    names = sorted(set(variables))
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def formula_satisfiable(f: Formula) -> bool:
    return any(eval_formula(f, a) for a in assignments(formula_variables(f)))


def clause_set_satisfiable(s: ClauseSet) -> bool:
    return any(eval_clause_set(s, a) for a in assignments(s.variables()))


def is_consequence(premises: Iterable[Clause], conclusion: Clause) -> bool:
    """True when every assignment satisfying all premises satisfies the
    conclusion, over the union of their variables."""
    premises = list(premises)
    names = {lit.variable for c in premises for lit in c}
    names |= {lit.variable for lit in conclusion}
    return all(
        eval_clause(conclusion, a)
        for a in assignments(names)
        if all(eval_clause(c, a) for c in premises)
    )


# --- reference implementations -----------------------------------------------


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Formula tokens read one character at a time: the reference for the
    library's single-regex tokenizer, with the same tokens and errors."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _ATOM_RE.match(text, i)
        if m:
            tokens.append(("atom", m.group(), i))
            i = m.end()
            continue
        for op in ("<->", "->", "<-"):
            if text.startswith(op, i):
                tokens.append(("op", op, i))
                i += len(op)
                break
        else:
            if ch in "~&|()":
                tokens.append(("op", ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _bodies(f: Formula, positive: bool, memo: dict) -> set[frozenset[tuple[str, bool]]]:
    """Clause bodies of f, or of ~f when positive is false, in one walk.

    A conditional is read as its definition, Not flips the polarity, and the
    operands of a connective that acts as a conjunction are concatenated,
    those of one that acts as a disjunction distributed.  A literal is a
    (name, negated) pair, which sorts as Literal does.  An equivalence
    needs both polarities of its sides; memo, keyed by node identity and
    polarity, keeps nested equivalences from walking a subtree more than
    twice."""
    key = (id(f), positive)
    if key in memo:
        return memo[key]
    match f:
        case Var(name=name):
            out = {frozenset([(name, not positive)])}
        case Not(arg=arg):
            out = _bodies(arg, not positive, memo)
        case And(args=args) | Or(args=args):
            out = _join(isinstance(f, And) == positive, [_bodies(a, positive, memo) for a in args])
        case Implies(lhs=a, rhs=b) | ImpliedBy(lhs=b, rhs=a):  # ~a | b
            out = _join(not positive, [_bodies(a, not positive, memo), _bodies(b, positive, memo)])
        case Iff(lhs=lhs, rhs=rhs):  # (~lhs | rhs) & (lhs | ~rhs)
            l_pos, l_neg = _bodies(lhs, True, memo), _bodies(lhs, False, memo)
            r_pos, r_neg = _bodies(rhs, True, memo), _bodies(rhs, False, memo)
            if positive:
                out = _join(True, [_join(False, [l_neg, r_pos]), _join(False, [l_pos, r_neg])])
            else:
                out = _join(False, [_join(True, [l_pos, r_neg]), _join(True, [l_neg, r_pos])])
        case _:
            raise TypeError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def _join(conjunction: bool, parts: list[set[frozenset]]) -> set[frozenset]:
    """Concatenate the parts of a conjunction, or distribute a disjunction
    over them, once their sizes show the result stays within MAX_CLAUSES."""
    size = sum(map(len, parts)) if conjunction else math.prod(map(len, parts))
    if size > MAX_CLAUSES:
        raise ParseError(f"clausal form would exceed {MAX_CLAUSES} clauses")
    if conjunction:
        return set().union(*parts)
    acc = {frozenset()}
    for part in parts:
        acc = {a | b for a in acc for b in part}
    return acc


def clausal_form(f: Formula) -> ClauseSet:
    """The clausal form of f built from sets of (name, negated) pairs: the
    reference for the library's walk on literal bitmasks, with the same
    clauses in the same order and the same refusal."""
    unique = sorted(tuple(sorted(body)) for body in _bodies(f, True, {}))
    names = sorted({name for body in unique for name, _ in body})
    rank = {name: 2 * k for k, name in enumerate(names)}
    return ClauseSet._coded(names, [[rank[name] + negated for name, negated in body] for body in unique])


def unbindable_sites(g: StrandGraph) -> frozenset[Site]:
    """Sites no admissible edge touches; they stay free in every reachable state."""
    return frozenset(s for s, others in zip(g._index.sites, g._index.partners) if not others)


def object_shape(p: Process) -> dict:
    """The strand graph of p by definition, on Site, Edge and Domain objects:
    each StrandGraph field from_process gives, each field of its index, and
    the graph JSON, as name -> value.  Edges are the complementary site
    pairs, sorted; a component is the edges of a vertex-connected part,
    grouped by name in order of first edge."""
    domains = tuple(tuple(d._replace(bond=None) for d in strand.domains) for strand in p.strands)
    sites = [Site(v, n) for v, row in enumerate(domains, start=1) for n in range(1, len(row) + 1)]
    label = {a: domains[a.vertex - 1][a.position - 1] for a in sites}
    edges = sorted(Edge(a, b) for a, b in itertools.combinations(sites, 2) if label[a].matches(label[b]))
    ids = {a: k for k, a in enumerate(sites)}
    ends = [(ids[e.a], ids[e.b]) for e in edges]
    partners: list[dict[int, int]] = [{} for _ in sites]
    for r, (s, t) in enumerate(ends):
        partners[s][t] = partners[t][s] = r
    part = {v: frozenset([v]) for v in range(1, len(domains) + 1)}
    for e in edges:
        joined = part[e.a.vertex] | part[e.b.vertex]
        part.update(dict.fromkeys(joined, joined))
    groups: dict[frozenset, dict[tuple[str, bool], list[int]]] = {}  # component -> (name, toehold) -> ranks
    for r, e in enumerate(edges):
        groups.setdefault(part[e.a.vertex], {}).setdefault((label[e.a].name, label[e.a].toehold), []).append(r)
    tables = [[(sum(1 << r for r in ranks), ranks) for ranks in names.values()] for names in groups.values()]
    keys: dict[tuple[str, bool], int] = {}
    labels = [2 * keys.setdefault((d.name, d.toehold), len(keys)) + d.complemented for row in domains for d in row]
    bonds: dict[str, list[Site]] = {}
    for (v, n), d in p.occurrences():
        if d.bond is not None:
            bonds.setdefault(d.bond, []).append(Site(v, n))
    current = frozenset(Edge(*ends) for ends in bonds.values())
    types: dict[tuple[Domain, ...], int] = {}
    colours = tuple(types.setdefault(row, len(types) + 1) for row in domains)
    toeholds = [label[e.a].toehold for e in edges]

    def pairs(edges: Iterable[Edge]) -> list:
        return [[list(e.a), list(e.b)] for e in edges]

    return {
        "domains": domains, "current": current, "lengths": tuple(map(len, domains)), "colours": colours,
        "admissible": frozenset(edges),
        "sites": sites, "labels": labels, "edges": edges, "rank": {e: r for r, e in enumerate(edges)},
        "toehold_labels": frozenset(2 * k + c for (_, toehold), k in keys.items() if toehold for c in (0, 1)),
        "ends": ends, "toeholds": toeholds, "partners": partners,
        "anchors": [sum(1 << f for f, x in enumerate(edges) if x != e and antiparallel_adjacent(e, x)) for e in edges],
        "components": [(sum(1 << r for _, ranks in table for r in ranks), table) for table in tables],
        "json": {
            "vertices": [{"id": v, "length": len(row), "colour": colours[v - 1], "domains": list(map(format_domain, row))}
                         for v, row in enumerate(domains, start=1)],
            "admissible": pairs(edges), "toehold": toeholds, "current": pairs(sorted(current)),
        },
    }


def toehold_system(rng: random.Random, hairpins: int, fourways: int) -> str:
    """Process text of disjoint hairpin and four-way copies, each domain and
    bond renamed per copy, the strands shuffled."""
    strands = []
    for k in range(hairpins + fourways):
        for part in (HAIRPIN if k < hairpins else FOURWAY).split("|"):
            tokens = []
            for token in part.strip()[1:-1].split():
                head, bang, bond = token.partition("!")
                name = head.rstrip("^*")
                tokens.append(f"{name}_{k}{head[len(name):]}{bang}{bond and bond + '_' + str(k)}")
            strands.append("<" + " ".join(tokens) + ">")
    rng.shuffle(strands)
    return " | ".join(strands)


def greedy_free_sites(g: StrandGraph) -> list[Site]:
    """The sites of a bond-free graph that the greedy binding leaves free, in
    Site order: each site, while free, binds the first later free site whose
    label matches its own.  Read off the labels pair by pair."""
    sites = g.sites()
    bound: set[Site] = set()
    for k, s in enumerate(sites):
        if s in bound:
            continue
        for t in sites[k + 1 :]:
            if t not in bound and g.label(s).matches(g.label(t)):
                bound.update((s, t))
                break
    return [s for s in sites if s not in bound]


def forward_greedy_chain(labels: list[int]) -> list[tuple[int, int]]:
    """The greedy chain on one row of integer labels, code ^ 1 the complement
    of code: each site in order, if free, takes the first later free site of
    the complementary label.  Pairs of site ids in order of their first site;
    O(n^2), a scan per site."""
    bound = [False] * len(labels)
    chain = []
    for s, label in enumerate(labels):
        if bound[s]:
            continue
        for t in range(s + 1, len(labels)):
            if not bound[t] and labels[t] == label ^ 1:
                bound[s] = bound[t] = True
                chain.append((s, t))
                break
    return chain


def is_tautology(clause: Clause) -> bool:
    """The clause holds a literal and its complement."""
    pairs = frozenset((lit.variable, lit.negated) for lit in clause)
    return any((name, not negated) in pairs for name, negated in pairs)


def subsumes(d: Clause, c: Clause) -> bool:
    """Every literal of d is a literal of c."""
    return frozenset((lit.variable, lit.negated) for lit in d) <= frozenset((lit.variable, lit.negated) for lit in c)


def without_tautologies(s: ClauseSet) -> frozenset[frozenset[tuple[str, bool]]]:
    """The clauses of s, tautologies dropped, as sets of (variable, negated)."""
    return frozenset(frozenset((lit.variable, lit.negated) for lit in c) for c in s if not is_tautology(c))


# --- seeded random generators ------------------------------------------------

VARIABLE_POOL = ("P", "Q", "R", "U", "V", "W", "X", "Y")


def random_formula(rng: random.Random, variables: int = 4, depth: int = 3) -> Formula:
    names = VARIABLE_POOL[: max(1, variables)]
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.choice(names))
    kind = rng.choice(("not", "and", "or", "implies", "impliedby", "iff"))
    if kind == "not":
        return Not(random_formula(rng, variables, depth - 1))
    if kind in ("and", "or"):
        arity = rng.randint(2, 3)
        args = [random_formula(rng, variables, depth - 1) for _ in range(arity)]
        return (And if kind == "and" else Or)(*args)
    lhs = random_formula(rng, variables, depth - 1)
    rhs = random_formula(rng, variables, depth - 1)
    return {"implies": Implies, "impliedby": ImpliedBy, "iff": Iff}[kind](lhs, rhs)


def random_clause(rng: random.Random, variables: int = 4, max_len: int = 3) -> Clause:
    names = VARIABLE_POOL[: max(1, variables)]
    size = rng.randint(1, max_len)
    return Clause(
        Literal(rng.choice(names), rng.random() < 0.5) for _ in range(size)
    )


def random_clause_set(
    rng: random.Random, variables: int = 4, clauses: int = 8, max_len: int = 3
) -> ClauseSet:
    count = rng.randint(1, clauses)
    return ClauseSet(random_clause(rng, variables, max_len) for _ in range(count))


DOMAIN_POOL = ("a", "b", "c", "d")


def random_process(
    rng: random.Random,
    strands: int = 3,
    max_len: int = 3,
    bond_fraction: float = 0.5,
) -> Process:
    """A well-formed random process: random strands over a small domain
    alphabet (toehold flag fixed per name), then bonds drawn over disjoint
    complementary occurrence pairs."""
    toehold = {name: rng.random() < 0.5 for name in DOMAIN_POOL}
    rows: list[list[Domain]] = []
    for _ in range(rng.randint(1, strands)):
        row = []
        for _ in range(rng.randint(1, max_len)):
            name = rng.choice(DOMAIN_POOL)
            row.append(Domain(name, rng.random() < 0.5, toehold[name]))
        rows.append(row)
    # candidate pairs of complementary occurrences
    occurrences = [
        (i, j, d) for i, row in enumerate(rows) for j, d in enumerate(row)
    ]
    pairs = [
        (p, q)
        for k, (i1, j1, d1) in enumerate(occurrences)
        for (i2, j2, d2) in occurrences[k + 1 :]
        for p, q in [((i1, j1), (i2, j2))]
        if d1.name == d2.name and d1.complemented != d2.complemented
    ]
    rng.shuffle(pairs)
    used: set[tuple[int, int]] = set()
    counter = 0
    for p, q in pairs:
        if p in used or q in used or rng.random() >= bond_fraction:
            continue
        used.update((p, q))
        counter += 1
        name = f"r{counter}"
        for i, j in (p, q):
            rows[i][j] = Domain(
                rows[i][j].name, rows[i][j].complemented, rows[i][j].toehold, name
            )
    return Process(tuple(Strand(tuple(row)) for row in rows))


def branch_migration(n: int) -> str:
    """Process text of a toehold-mediated branch migration along n domains.

    Strand 3 is held on strand 2 by the toehold t and displaces strand 1 one
    domain at a time: a chain of n + 1 states, of depth n, plus the state
    with the toehold unbound.  Small, but deeper than any fixed depth bound."""
    a = " ".join(f"x{k}!b{k}" for k in range(1, n + 1))
    b = " ".join(f"x{k}*!b{k}" for k in range(n, 0, -1))
    c = " ".join(f"x{k}" for k in range(1, n + 1))
    return f"<{a}> | <{b} t^*!h> | <t^!h {c}>"


def rule_successors(p: Process) -> Iterator[Process]:
    """Every process that one of process.py's four rules makes of p: each
    bind, unbind, displace and migrate_ring tried on every locator pair,
    bond, (free locator, bond) pair and cyclic order of bonds, and kept
    where the rule raises no RuleError.  No ring is too long.  A ring's
    bonds share one name, so rings are tried name by name."""
    locators = [loc for loc, _ in p.occurrences()]
    bonds = p.bonds()
    attempts = [partial(bind, p, a, b) for a, b in itertools.combinations(locators, 2)]
    attempts += [partial(unbind, p, bond) for bond in bonds]
    attempts += [partial(displace, p, loc, bond) for loc in locators for bond in bonds]
    by_name: dict[str, list[str]] = {}
    for bond in bonds:
        by_name.setdefault(p.domain_at(p.bond_ends(bond)[0]).name, []).append(bond)
    for group in by_name.values():
        for k in range(2, len(group) + 1):
            for first, *rest in itertools.combinations(group, k):
                attempts += [partial(migrate_ring, p, (first, *order)) for order in itertools.permutations(rest)]
    for attempt in attempts:
        try:
            yield attempt()
        except RuleError:
            continue


def process_closure(p: Process, max_states: int = 2_000) -> tuple[dict[int, int], set[int]]:
    """Breadth-first closure of p under process.py's rules (rule_successors),
    each state keyed by its strand graph's edge mask (from_process): every
    state's shortest depth, and the states no rule applies to.
    AssertionError once more than max_states states are found."""
    start = from_process(p)._mask
    depths = {start: 0}
    terminals: set[int] = set()
    queue = deque([(p, start)])
    while queue:
        q, key = queue.popleft()
        terminal = True
        for r in rule_successors(q):
            terminal = False
            nxt = from_process(r)._mask
            if nxt not in depths:
                depths[nxt] = depths[key] + 1
                assert len(depths) <= max_states, f"more than {max_states} states"
                queue.append((r, nxt))
        if terminal:
            terminals.add(key)
    return depths, terminals


# --- certificates --------------------------------------------------------------
#
# A refutation or a model checked here is checked on plain (variable, negated)
# pairs and truth values: nothing below calls the resolution engine's code.


def _pairs(clause: Clause) -> set[tuple[str, bool]]:
    return {(lit.variable, lit.negated) for lit in clause}


def _check_steps(inputs: ClauseSet, steps) -> None:
    """Fail unless each input step is a clause of inputs and each resolvent
    is its two earlier parents minus the pivot and its complement."""
    allowed = {frozenset(_pairs(c)) for c in inputs}
    for index, step in enumerate(steps):
        assert step.index == index
        body = _pairs(step.clause)
        if step.parents is None:
            assert frozenset(body) in allowed, f"step {index}: {step.clause} is not an input"
            continue
        i, j = step.parents
        assert i < index and j < index, f"step {index}: parents {i}, {j} are not earlier"
        name, negated = step.pivot.variable, step.pivot.negated
        left, right = _pairs(steps[i].clause), _pairs(steps[j].clause)
        assert (name, negated) in left and (name, not negated) in right, f"step {index}: no pivot pair"
        assert body == (left - {(name, negated)}) | (right - {(name, not negated)}), (
            f"step {index}: {step.clause} is not the resolvent of steps {i} and {j}")


def check_refutation(inputs: ClauseSet, result) -> None:
    """Fail unless result's steps refute inputs: each input step is a clause
    of inputs, each resolvent is its two earlier parents minus the pivot and
    its complement, and the chain ends in {}."""
    steps = result.steps
    _check_steps(inputs, steps)
    assert result.empty_step == len(steps) - 1 and not steps[-1].clause.literals


def check_model(inputs: ClauseSet, model) -> None:
    """Fail unless model gives every variable of inputs one value, in name
    order, and satisfies every clause of inputs."""
    assert model is not None, "a satisfiable result carries no model"
    assert [lit.variable for lit in model] == sorted(inputs.variables()), "the model is not one literal per variable"
    assignment = {lit.variable: not lit.negated for lit in model}
    assert eval_clause_set(inputs, assignment), "the model falsifies an input clause"


def check_certificate(inputs: ClauseSet, result) -> None:
    """An UNSAT result must refute inputs step by step; a satisfiable one
    must log only sound steps and carry a model of inputs."""
    if result.is_unsat:
        check_refutation(inputs, result)
    else:
        _check_steps(inputs, result.steps)
        check_model(inputs, result.model)


# --- hard families ---------------------------------------------------------------


def pigeonhole(holes: int) -> ClauseSet:
    """PHP(holes + 1 -> holes): holes + 1 pigeons, each in some hole, and no
    two in one hole; unsatisfiable, and every resolution refutation is
    exponential in holes (Haken, TCS 1985).  Variable p<i>_<j> says that
    pigeon i sits in hole j."""
    pigeons = range(holes + 1)

    def p(i: int, j: int, negated: bool = False) -> Literal:
        return Literal(f"p{i}_{j}", negated)

    somewhere = [Clause(p(i, j) for j in range(holes)) for i in pigeons]
    apart = [Clause([p(i, j, True), p(k, j, True)]) for j in range(holes) for i in pigeons for k in pigeons if i < k]
    return ClauseSet(somewhere + apart)
