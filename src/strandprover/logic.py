"""Propositional formulas, literals, clauses, and conversion to clausal form."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class ParseError(ValueError):
    """Malformed formula, clause, or DIMACS text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DIMACS_HEADER = re.compile(r"p\s+cnf\s+([0-9]+)\s+([0-9]+)")  # the variable and clause counts


class Formula:
    """Base class of the formula AST.  Nodes are frozen dataclasses: two are
    equal when they are of one type with equal operands, equal nodes hash
    equal, and assigning to a field raises dataclasses.FrozenInstanceError."""

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _ATOM_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, init=False)
class _Nary(Formula):
    """Shared shape of And/Or: two or more operands, order preserved."""

    args: tuple[Formula, ...]

    def __init__(self, *args: Formula):
        if len(args) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "args", args)


class And(_Nary):
    """args[0] & args[1] & ..."""


class Or(_Nary):
    """args[0] | args[1] | ..."""


@dataclass(frozen=True)
class _Arrow(Formula):
    """Shared shape of the three conditional connectives."""

    lhs: Formula
    rhs: Formula


class Implies(_Arrow):
    """lhs -> rhs"""


class ImpliedBy(_Arrow):
    """lhs <- rhs"""


class Iff(_Arrow):
    """lhs <-> rhs"""


# --- formula text ------------------------------------------------------------
#
# Grammar, with OP any connective of _BINARY:
#   formula := unary (OP unary)*
#   unary   := NAME | '~' unary | '(' formula ')'
# A connective of higher binding strength binds tighter.  A run of one '&' or
# '|' is one node; the three arrows bind alike and take two operands, so no
# arrow chains with another.

_BINARY = {"<->": (Iff, 0), "->": (Implies, 0), "<-": (ImpliedBy, 0), "|": (Or, 1), "&": (And, 2)}
_NO_CONNECTIVE = (None, -1)  # what _BINARY gives any other token: it binds below every floor

# Deepest run of nested negations and parentheses the parser accepts.  Parsing,
# clausal form and printing all recurse on nesting, so the bound keeps every
# one of them well inside Python's default recursion limit.
MAX_NESTING = 100


# One token and the whitespace before it: an atom, an operator, or any other
# character, which is an error.  Tokens are contiguous, so findall walks them
# and each token's position follows from the lengths read before it.
_TOKEN_RE = re.compile(rf"(\s*)(?:({_ATOM_RE.pattern})|(<->|->|<-|[~&|()])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    for space, atom, op, bad in _TOKEN_RE.findall(text):
        pos += len(space)
        if bad:
            raise ParseError(f"unexpected character {bad!r}", pos)
        if atom:
            tokens.append(("atom", atom, pos))
            pos += len(atom)
        else:
            tokens.append(("op", op, pos))
            pos += len(op)
    return tokens


class _FormulaParser:
    def __init__(self, text: str):
        # the end sentinel matches no operator, so no lookahead checks for it
        self.tokens = _tokenize(text) + [("end", "", len(text))]
        self.pos = 0
        self.depth = 0
        self.variables: dict[str, Var] = {}  # one node per name, validated once

    def _take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] == "end":
            raise ParseError("unexpected end of formula", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        if len(self.tokens) == 1:
            raise ParseError("empty formula")
        f = self._binary(0)
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return f

    def _binary(self, floor: int) -> Formula:
        """Operands joined by connectives that bind at least as tightly as floor."""
        left = self._unary()
        node, strength = _BINARY.get(self.tokens[self.pos][1], _NO_CONNECTIVE)
        while strength >= floor:
            joined, run = node, strength
            parts = [left]
            while strength == run:
                if len(parts) == 2 and issubclass(joined, _Arrow):
                    raise ParseError("conditionals do not chain; add parentheses", self.tokens[self.pos][2])
                self.pos += 1
                parts.append(self._binary(run + 1))
                node, strength = _BINARY.get(self.tokens[self.pos][1], _NO_CONNECTIVE)
            left = joined(*parts)
        return left

    def _unary(self) -> Formula:
        """A variable, a negation or a parenthesised formula."""
        kind, value, pos = self._take()
        if kind == "atom":
            var = self.variables.get(value)
            if var is None:
                var = self.variables[value] = Var(value)
            return var
        if value != "~" and value != "(":
            raise ParseError(f"unexpected {value!r}", pos)
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        if value == "~":
            f = Not(self._unary())
        else:
            f = self._binary(0)
            closing = self._take()
            if closing[1] != ")":
                raise ParseError(f"expected ')', found {closing[1]!r}", closing[2])
        self.depth -= 1
        return f


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises ParseError with the offending position."""
    return _FormulaParser(text).parse()


# Separator and binding strength of each connective printed between operands;
# a variable or a negation binds tighter than any of them.
_INFIX = {node: (f" {op} ", strength) for op, (node, strength) in _BINARY.items()}
_TIGHTEST = 1 + max(strength for _, strength in _INFIX.values())


def _fmt(f: Formula) -> tuple[str, int]:
    match f:
        case Var(name=name):
            return name, _TIGHTEST
        case Not(arg=arg):
            text, prec = _fmt(arg)
            if prec < _TIGHTEST:
                text = f"({text})"
            return "~" + text, _TIGHTEST
        case _Nary() | _Arrow():
            sep, own = _INFIX[type(f)]
            parts = []
            for operand in f.args if isinstance(f, _Nary) else (f.lhs, f.rhs):
                text, prec = _fmt(operand)
                # equal precedence is parenthesized so the tree round-trips
                parts.append(f"({text})" if prec <= own else text)
            return sep.join(parts), own
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Render f so that parse_formula(format_formula(f)) == f."""
    return _fmt(f)[0]


# --- literals, clauses, clause sets -----------------------------------------


class Literal(NamedTuple):
    """A variable or its negation; it compares, hashes and sorts as the
    tuple (variable, negated)."""

    variable: str
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.variable, not self.negated)

    def __str__(self) -> str:
        return ("~" if self.negated else "") + self.variable

    @classmethod
    def parse(cls, token: str) -> "Literal":
        negated = token.startswith("~")
        name = token[1:] if negated else token
        if not _ATOM_RE.fullmatch(name):
            raise ParseError(f"invalid literal {token!r}")
        return cls(name, negated)


class Clause:
    """A duplicate-free set of literals, read as their disjunction.

    Equality and hashing follow set semantics; the first-seen literal order is
    kept so clauses derived from text remember how they were written.  The
    empty clause Clause() stands for falsity.
    """

    __slots__ = ("literals", "_set")

    def __init__(self, literals: Iterable[Literal] = ()):
        seen: list[Literal] = []
        sset: set[Literal] = set()
        for lit in literals:
            if not isinstance(lit, Literal):
                raise TypeError(f"not a literal: {lit!r}")
            if lit not in sset:
                seen.append(lit)
                sset.add(lit)
        self.literals: tuple[Literal, ...] = tuple(seen)
        self._set = frozenset(sset)

    def __eq__(self, other):
        return isinstance(other, Clause) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self._set

    def is_empty(self) -> bool:
        return not self.literals

    def without(self, lit: Literal) -> "Clause":
        return Clause(l for l in self.literals if l != lit)

    def union(self, other: "Clause") -> "Clause":
        return Clause(self.literals + other.literals)

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}"

    def __repr__(self) -> str:
        return f"Clause([{', '.join(repr(l) for l in self.literals)}])"

    def __reduce__(self):
        # rebuilt from its literals, so every pickle protocol and copy works
        return Clause, (self.literals,)

    @classmethod
    def parse(cls, line: str) -> "Clause":
        return cls(Literal.parse(tok) for tok in line.split())


class ClauseSet:
    """A duplicate-free collection of clauses, read as their conjunction.

    Clause order is the insertion order (first occurrence wins), which later
    stages use when a stable reading of the input matters; equality ignores it.

    The set is held as integer codes, which refute, bind_chain and compare
    read: names are its variables in name order; per clause, codes holds its
    literals 2 * rank + negated in written order (the first occurrence wins)
    and masks the bitmask with bit l set for each literal l, on which clauses
    are told apart.  Clause objects are built only when asked for; a set
    built from Clauses keeps the caller's.
    """

    __slots__ = ("names", "codes", "masks", "_clauses")

    def __init__(self, clauses: Iterable[Clause] = ()):
        kept: dict[Clause, None] = {}  # the first of equal clauses stays the key
        for clause in clauses:
            if not isinstance(clause, Clause):
                raise TypeError(f"not a clause: {clause!r}")
            kept.setdefault(clause)
        self._clauses: tuple[Clause, ...] | None = tuple(kept)
        self.names: tuple[str, ...] = tuple(sorted({lit.variable for c in kept for lit in c.literals}))
        rank = {name: 2 * k for k, name in enumerate(self.names)}
        self.codes = tuple(tuple([rank[lit.variable] + lit.negated for lit in c.literals]) for c in kept)
        self.masks = tuple(sum(1 << lit for lit in row) for row in self.codes)

    @classmethod
    def _coded(cls, names: list[str], rows: list[list[int]]) -> "ClauseSet":
        """The set of these rows of codes 2 * k + negated, k a variable's
        index in names, coded again by name order: each row keeps the first
        of its equal literals, and the first of equal rows stays."""
        ranked = sorted(names)
        if ranked != names:
            rank = {name: 2 * r for r, name in enumerate(ranked)}
            recode = [rank[name] + negated for name in names for negated in (0, 1)]
            rows = [[recode[lit] for lit in row] for row in rows]
        seen: set[int] = set()
        codes, masks = [], []
        for row in rows:
            mask = 0
            for lit in row:
                mask |= 1 << lit
            if mask not in seen:
                seen.add(mask)
                codes.append(tuple(row if mask.bit_count() == len(row) else dict.fromkeys(row)))
                masks.append(mask)
        s = object.__new__(cls)
        s.names, s.codes, s.masks, s._clauses = tuple(ranked), tuple(codes), tuple(masks), None
        return s

    @property
    def clauses(self) -> tuple[Clause, ...]:
        if self._clauses is None:
            literal = [Literal(name, negated) for name in self.names for negated in (False, True)]
            self._clauses = tuple([Clause([literal[lit] for lit in row]) for row in self.codes])
        return self._clauses

    def __eq__(self, other):
        return isinstance(other, ClauseSet) and self.names == other.names and set(self.masks) == set(other.masks)

    def __hash__(self):
        return hash((self.names, frozenset(self.masks)))

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self.clauses

    def union(self, other: "ClauseSet") -> "ClauseSet":
        return ClauseSet(self.clauses + other.clauses)

    def variables(self) -> tuple[str, ...]:
        return self.names

    def __str__(self) -> str:
        return "\n".join(" ".join(str(l) for l in c) if c.literals else "{}" for c in self.clauses)

    def __repr__(self) -> str:
        return f"ClauseSet({list(self.clauses)!r})"

    @classmethod
    def parse(cls, text: str) -> "ClauseSet":
        """One clause per line, '~X' for negation, '#' starts a comment."""
        variables: dict[str, int] = {}
        known: dict[str, int] = {}  # literal token -> its code
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            for tok in tokens:
                if tok not in known:
                    negated = tok.startswith("~")
                    name = tok[1:] if negated else tok
                    if not _ATOM_RE.fullmatch(name):
                        raise ParseError(f"line {lineno}: invalid literal {tok!r}")
                    known[tok] = 2 * variables.setdefault(name, len(variables)) + negated
            rows.append([known[tok] for tok in tokens])
        return cls._coded(list(variables), rows)

    @classmethod
    def from_dimacs(cls, text: str) -> "ClauseSet":
        """DIMACS CNF; variable n becomes 'x<n>'.  A line starting with '%'
        ends the input, as in the SATLIB benchmark files.  Once the input is
        read, it must hold as many clauses as its header says, and no
        variable above the header's count."""
        variables: dict[str, int] = {}
        known: dict[str, int] = {}  # number token -> its code, -1 for a clause end
        rows: list[list[int]] = []
        current: list[int] = []
        header = None
        top = 0  # the highest variable number read
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line.startswith("%"):
                break
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                header = _DIMACS_HEADER.fullmatch(line)
                if not header:
                    raise ParseError(f"line {lineno}: bad DIMACS header {line!r}")
                continue
            for tok in line.split():
                if tok not in known:
                    try:
                        n = int(tok)
                    except ValueError:
                        raise ParseError(f"line {lineno}: non-numeric DIMACS literal") from None
                    top = max(top, abs(n))
                    known[tok] = -1 if n == 0 else 2 * variables.setdefault(f"x{abs(n)}", len(variables)) + (n < 0)
                lit = known[tok]
                if lit < 0:
                    rows.append(current)
                    current = []
                else:
                    current.append(lit)
        if header is None:
            raise ParseError("missing 'p cnf' header")
        if current:
            rows.append(current)
        declared_variables, declared_clauses = map(int, header.groups())
        if len(rows) != declared_clauses:
            raise ParseError(f"the header declares {declared_clauses} clauses, the input has {len(rows)}")
        if top > declared_variables:
            raise ParseError(f"variable {top} is above the header's {declared_variables}")
        return cls._coded(list(variables), rows)


# --- clausal form ------------------------------------------------------------

# Most clauses that clausal form may build; refute's default max_clauses reads
# it too.  Distribution multiplies the clause count with every disjunct,
# so each join checks its result's size before building it.
MAX_CLAUSES = 100_000


def _bodies(f: Formula, positive: bool, memo: dict, variables: dict[str, int]) -> set[int]:
    """Clause bodies of f, or of ~f when positive is false, in one walk.

    A body is an int with bit 2 * k + negated set for each literal of its
    clause, where k is the literal's name's index in variables, which numbers
    names as the walk first meets them.  A conditional is read as its
    definition, Not flips the polarity, and the operands of a connective
    that acts as a conjunction are concatenated, those of one that acts as
    a disjunction distributed.  An equivalence needs both polarities of its
    sides; memo, keyed by node identity and polarity, keeps nested
    equivalences from walking a subtree more than twice."""
    key = (id(f), positive)
    out = memo.get(key)
    if out is not None:
        return out
    kind = type(f)
    if kind is Var:
        k = variables.get(f.name)
        if k is None:
            k = variables[f.name] = len(variables)
        out = {1 << (2 * k + (not positive))}
    elif kind is Not:
        out = _bodies(f.arg, not positive, memo, variables)
    elif kind is And or kind is Or:
        out = _join((kind is And) == positive, [_bodies(a, positive, memo, variables) for a in f.args])
    elif kind is Implies or kind is ImpliedBy:  # ~a | b, with a the premise
        a, b = (f.lhs, f.rhs) if kind is Implies else (f.rhs, f.lhs)
        out = _join(not positive, [_bodies(a, not positive, memo, variables), _bodies(b, positive, memo, variables)])
    elif kind is Iff:  # (~lhs | rhs) & (lhs | ~rhs)
        l_pos, l_neg = _bodies(f.lhs, True, memo, variables), _bodies(f.lhs, False, memo, variables)
        r_pos, r_neg = _bodies(f.rhs, True, memo, variables), _bodies(f.rhs, False, memo, variables)
        if positive:
            out = _join(True, [_join(False, [l_neg, r_pos]), _join(False, [l_pos, r_neg])])
        else:
            out = _join(False, [_join(True, [l_pos, r_neg]), _join(True, [l_neg, r_pos])])
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = out
    return out


def _join(conjunction: bool, parts: list[set[int]]) -> set[int]:
    """Concatenate the parts of a conjunction, or distribute a disjunction
    over them, once their sizes show the result stays within MAX_CLAUSES."""
    size = sum(map(len, parts)) if conjunction else math.prod(map(len, parts))
    if size > MAX_CLAUSES:
        raise ParseError(f"clausal form would exceed {MAX_CLAUSES} clauses")
    if conjunction:
        return set().union(*parts)
    acc = parts[0]
    for part in parts[1:]:
        acc = {a | b for a in acc for b in part}
    return acc


def to_clausal_form(f: Formula) -> ClauseSet:
    """Convert a formula to an equivalent clause set.

    Conditionals are rewritten away, negations pushed to the variables, and
    disjunction distributed over conjunction; each resulting disjunction
    becomes one clause.  Tautologies are kept.  Raises ParseError rather
    than build more than MAX_CLAUSES clauses.

    The walk holds each clause as a bitmask over the names in the order it
    meets them; each is coded again by name order once, at the end, and the
    clauses are sorted by their literals, (name, negated) pairs in name
    order, so the output does not depend on the walk's order.
    """
    variables: dict[str, int] = {}
    bodies = _bodies(f, True, {}, variables)
    # every name the walk meets is in some body: no join drops an operand's literal
    names = sorted(variables)
    rank = {name: 2 * r for r, name in enumerate(names)}
    recode = [rank[name] + negated for name in variables for negated in (0, 1)]
    rows = []
    for body in bodies:
        row = []
        while body:
            low = body & -body
            row.append(recode[low.bit_length() - 1])
            body ^= low
        row.sort()
        rows.append(tuple(row))
    rows.sort()
    s = object.__new__(ClauseSet)
    s.names, s.codes, s._clauses = tuple(names), tuple(rows), None
    s.masks = tuple([sum([1 << lit for lit in row]) for row in rows])
    return s
