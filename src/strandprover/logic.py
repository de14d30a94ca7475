"""Propositional formulas, literals, clauses, and conversion to clausal form."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed formula, clause, or DIMACS text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Formula:
    """Base class of the formula AST.  Nodes are immutable and hashable."""

    __slots__ = ()

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))

    def __str__(self):
        return format_formula(self)


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not _ATOM_RE.fullmatch(name):
            raise ValueError(f"invalid variable name: {name!r}")
        self.name = name

    def _key(self):
        return self.name

    def __repr__(self):
        return f"Var({self.name!r})"


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        self.arg = arg

    def _key(self):
        return self.arg

    def __repr__(self):
        return f"Not({self.arg!r})"


class _Nary(Formula):
    """Shared shape of And/Or: two or more operands, order preserved."""

    __slots__ = ("args",)

    def __init__(self, *args: Formula):
        if len(args) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        self.args = args

    def _key(self):
        return self.args

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.args))})"


class And(_Nary):
    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class _Arrow(Formula):
    """Shared shape of the three conditional connectives."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        self.lhs = lhs
        self.rhs = rhs

    def _key(self):
        return (self.lhs, self.rhs)

    def __repr__(self):
        return f"{type(self).__name__}({self.lhs!r}, {self.rhs!r})"


class Implies(_Arrow):
    __slots__ = ()


class ImpliedBy(_Arrow):
    __slots__ = ()


class Iff(_Arrow):
    __slots__ = ()


# --- formula text ------------------------------------------------------------
#
# Grammar, loosest to tightest binding:
#   formula := disj (('->' | '<-' | '<->') disj)?      arrows do not chain
#   disj    := conj ('|' conj)*
#   conj    := neg ('&' neg)*
#   neg     := '~' neg | atom
#   atom    := NAME | '(' formula ')'

_ARROWS = {"->": Implies, "<-": ImpliedBy, "<->": Iff}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(self.text))
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        if not self.tokens:
            raise ParseError("empty formula")
        f = self._arrow()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return f

    def _arrow(self) -> Formula:
        left = self._disj()
        tok = self._peek()
        if tok is None or tok[1] not in _ARROWS:
            return left
        op = self._take()[1]
        right = self._disj()
        tok = self._peek()
        if tok is not None and tok[1] in _ARROWS:
            raise ParseError("conditionals do not chain; add parentheses", tok[2])
        return _ARROWS[op](left, right)

    def _disj(self) -> Formula:
        parts = [self._conj()]
        while (tok := self._peek()) is not None and tok[1] == "|":
            self._take()
            parts.append(self._conj())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def _conj(self) -> Formula:
        parts = [self._neg()]
        while (tok := self._peek()) is not None and tok[1] == "&":
            self._take()
            parts.append(self._neg())
        return parts[0] if len(parts) == 1 else And(*parts)

    def _neg(self) -> Formula:
        tok = self._peek()
        if tok is not None and tok[1] == "~":
            self._take()
            return Not(self._neg())
        return self._atom()

    def _atom(self) -> Formula:
        tok = self._take()
        kind, value, pos = tok
        if kind == "atom":
            return Var(value)
        if value == "(":
            f = self._arrow()
            closing = self._take()
            if closing[1] != ")":
                raise ParseError(f"expected ')', found {closing[1]!r}", closing[2])
            return f
        raise ParseError(f"unexpected {value!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises ParseError with the offending position."""
    return _FormulaParser(text).parse()


# Binding strength used by the printer; higher binds tighter.
_PREC_ARROW, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 0, 1, 2, 3, 4


def _fmt(f: Formula) -> tuple[str, int]:
    match f:
        case Var(name=name):
            return name, _PREC_ATOM
        case Not(arg=arg):
            text, prec = _fmt(arg)
            if prec < _PREC_NOT:
                text = f"({text})"
            return "~" + text, _PREC_NOT
        case And(args=args) | Or(args=args):
            own = _PREC_AND if isinstance(f, And) else _PREC_OR
            sep = " & " if isinstance(f, And) else " | "
            parts = []
            for arg in args:
                text, prec = _fmt(arg)
                # equal precedence is parenthesized so the tree round-trips
                parts.append(f"({text})" if prec <= own else text)
            return sep.join(parts), own
        case Implies() | ImpliedBy() | Iff():
            op = {"Implies": "->", "ImpliedBy": "<-", "Iff": "<->"}[type(f).__name__]
            sides = []
            for side in (f.lhs, f.rhs):
                text, prec = _fmt(side)
                sides.append(f"({text})" if prec <= _PREC_ARROW else text)
            return f"{sides[0]} {op} {sides[1]}", _PREC_ARROW
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Render f so that parse_formula(format_formula(f)) == f."""
    return _fmt(f)[0]


# --- literals, clauses, clause sets -----------------------------------------


@dataclass(frozen=True, order=True)
class Literal:
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

    def is_tautology(self) -> bool:
        return any(lit.complement() in self._set for lit in self.literals)

    def sorted_literals(self) -> tuple[Literal, ...]:
        """Canonical ordering key, also used to order clauses themselves."""
        return tuple(sorted(self._set))

    def subsumes(self, other: "Clause") -> bool:
        return self._set <= other._set

    def without(self, lit: Literal) -> "Clause":
        return Clause(l for l in self.literals if l != lit)

    def union(self, other: "Clause") -> "Clause":
        return Clause(self.literals + other.literals)

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}"

    def __repr__(self) -> str:
        return f"Clause([{', '.join(repr(l) for l in self.literals)}])"

    @classmethod
    def parse(cls, line: str) -> "Clause":
        return cls(Literal.parse(tok) for tok in line.split())


class ClauseSet:
    """A duplicate-free collection of clauses, read as their conjunction.

    Clause order is the insertion order (first occurrence wins), which later
    stages use when a stable reading of the input matters; equality ignores it.
    """

    __slots__ = ("clauses", "_set")

    def __init__(self, clauses: Iterable[Clause] = ()):
        seen: list[Clause] = []
        sset: set[Clause] = set()
        for clause in clauses:
            if not isinstance(clause, Clause):
                raise TypeError(f"not a clause: {clause!r}")
            if clause not in sset:
                seen.append(clause)
                sset.add(clause)
        self.clauses: tuple[Clause, ...] = tuple(seen)
        self._set = frozenset(sset)

    def __eq__(self, other):
        return isinstance(other, ClauseSet) and self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._set

    def union(self, other: "ClauseSet") -> "ClauseSet":
        return ClauseSet(self.clauses + other.clauses)

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({lit.variable for c in self.clauses for lit in c}))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(l) for l in c) if c.literals else "{}" for c in self.clauses)

    def __repr__(self) -> str:
        return f"ClauseSet({list(self.clauses)!r})"

    @classmethod
    def parse(cls, text: str) -> "ClauseSet":
        """One clause per line, '~X' for negation, '#' starts a comment."""
        clauses = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                clauses.append(Clause.parse(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        return cls(clauses)

    @classmethod
    def from_dimacs(cls, text: str) -> "ClauseSet":
        """DIMACS CNF; variable n becomes 'x<n>'."""
        numbers: list[int] = []
        saw_header = False
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                fields = line.split()
                if fields[:2] != ["p", "cnf"] or len(fields) != 4:
                    raise ParseError(f"line {lineno}: bad DIMACS header {line!r}")
                saw_header = True
                continue
            try:
                numbers.extend(int(tok) for tok in line.split())
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric DIMACS literal") from None
        if not saw_header:
            raise ParseError("missing 'p cnf' header")
        clauses = []
        current: list[Literal] = []
        for n in numbers:
            if n == 0:
                clauses.append(Clause(current))
                current = []
            else:
                current.append(Literal(f"x{abs(n)}", n < 0))
        if current:
            clauses.append(Clause(current))
        return cls(clauses)


# --- clausal form ------------------------------------------------------------


def _expand_conditionals(f: Formula) -> Formula:
    match f:
        case Var():
            return f
        case Not(arg=arg):
            return Not(_expand_conditionals(arg))
        case And(args=args):
            return And(*(_expand_conditionals(a) for a in args))
        case Or(args=args):
            return Or(*(_expand_conditionals(a) for a in args))
        case Implies(lhs=lhs, rhs=rhs):
            return Or(Not(_expand_conditionals(lhs)), _expand_conditionals(rhs))
        case ImpliedBy(lhs=lhs, rhs=rhs):
            return Or(_expand_conditionals(lhs), Not(_expand_conditionals(rhs)))
        case Iff(lhs=lhs, rhs=rhs):
            left = _expand_conditionals(lhs)
            right = _expand_conditionals(rhs)
            return And(Or(Not(left), right), Or(left, Not(right)))
    raise TypeError(f"not a formula: {f!r}")


def _push_negations(f: Formula) -> Formula:
    """Drive negations down to variables; input must be conditional-free."""
    match f:
        case Var():
            return f
        case And(args=args):
            return And(*(_push_negations(a) for a in args))
        case Or(args=args):
            return Or(*(_push_negations(a) for a in args))
        case Not(arg=Var()):
            return f
        case Not(arg=Not(arg=inner)):
            return _push_negations(inner)
        case Not(arg=And(args=args)):
            return Or(*(_push_negations(Not(a)) for a in args))
        case Not(arg=Or(args=args)):
            return And(*(_push_negations(Not(a)) for a in args))
    raise TypeError(f"unexpected node in negation phase: {f!r}")


def _distribute(f: Formula) -> list[frozenset[Literal]]:
    """Distribute disjunction over conjunction; input must be in negation
    normal form.  Returns the clause bodies of the resulting conjunction."""
    match f:
        case Var(name=name):
            return [frozenset([Literal(name)])]
        case Not(arg=Var(name=name)):
            return [frozenset([Literal(name, True)])]
        case And(args=args):
            out: list[frozenset[Literal]] = []
            for arg in args:
                out.extend(_distribute(arg))
            return out
        case Or(args=args):
            acc: list[frozenset[Literal]] = [frozenset()]
            for arg in args:
                part = _distribute(arg)
                acc = [a | b for a in acc for b in part]
            return acc
    raise TypeError(f"unexpected node in distribution phase: {f!r}")


def to_clausal_form(f: Formula) -> ClauseSet:
    """Convert a formula to an equivalent clause set.

    Conditionals are rewritten away, negations pushed to the variables, and
    disjunction distributed over conjunction; each resulting disjunction
    becomes one clause.  Tautologies are kept; drop them separately with
    normalize_clause_set if unwanted.
    """
    bodies = _distribute(_push_negations(_expand_conditionals(f)))
    unique = sorted(set(bodies), key=lambda body: tuple(sorted(body)))
    return ClauseSet(Clause(sorted(body)) for body in unique)


def normalize_clause_set(s: ClauseSet, drop_tautologies: bool = False) -> ClauseSet:
    """Deduplicate, and optionally drop clauses containing a complementary pair."""
    return ClauseSet(c for c in s if not (drop_tautologies and c.is_tautology()))
