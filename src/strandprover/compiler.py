"""Compile clause sets into strand systems and decide them by hybridization.

Each clause becomes one strand with one long domain per literal; negative
literals are the complemented domains (clause_process).  Base sequences are
only the wet-lab encoding, which compile_clauses adds from a Codebook.  No
toeholds are emitted, so no edge ever unbinds (GU).  A clause set is refuted
when the closure of the compiled system reaches a state with every site
bound, the strand-level image of the empty clause.  Unless a strand reads
X Y and a strand, the same or another, reads Y* X* (an anchored pair, which
could start a displacement), binding is the only move and every maximal
binding is a largest one.  The question then has a closed-form answer, each
variable occurs as often positive as negative, and hybridization_verdict
decides it without exploring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import MAX_STATES, Move, Site, StrandGraph, Trace, bind_chain, explore, from_process, sites_of
from .logic import Clause, ClauseSet, Literal
from .process import Domain, Process, Strand

BASES = "ACGT"
_COMPLEMENT = str.maketrans("ACGT", "TGCA")


class CodebookError(ValueError):
    """Invalid code table, failed code search, or a variable without a code."""


class CompileError(ValueError):
    """Clause set that cannot be turned into strands."""


def reverse_complement(seq: str) -> str:
    """Watson-Crick complement read back 5' to 3'."""
    for ch in seq:
        if ch not in BASES:
            raise ValueError(f"not a DNA base: {ch!r}")
    return seq.translate(_COMPLEMENT)[::-1]


def hamming(a: str, b: str) -> int:
    if len(a) != len(b):
        raise ValueError("sequences differ in length")
    return sum(x != y for x, y in zip(a, b))


class Codebook:
    """Sense sequences per variable; negated literals read as reverse complements.

    All codes share one length, and no code may equal another code or another
    code's reverse complement.
    """

    __slots__ = ("_codes",)

    def __init__(self, codes: Mapping[str, str]):
        if not codes:
            raise CodebookError("empty codebook")
        items = dict(codes)
        lengths = {len(seq) for seq in items.values()}
        if len(lengths) != 1:
            raise CodebookError("codes must share a single length")
        for var, seq in items.items():
            for ch in seq:
                if ch not in BASES:
                    raise CodebookError(f"code for {var} contains non-base {ch!r}")
        entries = list(items.items())
        for i, (v1, s1) in enumerate(entries):
            for v2, s2 in entries[i + 1 :]:
                if s1 == s2:
                    raise CodebookError(f"{v1} and {v2} share a code")
                if s1 == reverse_complement(s2):
                    raise CodebookError(f"code for {v1} is the reverse complement of {v2}'s")
        self._codes = items

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self._codes))

    def code_length(self) -> int:
        return len(next(iter(self._codes.values())))

    def __contains__(self, variable: str) -> bool:
        return variable in self._codes

    def sense(self, variable: str) -> str:
        try:
            return self._codes[variable]
        except KeyError:
            raise CodebookError(f"no code for variable {variable!r}") from None

    def lookup(self, literal: Literal) -> str:
        seq = self.sense(literal.variable)
        return reverse_complement(seq) if literal.negated else seq

    def __eq__(self, other):
        return isinstance(other, Codebook) and self._codes == other._codes

    def to_text(self) -> str:
        return "\n".join(f"{var} {self._codes[var]}" for var in sorted(self._codes)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Codebook":
        """Lines of 'VARIABLE SEQUENCE'; '#' starts a comment."""
        codes, seen = {}, set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise CodebookError(f"line {lineno}: expected 'VARIABLE SEQUENCE'")
            var, seq = fields
            if var in seen:
                raise CodebookError(f"line {lineno}: duplicate entry for {var}")
            seen.add(var)
            codes[var] = seq.upper()
        return cls(codes)


_DEFAULT_SENSE = {
    "P": "ACGTAGTCAC",
    "Q": "CAGTCAATTC",
    "R": "TCAGTCGAAT",
    "U": "CTAGGTCCAT",
    "V": "GATCGTGCAT",
}


def default_codebook() -> Codebook:
    """The built-in ten-base codes for the variables P, Q, R, U, V."""
    return Codebook(_DEFAULT_SENSE)


def generate_codebook(
    variables: Iterable[str],
    length: int = 10,
    min_distance: int = 4,
    seed: int = 0,
    base: Codebook | None = None,
) -> Codebook:
    """Search for codes keeping every pair of distinct sequences, senses and
    reverse complements alike, at Hamming distance >= min_distance; only a
    code against its own reverse complement is exempt.  Deterministic for a
    given seed.  Codes from base are kept and new ones must respect them.
    """
    if length < 4:
        raise CodebookError("codes shorter than 4 bases are not supported")
    if min_distance < 1:
        raise CodebookError("min_distance must be at least 1")
    rng = random.Random(seed)
    accepted: dict[str, str] = dict(base._codes) if base is not None else {}
    if base is not None and base.code_length() != length:
        raise CodebookError("base codebook length disagrees with the requested length")
    attempts_per_variable = 2000
    for var in sorted(set(variables)):
        if var in accepted:
            continue
        for _ in range(attempts_per_variable):
            candidate = "".join(rng.choice(BASES) for _ in range(length))
            if _compatible(candidate, accepted.values(), min_distance):
                accepted[var] = candidate
                break
        else:
            raise CodebookError(
                f"no code found for {var!r} at length {length} and distance {min_distance}"
            )
    return Codebook(accepted)


def _compatible(candidate: str, others: Iterable[str], min_distance: int) -> bool:
    rc = reverse_complement
    for other in others:
        if hamming(candidate, other) < min_distance:
            return False
        if hamming(candidate, rc(other)) < min_distance:
            return False
    return True


# --- compilation -------------------------------------------------------------


@dataclass(frozen=True)
class CompiledClause:
    clause: Clause
    strand: Strand
    bases: str


def clause_process(s: ClauseSet) -> Process:
    """One strand per clause, one long domain per literal, in input order;
    a negative literal is its variable's complemented domain.  No bases."""
    strands = []
    for clause in s:
        if clause.is_empty():
            raise CompileError("the empty clause has no strand image")
        strands.append(Strand(tuple(Domain(lit.variable, complemented=lit.negated) for lit in clause)))
    return Process(tuple(strands))


def compile_clauses(s: ClauseSet, codebook: Codebook) -> tuple[Process, list[CompiledClause]]:
    """clause_process(s), with each strand's bases: the sense code of each
    positive literal and the reverse complement of each negative one's."""
    p = clause_process(s)
    return p, [
        CompiledClause(clause, strand, "".join(codebook.lookup(lit) for lit in clause))
        for clause, strand in zip(s, p.strands)
    ]


def format_fasta(compiled: Iterable[CompiledClause]) -> str:
    lines = []
    for k, item in enumerate(compiled, start=1):
        lines.append(f">clause {k}: {' '.join(str(lit) for lit in item.clause)}")
        lines.append(item.bases)
    return "\n".join(lines) + "\n"


# --- verdicts ----------------------------------------------------------------

UNSAT_BY_HYBRIDIZATION = "unsat-by-hybridization"
SAT_BY_HYBRIDIZATION = "sat-by-hybridization"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    witness: Trace
    free_sites: frozenset[Site]
    graph: StrandGraph

    @property
    def is_unsat(self) -> bool:
        return self.outcome == UNSAT_BY_HYBRIDIZATION


def hybridization_verdict(p: Process, *, max_states: int = MAX_STATES) -> Verdict:
    """Judge the strand graph of p by reachable saturation.

    Reaching a state with every site bound yields the unsatisfiable verdict
    with a shortest witness trace.  Otherwise the verdict is satisfiable,
    witnessed by a terminal state of maximal |E| and its free sites.  Note
    this is a statement about hybridization, not propositional truth: a
    literal occurrence with no complementary occurrence anywhere keeps its
    site free forever, whatever a resolution prover would say.

    When GB is the only move that can ever fire (no bonds, no toeholds, no
    admissible edge with an antiparallel admissible neighbour, see
    graph.bind_chain), the verdict is built in closed form from the chain
    that exploration would find first, in O(admissible edges); it equals the
    explored one.  Otherwise the graph is explored breadth first, and
    max_states bounds that exploration; it must be positive whichever path
    runs.
    """
    g = from_process(p)
    all_sites = frozenset(g.sites())
    if not all_sites:
        raise ValueError("empty strand system has no hybridization behaviour")
    if max_states <= 0:
        raise ValueError("exploration bounds must be positive")
    chain = bind_chain(g)
    if chain is not None:
        final = frozenset(chain)
        witness = Trace(g.current, tuple(Move("GB", frozenset(), frozenset([x])) for x in chain), final)
        free = all_sites - sites_of(final)
        return Verdict(SAT_BY_HYBRIDIZATION if free else UNSAT_BY_HYBRIDIZATION, witness, free, g)
    report = explore(g, max_states=max_states)
    for i, edges in enumerate(report.states):  # discovery order: shortest first
        if sites_of(edges) == all_sites:
            return Verdict(UNSAT_BY_HYBRIDIZATION, report.trace_to(i), frozenset(), g)
    pool = report.terminals if report.terminals else range(len(report.states))
    best = max(pool, key=lambda i: (len(report.states[i]), -i))
    free = all_sites - sites_of(report.states[best])
    return Verdict(SAT_BY_HYBRIDIZATION, report.trace_to(best), free, g)
