"""Compile clause sets into strand systems and decide them by hybridization.

Each clause becomes one strand with one long domain per literal; negative
literals are the complemented domains (clause_process).  Base sequences are
only the wet-lab encoding, which compile_clauses adds from a Codebook.  A
clause set is refuted when its strands can reach a state with every site
bound, the strand-level image of the empty clause.  No toeholds are emitted,
so every compiled set is decided in closed form (hybridization_verdict,
free_sites).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .graph import MAX_STATES, Site, StrandGraph, bind_chain, binding_trace, explore, from_process, sites_of
from .logic import Clause, ClauseSet, Literal
from .process import Domain, Process, Strand

if TYPE_CHECKING:  # Verdict's annotation only
    from .graph import Trace

BASES = "ACGT"
_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_DIGITS = str.maketrans("ACGT", "0123")  # a sequence read as a base-4 number
_LENGTH, _MIN_DISTANCE = 10, 4  # of the codes generate_codebook finds


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

    All codes share one length, and no code may equal another code, another
    code's reverse complement or its own.
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
        entries = [(var, seq, reverse_complement(seq)) for var, seq in items.items()]
        for i, (v1, s1, rc1) in enumerate(entries):
            for v2, s2, rc2 in entries[i + 1 :]:
                if s1 == s2:
                    raise CodebookError(f"{v1} and {v2} share a code")
                if s1 == rc2:
                    raise CodebookError(f"code for {v1} is the reverse complement of {v2}'s")
            if s1 == rc1:
                raise CodebookError(f"code for {v1} is its own reverse complement")
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
        codes = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise CodebookError(f"line {lineno}: expected 'VARIABLE SEQUENCE'")
            var, seq = fields
            if var in codes:
                raise CodebookError(f"line {lineno}: duplicate entry for {var}")
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


@functools.cache
def _flips() -> tuple[int, ...]:
    """The 3 676 xor masks that change at most 3 bases of a word, built on the
    first code search of a process rather than at import."""
    return tuple(sum(x << 2 * at for at, x in zip(places, xs)) for r in range(_MIN_DISTANCE)
                 for places in itertools.combinations(range(_LENGTH), r)
                 for xs in itertools.product((1, 2, 3), repeat=r))


def generate_codebook(variables: Iterable[str], base: Codebook | None = None) -> Codebook:
    """Ten-base codes for the variables base lacks, at least 4 bases from every
    code and reverse complement, their own included.  Each word (an int, 2 bits
    a base) within 3 bases of a taken code or its reverse complement is marked;
    each variable in name order takes the first unmarked word from a probe of
    Random(0) on, wrapping round.  CodebookError exactly when none is left."""
    if base is not None and base.code_length() != _LENGTH:
        raise CodebookError(f"base codebook codes must have {_LENGTH} bases")
    accepted: dict[str, str] = dict(base._codes) if base is not None else {}
    marked, rng, flips = bytearray(4**_LENGTH), random.Random(0), _flips()

    def take(seq: str) -> None:
        for word in (int(seq.translate(_DIGITS), 4), int(reverse_complement(seq).translate(_DIGITS), 4)):
            for flip in flips:
                marked[word ^ flip] = 1

    for seq in accepted.values():
        take(seq)
    for var in sorted(set(variables) - accepted.keys()):
        word = rng.randrange(len(marked))
        while var not in accepted:
            word = marked.find(0, word)
            if word < 0 and (word := marked.find(0)) < 0:  # wrap round once
                raise CodebookError(f"no {_LENGTH}-base code left for {var!r}")
            marked[word] = 1  # taken, or within 3 bases of its own reverse complement
            seq = "".join(BASES[word >> 2 * k & 3] for k in range(_LENGTH - 1, -1, -1))
            if hamming(seq, reverse_complement(seq)) >= _MIN_DISTANCE:
                accepted[var] = seq
        take(accepted[var])
    return Codebook(accepted)


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


def free_sites(s: ClauseSet) -> list[Site]:
    """The sites of clause_process(s) that hybridization leaves free, in Site
    order, read off the literal codes of s by graph.bind_chain without
    building a strand or a graph.  The set is unsatisfiable by hybridization
    exactly when no site is left free.  CompileError on an empty clause, as
    clause_process."""
    if not all(s.codes):
        raise CompileError("the empty clause has no strand image")
    bound = {site for pair in bind_chain(s.codes) for site in pair}
    # a Site is a (vertex, position) tuple: only the free ones are built
    ids = itertools.count()  # site ids, in Site order
    return [Site(v, n) for v, row in enumerate(s.codes, start=1) for n in range(1, len(row) + 1) if next(ids) not in bound]


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
    """A hybridization verdict: the outcome, a witness trace, the sites its
    final state leaves free, and the graph judged.  For a bond-free system
    whose toehold labels meet no complement, the SAT witness is the greedy
    maximum binding (graph.binding_trace), which need not be terminal: its
    end may still admit a displacement or a migration."""

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
    witnessed by a state of maximal |E| and its free sites.  Note
    this is a statement about hybridization, not propositional truth: a
    literal occurrence with no complementary occurrence anywhere keeps its
    site free forever, whatever a resolution prover would say.

    When p has no bond and no toehold label meets its complement, no edge
    ever unbinds, and the verdict is built in closed form from the greedy
    maximum binding (graph.binding_trace), read off the site labels in
    O(sites); its UNSAT witness is the one exploration finds first.  Any
    other process, such as the hairpin, is explored breadth first under
    max_states; that bound must be positive whichever path runs.
    """
    g = from_process(p)
    all_sites = frozenset(g.sites())
    if not all_sites:
        raise ValueError("empty strand system has no hybridization behaviour")
    if max_states <= 0:
        raise ValueError("exploration bounds must be positive")
    witness = binding_trace(g)
    if witness is None:
        report = explore(g, max_states=max_states)
        # every explored state binds each site at most once, so it binds all
        # of them exactly when it has half as many edges as there are sites; a
        # state's edge count is its bitmask's, and only the states returned or
        # traced to are decoded
        sizes = [2 * mask.bit_count() for mask in report.masks]
        if len(all_sites) in sizes:  # the first such state in discovery order is a shallowest
            witness = report.trace_to(sizes.index(len(all_sites)))
        else:
            witness = report.trace_to(max(report.terminals or range(len(sizes)), key=lambda i: (sizes[i], -i)))
    free = all_sites - sites_of(witness.final)
    return Verdict(SAT_BY_HYBRIDIZATION if free else UNSAT_BY_HYBRIDIZATION, witness, free, g)
