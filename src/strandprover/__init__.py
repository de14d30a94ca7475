"""Propositional theorem proving two ways.

The classical route converts a formula to clauses and refutes them by
conflict-driven resolution, or finds a model.  The molecular route compiles the clauses to DNA strands, one
domain per literal, and explores the strand graph; reaching a fully bound
state refutes the clause set.  The two verdicts can be cross-checked, and
they deliberately do not always agree.
"""

from .compiler import (
    Codebook,
    CompiledClause,
    Verdict,
    clause_process,
    compile_clauses,
    default_codebook,
    generate_codebook,
    hybridization_verdict,
    reverse_complement,
)
from .graph import Edge, ExploreReport, Move, Site, StrandGraph, Trace, explore, from_process
from .logic import (
    And,
    Clause,
    ClauseSet,
    Formula,
    Iff,
    ImpliedBy,
    Implies,
    Literal,
    Not,
    Or,
    ParseError,
    Var,
    parse_formula,
    to_clausal_form,
)
from .process import Domain, Process, Strand, parse_process
from .resolution import DeductionStep, RefutationResult, refute, render_deduction, resolve_pair

__version__ = "0.1.0"

__all__ = [
    "And", "Clause", "ClauseSet", "Codebook", "CompiledClause", "DeductionStep",
    "Domain", "Edge", "ExploreReport", "Formula", "Iff", "ImpliedBy", "Implies",
    "Literal", "Move", "Not", "Or", "ParseError", "Process", "RefutationResult",
    "Site", "Strand", "StrandGraph", "Trace", "Var", "Verdict", "clause_process",
    "compile_clauses", "default_codebook", "explore", "from_process", "generate_codebook",
    "hybridization_verdict", "parse_formula",
    "parse_process", "refute", "render_deduction", "resolve_pair",
    "to_clausal_form",
]
