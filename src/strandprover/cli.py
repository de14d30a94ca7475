"""Command line front end: prove, compile, simulate, compare, export."""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Sequence

from . import __version__, compiler, fixtures, graph, logic, resolution
from . import process as proc

EXIT_OK = 0
EXIT_SAT = 1
EXIT_INDETERMINATE = 2
EXIT_DISAGREE = 3

# a DIMACS header, or a line whose first token is an integer: clause lines and
# formulas start no line with a digit
_DIMACS_LINE = re.compile(r"p\s+cnf(?:\s|$)|[+-]?[0-9]+(?:\s|$)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    Its `commands` attribute maps each subcommand's name to that subcommand's
    own parser. Each of those sets `command` to its name, so it yields the
    same namespace that the whole parser gives for a line starting with it.
    """
    parser = argparse.ArgumentParser(
        prog="strandprover",
        description="Prove propositional theorems by resolution, by DNA strand "
        "hybridization, or by both at once.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json", "dot")):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="PATH", help="input file ('-' for stdin)")
        src.add_argument("--fixture", choices=sorted(fixtures.FIXTURES), help="built-in example")
        if formats:
            p.add_argument("--format", choices=formats, default="text", help="output format")

    p_prove = sub.add_parser("prove", help="resolution refutation of a formula or clause set")
    add_common(p_prove, formats=("text", "json"))
    p_prove.add_argument("--goal", metavar="FORMULA", help="prove that the input entails this formula")
    p_prove.add_argument("--trace", action="store_true", help="print every deduction step of the result")
    p_prove.set_defaults(func=cmd_prove)

    p_compile = sub.add_parser("compile", help="compile a clause set to strands and base sequences")
    add_common(p_compile)
    p_compile.add_argument("--codebook", metavar="PATH", help="variable-to-sequence table")
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate", help="explore the strand graph of a system")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run both engines and flag disagreement")
    add_common(p_cmp, formats=())
    p_cmp.set_defaults(func=cmd_compare)

    for p, budget_help in (
        (p_sim, "state budget for exploration (default %(default)s)"),
        (p_cmp, "only checked to be positive: compare decides hybridization without exploring"),
    ):
        p.add_argument(
            "--max-states",
            type=int,
            default=graph.MAX_STATES,
            metavar="N",
            help=budget_help,
        )

    p_exp = sub.add_parser("export", help="write a strand graph as listing, JSON, or DOT")
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_export)

    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    parser.commands = sub.choices
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line (by default `sys.argv[1:]`) and return its exit code.

    A line that starts with a subcommand is parsed by that subcommand's parser
    alone, which reads exactly the arguments the whole parser would hand it.
    The whole parser reads the line only when its first word names no
    subcommand, or when the subcommand's parser leaves arguments unrecognised;
    it then prints the help, version or usage error.
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, unrecognised = command.parse_known_args(argv[1:])
    if command is None or unrecognised:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (resolution.ResourceLimitError, graph.ExplorationLimitError) as exc:
        print(f"INDETERMINATE: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


def entry() -> None:
    sys.exit(main())


# --- inputs ------------------------------------------------------------------


def _read_input(path: str) -> str:
    """The text of a file, or of stdin for '-', without a leading byte-order mark."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def _parse_clause_text(text: str) -> logic.ClauseSet:
    """Clause lines, a single formula, or DIMACS, told apart by their lexicon."""
    meaningful = [
        line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line
    ]
    joined = " ".join(meaningful)
    if any(_DIMACS_LINE.match(line) for line in meaningful):
        s = logic.ClauseSet.from_dimacs(text)
    elif any(ch in joined for ch in "&|()<>-"):
        s = logic.to_clausal_form(logic.parse_formula(joined))
    else:
        s = logic.ClauseSet.parse(text)
    if len(s) == 0:
        raise ValueError("input contains no clauses")
    return s


def _load_clauses(args) -> logic.ClauseSet:
    if args.fixture is not None:
        kind, loader = fixtures.FIXTURES[args.fixture]
        if kind != "clauses":
            raise ValueError(f"fixture {args.fixture!r} is a strand system, not a clause set")
        return loader()
    return _parse_clause_text(_read_input(args.input))


def _load_graph(args) -> graph.StrandGraph:
    """A strand graph from a fixture, process text, graph JSON, or clause set."""
    if args.fixture is not None:
        kind, loader = fixtures.FIXTURES[args.fixture]
        if kind == "process":
            return graph.from_process(loader())
        s = loader()
    else:
        text = _read_input(args.input)
        stripped = text.strip()
        if stripped.startswith("{"):
            return graph.from_json(stripped)
        if stripped.startswith("<") or stripped.startswith("⟨"):
            return graph.from_process(proc.parse_process(stripped))
        s = _parse_clause_text(text)
    return graph.from_process(compiler.clause_process(s))


# --- commands ----------------------------------------------------------------


def cmd_prove(args) -> int:
    s = _load_clauses(args)
    goal = logic.parse_formula(args.goal) if args.goal is not None else None
    result = resolution.refute(s, goal)
    if args.format == "json":
        payload = {
            "verdict": result.verdict,
            "empty_step": result.empty_step,
            "model": None if result.model is None else [str(lit) for lit in result.model],
            "steps": [
                {"index": k, "clause": literals, "parents": list(pair) if pair else None, "on": pivot}
                for k, (literals, pair, pivot) in enumerate(result.step_texts())
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        if result.is_unsat:
            print("UNSAT: the clause set is refuted")
            print(resolution.render_deduction(result))
        else:
            print("SATISFIABLE: the clause set has a model")
            print("model: " + " ".join(str(lit) for lit in result.model))
        if args.trace:
            for line in result.trace_lines():
                print(line)
    return EXIT_OK if result.is_unsat else EXIT_SAT


def cmd_compile(args) -> int:
    s = _load_clauses(args)
    if args.codebook:
        book = compiler.Codebook.from_text(_read_input(args.codebook))
        for var in s.variables():
            book.sense(var)  # fail early on missing entries
    else:  # the built-in codes, and generated ones for any other variable
        default = compiler.default_codebook()
        book = compiler.generate_codebook(s.variables(), base=default)
    p, compiled = compiler.compile_clauses(s, book)
    if args.format == "json":
        payload = {
            "process": str(p),
            "clauses": [
                {
                    "clause": " ".join(str(lit) for lit in item.clause),
                    "strand": str(item.strand),
                    "bases": item.bases,
                }
                for item in compiled
            ],
            "codebook": {var: book.sense(var) for var in s.variables()},
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "dot":
        print(graph.to_dot(graph.from_process(p)), end="")
    else:
        print(p)
        print()
        print(compiler.format_fasta(compiled), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load_graph(args)
    report = graph.explore(g, max_states=args.max_states)
    if args.format == "dot":  # one DOT graph per state along the shortest trace to the first terminal
        trace = report.trace_to(report.terminals[0] if report.terminals else 0)
        for k, state in enumerate(trace.walk(g)):
            print(f"// step {k}: {trace.moves[k - 1].describe()}" if k else "// step 0 (initial)")
            print(graph.to_dot(state), end="")
        return EXIT_OK
    terminals = []  # one record per terminal, read off its trace
    for i in report.terminals:
        trace = report.trace_to(i)
        edges = [str(e) for e in sorted(trace.final)]
        terminals.append({"edges": edges, "depth": report.depths[i], "trace": trace.lines(g)})
    if args.format == "json":
        print(json.dumps({"states": len(report.states), "terminals": terminals}, indent=2))
    else:
        print(f"states explored: {len(report.states)}")
        print(f"terminal states: {len(terminals)}")
        for t in terminals:
            print(f"terminal at depth {t['depth']}: |E|={len(t['edges'])} edges: {', '.join(t['edges']) or 'none'}")
            for line in t["trace"]:
                print(f"  {line}")
    return EXIT_OK


def cmd_compare(args) -> int:
    s = _load_clauses(args)
    if args.max_states <= 0:
        raise ValueError("exploration bounds must be positive")
    note = None
    try:
        res_unsat: bool | None = resolution.refute(s).is_unsat
    except resolution.ResourceLimitError as exc:
        res_unsat, note = None, f"resolution indeterminate: {exc}"
    free = compiler.free_sites(s)  # decided from the literals, with no strand graph
    hyb_unsat = not free
    print(f"resolution: {_verdict_word(res_unsat)}")
    print(f"hybridization: {_verdict_word(hyb_unsat)}")
    if res_unsat is None:
        print(note)
        print("INDETERMINATE")
        return EXIT_INDETERMINATE
    if res_unsat == hyb_unsat:
        print("AGREE")
        return EXIT_OK
    print("DISAGREE: hybridization saturation is not propositional unsatisfiability")
    # site (v, n) is literal n of clause v; it can never bind when its
    # complement occurs nowhere in the set
    present = {lit for row in s.codes for lit in row}
    for site in free:
        lit = s.codes[site.vertex - 1][site.position - 1]
        tag = "" if lit ^ 1 in present else ", can never bind"
        print(f"free site {site}: {s.names[lit >> 1]}{'*' if lit & 1 else ''}{tag}")
    return EXIT_DISAGREE


def _verdict_word(is_unsat: bool | None) -> str:
    if is_unsat is None:
        return "INDETERMINATE"
    return "UNSAT" if is_unsat else "SATISFIABLE"


def cmd_export(args) -> int:
    g = _load_graph(args)
    if args.format == "json":
        print(graph.to_json(g), end="")
    elif args.format == "dot":
        print(graph.to_dot(g), end="")
    else:
        n = g.vertex_count()
        print(f"vertices: {n}")
        print("lengths: " + ", ".join(f"{v + 1}:{g.lengths[v]}" for v in range(n)))
        print("colours: " + ", ".join(f"{v + 1}:{g.colours[v]}" for v in range(n)))
        for v in range(n):
            print(f"strand {v + 1}: <" + " ".join(graph.format_domain(d) for d in g.domains[v]) + ">")
        admissible = sorted(g.admissible)
        print("admissible: " + (", ".join(str(e) for e in admissible) or "none"))
        toeholds = [e for e in admissible if g.toehold(e)]
        print("toehold edges: " + (", ".join(str(e) for e in toeholds) or "none"))
        print("current: " + (", ".join(str(e) for e in sorted(g.current)) or "none"))
    return EXIT_OK


if __name__ == "__main__":
    entry()
