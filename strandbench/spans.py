"""Per-layer tracing from outside the program.

`instrument` wraps each public function where the program looks it up
(module globals, class attributes) and restores it afterwards.  Calls at a
layer boundary become spans, kept in memory with their case id and parent.
Hot inner calls (resolve_pair, moves, with_current) are summed into per-case
counters instead, so that tracing them stays cheap.  A span's self time is
its duration minus the time of the spans and hot calls inside it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.case = ""
        # (case, name, start, end, parent span index or None)
        self.spans: list[tuple[str, str, float, float, int | None]] = []
        self.time: Counter = Counter()  # seconds per span or hot-call name
        self.self_time: Counter = Counter()
        self.count: Counter = Counter()
        self.per_case: dict[str, Counter] = defaultdict(Counter)
        self._open: list[list] = []  # [span index, start, child seconds]

    def add(self, name: str, amount: float = 1) -> None:
        self.count[name] += amount
        self.per_case[self.case][name] += amount

    def span(self, name: str, fn: Callable, done: Callable | None = None, enter: Callable | None = None):
        """Wrap fn; done(result, seconds, token) sees each result, where token
        is what enter() returned when the call began."""

        def wrapper(*args, **kwargs):
            token = enter() if enter else None
            parent = self._open[-1][0] if self._open else None
            frame = [len(self.spans), perf_counter(), 0.0]
            self.spans.append((self.case, name, frame[1], frame[1], parent))
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                seconds = end - frame[1]
                self.spans[frame[0]] = (self.case, name, frame[1], end, parent)
                self.time[name] += seconds
                self.self_time[name] += seconds - frame[2]
                if self._open:
                    self._open[-1][2] += seconds
            if done:
                done(result, seconds, token)
            return result

        return wrapper

    def hot(self, name: str, fn: Callable, done: Callable | None = None):
        """Wrap fn as a counter: calls and seconds per case, no span."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.time[name] += seconds
                self.add(name + "_calls")
                self.per_case[self.case][name + "_s"] += seconds
                if self._open:
                    self._open[-1][2] += seconds
            if done:
                done(result)
            return result

        return wrapper

    def tally(self, name: str, fn: Callable):
        """Wrap fn to count its calls only."""

        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block."""
    from strandprover import cli, compiler, graph, logic, process, resolution

    t = tracer

    def clauses_out(result, *_):
        t.add("logic.clauses_out", len(result))

    def proof(result, *_):
        if result.is_unsat:
            t.add("resolution.proof_steps", len(result.steps))

    def resolvents(result):
        t.add("resolution.resolvents", len(result))

    def enumerated(result):
        t.add("graph.moves_enumerated", len(result))
        for move in result:
            t.add("graph.moves." + move.rule)

    def explored(report, seconds, moves_before):
        # states and new-state ratio count explorations that finished; one
        # stopped by its budget reports no states
        t.add("graph.explores_finished")
        t.add("graph.states", len(report.states))
        t.add("graph.finished_explore_s", seconds)
        t.add("graph.finished_moves", t.count["graph.moves_enumerated"] - moves_before)

    def moves_so_far():
        return t.count["graph.moves_enumerated"]

    parse_dimacs = logic.ClauseSet.__dict__["from_dimacs"].__func__
    parse_lines = logic.ClauseSet.__dict__["parse"].__func__
    explore = t.span("graph.explore", graph.explore, explored, moves_so_far)
    from_process = t.span("graph.from_process", graph.from_process)
    patches = [
        (cli, "main", t.span("cli.main", cli.main)),
        (logic, "parse_formula", t.span("logic.parse", logic.parse_formula)),
        (logic.ClauseSet, "parse", classmethod(t.span("logic.parse", parse_lines, clauses_out))),
        (logic.ClauseSet, "from_dimacs", classmethod(t.span("logic.parse", parse_dimacs, clauses_out))),
        (logic, "to_clausal_form", t.span("logic.clausal_form", logic.to_clausal_form, clauses_out)),
        (resolution, "refute", t.span("resolution.refute", resolution.refute, proof)),
        (resolution, "resolve_pair", t.hot("resolution.resolve_pair", resolution.resolve_pair, resolvents)),
        (resolution, "DeductionStep", t.tally("resolution.steps_built", resolution.DeductionStep)),
        (resolution, "render_deduction", t.span("resolution.render", resolution.render_deduction)),
        (compiler, "default_codebook", t.span("compiler.codebook", compiler.default_codebook)),
        (compiler, "generate_codebook", t.span("compiler.codebook", compiler.generate_codebook)),
        (compiler, "compile_clauses", t.span("compiler.compile", compiler.compile_clauses)),
        (compiler, "hybridization_verdict", t.span("compiler.verdict", compiler.hybridization_verdict)),
        (compiler, "from_process", from_process),
        (compiler, "explore", explore),
        (graph, "from_process", from_process),
        (graph, "explore", explore),
        (graph, "moves", t.hot("graph.moves", graph.moves, enumerated)),
        (graph.StrandGraph, "with_current", t.hot("graph.with_current", graph.StrandGraph.with_current)),
        (process, "parse_process", t.span("process.parse", process.parse_process)),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapped in patches:
            setattr(owner, name, wrapped)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit), times
    in wall seconds."""
    c, s = t.count, t.time

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    retained = c["resolution.steps_built"] - c["resolution.proof_steps"]
    metrics = {
        "logic.parse_s": (s["logic.parse"], "s"),
        "logic.clausal_form_s": (s["logic.clausal_form"], "s"),
        "logic.clauses_out": (c["logic.clauses_out"], "count"),
        "resolution.refute_s": (s["resolution.refute"], "s"),
        "resolution.resolve_pair_s": (s["resolution.resolve_pair"], "s"),
        "resolution.resolve_pair_calls": (c["resolution.resolve_pair_calls"], "count"),
        "resolution.resolvents": (c["resolution.resolvents"], "count"),
        "resolution.retained": (retained, "count"),
        "resolution.retained_per_resolvent": (ratio(retained, c["resolution.resolvents"]), "ratio"),
        "resolution.proof_steps": (c["resolution.proof_steps"], "count"),
        "resolution.render_s": (s["resolution.render"], "s"),
        "compiler.codebook_s": (s["compiler.codebook"], "s"),
        "compiler.compile_s": (s["compiler.compile"], "s"),
        "compiler.verdict_s": (s["compiler.verdict"], "s"),
        "compiler.verdict_self_s": (t.self_time["compiler.verdict"], "s"),
        "graph.from_process_s": (s["graph.from_process"], "s"),
        "graph.explore_s": (s["graph.explore"], "s"),
        "graph.moves_s": (s["graph.moves"], "s"),
        "graph.moves_calls": (c["graph.moves_calls"], "count"),
        "graph.moves_enumerated": (c["graph.moves_enumerated"], "count"),
        **{f"graph.moves.{rule}": (c[f"graph.moves.{rule}"], "count") for rule in ("GB", "GU", "G3", "GM")},
        "graph.with_current_s": (s["graph.with_current"], "s"),
        "graph.with_current_calls": (c["graph.with_current_calls"], "count"),
        "graph.successor_self_s": (t.self_time["graph.explore"], "s"),
        "graph.states": (c["graph.states"], "count"),
        "graph.new_state_ratio": (
            ratio(c["graph.states"] - c["graph.explores_finished"], c["graph.finished_moves"]),
            "ratio",
        ),
        "graph.states_per_s": (ratio(c["graph.states"], c["graph.finished_explore_s"]), "1/s"),
        "process.parse_s": (s["process.parse"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.self_s": (t.self_time["cli.main"], "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
    }
    return metrics
