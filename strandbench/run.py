"""Time to verdict for strandprover on seeded inputs, every answer checked.

Run from the root of a checkout:

    python3 strandbench/run.py --workload refute-3cnf --seed 1 --seconds 35 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    refute-3cnf      resolution.refute, then render_deduction on UNSAT results
    explore-toehold  parse_process, from_process and explore on toehold systems
    cli-compare      cli.main(["compare", ...]) on clause, DIMACS and formula files

One caller runs the inputs one after another: a closed loop, no threads.  It
repeats whole passes over the fixed input set while the next pass still fits
in --seconds, so every pass runs the same mix.  --trace 0 prints the
end-to-end metrics; --trace 1 runs one untraced and one traced pass and
prints the per-layer metrics.  Times are in reference seconds (see
Reference).  An answer an oracle rejects stops the run: the last line then
says "correct": false and the exit code is 1.  A record with the machine,
the seed, wall times and one row per input is written to .bench_out/, so a
later change can show which inputs moved; check a claimed gain on a seed not
used while writing the change as well.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import program

program.load()

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from strandprover import cli, graph, logic, process, resolution  # noqa: E402

OUT = program.ROOT / ".bench_out"
SETUP_REPEATS = 11
REFERENCE_STEPS = 5000
REFERENCE_SECONDS = 0.002
# cli-compare refuses to run when resolution alone takes this share of the
# CLI's fixed refute time budget on any input, so that budget never decides
# a verdict and failures stay deterministic
REFUTE_BUDGET_SHARE = 0.1


def clause_set(clauses, names) -> logic.ClauseSet:
    return logic.ClauseSet(
        logic.Clause(logic.Literal(names[abs(lit) - 1], lit < 0) for lit in sorted(c, key=abs)) for c in clauses
    )


class Refute:
    name = "refute-3cnf"

    def cases(self, rng):
        cases = inputs.refute_cases(rng)
        self.sets = {c.id: clause_set(c.data.clauses, [f"x{v}" for v in range(1, c.data.n + 1)]) for c in cases}
        return cases

    def solve(self, case):
        result = resolution.refute(self.sets[case.id], max_seconds=None)
        return result, resolution.render_deduction(result) if result.is_unsat else None

    def judge(self, case, outcome) -> tuple[bool, str]:
        result, text = outcome
        if result.is_unsat != case.expect:
            raise checks.WrongAnswer(f"verdict {result.verdict}, the truth table disagrees")
        if not result.is_unsat:
            return True, "SAT"

        def lit(literal) -> int:
            v = int(literal.variable[1:])
            return -v if literal.negated else v

        steps = []
        for k, step in enumerate(result.steps):
            if step.index != k:
                raise checks.WrongAnswer(f"step {k} is numbered {step.index}")
            pivot = None if step.pivot is None else lit(step.pivot)
            steps.append((frozenset(map(lit, step.clause)), step.parents, pivot))
        checks.check_refutation(case.data.clauses, steps, result.empty_step)
        lines = text.splitlines()
        if not lines[0].startswith("{}") or len(lines) != checks.tree_size(steps, result.empty_step):
            raise checks.WrongAnswer("the rendered deduction is not the refutation tree")
        return True, "UNSAT"


class Explore:
    name = "explore-toehold"

    def cases(self, rng):
        return inputs.explore_cases(rng)

    def solve(self, case):
        g = graph.from_process(process.parse_process(case.data))
        return graph.explore(g, max_states=50_000)

    def judge(self, case, report) -> tuple[bool, str]:
        states, terminals = case.expect
        if len(report.states) != states or len(set(report.states)) != states:
            raise checks.WrongAnswer(f"{len(report.states)} states reported, {states} are reachable")
        if len(report.terminals) != terminals:
            raise checks.WrongAnswer(f"{len(report.terminals)} terminal states, expected {terminals}")
        for i in report.terminals:
            moves = report.trace_to(i).moves
            if checks.replay(report.states[0], ((m.removed, m.added) for m in moves)) != report.states[i]:
                raise checks.WrongAnswer(f"the trace to terminal state {i} ends elsewhere")
        return True, f"states={states} terminals={terminals}"


class Compare:
    name = "cli-compare"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def cases(self, rng):
        cases = inputs.compare_cases(rng)
        budget = inspect.signature(resolution.refute).parameters["max_seconds"].default
        for c in cases:
            (self.workdir / f"{c.id}.txt").write_text(c.data.text, encoding="utf-8")
            start = perf_counter()
            resolution.refute(clause_set(c.data.clauses, inputs.CLI_VARIABLES), max_seconds=None)
            seconds = perf_counter() - start
            if budget is not None and seconds > REFUTE_BUDGET_SHARE * budget:
                raise SystemExit(
                    f"strandbench: refusing to run: refute takes {seconds:.2f} s on {c.id}, "
                    f"near the CLI's {budget} s time budget"
                )
        return cases

    def solve(self, case):
        argv = ["compare", "--input", str(self.workdir / f"{case.id}.txt"), "--max-states", str(inputs.CLI_MAX_STATES)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def judge(self, case, outcome) -> tuple[bool, str]:
        code, out, _ = outcome
        decided = checks.check_compare(case.data.clauses, len(inputs.CLI_VARIABLES), inputs.CLI_MAX_STATES, code, out)
        return decided, out.splitlines()[-1].split(":")[0]

    @staticmethod
    def output_bytes(outcome) -> int:
        _, out, err = outcome
        return len(out.encode()) + len(err.encode())


class Reference:
    """A fixed piece of interpreter work that tracks how fast the machine runs.

    On a shared machine the same work can run 35-45 % slower for minutes at a
    time (measured on a 2-vCPU Xeon VM), which no amount of repetition inside
    one run averages out.  So the reference is timed before each input, and
    the program times of a pass are scaled by REFERENCE_SECONDS over the
    median reference time of that pass.  A reference second is a wall second
    on a machine that runs the reference in REFERENCE_SECONDS.  Wall times
    stay in the record.

    The work is like the program's: it builds small frozensets and counts
    them in a dict.  (A reference that only reads prebuilt objects tracked
    the program worse.)
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []  # every reference time, for the record

    def tick(self) -> float:
        counts: dict[frozenset, int] = {}
        start = perf_counter()
        for i in range(REFERENCE_STEPS):
            key = frozenset((i % 97, i % 89, i & 7))
            counts[key] = counts.get(key, 0) + 1
        self.ticks.append(perf_counter() - start)
        return self.ticks[-1]


def scale(ticks: list[float]) -> float:
    """Reference seconds per wall second while these ticks were taken."""
    return REFERENCE_SECONDS / statistics.median(ticks)


class Run:
    """Timed passes over one fixed input set, judged as they go."""

    def __init__(self, workload, cases, reference: Reference):
        self.workload = workload
        self.cases = cases
        self.reference = reference
        self.rows = {c.id: {"id": c.id, "size": c.size, "verdict": None, "times": [], "wall": []} for c in cases}
        self.attempted = self.failed = self.decided = 0
        self.record: dict = {}

    def one_pass(self, tracer: spans.Tracer | None = None) -> tuple[float, float]:
        """Reference and wall seconds spent inside the program; raises WrongAnswer."""
        walls, ticks = [], []
        for case in self.cases:
            if tracer is not None:
                tracer.case = case.id
            row = self.rows[case.id]
            ticks.append(self.reference.tick())
            start = perf_counter()
            try:
                outcome = self.workload.solve(case)
                error = None
            except Exception:
                error = traceback.format_exc()
            walls.append(perf_counter() - start)
            self.attempted += 1
            if error is None:
                try:
                    decided, row["verdict"] = self.workload.judge(case, outcome)
                except checks.NoVerdict as exc:
                    error = f"no verdict: {exc}"
                except checks.WrongAnswer as exc:
                    row["verdict"] = f"WRONG: {exc}"
                    raise
                if tracer is not None and hasattr(self.workload, "output_bytes"):
                    tracer.add("cli.output_bytes", self.workload.output_bytes(outcome))
            if error is not None:
                row["verdict"], row["error"], decided = "FAILED", error, False
                self.failed += 1
            self.decided += decided
        factor = scale(ticks)
        if tracer is None:
            for case, wall in zip(self.cases, walls):
                self.rows[case.id]["wall"].append(wall)
                self.rows[case.id]["times"].append(wall * factor)
        return sum(walls) * factor, sum(walls)

    def warm_up(self) -> None:
        """One untimed call on the heaviest input, so lazy set-up inside the
        program is done and the heap has grown before timing starts."""
        case = max(self.cases, key=lambda c: c.work)
        self.workload.judge(case, self.workload.solve(case))

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Whole passes while the next one still fits in the given seconds."""
        started = perf_counter()
        while True:
            pass_start = perf_counter()
            self.one_pass()
            last = perf_counter() - pass_start
            if perf_counter() - started + last > seconds:
                break
        self.record["wall"] = {name: value for name, (value, _) in self._latency("wall").items()}
        return {
            **self._latency("times"),
            "decided_ratio": (self.decided / self.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def _latency(self, key: str) -> dict[str, tuple[float, str]]:
        per_input = sorted(statistics.median(r[key]) for r in self.rows.values())
        n = len(per_input)
        self.record["tail"] = {"percentile": 100 * (n - 10) / n, "samples": n}
        return {
            "verdicts_per_s": (self.decided / sum(sum(r[key]) for r in self.rows.values()), "1/s"),
            "verdict_s_p50": (statistics.median(per_input), "s"),
            # the highest percentile with ten samples beyond it
            "verdict_s_tail": (per_input[n - 11], "s"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """One untraced pass, then one traced pass of the same inputs."""
        untraced, _ = self.one_pass()
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced, traced_wall = self.one_pass(tracer)
        self.record["spans"] = tracer.spans
        self.record["per_case_counters"] = tracer.per_case
        factor = traced / traced_wall  # into reference seconds, as the end-to-end times
        metrics = {"trace.overhead_ratio": (traced / untraced, "ratio")}
        for name, (value, unit) in spans.layer_metrics(tracer).items():
            metrics[name] = (value * {"s": factor, "1/s": 1 / factor}.get(unit, 1), unit)
        return metrics


def setup_seconds(reference: Reference) -> tuple[list[float], list[float]]:
    """Times to import strandprover and strandprover.cli in fresh
    interpreters, in reference and in wall seconds."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(program.SRC)!r}); t = time.perf_counter(); "
        "import strandprover, strandprover.cli; print(time.perf_counter() - t)"
    )
    walls, ticks = [], []
    for _ in range(SETUP_REPEATS):
        ticks.append(reference.tick())
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=program.ROOT, capture_output=True, text=True, check=True, timeout=60
        )
        walls.append(float(done.stdout))
    factor = scale(ticks)
    return [wall * factor for wall in walls], walls


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


WORKLOADS = {"refute-3cnf": Refute, "explore-toehold": Explore, "cli-compare": Compare}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        workload = Compare(workdir) if args.workload == Compare.name else WORKLOADS[args.workload]()
        reference = Reference()
        setup, setup_wall = ([], []) if args.trace else setup_seconds(reference)
        run = Run(workload, workload.cases(random.Random(f"{args.workload}/{args.seed}")), reference)
        try:
            run.warm_up()
            if args.trace:
                metrics = run.per_layer()
            else:
                metrics = {**run.end_to_end(args.seconds), "setup_s": (statistics.median(setup), "s")}
                run.record["wall"]["setup_s"] = statistics.median(setup_wall)
                run.record["setup_samples"] = {"reference_s": setup, "wall_s": setup_wall}
            correct = True
        except checks.WrongAnswer as exc:
            print(f"strandbench: wrong answer, the run is invalid: {exc}", file=sys.stderr)
            metrics, correct = {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **run.record,
        "reference_s": reference.ticks,
        "rows": [
            {**row, "seconds": statistics.median(row["times"]) if row["times"] else None}
            for row in run.rows.values()
        ],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:14.6g} {unit}")
    for name, value in run.record.get("wall", {}).items():
        print(f"{name + ' (wall time)':36} {value:14.6g}")
    if "tail" in run.record:
        tail = run.record["tail"]
        print(f"verdict_s_tail is p{tail['percentile']:.1f} of {tail['samples']} inputs")
    print(f"record: {path.relative_to(program.ROOT)}")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
