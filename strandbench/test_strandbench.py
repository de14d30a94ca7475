"""Tests of the benchmark itself: its oracles accept the program's answers and
reject corrupted ones, so a fast wrong answer fails the bench.

Run from the root of a checkout:

    python3 -m pytest -q strandbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run  # loads the checkout's strandprover first
import checks
import inputs
import program
import spans
from strandprover import compiler, graph, resolution
from strandprover.logic import Clause, Literal

SEEDS = (1, 2, 3)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (inputs.refute_cases, inputs.explore_cases, inputs.compare_cases):
            self.assertEqual(make(random.Random("x/1")), make(random.Random("x/1")))
            self.assertNotEqual(make(random.Random("x/1")), make(random.Random("x/2")))

    def test_strata_are_filled(self):
        cases = inputs.refute_cases(random.Random(1))
        self.assertEqual(len(cases), sum(4 * q for q in inputs.REFUTE_QUOTA.values()))
        self.assertEqual(sum(c.expect for c in cases), len(cases) // 2)
        cases = inputs.compare_cases(random.Random(1))
        over = sum(checks.state_count(c.data.clauses) > inputs.CLI_MAX_STATES for c in cases)
        self.assertEqual(over, len(inputs.CLI_FORMATS) * inputs.CLI_BANDS[-1][2])


class TruthTable(unittest.TestCase):
    def test_small_sets(self):
        f = frozenset
        self.assertFalse(checks.satisfiable([f({1}), f({-1})], 1))
        self.assertTrue(checks.satisfiable([f({1, 2}), f({-1})], 2))
        self.assertFalse(checks.satisfiable([f({1, 2}), f({-1, 2}), f({1, -2}), f({-1, -2})], 2))


class RefuteOracle(unittest.TestCase):
    def setUp(self):
        self.workload = run.Refute()
        cases = self.workload.cases(random.Random("refute-3cnf/1"))
        self.unsat = next(c for c in cases if c.expect)
        self.sat = next(c for c in cases if not c.expect)

    def test_accepts_the_program(self):
        for case in (self.unsat, self.sat):
            decided, _ = self.workload.judge(case, self.workload.solve(case))
            self.assertTrue(decided)

    def test_rejects_flipped_verdicts(self):
        for case, flipped in ((self.unsat, resolution.SATURATED), (self.sat, resolution.UNSAT)):
            result, text = self.workload.solve(case)
            with self.assertRaises(checks.WrongAnswer):
                self.workload.judge(case, (replace(result, verdict=flipped), text))

    def test_rejects_broken_proof_steps(self):
        result, text = self.workload.solve(self.unsat)
        for seed in SEEDS:
            rng = random.Random(seed)
            derived = [k for k, s in enumerate(result.steps) if s.parents is not None]
            k = rng.choice(derived)
            step = result.steps[k]
            extra = Literal("x1", rng.random() < 0.5)
            broken = [
                replace(step, clause=step.clause.union(Clause([extra]))),
                replace(step, pivot=step.pivot.complement()),
                replace(step, parents=(step.parents[1], step.parents[0])),
            ]
            if extra in step.clause:
                broken.pop(0)
            for bad in broken:
                steps = result.steps[:k] + (bad,) + result.steps[k + 1 :]
                with self.assertRaises(checks.WrongAnswer, msg=bad.describe()):
                    self.workload.judge(self.unsat, (replace(result, steps=steps), text))

    def test_rejects_a_root_that_is_not_empty(self):
        result, text = self.workload.solve(self.unsat)
        with self.assertRaises(checks.WrongAnswer):
            self.workload.judge(self.unsat, (replace(result, empty_step=0), text))

    def test_rejects_a_short_rendering(self):
        result, text = self.workload.solve(self.unsat)
        with self.assertRaises(checks.WrongAnswer):
            self.workload.judge(self.unsat, (result, "\n".join(text.splitlines()[:-1])))


class ExploreOracle(unittest.TestCase):
    def setUp(self):
        self.workload = run.Explore()
        cases = self.workload.cases(random.Random("explore-toehold/1"))
        self.hairpins = next(c for c in cases if c.size == "hairpins=2 fourways=0")
        self.mixed = next(c for c in cases if c.size == "hairpins=1 fourways=1")

    def test_accepts_the_program(self):
        for case in (self.hairpins, self.mixed):
            self.assertTrue(self.workload.judge(case, self.workload.solve(case))[0])

    def test_rejects_a_dropped_or_repeated_state(self):
        report = self.workload.solve(self.mixed)
        for seed in SEEDS:
            k = random.Random(seed).randrange(1, len(report.states))
            dropped = report.states[:k] + report.states[k + 1 :]
            repeated = report.states[:k] + [report.states[k - 1]] + report.states[k + 1 :]
            for states in (dropped, repeated):
                with self.assertRaises(checks.WrongAnswer):
                    self.workload.judge(self.mixed, replace(report, states=states))

    def test_rejects_a_missing_terminal_and_a_broken_trace(self):
        report = self.workload.solve(self.hairpins)
        with self.assertRaises(checks.WrongAnswer):
            self.workload.judge(self.hairpins, replace(report, terminals=[]))
        (terminal,) = report.terminals
        parents = list(report.parents)
        parents[terminal] = (0, parents[terminal][1])  # the last move, straight from the start
        with self.assertRaises(checks.WrongAnswer):
            self.workload.judge(self.hairpins, replace(report, parents=parents))


class CompareOracle(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.workload = run.Compare(self.dir)
        self.cases = self.workload.cases(random.Random("cli-compare/1"))
        self.cheap = [c for c in self.cases if checks.state_count(c.data.clauses) <= 400][:20]

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_accepts_the_program_and_predicts_every_exit_code(self):
        codes = set()
        over = next(c for c in self.cases if checks.state_count(c.data.clauses) > inputs.CLI_MAX_STATES)
        for case in self.cheap + [over]:
            outcome = self.workload.solve(case)
            decided, _ = self.workload.judge(case, outcome)
            self.assertEqual(decided, outcome[0] != 2)
            codes.add(outcome[0])
        self.assertEqual(codes, {0, 2, 3})

    def test_rejects_flipped_verdict_words(self):
        flips = {"UNSAT": "SATISFIABLE", "SATISFIABLE": "UNSAT"}
        for case in self.cheap:
            code, out, err = self.workload.solve(case)
            lines = out.splitlines()
            for k in (0, 1):
                head, word = lines[k].split(": ")
                if word not in flips:
                    continue
                bad = "\n".join(lines[:k] + [f"{head}: {flips[word]}"] + lines[k + 1 :])
                with self.assertRaises(checks.WrongAnswer, msg=case.id):
                    self.workload.judge(case, (code, bad, err))

    def test_rejects_giving_up_within_the_budget(self):
        case = self.cheap[0]
        code, out, err = self.workload.solve(case)
        lines = out.splitlines()
        bad = "\n".join([lines[0], "hybridization: INDETERMINATE", "INDETERMINATE"])
        with self.assertRaises(checks.WrongAnswer):
            self.workload.judge(case, (2, bad, err))

    def test_error_exit_is_a_failure_not_a_verdict(self):
        with self.assertRaises(checks.NoVerdict):
            self.workload.judge(self.cases[0], (2, "", "error: input contains no clauses\n"))


class ClosedForm(unittest.TestCase):
    def test_matches_explore_on_seeded_clause_sets(self):
        rng = random.Random(7)
        for _ in range(30):
            clauses = inputs._clause_set(rng, "clauses")
            if checks.state_count(clauses) > 400:
                continue
            p, _ = compiler.compile_clauses(run.clause_set(clauses, inputs.CLI_VARIABLES), compiler.default_codebook())
            report = graph.explore(graph.from_process(p))
            self.assertEqual(len(report.states), checks.state_count(clauses))
            verdict = compiler.hybridization_verdict(p)
            self.assertEqual(verdict.is_unsat, checks.balanced(clauses))
            self.assertEqual(len(verdict.free_sites), checks.surplus(clauses))

    def test_toehold_counts(self):
        self.assertEqual(checks.toehold_expectation(2, 1), (3872, 0))
        self.assertEqual(checks.toehold_expectation(1, 0), (22, 1))


class Runs(unittest.TestCase):
    def test_a_fast_wrong_answer_fails_the_run(self):
        workload = run.Refute()
        cases = [c for c in workload.cases(random.Random("refute-3cnf/5")) if c.data.n == 5][:4]
        original = resolution.refute

        def flipped(*args, **kwargs):
            result = original(*args, **kwargs)
            verdict = resolution.SATURATED if result.is_unsat else resolution.UNSAT
            return replace(result, verdict=verdict, empty_step=None)

        resolution.refute = flipped
        try:
            with self.assertRaises(checks.WrongAnswer):
                run.Run(workload, cases, run.Reference()).one_pass()
        finally:
            resolution.refute = original

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
        workload = run.Explore()
        cases = [c for c in workload.cases(random.Random("explore-toehold/1")) if c.expect[0] <= 22][:12]
        measured = run.Run(workload, cases, run.Reference())
        end_to_end = {**measured.end_to_end(0.0), "setup_s": (0.0, "s")}
        per_layer = measured.per_layer()
        for names, metrics in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            self.assertEqual(
                {m["name"]: m["unit"] for m in spec[names]}, {k: unit for k, (_, unit) in metrics.items()}
            )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_instrument_restores_the_program(self):
        before = (resolution.refute, graph.moves, graph.StrandGraph.__dict__["with_current"], compiler.explore)
        with spans.instrument(spans.Tracer()):
            self.assertIsNot(resolution.refute, before[0])
        after = (resolution.refute, graph.moves, graph.StrandGraph.__dict__["with_current"], compiler.explore)
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            workload = run.Explore()
            case = next(c for c in workload.cases(random.Random("explore-toehold/1")) if c.expect[0] == 176)
            workload.solve(case)
        explore_s = tracer.time["graph.explore"]
        inside = tracer.time["graph.moves"] + tracer.time["graph.with_current"]
        self.assertAlmostEqual(tracer.self_time["graph.explore"], explore_s - inside, places=9)
        self.assertEqual(tracer.count["graph.states"], 176)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(program.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(program.ROOT / "strandbench", Path(bare) / "strandbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "strandbench/run.py", "--workload", "refute-3cnf", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
