"""Command-line interface: commands, input detection, bounds, exit codes."""

import argparse
import functools
import hashlib
import json
import random
from collections import Counter

import pytest

import oracles
from strandprover import cli, compiler, logic, resolution
from strandprover.graph import from_json, from_process, to_json_dict
from strandprover.fixtures import CLAUSES_S, THEOREM, theorem_graph
from strandprover.process import parse_process

DIVERGENT = "P\n~P\nQ\n"
ANCHORED = "P Q\n~Q ~P\nP\n~P\nQ\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- prove -------------------------------------------------------------------


class TestProve:
    def test_fixture_refutation(self, capsys):
        code, out, _ = run(capsys, "prove", "--fixture", "S")
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "UNSAT: the clause set is refuted"
        assert sum("[input]" in line for line in out.splitlines()) == 6

    def test_trace_flag_appends_numbered_steps(self, capsys):
        code, out, _ = run(capsys, "prove", "--fixture", "S", "--trace")
        assert code == cli.EXIT_OK
        assert "0: {~P} [input]" in out
        assert "2: {P, ~Q, R} [input]" in out

    def test_satisfiable_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "clauses.txt"
        path.write_text("P\n")
        code, out, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_SAT
        assert "SATISFIABLE" in out

    def test_dimacs_clauses_beyond_the_header_are_refused(self, monkeypatch, capsys):
        import io

        # three clauses over three variables under a header of one and one
        monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 1\n1 -2 0\n2 0\n-1 3 0\n"))
        code, out, err = run(capsys, "prove", "--input", "-")
        assert code == cli.EXIT_INDETERMINATE and out == ""
        assert "the header declares 1 clauses, the input has 3" in err

    def test_a_second_dimacs_header_is_refused(self, monkeypatch, capsys):
        import io

        # one header per input: a second is refused, whatever it declares
        monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 1\n1 0\np cnf 9 1\n"))
        assert run(capsys, "prove", "--input", "-") == (
            cli.EXIT_INDETERMINATE, "", "error: line 3: a second DIMACS header 'p cnf 9 1'\n")

    @pytest.mark.parametrize("command", ["prove", "compare"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("c note\n1 -2 0\n", "missing 'p cnf' header"),
            ("+1 2 0\n", "missing 'p cnf' header"),
            ("1 -2 0\nQ 0\n", "line 2: non-numeric DIMACS literal"),
            ("-1 | P\n", "line 1: non-numeric DIMACS literal"),
        ],
        ids=["comment", "plus-sign", "letter", "operator"],
    )
    def test_a_line_starting_with_an_integer_is_read_as_dimacs(self, monkeypatch, capsys, command, text, message):
        import io

        # a DIMACS body without its header, not a formula refused at an
        # offset into the joined lines
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, command, "--input", "-") == (cli.EXIT_INDETERMINATE, "", f"error: {message}\n")

    def test_satisfiable_input_prints_its_model(self, monkeypatch, capsys):
        import io

        # Z occurs only in a dropped tautology and still gets a value
        text = "P ~P Z\nP Q\n~Q R\n~R\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "prove", "--input", "-")
        assert code == cli.EXIT_SAT
        assert out.splitlines() == ["SATISFIABLE: the clause set has a model", "model: P ~Q ~R ~Z"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "prove", "--input", "-", "--format", "json")
        assert code == cli.EXIT_SAT
        payload = json.loads(out)
        assert payload["verdict"] == "saturated" and payload["empty_step"] is None
        assert payload["model"] == ["P", "~Q", "~R", "~Z"]

    def test_stdin_clause_lines(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("P\n~P\n"))
        code, out, _ = run(capsys, "prove", "--input", "-")
        assert code == cli.EXIT_OK

    def test_formula_input_is_detected(self, tmp_path, capsys):
        path = tmp_path / "formula.txt"
        path.write_text("P & ~P\n")
        code, _, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_OK

    def test_dimacs_input_is_detected(self, tmp_path, capsys):
        path = tmp_path / "problem.cnf"
        path.write_text("c tiny\np cnf 1 2\n1 0\n-1 0\n")
        code, _, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_OK

    def test_dimacs_percent_end_marker(self, tmp_path, capsys):
        path = tmp_path / "uf2-01.cnf"
        path.write_text("p cnf 2 1\n1 -2 0\n%\n0\n")
        code, out, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_SAT
        assert out.startswith("SATISFIABLE")

    def test_goal_is_refuted_against_the_axioms(self, tmp_path, capsys):
        path = tmp_path / "axioms.txt"
        path.write_text("P\n")
        code, _, _ = run(capsys, "prove", "--input", str(path), "--goal", "P")
        assert code == cli.EXIT_OK
        code, _, _ = run(capsys, "prove", "--input", str(path), "--goal", "Q")
        assert code == cli.EXIT_SAT

    @pytest.mark.parametrize("goal", ["", " "])
    def test_empty_goal_is_a_parse_error(self, capsys, goal):
        code, out, err = run(capsys, "prove", "--fixture", "S", "--goal", goal)
        assert code == cli.EXIT_INDETERMINATE
        assert out == ""
        assert err == "error: empty formula\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "prove", "--fixture", "S", "--format", "json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "unsat" and payload["model"] is None
        last = payload["steps"][payload["empty_step"]]
        assert last["clause"] == [] and last["on"] is not None
        inputs = [s for s in payload["steps"] if s["parents"] is None]
        assert len(inputs) == 6
        assert payload["steps"][0] == {
            "index": 0, "clause": ["~P"], "parents": None, "on": None,
        }
        assert payload["steps"][2] == {
            "index": 2, "clause": ["P", "~Q", "R"], "parents": None, "on": None,
        }

    def test_malformed_input_exits_indeterminate(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("P & | Q\n")
        code, _, err = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.strip()

    def test_resource_limit_is_reported_on_stderr(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise resolution.ResourceLimitError("clause budget exhausted")

        monkeypatch.setattr(cli.resolution, "refute", exhausted)
        code, out, err = run(capsys, "prove", "--fixture", "S")
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith("INDETERMINATE: clause budget exhausted")
        assert out == ""

    @pytest.mark.parametrize(
        "text", ["~" * 3000 + "P | Q", "(" * 3000 + "P" + ")" * 3000], ids=["negations", "parentheses"]
    )
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "deep.txt"
        path.write_text(text + "\n")
        code, _, err = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith("error: formula nests deeper than")

    def test_nesting_up_to_the_bound_is_proved(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("~" * (logic.MAX_NESTING - 2) + "(P & ~P)\n")
        code, out, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_OK
        assert out.startswith("UNSAT")

    def test_operators_in_comments_do_not_make_a_formula(self, tmp_path, capsys):
        path = tmp_path / "clauses.txt"
        path.write_text("# example 1 - see text\nP Q\n~P\n~Q\n")
        code, out, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_OK
        assert out.startswith("UNSAT")

    def test_clausal_form_blow_up_is_an_error(self, tmp_path, capsys):
        # 17 two-literal conjunctions distribute to 2**17 clauses
        assert 2**16 <= logic.MAX_CLAUSES < 2**17
        path = tmp_path / "dnf.txt"
        path.write_text(" | ".join(f"(A{k} & B{k})" for k in range(17)) + "\n")
        code, out, err = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith(f"error: clausal form would exceed {logic.MAX_CLAUSES} clauses")
        assert out == ""

    def test_missing_file_exits_indeterminate(self, capsys):
        code, _, err = run(capsys, "prove", "--input", "/no/such/file")
        assert code == cli.EXIT_INDETERMINATE

    def test_process_fixture_is_rejected_for_proving(self, capsys):
        code, _, err = run(capsys, "prove", "--fixture", "hairpin")
        assert code == cli.EXIT_INDETERMINATE
        assert "clause set" in err

    def test_unknown_fixture_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["prove", "--fixture", "nope"])
        assert excinfo.value.code == 2

    def test_input_and_fixture_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["prove", "--fixture", "S", "--input", "-"])


# --- compile -----------------------------------------------------------------


class TestCompile:
    def test_fixture_compilation(self, capsys):
        code, out, _ = run(capsys, "compile", "--fixture", "S")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == THEOREM
        assert ">clause 1: P ~Q R" in lines
        assert "ACGTAGTCACGAATTGACTGTCAGTCGAAT" in lines

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "compile", "--fixture", "S", "--format", "json")
        payload = json.loads(out)
        assert payload["process"] == THEOREM
        assert len(payload["clauses"]) == 6
        assert payload["clauses"][0]["bases"].startswith("ACGTAGTCAC")
        assert payload["codebook"]["P"] == "ACGTAGTCAC"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "compile", "--fixture", "S", "--format", "dot")
        assert code == cli.EXIT_OK
        assert out.startswith("graph strand_system {")

    def test_generated_codes_cover_unknown_variables(self, tmp_path, capsys):
        path = tmp_path / "clauses.txt"
        path.write_text("alpha ~beta\nbeta\n")
        code, out, _ = run(capsys, "compile", "--input", str(path))
        assert code == cli.EXIT_OK

    def test_explicit_codebook_must_cover_all_variables(self, tmp_path, capsys):
        clauses = tmp_path / "clauses.txt"
        clauses.write_text("P Z\n")
        book = tmp_path / "codes.txt"
        book.write_text("P ACGTACGTAC\n")
        code, _, err = run(
            capsys, "compile", "--input", str(clauses), "--codebook", str(book)
        )
        assert code == cli.EXIT_INDETERMINATE
        assert "Z" in err

    def test_explicit_codebook_sets_the_bases(self, tmp_path, capsys):
        book = compiler.generate_codebook(["P", "Q", "R", "U", "V"])
        path = tmp_path / "codes.txt"
        path.write_text(book.to_text())
        code, out, _ = run(capsys, "compile", "--fixture", "S", "--codebook", str(path), "--format", "json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["codebook"] == {var: book.sense(var) for var in book.variables()}
        assert payload["clauses"][2]["bases"] == book.sense("Q")

    def test_json_lists_exactly_the_input_variables(self, tmp_path, capsys):
        clauses = tmp_path / "clauses.txt"
        clauses.write_text("beta ~Q\nalpha\n")
        code, out, _ = run(capsys, "compile", "--input", str(clauses), "--format", "json")
        assert code == cli.EXIT_OK
        generated = json.loads(out)["codebook"]
        assert list(generated) == ["Q", "alpha", "beta"]  # the built-in P, R, U and V are left out
        book = tmp_path / "codes.txt"
        book.write_text(compiler.generate_codebook(["P", "Q", "alpha", "beta", "gamma"]).to_text())
        code, out, _ = run(capsys, "compile", "--input", str(clauses), "--codebook", str(book), "--format", "json")
        assert code == cli.EXIT_OK
        assert list(json.loads(out)["codebook"]) == ["Q", "alpha", "beta"]

    def test_a_code_that_is_its_own_reverse_complement_is_refused(self, tmp_path, capsys):
        book = tmp_path / "codes.txt"
        book.write_text("P ACGTACGT\n")
        clauses = tmp_path / "clauses.txt"
        clauses.write_text("P\n~P\n")
        code, out, err = run(capsys, "compile", "--input", str(clauses), "--codebook", str(book))
        assert code == cli.EXIT_INDETERMINATE and out == ""
        assert "code for P is its own reverse complement" in err

    def test_a_literal_and_its_negation_get_different_bases(self, monkeypatch, capsys):
        import io

        # no generated code is its own reverse complement, so ~x33's bases
        # are not x33's: 40 generated codes include x33's
        units = "p cnf 40 41\n" + "".join(f"{k} 0\n" for k in range(1, 41)) + "-33 0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(units))
        code, out, _ = run(capsys, "compile", "--input", "-", "--format", "json")
        assert code == cli.EXIT_OK
        clauses = json.loads(out)["clauses"]
        assert [clauses[k]["clause"] for k in (32, 40)] == ["x33", "~x33"]
        assert clauses[32]["bases"] != clauses[40]["bases"]
        assert clauses[40]["bases"] == compiler.reverse_complement(clauses[32]["bases"])

    def test_seven_hundred_variables_get_codes(self, monkeypatch, capsys):
        import io

        units = "p cnf 700 700\n" + "".join(f"{k} 0\n" for k in range(1, 701))
        monkeypatch.setattr("sys.stdin", io.StringIO(units))
        code, out, err = run(capsys, "compile", "--input", "-", "--format", "json")
        assert code == cli.EXIT_OK and err == ""
        assert json.loads(out)["codebook"].keys() == {f"x{k}" for k in range(1, 701)}


# --- simulate ----------------------------------------------------------------


class TestSimulate:
    def test_theorem_state_space(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fixture", "theorem")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "states explored: 32"
        assert lines[1] == "terminal states: 1"
        assert "terminal at depth 5: |E|=5" in lines[2]

    def test_fourway_cycles(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fixture", "fourway")
        assert code == cli.EXIT_OK
        assert "states explored: 8" in out
        assert "terminal states: 0" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fixture", "theorem", "--format", "json")
        payload = json.loads(out)
        assert payload["states"] == 32
        assert len(payload["terminals"]) == 1
        assert payload["terminals"][0]["depth"] == 5
        assert len(payload["terminals"][0]["trace"]) == 5

    def test_dot_snapshots_along_the_witness(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fixture", "theorem", "--format", "dot")
        assert code == cli.EXIT_OK
        assert out.count("// step") == 6  # initial state plus five moves

    def test_fourway_dot_is_pinned(self, capsys):
        code, out, _ = run(capsys, "simulate", "--fixture", "fourway", "--format", "dot")
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "70e59cd4f937d729ff86cf534028974e3f0b703148ed7c7d414175485c893945"
        )

    def test_state_bound_flag(self, capsys):
        code, _, err = run(capsys, "simulate", "--fixture", "theorem", "--max-states", "4")
        assert code == cli.EXIT_INDETERMINATE
        assert "INDETERMINATE" in err

    @pytest.mark.parametrize("budget, expected", [("8", cli.EXIT_OK), ("7", cli.EXIT_INDETERMINATE)])
    def test_state_budget_is_exact(self, capsys, budget, expected):
        # fourway has exactly 8 states
        code, _, _ = run(capsys, "simulate", "--fixture", "fourway", "--max-states", budget)
        assert code == expected

    def test_deep_chain_is_explored(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(oracles.branch_migration(210)))
        code, out, _ = run(capsys, "simulate", "--input", "-")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[:2] == ["states explored: 212", "terminal states: 1"]
        assert lines[2].startswith("terminal at depth 210:")

    def test_process_input_from_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("<a^> | <a^*>\n"))
        code, out, _ = run(capsys, "simulate", "--input", "-")
        assert code == cli.EXIT_OK
        assert "states explored: 2" in out


# --- compare -----------------------------------------------------------------


class TestCompare:
    def test_fixture_agreement_on_unsat(self, capsys):
        code, out, _ = run(capsys, "compare", "--fixture", "S")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert "resolution: UNSAT" in lines
        assert "hybridization: UNSAT" in lines
        assert "AGREE" in lines

    def test_agreement_on_satisfiable(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("P\n"))
        code, out, _ = run(capsys, "compare", "--input", "-")
        assert code == cli.EXIT_OK
        assert "resolution: SATISFIABLE" in out
        assert "hybridization: SATISFIABLE" in out

    def test_divergence_exits_three_and_names_the_free_site(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(DIVERGENT))
        code, out, _ = run(capsys, "compare", "--input", "-")
        assert code == cli.EXIT_DISAGREE
        assert "resolution: UNSAT" in out
        assert "hybridization: SATISFIABLE" in out
        assert "DISAGREE" in out
        assert "free site (3,1): Q, can never bind" in out

    def test_resolution_budget_makes_compare_indeterminate(self, monkeypatch, capsys):
        # the only way compare exits 2 on a valid input: resolution gives up
        monkeypatch.setattr(resolution, "refute", functools.partial(resolution.refute, max_clauses=1))
        code, out, err = run(capsys, "compare", "--fixture", "S")
        assert code == cli.EXIT_INDETERMINATE
        assert out.splitlines() == [
            "resolution: INDETERMINATE",
            "hybridization: UNSAT",
            "resolution indeterminate: clause budget of 1 exhausted after 0 conflicts with 1 steps logged",
            "INDETERMINATE",
        ]
        assert err == ""

    def test_anchored_sets_decide_under_any_budget(self, monkeypatch, capsys):
        import io

        # P-P* next to Q-Q* on strands 1 and 2 is an anchored pair, which could
        # start a displacement; the set is still decided from its literals
        monkeypatch.setattr("sys.stdin", io.StringIO(ANCHORED))
        code, out, _ = run(capsys, "compare", "--input", "-", "--max-states", "4")
        assert code == cli.EXIT_DISAGREE
        assert "hybridization: SATISFIABLE" in out
        assert "INDETERMINATE" not in out

    def test_bind_only_sets_decide_under_any_budget(self, capsys):
        code, out, _ = run(capsys, "compare", "--fixture", "S", "--max-states", "1")
        assert code == cli.EXIT_OK
        assert "hybridization: UNSAT" in out

    @pytest.mark.parametrize(
        "text, code",
        [(CLAUSES_S, cli.EXIT_OK), ("P\n", cli.EXIT_OK), (DIVERGENT, cli.EXIT_DISAGREE), (ANCHORED, cli.EXIT_DISAGREE)],
    )
    def test_bind_only_sets_build_no_strand_and_no_graph(self, monkeypatch, capsys, text, code):
        import io

        def refused(*args, **kwargs):
            raise AssertionError("built a strand system")

        for name in ("clause_process", "from_process", "explore"):
            monkeypatch.setattr(compiler, name, refused)
        for name in ("from_process", "explore"):
            monkeypatch.setattr(cli.graph, name, refused)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(capsys, "compare", "--input", "-")[0] == code

    def test_free_site_lines_are_those_of_the_strand_graph(self, monkeypatch, capsys):
        import io
        import random

        from strandprover.graph import format_domain, from_process

        rng = random.Random(41)
        kinds = Counter()
        while kinds["anchored"] < 30 or kinds["bind-only"] < 30:
            s = oracles.random_clause_set(rng, variables=rng.randint(1, 3), clauses=5, max_len=2)
            if any(c.is_empty() for c in s):
                continue
            long = [c for c in s if len(c) > 1]
            if long and rng.random() < 0.5:  # the mirror of a clause: an anchored pair
                mirror = logic.Clause(lit.complement() for lit in reversed(long[0].literals))
                s = logic.ClauseSet(list(s) + [mirror])
            g = from_process(compiler.clause_process(s))
            never = oracles.unbindable_sites(g)
            want = [
                f"free site {site}: {format_domain(g.label(site))}" + (", can never bind" if site in never else "")
                for site in oracles.greedy_free_sites(g)
            ]
            monkeypatch.setattr("sys.stdin", io.StringIO(str(s) + "\n"))
            code, out, _ = run(capsys, "compare", "--input", "-")
            if code != cli.EXIT_DISAGREE:
                continue
            assert [line for line in out.splitlines() if line.startswith("free site")] == want, str(s)
            kinds["anchored" if any(g._index.anchors) else "bind-only"] += 1
            kinds["never"] += any(line.endswith("can never bind") for line in want)
        assert kinds["never"] > 0

    @pytest.mark.parametrize("flag", ["--max-states"])
    @pytest.mark.parametrize("source", [["--fixture", "S"], ["--input", "-"]], ids=["bind-only", "anchored"])
    def test_non_positive_bounds_are_an_error(self, monkeypatch, capsys, flag, source):
        import io

        def unreached(*args, **kwargs):
            raise AssertionError("the bound is checked before either engine runs")

        monkeypatch.setattr("sys.stdin", io.StringIO(ANCHORED))
        monkeypatch.setattr(resolution, "refute", unreached)
        monkeypatch.setattr(compiler, "free_sites", unreached)
        code, out, err = run(capsys, "compare", *source, flag, "0")
        assert code == cli.EXIT_INDETERMINATE
        assert out == ""
        assert err.strip() == "error: exploration bounds must be positive"


# --- export ------------------------------------------------------------------


class TestExport:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "export", "--fixture", "fourway")
        assert code == cli.EXIT_OK
        assert "vertices: 4" in out
        assert "admissible: (1,1)-(2,3)," in out
        assert "current: (1,1)-(2,3)," in out

    def test_json_round_trips_through_the_library(self, capsys):
        code, out, _ = run(capsys, "export", "--fixture", "hairpin", "--format", "json")
        assert code == cli.EXIT_OK
        g = from_json(out)
        assert g.lengths == (2, 3, 6)

    def test_graph_json_is_accepted_as_input(self, tmp_path, capsys):
        code, out, _ = run(capsys, "export", "--fixture", "theorem", "--format", "json")
        path = tmp_path / "graph.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "export", "--input", str(path), "--format", "json")
        assert code == cli.EXIT_OK
        assert out2 == out

    def test_process_text_is_accepted_as_input(self, tmp_path, capsys):
        path = tmp_path / "system.txt"
        path.write_text("<a^ b> | <b* a^*>\n")
        code, out, _ = run(capsys, "export", "--input", str(path))
        assert code == cli.EXIT_OK
        assert "vertices: 2" in out

    def test_clause_text_is_compiled_first(self, tmp_path, capsys):
        path = tmp_path / "clauses.txt"
        path.write_text(CLAUSES_S)
        code, out, _ = run(capsys, "export", "--input", str(path))
        assert code == cli.EXIT_OK
        assert "vertices: 6" in out

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda d: d["vertices"][0].pop("domains"),
            lambda d: d.update(vertices=[5]),
            lambda d: d.update(toehold=5),
            lambda d: d.update(vertices=3),
            lambda d: d["vertices"][0].update(colour=float("inf")),
            lambda d: d.update(current=[[[1, float("inf")], [2, 1]]]),
            lambda d: d["vertices"][2].update(domains="Q"),  # a string, read char by char
            lambda d: (d["admissible"].append(d["admissible"][0]), d["toehold"].append(d["toehold"][0])),
        ],
        ids=["no-domains", "vertex-not-object", "toehold-not-list", "vertices-not-list",
             "infinite-colour", "infinite-site", "domains-string", "admissible-twice"],
    )
    def test_malformed_graph_json_is_an_error(self, tmp_path, capsys, spoil):
        data = to_json_dict(theorem_graph())
        spoil(data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "export", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["simulate", "export"])
    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_clause_fixture_is_compiled_first(self, capsys, command, fmt):
        # S compiles to the theorem's strand system
        want = run(capsys, command, "--fixture", "theorem", "--format", fmt)
        assert run(capsys, command, "--fixture", "S", "--format", fmt) == want
        assert want[0] == cli.EXIT_OK

    def test_deeply_nested_graph_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, _, err = run(capsys, "export", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith("error: graph JSON nests too deeply")

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "export", "--fixture", "fourway", "--format", "dot")
        assert code == cli.EXIT_OK
        assert out.startswith("graph strand_system {")

    @pytest.mark.parametrize(
        "fixture, fmt, digest",
        [
            ("hairpin", "text", "ea59b8df6c3d0e8f30d17fdaa8a2472680f18839a670492a744c3ec89d4aaaa6"),
            ("hairpin", "json", "c4e0629af653bb5316338c1df59c8264b409c9037ed559fb548d5b0aa9a47924"),
            ("hairpin", "dot", "260eed43a4274d99c61315d2ac52a161774c984091bed0bb9b52d7a3841e1b7e"),
            ("fourway", "text", "7ed5621670b6f47c682ccc5b6d42c56020773986154526abcd6bf01456145d9e"),
            ("fourway", "json", "1ddd751b972e5b7793750f610351240efd298d7ffa667c05c8422204043bd34d"),
            ("fourway", "dot", "1a0d98ccb531dae8cb954bcffa51e5420b0208293a289dce4e04f69a7b1decf8"),
            ("theorem", "text", "9d7ef657b8aab5a279743c076639905f75b5c17ba9331c0b287050c8d22a2127"),
            ("theorem", "json", "28c42c049eae55931ec62c873f628dc2d411e67c7eadd80be16d7dc2ff639af2"),
            ("theorem", "dot", "11e3a8f02f81ad72f5b103f330a4791163d32e2709a2234481b0e0ed7804caf6"),
        ],
    )
    def test_output_is_pinned(self, capsys, fixture, fmt, digest):
        code, out, _ = run(capsys, "export", "--fixture", fixture, "--format", fmt)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- clause sets without a codebook -------------------------------------------

DIMACS_S = "p cnf 5 6\n1 -2 3 0\n-4 5 -3 0\n2 0\n-5 0\n-1 0\n4 0\n"
FORMULA_S = "(P | ~Q | R) & (U -> V | ~R) & Q & ~V & ~P & U\n"


class TestOnlyCompileReadsACodebook:
    @pytest.mark.parametrize("text", [CLAUSES_S, DIMACS_S, FORMULA_S], ids=["clauses", "dimacs", "formula"])
    @pytest.mark.parametrize(
        "argv",
        [["compare"], *(["simulate", "--format", f] for f in ("text", "json", "dot")),
         *(["export", "--format", f] for f in ("text", "json", "dot"))],
        ids=lambda argv: "-".join(argv[::2]),
    )
    def test_clause_inputs_read_no_codebook(self, monkeypatch, tmp_path, capsys, text, argv):
        path = tmp_path / "input.txt"
        path.write_text(text)
        before = run(capsys, *argv, "--input", str(path))

        def no_codebook(*args, **kwargs):
            raise AssertionError("a codebook was read")

        monkeypatch.setattr(compiler, "default_codebook", no_codebook)
        monkeypatch.setattr(compiler, "generate_codebook", no_codebook)
        monkeypatch.setattr(compiler.Codebook, "from_text", no_codebook)
        assert run(capsys, *argv, "--input", str(path)) == before
        assert before[0] == cli.EXIT_OK and before[2] == ""

    @pytest.mark.parametrize("command", ["simulate", "compare", "export"])
    def test_codebook_option_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "codes.txt"
        path.write_text(compiler.default_codebook().to_text())
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--fixture", "S", "--codebook", str(path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["prove", "compile", "simulate", "compare", "export"])
    def test_only_compile_lists_the_codebook_option(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert ("--codebook" in capsys.readouterr().out) == (command == "compile")

    @pytest.mark.parametrize("command", ["prove", "compile", "simulate", "compare", "export"])
    def test_only_simulate_and_compare_list_the_budget_option(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps help text
        assert ("--max-states" in out) == (command in ("simulate", "compare"))
        if command == "simulate":
            assert "--max-states N state budget for exploration (default 50000)" in out
        if command == "compare":
            assert "only checked to be positive: compare decides hybridization without exploring" in out

    def test_variables_beyond_any_code_search_agree(self, monkeypatch, capsys):
        import io

        # 700 unit clauses: compare reads no codebook, so no code search runs
        units = "p cnf 700 700\n" + "".join(f"{k} 0\n" for k in range(1, 701))
        monkeypatch.setattr("sys.stdin", io.StringIO(units))
        code, out, err = run(capsys, "compare", "--input", "-")
        assert code == cli.EXIT_OK
        assert out.splitlines() == ["resolution: SATISFIABLE", "hybridization: SATISFIABLE", "AGREE"]
        assert err == ""


# --- byte-order marks ---------------------------------------------------------

# Each input kind the readers tell apart, with the command that reads it; the
# codebook case reads its text through --codebook, the others through --input.
BOM_CASES = {
    "clause lines": (["prove"], CLAUSES_S),
    "dimacs": (["prove"], "c fixture S\np cnf 5 6\n1 -2 3 0\n-4 5 -3 0\n2 0\n-5 0\n-1 0\n4 0\n"),
    "formula": (["prove"], "(P | ~Q | R) & (~U | V | ~R) & Q & ~V & ~P & U\n"),
    "process": (["simulate"], THEOREM + "\n"),
    "graph json": (["simulate"], json.dumps(to_json_dict(theorem_graph()))),
    "codebook": (["compile", "--fixture", "S"], compiler.generate_codebook(["P", "Q", "R", "U", "V"]).to_text()),
}


class TestByteOrderMark:
    @pytest.mark.parametrize("via", ["path", "stdin"])
    @pytest.mark.parametrize("kind", sorted(BOM_CASES))
    def test_a_leading_bom_is_ignored(self, monkeypatch, tmp_path, capsys, kind, via):
        import io

        argv, text = BOM_CASES[kind]
        option = "--codebook" if kind == "codebook" else "--input"
        results = []
        for prefix in ("", "\ufeff"):
            if via == "path":
                path = tmp_path / f"input{len(prefix)}.txt"
                path.write_bytes((prefix + text).encode("utf-8"))
                results.append(run(capsys, *argv, option, str(path)))
            else:
                monkeypatch.setattr("sys.stdin", io.StringIO(prefix + text))
                results.append(run(capsys, *argv, option, "-"))
        plain, marked = results
        assert plain[0] == cli.EXIT_OK and plain[2] == ""
        assert marked == plain


# --- top level ---------------------------------------------------------------

COMMANDS = ("prove", "compile", "simulate", "compare", "export")
# one valid line per subcommand
VALID_LINES = [
    ["prove", "--fixture", "S"],
    ["compile", "--fixture", "S"],
    ["simulate", "--fixture", "fourway"],
    ["compare", "--fixture", "S"],
    ["export", "--fixture", "fourway"],
]
# help, version, unknown commands, unknown and extra arguments, abbreviations,
# '--opt=value', '--' and options before the command; each subcommand's help;
# the valid lines
ARGV_TABLE = [
    [], ["--help"], ["-h"], ["--version"], ["--vers"], ["bogus"], ["comp"], ["help"], ["compare"],
    ["compare", "compare"], ["compare", "--fixture", "S", "--bogus"], ["compare", "--fixture", "S", "--bogus=1"],
    ["compare", "--fixture", "S", "-x"], ["compare", "--fixture", "S", "-mx"], ["compare", "--fixture", "S", "extra"],
    ["compare", "--fixture", "S", "compare"], ["compare", "--fixture", "S", "--version"],
    ["compare", "--fixture", "S", "--ver"], ["compare", "--fix", "S"], ["compare", "--fixture", "S", "--m", "5"],
    ["compare", "--fixture", "S", "--he"], ["prove", "--fixture", "S", "--tr"], ["compare", "--max"],
    ["compare", "--fixture=S"], ["compare", "--fixture", "S", "--max-states=5"],
    ["prove", "--fixture", "S", "--goal=P", "--trace"], ["compare", "--fixture", "S", "--max-states", "x"],
    ["compare", "--fixture", "nope"], ["compare", "--fixture", "S", "--input", "-"],
    ["compare", "--fixture", "S", "--fixture", "S"], ["prove", "--fixture", "S", "--format", "dot"],
    ["compare", "--fixture", "S", "--format", "json"], ["simulate", "--fixture", "S", "--codebook", "x"],
    ["compile", "--fixture", "S", "--codebook"], ["prove", "--fixture", "S", "--goal", "-P"],
    ["compare", "--", "--fixture", "S"], ["compare", "--fixture", "S", "--"], ["compare", "--fixture", "S", "--", "x"],
    ["compare", "--fixture", "S", "--max-states", "--", "5"], ["compare", "-", "--fixture", "S"],
    ["--", "compare", "--fixture", "S"], ["--version", "compare", "--fixture", "S"], ["-h", "compare"],
    ["--help", "compare"], ["--bogus", "compare", "--fixture", "S"], ["compare", "--fixture", "S", "-h"],
    *([command, "--help"] for command in COMMANDS),
    *VALID_LINES,
]


def _outcome(capsys, call, *argv):
    """The exit code call(*argv) returns, or ('SystemExit', code), with stdout and stderr."""
    try:
        code = call(*argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _whole_parser_main(argv):
    """A command line read by the whole parser, as cli.main once read every line."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.fixture
def namespaces(monkeypatch):
    """The namespaces the command functions are called with, recorded by a
    parser built afresh around the recorders and dropped afterwards."""
    seen = []
    for name in ("cmd_prove", "cmd_compile", "cmd_simulate", "cmd_compare", "cmd_export"):
        def recorder(args, command=getattr(cli, name)):
            seen.append(args)
            return command(args)

        monkeypatch.setattr(cli, name, recorder)
    cli.build_parser.cache_clear()
    yield seen
    cli.build_parser.cache_clear()


class TestTopLevel:
    @pytest.mark.parametrize("argv", ARGV_TABLE, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_does_what_the_whole_parser_does(self, capsys, namespaces, argv):
        got = _outcome(capsys, cli.main, argv)
        assert got == _outcome(capsys, _whole_parser_main, argv)
        if argv in VALID_LINES:
            assert got[0] == cli.EXIT_OK
        if isinstance(got[0], int):  # the command ran, from equal namespaces
            main_args, reference_args = namespaces
            assert main_args == reference_args
            # the line's first word that names a subcommand: Python 3.13.13's
            # argparse runs '-- compare ...' as compare, where 3.13.0's exits 2
            assert main_args.command == next(word for word in argv if word in COMMANDS)
        else:
            assert namespaces == []

    def test_a_line_is_parsed_once_by_its_subcommand(self, monkeypatch, capsys):
        progs = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            progs.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(capsys, "compare", "--fixture", "S")[0] == cli.EXIT_OK
        assert progs == ["strandprover compare"]
        progs.clear()
        # an unrecognised argument: the whole parser reads the line once more
        # and hands the subcommand's arguments to its parser again
        code, out, err = _outcome(capsys, cli.main, ["compare", "--fixture", "S", "--bogus"])
        assert progs == ["strandprover compare", "strandprover", "strandprover compare"]
        assert (code, out) == (("SystemExit", 2), "")
        assert err.splitlines()[-1] == "strandprover: error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("argv", [["compare", "--fixture", "S"], ["--version"], ["compare", "--bogus"]])
    def test_main_without_arguments_reads_sys_argv(self, monkeypatch, capsys, argv):
        want = _outcome(capsys, cli.main, argv)
        monkeypatch.setattr("sys.argv", ["strandprover", *argv])
        assert _outcome(capsys, cli.main) == want

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["compare", "--fixture", "S", "--format", "json"], ["prove", "--fixture", "S", "--format", "dot"]],
        ids=["compare-json", "prove-dot"],
    )
    def test_unimplemented_formats_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["prove", "compile", "simulate", "compare", "export"])
    def test_comment_only_input_is_an_error(self, tmp_path, capsys, command):
        path = tmp_path / "comments.txt"
        path.write_text("# no clauses here\n\n")
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert out == ""
        assert err == "error: input contains no clauses\n"

    def test_the_empty_clause_has_no_strand_image(self, tmp_path, capsys):
        # DIMACS writes {} as a bare 0: prove refutes the set in one step,
        # while the strand commands refuse it before printing anything
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 1 2\n1 0\n0\n")
        code, out, _ = run(capsys, "prove", "--input", str(path), "--trace")
        assert code == cli.EXIT_OK
        assert out.splitlines() == ["UNSAT: the clause set is refuted", "{}  [input]", "0: {} [input]"]
        for command in ("compile", "simulate", "compare", "export"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert (code, out, err) == (cli.EXIT_INDETERMINATE, "", "error: the empty clause has no strand image\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "earlier",
        [["compare", "--fixture", "S", "--max-states", "x"], ["--help"], ["--version"]],
        ids=["usage-error", "help", "version"],
    )
    def test_earlier_calls_leave_the_shared_parser_unchanged(self, capsys, earlier):
        cli.build_parser.cache_clear()
        first = run(capsys, "compare", "--fixture", "S")
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit):
            cli.main(earlier)
        capsys.readouterr()
        assert run(capsys, "compare", "--fixture", "S") == first


# --- error messages ----------------------------------------------------------

# process text -> the message of the ProcessError it raises
PROCESS_ERRORS = [
    ("<a #>", "bad domain token '#'"),
    ("<a!x!y> | <a*>", "bad domain token 'a!x!y'"),
    ("<a> | <>", "empty strand"),
    ("<a> | <  >", "empty strand"),
    ("<a> | b>", "strand 'b>' is not delimited by < and >"),
    ("<a> | <b", "strand '<b' is not delimited by < and >"),
    ("<a> |", "strand '' is not delimited by < and >"),
    ("⟨a^⟩ | ⟨a*⟩", "domain name 'a' is used both as toehold and long"),
    ("<b a> | <a* b^*>", "domain name 'b' is used both as toehold and long"),
    ("<a!x b> | <a*>", "bond 'x' occurs 1 time(s), expected 2"),
    ("<a!x> | <a*!x> | <a!x>", "bond 'x' occurs 3 time(s), expected 2"),
    ("<a!x> | <a*!x> | <a!y> | <a*!z>", "bond 'y' occurs 1 time(s), expected 2"),
    ("<a!x> | <a!x>", "bond 'x' joins non-complementary occurrences"),
    ("<a!x> | <b*!x>", "bond 'x' joins non-complementary occurrences"),
    # every token is read before labels are checked, and labels before bonds
    ("<a^> | <a*> | <#>", "bad domain token '#'"),
    ("<a!x> | <b^> | <b>", "domain name 'b' is used both as toehold and long"),
]

# '<a^!x b> | <b* a^*!x>': admissible (1,1)-(2,2), a toehold edge, and (1,2)-(2,1)
TWO_STRANDS = {
    "vertices": [
        {"id": 1, "length": 2, "colour": 1, "domains": ["a^", "b"]},
        {"id": 2, "length": 2, "colour": 2, "domains": ["b*", "a^*"]},
    ],
    "admissible": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
    "toehold": [True, False],
    "current": [[[1, 1], [2, 2]]],
}
# '<a> | <a*> | <a>': site (2,1) has two partners
SHARED_SITE = {
    "vertices": [
        {"id": 1, "length": 1, "colour": 1, "domains": ["a"]},
        {"id": 2, "length": 1, "colour": 2, "domains": ["a*"]},
        {"id": 3, "length": 1, "colour": 1, "domains": ["a"]},
    ],
    "admissible": [[[1, 1], [2, 1]], [[2, 1], [3, 1]]],
    "toehold": [False, False],
    "current": [],
}

_DROP = object()  # a change that deletes the key


def _spoiled(base: dict, **changes) -> dict:
    """A copy of base with each change made: a key path joined by '__', list
    indices as digits, to its new value."""
    data = json.loads(json.dumps(base))
    for path, value in changes.items():
        *keys, last = path.split("__")
        node = data
        for key in keys:
            node = node[int(key) if key.isdigit() else key]
        if value is _DROP:
            del node[last]
        else:
            node[int(last) if last.isdigit() else last] = value
    return data


# graph JSON -> the message of the GraphError (or ProcessError) it raises
GRAPH_ERRORS = [
    (_spoiled(TWO_STRANDS, current=[[[1, 1.5], [2, 2]]]), "bad edge entry [[1, 1.5], [2, 2]]: coordinates must be integers"),
    (_spoiled(TWO_STRANDS, current=[[[1, True], [2, 2]]]), "bad edge entry [[1, True], [2, 2]]: coordinates must be integers"),
    (_spoiled(TWO_STRANDS, admissible=[[["1", 1], [2, 2]]]), "bad edge entry [['1', 1], [2, 2]]: coordinates must be integers"),
    (_spoiled(TWO_STRANDS, current=[5]), "bad edge entry 5: cannot unpack non-iterable int object"),
    (_spoiled(TWO_STRANDS, current=[[[1, 1]]]), "bad edge entry [[1, 1]]: not enough values to unpack (expected 2, got 1)"),
    (_spoiled(TWO_STRANDS, current=[[[1, 1], [1, 1]]]), "edge endpoints coincide: (1,1)"),
    (_spoiled(TWO_STRANDS, vertices__1__colour=1),
     "vertex 2 colour must be 2: colours number strand types by first appearance"),
    (_spoiled(TWO_STRANDS, vertices__0__colour=True),
     "vertex 1 colour must be 1: colours number strand types by first appearance"),
    (_spoiled(TWO_STRANDS, vertices__0__length=3), "vertex 1 length disagrees with its domain list"),
    (_spoiled(TWO_STRANDS, vertices__0__length=_DROP), "vertex 1 length disagrees with its domain list"),
    (_spoiled(TWO_STRANDS, current=[[[1, 1], [1, 2]]]), "current edge (1,1)-(1,2) is not admissible"),
    (_spoiled(TWO_STRANDS, current=[[[2, 2], [1, 1]], [[1, 2], [2, 1]], [[9, 9], [1, 1]]]),
     "current edge (1,1)-(9,9) is not admissible"),
    (_spoiled(TWO_STRANDS, current=[[[1, 2], [2, 2]], [[1, 1], [2, 1]], [[3, 1], [0, 0]]]),
     "current edge (1,2)-(2,2) is not admissible"),
    (_spoiled(SHARED_SITE, current=[[[1, 1], [2, 1]], [[2, 1], [3, 1]]]), "site (2,1) is bound twice"),
    (_spoiled(TWO_STRANDS, current=[[[1, 1], [2, 2]], [[2, 2], [1, 1]]]), "current edges must each be listed once"),
    (_spoiled(TWO_STRANDS, admissible=[[[1, 1], [2, 2]]], toehold=[True]),
     "admissible edges must be exactly the complementary site pairs"),
    (_spoiled(TWO_STRANDS, admissible=[[[1, 1], [2, 2]], [[1, 2], [2, 1]], [[2, 2], [1, 1]]], toehold=[True, False, True]),
     "admissible edges must each be listed once"),
    (_spoiled(TWO_STRANDS, toehold=[True]), "toehold flags must align with the admissible list"),
    (_spoiled(TWO_STRANDS, toehold=[1, False]), "toehold flag for (1,1)-(2,2) must be true or false, found 1"),
    (_spoiled(TWO_STRANDS, toehold=[True, True]), "toehold flag for (1,2)-(2,1) disagrees with its site labels"),
    (_spoiled(TWO_STRANDS, vertices__1__id=3), "vertex ids must run 1..n, found 3"),
    (_spoiled(TWO_STRANDS, vertices__1=5), "vertex entry 5 is not an object"),
    (_spoiled(TWO_STRANDS, vertices__0__domains="a^"), "vertex 1: domains must be a list of domain tokens"),
    (_spoiled(TWO_STRANDS, vertices__0__domains=[]), "a vertex needs at least one domain"),
    (_spoiled(TWO_STRANDS, vertices__0__domains=["a^!x", "b"]), "graph site labels carry no bonds"),
    (_spoiled(TWO_STRANDS, vertices__0__domains=["a#", "b"]), "bad domain token 'a#'"),
    (_spoiled(TWO_STRANDS, current=_DROP), "missing graph field: 'current'"),
    (_spoiled(TWO_STRANDS, toehold={}), "graph fields vertices, admissible, toehold and current must be lists"),
]


class TestInputErrorMessages:
    """Every message that process text and graph JSON can raise, the same
    through the library and through the CLI, which prints it after
    'error: ' with exit 2."""

    @pytest.mark.parametrize("text, message", PROCESS_ERRORS)
    def test_process_text(self, tmp_path, capsys, text, message):
        with pytest.raises(ValueError) as excinfo:
            from_process(parse_process(text))
        assert str(excinfo.value) == message
        path = tmp_path / "system.txt"
        path.write_text(text + "\n", encoding="utf-8")
        assert run(capsys, "simulate", "--input", str(path)) == (cli.EXIT_INDETERMINATE, "", f"error: {message}\n")

    def test_empty_process_text(self):
        with pytest.raises(ValueError, match="^empty process text$"):
            parse_process(" \n")

    @pytest.mark.parametrize("data, message", GRAPH_ERRORS)
    def test_graph_json(self, tmp_path, capsys, data, message):
        text = json.dumps(data)
        with pytest.raises(ValueError) as excinfo:
            from_json(text)
        assert str(excinfo.value) == message
        path = tmp_path / "graph.json"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, "simulate", "--input", str(path)) == (cli.EXIT_INDETERMINATE, "", f"error: {message}\n")

    def test_a_token_that_is_not_a_string(self, capsys):
        # the rest of the message is the regular expression module's, which varies with the Python version
        with pytest.raises(ValueError, match=r"^vertex 2: malformed domain token \(expected string"):
            from_json(_spoiled(TWO_STRANDS, vertices__1__domains=["b*", 7]))

    def test_the_unspoiled_graphs_are_accepted(self):
        assert from_json(TWO_STRANDS) == from_process(parse_process("<a^!x b> | <b* a^*!x>"))
        assert from_json(SHARED_SITE) == from_process(parse_process("<a> | <a*> | <a>"))


# --- seeded fuzz -------------------------------------------------------------

FUZZ_SEEDS = ("<t^ p> | <r* q* p*> | <p!y1 q!z1 r q*!z1 p*!y1 t^*>",
              "<a^!i b!j1 c^*> | <d^* b*!j1 a^*!i> | <c^ b*!j2 e^!k> | <e^*!k b!j2 d^>",
              "<a> | <a*>")
FUZZ_CHARS = "<>|!^* \nabpqxy_019⟨⟩{}[],:\"-."
FUZZ_VALUES = (0, 1, -1, 2, 3, 1.5, True, False, None, "a", "a^*", "b!x", "", [], {}, [1, 1], [[1, 1], [2, 1]])


def _mutate_chars(rng, text: str, chars: str = FUZZ_CHARS) -> str:
    """Delete, insert, replace or repeat characters."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:k] + text[k + 1:]
        elif op == 1:
            text = text[:k] + rng.choice(chars) + text[k:]
        elif op == 2:
            text = text[:k] + rng.choice(chars) + text[k + 1:]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:k] + text[min(j, k):max(j, k)] + text[k:]
    return text


def _mutate_process(rng, text: str) -> str:
    """Token edits, which often keep the text well formed, or character edits."""
    if rng.random() < 0.3:
        return _mutate_chars(rng, text)
    strands = [part.strip()[1:-1].split() for part in text.split("|")]
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(strands)
        k = rng.randrange(len(row))
        head, bang, bond = row[k].partition("!")
        op = rng.randrange(6)
        if op == 0:  # complement the label
            row[k] = (head[:-1] if head.endswith("*") else head + "*") + bang + bond
        elif op == 1:  # drop a bond end
            row[k] = head
        elif op == 2:  # bond two free occurrences
            other = rng.choice(strands)
            j = rng.randrange(len(other))
            if "!" not in row[k] and "!" not in other[j]:
                name = f"f{rng.randrange(3)}"
                row[k], other[j] = row[k] + "!" + name, other[j] + "!" + name
        elif op == 3:  # a free copy of a strand
            strands.append([token.partition("!")[0] for token in row])
        elif op == 4:
            strands.reverse()
        elif len(row) > 1:
            del row[k]
    return " | ".join("<" + " ".join(row) + ">" for row in strands)


def _mutate_json(rng, data: dict) -> str:
    """Edits of the current edges, which keep the graph well formed when they
    bind no site twice, or of any value, or of the JSON text."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(4)
        if op == 0 and data["current"]:
            del data["current"][rng.randrange(len(data["current"]))]
        elif op == 1 and data["admissible"]:
            data["current"].append(rng.choice(data["admissible"])[::-1])
        else:
            containers = []
            stack = [data]
            while stack:
                node = stack.pop()
                if isinstance(node, (dict, list)) and node:
                    containers.append(node)
                    stack += node.values() if isinstance(node, dict) else node
            node = rng.choice(containers)
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            if op == 2:
                node[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
            else:
                del node[key]
            break
    text = json.dumps(data)
    return _mutate_chars(rng, text) if rng.random() < 0.1 else text


class TestSeededFuzz:
    """Mutated process texts and graph JSON end in exit 0, or in exit 2 with
    one 'error:' or 'INDETERMINATE:' line, under simulate and export."""

    def test_mutated_inputs_end_in_a_verdict_or_a_message(self, monkeypatch):
        import io
        from contextlib import redirect_stderr, redirect_stdout

        rng = random.Random(2024)
        graphs = [to_json_dict(from_process(parse_process(text))) for text in FUZZ_SEEDS]
        outcomes = Counter()
        for k in range(1500):
            if k % 2:
                text = _mutate_json(rng, json.loads(json.dumps(rng.choice(graphs))))
            else:
                text = _mutate_process(rng, rng.choice(FUZZ_SEEDS))
            fmt = ("text", "json", "dot")[k % 3]
            for argv in (["simulate", "--input", "-", "--max-states", "500"], ["export", "--input", "-", "--format", fmt]):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
                lines = err.getvalue().splitlines()
                if code == cli.EXIT_OK:
                    assert lines == [], (argv, text)
                else:
                    assert code == cli.EXIT_INDETERMINATE, (argv, text)
                    assert len(lines) == 1 and lines[0].startswith(("error:", "INDETERMINATE:")), (argv, text, lines)
                outcomes[argv[0], lines[0].split(":")[0] if lines else "ok"] += 1
        # the mutations reach every outcome
        assert min(outcomes[command, kind] for command in ("simulate", "export") for kind in ("ok", "error")) > 100, outcomes
        assert outcomes["simulate", "INDETERMINATE"] > 0, outcomes


CLAUSE_FUZZ_CHARS = "PQRUVxZ~-&|()<>#%0123 \npcnf"
# per seed text, the tokens an edit may put in, mostly of its own lexicon
CLAUSE_FUZZ_SEEDS = {
    CLAUSES_S: ("P", "~P", "Q", "~Q", "x1", "~x7", "Z", "#", "-", ""),
    DIMACS_S: ("0", "-1", "2", "-3", "7", "%", "p", "cnf", "P", ""),
    FORMULA_S: ("P", "~Q", "x1", "&", "|", "->", "<->", "(", ")", "~", "0", ""),
}
# the exit codes each command may end in: prove 1 is satisfiable, compare 3 a disagreement
CLAUSE_FUZZ_EXITS = {"prove": {0, 1, 2}, "compare": {0, 2, 3}, "compile": {0, 2}}


def _mutate_clause_text(rng, text: str, tokens: tuple[str, ...]) -> str:
    """Token edits (replace, drop, repeat or negate a token, or drop or repeat
    a line), which often keep clause lines, DIMACS or a formula well formed,
    or character edits."""
    if rng.random() < 0.3:
        return _mutate_chars(rng, text, CLAUSE_FUZZ_CHARS)
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        row = lines[k]
        j = rng.randrange(len(row))
        op = rng.randrange(6)
        if op == 0:
            row[j] = rng.choice(tokens)
        elif op == 1 and len(row) > 1:
            del row[j]
        elif op == 2:
            row.insert(j, row[j])
        elif op == 3:  # negate: a DIMACS number with '-', a name with '~'
            row[j] = row[j][1:] if row[j][:1] in ("~", "-") else ("-" if row[j].isdigit() else "~") + row[j]
        elif op == 4 and len(lines) > 1:
            del lines[k]
        else:
            lines.insert(k, list(row))
    return "\n".join(" ".join(row) for row in lines) + "\n"


class TestSeededClauseFuzz:
    """Mutated clause lines, DIMACS and formulas end, under prove, compare and
    compile, in an exit code the command documents, with stderr empty or one
    'error:' or 'INDETERMINATE:' line for exit 2."""

    def test_mutated_clause_texts_end_in_a_verdict_or_a_message(self, monkeypatch):
        import io
        from contextlib import redirect_stderr, redirect_stdout

        rng = random.Random(2025)
        outcomes = Counter()
        for k in range(1500):
            seed = rng.choice(list(CLAUSE_FUZZ_SEEDS))
            text = _mutate_clause_text(rng, seed, CLAUSE_FUZZ_SEEDS[seed])
            fmt = ("text", "json", "dot")[k % 3]
            for argv in (["prove", "--input", "-", "--format", fmt if k % 3 < 2 else "text", *["--trace"][:k % 2]],
                         ["compare", "--input", "-"],
                         ["compile", "--input", "-", "--format", fmt]):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
                lines = err.getvalue().splitlines()
                assert code in CLAUSE_FUZZ_EXITS[argv[0]], (argv, text, code)
                if code == cli.EXIT_INDETERMINATE:
                    assert len(lines) == 1 and lines[0].startswith(("error:", "INDETERMINATE:")), (argv, text, lines)
                else:
                    assert lines == [], (argv, text)
                outcomes[argv[0], code] += 1
        # the mutations reach every exit code of every command
        assert min(outcomes[command, code] for command, codes in CLAUSE_FUZZ_EXITS.items() for code in codes) > 40, outcomes
