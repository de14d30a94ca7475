"""Command-line interface: commands, input detection, bounds, exit codes."""

import json

import pytest

import oracles
from strandprover import cli, compiler, logic, resolution
from strandprover.graph import from_json, to_json_dict
from strandprover.fixtures import CLAUSES_S, THEOREM, theorem_graph

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
        assert "0: {P, ~Q, R} [input]" in out

    def test_satisfiable_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "clauses.txt"
        path.write_text("P\n")
        code, out, _ = run(capsys, "prove", "--input", str(path))
        assert code == cli.EXIT_SAT
        assert "SATISFIABLE" in out

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

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "prove", "--fixture", "S", "--format", "json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "unsat"
        last = payload["steps"][payload["empty_step"]]
        assert last["clause"] == [] and last["on"] is not None
        inputs = [s for s in payload["steps"] if s["parents"] is None]
        assert len(inputs) == 6
        assert payload["steps"][0] == {
            "index": 0, "clause": ["P", "~Q", "R"], "parents": None, "on": None,
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
        book = compiler.generate_codebook(["P", "Q", "R", "U", "V"], seed=5)
        path = tmp_path / "codes.txt"
        path.write_text(book.to_text())
        code, out, _ = run(capsys, "compile", "--fixture", "S", "--codebook", str(path), "--format", "json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["codebook"] == {var: book.sense(var) for var in book.variables()}
        assert payload["clauses"][2]["bases"] == book.sense("Q")


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

    def test_tight_bounds_are_indeterminate(self, monkeypatch, capsys):
        import io

        # P-P* next to Q-Q* on strands 1 and 2 is an anchored pair, so this
        # set is explored, and the state budget binds
        monkeypatch.setattr("sys.stdin", io.StringIO(ANCHORED))
        code, out, _ = run(capsys, "compare", "--input", "-", "--max-states", "4")
        assert code == cli.EXIT_INDETERMINATE
        assert "hybridization: INDETERMINATE" in out
        assert "INDETERMINATE" in out.splitlines()[-1]

    def test_bind_only_sets_decide_under_any_budget(self, capsys):
        code, out, _ = run(capsys, "compare", "--fixture", "S", "--max-states", "1")
        assert code == cli.EXIT_OK
        assert "hybridization: UNSAT" in out

    @pytest.mark.parametrize("flag", ["--max-states"])
    @pytest.mark.parametrize("source", [["--fixture", "S"], ["--input", "-"]], ids=["bind-only", "anchored"])
    def test_non_positive_bounds_are_an_error(self, monkeypatch, capsys, flag, source):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(ANCHORED))
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
        ],
        ids=["no-domains", "vertex-not-object", "toehold-not-list", "vertices-not-list",
             "infinite-colour", "infinite-site", "domains-string"],
    )
    def test_malformed_graph_json_is_an_error(self, tmp_path, capsys, spoil):
        data = to_json_dict(theorem_graph())
        spoil(data)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "export", "--input", str(path))
        assert code == cli.EXIT_INDETERMINATE
        assert err.startswith("error:")

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

    def test_variables_beyond_any_code_search_agree(self, monkeypatch, capsys):
        import io

        # 700 unit clauses: the code search gives up near x682 at ten bases
        units = "p cnf 700 700\n" + "".join(f"{k} 0\n" for k in range(1, 701))
        monkeypatch.setattr("sys.stdin", io.StringIO(units))
        code, out, err = run(capsys, "compare", "--input", "-")
        assert code == cli.EXIT_OK
        assert out.splitlines() == ["resolution: SATISFIABLE", "hybridization: SATISFIABLE", "AGREE"]
        assert err == ""


# --- top level ---------------------------------------------------------------


class TestTopLevel:
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
