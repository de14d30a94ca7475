"""Formula parsing and printing, literals, clauses, and clausal conversion."""

import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strandprover import logic
from strandprover.logic import (
    And,
    Clause,
    ClauseSet,
    Iff,
    ImpliedBy,
    Implies,
    MAX_NESTING,
    Literal,
    Not,
    Or,
    ParseError,
    Var,
    format_formula,
    parse_formula,
    to_clausal_form,
)

P, Q, R, U, V = (Var(n) for n in "PQRUV")


# --- parsing -----------------------------------------------------------------


class TestParseFormula:
    def test_implication(self):
        assert parse_formula("P -> Q") == Implies(P, Q)

    def test_disjunction_is_variadic(self):
        assert parse_formula("P | ~Q | R") == Or(P, Not(Q), R)

    def test_biconditional(self):
        assert parse_formula("P <-> Q") == Iff(P, Q)

    def test_reverse_implication(self):
        assert parse_formula("P <- Q") == ImpliedBy(P, Q)

    def test_precedence_not_over_and_over_or(self):
        assert parse_formula("~P & Q | R") == Or(And(Not(P), Q), R)

    def test_arrow_binds_loosest(self):
        assert parse_formula("P | Q -> R & U") == Implies(Or(P, Q), And(R, U))

    def test_parentheses(self):
        assert parse_formula("P & (Q | R)") == And(P, Or(Q, R))

    def test_double_negation_nests(self):
        assert parse_formula("~~P") == Not(Not(P))

    def test_long_identifiers(self):
        assert parse_formula("alpha_1 -> beta2") == Implies(Var("alpha_1"), Var("beta2"))

    def test_conditionals_do_not_chain(self):
        with pytest.raises(ParseError, match="parentheses"):
            parse_formula("P -> Q -> R")

    def test_mixed_arrows_do_not_chain(self):
        with pytest.raises(ParseError):
            parse_formula("P <-> Q -> R")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("")

    def test_dangling_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("P &")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("(P | Q")

    def test_stray_character_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("P + Q")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("P @ Q")
        assert err.value.position == 2

    @pytest.mark.parametrize(
        "text, message",
        [("P Q", "unexpected 'Q' (at position 2)"), ("(P Q", "expected ')', found 'Q' (at position 3)")],
    )
    def test_juxtaposed_atoms_rejected(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty formula", None),
            ("   ", "empty formula", None),
            ("P $ Q", "unexpected character '$'", 2),
            ("P -> Q -> R", "conditionals do not chain; add parentheses", 7),
            ("P -> Q <- R", "conditionals do not chain; add parentheses", 7),
            ("P -> Q <-> R", "conditionals do not chain; add parentheses", 7),
            ("P <- Q -> R", "conditionals do not chain; add parentheses", 7),
            ("P <- Q <- R", "conditionals do not chain; add parentheses", 7),
            ("P <- Q <-> R", "conditionals do not chain; add parentheses", 7),
            ("P <-> Q -> R", "conditionals do not chain; add parentheses", 8),
            ("P <-> Q <- R", "conditionals do not chain; add parentheses", 8),
            ("P <-> Q <-> R", "conditionals do not chain; add parentheses", 8),
            ("P | Q -> R -> S", "conditionals do not chain; add parentheses", 11),
            ("P & Q <- R | S <-> U", "conditionals do not chain; add parentheses", 15),
            ("(P -> Q <- R)", "conditionals do not chain; add parentheses", 8),
            ("()", "unexpected ')'", 1),
            (")P", "unexpected ')'", 0),
            ("P )", "unexpected ')'", 2),
            ("-> P", "unexpected '->'", 0),
            ("P & & Q", "unexpected '&'", 4),
            ("P ~", "unexpected '~'", 2),
            ("~", "unexpected end of formula", 1),
            ("P & ~", "unexpected end of formula", 5),
            ("P &", "unexpected end of formula", 3),
            ("(P", "unexpected end of formula", 2),
            ("(P (", "expected ')', found '('", 3),
            *(
                pytest.param(text, "formula nests deeper than 100 levels", 100, id=name)
                for name, text in [
                    ("101 negations", "~" * 101 + "P"),
                    ("100 negations, then (", "~" * 100 + "(P)"),
                    ("101 parentheses", "(" * 101 + "P" + ")" * 101),
                    ("100 parentheses, then ~", "(" * 100 + "~P" + ")" * 100),
                ]
            ),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert (str(err.value), err.value.position) == (str(ParseError(message, position)), position)

    @pytest.mark.parametrize(
        "level, build",
        [("(", lambda f: f), ("(P & ", lambda f: And(P, f)), ("(P | ", lambda f: Or(P, f)), ("~", Not)],
        ids=["parentheses", "conjunctions", "disjunctions", "negations"],
    )
    def test_deepest_formulas_parse_under_a_deep_caller(self, level, build):
        # a library caller 400 frames deep still gets a formula or a ParseError
        def under(frames, text):
            return under(frames - 1, text) if frames else parse_formula(text)

        def nested(depth):
            return level * depth + "P" + (")" * depth if level != "~" else "")

        want = P
        for _ in range(MAX_NESTING):
            want = build(want)
        assert under(400, nested(MAX_NESTING)) == want
        with pytest.raises(ParseError) as err:
            under(400, nested(MAX_NESTING + 1))
        assert err.value.position == len(level) * MAX_NESTING

    def test_tokens_are_those_of_the_reference_tokenizer(self):
        # the single-regex tokenizer against the per-character one kept in
        # oracles: the same tokens, or the same message at the same position
        from strandprover.logic import _tokenize

        rng = random.Random(23)
        junk = ["<", "-", ">", "<-", "->", "<->", "$", "!", "=", "1", "é", "\u00a0", "\t", " ", "\n", "~", "(", ")"]
        outcomes = {"tokens": 0, "error": 0}
        for _ in range(600):
            text = format_formula(oracles.random_formula(rng, variables=5, depth=3))
            parts = text.split(" ")
            for _ in range(rng.randint(0, 3)):
                parts.insert(rng.randint(0, len(parts)), rng.choice(junk))
            text = rng.choice(["", " ", "  \t"]) + rng.choice([" ", "", "  "]).join(parts) + rng.choice(["", " ", "\n "])
            try:
                want = oracles.tokenize(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    _tokenize(text)
                assert (str(got.value), got.value.position) == (str(exc), exc.position), text
                outcomes["error"] += 1
            else:
                assert _tokenize(text) == want, text
                outcomes["tokens"] += 1
        for text in ("", "   ", "P <", "P - Q", "<P>", "P<-", "P <-- Q", " \u2028P\u3000"):
            try:
                want = oracles.tokenize(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    _tokenize(text)
                assert (str(got.value), got.value.position) == (str(exc), exc.position), text
            else:
                assert _tokenize(text) == want, text
        assert min(outcomes.values()) > 100, outcomes

    def test_each_distinct_name_is_validated_once(self, monkeypatch):
        # twelve occurrences of three names: one Var node each, shared by the
        # tree, which equals the tree of twelve separately built nodes
        want = And(
            Implies(And(P, Q), R),
            ImpliedBy(Or(Not(R), Q), P),
            Iff(P, Or(Not(Q), R)),
            Not(And(Q, R, P)),
        )
        checked = []
        check = Var.__post_init__

        def counted(self):
            checked.append(self.name)
            check(self)

        monkeypatch.setattr(Var, "__post_init__", counted)
        f = parse_formula("(P & Q -> R) & (~R | Q <- P) & (P <-> ~Q | R) & ~(Q & R & P)")
        assert sorted(checked) == ["P", "Q", "R"]
        assert f == want and format_formula(f) == format_formula(want)
        assert f.args[0].lhs.args[0] is f.args[1].rhs is f.args[2].lhs is f.args[3].arg.args[2]


class TestFormatFormula:
    def test_round_trip_examples(self):
        for text in (
            "P -> Q",
            "P | ~Q | R",
            "(P <-> Q) & R",
            "~(P & Q) | ~~R",
            "(P -> Q) <- (R | U)",
        ):
            f = parse_formula(text)
            assert parse_formula(format_formula(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, seed):
        f = oracles.random_formula(random.Random(seed), variables=5, depth=4)
        assert parse_formula(format_formula(f)) == f

    def test_nary_constructors_need_two_args(self):
        with pytest.raises(ValueError, match="^And needs at least two operands$"):
            And(P)
        with pytest.raises(ValueError, match="^Or needs at least two operands$"):
            Or()


# --- the formula records -----------------------------------------------------


def every_node_type():
    """One node of each of the seven types, built afresh on each call."""
    p, q = Var("P"), Var("Q")
    return [p, Not(p), And(p, q, p), Or(p, Not(q)), Implies(p, q), ImpliedBy(p, q), Iff(Not(p), And(p, q))]


class TestFormulaRecords:
    def test_connectives_on_the_same_operands_are_unequal(self):
        assert And(P, Q) != Or(P, Q)
        arrows = [Implies(P, Q), ImpliedBy(P, Q), Iff(P, Q)]
        for a in arrows:
            for b in arrows:
                assert (a == b) == (a is b), (a, b)
        assert Implies(P, Q) != Implies(Q, P)
        assert And(P, Q) != And(Q, P)

    def test_equal_nodes_hash_equal_and_are_set_members(self):
        first, second = every_node_type(), every_node_type()
        for a, b in zip(first, second):
            assert a == b and a is not b
            assert hash(a) == hash(b)
        assert set(first) == set(second) and len(set(first + second)) == len(first)
        assert all(node in set(first) for node in second)

    @pytest.mark.parametrize("name", ["1x", "", "_P", "P-Q", 3, None])
    def test_invalid_variable_names_rejected(self, name):
        with pytest.raises(ValueError, match=r"^invalid variable name: "):
            Var(name)

    def test_str_is_the_printed_formula(self):
        rng = random.Random(11)
        for f in every_node_type() + [oracles.random_formula(rng, 5, 4) for _ in range(200)]:
            assert str(f) == format_formula(f)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips_every_node_type(self, protocol):
        for node in every_node_type():
            back = pickle.loads(pickle.dumps(node, protocol))
            assert back == node and type(back) is type(node) and hash(back) == hash(node)

    def test_deepcopy_round_trips_every_node_type(self):
        for node in every_node_type():
            back = copy.deepcopy(node)
            assert back == node and type(back) is type(node)

    def test_fields_cannot_be_assigned(self):
        assigned = 0
        for node in every_node_type():
            before = format_formula(node), hash(node)
            for field in ("name", "arg", "args", "lhs", "rhs"):
                if hasattr(node, field):
                    with pytest.raises(AttributeError):
                        setattr(node, field, getattr(node, field))
                    assigned += 1
            assert (format_formula(node), hash(node)) == before
        assert assigned == 1 + 1 + 2 + 3 * 2

    @pytest.mark.parametrize("bad", [42, And(P, 42), Not("P")])
    def test_non_formulas_rejected(self, bad):
        with pytest.raises(TypeError, match=r"^not a formula: "):
            format_formula(bad)
        with pytest.raises(TypeError, match=r"^not a formula: "):
            to_clausal_form(bad)


# --- literals and clauses ----------------------------------------------------


class TestLiteral:
    def test_complement_is_an_involution(self):
        lit = Literal("P", True)
        assert lit.complement() == Literal("P", False)
        assert lit.complement().complement() == lit

    def test_parse_and_str(self):
        assert Literal.parse("~Q") == Literal("Q", True)
        assert str(Literal.parse("~Q")) == "~Q"
        with pytest.raises(ParseError):
            Literal.parse("~~Q")

    def test_record_contract(self):
        lit = Literal("P")
        assert repr(lit) == "Literal(variable='P', negated=False)"
        assert lit == ("P", False)
        assert hash(lit) == hash(("P", False))
        assert sorted([Literal("Q"), Literal("P", True), Literal("P")]) == [Literal("P"), Literal("P", True), Literal("Q")]
        for back in (pickle.loads(pickle.dumps(lit)), copy.deepcopy(lit)):
            assert back == lit and type(back) is Literal


class TestClause:
    def test_set_semantics_with_stable_order(self):
        c = Clause.parse("R P ~Q P")
        assert c == Clause.parse("P ~Q R")  # equality ignores order
        assert [str(lit) for lit in c] == ["R", "P", "~Q"]  # first occurrence kept

    def test_empty_and_tautology(self):
        assert Clause().is_empty()
        assert str(Clause()) == "{}"
        assert oracles.is_tautology(Clause.parse("P ~P"))
        assert not oracles.is_tautology(Clause.parse("P ~Q"))

    def test_subsumption(self):
        assert oracles.subsumes(Clause.parse("P"), Clause.parse("P Q"))
        assert not oracles.subsumes(Clause.parse("P Q"), Clause.parse("P"))

    def test_without_and_union(self):
        c = Clause.parse("P ~Q")
        assert c.without(Literal("P")) == Clause.parse("~Q")
        assert c.union(Clause.parse("R")) == Clause.parse("P ~Q R")

    def test_str_uses_braces(self):
        assert str(Clause.parse("P ~Q")) == "{P, ~Q}"

    def test_non_literals_rejected(self):
        # a plain tuple compares equal to a Literal, but is not one
        with pytest.raises(TypeError, match=r"^not a literal: \('P', False\)$"):
            Clause([("P", False)])


class TestClauseSet:
    def test_duplicates_collapse(self):
        s = ClauseSet([Clause.parse("P"), Clause.parse("P")])
        assert len(s) == 1

    def test_non_clauses_rejected(self):
        with pytest.raises(TypeError, match=r"^not a clause: 'Q'$"):
            ClauseSet([Clause.parse("P"), "Q"])

    def test_equality_ignores_order(self):
        a = ClauseSet.parse("P\nQ R\n")
        b = ClauseSet.parse("Q R\nP\n")
        assert a == b

    def test_parse_skips_comments_and_blanks(self):
        s = ClauseSet.parse("# header\nP ~Q\n\nR\n")
        assert s == ClauseSet([Clause.parse("P ~Q"), Clause.parse("R")])

    def test_parse_round_trips_through_str(self):
        s = ClauseSet.parse("P ~Q R\n~U V ~R\nQ\n")
        again = ClauseSet.parse(
            "\n".join(" ".join(str(lit) for lit in c) for c in s)
        )
        assert again == s

    def test_variables_sorted(self):
        s = ClauseSet.parse("R ~Q\nP\n")
        assert s.variables() == ("P", "Q", "R")

    def test_from_dimacs(self):
        s = ClauseSet.from_dimacs("c comment\np cnf 3 2\n1 -3 0\n2 0\n")
        assert s == ClauseSet.parse("x1 ~x3\nx2\n")

    def test_from_dimacs_requires_header(self):
        with pytest.raises(ParseError):
            ClauseSet.from_dimacs("1 -3 0\n")

    def test_from_dimacs_bare_terminator_is_the_empty_clause(self):
        s = ClauseSet.from_dimacs("p cnf 1 1\n0\n")
        assert len(s) == 1 and next(iter(s)).is_empty()

    def test_from_dimacs_stops_at_the_percent_line(self):
        # SATLIB uf/uuf files end with '%' and then '0', which is not a clause
        s = ClauseSet.from_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n")
        assert s == ClauseSet.parse("x1 ~x2\n")

    def test_from_dimacs_rejects_non_integer_token(self):
        with pytest.raises(ParseError):
            ClauseSet.from_dimacs("p cnf 1 1\n1 x 0\n")

    def test_coded_readers_match_sets_of_clause_objects(self):
        # each reader builds the integer-coded form itself; the set it builds
        # must be the one built from Clause objects, down to codes, literal
        # order, refutation steps and free sites.  The names x1..x12 make
        # name order (x10 before x2) differ from number order.
        from strandprover.compiler import CompileError, free_sites
        from strandprover.resolution import refute

        def literal(n: int) -> Literal:
            return Literal(f"x{abs(n)}", n < 0)

        def text(n: int) -> str:
            return str(literal(n))

        def agree(s: ClauseSet, ref: ClauseSet) -> None:
            assert s == ref and hash(s) == hash(ref) and not s != ref
            assert str(s) == str(ref) and repr(s) == repr(ref) and len(s) == len(ref)
            assert s.variables() == ref.variables() == s.names
            assert (s.names, s.codes, s.masks) == (ref.names, ref.codes, ref.masks)
            assert [c.literals for c in s] == [c.literals for c in ref]
            assert all(c in s for c in ref)
            if len(ref):
                steps = [(st.index, st.clause.literals, st.parents, st.pivot) for st in refute(s).steps]
                assert steps == [(st.index, st.clause.literals, st.parents, st.pivot) for st in refute(ref).steps]
            if any(c.is_empty() for c in ref):
                with pytest.raises(CompileError):
                    free_sites(s)
            else:
                assert free_sites(s) == free_sites(ref)

        rng = random.Random(29)
        seen = {"repeated literal": 0, "repeated clause": 0, "tautology": 0, "empty": 0, "x10": 0}
        for _ in range(300):
            variables = rng.randint(1, 12)
            rows = []
            for _ in range(rng.randint(1, 9)):
                row = [rng.choice((1, -1)) * rng.randint(1, variables) for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.2:
                    row.append(rng.choice(row))
                rows.append(row)
                if rng.random() < 0.15:
                    rows.append(list(reversed(row)))
            ref = ClauseSet([Clause(map(literal, row)) for row in rows])
            seen["repeated literal"] += any(len(set(row)) < len(row) for row in rows)
            seen["repeated clause"] += len(ref) < len(rows)
            seen["tautology"] += any(map(oracles.is_tautology, ref))
            seen["x10"] += any(name >= "x10" for name in ref.names) and "x2" in ref.names

            lines = ["# clause lines"] + [" ".join(map(text, row)) + rng.choice(["", "  # note"]) for row in rows]
            agree(ClauseSet.parse("\n".join(line + rng.choice(["", "\n"]) for line in lines)), ref)

            # DIMACS may split a clause over lines and also holds {}
            dimacs_rows = list(rows)
            if rng.random() < 0.3:
                dimacs_rows.insert(rng.randrange(len(rows) + 1), [])
                seen["empty"] += 1
            numbers = [str(n) for row in dimacs_rows for n in row + [0]]
            if dimacs_rows[-1] and rng.random() < 0.5:
                numbers.pop()  # the last clause needs no terminator, unless it is {}
            cut = rng.randint(0, len(numbers))
            body = " ".join(numbers[:cut]) + "\nc comment\n" + " ".join(numbers[cut:])
            dimacs_ref = ClauseSet([Clause(map(literal, row)) for row in dimacs_rows])
            agree(ClauseSet.from_dimacs(f"p cnf {variables} {len(dimacs_rows)}\n{body}\n"), dimacs_ref)

            # a formula's clausal form sorts each clause and the clauses
            formula = " & ".join("(" + " | ".join(map(text, row)) + ")" for row in rows)
            bodies = sorted({tuple(sorted(set(map(literal, row)))) for row in rows})
            agree(to_clausal_form(parse_formula(formula)), ClauseSet(Clause(body) for body in bodies))
        assert min(seen.values()) > 10, seen

    def test_every_set_is_coded_once_by_coded(self, monkeypatch):
        # ClauseSet(...), both readers and clausal form hand their rows to
        # ClauseSet._coded, once each; ClauseSet(...) keeps the caller's
        # Clause objects, the first of equal ones
        clauses = [Clause.parse("~R Q"), Clause.parse("P"), Clause.parse("Q ~R")]
        want, want_dimacs = ClauseSet.parse("~R Q\nP"), ClauseSet.parse("~x3 x2\nx1")
        builds = {
            "ClauseSet": lambda: ClauseSet(clauses),
            "parse": lambda: ClauseSet.parse("~R Q\nP\nQ ~R\n"),
            "from_dimacs": lambda: ClauseSet.from_dimacs("p cnf 3 3\n-3 2 0\n1 0\n2 -3 0\n"),
            "to_clausal_form": lambda: to_clausal_form(parse_formula("(~R | Q) & P & (Q | ~R)")),
        }
        coded = ClauseSet._coded.__func__
        calls = []

        def counted(cls, *args, **kwargs):
            calls.append(cls)
            return coded(cls, *args, **kwargs)

        monkeypatch.setattr(ClauseSet, "_coded", classmethod(counted))
        for how, build in builds.items():
            calls.clear()
            s = build()
            assert calls == [ClauseSet], how
            assert s == (want_dimacs if how == "from_dimacs" else want), how
        s = ClauseSet(clauses)
        assert s.clauses[0] is clauses[0] and s.clauses[1] is clauses[1] and len(s) == 2

    def test_reader_errors_are_unchanged(self):
        cases = [
            (ClauseSet.parse, "P Q\nP ~~Q\n", "line 2: invalid literal '~~Q'"),
            (ClauseSet.parse, "P\n\nQ ~ R\n", "line 3: invalid literal '~'"),
            (ClauseSet.parse, "# c\n1P\n", "line 2: invalid literal '1P'"),
            (ClauseSet.from_dimacs, "1 -3 0\n", "missing 'p cnf' header"),
            (ClauseSet.from_dimacs, "1 x 0\n", "line 1: non-numeric DIMACS literal"),
            (ClauseSet.from_dimacs, "p cnf 1 1\n1 0\n2 -x\n", "line 3: non-numeric DIMACS literal"),
            (ClauseSet.from_dimacs, "p cnf 1\n1 0\n", "line 1: bad DIMACS header 'p cnf 1'"),
            (ClauseSet.from_dimacs, "p cnf x y\n1 -2 0\n", "line 1: bad DIMACS header 'p cnf x y'"),
            (ClauseSet.from_dimacs, "p cnf 2 -1\n1 -2 0\n", "line 1: bad DIMACS header 'p cnf 2 -1'"),
            (ClauseSet.from_dimacs, "p cnf 1 1\n1 0\np cnf 9 1\n", "line 3: a second DIMACS header 'p cnf 9 1'"),
        ]
        for read, text, message in cases:
            with pytest.raises(ParseError) as err:
                read(text)
            assert str(err.value) == message and err.value.position is None

    def test_dimacs_input_must_match_its_header(self):
        # the counts are checked once the input is read, so a bad literal
        # further on is still reported first, with its line
        cases = [
            ("p cnf 1 1\n1 -2 0\n2 0\n-1 3 0\n", "the header declares 1 clauses, the input has 3"),
            ("p cnf 3 4\n1 -2 0\n2 0\n-1 3 0\n", "the header declares 4 clauses, the input has 3"),
            ("p cnf 2 3\n1 -2 0\n2 0\n-1 3 0\n", "variable 3 is above the header's 2"),
            ("p cnf 2 1\n1 -2 0\n%\n0\n", None),  # SATLIB's trailer is not read
            ("p cnf 3 2\n1 -2\n0 3", None),  # a last clause may lack its 0
            ("p cnf 9 1\n0\n", None),  # fewer variables than declared is fine
        ]
        for text, message in cases:
            if message is None:
                ClauseSet.from_dimacs(text)
                continue
            with pytest.raises(ParseError) as err:
                ClauseSet.from_dimacs(text)
            assert str(err.value) == message and err.value.position is None


# --- clausal conversion ------------------------------------------------------


def _fields(s):
    return s.names, s.codes, s.masks


class TestToClausalForm:
    def test_biconditional(self):
        assert to_clausal_form(Iff(P, Q)) == ClauseSet.parse("~P Q\nP ~Q\n")

    def test_negated_disjunction(self):
        assert to_clausal_form(Not(Or(P, Q))) == ClauseSet.parse("~P\n~Q\n")

    def test_distribution(self):
        assert to_clausal_form(Or(P, And(Q, R))) == ClauseSet.parse("P Q\nP R\n")

    def test_single_variable(self):
        assert to_clausal_form(P) == ClauseSet.parse("P\n")

    def test_implication(self):
        assert to_clausal_form(Implies(P, Q)) == ClauseSet.parse("~P Q\n")

    def test_reverse_implication(self):
        assert to_clausal_form(ImpliedBy(P, Q)) == ClauseSet.parse("P ~Q\n")

    def test_already_clausal_formula_is_kept(self):
        f = parse_formula("(P | ~Q | R) & Q")
        assert to_clausal_form(f) == ClauseSet.parse("P ~Q R\nQ\n")

    def test_conversion_is_idempotent_on_its_output(self):
        rng = random.Random(11)
        for _ in range(50):
            s = to_clausal_form(oracles.random_formula(rng))
            text = " & ".join(
                "(" + " | ".join(str(lit) for lit in c) + ")" for c in s
            )
            if not text:  # the empty clause set has no formula spelling
                continue
            assert to_clausal_form(parse_formula(text)) == s

    def test_equivalent_to_source_formula(self):
        rng = random.Random(23)
        for _ in range(300):
            f = oracles.random_formula(rng, variables=5, depth=4)
            s = to_clausal_form(f)
            for a in oracles.assignments(oracles.formula_variables(f)):
                assert oracles.eval_formula(f, a) == oracles.eval_clause_set(s, a)

    def test_output_is_pinned_on_a_seeded_corpus(self):
        # clause order reaches CLI output through compile, so it must not drift;
        # the digest was recorded from the earlier three-pass conversion
        rng = random.Random(5)
        digest = hashlib.sha256()
        for _ in range(3000):
            digest.update(str(to_clausal_form(oracles.random_formula(rng))).encode() + b"\n--\n")
        assert digest.hexdigest() == "281976e7d80ae7186ca2d629386f605b78881c233a15cec804b07cbc298ad579"

    def test_nested_equivalences_convert_without_blow_up(self):
        f = P
        for _ in range(60):  # without the memo the walk would visit P 2**60 times
            f = Iff(f, Q)
        s = to_clausal_form(f)  # an even number of "<-> Q" leaves P
        for a in oracles.assignments(["P", "Q"]):
            assert oracles.eval_clause_set(s, a) == a["P"]

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    def test_equals_the_reference_on_seeded_formulas(self, depth):
        # names, codes and masks field for field, so the clause order too
        rng = random.Random(depth)
        for _ in range(500):
            f = oracles.random_formula(rng, variables=5, depth=depth)
            assert _fields(to_clausal_form(f)) == _fields(oracles.clausal_form(f)), format_formula(f)

    def test_equals_the_reference_on_chosen_shapes(self):
        chain = P
        for _ in range(60):
            chain = Iff(chain, Q)
        odd_chain = Iff(chain, Not(R))
        shapes = [
            chain,
            odd_chain,
            Not(odd_chain),
            ImpliedBy(P, And(Q, R)),
            ImpliedBy(Or(P, Q), Not(R)),
            Not(ImpliedBy(Iff(P, Q), Implies(R, P))),
            Not(Not(P)),
            Not(Not(Not(Not(Or(P, Not(Not(Q))))))),
            Or(P, Not(P)),
            Or(P, P, Q, P),
            And(P, P, Or(Q, Not(Q))),
            And(Or(P, Q), Or(Q, P), Or(Not(P), P)),
            Iff(P, P),
            Implies(P, P),
            parse_formula("(U | ~U) & (Q -> Q) & (R <- R) & (P <-> ~P) & (V & U | ~V & ~U)"),
        ]
        for f in shapes:
            assert _fields(to_clausal_form(f)) == _fields(oracles.clausal_form(f)), format_formula(f)

    def test_a_dnf_ladder_is_refused_before_it_is_built(self, monkeypatch):
        def ladder(k):  # (A1 & B1) | ... | (Ak & Bk): 2 ** k clauses
            return parse_formula(" | ".join(f"(A{i} & B{i})" for i in range(1, k + 1)))

        for k in range(1, 11):
            got, want = to_clausal_form(ladder(k)), oracles.clausal_form(ladder(k))
            assert _fields(got) == _fields(want) and len(got) == 2**k
        for module, convert in ((logic, to_clausal_form), (oracles, oracles.clausal_form)):
            built = []

            def counted(conjunction, parts, join=module._join, built=built):
                out = join(conjunction, parts)
                built.append(len(out))
                return out

            monkeypatch.setattr(module, "_join", counted)
            with pytest.raises(ParseError) as err:
                convert(ladder(17))
            assert str(err.value) == "clausal form would exceed 100000 clauses"
            assert built == [2] * 17  # each conjunction, and no part of the disjunction


class TestNormalizeClauseSet:
    # a ClauseSet deduplicates and keeps tautologies; the oracle drops them
    def test_tautology_removal_needs_flag(self):
        s = ClauseSet.parse("P ~P\nQ\n")
        assert oracles.without_tautologies(s) == oracles.without_tautologies(ClauseSet.parse("Q\n"))
        assert ClauseSet(s) == s

    def test_duplicate_collapse(self):
        s = ClauseSet([Clause.parse("P"), Clause.parse("P")])
        assert ClauseSet(s) == ClauseSet.parse("P\n")

    def test_fixture_clause_set_is_already_normal(self):
        from strandprover.fixtures import clause_set_s

        s = clause_set_s()
        assert ClauseSet(s) == s and not any(map(oracles.is_tautology, s))
