"""Formula parsing and printing, literals, clauses, and clausal conversion."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strandprover.logic import (
    And,
    Clause,
    ClauseSet,
    Iff,
    ImpliedBy,
    Implies,
    Literal,
    Not,
    Or,
    ParseError,
    Var,
    format_formula,
    normalize_clause_set,
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
        with pytest.raises(ValueError):
            And(P)
        with pytest.raises(ValueError):
            Or()


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


class TestClause:
    def test_set_semantics_with_stable_order(self):
        c = Clause.parse("R P ~Q P")
        assert c == Clause.parse("P ~Q R")  # equality ignores order
        assert [str(lit) for lit in c] == ["R", "P", "~Q"]  # first occurrence kept

    def test_empty_and_tautology(self):
        assert Clause().is_empty()
        assert str(Clause()) == "{}"
        assert Clause.parse("P ~P").is_tautology()
        assert not Clause.parse("P ~Q").is_tautology()

    def test_subsumption(self):
        assert Clause.parse("P").subsumes(Clause.parse("P Q"))
        assert not Clause.parse("P Q").subsumes(Clause.parse("P"))

    def test_without_and_union(self):
        c = Clause.parse("P ~Q")
        assert c.without(Literal("P")) == Clause.parse("~Q")
        assert c.union(Clause.parse("R")) == Clause.parse("P ~Q R")

    def test_str_uses_braces(self):
        assert str(Clause.parse("P ~Q")) == "{P, ~Q}"


class TestClauseSet:
    def test_duplicates_collapse(self):
        s = ClauseSet([Clause.parse("P"), Clause.parse("P")])
        assert len(s) == 1

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


# --- clausal conversion ------------------------------------------------------


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


class TestNormalizeClauseSet:
    def test_tautology_removal_needs_flag(self):
        s = ClauseSet.parse("P ~P\nQ\n")
        assert normalize_clause_set(s, drop_tautologies=True) == ClauseSet.parse("Q\n")
        assert normalize_clause_set(s) == s

    def test_duplicate_collapse(self):
        s = ClauseSet([Clause.parse("P"), Clause.parse("P")])
        assert normalize_clause_set(s) == ClauseSet.parse("P\n")

    def test_fixture_clause_set_is_already_normal(self):
        from strandprover.fixtures import clause_set_s

        s = clause_set_s()
        assert normalize_clause_set(s, drop_tautologies=True) == s
