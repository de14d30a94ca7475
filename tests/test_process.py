"""Domain-level processes: syntax, bond geometry, and the four reduction rules."""

import copy
import dataclasses
import pickle
import random
from collections import Counter
from itertools import product

import pytest

import oracles
from strandprover.fixtures import FOURWAY, HAIRPIN, THEOREM
from strandprover.graph import explore, from_process
from strandprover.process import (
    Domain,
    Process,
    ProcessError,
    RuleError,
    Strand,
    adjacent_bonds,
    alpha_equal,
    antiparallel_adjacent,
    bind,
    canonical_key,
    displace,
    format_domain,
    fresh_bond,
    is_anchored,
    migrate_ring,
    parse_domain,
    parse_process,
    unbind,
)

HAIRPIN_STEPS = [
    "<t^ p> | <r* q* p*> | <p!y1 q!z1 r q*!z1 p*!y1 t^*>",
    "<t^!x p> | <r* q* p*> | <p!y1 q!z1 r q*!z1 p*!y1 t^*!x>",
    "<t^!x p!y2> | <r* q* p*> | <p q!z1 r q*!z1 p*!y2 t^*!x>",
    "<t^!x p!y2> | <r* q* p*!y3> | <p!y3 q!z1 r q*!z1 p*!y2 t^*!x>",
    "<t^!x p!y2> | <r* q*!z2 p*!y3> | <p!y3 q!z2 r q* p*!y2 t^*!x>",
    "<t^!x p!y2> | <r*!u q*!z2 p*!y3> | <p!y3 q!z2 r!u q* p*!y2 t^*!x>",
]


def hairpin() -> Process:
    return parse_process(HAIRPIN_STEPS[0])


def fourway() -> Process:
    from strandprover.fixtures import fourway

    return fourway()


# --- domains -----------------------------------------------------------------


class TestDomain:
    def test_complement_toggles_star(self):
        assert Domain("r").complement() == Domain("r", complemented=True)
        assert Domain("t", True, True).complement() == Domain("t", False, True)

    def test_complement_is_an_involution(self):
        for d in (Domain("a"), Domain("b", True), Domain("c", False, True)):
            assert d.complement().complement() == d

    def test_complement_drops_the_bond(self):
        assert Domain("a", bond="x").complement() == Domain("a", True)

    def test_free_drops_only_the_bond(self):
        bound = Domain("t", True, True, "x")
        assert bound.free() == Domain("t", True, True)
        unbound = Domain("a", False, True)
        assert unbound.free() is unbound

    def test_record_contract(self):
        d = Domain("t", True, True, "x")
        assert repr(d) == "Domain(name='t', complemented=True, toehold=True, bond='x')"
        assert str(d) == "t^*!x"
        assert d == ("t", True, True, "x")
        assert hash(d) == hash(("t", True, True, "x"))
        assert sorted([Domain("b"), Domain("a", True), Domain("a")]) == [Domain("a"), Domain("a", True), Domain("b")]
        for back in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert back == d and type(back) is Domain

    def test_matches_requires_same_name_and_kind(self):
        assert Domain("a").matches(Domain("a", True))
        assert not Domain("a").matches(Domain("a"))
        assert not Domain("a").matches(Domain("b", True))
        assert not Domain("a", toehold=True).matches(Domain("a", True))

    def test_format_parse_round_trip(self):
        for text in ("p", "q*", "t^", "t^*", "p!y1", "t^*!x"):
            assert format_domain(parse_domain(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ("", "!x", "p!", "^p", "p**"):
            with pytest.raises(ProcessError):
                parse_domain(text)


# --- process syntax and well-formedness --------------------------------------


class TestParseProcess:
    def test_hairpin_fixture(self):
        p = hairpin()
        assert len(p.strands) == 3
        assert [len(s) for s in p.strands] == [2, 3, 6]
        assert str(p) == HAIRPIN_STEPS[0]

    def test_single_free_strand(self):
        p = parse_process("<a>")
        assert len(p.strands) == 1 and p.bonds() == ()

    def test_angle_bracket_aliases(self):
        assert parse_process("⟨a^ b*⟩") == parse_process("<a^ b*>")

    def test_bond_between_non_complementary_occurrences(self):
        with pytest.raises(ProcessError):
            parse_process("<a!x> | <a!x>")

    def test_bond_used_once(self):
        with pytest.raises(ProcessError):
            parse_process("<a!x> | <a*>")

    def test_bond_used_three_times(self):
        with pytest.raises(ProcessError):
            parse_process("<a!x> | <a*!x> | <a*!x>")

    def test_toehold_flag_is_per_name(self):
        with pytest.raises(ProcessError):
            parse_process("<a^ b> | <a c>")

    def test_empty_strand_rejected(self):
        with pytest.raises(ProcessError):
            parse_process("<>")

    def test_unterminated_strand_rejected(self):
        with pytest.raises(ProcessError):
            parse_process("<a b")

    def test_blank_text_rejected(self):
        with pytest.raises(ProcessError, match="^empty process text$"):
            parse_process("  ")

    def test_one_based_locators(self):
        p = hairpin()
        assert p.domain_at((1, 1)).name == "t"
        assert p.domain_at((3, 6)).name == "t"
        assert p.domain_at((3, 6)).complemented
        with pytest.raises(ProcessError):
            p.domain_at((3, 7))
        with pytest.raises(ProcessError):
            p.domain_at((0, 1))

    def test_bonds_listed_in_first_use_order(self):
        assert hairpin().bonds() == ("y1", "z1")

    def test_strands_need_at_least_one_domain(self):
        with pytest.raises(ProcessError):
            Strand(())


def coded_texts() -> list[str]:
    """Process text of the fixtures, of seeded bench-mix toehold systems and
    of seeded random processes, each written as str() writes it."""
    rng = random.Random(39)
    texts = [HAIRPIN, FOURWAY, THEOREM, *HAIRPIN_STEPS]
    texts += [oracles.toehold_system(rng, h, f) for h, f in ((1, 0), (0, 2), (1, 1), (2, 0), (1, 2))]
    return texts + [str(oracles.random_process(rng, strands=4, max_len=5)) for _ in range(100)]


class TestCodedProcess:
    """A parsed process is its label codes, bond sites and strand lengths;
    its strands and their domains are built when first read.  It behaves
    as the process built from those strands."""

    def test_it_is_the_process_of_its_strands(self):
        for text in coded_texts():
            q = Process(parse_process(text).strands)
            p = parse_process(text)
            assert (p._codes, p._names, p._bonds, p._lengths) == (q._codes, q._names, q._bonds, q._lengths)
            # the rules' bond ends come from the lengths, with no strand built
            assert {bond: p.bond_ends(bond) for bond in p.bonds()} == {bond: q.bond_ends(bond) for bond in q.bonds()}
            assert "strands" not in vars(p)
            # each copy made before its strands are read
            copies = [
                pickle.loads(pickle.dumps(parse_process(text))),
                copy.deepcopy(parse_process(text)),
                copy.copy(parse_process(text)),
                dataclasses.replace(parse_process(text)),
            ]
            for r in [p, *copies]:
                assert r == q and q == r and hash(r) == hash(q)
                assert (repr(r), str(r), r.bonds()) == (repr(q), str(q), q.bonds())
                assert r.strands == q.strands
            assert str(p) == text

    @pytest.mark.parametrize("text", [HAIRPIN, FOURWAY, THEOREM, oracles.toehold_system(random.Random(39), 1, 2)],
                             ids=["hairpin", "fourway", "theorem", "hairpin-and-two-fourways"])
    def test_no_domain_or_strand_is_built_on_the_way_to_explore(self, monkeypatch, text):
        built = Counter()

        def counting(name, make):
            def counted(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return counted

        monkeypatch.setattr(Domain, "__new__", staticmethod(counting("Domain", Domain.__new__)))
        monkeypatch.setattr(Domain, "_make", classmethod(counting("Domain", Domain._make.__func__)))
        monkeypatch.setattr(Strand, "__init__", counting("Strand", Strand.__init__))
        p = parse_process(text)
        explore(from_process(p))
        assert built == Counter()
        # reading the strands builds them and their domains, once
        strands = p.strands
        assert p.strands is strands and built["Strand"] == len(strands) and built["Domain"] > 0


class TestCanonicalForms:
    def test_alpha_equal_ignores_bond_names(self):
        p = parse_process("<a!x> | <a*!x>")
        q = parse_process("<a!zz> | <a*!zz>")
        assert alpha_equal(p, q)

    def test_alpha_equal_ignores_strand_order(self):
        p = parse_process("<a!x> | <b> | <a*!x>")
        q = parse_process("<b> | <a!x> | <a*!x>")
        assert alpha_equal(p, q)

    def test_alpha_equal_distinguishes_bond_topology(self):
        p = parse_process("<a!x b> | <a*!x b*>")
        q = parse_process("<a b!x> | <a* b*!x>")
        assert not alpha_equal(p, q)

    def test_alpha_equal_random_shuffle_and_rename(self):
        rng = random.Random(31)
        for _ in range(100):
            p = oracles.random_process(rng)
            order = list(range(len(p.strands)))
            rng.shuffle(order)
            renamed = {b: f"w{k}" for k, b in enumerate(p.bonds())}
            q = Process(
                tuple(
                    Strand(
                        tuple(
                            Domain(d.name, d.complemented, d.toehold,
                                   renamed[d.bond] if d.bond else None)
                            for d in p.strands[i].domains
                        )
                    )
                    for i in order
                )
            )
            assert alpha_equal(p, q)

    @pytest.mark.parametrize("shapes", [("a",) * 8, ("a",) * 6 + ("b",) * 4])
    def test_up_to_eight_factorial_orders_are_tried(self, shapes):
        p = parse_process(" | ".join(f"<{name}>" for name in shapes))
        assert canonical_key(p) == tuple(((name, False, False, None),) for name in shapes)

    def test_more_orders_are_refused(self):
        # 6! * 5! orders of two groups of interchangeable strands exceed 8!
        p = parse_process(" | ".join(["<a>"] * 6 + ["<b>"] * 5))
        with pytest.raises(ProcessError, match="^too many interchangeable strands to canonicalize$"):
            canonical_key(p)


# --- geometry predicates -----------------------------------------------------


class TestGeometry:
    def test_antiparallel_adjacent_needs_opposite_steps(self):
        # two bonds between strands 1 and 2 one position apart, head-to-tail
        assert antiparallel_adjacent(((1, 1), (2, 3)), ((1, 2), (2, 2)))
        assert not antiparallel_adjacent(((1, 1), (2, 2)), ((1, 2), (2, 3)))
        assert not antiparallel_adjacent(((1, 1), (2, 3)), ((1, 2), (3, 2)))

    def test_antiparallel_adjacent_ignores_argument_and_end_order(self):
        locators = list(product(range(1, 4), range(1, 6)))  # 3 strands x 5 positions
        adjacent = 0
        for a, b, c, d in product(locators, repeat=4):
            want = antiparallel_adjacent((a, b), (c, d))
            assert antiparallel_adjacent((c, d), (a, b)) == want
            assert antiparallel_adjacent((b, a), (c, d)) == want
            assert antiparallel_adjacent((a, b), (d, c)) == want
            adjacent += want
        assert adjacent == 540

    def test_hairpin_intra_strand_neighbours(self):
        assert adjacent_bonds(hairpin(), "y1") == {"z1"}
        assert adjacent_bonds(hairpin(), "z1") == {"y1"}

    def test_single_bond_duplex_has_no_neighbours(self):
        p = parse_process("<a^!x b> | <a^*!x b*>")
        assert adjacent_bonds(p, "x") == set()
        assert not is_anchored(p, "x")

    def test_hairpin_stem_is_anchored(self):
        assert is_anchored(hairpin(), "y1")
        assert is_anchored(hairpin(), "z1")

    def test_fresh_bond_skips_used_names(self):
        assert fresh_bond(parse_process("<a>")) == "b1"
        assert fresh_bond(parse_process("<a!b1> | <a*!b1>")) == "b2"
        assert fresh_bond(parse_process("<a!b2> | <a*!b2>")) == "b1"


# --- reduction rules ---------------------------------------------------------


class TestBind:
    def test_hairpin_toehold_bind(self):
        p = bind(hairpin(), (1, 1), (3, 6))
        assert alpha_equal(p, parse_process(HAIRPIN_STEPS[1]))
        assert len(p.bonds()) == len(hairpin().bonds()) + 1

    def test_theorem_first_bind(self):
        from strandprover.fixtures import theorem_process

        p = theorem_process()
        q = bind(p, (1, 2), (3, 1))  # Q* on the wide strand meets unit Q
        assert q.domain_at((1, 2)).bond == q.domain_at((3, 1)).bond != None

    def test_bind_is_long_domain_capable(self):
        # binding needs complementarity, not a toehold
        p = bind(parse_process("<p> | <p*>"), (1, 1), (2, 1))
        assert p.bonds() == ("b1",)

    def test_same_name_same_kind_rejected(self):
        with pytest.raises(RuleError):
            bind(parse_process("<a> | <a>"), (1, 1), (2, 1))

    def test_occupied_end_rejected(self):
        p = parse_process("<a!x> | <a*!x> | <a>")
        with pytest.raises(RuleError):
            bind(p, (3, 1), (1, 1))

    def test_unknown_locator_rejected(self):
        with pytest.raises(ProcessError):
            bind(parse_process("<a>"), (9, 9), (1, 1))

    def test_self_bind_rejected(self):
        with pytest.raises(RuleError, match="^cannot bind an occurrence to itself$"):
            bind(parse_process("<a a*>"), (1, 1), (1, 1))


class TestUnbind:
    def test_unbind_reverses_toehold_bind_exactly(self):
        p = hairpin()
        q = bind(p, (1, 1), (3, 6))
        new = [b for b in q.bonds() if b not in p.bonds()][0]
        assert unbind(q, new) == p

    def test_long_domain_bond_rejected(self):
        with pytest.raises(RuleError):
            unbind(hairpin(), "y1")

    def test_anchored_toehold_rejected(self):
        # after the first displacement the toehold bond is held by its neighbour
        q = displace(bind(hairpin(), (1, 1), (3, 6)), (1, 2), "y1")
        toehold_bond = q.domain_at((1, 1)).bond
        with pytest.raises(RuleError):
            unbind(q, toehold_bond)

    def test_unknown_bond_rejected(self):
        with pytest.raises(RuleError):
            unbind(hairpin(), "nope")


class TestDisplace:
    def test_hairpin_first_displacement(self):
        q = displace(bind(hairpin(), (1, 1), (3, 6)), (1, 2), "y1")
        assert alpha_equal(q, parse_process(HAIRPIN_STEPS[2]))

    def test_bond_count_is_preserved(self):
        p1 = bind(hairpin(), (1, 1), (3, 6))
        q = displace(p1, (1, 2), "y1")
        assert len(q.bonds()) == len(p1.bonds())

    def test_unanchored_result_rejected(self):
        p = parse_process("<a> | <a!x> | <a*!x>")
        with pytest.raises(RuleError):
            displace(p, (1, 1), "x")

    def test_bound_invader_rejected(self):
        p = bind(hairpin(), (1, 1), (3, 6))
        with pytest.raises(RuleError):
            displace(p, (3, 1), "z1")  # (3,1) holds y1 already

    def test_mismatched_invader_rejected(self):
        p = bind(hairpin(), (1, 1), (3, 6))
        with pytest.raises(RuleError):
            displace(p, (2, 1), "y1")  # r* cannot take over a p-p* bond


class TestMigrateRing:
    def test_fourway_swap(self):
        p = fourway()
        p = bind(p, (1, 3), (3, 1))
        p = bind(p, (2, 1), (4, 3))
        q = migrate_ring(p, ["j1", "j2"])
        assert q.bond_ends("j1") == ((1, 2), (3, 2))
        assert q.bond_ends("j2") == ((2, 2), (4, 2))
        assert len(q.bonds()) == len(p.bonds())

    def test_swap_is_an_involution(self):
        p = fourway()
        p = bind(p, (1, 3), (3, 1))
        p = bind(p, (2, 1), (4, 3))
        assert migrate_ring(migrate_ring(p, ["j1", "j2"]), ["j1", "j2"]) == p

    def test_degenerate_ring_rejected(self):
        with pytest.raises(RuleError):
            migrate_ring(fourway(), ["j1"])

    def test_duplicate_bond_rejected(self):
        with pytest.raises(RuleError, match="^duplicate bond in migration ring$"):
            migrate_ring(fourway(), ["j1", "j1"])

    def test_mixed_domain_names_rejected(self):
        with pytest.raises(RuleError):
            migrate_ring(hairpin(), ["y1", "z1"])

    def test_unanchored_rotation_rejected(self):
        p = parse_process("<b!x1> | <b*!x1> | <b!x2> | <b*!x2>")
        with pytest.raises(RuleError):
            migrate_ring(p, ["x1", "x2"])


class TestHairpinCascade:
    """The full toehold-exchange cascade: toehold bind, displacement through
    the stem, a second bind, displacement of the loop bond, and the closing
    bind, checked against the expected program text after every step."""

    def test_replay_step_for_step(self):
        p = hairpin()
        script = [
            lambda p: bind(p, (1, 1), (3, 6)),
            lambda p: displace(p, (1, 2), "y1"),
            lambda p: bind(p, (2, 3), (3, 1)),
            lambda p: displace(p, (2, 2), "z1"),
            lambda p: bind(p, (2, 1), (3, 3)),
        ]
        for expected, step in zip(HAIRPIN_STEPS[1:], script):
            p = step(p)
            assert alpha_equal(p, parse_process(expected))

    def test_closing_bind_is_anchored(self):
        p = hairpin()
        p = bind(p, (1, 1), (3, 6))
        p = displace(p, (1, 2), "y1")
        p = bind(p, (2, 3), (3, 1))
        p = displace(p, (2, 2), "z1")
        before = set(p.bonds())
        p = bind(p, (2, 1), (3, 3))
        closing = [b for b in p.bonds() if b not in before][0]
        assert is_anchored(p, closing)
