"""Domain-level strand processes and their binding, unbinding, and migration rules.

A process is a multiset of strands; a strand is an ordered list of domain
occurrences, position 1 being the 5' end.  Bonds pair exactly two complementary
occurrences and are named; rules rewrite bonds in place, directed by explicit
locators rather than pattern search.  A locator is a (strand number, position)
pair, both 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby, islice, permutations, product
from math import factorial, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

Locator = tuple[int, int]


class ProcessError(ValueError):
    """Malformed process text or broken bond pairing."""


class RuleError(ValueError):
    """A reduction rule was applied where its premises do not hold."""


class Domain(NamedTuple):
    """One domain occurrence on a strand; bond is None when free.

    The toehold flag is a property of the name: well-formed processes never
    mix toehold and long occurrences of the same name.  A named tuple, it
    compares, hashes and sorts as the tuple of its fields.
    """

    name: str
    complemented: bool = False
    toehold: bool = False
    bond: str | None = None

    def complement(self) -> "Domain":
        """The occurrence this one can pair with: star toggled, bond cleared."""
        return Domain(self.name, not self.complemented, self.toehold)

    def matches(self, other: "Domain") -> bool:
        """True when self and other are complementary and could bond."""
        return (
            self.name == other.name
            and self.toehold == other.toehold
            and self.complemented != other.complemented
        )

    def free(self) -> "Domain":
        return self if self.bond is None else Domain(self.name, self.complemented, self.toehold)

    def __str__(self) -> str:
        return format_domain(self)


_DOMAIN_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9_]*)(?P<toehold>\^?)(?P<star>\*?)(?:!(?P<bond>[A-Za-z0-9_]+))?$"
)


def format_domain(d: Domain) -> str:
    text = d.name
    if d.toehold:
        text += "^"
    if d.complemented:
        text += "*"
    if d.bond is not None:
        text += f"!{d.bond}"
    return text


def parse_domain(token: str) -> Domain:
    m = _DOMAIN_TOKEN_RE.fullmatch(token)
    if m is None:
        raise ProcessError(f"bad domain token {token!r}")
    name, toehold, star, bond = m.groups()
    return Domain(name, bool(star), bool(toehold), bond)


@dataclass(frozen=True)
class Strand:
    domains: tuple[Domain, ...]

    def __post_init__(self):
        if not self.domains:
            raise ProcessError("a strand needs at least one domain")

    def __len__(self) -> int:
        return len(self.domains)

    def at(self, position: int) -> Domain:
        if not 1 <= position <= len(self.domains):
            raise ProcessError(f"position {position} outside strand of length {len(self.domains)}")
        return self.domains[position - 1]

    def __str__(self) -> str:
        return "<" + " ".join(format_domain(d) for d in self.domains) + ">"


def code_labels(rows: Iterable[Iterable[Sequence]]) -> tuple[list[int], list[tuple[str, bool]], dict[str, list[int]]]:
    """Each label's code, site by site: 2 * rank of its (name, toehold) +
    complemented, ranked by first use, so that code ^ 1 codes the complement
    (Domain.matches); the (name, toehold) pairs in rank order; and each
    bond's site ids, bonds in first-use order.  A site is a Domain or its
    four fields in Domain order, each flag read as true or false (a token's
    '*' and '^' in parse_process)."""
    ranks: dict[tuple[str, object], int] = {}
    codes: list[int] = []
    bonds: dict[str, list[int]] = {}
    for row in rows:
        for name, complemented, toehold, bond in row:
            if bond is not None:
                bonds.setdefault(bond, []).append(len(codes))
            codes.append(2 * ranks.setdefault((name, toehold), len(ranks)) + (1 if complemented else 0))
    return codes, [(name, bool(toehold)) for name, toehold in ranks], bonds


def decode_labels(names: list[tuple[str, bool]], codes: Iterable[int]) -> list[Domain]:
    """The bond-free Domain of each code, code_labels undone; equal codes
    share one Domain."""
    label = [Domain(name, complemented, toehold) for name, toehold in names for complemented in (False, True)]
    return [label[code] for code in codes]


def _coded(rows: list[Sequence[Sequence]]) -> dict:
    """A process's fields but its strands, from rows of sites as code_labels
    reads them, with the toehold and bond checks run on the codes."""
    codes, names, bonds = code_labels(rows)
    seen = set()
    for name, _ in names:  # in first-use order, so the first repeat is the first clash
        if name in seen:
            raise ProcessError(f"domain name {name!r} is used both as toehold and long")
        seen.add(name)
    for bond, ends in bonds.items():
        if len(ends) != 2:
            raise ProcessError(f"bond {bond!r} occurs {len(ends)} time(s), expected 2")
        if codes[ends[0]] ^ 1 != codes[ends[1]]:
            raise ProcessError(f"bond {bond!r} joins non-complementary occurrences")
    return {"_codes": codes, "_names": names, "_bonds": bonds, "_lengths": tuple(map(len, rows))}


def _coded_process(rows: list[Sequence[Sequence]]) -> Process:
    """The Process of these rows of sites, as code_labels reads them, held as
    its codes: its strands, and their domains, are built when first read."""
    p = object.__new__(Process)
    p.__dict__.update(_coded(rows))
    return p


@dataclass(frozen=True)
class Process:
    """Strands, held as the strand graph reads them: their labels coded
    (code_labels), sites numbered from 0 strand by strand, each bond as its
    two site ids, ascending, and each strand's length.  The toehold and bond
    checks run on the codes.  A process built from strands keeps them; a
    coded one (_coded_process) builds them, and their domains, when first read."""

    strands: tuple[Strand, ...]
    _codes: list[int] = field(init=False, repr=False, compare=False)  # site id -> label code
    _names: list[tuple[str, bool]] = field(init=False, repr=False, compare=False)  # rank -> name, toehold
    _bonds: dict[str, list[int]] = field(init=False, repr=False, compare=False)  # in first-use order
    _lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)  # strand -> its number of sites

    def __post_init__(self):
        self.__dict__.update(_coded([strand.domains for strand in self.strands]))

    def __getattr__(self, name: str):
        # only names not yet set come here: the strands of a coded process
        d = self.__dict__
        if name != "strands" or "_codes" not in d:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        domains = decode_labels(d["_names"], d["_codes"])
        for bond, ends in d["_bonds"].items():
            for site in ends:
                domains[site] = domains[site]._replace(bond=bond)
        sites = iter(domains)
        d["strands"] = strands = tuple(Strand(tuple(islice(sites, length))) for length in d["_lengths"])
        return strands

    def occurrences(self) -> Iterator[tuple[Locator, Domain]]:
        for s, strand in enumerate(self.strands, start=1):
            for n, d in enumerate(strand.domains, start=1):
                yield (s, n), d

    def domain_at(self, loc: Locator) -> Domain:
        s, n = loc
        if not 1 <= s <= len(self.strands):
            raise ProcessError(f"no strand {s}")
        return self.strands[s - 1].at(n)

    def bonds(self) -> tuple[str, ...]:
        """Bond names in first-use order, scanning strands 5' to 3'."""
        return tuple(self._bonds)

    def bond_ends(self, bond: str) -> tuple[Locator, Locator]:
        if bond not in self._bonds:
            raise RuleError(f"no bond named {bond!r}")
        return self._bond_ends[bond]

    @cached_property
    def _bond_ends(self) -> dict[str, tuple[Locator, Locator]]:
        """Each bond's ends as locators, which the rules read, built on their first read."""
        locators = [(s, n) for s, length in enumerate(self._lengths, start=1) for n in range(1, length + 1)]
        return {bond: (locators[a], locators[b]) for bond, (a, b) in self._bonds.items()}

    def __str__(self) -> str:
        return " | ".join(str(s) for s in self.strands)


def parse_process(text: str) -> Process:
    """Parse '<a^!x b*> | <...>' notation; angle quotes are accepted too.
    Each token is matched once and coded as Process holds it: no Domain or
    Strand is built."""
    normalized = text.replace("⟨", "<").replace("⟩", ">").strip()
    if not normalized:
        raise ProcessError("empty process text")
    match = _DOMAIN_TOKEN_RE.fullmatch
    rows = []
    for part in normalized.split("|"):
        part = part.strip()
        if not (part.startswith("<") and part.endswith(">")):
            raise ProcessError(f"strand {part!r} is not delimited by < and >")
        tokens = part[1:-1].split()
        if not tokens:
            raise ProcessError("empty strand")
        row = []
        for token in tokens:
            m = match(token)
            if m is None:
                raise ProcessError(f"bad domain token {token!r}")
            row.append(m.group(1, 3, 2, 4))  # name, star, caret, bond: a Domain's fields in order
        rows.append(row)
    return _coded_process(rows)


# --- structural congruence ---------------------------------------------------


_MAX_CANON_PERMUTATIONS = 40_320  # 8!


def _blind_signature(strand: Strand):
    return tuple((d.name, d.complemented, d.toehold, d.bond is not None) for d in strand.domains)


def _serialize(p: Process, order: Iterable[int]):
    """The strands in the given order, bonds numbered 1, 2, ... by first use."""
    numbers: dict[str, int] = {}
    return tuple(
        tuple(
            (d.name, d.complemented, d.toehold,
             None if d.bond is None else numbers.setdefault(d.bond, len(numbers) + 1))
            for d in p.strands[i].domains
        )
        for i in order
    )


def canonical_key(p: Process):
    """A value equal for exactly the processes that differ only by strand
    order and bond names.  Strands with identical shapes are disambiguated by
    trying their permutations, so heavily repetitive processes are rejected."""
    signature = [_blind_signature(strand) for strand in p.strands]
    indices = sorted(range(len(signature)), key=signature.__getitem__)
    groups = [list(group) for _, group in groupby(indices, key=signature.__getitem__)]
    if prod(factorial(len(group)) for group in groups) > _MAX_CANON_PERMUTATIONS:
        raise ProcessError("too many interchangeable strands to canonicalize")
    orders = product(*(permutations(group) for group in groups))
    return min(_serialize(p, chain.from_iterable(order)) for order in orders)


def alpha_equal(p: Process, q: Process) -> bool:
    """Equality up to strand reordering and bond renaming."""
    return canonical_key(p) == canonical_key(q)


# --- geometry ----------------------------------------------------------------


def antiparallel_adjacent(ends1: tuple[Locator, Locator], ends2: tuple[Locator, Locator]) -> bool:
    """True when the ends of two bonds (or edges) pair up so that each pair
    lies on one strand, one position apart, and the two offsets are opposite:
    +1 on one strand pairs with -1 on the other.  Both ways of pairing the
    ends are tried, so the order of the arguments and of their ends does not
    matter."""
    (v1, n1), (v2, n2) = ends1
    return any(
        v1 == w1 and v2 == w2 and abs(m1 - n1) == 1 and m2 - n2 == n1 - m1
        for (w1, m1), (w2, m2) in (ends2, ends2[::-1])
    )


def adjacent_bonds(p: Process, bond: str) -> set[str]:
    """Bonds lying immediately next to the given one in antiparallel alignment."""
    own = p.bond_ends(bond)
    return {
        other
        for other in p.bonds()
        if other != bond and antiparallel_adjacent(own, p.bond_ends(other))
    }


def is_anchored(p: Process, bond: str) -> bool:
    """A bond is anchored when at least one adjacent bond holds it in place."""
    return bool(adjacent_bonds(p, bond))


# --- reduction rules ---------------------------------------------------------


def fresh_bond(p: Process) -> str:
    """Smallest unused name of the shape b1, b2, ..."""
    used = set(p.bonds())
    k = 1
    while f"b{k}" in used:
        k += 1
    return f"b{k}"


def _rebind(p: Process, changes: dict[Locator, str | None]) -> Process:
    rows = [list(strand.domains) for strand in p.strands]
    for (s, n), bond in changes.items():
        rows[s - 1][n - 1] = rows[s - 1][n - 1]._replace(bond=bond)
    return Process(tuple(Strand(tuple(row)) for row in rows))


def bind(p: Process, a: Locator, b: Locator) -> Process:
    """Form a new bond between two free complementary occurrences."""
    da, db = p.domain_at(a), p.domain_at(b)
    if a == b:
        raise RuleError("cannot bind an occurrence to itself")
    if da.bond is not None or db.bond is not None:
        raise RuleError("bind needs two free occurrences")
    if not da.matches(db):
        raise RuleError(f"{format_domain(da)} and {format_domain(db)} are not complementary")
    name = fresh_bond(p)
    return _rebind(p, {a: name, b: name})


def unbind(p: Process, bond: str) -> Process:
    """Dissolve a toehold bond that no adjacent bond anchors."""
    e1, e2 = p.bond_ends(bond)
    if not p.domain_at(e1).toehold:
        raise RuleError(f"bond {bond!r} is not on a toehold; long bonds only migrate")
    if is_anchored(p, bond):
        raise RuleError(f"bond {bond!r} is anchored and cannot unbind")
    return _rebind(p, {e1: None, e2: None})


def displace(p: Process, invader: Locator, bond: str) -> Process:
    """Let a free occurrence take over a bond from an identical occurrence.

    The bond end matching the invader (same name and flags) is set free; the
    opposite end is re-bonded to the invader under a fresh name.  The migrated
    bond must be anchored in the result, otherwise the step is rejected.
    """
    d = p.domain_at(invader)
    if d.bond is not None:
        raise RuleError("the displacing occurrence must be free")
    e1, e2 = p.bond_ends(bond)
    same = [loc for loc in (e1, e2) if p.domain_at(loc).free() == d.free()]
    if not same:
        raise RuleError(f"bond {bond!r} has no end matching {format_domain(d)}")
    lost = same[0]
    kept = e2 if lost == e1 else e1
    name = fresh_bond(p)
    q = _rebind(p, {lost: None, invader: name, kept: name})
    if not is_anchored(q, name):
        raise RuleError("a displaced bond must be anchored in the result")
    return q


def migrate_ring(p: Process, ring: Sequence[str]) -> Process:
    """Rotate the bonds of a closed migration ring one position.

    All ring bonds must share one domain name; the plain side of ring[k] is
    re-paired with the starred side of ring[k+1], cyclically, and every
    rotated bond must be anchored in the result.  Bond count is unchanged.
    """
    if len(ring) < 2:
        raise RuleError("a migration ring needs at least two bonds")
    if len(set(ring)) != len(ring):
        raise RuleError("duplicate bond in migration ring")
    ends = [p.bond_ends(bond) for bond in ring]
    if len({p.domain_at(e1).name for e1, _ in ends}) != 1:  # both ends of a bond share its name
        raise RuleError("migration ring bonds must share a single domain name")
    starred = [e1 if p.domain_at(e1).complemented else e2 for e1, e2 in ends]
    q = _rebind(p, dict(zip(starred[1:] + starred[:1], ring)))
    for bond in ring:
        if not is_anchored(q, bond):
            raise RuleError(f"bond {bond!r} is not anchored after migration")
    return q
