"""Fact-closure inference over consistency/restrictiveness atoms.

Facts are typed atoms C(I), R(I), D(I) over index sets.  D(I) is stored as
the conjunction C(I) and R(I).  The rule set has six schemas:

    complement    C(I) <-> R(~I)
    c_union       C(I) & C(J) => C(I | J)
    r_union       R(I) & R(J) => R(I | J)
    c_intersect   C(I) & C(J) => C(I & J)
    r_intersect   R(I) & R(J) => R(I & J)
    trivial       C({}), R({}), C(full), R(full)

The complement rule is never guarded, so a closure holds R(I) exactly when
it holds C(~I).  A ``FactSet`` therefore keeps one family of
C-coordinates: I for C(I), ~I for R(I).  r_union on R-atoms is
c_intersect on their C-coordinates, and r_intersect is c_union.

Without a guard the family is the sublattice of subsets of the universe
that the generators span: the C-axioms, the complements of the R-axioms,
{} and the full set (Birkhoff's representation theorem for finite
distributive lattices).  With down(j) the intersection of the generators
that contain j, I is in the family iff down(j) is a subset of I for every
j in I, and the family is every union of down-sets.  ``closure`` lists it
that way; ``derive`` and ``entails`` test membership and write each
derivation directly: c_intersect steps build down(j) and c_union steps
join those into I; an R-atom takes the dual steps, r_union and
r_intersect, over the R-generators.  Only ``derive`` writes traces.

r_union and c_intersect are only sound on supports whose zig-zag
connectivity holds for the participating sets; callers that care pass a
guard predicate, consulted with (rule, I bits, J bits).  The lattice
argument does not cover a guard, so a guarded ``closure`` saturates the
family: unions always fire, an intersection only when
``guard("c_intersect", a, b)`` allows it.

The nuisance extension adds one unsupervisable index eta: eta-consistency
of I is plain consistency of I, eta-restrictiveness of I is plain
restrictiveness of I plus eta.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import ArityTooLarge, CalculusError, FactParseError, NuisanceInAxiomIndexSet
from .indexset import ETA, IndexSet

MAX_UNIVERSE = 16

KIND_C = "C"
KIND_R = "R"
KIND_D = "D"

# (rule, I bits, J bits) -> whether that single rule application may fire
RuleGuard = Callable[[str, int, int], bool]
# kind -> (the other kind, meet rule, join rule) of its lattice, read in C
# coordinates: the R-atoms are complements of C-atoms, so meets of
# R-generators are unions
_RULES = {KIND_C: (KIND_R, "c_intersect", "c_union"), KIND_R: (KIND_C, "r_union", "r_intersect")}


@dataclass(frozen=True, order=True)
class Fact:
    """A typed atom over an index set; kind is 'C', 'R', or 'D'."""

    kind: str
    index_set: IndexSet

    def __post_init__(self):
        if self.kind not in (KIND_C, KIND_R, KIND_D):
            raise CalculusError(f"unknown fact kind {self.kind!r}")

    def atoms(self) -> tuple[tuple[str, int], ...]:
        """Canonical C/R atoms: D expands to its two constituents."""
        if self.kind == KIND_D:
            return ((KIND_C, self.index_set.bits), (KIND_R, self.index_set.bits))
        return ((self.kind, self.index_set.bits),)

    def __str__(self) -> str:
        return f"{self.kind}{self.index_set}"


class FactSet:
    """A family of C-coordinates (I for C(I), ~I for R(I)), with the
    derivation traces that ``derive`` writes."""

    def __init__(self, n: int, nuisance: bool = False):
        if n < 1:
            raise CalculusError(f"arity must be >= 1, got {n}")
        size = n + (1 if nuisance else 0)
        if size > MAX_UNIVERSE:
            raise ArityTooLarge(f"universe of size {size} exceeds the cap of {MAX_UNIVERSE}")
        self.n = n
        self.nuisance = nuisance
        self.mask = (1 << size) - 1
        self.family: set[int] = set()
        self.traces: dict[tuple[str, int], tuple[str, tuple]] = {}

    # -- membership ------------------------------------------------------------

    def _check(self, I: IndexSet):
        if (I.n, I.nuisance) != (self.n, self.nuisance):
            raise CalculusError(f"index set {I!r} outside this fact set's universe")

    def _coord(self, kind: str, bits: int) -> int:
        return bits if kind == KIND_C else bits ^ self.mask

    @property
    def atoms(self) -> set[tuple[str, int]]:
        """Every C/R atom the family holds."""
        mask = self.mask
        return {(KIND_C, b) for b in self.family} | {(KIND_R, b ^ mask) for b in self.family}

    def contains(self, f: Fact) -> bool:
        self._check(f.index_set)
        return all(self._coord(*a) in self.family for a in f.atoms())

    def contains_eta(self, f: Fact) -> bool:
        """Query an eta-fact: the index set ranges over regular factors only."""
        return all(self.contains(lifted) for lifted in expand_eta_fact(f, self.n))

    def index_set(self, bits: int) -> IndexSet:
        return IndexSet(self.n, bits, self.nuisance)

    def facts(self) -> list[Fact]:
        return [Fact(k, self.index_set(b)) for k, b in sorted(self.atoms)]

    def derived_d(self) -> list[Fact]:
        """All D(I) whose two constituents are present: I and ~I in the family."""
        return [Fact(KIND_D, self.index_set(b)) for b in sorted(self.family) if b ^ self.mask in self.family]

    # -- traces --------------------------------------------------------------------

    def _add(self, kind: str, bits: int, rule: str, premises: tuple) -> None:
        if (kind, bits) not in self.traces:
            self.traces[(kind, bits)] = (rule, premises)
            self.family.add(self._coord(kind, bits))

    def trace_lines(self, f: Fact) -> list[str]:
        """Replay the derivation of a fact back to axioms, premises first."""
        self._check(f.index_set)
        lines: list[str] = []
        seen: set[tuple[str, int]] = set()

        def visit(atom):
            if atom in seen:
                return
            seen.add(atom)
            rule, premises = self.traces[atom]
            for p in premises:
                visit(p)
            shown = ", ".join(str(Fact(k, self.index_set(b))) for k, b in premises)
            lines.append(f"{Fact(atom[0], self.index_set(atom[1]))} <= {rule}({shown})")

        for atom in f.atoms():
            if atom not in self.traces:
                raise CalculusError(f"{f} has no derivation in this fact set")
            visit(atom)
        return lines

    def __len__(self) -> int:
        return 2 * len(self.family)


def _generators(fs: FactSet, axioms: Iterable[Fact]) -> list[int]:
    """C-coordinates of the four trivial atoms, then of the axioms."""
    gens = [0, fs.mask]
    for f in axioms:
        fs._check(f.index_set)
        gens.extend(fs._coord(*a) for a in f.atoms())
    return gens


def _down_sets(gens: Iterable[int], mask: int) -> list[int]:
    """down(j), the intersection of the generators that contain j, for
    every j of the universe."""
    down = [mask] * mask.bit_length()
    for g in gens:
        for j in range(len(down)):
            if g >> j & 1:
                down[j] &= g
    return down


def closure(
    axioms: Iterable[Fact],
    n: int,
    nuisance: bool = False,
    guard: RuleGuard | None = None,
) -> FactSet:
    """Least fixpoint of the rule set over the axioms, as a family of
    C-coordinates with no traces.

    Without a guard the family is every union of down-sets.  With one it
    is saturated: unions always fire, and an intersection whose result is
    new fires only if ``guard("c_intersect", a, b)`` allows it.
    """
    fs = FactSet(n, nuisance)
    gens = _generators(fs, axioms)
    family = fs.family
    if guard is None:
        family.add(0)
        for d in set(_down_sets(gens, fs.mask)):
            family |= {f | d for f in family}
        return fs
    family.update(gens)
    members = list(family)
    for a in members:  # grows as the loop runs: every new member is paired too
        for b in members[:]:
            for result, free in ((a | b, True), (a & b, False)):
                if result not in family and (free or guard("c_intersect", a, b)):
                    family.add(result)
                    members.append(result)
    return fs


def derive(axioms: Iterable[Fact], queries: Iterable[Fact], n: int, nuisance: bool = False) -> FactSet:
    """The part of the unguarded closure that answers the queries.

    The result holds the generators and, for every queried atom that the
    closure holds, a derivation of it, so ``contains`` gives each query's
    verdict and ``trace_lines`` its trace.  Other atoms of the closure are
    absent unless such a derivation passes through them.
    """
    fs = FactSet(n, nuisance)
    mask = fs.mask
    for kind in (KIND_C, KIND_R):
        fs._add(kind, 0, "trivial", ())
        fs._add(kind, mask, "trivial", ())
    for f in axioms:
        fs._check(f.index_set)
        for kind, bits in f.atoms():
            fs._add(kind, bits, "axiom", ())
    for kind, bits in list(fs.traces):
        fs._add(_RULES[kind][0], bits ^ mask, "complement", ((kind, bits),))
    gens = [bits for kind, bits in fs.traces if kind == KIND_C]
    down = _down_sets(gens, mask)
    for q in queries:
        fs._check(q.index_set)
        for kind, bits in q.atoms():
            target = fs._coord(kind, bits)
            if (kind, bits) not in fs.traces and all(
                down[j] & ~target == 0 for j in range(len(down)) if target >> j & 1
            ):
                _write_derivation(fs, kind, target, gens)
    return fs


def _write_derivation(fs: FactSet, kind: str, target: int, gens: list[int]) -> None:
    """Derive the atom whose C-coordinates ``target`` lie in the lattice of
    ``gens``: meets of the generators that contain j give down(j), and
    joins of those give the target.  An R-atom's C-coordinates are its
    complement."""
    flip = 0 if kind == KIND_C else fs.mask
    _, meet, join = _RULES[kind]

    def step(rule, a, b, result):
        fs._add(kind, result ^ flip, rule, ((kind, a ^ flip), (kind, b ^ flip)))

    joined = None
    for j in range(fs.mask.bit_length()):
        if not target >> j & 1 or (joined is not None and joined >> j & 1):
            continue
        cur = fs.mask  # C(full), trivial
        for g in gens:
            if g >> j & 1 and cur & g != cur:
                if cur != fs.mask:
                    step(meet, cur, g, cur & g)
                cur &= g
        if joined is not None:
            step(join, joined, cur, joined | cur)
            cur |= joined
        joined = cur


def entails(
    axioms: Iterable[Fact],
    queries: Iterable[Fact],
    n: int,
    nuisance: bool = False,
) -> tuple[bool, list[str]]:
    """Membership of the conjunction of the queries in the unguarded
    closure, with the derivation traces of the queries in order when every
    query holds (no lines otherwise).

    A False verdict means "not derivable from the rule set", not that the
    facts fail in every model.
    """
    queries = list(queries)
    fs = derive(axioms, queries, n, nuisance)
    if all(fs.contains(q) for q in queries):
        return True, [line for q in queries for line in fs.trace_lines(q)]
    return False, []


# -- nuisance extension ----------------------------------------------------------------


def expand_eta_fact(f: Fact, n: int) -> list[Fact]:
    """Translate an eta-fact over regular factors into base facts over the
    universe with eta: C stays, R gains eta, D expands to both."""
    I = f.index_set
    if I.nuisance or I.n != n:
        raise NuisanceInAxiomIndexSet(
            f"eta-facts take index sets over the {n} regular factors, got {I!r}"
        )
    lifted = IndexSet(n, I.bits, True)
    eta = IndexSet.of([lifted.eta_index], n, True)
    if f.kind == KIND_C:
        return [Fact(KIND_C, lifted)]
    if f.kind == KIND_R:
        return [Fact(KIND_R, lifted.union(eta))]
    return [Fact(KIND_C, lifted), Fact(KIND_R, lifted.union(eta))]


def nuisance_closure(eta_axioms: Iterable[Fact], n: int) -> FactSet:
    """Unguarded closure over n factors plus the nuisance index.

    Axioms are eta-facts whose index sets range over the regular factors
    only (supervision cannot reference eta); they are expanded to base
    facts over the extended universe and then closed as usual.
    """
    base_axioms: list[Fact] = []
    for f in eta_axioms:
        base_axioms.extend(expand_eta_fact(f, n))
    return closure(base_axioms, n, nuisance=True)


# -- supervision planning ------------------------------------------------------------------


def plan_supervision(
    n: int,
    goal: Sequence[Fact],
    candidates: Sequence,
    budget: int,
) -> list[tuple]:
    """Minimal candidate subsets whose guaranteed facts entail the goal.

    Each candidate supervision contributes consistency of its canonical
    index set as an axiom.  The search is exhaustive over subsets up to
    the budget and returns every achieving set of the smallest size
    (empty list if none exists within budget).
    """
    goal = list(goal)
    guarantees = [Fact(KIND_C, spec.guaranteed_index_set(n)) for spec in candidates]
    for size in range(0, min(budget, len(candidates)) + 1):
        winners = []
        for picks in combinations(range(len(candidates)), size):
            if entails([guarantees[i] for i in picks], goal, n)[0]:
                winners.append(tuple(candidates[i] for i in picks))
        if winners:
            return winners
    return []


# -- textual fact language ------------------------------------------------------------------

_FACT_RE = re.compile(r"^\s*(C|R|D)(eta)?\s*\{([^{}]*)\}\s*$")


def parse_facts(text: str, n: int, nuisance: bool = False) -> list[Fact]:
    """Parse a conjunction like ``C{1,2} & R{3}`` into facts.

    ``Ceta{..}`` / ``Reta{..}`` / ``Deta{..}`` are eta-fact sugar and
    require the nuisance universe, as does a literal ``eta`` index.
    """
    facts: list[Fact] = []
    text = text.strip()
    if not text:
        return facts
    for part in text.split("&"):
        m = _FACT_RE.match(part)
        if not m:
            raise FactParseError(f"cannot parse fact {part.strip()!r}")
        kind, eta_kind, body = m.group(1), m.group(2), m.group(3)
        indices: list[int] = []
        for tok in body.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if tok == ETA:
                if not nuisance:
                    raise FactParseError("index 'eta' needs the nuisance universe")
                if eta_kind:
                    raise NuisanceInAxiomIndexSet(f"eta-facts range over factors 1..{n}; {part.strip()!r} names eta")
                indices.append(n + 1)
            elif tok.isascii() and tok.isdigit():
                indices.append(int(tok))
            else:
                raise FactParseError(f"bad index {tok!r} in {part.strip()!r}")
        if eta_kind:
            if not nuisance:
                raise FactParseError(f"{kind}eta facts need the nuisance universe")
            base = Fact(kind, IndexSet.of(indices, n))
            facts.extend(expand_eta_fact(base, n))
        else:
            try:
                facts.append(Fact(kind, IndexSet.of(indices, n, nuisance)))
            except Exception as exc:
                raise FactParseError(f"bad fact {part.strip()!r}: {exc}") from exc
    return facts
