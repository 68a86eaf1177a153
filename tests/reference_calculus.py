"""Reference closure by saturation over IndexSet atoms.

An independent second implementation of ``calculus.closure``: the
rule-by-rule saturation the library ran before its closure moved to
plain ints and its unguarded queries to lattice membership.  The guard is
consulted with ``IndexSet`` arguments, and every pop rescans the atom set
for partners.  It shares no code with the library's calculus beyond the
``Fact`` and ``IndexSet`` value types, so the differential tests can check
the library's lattice query, its int saturation and its memoised
zig-zag guard against it.  The reference guard decides connectivity with
the library's ``zigzag_connected_support``, which ``test_worlds`` checks
against its own reference.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from disentlab.calculus import KIND_C, KIND_R, Fact
from disentlab.indexset import IndexSet
from disentlab.worlds import zigzag_connected_support

RuleGuard = Callable[[str, IndexSet, IndexSet], bool]


class ReferenceFactSet:
    """A set of canonical C/R atoms with derivation traces."""

    def __init__(self, n: int, nuisance: bool = False):
        self.n = n
        self.nuisance = nuisance
        self.atoms: set[tuple[str, int]] = set()
        self.traces: dict[tuple[str, int], tuple[str, tuple]] = {}

    def _check(self, I: IndexSet):
        if (I.n, I.nuisance) != (self.n, self.nuisance):
            raise ValueError(f"index set {I!r} outside this fact set's universe")

    def contains(self, f: Fact) -> bool:
        self._check(f.index_set)
        return all(a in self.atoms for a in f.atoms())

    def index_set(self, bits: int) -> IndexSet:
        return IndexSet(self.n, bits, self.nuisance)

    def _add(self, kind: str, bits: int, rule: str, premises: tuple) -> bool:
        atom = (kind, bits)
        if atom in self.atoms:
            return False
        self.atoms.add(atom)
        self.traces[atom] = (rule, premises)
        return True


def reference_closure(
    axioms: Iterable[Fact],
    n: int,
    nuisance: bool = False,
    guard: RuleGuard | None = None,
) -> ReferenceFactSet:
    """Least fixpoint of the rule set over the axioms.

    The guard, when given, is consulted with (rule, I, J) before any
    union/intersection rule fires; returning False suppresses that single
    application.  Derivations are recorded for every atom.
    """
    fs = ReferenceFactSet(n, nuisance)
    universe = n + (1 if nuisance else 0)
    mask = (1 << universe) - 1
    queue: deque[tuple[str, int]] = deque()

    def add(kind, bits, rule, premises):
        if fs._add(kind, bits, rule, premises):
            queue.append((kind, bits))

    for kind in (KIND_C, KIND_R):
        add(kind, 0, "trivial", ())
        add(kind, mask, "trivial", ())
    for f in axioms:
        fs._check(f.index_set)
        for kind, bits in f.atoms():
            add(kind, bits, "axiom", ())

    def allowed(rule, b1, b2):
        if guard is None:
            return True
        return guard(rule, fs.index_set(b1), fs.index_set(b2))

    while queue:
        kind, bits = queue.popleft()
        other = KIND_R if kind == KIND_C else KIND_C
        add(other, bits ^ mask, "complement", ((kind, bits),))
        partners = [b for k, b in fs.atoms if k == kind]
        for b2 in partners:
            premises = ((kind, bits), (kind, b2))
            union_rule = "c_union" if kind == KIND_C else "r_union"
            inter_rule = "c_intersect" if kind == KIND_C else "r_intersect"
            if allowed(union_rule, bits, b2):
                add(kind, bits | b2, union_rule, premises)
            if allowed(inter_rule, bits, b2):
                add(kind, bits & b2, inter_rule, premises)
    return fs


def reference_zigzag_guard(support) -> RuleGuard:
    """Guard that lets union/intersection rules fire only when the support
    is zig-zag connected for the participating index sets, taking
    ``IndexSet`` arguments.

    Restrictiveness union needs connectivity for (I, J) directly;
    consistency intersection for the complements.  The other rules hold
    on any support and are never suppressed.
    """
    cache: dict = {}

    def ok(I: IndexSet, J: IndexSet) -> bool:
        key = frozenset((I.bits, J.bits))
        if key not in cache:
            cache[key] = zigzag_connected_support(support, I, J)
        return cache[key]

    def guard(rule: str, I: IndexSet, J: IndexSet) -> bool:
        if rule == "r_union":
            return ok(I, J)
        if rule == "c_intersect":
            return ok(I.complement(), J.complement())
        return True

    return guard
