import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disentlab import (
    Fact,
    IndexSet,
    SupervisionSpec,
    closure,
    derive,
    entails,
    nuisance_closure,
    parse_facts,
    plan_supervision,
)
from disentlab.calculus import expand_eta_fact
from disentlab.errors import ArityTooLarge, CalculusError, FactParseError, NuisanceInAxiomIndexSet
from reference_calculus import reference_closure


def F(kind, indices, n, nuisance=False):
    return Fact(kind, IndexSet.of(indices, n, nuisance))


def axiom_lists(n=4):
    atoms = st.tuples(st.sampled_from(["C", "R", "D"]), st.integers(0, (1 << n) - 1))
    return st.lists(atoms, max_size=6).map(
        lambda items: [Fact(k, IndexSet(n, b)) for k, b in items]
    )


# -- rule applications from the rule box --------------------------------------------


def test_intersection_rule():
    fs = closure([F("C", [1, 2], 3), F("C", [2, 3], 3)], 3)
    assert fs.contains(F("C", [2], 3))


def test_complement_rule():
    fs = closure([F("C", [1], 3)], 3)
    assert fs.contains(F("R", [2, 3], 3))


def test_full_disentanglement_from_singleton_consistency():
    fs = closure([F("C", [i], 3) for i in (1, 2, 3)], 3)
    for i in (1, 2, 3):
        assert fs.contains(F("D", [i], 3))


def test_unknown_kind_and_foreign_universe_rejected():
    with pytest.raises(CalculusError, match="unknown fact kind"):
        F("X", [1], 3)
    fs = closure([F("C", [1], 3)], 3)
    for foreign in (F("C", [1], 2), F("C", [1], 3, nuisance=True)):
        with pytest.raises(CalculusError, match="outside this fact set's universe"):
            fs.contains(foreign)


def test_full_disentanglement_from_singleton_restrictiveness():
    c_side = closure([F("C", [i], 3) for i in (1, 2, 3)], 3)
    r_side = closure([F("R", [i], 3) for i in (1, 2, 3)], 3)
    assert {f.index_set.bits for f in c_side.derived_d()} == {
        f.index_set.bits for f in r_side.derived_d()
    }


def test_consistency_does_not_imply_restrictiveness():
    ok, _ = entails([F("C", [1], 3)], [F("R", [1], 3)], 3)
    assert not ok


def test_union_rule_entailment_with_trace():
    ok, trace = entails([F("R", [1], 3), F("R", [2], 3)], [F("R", [1, 2], 3)], 3)
    assert ok
    assert any("r_union" in line for line in trace)


def test_empty_set_disentanglement_is_free():
    ok, trace = entails([], [F("D", [], 3)], 3)
    assert ok
    assert all("trivial" in line for line in trace)


# -- structural properties --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(axiom_lists())
def test_closure_is_idempotent(axioms):
    fs = closure(axioms, 4)
    again = closure(fs.facts(), 4)
    assert (fs.n, fs.nuisance, fs.family) == (again.n, again.nuisance, again.family)


@settings(max_examples=60, deadline=None)
@given(axiom_lists(), axiom_lists())
def test_closure_is_monotone(a, b):
    small = closure(a, 4)
    big = closure(a + b, 4)
    assert small.atoms <= big.atoms


@settings(max_examples=60, deadline=None)
@given(axiom_lists(), st.randoms())
def test_closure_is_order_independent(axioms, rnd):
    shuffled = list(axioms)
    rnd.shuffle(shuffled)
    a, b = closure(axioms, 4), closure(shuffled, 4)
    assert (a.n, a.nuisance, a.family) == (b.n, b.nuisance, b.family)


@settings(max_examples=40, deadline=None)
@given(axiom_lists())
def test_closure_records_no_traces(axioms):
    # derivations come from ``derive``; see test_entails_traces_replay
    fs = closure(axioms, 4)
    for f in fs.facts():
        with pytest.raises(CalculusError):
            fs.trace_lines(f)


# -- lattice queries against the reference saturation ----------------------------------


@st.composite
def universes_and_axioms(draw):
    """n <= 6, with or without the nuisance index, and up to six C/R/D
    axioms over the whole universe."""
    nuisance = draw(st.booleans())
    n = draw(st.integers(1, 6 - nuisance))
    size = 1 << (n + nuisance)
    atoms = st.tuples(st.sampled_from(["C", "R", "D"]), st.integers(0, size - 1))
    axioms = [Fact(k, IndexSet(n, b, nuisance)) for k, b in draw(st.lists(atoms, max_size=6))]
    return n, nuisance, axioms


def every_atom(n, nuisance):
    return [Fact(k, IndexSet(n, b, nuisance)) for k in ("C", "R") for b in range(1 << (n + nuisance))]


@settings(max_examples=150, deadline=None)
@given(universes_and_axioms())
def test_lattice_verdicts_equal_reference_saturation(case):
    n, nuisance, axioms = case
    reference = reference_closure(axioms, n, nuisance)
    queries = every_atom(n, nuisance)
    derived = derive(axioms, queries, n, nuisance)
    assert derived.atoms <= reference.atoms  # every written derivation step is sound
    assert closure(axioms, n, nuisance).atoms == reference.atoms
    for q in queries:
        expected = q.atoms()[0] in reference.atoms
        assert derived.contains(q) == expected, (axioms, q)
        assert entails(axioms, [q], n, nuisance)[0] == expected, (axioms, q)


_ATOM_RE = re.compile(r"[CR]\{[^{}]*\}")
_LINE_RE = re.compile(r"^([CR]\{[^{}]*\}) <= (\w+)\((.*)\)$")
_RULE_BITS = {
    "c_union": ("C", lambda a, b: a | b),
    "r_union": ("R", lambda a, b: a | b),
    "c_intersect": ("C", lambda a, b: a & b),
    "r_intersect": ("R", lambda a, b: a & b),
}


def replay(lines, axioms, n, nuisance=False):
    """Check each trace line in order: its premises are earlier heads, its
    head follows from them by the named rule, and an ``axiom`` head is an
    axiom atom.  Returns the set of heads."""
    mask = (1 << (n + nuisance)) - 1
    axiom_atoms = {atom for f in axioms for atom in f.atoms()}
    heads = set()
    for line in lines:
        m = _LINE_RE.match(line)
        assert m, line
        (head_fact,) = parse_facts(m.group(1), n, nuisance)
        head = head_fact.atoms()[0]
        rule = m.group(2)
        premises = [f.atoms()[0] for p in _ATOM_RE.findall(m.group(3)) for f in parse_facts(p, n, nuisance)]
        assert all(p in heads for p in premises), line
        kind, bits = head
        if rule == "axiom":
            assert not premises and head in axiom_atoms, line
        elif rule == "trivial":
            assert not premises and bits in (0, mask), line
        elif rule == "complement":
            (p_kind, p_bits), = premises
            assert p_kind != kind and p_bits == bits ^ mask, line
        else:
            rule_kind, op = _RULE_BITS[rule]
            (k1, b1), (k2, b2) = premises
            assert kind == k1 == k2 == rule_kind and bits == op(b1, b2), line
        heads.add(head)
    return heads


@settings(max_examples=100, deadline=None)
@given(universes_and_axioms())
def test_entails_traces_replay(case):
    n, nuisance, axioms = case
    reference = reference_closure(axioms, n, nuisance)
    single = {}
    for q in every_atom(n, nuisance):
        ok, lines = entails(axioms, [q], n, nuisance)
        single[q] = ok, lines
        if ok:
            assert q.atoms()[0] in replay(lines, axioms, n, nuisance)
        else:
            assert lines == [] and q.atoms()[0] not in reference.atoms
    # a two-query conjunction: the all of the single verdicts, and when it
    # holds the single traces joined in query order
    queries = list(single)
    for q1, q2 in zip(queries, queries[::-1]):
        (ok1, lines1), (ok2, lines2) = single[q1], single[q2]
        assert entails(axioms, [q1, q2], n, nuisance) == ((True, lines1 + lines2) if ok1 and ok2 else (False, []))


def test_derive_traces_both_coordinates_of_one_set():
    """C(I) and R(~I) share one C-coordinate, yet each query gets its own
    trace, C(I) in C-rules and R(~I) in R-rules."""
    axioms = [F("C", [1, 2], 3), F("R", [1], 3)]
    queries = [F("C", [2], 3), F("R", [1, 3], 3)]
    fs = derive(axioms, queries, 3)
    for q in queries:
        lines = fs.trace_lines(q)
        assert q.atoms()[0] in replay(lines, axioms, 3)
        assert lines[-1].startswith(f"{q} <= {q.kind.lower()}_")


def test_replay_rejects_a_wrong_step():
    axioms = [F("C", [1, 2], 3), F("C", [2, 3], 3)]
    ok, lines = entails(axioms, [F("C", [2], 3)], 3)
    assert ok and replay(lines, axioms, 3)
    with pytest.raises(AssertionError):
        replay([line.replace("c_intersect", "c_union") for line in lines], axioms, 3)
    with pytest.raises(AssertionError):
        replay(lines, axioms[:1], 3)


def test_arity_cap():
    with pytest.raises(ArityTooLarge, match="universe of size 17 exceeds the cap of 16"):
        closure([], 17)
    with pytest.raises(ArityTooLarge, match="universe of size 17 exceeds the cap of 16"):
        closure([], 16, nuisance=True)


def test_guard_suppresses_rule_applications():
    # r_union and c_intersect are complement duals, so a sound guard must
    # suppress both routes to the same conclusion
    axioms = [F("R", [1], 3), F("R", [2], 3)]
    permissive = closure(axioms, 3)
    assert permissive.contains(F("R", [1, 2], 3))
    blocked = closure(
        axioms, 3, guard=lambda rule, I, J: rule not in ("r_union", "c_intersect")
    )
    assert not blocked.contains(F("R", [1, 2], 3))


# -- nuisance ---------------------------------------------------------------------------------


def test_nuisance_closure_derives_eta_restrictiveness():
    fs = nuisance_closure([F("C", [1], 2), F("C", [2], 2)], 2)
    eta = IndexSet.of([3], 2, nuisance=True)
    assert fs.contains(Fact("R", eta))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nuisance_full_disentanglement(n):
    fs = nuisance_closure([F("C", [i], n) for i in range(1, n + 1)], n)
    for i in range(1, n + 1):
        assert fs.contains_eta(F("D", [i], n))


def test_nuisance_nothing_from_nothing():
    fs = nuisance_closure([], 2)
    eta_bit = 1 << 2
    assert not any(bits & eta_bit and bits != 0b111 for _, bits in fs.atoms)


def test_nuisance_rejects_eta_in_axioms():
    eta_set = IndexSet.of([3], 2, nuisance=True)
    with pytest.raises(NuisanceInAxiomIndexSet):
        nuisance_closure([Fact("C", eta_set)], 2)


def test_expand_eta_fact_definitions():
    c, = expand_eta_fact(F("C", [1], 2), 2)
    assert str(c) == "C{1}"
    r, = expand_eta_fact(F("R", [1], 2), 2)
    assert str(r) == "R{1,eta}"
    d = expand_eta_fact(F("D", [1], 2), 2)
    assert [str(f) for f in d] == ["C{1}", "R{1,eta}"]


# -- supervision planning ------------------------------------------------------------------------


def shares(n):
    return [SupervisionSpec("share-pairing", (i,)) for i in range(1, n + 1)]


def test_plan_full_disentanglement_with_shares():
    goal = [F("D", [i], 3) for i in (1, 2, 3)]
    plans = plan_supervision(3, goal, shares(3), budget=3)
    assert plans == [tuple(shares(3))]


def test_plan_restrictiveness_by_intersection():
    candidates = [
        SupervisionSpec("change-pairing", (1, 2)),
        SupervisionSpec("change-pairing", (2, 3)),
    ]
    plans = plan_supervision(3, [F("R", [2], 3)], candidates, budget=2)
    assert plans == [tuple(candidates)]


def test_plan_unreachable_goal():
    only_label = [SupervisionSpec("restricted-labeling", (1,))]
    assert plan_supervision(3, [F("R", [1], 3)], only_label, budget=1) == []


# -- textual fact language -----------------------------------------------------------------------


def test_parse_examples():
    assert [str(f) for f in parse_facts("C{1,2}", 3)] == ["C{1,2}"]
    assert [str(f) for f in parse_facts("D{}", 3)] == ["D{}"]
    facts = parse_facts("C{1,2} & C{2,3}", 3)
    assert [str(f) for f in facts] == ["C{1,2}", "C{2,3}"]


def test_parse_eta_tokens():
    (f,) = parse_facts("R{1,eta}", 2, nuisance=True)
    assert f.index_set.members() == (1, f.index_set.eta_index) == (1, 3)
    facts = parse_facts("Ceta{1} & Reta{2}", 2, nuisance=True)
    assert [str(f) for f in facts] == ["C{1}", "R{2,eta}"]


@pytest.mark.parametrize("text", ["Ceta{eta}", "Reta{1,eta}", "Deta{ eta }"])
def test_parse_rejects_eta_inside_eta_fact_sugar(text):
    """The sugar adds eta itself; naming it inside states that rule, not an
    index n+1 that was never typed."""
    with pytest.raises(NuisanceInAxiomIndexSet) as exc:
        parse_facts(text, 2, nuisance=True)
    assert str(exc.value) == f"eta-facts range over factors 1..2; {text!r} names eta"


def test_parse_errors():
    for bad in ("C{9}", "X{1}", "C{1", "C{one}", "Ceta{1}", "C{eta}"):
        with pytest.raises((FactParseError, CalculusError)):
            parse_facts(bad, 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["C", "R", "D"]), st.integers(0, 15), st.booleans())
def test_printed_form_round_trips(kind, bits, nuisance):
    n = 4 if not nuisance else 3
    f = Fact(kind, IndexSet(n, bits, nuisance))
    assert parse_facts(str(f), n, nuisance) == [f]
