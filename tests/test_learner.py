import time
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from disentlab import (
    CandidateModel,
    EvaluationTarget,
    Fact,
    IndexSet,
    SupervisionSpec,
    enumerate_matched,
    find_violating_model,
    holds,
    mig,
    plan_supervision,
    random_world,
    uniform_world,
    verify_guarantee,
)
from disentlab import learner
from disentlab.errors import SupportTooLarge
from disentlab.metrics import generator_holds
from disentlab.supervision import MATCH_PAIRING, RANK_PAIRING, RESTRICTED_LABELING
from disentlab.verify import battery_specs, theorem_battery
from reference_tables import (
    GROUP_MASS_EDGE,
    TOLERANCE_EDGE,
    brute_matched,
    reference_match,
    reference_table,
    reference_tables,
)

CAP_BUDGET_S = 0.4  # about 3x the largest time measured at support 8 (0.131 s, two competing processes on 2 CPUs)


def spec(kind, *indices):
    return SupervisionSpec(kind, tuple(indices))


def matched_perms(world, specs):
    return [tuple(int(v) for v in m.perm) for m in enumerate_matched(world, specs)]


def complete_share(n):
    return [spec("share-pairing", i) for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "world", [TOLERANCE_EDGE, GROUP_MASS_EDGE, uniform_world((2, 2))], ids=["tolerance-edge", "group-mass-edge", "uniform22"]
)
def test_vectorised_reference_tables_equal_dictionary_tables(world):
    """The brute-force enumerator's arrays hold the dictionary reference
    tables float.hex for float.hex, on every bijection and for each family
    (labeling, match pairing and rank pairing over every index set), and
    match the same bijections as ``reference_match``."""
    perms = list(permutations(range(world.support_size)))
    specs = battery_specs(world)
    assert {s.validate_for(world)[0] for s in specs} == {RESTRICTED_LABELING, MATCH_PAIRING, RANK_PAIRING}
    for s in specs:
        outcomes, tables = reference_tables(world, perms, s)
        oracle = reference_table(world, s)
        for perm, row in zip(perms, tables.tolist()):
            ref = reference_table(CandidateModel(world, perm), s)
            assert set(ref) <= set(outcomes), (perm, s)
            got = {key: value.hex() for key, value in zip(outcomes, row) if key in ref or value != 0.0}
            assert got == {key: value.hex() for key, value in ref.items()}, (perm, s)
        matched = [p for p in perms if reference_match(reference_table(CandidateModel(world, p), s), oracle)]
        assert brute_matched(world, [s]) == matched, s


@pytest.mark.parametrize("seed", [11, 13])
def test_matched_lists_equal_brute_force_on_battery(seed):
    for world in theorem_battery(support_max=6, seed=seed):
        spec_lists = [[s] for s in battery_specs(world)]
        if world.n >= 2:
            spec_lists.append(complete_share(world.n))
            spec_lists.append([spec("share-pairing", 1), spec("restricted-labeling", 2)])
        for specs in spec_lists:
            assert matched_perms(world, specs) == brute_matched(world, specs), (world, specs)


@pytest.mark.parametrize(
    "world, specs, count",
    [
        (uniform_world((2, 2, 2)), [spec("share-pairing", 1), spec("share-pairing", 2)], 64),
        (TOLERANCE_EDGE, [spec("restricted-labeling", 1)], 8),
        (TOLERANCE_EDGE, [spec("rank-pairing", 1)], 8),
        (TOLERANCE_EDGE, [spec("share-pairing", 1)], 16),
        (GROUP_MASS_EDGE, [spec("share-pairing", 1)], 360),
    ],
)
def test_matched_lists_equal_brute_force_at_edges(world, specs, count):
    perms = matched_perms(world, specs)
    assert len(perms) == count
    assert perms == brute_matched(world, specs)


@pytest.mark.parametrize("chunk", [1, 7, 431, 432])
def test_matched_lists_equal_brute_force_across_leaf_chunks(chunk, monkeypatch):
    """Only the leaf check rejects 72 of the 432 mask survivors of share:1 on
    GROUP_MASS_EDGE; with small chunks they straddle chunk boundaries."""
    specs = [spec("share-pairing", 1)]
    expected = brute_matched(GROUP_MASS_EDGE, specs)
    monkeypatch.setattr(learner, "LEAF_CHUNK", chunk)
    assert matched_perms(GROUP_MASS_EDGE, specs) == expected
    assert learner.matched_perms(GROUP_MASS_EDGE, specs).tolist() == [list(p) for p in expected]


def test_no_supervision_matches_every_bijection(world22):
    assert len(enumerate_matched(world22, [])) == 24


def test_restricted_labeling_matched_count(world22):
    matched = enumerate_matched(world22, [spec("restricted-labeling", 1)])
    assert len(matched) == 4
    # all matched candidates fix the first coordinate of the bijection
    for model in matched:
        assert np.array_equal(model.mapped[:, 0], model.support[:, 0])


def test_complete_share_pairing_matched_set(world22):
    matched = enumerate_matched(world22, [spec("share-pairing", 1), spec("share-pairing", 2)])
    assert len(matched) == 4  # independent per-coordinate relabelings
    for model in matched:
        target = EvaluationTarget.generator_based(model)
        for i in (1, 2):
            assert holds(target, Fact("D", IndexSet.of([i], 2)))


def test_support_cap():
    w = uniform_world((3, 3))
    with pytest.raises(SupportTooLarge):
        enumerate_matched(w, [])


def test_guarantee_reports(world22):
    for s in (
        spec("restricted-labeling", 1),
        spec("share-pairing", 1),
        spec("rank-pairing", 1),
        spec("change-pairing", 1),
    ):
        report = verify_guarantee(world22, s)
        assert report.ok, s
        assert report.matched_count > 0


def test_change_pairing_guarantees_restrictiveness(world22):
    s = spec("change-pairing", 1)
    assert s.guaranteed_index_set(2).members() == (2,)
    for model in enumerate_matched(world22, [s]):
        target = EvaluationTarget.generator_based(model)
        assert holds(target, Fact("R", IndexSet.of([1], 2)))


def test_find_violating_model_returns_xor_witness(world22):
    witness = find_violating_model(
        world22, [spec("restricted-labeling", 1)], Fact("R", IndexSet.of([1], 2))
    )
    assert witness is not None
    rows = world22.rows_of(np.array([[0, 0], [1, 0]]))
    assert witness.mapped[rows[0]].tolist() == [0, 0]
    assert witness.mapped[rows[1]].tolist() != [1, 0]
    violators = [
        m
        for m in enumerate_matched(world22, [spec("restricted-labeling", 1)])
        if not holds(EvaluationTarget.generator_based(m), Fact("R", IndexSet.of([1], 2)))
    ]
    assert len(violators) == 2


def test_find_violating_model_returns_first_brute_force_violator():
    for world in theorem_battery(support_max=4, seed=11):
        for specs, target in (
            ([spec("restricted-labeling", 1)], Fact("R", IndexSet.of([1], world.n))),
            ([spec("share-pairing", 1)], Fact("D", IndexSet.of([1], world.n))),
        ):
            violators = (
                perm
                for perm in brute_matched(world, specs)
                if not holds(EvaluationTarget.generator_based(CandidateModel(world, perm)), target)
            )
            expected = next(violators, None)
            witness = find_violating_model(world, specs, target)
            found = None if witness is None else tuple(int(v) for v in witness.perm)
            assert found == expected, (world, specs, target)


def test_find_violating_model_stops_early(world22, monkeypatch):
    built = []

    class CountingModel(CandidateModel):
        def __init__(self, world, perm):
            built.append(tuple(perm))
            super().__init__(world, perm)

    monkeypatch.setattr(learner, "CandidateModel", CountingModel)
    label1 = [spec("restricted-labeling", 1)]
    witness = find_violating_model(world22, label1, Fact("R", IndexSet.of([1], 2)))
    assert built[-1] == tuple(int(v) for v in witness.perm)
    assert len(built) < len(brute_matched(world22, label1)) == 4


def test_no_violator_under_complete_share(world22):
    shares = [spec("share-pairing", 1), spec("share-pairing", 2)]
    assert find_violating_model(world22, shares, Fact("D", IndexSet.of([1], 2))) is None


def test_matched_set_closed_under_relabeling(world22):
    # composing a matched candidate with a per-coordinate relabeling stays matched
    label1 = [spec("restricted-labeling", 1)]
    matched = enumerate_matched(world22, label1)
    matched_perms = {tuple(int(v) for v in m.perm) for m in matched}
    relabel = CandidateModel.from_map(world22, lambda t: (t[0], 1 - t[1]))
    for m in matched:
        composed = [int(m.perm[relabel.perm[i]]) for i in range(4)]
        assert tuple(composed) in matched_perms


def round_trip(world, model):
    """e* . g . e . g* over the support: g* is the world's ``observe``, e*
    reads each observation id's support row off ``obs_ids``, g is the
    model's ``observe`` and e = phi^-1 . e* reads the latent row off the
    inverse bijection."""
    encode = {int(v): r for r, v in enumerate(world.obs_ids)}

    def encode_rows(ids):
        return np.array([encode[int(v)] for v in ids])

    z = model.support[model.inv_perm[encode_rows(world.observe(world.support))]]
    return world.support[encode_rows(model.observe(z))]


def test_informativeness_of_bijections(world22):
    for perm in permutations(range(world22.support_size)):
        assert np.array_equal(round_trip(world22, CandidateModel(world22, perm)), world22.support)


@pytest.mark.parametrize("seed", range(3))
def test_informativeness_on_scattered_observation_ids(seed):
    """A correlated world whose generator is a random injection, so e* is a
    lookup rather than the row index."""
    world = random_world(seed, 3, [2, 3, 2], 0.5)
    rng = np.random.default_rng(seed)
    assert not np.array_equal(world.obs_ids, np.arange(world.support_size))
    for _ in range(20):
        model = CandidateModel(world, rng.permutation(world.support_size))
        assert np.array_equal(round_trip(world, model), world.support)


def test_matched_report_contents(world22):
    """Complete share pairing leaves the four per-coordinate relabelings,
    each disentangled on both factors with a full information gap."""
    perms = learner.matched_perms(world22, [spec("share-pairing", 1), spec("share-pairing", 2)])
    assert len(perms) == 4
    assert generator_holds(world22, perms, [Fact("D", IndexSet.of([i], 2)) for i in (1, 2)]).all()
    for perm in perms:
        assert mig(EvaluationTarget.generator_based(CandidateModel(world22, perm))).per_factor == (1.0, 1.0)


def test_matched_report_facts_equal_per_model_holds(world22):
    """Row i of the batched single-factor verdicts over the matched set
    equals ``holds`` on the model built from bijection i."""
    perms = learner.matched_perms(world22, [spec("restricted-labeling", 1)])
    assert perms.tolist() == [list(p) for p in matched_perms(world22, [spec("restricted-labeling", 1)])]
    facts = [Fact(k, IndexSet.of([i], 2)) for i in (1, 2) for k in "CRD"]
    verdicts = generator_holds(world22, perms, facts)
    for perm, row in zip(perms, verdicts):
        target = EvaluationTarget.generator_based(CandidateModel(world22, perm))
        assert row.tolist() == [holds(target, f) for f in facts]
    assert (~verdicts[:, facts.index(Fact("R", IndexSet.of([1], 2)))]).sum() == 2


def test_verify_guarantee_at_enumeration_cap():
    """Support 8 is MAX_ENUM_SUPPORT: every battery spec of the uniform
    2x2x2 world (53,041 matched models in all) finishes within the budget."""
    world = uniform_world((2, 2, 2))
    assert world.support_size == learner.MAX_ENUM_SUPPORT
    start = time.perf_counter()
    reports = [verify_guarantee(world, s) for s in battery_specs(world)]
    elapsed = time.perf_counter() - start
    assert all(r.ok for r in reports) and sum(r.matched_count for r in reports) == 53041
    assert elapsed < CAP_BUDGET_S, f"{elapsed:.2f} s at support {world.support_size}"


def vacuous_specs(n):
    """Match pairing over no factor and over every factor, directly and as
    share or change pairing over every factor."""
    every = tuple(range(1, n + 1))
    return [spec("match-pairing"), spec("match-pairing", *every), spec("share-pairing", *every), spec("change-pairing", *every)]


@pytest.mark.parametrize(
    "worlds",
    [lambda: theorem_battery(support_max=7, seed=0), lambda: theorem_battery(support_max=6, seed=11), lambda: [uniform_world((2, 2, 2))]],
    ids=["battery7-seed0", "battery6-seed11", "uniform222"],
)
def test_vacuous_guarantees_equal_listing(worlds):
    """The closed-form report of match pairing over no factor or every
    factor equals the one built from the listed matched set: all m!
    bijections match and every one is consistent on the guaranteed set."""
    for world in worlds():
        for s in vacuous_specs(world.n):
            guaranteed = Fact("C", s.guaranteed_index_set(world.n))
            perms = learner.matched_perms(world, [s])
            ok = generator_holds(world, perms, guaranteed)
            assert len(perms) == factorial(world.support_size) and ok.all(), (world, s)
            listed = learner.GuaranteeReport(s, guaranteed, len(perms), tuple(tuple(p) for p in perms[~ok].tolist()))
            assert verify_guarantee(world, s) == listed, (world, s)


def test_vacuous_guarantee_keeps_support_cap():
    world = uniform_world((3, 3))
    for s in vacuous_specs(world.n):
        with pytest.raises(SupportTooLarge) as listed:
            learner.matched_perms(world, [s])
        with pytest.raises(SupportTooLarge) as closed:
            verify_guarantee(world, s)
        assert str(closed.value) == str(listed.value)


def test_every_plan_entails_its_goal_on_the_matched_set():
    """The planner's promise, checked against the learner: every model
    that matches all specs of a returned plan satisfies the plan's goal,
    for every C/R/D goal over every nonempty set on the battery worlds."""
    plans = 0
    for world in theorem_battery(support_max=6):
        n = world.n
        if n < 2:
            continue
        specs = battery_specs(world)
        for kind in ("C", "R", "D"):
            for bits in range(1, 1 << n):
                goal = Fact(kind, IndexSet(n, bits))
                for plan in plan_supervision(n, [goal], specs, 2):
                    perms = learner.matched_perms(world, list(plan))
                    assert len(perms), (world, plan)
                    assert generator_holds(world, perms, goal).all(), (world, goal, plan)
                    plans += 1
    assert plans > 0
