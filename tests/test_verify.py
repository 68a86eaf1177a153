import json
import time
from itertools import permutations

import numpy as np
import pytest

from disentlab import (
    CandidateModel,
    DiscreteWorld,
    EvaluationTarget,
    Fact,
    IndexSet,
    check_assumptions,
    check_fact_brute,
    check_nuisance_guarantee,
    closure,
    exhaustive_bijection_sweep,
    holds,
    random_world,
    raw_consistency,
    run_counterexample_suite,
    schematic_world,
    soundness_sweep,
    uniform_world,
    zigzag_guard,
)
from disentlab import verify
from disentlab.errors import ArityMismatch, MetricError, SupportTooLarge
from disentlab.metrics import EXACT_TOL, MatchCheckResult, MigReport
from disentlab.worlds import DEFAULT_SUPPORT_CAP
from reference_calculus import reference_closure, reference_zigzag_guard

ASSUMPTIONS_BUDGET_S = 2.4  # about 3x the time measured at DEFAULT_SUPPORT_CAP (0.68-0.80 s, 2 CPUs)


def test_brute_identity_consistent(world22):
    model = CandidateModel.identity(world22)
    assert check_fact_brute(world22, model, Fact("C", IndexSet.of([1], 2)))


def test_brute_schematic_restrictiveness_fails():
    world, model = schematic_world("consistent-not-restrictive")
    assert not check_fact_brute(world, model, Fact("R", IndexSet.of([1], 2)))
    assert check_fact_brute(world, model, Fact("C", IndexSet.of([1], 2)))
    assert not check_fact_brute(world, model, Fact("D", IndexSet.of([1], 2)))


def test_brute_agrees_with_metrics_on_random_triples():
    rng = np.random.default_rng(42)
    agree = 0
    total = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        cards = [int(rng.integers(2, 4)) for _ in range(n)]
        world = random_world(int(rng.integers(2**31)), n, cards, float(rng.uniform(0, 1)))
        model = CandidateModel(world, rng.permutation(world.support_size))
        target = EvaluationTarget.generator_based(model)
        kind = ("C", "R", "D")[int(rng.integers(3))]
        fact = Fact(kind, IndexSet(n, int(rng.integers(1 << n))))
        total += 1
        if check_fact_brute(world, model, fact) == holds(target, fact):
            agree += 1
    assert agree == total


# -- sweeps ------------------------------------------------------------------------------


def test_soundness_sweep_small():
    report = soundness_sweep(seed=0, trials=150)
    assert report.passed
    assert report.facts_checked > 0


def test_soundness_sweep_zero_trials_trivially_green():
    report = soundness_sweep(seed=0, trials=0)
    assert report.passed and report.trials == 0 and report.facts_checked == 0


def test_exhaustive_bijections_of_uniform22_sound():
    report = exhaustive_bijection_sweep(uniform_world((2, 2)))
    assert report.passed


def test_exhaustive_bijection_sweep_support_cap():
    """Support 9 is above MAX_ENUM_SUPPORT: refused before its 9! bijections
    are listed."""
    start = time.perf_counter()
    with pytest.raises(SupportTooLarge):
        exhaustive_bijection_sweep(uniform_world((3, 3)))
    assert time.perf_counter() - start < 0.5


def test_unguarded_closure_catches_zigzag_violation():
    world, model = schematic_world("zigzag-violation")
    target = EvaluationTarget.generator_based(model)
    n = world.n
    truths = {
        (k, bits)
        for bits in range(1 << n)
        for k in ("C", "R")
        if holds(target, Fact(k, IndexSet(n, bits)))
    }
    axioms = [Fact(k, IndexSet(n, b)) for k, b in sorted(truths)]
    unguarded = closure(axioms, n)
    assert any(atom not in truths for atom in unguarded.atoms)  # union rule misfires
    guarded = closure(axioms, n, guard=zigzag_guard(model.support))
    assert all(atom in truths for atom in guarded.atoms)


def _guarded_pair(axioms, n, support):
    guarded = closure(axioms, n, guard=zigzag_guard(support))
    reference = reference_closure(axioms, n, guard=reference_zigzag_guard(support))
    return guarded.atoms, reference.atoms


def test_guarded_closure_equals_reference_on_sweep_trials():
    """The int saturation with the memoised bit-pair guard derives the same
    atoms as the IndexSet saturation on 2,000 soundness-sweep trials."""
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(17).spawn(2000)]
    for trial_seed in seeds:
        world, _, _, axioms = verify._sweep_case(trial_seed)
        got, expected = _guarded_pair(axioms, world.n, world.support)
        assert got == expected, trial_seed


def test_true_atoms_equal_per_set_reading_on_sweep_trials():
    """The one verdict call of ``_true_atoms`` over all 2^n index sets reads
    the same atoms as one ``raw_consistency`` call per set on 2,000 trials."""
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(23).spawn(2000)]
    for trial_seed in seeds:
        world, perm, truths, _ = verify._sweep_case(trial_seed)
        n = world.n
        target = EvaluationTarget.generator_based(CandidateModel(world, perm))
        zero = [raw_consistency(target, IndexSet(n, bits)) <= EXACT_TOL for bits in range(1 << n)]
        full = (1 << n) - 1
        expected = {("C", b) for b in range(1 << n) if zero[b]} | {("R", b) for b in range(1 << n) if zero[full ^ b]}
        assert truths == expected, trial_seed


def test_guarded_closure_equals_reference_on_every_bijection_of_uniform22():
    world = uniform_world((2, 2))
    for perm in permutations(range(world.support_size)):
        model = CandidateModel(world, perm)
        truths = verify._true_atoms(world, [perm])[0]
        axioms = [Fact(k, IndexSet(world.n, b)) for k, b in sorted(truths)]
        got, expected = _guarded_pair(axioms, world.n, model.support)
        assert got == expected, perm


def test_guarded_closure_equals_reference_at_n4():
    """Beyond the sweep's n <= 3: 100 random sparse supports of four binary
    factors, axioms all true atoms or a random half of them.  The guard
    changes the closure in some trials, so the comparison covers
    suppressed intersections."""
    bitten = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        rows = rng.choice(16, size=int(rng.integers(4, 11)), replace=False)
        prior, gen = np.zeros((2,) * 4), np.full((2,) * 4, -1)
        prior.flat[rows] = 1.0 / len(rows)
        gen.flat[rows] = rng.permutation(len(rows))
        world = DiscreteWorld((2,) * 4, prior, gen)
        model = CandidateModel(world, rng.permutation(world.support_size))
        truths = verify._true_atoms(world, [model.perm])[0]
        axioms = [Fact(k, IndexSet(4, b)) for k, b in sorted(truths) if seed % 2 or rng.random() < 0.5]
        got, expected = _guarded_pair(axioms, 4, model.support)
        assert got == expected, seed
        bitten += closure(axioms, 4).atoms != got
    assert bitten > 0


# -- named counterexamples -----------------------------------------------------------------


def test_counterexample_suite_passes():
    report = run_counterexample_suite(seed=0, samples=30000)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "consistent-not-restrictive",
        "restrictive-not-consistent",
        "rotation-distribution-match",
        "rotation-consistent-unrestricted",
        "zigzag-violation",
    ]


def test_counterexample_suite_rejects_zero_samples():
    with pytest.raises(MetricError, match="Monte-Carlo mode needs at least one sample, got 0"):
        run_counterexample_suite(seed=0, samples=0)


def test_report_serialization():
    report = run_counterexample_suite(seed=0, samples=20000)
    doc = report.to_dict()
    assert doc["passed"] is True and len(doc["checks"]) == 5
    text = report.to_text()
    assert "overall: PASS" in text


def test_report_documents_match_their_field_lists():
    """Each report's document, keys in order, as the hand-written field
    lists of the serializers it replaced wrote it."""
    checks = verify.VerificationReport()
    checks.add("consistent-not-restrictive", True, 0.0)
    checks.add("rotation-consistent-unrestricted", False, -12.5, "score below threshold", 0)
    sweep = verify.SweepReport(2, 10, [{"trial_seed": 5, "fact": "C{1}", "axioms": ["R{2}"], "perm": [1, 0]}], 4)
    cases = [
        (MigReport((0.5, 0.25), 0.375, "mc", 4000),
         {"per_factor": [0.5, 0.25], "mean": 0.375, "mode": "mc", "samples": 4000}),
        (MatchCheckResult(False, 0.0125, 0.0031, 0.0, 2000, 7),
         {"passed": False, "statistic": 0.0125, "threshold": 0.0031, "p_value": 0.0, "samples": 2000, "seed": 7}),
        (verify.VerifyCheck("rotation-distribution-match", "pass", 0.5, "p=0.42", 3),
         {"name": "rotation-distribution-match", "status": "pass", "statistic": 0.5, "detail": "p=0.42", "seed": 3}),
        (sweep,
         {"trials": 2, "facts_checked": 10,
          "violations": [{"trial_seed": 5, "fact": "C{1}", "axioms": ["R{2}"], "perm": [1, 0]}],
          "seed": 4, "passed": False}),
        (checks,
         {"passed": False, "checks": [
             {"name": "consistent-not-restrictive", "status": "pass", "statistic": 0.0, "detail": "",
              "seed": None},
             {"name": "rotation-consistent-unrestricted", "status": "fail", "statistic": -12.5,
              "detail": "score below threshold", "seed": 0}]}),
    ]
    for report, expected in cases:
        doc = report.to_dict()
        assert doc == expected and list(doc) == list(expected), type(report).__name__
        assert json.loads(json.dumps(doc)) == expected


# -- assumption reports ------------------------------------------------------------------------


def test_assumptions_full_grid_world():
    assert check_assumptions(uniform_world((2, 3))) == []


def test_assumptions_zigzag_violation_world():
    world, _ = schematic_world("zigzag-violation")
    assert ((1,), (2,)) in check_assumptions(world)


def test_assumptions_at_default_support_cap():
    """The uniform 2^12 world has DEFAULT_SUPPORT_CAP rows and 78 index sets
    of size at most 2: 3,081 zig-zag checks over 4,096 rows."""
    world = uniform_world((2,) * 12)
    assert world.support_size == DEFAULT_SUPPORT_CAP
    start = time.perf_counter()
    failures = check_assumptions(world)
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < ASSUMPTIONS_BUDGET_S, f"{elapsed:.2f} s at support {world.support_size}"


# -- nuisance ---------------------------------------------------------------------------------


def test_nuisance_guarantee_small_world():
    report = check_nuisance_guarantee(uniform_world((2, 2)), supervised=1)
    assert report.passed


def test_nuisance_guarantee_requires_all_but_last():
    with pytest.raises(ArityMismatch):
        check_nuisance_guarantee(uniform_world((2, 2)), supervised=2)
