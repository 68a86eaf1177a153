import dataclasses
import hashlib
import json
import time
from itertools import permutations

import numpy as np
import pytest
from click.testing import CliRunner

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
from disentlab.calculus import parse_facts
from disentlab.cli import main
from disentlab.errors import ArityMismatch, MetricError, SupportTooLarge
from disentlab.learner import GuaranteeReport
from disentlab.metrics import EXACT_TOL, MatchCheckResult, MigReport
from disentlab.worlds import DEFAULT_SUPPORT_CAP
from reference_calculus import reference_closure, reference_zigzag_guard

# Captured before the sweep's world construction, truth table and trial
# draws were rewritten to make fewer numpy calls: the pins hold them to the
# same bytes.
SWEEP_CASES_DIGEST = "3cda1a9b69737354"
SWEEP_REPORT_FACTS = [1654, 1588, 1538, 1540, 1528]
SWEEP_REPORTS_DIGEST = "b99bfe1546b44429"

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


def test_brute_support_cap():
    """Above BRUTE_SUPPORT_CAP the oracle refuses before it reads the model,
    so before any of its loops."""
    world = uniform_world((2,) * 11)
    assert world.support_size == 2 * verify.BRUTE_SUPPORT_CAP
    with pytest.raises(SupportTooLarge, match="support 2048 exceeds the brute-force cap 1024"):
        check_fact_brute(world, None, Fact("C", IndexSet.of([1], 11)))


def test_brute_support_cap_is_inclusive(world22, monkeypatch):
    monkeypatch.setattr(verify, "BRUTE_SUPPORT_CAP", world22.support_size)
    assert check_fact_brute(world22, CandidateModel.identity(world22), Fact("C", IndexSet.of([1], 2)))
    world = uniform_world((2, 3))
    with pytest.raises(SupportTooLarge):
        check_fact_brute(world, CandidateModel.identity(world), Fact("C", IndexSet.of([1], 2)))


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


# -- negative controls: each check is seen to fail ---------------------------------------------


def _allow_every_intersection(monkeypatch):
    monkeypatch.setattr(verify, "zigzag_guard", lambda support: lambda rule, I, J: True)


def test_sweep_without_the_guard_reports_rebuildable_violations(monkeypatch):
    """With a guard that allows every intersection, 19 of the 1,000 trials
    of seed 0 derive 38 false facts.  Each record rebuilds through
    ``_sweep_case`` (its bijection and axioms), and the brute-force oracle
    finds its fact false there."""
    _allow_every_intersection(monkeypatch)
    report = verify.soundness_sweep(seed=0, trials=1000)
    assert not report.passed and len(report.violations) == 38
    assert len({v["trial_seed"] for v in report.violations}) == 19
    for v in report.violations:
        world, perm, truths, axioms = verify._sweep_case(v["trial_seed"])
        assert perm.tolist() == v["perm"] and [str(a) for a in axioms] == v["axioms"]
        (fact,) = parse_facts(v["fact"], world.n)
        assert not set(fact.atoms()) <= truths
        assert not check_fact_brute(world, CandidateModel(world, perm), fact), v


def test_cli_sweep_without_the_guard_exits_one(monkeypatch):
    """Trial 38 of seed 0 is the first to derive false facts (two)."""
    _allow_every_intersection(monkeypatch)
    res = CliRunner().invoke(main, ["verify", "--sweep", "--seed", "0", "--trials", "50"])
    assert res.exit_code == 1, res.output
    assert res.output.splitlines() == ["sweep: 50 trials, 298 facts, 2 violations"]


def _statuses(report) -> dict[str, str]:
    return {c.name: c.status for c in report.checks}


def _theorem_checks_failing(report) -> list[str]:
    return [name for name, status in _statuses(report).items() if status == "fail"]


def test_guarantee_report_with_a_violating_bijection_is_not_ok():
    spec = verify.SupervisionSpec("share-pairing", (1,))
    fact = Fact("C", IndexSet.of([1], 2))
    assert GuaranteeReport(spec, fact, 2, ()).ok
    assert not GuaranteeReport(spec, fact, 2, ((1, 0),)).ok
    assert not GuaranteeReport(spec, fact, 0, ()).ok


def test_universality_names_a_violated_case(monkeypatch):
    """The first case made to violate fails universality, and the detail names
    that case and no other."""
    real, calls = verify.verify_guarantee, []

    def first_violates(world, spec):
        res = real(world, spec)
        calls.append(f"{world!r} {spec.to_string()}")
        if len(calls) > 1:
            return res
        return dataclasses.replace(res, violating_perms=(tuple(range(world.support_size))[::-1],))

    monkeypatch.setattr(verify, "verify_guarantee", first_violates)
    report = verify.verify_theorem_guarantees(support_max=4)
    assert _theorem_checks_failing(report) == ["theorem-guarantee-universality"]
    assert calls[0] == "DiscreteWorld(cards=(2,), support=2) label:1"
    assert report.checks[0].detail == f"{len(calls)} (world, supervision) cases; failures: {calls[:1]}"


def _patch_mig(monkeypatch, gap):
    real = verify.mig
    monkeypatch.setattr(verify, "mig", lambda target: dataclasses.replace(
        real(target), per_factor=tuple(gap(g) for g in real(target).per_factor)))


def test_share_gap_below_one_fails(monkeypatch):
    _patch_mig(monkeypatch, lambda g: min(g, float(np.nextafter(1.0, 0.0))))
    report = verify.verify_theorem_guarantees(support_max=4)
    assert _theorem_checks_failing(report) == ["complete-share-perfect-information-gap"]


def test_gap_that_never_collapses_fails(monkeypatch):
    _patch_mig(monkeypatch, lambda g: max(g, 2.0**-52))
    report = verify.verify_theorem_guarantees(support_max=4)
    assert _theorem_checks_failing(report) == ["unsupervised-information-gap-collapse"]


def _flip_first_verdict(monkeypatch):
    """``generator_holds`` as ``verify`` looks it up, with the verdicts of
    the first bijection negated."""
    real = verify.generator_holds

    def flipped(world, perms, facts):
        out = real(world, perms, facts).copy()
        out[0] = ~out[0]
        return out

    monkeypatch.setattr(verify, "generator_holds", flipped)


def test_flipped_verdict_fails_the_impossibility_and_nuisance_checks(monkeypatch):
    _flip_first_verdict(monkeypatch)
    report = verify.verify_theorem_guarantees(support_max=4)
    failing = _theorem_checks_failing(report)
    assert failing == ["impossibility-witness-counts", "nuisance-matched-set-eta-disentangled"]
    nuisance = check_nuisance_guarantee(uniform_world((2, 2)), supervised=1)
    assert _statuses(nuisance)["nuisance-matched-set-eta-disentangled"] == "fail"


def test_cli_theorems_with_a_flipped_verdict_exits_one(monkeypatch):
    _flip_first_verdict(monkeypatch)
    res = CliRunner().invoke(main, ["verify", "--theorems", "--support-max", "4"])
    assert res.exit_code == 1, res.output
    assert "[FAIL] impossibility-witness-counts" in res.output and res.output.endswith("overall: FAIL\n")


# -- pins of the sweep's worlds, truths and reports ---------------------------------------------


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()[:16]


def _case_parts(trial_seed):
    world, perm, truths, axioms = verify._sweep_case(trial_seed)
    yield world.to_doc()
    for arr in (world.prior, world.gen, world.support, world.support_probs, world.obs_ids, world._row, perm):
        yield [arr.dtype.str, arr.shape, arr.flags.c_contiguous, arr.flags.writeable]
        yield arr.tobytes()
    yield [sorted(truths), [str(a) for a in axioms]]


def test_sweep_cases_are_pinned():
    """Everything ``_sweep_case`` returns on 2,000 trial seeds, as bytes: the
    world's document, its arrays with dtype, shape and flags, the
    bijection, the sorted truths and the axioms."""
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(29).spawn(2000)]
    assert _digest(part for s in seeds for part in _case_parts(s)) == SWEEP_CASES_DIGEST


def test_sweep_reports_are_pinned():
    docs = [soundness_sweep(seed=s, trials=300).to_dict() for s in range(5)]
    assert [d["facts_checked"] for d in docs] == SWEEP_REPORT_FACTS
    assert _digest(docs) == SWEEP_REPORTS_DIGEST
