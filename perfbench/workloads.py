"""The three benchmark workloads: inputs made from a seed, the ops that call
the public API of ``disentlab``, and each op's oracle check.

A workload is one cycle of ops; the runner repeats the cycle.  Every op
reads the library function from its module at call time, so the traced
run sees the wrappers that ``tracer.instrument`` installs.

Why these three (each stresses layers the others leave alone):

- theorems: exhaustive matched-set enumeration, exact augmented tables,
  candidate construction and exact ``holds`` (learner, supervision, worlds).
- sweep: the calculus both ways: many tiny guarded closures at n <= 3 plus
  exact ``holds`` over all 2^n sets on random worlds, shuffled with calc
  ops, i.e. unguarded saturation at n = 6..9 behind the ``calc`` CLI and
  exhaustive supervision planning (calculus, cli).
- sampling: Monte-Carlo scores with bootstrap error bars, two-sample match
  checks and dataset write/read round trips (metrics, continuous,
  supervision samplers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial, prod
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

from disentlab import calculus, cli, continuous, learner, metrics, supervision, verify, worlds
from disentlab.calculus import Fact
from disentlab.indexset import IndexSet
from disentlab.metrics import EvaluationTarget
from disentlab.supervision import SupervisionSpec

import oracles
from oracles import expect


@dataclass
class Op:
    """One closed-loop operation: ``call`` runs it, ``check`` raises
    ``oracles.Mismatch`` if its output is wrong."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    ops: list[Op] = field(default_factory=list)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _memo(fn):
    """Run an expensive oracle computation once per op, on first check."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def _bits(members, n: int) -> int:
    return IndexSet.of(members, n).bits


def _fact_text(kind: str, bits: int, n: int) -> str:
    return f"{kind}{IndexSet(n, bits)}"


# -- theorems ---------------------------------------------------------------------------

THEOREMS = {"support_max": 6, "nuisance_cards": (2, 2, 2), "deep_checks": 12, "brute_models": 3}


def build_theorems(seed: int, tmpdir: Path, **overrides) -> Workload:
    p = {**THEOREMS, **overrides}
    rng = _rng(seed)
    wl = Workload("theorems", seed, p)
    battery = verify.theorem_battery(p["support_max"], int(rng.integers(2**31)))
    cases = [(w, spec) for w in battery for spec in verify.battery_specs(w)]
    deep = set(rng.choice(len(cases), size=min(p["deep_checks"], len(cases)), replace=False).tolist())
    for idx, (w, spec) in enumerate(cases):
        wl.ops.append(_guarantee_op(w, spec, idx in deep, p["brute_models"], int(rng.integers(2**31))))

    w22 = worlds.uniform_world((2, 2))
    wl.ops.append(_impossibility_op(w22))
    share_worlds = [
        w for w in battery
        if w.n >= 2 and w.support_size == prod(w.cards) and np.ptp(w.support_probs) == 0
    ]
    wl.ops.append(_share_gap_op(share_worlds))
    wl.ops.append(_unsupervised_gap_op(w22))
    wl.ops.append(_nuisance_op(worlds.uniform_world(p["nuisance_cards"])))
    wl.ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    return wl


def _guarantee_op(w, spec: SupervisionSpec, deep: bool, brute_models: int, check_seed: int) -> Op:
    guaranteed = Fact("C", spec.guaranteed_index_set(w.n))
    labeling = spec.kind == supervision.RESTRICTED_LABELING
    cols = guaranteed.index_set.cols()
    expected_count = oracles.labeling_matched_count(w.support, cols) if labeling else None

    @_memo
    def brute():
        """Matched-set size (None: not recomputed) and brute verdicts on a
        seeded sample of matched models."""
        rng = np.random.default_rng(check_seed)
        if labeling:
            perms = [oracles.within_class_perm(w.support, cols, rng) for _ in range(brute_models)]
            count = None
        else:
            matched = learner.enumerate_matched(w, [spec])
            picks = rng.choice(len(matched), size=min(brute_models, len(matched)), replace=False)
            perms = [matched[i].perm for i in picks]
            count = len(matched)
        verdicts = [verify.check_fact_brute(w, worlds.CandidateModel(w, perm), guaranteed) for perm in perms]
        return count, verdicts

    def check(rep):
        expect(rep.spec == spec and rep.guaranteed == guaranteed, f"report for {rep.spec} / {rep.guaranteed}")
        expect(rep.ok, f"{w!r} {spec.to_string()}: guarantee not ok ({rep.matched_count} matched)")
        if expected_count is not None:
            expect(rep.matched_count == expected_count,
                   f"{w!r} {spec.to_string()}: {rep.matched_count} matched, labeling classes give {expected_count}")
        if deep:
            count, verdicts = brute()
            expect(count is None or count == rep.matched_count, f"re-enumeration found {count} matched")
            expect(all(verdicts), f"{w!r} {spec.to_string()}: brute oracle rejects {guaranteed} on a matched model")

    return Op("op.verify_guarantee", lambda: learner.verify_guarantee(w, spec), check)


def _impossibility_op(w22) -> Op:
    label1 = SupervisionSpec(supervision.RESTRICTED_LABELING, (1,))
    r1 = Fact("R", IndexSet.of([1], 2))

    def call():
        matched = learner.enumerate_matched(w22, [label1])
        violators = [m for m in matched if not metrics.holds(EvaluationTarget.generator_based(m), r1)]
        witness = learner.find_violating_model(w22, [label1], r1)
        perms = [tuple(int(v) for v in m.perm) for m in matched]
        return perms, [tuple(int(v) for v in m.perm) for m in violators], witness

    def check(out):
        matched, violators, witness = out
        expect(len(matched) == 4 and len(violators) == 2, f"{len(matched)} matched, {len(violators)} violators")
        expect(witness is not None, "no violating witness")
        for perm in matched:
            restrictive = verify.check_fact_brute(w22, worlds.CandidateModel(w22, perm), r1)
            expect(restrictive == (perm not in violators), f"perm {perm}: brute R{{1}} is {restrictive}")
        expect(not verify.check_fact_brute(w22, witness, r1), "witness satisfies R{1}")

    return Op("op.impossibility", call, check)


def _share_gap_op(share_worlds) -> Op:
    def call():
        out = []
        for w in share_worlds:
            specs = [SupervisionSpec(supervision.SHARE_PAIRING, (i,)) for i in range(1, w.n + 1)]
            for model in learner.enumerate_matched(w, specs):
                gaps = metrics.mig(EvaluationTarget.generator_based(model)).per_factor
                out.append((w, tuple(int(v) for v in model.perm), gaps))
        return out

    def check(out):
        expect(len(out) > 0, "no matched candidates under complete share pairing")
        for w in share_worlds:
            count = sum(1 for ow, _, _ in out if ow is w)
            expect(count == prod(factorial(k) for k in w.cards), f"{w!r}: {count} matched under complete share")
        for w, perm, gaps in out:
            expect(all(g == 1.0 for g in gaps), f"{w!r} perm {perm}: information gaps {gaps}")
            model = worlds.CandidateModel(w, perm)
            expect(
                all(verify.check_fact_brute(w, model, Fact("D", IndexSet.of([i], w.n))) for i in range(1, w.n + 1)),
                f"{w!r} perm {perm}: not fully disentangled by brute force",
            )

    return Op("op.share_gap", call, check)


def _unsupervised_gap_op(w22) -> Op:
    def call():
        return [
            min(metrics.mig(EvaluationTarget.generator_based(m)).per_factor)
            for m in learner.enumerate_matched(w22, [])
        ]

    def check(gaps):
        expect(len(gaps) == factorial(w22.support_size), f"{len(gaps)} unsupervised matches")
        expect(all(0.0 <= g <= 1.0 for g in gaps), f"gaps outside [0, 1]: {gaps}")
        expect(min(gaps) == 0.0, "no collapsed information gap among unsupervised matches")

    return Op("op.unsupervised_gap", call, check)


def _nuisance_op(world) -> Op:
    def check(report):
        names = [c.name for c in report.checks]
        expect(names == ["nuisance-closure-derives-eta-disentanglement", "nuisance-matched-set-eta-disentangled"],
               f"checks {names}")
        expect(report.passed, report.to_text())
        expect(report.checks[1].statistic > 0, "empty matched set")

    return Op("op.nuisance", lambda: verify.check_nuisance_guarantee(world, supervised=world.n - 1), check)


# -- sweep -----------------------------------------------------------------------------------

SWEEP = {"trials": 2500}
# soundness_sweep's defaults, which every op uses.
SWEEP_N_MAX, SWEEP_CARD_MAX = 3, 3


def build_sweep(seed: int, tmpdir: Path, **overrides) -> Workload:
    """Guarded soundness trials, shuffled together with the calc ops: the
    calculus used both ways, many tiny guarded closures and a few large
    unguarded ones behind the CLI."""
    p = {**SWEEP, **CALC, **overrides}
    rng = _rng(seed)
    wl = Workload("sweep", seed, p)
    for s in np.random.SeedSequence(seed).generate_state(p["trials"]).tolist():
        wl.ops.append(_sweep_op(int(s)))
    wl.ops.extend(_calc_ops(rng, p))
    wl.ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    return wl


def _sweep_bounds(sweep_seed: int) -> tuple[int, int]:
    """Lower and upper bound on facts_checked of ``soundness_sweep(seed, 1)``.

    Rebuilds the trial's world, model and axioms from its seed in the order
    the trial draws them, with truth decided by ``oracles.true_atoms``:
    the closure holds at least the axioms and the four trivial atoms, and
    a sound closure holds no atom that is not true.
    """
    trial_seed = int(np.random.SeedSequence(sweep_seed).spawn(1)[0].generate_state(1)[0])
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(1, SWEEP_N_MAX + 1))
    cards = [int(rng.integers(2, SWEEP_CARD_MAX + 1)) for _ in range(n)]
    corr = float(rng.choice([0.0, float(rng.uniform(0.0, 1.0)), 1.0]))
    world = worlds.random_world(int(rng.integers(2**31)), n, cards, corr)
    model = worlds.CandidateModel(world, rng.permutation(world.support_size))
    truths = oracles.true_atoms(model.support, model.probs, model.mapped, n)
    axioms = {atom for atom in sorted(truths) if rng.random() < 0.5}
    full = (1 << n) - 1
    trivial = {("C", 0), ("R", 0), ("C", full), ("R", full)}
    return len(axioms | trivial), len(truths)


def _sweep_op(s: int) -> Op:
    bounds = _memo(lambda: _sweep_bounds(s))

    def check(rep):
        expect(rep.trials == 1 and rep.seed == s, f"report for seed {rep.seed}, {rep.trials} trials")
        expect(not rep.violations, f"seed {s}: unsound derivations {rep.violations}")
        lo, hi = bounds()
        expect(lo <= rep.facts_checked <= hi, f"seed {s}: {rep.facts_checked} facts, expected {lo}..{hi}")

    return Op("op.sweep_trial", lambda: verify.soundness_sweep(seed=s, trials=1), check)


# -- calc ops (part of the sweep workload) ------------------------------------------------------

CALC = {
    "n_values": (6, 7, 8, 9),
    "sparse_per_n": 24,
    "dense_span": 4,
    "plans": 4,
    "plan_n": 6,
    "plan_candidates": 12,
    "plan_budget": 3,
}


def _calc_ops(rng, p: dict) -> list[Op]:
    """Sparse random C/R axiom sets, dense singleton-C axiom sets with the
    last ``dense_span`` sizes up to n (saturation cost grows about 4x per
    singleton), and a few supervision plans that need the full budget."""
    ops = []
    runner = CliRunner()
    for n in p["n_values"]:
        for _ in range(p["sparse_per_n"]):
            axioms = []
            for _ in range(int(rng.integers(2, 6))):
                members = [i for i in range(1, n + 1) if rng.random() < 0.35] or [int(rng.integers(1, n + 1))]
                axioms.append(("C" if rng.random() < 0.5 else "R", _bits(members, n)))
            ops.append(_calc_op(runner, n, axioms, rng))
        for k in range(max(1, n - p["dense_span"] + 1), n + 1):
            members = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
            ops.append(_calc_op(runner, n, [("C", _bits([i], n)) for i in members], rng))
    for _ in range(p["plans"]):
        ops.append(_plan_op(p["plan_n"], p["plan_candidates"], p["plan_budget"], rng))
    return ops


def _calc_op(runner: CliRunner, n: int, axioms: list[tuple[str, int]], rng) -> Op:
    family = oracles.saturate(n, [b for k, b in axioms if k == "C"], [b for k, b in axioms if k == "R"])
    full = (1 << n) - 1
    if rng.random() < 0.5:  # a derivable fact, so half the queries come out YES
        bits = int(rng.choice(sorted(family)))
        query = [("C", bits)] if rng.random() < 0.5 else [("R", full ^ bits)]
    else:
        query = [(str(rng.choice(["C", "R", "D"])), int(rng.integers(1, full + 1)))]
    verdict = all(oracles.holds_in(family, n, kind, bits) for kind, bits in query)
    args = [
        "calc", "--n", str(n),
        "--axioms", " & ".join(_fact_text(k, b, n) for k, b in axioms),
        "--query", " & ".join(_fact_text(k, b, n) for k, b in query),
        "--format", "json",
    ]
    heads = [f"{_fact_text(k, b, n)} <= " for kind, bits in query for k, b in Fact(kind, IndexSet(n, bits)).atoms()]

    def call():
        result = runner.invoke(cli.main, args)
        return result.exit_code, result.output

    def check(out):
        code, text = out
        expect(code == 0, f"calc {args}: exit {code}: {text[-200:]}")
        doc = json.loads(text)
        expect(doc["entailed"] == verdict, f"calc {args}: entailed={doc['entailed']}, saturation says {verdict}")
        if verdict:
            for head in heads:
                expect(any(line.startswith(head) for line in doc["trace"]), f"calc {args}: no trace line for {head}")
        else:
            expect(doc["trace"] == [], f"calc {args}: trace on a NO answer")

    return Op("op.calc", call, check)


def _plan_op(n: int, count: int, budget: int, rng) -> Op:
    """Distinct share/label candidates and a two-atom goal whose smallest
    plan uses the whole budget, so every plan op costs the same search."""
    full = (1 << n) - 1
    cand_specs: list[SupervisionSpec] = []
    while len(cand_specs) < count:
        if rng.random() < 0.4:
            spec = SupervisionSpec(supervision.SHARE_PAIRING, (int(rng.integers(1, n + 1)),))
        else:
            size = int(rng.integers(1, 4))
            spec = SupervisionSpec(supervision.RESTRICTED_LABELING, rng.choice(np.arange(1, n + 1), size, replace=False).tolist())
        if spec not in cand_specs:
            cand_specs.append(spec)
    sets = [spec.guaranteed_index_set(n).bits for spec in cand_specs]
    families = oracles.plan_families(n, sets, budget)
    for _ in range(200):
        picks = tuple(sorted(rng.choice(count, size=budget, replace=False).tolist()))
        derivable = sorted(families[picks] - {0, full})
        atoms = [("C", b) for b in derivable] + [("R", full ^ b) for b in derivable]
        goal = [atoms[i] for i in rng.choice(len(atoms), size=min(2, len(atoms)), replace=False)]
        expected = oracles.minimal_plans(families, n, goal)
        if len(expected[0]) == budget:
            break
    goal_facts = [Fact(kind, IndexSet(n, bits)) for kind, bits in goal]
    position = {spec: i for i, spec in enumerate(cand_specs)}

    def check(plans):
        got = sorted(tuple(sorted(position[s] for s in plan)) for plan in plans)
        expect(got == expected, f"plans {got}, saturation finds {expected}")

    return Op("op.plan", lambda: calculus.plan_supervision(n, goal_facts, cand_specs, budget), check)


# -- sampling ----------------------------------------------------------------------------------

SAMPLING = {
    "records": 2000,
    "mc_samples": 10000,
    "mc_candidates": 6,
    "match_samples": 20000,
    "suite_samples": 50000,
}
# (spec, whether the rotation candidate matches the oracle on it)
MATCH_SPECS = [("label:1", True), ("share:1", True), ("label:2", False), ("share:2", False)]
DATASET_SPECS = ["share:1", "label:1,2", "rank:2"]
# run_counterexample_suite's checks; the two-sample test is a statistical
# verdict at level 0.01, the others are exact or far from their thresholds.
SUITE_CHECKS = [
    "consistent-not-restrictive",
    "restrictive-not-consistent",
    "rotation-distribution-match",
    "rotation-consistent-unrestricted",
    "zigzag-violation",
]


def build_sampling(seed: int, tmpdir: Path, **overrides) -> Workload:
    p = {**SAMPLING, **overrides}
    rng = _rng(seed)
    wl = Workload("sampling", seed, p)
    oracle, rotation = continuous.rotation_world()

    def random_candidate():
        cards = tuple(int(k) for k in rng.integers(2, 4, size=3))
        w = worlds.random_world(int(rng.integers(2**31)), 3, cards, float(rng.choice([0.0, 0.5])))
        return w, worlds.CandidateModel(w, rng.permutation(w.support_size))

    for _ in range(p["mc_candidates"]):
        _, model = random_candidate()
        members = [i for i in (1, 2, 3) if rng.random() < 0.5] or [int(rng.integers(1, 4))]
        if len(members) == 3:
            members = members[:2]
        I = IndexSet.of(members, 3)
        for kind in ("consistency", "restrictiveness"):
            wl.ops.append(_discrete_mc_op(model, I, kind, p["mc_samples"], int(rng.integers(2**31))))
    # The counterexample suite's thresholds: consistent on {1}, yet unrestricted.
    I1 = IndexSet.of([1], 3)
    for kind, lo, hi in (("consistency", 0.99, np.inf), ("restrictiveness", -np.inf, 0.6)):
        wl.ops.append(_mc_score_op(rotation, I1, kind, p["mc_samples"], int(rng.integers(2**31)), lo, hi))
    for text, matched in MATCH_SPECS:
        wl.ops.append(_match_op(oracle, rotation, SupervisionSpec.parse(text), matched, p["match_samples"], int(rng.integers(2**31))))
    wl.ops.append(_suite_op(int(rng.integers(2**31)), p["suite_samples"]))

    world, model = random_candidate()
    for j, (obj, text) in enumerate((o, t) for o in (world, model, oracle) for t in DATASET_SPECS):
        path = tmpdir / f"dataset-{j}.jsonl"
        wl.ops.append(_dataset_op(path, obj, SupervisionSpec.parse(text), int(rng.integers(2**31)), p["records"]))
    wl.ops = [wl.ops[i] for i in rng.permutation(len(wl.ops))]
    return wl


def _discrete_mc_op(model, I: IndexSet, kind: str, samples: int, s: int) -> Op:
    cols = (I if kind == "consistency" else I.complement()).cols()
    num, den = oracles.deviation(model.support, model.probs, model.mapped, cols)
    exact = 1.0 - num / den
    tol = oracles.mc_score_tolerance(num, den, len(cols), samples)
    return _mc_score_op(model, I, kind, samples, s, exact - tol, exact + tol)


def _mc_score_op(model, I: IndexSet, kind: str, samples: int, s: int, lo: float, hi: float) -> Op:
    """An MC score whose value must lie in [lo, hi]."""
    target = EvaluationTarget.generator_based(model)

    def call():
        score = getattr(metrics, f"normalized_{kind}")
        return score(target, I, mode="mc", samples=samples, seed=s)

    def check(rep):
        expect(rep.kind == kind and rep.mode == "mc" and rep.samples == samples, f"report {rep.to_dict()}")
        expect(lo <= rep.score <= hi, f"{model!r} {kind}{I}: MC score {rep.score:.4f} outside [{lo:.4f}, {hi:.4f}]")

    return Op("op.mc_score", call, check)


def _match_op(oracle, rotation, spec: SupervisionSpec, matched: bool, samples: int, s: int) -> Op:
    # Under the null, E[statistic] = 2 (1 - sum_c p_c^2) / samples <= 2 / samples,
    # with dozens of grid cells behind it; twice that bound is never reached by
    # matching samplers and always exceeded by these mismatched specs.
    bound = 2 * 2.0 / samples

    def check(r):
        expect(r.samples == samples and r.seed == s, f"result {r.to_dict()}")
        expect(r.passed == (r.statistic <= r.threshold), f"passed={r.passed} disagrees with statistic/threshold")
        expect(0.0 < r.p_value <= 1.0, f"p-value {r.p_value}")
        if matched:
            expect(r.statistic <= bound, f"{spec.to_string()}: statistic {r.statistic:.3g} above null bound {bound:.3g}")
        else:
            expect(not r.passed and r.statistic > bound, f"{spec.to_string()}: mismatch not detected {r.to_dict()}")

    return Op("op.mc_match_check", lambda: metrics.mc_match_check(rotation, oracle, spec, seed=s, samples=samples), check)


def _suite_op(s: int, samples: int) -> Op:
    def check(report):
        by_name = {c.name: c for c in report.checks}
        expect(list(by_name) == SUITE_CHECKS, f"checks {list(by_name)}")
        for name, c in by_name.items():
            if name == "rotation-distribution-match":
                expect(0.0 < c.statistic <= 1.0, f"{name}: p-value {c.statistic}")
            else:
                expect(c.status == "pass", f"{name}: {c.to_dict()}")

    return Op("op.counterexample_suite", lambda: verify.run_counterexample_suite(seed=s, samples=samples), check)


def _record_doc(kind: str, I: IndexSet, rec: tuple) -> dict:
    """A sampled record in the documented dataset line format."""

    def obs(x):
        return list(x) if isinstance(x, tuple) else x

    if kind == supervision.RESTRICTED_LABELING:
        return {"x": obs(rec[0]), "s_I": list(rec[1])}
    if kind == supervision.MATCH_PAIRING:
        return {"x": obs(rec[0]), "x2": obs(rec[1]), "shared": list(I.members())}
    return {"x": obs(rec[0]), "x2": obs(rec[1]), "y": rec[2]}


def _outcome(kind: str, doc: dict) -> tuple:
    if kind == supervision.RESTRICTED_LABELING:
        return doc["x"], tuple(doc["s_I"])
    if kind == supervision.MATCH_PAIRING:
        return doc["x"], doc["x2"]
    return doc["x"], doc["x2"], doc["y"]


def _dataset_op(path: Path, obj, spec: SupervisionSpec, s: int, count: int) -> Op:
    kind, I = spec.canonical(obj.n)
    discrete = isinstance(obj, (worlds.DiscreteWorld, worlds.CandidateModel))
    mass = supervision.augmented_table(obj, spec).mass if discrete else None

    def call():
        supervision.write_dataset(path, obj, spec, s, count)
        return supervision.read_dataset(path)

    def check(out):
        header, docs = out
        expect(
            (header["spec"], header["kind"], header["seed"], header["count"]) == (spec.to_string(), kind, s, count),
            f"header {header}",
        )
        expected = [_record_doc(kind, I, rec) for rec in supervision.sample_records(obj, spec, s, count)]
        expect(docs == expected, f"{spec.to_string()} records read back differ from sample_records")
        if discrete:
            oracles.check_frequencies([_outcome(kind, d) for d in docs], mass)

    return Op("op.dataset_roundtrip", call, check)


BUILDERS = {"theorems": build_theorems, "sweep": build_sweep, "sampling": build_sampling}
