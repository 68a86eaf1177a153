"""Empirical validation of every guarantee on desk-scale instances.

Each claim gets an independent check: a second straight-line enumeration
of the defining expectations (kept deliberately separate from the metrics
module's vectorized path), randomized soundness sweeps of the calculus
with the zig-zag guard, the named counterexample suite, and structural
assumption checks for worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations as _combinations
from itertools import compress, permutations

import numpy as np

from .calculus import Fact, RuleGuard, closure, entails, nuisance_closure
from .continuous import rotation_world
from .errors import ArityMismatch, SupportTooLarge
from .indexset import IndexSet
from .learner import MAX_ENUM_SUPPORT, enumerate_matched, find_violating_model, matched_perms, verify_guarantee
from .metrics import (
    EvaluationTarget,
    generator_holds,
    holds,
    mc_match_check,
    mig,
    normalized_consistency,
    normalized_restrictiveness,
    report_doc,
)
from .supervision import SupervisionSpec
from .worlds import (
    CandidateModel,
    DiscreteWorld,
    random_world,
    schematic_world,
    uniform_world,
    zigzag_connectivity,
)

FACT_TOL = 1e-12
_c_facts = cache(lambda n: tuple(Fact("C", IndexSet(n, bits)) for bits in range(1 << n)))


# -- independent brute-force oracle ------------------------------------------------


def check_fact_brute(world: DiscreteWorld, model: CandidateModel, fact: Fact) -> bool:
    """Evaluate a generator-based C/R/D fact by direct enumeration, zero
    within ``FACT_TOL``.

    This is a second implementation of the defining expectations, written
    as plain dictionary loops so it shares no code with the metrics path.
    """
    q = {}
    phi = {}
    for r in range(model.support_size):
        z = tuple(int(v) for v in model.support[r])
        q[z] = float(model.probs[r])
        phi[z] = tuple(int(v) for v in model.mapped[r])
    members = set(fact.index_set.members())
    cols = [i - 1 for i in sorted(members)]
    rest = [i - 1 for i in range(1, world.n + 1) if i not in members]
    if fact.kind == "C":
        return _brute_consistency_dev(q, phi, cols) <= FACT_TOL
    if fact.kind == "R":
        return _brute_consistency_dev(q, phi, rest) <= FACT_TOL
    return _brute_consistency_dev(q, phi, cols) <= FACT_TOL and _brute_consistency_dev(q, phi, rest) <= FACT_TOL


def _brute_consistency_dev(q, phi, cols) -> float:
    """Deviation of the measured coordinates cols when the others are
    resampled; restrictiveness of I is this over the complement of I."""
    mass_by_key = {}
    for z, pz in q.items():
        key = tuple(z[c] for c in cols)
        mass_by_key[key] = mass_by_key.get(key, 0.0) + pz
    total = 0.0
    for z, pz in q.items():
        key = tuple(z[c] for c in cols)
        for z2, pz2 in q.items():
            if tuple(z2[c] for c in cols) != key:
                continue
            weight = pz * pz2 / mass_by_key[key]
            total += weight * sum(1 for c in cols if phi[z][c] != phi[z2][c])
    return total


# -- reports ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    status: str  # "pass" | "fail"
    statistic: float | None = None
    detail: str = ""
    seed: int | None = None

    to_dict = report_doc


@dataclass
class VerificationReport:
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name, ok, statistic=None, detail="", seed=None):
        self.checks.append(
            VerifyCheck(name, "pass" if ok else "fail", statistic, detail, seed)
        )

    def to_dict(self) -> dict:
        return {"passed": self.passed, **report_doc(self)}

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            stat = "" if c.statistic is None else f"  statistic={c.statistic:.6g}"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"[{c.status.upper():4}] {c.name}{stat}{detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# -- zig-zag guard -------------------------------------------------------------------


def zigzag_guard(support) -> RuleGuard:
    """Guard that lets consistency intersection fire only when the support
    is zig-zag connected for the complements of the participating index
    sets (restrictiveness union on those complements, in C-coordinates).

    The other rules hold on any support and are never suppressed.
    ``zigzag_connectivity`` memoises the verdicts per unordered pair.
    """
    connected = zigzag_connectivity(support)
    mask = (1 << np.shape(support)[1]) - 1
    return lambda rule, I, J: rule != "c_intersect" or connected(I ^ mask, J ^ mask)


# -- calculus soundness sweep -----------------------------------------------------------


@dataclass
class SweepReport:
    trials: int
    facts_checked: int
    violations: list[dict]
    seed: int

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**report_doc(self), "passed": self.passed}

    def to_text(self) -> str:
        return f"sweep: {self.trials} trials, {self.facts_checked} facts, {len(self.violations)} violations"


def _true_atoms(world: DiscreteWorld, perms) -> list[set[tuple[str, int]]]:
    """Exact truth of every C/R atom over all 2^n index sets, one atom set
    per bijection in ``perms`` (..., m), from one verdict call: C(I) holds
    when the raw consistency of I is zero, R(I) when that of ~I is."""
    n = world.n
    full = (1 << n) - 1
    zero = generator_holds(world, perms, _c_facts(n)).reshape(-1, 1 << n)
    return [
        {("C", bits) for bits in row} | {("R", full ^ bits) for bits in row}
        for row in (list(compress(range(1 << n), z)) for z in zero.tolist())
    ]


def _unsound_atoms(axioms, n: int, guard: RuleGuard, truths) -> tuple[int, list[Fact]]:
    """(atom count, the atoms missing from ``truths`` as facts) of the
    guarded closure of the axioms."""
    derived = closure(axioms, n, guard=guard)
    missing = sorted(atom for atom in derived.atoms if atom not in truths)
    return len(derived), [Fact(kind, IndexSet(n, bits)) for kind, bits in missing]


def _sweep_case(trial_seed: int):
    """One trial's random world (up to 3 factors of up to 3 values),
    bijection of its support rows, true atoms and axioms (a random half of
    the true atoms)."""
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(1, 4))
    cards = [int(rng.integers(2, 4)) for _ in range(n)]
    corr = float(rng.choice([0.0, float(rng.uniform(0.0, 1.0)), 1.0]))
    world = random_world(int(rng.integers(2**31)), n, cards, corr)
    perm = rng.permutation(world.support_size)

    truths = _true_atoms(world, perm)[0]
    axioms = [
        Fact(kind, IndexSet(n, bits))
        for kind, bits in sorted(truths)
        if rng.random() < 0.5
    ]
    return world, perm, truths, axioms


def _sweep_trial(trial_seed: int) -> tuple[int, list[dict]]:
    world, perm, truths, axioms = _sweep_case(trial_seed)
    checked, unsound = _unsound_atoms(axioms, world.n, zigzag_guard(world.support), truths)
    return checked, [
        {
            "trial_seed": trial_seed,
            "fact": str(fact),
            "axioms": [str(a) for a in axioms],
            "perm": [int(v) for v in perm],
        }
        for fact in unsound
    ]


def soundness_sweep(seed: int = 0, trials: int = 1000) -> SweepReport:
    """Random worlds and bijections: every fact the guarded closure derives
    from true axioms must itself be true under exact evaluation."""
    trial_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(trials)]
    results = [_sweep_trial(s) for s in trial_seeds]
    checked = sum(k for k, _ in results)
    violations = [v for _, vs in results for v in vs]
    return SweepReport(trials, checked, violations, seed)


def exhaustive_bijection_sweep(world: DiscreteWorld) -> SweepReport:
    """All bijections of one world, axioms = all true atoms, guarded
    closure, zero tolerance for unsound derivations.  The bijections are
    listed with ``itertools``, independently of the learner; a support
    above ``MAX_ENUM_SUPPORT`` raises SupportTooLarge before any is listed."""
    if world.support_size > MAX_ENUM_SUPPORT:
        raise SupportTooLarge(f"support {world.support_size} exceeds enumeration cap {MAX_ENUM_SUPPORT}")
    n = world.n
    guard = zigzag_guard(world.support)
    perms = list(permutations(range(world.support_size)))
    checked = 0
    violations = []
    for perm, truths in zip(perms, _true_atoms(world, perms)):
        axioms = [Fact(kind, IndexSet(n, bits)) for kind, bits in sorted(truths)]
        count, unsound = _unsound_atoms(axioms, n, guard, truths)
        checked += count
        violations.extend({"perm": list(perm), "fact": str(fact)} for fact in unsound)
    return SweepReport(-1, checked, violations, 0)


# -- named counterexamples ----------------------------------------------------------------


def run_counterexample_suite(seed: int = 0, samples: int = 50000) -> VerificationReport:
    """The four named constructions that separate the concepts.

    (a) a model consistent but not restrictive on factor 1, (b) the
    transpose, (c) the continuous rotation candidate that matches the
    labeled distribution yet is unrestricted, (d) the disconnected-support
    world where per-coordinate restrictiveness fails to combine.
    """
    report = VerificationReport()

    I1 = IndexSet.of([1], 2)
    for kind, consistent in (("consistent-not-restrictive", True), ("restrictive-not-consistent", False)):
        target = EvaluationTarget.generator_based(schematic_world(kind)[1])
        c = normalized_consistency(target, I1)
        r = normalized_restrictiveness(target, I1)
        one, zero = (c, r) if consistent else (r, c)  # the score that holds, the one that fails
        ok = (
            one.score == 1.0
            and zero.score == 0.0
            and holds(target, Fact("C", I1)) == consistent
            and holds(target, Fact("R", I1)) != consistent
        )
        report.add(kind, ok, statistic=zero.score)

    oracle, candidate = rotation_world()
    target = EvaluationTarget.generator_based(candidate)
    I1c = IndexSet.of([1], 3)
    match = mc_match_check(
        candidate, oracle, SupervisionSpec("restricted-labeling", (1,)), seed=seed, samples=samples
    )
    c = normalized_consistency(target, I1c, mode="mc", samples=samples, seed=seed)
    r = normalized_restrictiveness(target, I1c, mode="mc", samples=samples, seed=seed)
    report.add(
        "rotation-distribution-match", match.passed, statistic=match.p_value, seed=seed
    )
    # each bound must hold at three standard errors; a NaN or infinite error
    # (too few samples to say anything) fails its comparison
    report.add(
        "rotation-consistent-unrestricted",
        bool(c.score - 3 * c.std_error >= 0.99 and r.score + 3 * r.std_error <= 0.6),
        statistic=r.score,
        detail=(
            f"consistency={c.score:.4f}+-{c.std_error:.4f} "
            f"restrictiveness={r.score:.4f}+-{r.std_error:.4f}"
        ),
        seed=seed,
    )

    world, model = schematic_world("zigzag-violation")
    target = EvaluationTarget.generator_based(model)
    n = world.n
    r1, r2, r12 = (Fact("R", IndexSet.of(s, n)) for s in ([1], [2], [1, 2]))
    truths_ok = holds(target, r1) and holds(target, r2) and not holds(target, r12)
    guarded = closure([r1, r2], n, guard=zigzag_guard(model.support))
    detection_ok = entails([r1, r2], [r12], n)[0] and not guarded.contains(r12)
    report.add(
        "zigzag-violation",
        truths_ok and detection_ok,
        detail="union rule misfires without the connectivity guard and is suppressed with it",
    )
    return report


# -- structural assumption checks --------------------------------------------------------------


def check_assumptions(world: DiscreteWorld) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (I, J) of index sets of one or two factors, each pair once
    and I before J, for which the world's support is not zig-zag connected;
    an empty list when every pair is.  The other assumption, a generator
    injective on the support, is checked when a ``DiscreteWorld`` is built.
    """
    sets = [IndexSet.of(s, world.n) for size in (1, 2) for s in _combinations(range(1, world.n + 1), size)]
    connected = zigzag_connectivity(world.support)
    return [(I.members(), J.members()) for I in sets for J in sets
            if I.members() < J.members() and not connected(I.bits, J.bits)]


# -- weak-supervision guarantee battery ------------------------------------------------------------


def _card_shapes(support_max: int) -> list[tuple[int, ...]]:
    shapes = []

    def grow(prefix, budget):
        if prefix:
            shapes.append(tuple(prefix))
        for k in range(2, budget + 1):
            grow(prefix + [k], budget // k)

    grow([], support_max)
    return sorted(shapes, key=lambda s: (len(s), s))


def theorem_battery(support_max: int = 6, seed: int = 0) -> list[DiscreteWorld]:
    """Worlds with enumerable supports: per shape one uniform prior, one
    correlated prior, and one degenerate diagonal-support prior."""
    worlds = []
    rng = np.random.default_rng(seed)
    for shape in _card_shapes(support_max):
        worlds.append(uniform_world(shape))
        worlds.append(random_world(int(rng.integers(2**31)), len(shape), shape, 0.6))
        worlds.append(random_world(int(rng.integers(2**31)), len(shape), shape, 1.0))
    return worlds


def battery_specs(world: DiscreteWorld) -> list[SupervisionSpec]:
    """Every supervision kind applicable to a world: labeling and match
    pairing over each nonempty index set, share/change/rank per factor."""
    n = world.n
    specs: list[SupervisionSpec] = []
    for bits in range(1, 1 << n):
        indices = tuple(i + 1 for i in range(n) if bits >> i & 1)
        specs.append(SupervisionSpec("restricted-labeling", indices))
        specs.append(SupervisionSpec("match-pairing", indices))
    for i in range(1, n + 1):
        specs.append(SupervisionSpec("share-pairing", (i,)))
        specs.append(SupervisionSpec("change-pairing", (i,)))
        if world.ordered[i - 1]:
            specs.append(SupervisionSpec("rank-pairing", (i,)))
    return specs


def verify_theorem_guarantees(support_max: int = 6, seed: int = 0) -> VerificationReport:
    """Exhaustive checks of the distribution-matching guarantees.

    universality: every matched candidate of every battery world and
    supervision satisfies the guaranteed consistency fact;
    impossibility: labeling factor 1 of the uniform 2x2 world leaves
    exactly two of four matched candidates unrestricted on it;
    full disentanglement: complete share pairing forces a perfect
    information gap, while unsupervised matching admits a collapsed one.
    """
    report = VerificationReport()
    battery = theorem_battery(support_max, seed)

    cases = 0
    matched_total = 0
    failures: list[str] = []
    for world in battery:
        for spec in battery_specs(world):
            res = verify_guarantee(world, spec)
            cases += 1
            matched_total += res.matched_count
            if not res.ok:
                failures.append(f"{world!r} {spec.to_string()}")
    report.add(
        "theorem-guarantee-universality",
        not failures,
        statistic=float(matched_total),
        detail=f"{cases} (world, supervision) cases" + (f"; failures: {failures}" if failures else ""),
        seed=seed,
    )

    world22 = uniform_world((2, 2))
    label1 = SupervisionSpec("restricted-labeling", (1,))
    matched = matched_perms(world22, [label1])
    r1 = Fact("R", IndexSet.of([1], 2))
    violators = int((~generator_holds(world22, matched, r1)).sum())
    witness = find_violating_model(world22, [label1], r1)
    report.add(
        "impossibility-witness-counts",
        len(matched) == 4 and violators == 2 and witness is not None,
        statistic=float(violators),
        detail=f"matched={len(matched)} violators={violators}",
    )

    share_ok = True
    share_cases = 0
    for world in battery:
        full = world.support_size == int(np.prod(world.cards))
        if world.n < 2 or not full or np.ptp(world.support_probs) > 0:
            continue  # the perfect-gap claim needs independent factors
        specs = [SupervisionSpec("share-pairing", (i,)) for i in range(1, world.n + 1)]
        for model in enumerate_matched(world, specs):
            share_cases += 1
            gaps = mig(EvaluationTarget.generator_based(model)).per_factor
            if any(g != 1.0 for g in gaps):
                share_ok = False
    report.add(
        "complete-share-perfect-information-gap",
        share_ok and share_cases > 0,
        statistic=float(share_cases),
    )

    unsup = enumerate_matched(world22, [])
    collapse = any(
        min(mig(EvaluationTarget.generator_based(m)).per_factor) == 0.0 for m in unsup
    )
    report.add("unsupervised-information-gap-collapse", collapse, statistic=float(len(unsup)))

    report.checks.extend(check_nuisance_guarantee(uniform_world((2, 2, 2)), supervised=2).checks)
    return report


# -- nuisance guarantee ---------------------------------------------------------------------------


def check_nuisance_guarantee(world: DiscreteWorld, supervised: int) -> VerificationReport:
    """Supervising every factor but the last (treated as the nuisance):
    share pairing on each supervised factor must leave only matched
    candidates that are eta-disentangled on all of them.

    eta-disentanglement of factor i means consistency of {i} plus
    restrictiveness of {i, eta}.
    """
    report = VerificationReport()
    n = world.n
    if supervised != n - 1:
        raise ArityMismatch(f"the nuisance check supervises all factors except the last ({n - 1}), got {supervised}")

    eta_axioms = [Fact("C", IndexSet.of([i], supervised)) for i in range(1, supervised + 1)]
    fs = nuisance_closure(eta_axioms, supervised)
    closure_ok = all(
        fs.contains_eta(Fact("D", IndexSet.of([i], supervised)))
        for i in range(1, supervised + 1)
    )
    report.add("nuisance-closure-derives-eta-disentanglement", closure_ok)

    specs = [SupervisionSpec("share-pairing", (i,)) for i in range(1, supervised + 1)]
    matched = matched_perms(world, specs)
    facts = [Fact(kind, IndexSet.of(s, n)) for i in range(1, supervised + 1)
             for kind, s in (("C", [i]), ("R", [i, n]))]
    bad = int((~generator_holds(world, matched, facts).all(axis=1)).sum())
    report.add(
        "nuisance-matched-set-eta-disentangled",
        bad == 0 and len(matched) > 0,
        statistic=float(len(matched)),
        detail=f"{len(matched)} matched candidates, {bad} violating",
    )
    return report
