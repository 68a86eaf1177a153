import warnings
from collections import Counter
from contextlib import suppress
from itertools import combinations, permutations, product
from math import comb, prod

import numpy as np
import pytest

from disentlab import (
    CandidateModel,
    DiscreteWorld,
    EvaluationTarget,
    Fact,
    IndexSet,
    SupervisionSpec,
    holds,
    mc_match_check,
    mig,
    normalized_consistency,
    normalized_restrictiveness,
    random_world,
    raw_consistency,
    rotation_world,
    schematic_world,
    uniform_world,
)
from disentlab import metrics, worlds
from disentlab.metrics import ENCODER_BASED, GENERATOR_BASED
from disentlab.learner import matched_perms
from disentlab.verify import battery_specs, check_fact_brute, theorem_battery
from disentlab.errors import ArityMismatch, DegenerateDenominator, MetricError, ZeroEntropyFactor
from disentlab.supervision import sample_features
from reference_match import permutation_null, vstack_grid_cells
from reference_mig import exact_rows, mc_rows, reference_gaps
from reference_sampler import rotation_chunks


def gen_target(model):
    return EvaluationTarget.generator_based(model)


def enc_target(model):
    return EvaluationTarget.encoder_based(model)


def random_pair(seed, n_max=3, card_max=3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    cards = [int(rng.integers(2, card_max + 1)) for _ in range(n)]
    corr = float(rng.choice([0.0, float(rng.uniform(0, 1)), 1.0]))
    world = random_world(int(rng.integers(2**31)), n, cards, corr)
    model = CandidateModel(world, rng.permutation(world.support_size))
    return world, model


# -- independent encoder-direction oracle (straight-line enumeration) ----------------


def brute_encoder_consistency(model, members):
    world = model.base
    cols = [i - 1 for i in sorted(members)]
    probs = {tuple(int(v) for v in t): float(p) for t, p in zip(world.support, world.support_probs)}
    phi = {tuple(int(v) for v in z): tuple(int(v) for v in s) for z, s in zip(model.support, model.mapped)}
    measured = {s: z for z, s in phi.items()}  # phi^-1: the code of each factor tuple
    key_mass = {}
    for s, p in probs.items():
        k = tuple(s[c] for c in cols)
        key_mass[k] = key_mass.get(k, 0.0) + p
    total = 0.0
    for s, p in probs.items():
        for s2, p2 in probs.items():
            if tuple(s[c] for c in cols) != tuple(s2[c] for c in cols):
                continue
            w = p * p2 / key_mass[tuple(s[c] for c in cols)]
            total += w * sum(1 for c in cols if measured[s][c] != measured[s2][c])
    return total


# -- raw deviations ------------------------------------------------------------------


def test_identity_model_raw_zero(world22):
    target = gen_target(CandidateModel.identity(world22))
    for bits in range(4):
        I = IndexSet(2, bits)
        assert raw_consistency(target, I) == 0.0
        assert raw_consistency(target, ~I) == 0.0


def test_consistent_not_restrictive_raw_values():
    _, model = schematic_world("consistent-not-restrictive")
    target = gen_target(model)
    I1 = IndexSet.of([1], 2)
    assert raw_consistency(target, I1) == 0.0
    assert raw_consistency(target, ~I1) == 0.5  # raw R({1})


def test_restrictive_not_consistent_raw_values():
    _, model = schematic_world("restrictive-not-consistent")
    target = gen_target(model)
    I1 = IndexSet.of([1], 2)
    assert raw_consistency(target, I1) == 0.5
    assert raw_consistency(target, ~I1) == 0.0  # raw R({1})


def test_complement_identity_exact():
    """Raw R(I) is the raw consistency of ~I: the restrictiveness score's
    numerator and the R verdict both read ~I."""
    for seed in range(30):
        _, model = random_pair(seed)
        target = gen_target(model)
        n = model.n
        for bits in range(1 << n):
            I = IndexSet(n, bits)
            raw_r = raw_consistency(target, ~I)
            with suppress(DegenerateDenominator):
                assert normalized_restrictiveness(target, I).numerator == raw_r
            assert holds(target, Fact("R", I)) == (raw_r <= metrics.EXACT_TOL)


def test_arity_mismatch_rejected(world22, xor_model):
    with pytest.raises(ArityMismatch):
        raw_consistency(gen_target(xor_model), IndexSet.of([1], 3))
    with pytest.raises(ArityMismatch):
        normalized_consistency(gen_target(xor_model), IndexSet.of([1], 3), mode="mc", samples=10)


@pytest.mark.parametrize(
    "direction, model, message",
    [("sideways", "xor_model", "unknown direction"), (GENERATOR_BASED, "world22", "cannot evaluate a DiscreteWorld")],
    ids=["direction", "world-not-model"],
)
def test_evaluation_target_rejects_bad_direction_or_object(request, direction, model, message):
    with pytest.raises(MetricError, match=message):
        EvaluationTarget(direction, request.getfixturevalue(model))


# -- normalized scores ------------------------------------------------------------------


def test_schematic_normalized_scores():
    _, model = schematic_world("consistent-not-restrictive")
    target = gen_target(model)
    I1 = IndexSet.of([1], 2)
    c, r = normalized_consistency(target, I1), normalized_restrictiveness(target, I1)
    assert c.score == 1.0 and r.score == 0.0
    assert r.numerator == 0.5 and r.denominator == 0.5

    _, model = schematic_world("restrictive-not-consistent")
    target = gen_target(model)
    c, r = normalized_consistency(target, I1), normalized_restrictiveness(target, I1)
    assert c.score == 0.0 and r.score == 1.0


def test_degenerate_denominator_on_empty_set(world22):
    target = gen_target(CandidateModel.identity(world22))
    with pytest.raises(DegenerateDenominator):
        normalized_consistency(target, IndexSet(2, 0))


def test_score_bound_holds_on_random_targets():
    for seed in range(100):
        _, model = random_pair(seed)
        n = model.n
        for direction in (gen_target(model), enc_target(model)):
            for bits in range(1 << n):
                I = IndexSet(n, bits)
                for fn in (normalized_consistency, normalized_restrictiveness):
                    try:
                        rep = fn(direction, I)
                    except DegenerateDenominator:
                        continue
                    assert 0.0 <= rep.score <= 1.0
                    assert rep.numerator <= rep.denominator
                    assert rep.std_error == 0.0 and rep.mode == "exact"


def test_encoder_direction_against_brute_oracle():
    for seed in range(20):
        _, model = random_pair(seed)
        target = enc_target(model)
        n = model.n
        for bits in range(1, 1 << n):
            I = IndexSet(n, bits)
            expected = brute_encoder_consistency(model, set(I.members()))
            assert abs(raw_consistency(target, I) - expected) <= 1e-12


def test_exact_and_mc_agree():
    mismatches = 0
    cases = 0
    for seed in range(25):
        _, model = random_pair(seed)
        target = gen_target(model)
        n = model.n
        rng = np.random.default_rng(1000 + seed)
        bits = int(rng.integers(1, 1 << n))
        I = IndexSet(n, bits)
        try:
            exact = normalized_consistency(target, I)
            est = normalized_consistency(target, I, mode="mc", samples=10000, seed=seed)
        except DegenerateDenominator:
            continue
        cases += 1
        margin = 3.0 * max(est.std_error, 1e-9)
        if abs(est.score - exact.score) > margin:
            mismatches += 1
    assert cases >= 15
    assert mismatches <= max(1, int(0.05 * cases))


def test_mc_deterministic_in_seed():
    _, cand = rotation_world()
    target = gen_target(cand)
    I = IndexSet.of([2], 3)
    a = normalized_consistency(target, I, mode="mc", samples=20000, seed=5)
    b = normalized_consistency(target, I, mode="mc", samples=20000, seed=5)
    assert a.score == b.score and a.std_error == b.std_error
    c = normalized_consistency(target, I, mode="mc", samples=20000, seed=6)
    assert c.score != a.score


def bootstrap_std_error(num_devs, den_devs, rng, resamples=200):
    """Resample both deviation samples independently and take the spread
    of 1 - mean(num)/mean(den)."""
    m, k = len(num_devs), len(den_devs)
    scores = [
        1.0 - num_devs[rng.integers(0, m, m)].mean() / den_devs[rng.integers(0, k, k)].mean()
        for _ in range(resamples)
    ]
    return float(np.std(scores, ddof=1))


def test_delta_std_error_agrees_with_bootstrap_oracle():
    _, model = random_pair(5)  # scores of 0.11 and 0.48, away from 0 and 1
    _, rot = rotation_world()
    cases = [
        (gen_target(rot), IndexSet.of([1], 3), normalized_restrictiveness),
        (gen_target(model), IndexSet.of([1], model.n), normalized_consistency),
        (enc_target(model), IndexSet.of([1], model.n), normalized_restrictiveness),
    ]
    rng = np.random.default_rng(0)
    for target, I, score in cases:
        rep = score(target, I, mode="mc", samples=100_000, seed=3)
        J = I if score is normalized_consistency else I.complement()
        num_devs, den_devs = metrics._mc_deviations(target, J, 100_000, 3)
        assert (num_devs.mean(), den_devs.mean()) == (rep.numerator, rep.denominator)
        oracle = bootstrap_std_error(num_devs, den_devs, rng)
        assert rep.std_error > 0.0
        assert abs(rep.std_error - oracle) <= 0.2 * oracle, (target.direction, I, rep.std_error, oracle)


def test_mc_single_sample_finite_score_without_warnings():
    _, cand = rotation_world()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = normalized_restrictiveness(gen_target(cand), IndexSet.of([1], 3), mode="mc", samples=1)
    assert np.isfinite(rep.score) and np.isnan(rep.std_error)


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_rejects_nonpositive_samples(samples):
    _, cand = rotation_world()
    with pytest.raises(MetricError):
        normalized_consistency(gen_target(cand), IndexSet.of([1], 3), mode="mc", samples=samples)
    _, model = schematic_world("consistent-not-restrictive")
    with pytest.raises(MetricError):
        holds(gen_target(model), Fact("C", IndexSet.of([1], 2)), mode="mc", samples=samples)


def test_rotation_world_scores():
    _, cand = rotation_world()
    target = gen_target(cand)
    I1 = IndexSet.of([1], 3)
    c = normalized_consistency(target, I1, mode="mc", samples=50000, seed=0)
    r = normalized_restrictiveness(target, I1, mode="mc", samples=50000, seed=0)
    assert c.score >= 0.99
    assert r.score < 0.5  # closed-form value is exactly 0
    assert abs(r.numerator - 1.0) < 0.05 and abs(r.denominator - 1.0) < 0.05
    assert r.std_error > 0.0


def test_exact_mode_rejected_for_continuous():
    _, cand = rotation_world()
    with pytest.raises(MetricError):
        normalized_consistency(gen_target(cand), IndexSet.of([1], 3), mode="exact")


def test_rotation_encoder_direction_mirrors_generator():
    # the learned encoder is also consistent-but-unrestricted on the angle
    _, cand = rotation_world()
    target = enc_target(cand)
    I1 = IndexSet.of([1], 3)
    c = normalized_consistency(target, I1, mode="mc", samples=30000, seed=0)
    r = normalized_restrictiveness(target, I1, mode="mc", samples=30000, seed=0)
    assert c.score >= 0.99
    assert r.score < 0.5


def _chunks_with_states(fn, seq):
    """Deviations of two full chunks and one partial, seeded as the MC engine
    seeds them, and the generator state after each chunk."""
    devs, states = [], []
    for s, size in zip(seq.spawn(3), (metrics.MC_CHUNK, metrics.MC_CHUNK, 100)):
        rng = np.random.default_rng(s)
        devs.append(fn(rng, size))
        states.append(rng.bit_generator.state)
    return np.concatenate(devs), states


def _part_chunks(target, I):
    """(conditional-pair chunk, i.i.d.-pair chunk) built from the target's
    ``mc_parts``, as the MC engine pairs and measures its draws."""
    sample, resample, measure = target.mc_parts(I.cols())

    def distance(z, z2):
        return ((measure(z) - measure(z2)) ** 2).sum(axis=0)

    def num_chunk(rng, size):
        z = sample(rng, size)
        return distance(z, resample(rng, z, I.complement().cols()))

    def den_chunk(rng, size):
        return distance(sample(rng, size), sample(rng, size))

    return num_chunk, den_chunk


@pytest.mark.parametrize("direction", [GENERATOR_BASED, ENCODER_BASED])
def test_rotation_pairs_equal_full_trig_reference(direction):
    """For every set of measured columns, the rotation candidate's MC parts
    give the deviations of the full-trig sampler and leave the generator in
    its state after every chunk, angle-only sets included; the engine's
    deviations, the scores, their parts and standard errors are the
    reference's, float for float."""
    _, cand = rotation_world()
    target, samples = EvaluationTarget(direction, cand), 2 * metrics.MC_CHUNK + 100
    for bits in range(1 << 3):
        I = IndexSet(3, bits)
        runs = [
            [_chunks_with_states(fn, seq) for fn, seq in zip(fns, np.random.SeedSequence(bits).spawn(2))]
            for fns in (_part_chunks(target, I), rotation_chunks(direction, I))
        ]
        for (got, got_states), (want, want_states) in zip(*runs):
            assert got.tobytes() == want.tobytes() and got_states == want_states, (I, got[:3], want[:3])
        (num, _), (den, _) = runs[1]
        engine = metrics._mc_deviations(target, I, samples, bits)
        assert [a.tobytes() for a in engine] == [num.tobytes(), den.tobytes()], I
        if not bits:
            continue  # nothing measured: a zero denominator
        want = [(1.0 - num.mean() / den.mean()).hex(), metrics._ratio_std_error(num, den).hex()]
        for rep in (normalized_consistency(target, I, "mc", samples, bits),
                    normalized_restrictiveness(target, I.complement(), "mc", samples, bits)):
            assert [rep.numerator.hex(), rep.denominator.hex()] == [num.mean().hex(), den.mean().hex()]
            assert [rep.score.hex(), rep.std_error.hex()] == want, I


# -- holds ------------------------------------------------------------------------------------


def test_holds_identity_model(world22):
    target = gen_target(CandidateModel.identity(world22))
    for i in (1, 2):
        assert holds(target, Fact("D", IndexSet.of([i], 2)))


def test_holds_empty_set_vacuous(world22, xor_model):
    assert holds(gen_target(xor_model), Fact("D", IndexSet(2, 0)))


def test_holds_schematic(world22):
    _, model = schematic_world("consistent-not-restrictive")
    target = gen_target(model)
    I1 = IndexSet.of([1], 2)
    assert holds(target, Fact("C", I1))
    assert not holds(target, Fact("R", I1))
    assert not holds(target, Fact("D", I1))


def test_holds_mc_mode_on_rotation():
    _, cand = rotation_world()
    target = gen_target(cand)
    I1 = IndexSet.of([1], 3)
    assert holds(target, Fact("C", I1), tol=1e-3, mode="mc", samples=20000, seed=0)
    assert not holds(target, Fact("R", I1), tol=1e-3, mode="mc", samples=20000, seed=0)


def test_holds_rejects_unknown_mode(world22):
    target = gen_target(CandidateModel.identity(world22))
    with pytest.raises(MetricError) as normalized:
        normalized_consistency(target, IndexSet.of([1], 2), mode="bogus")
    with pytest.raises(MetricError) as verdict:
        holds(target, Fact("C", IndexSet.of([1], 2)), mode="bogus")
    assert str(verdict.value) == str(normalized.value)


def _engine_batches(source):
    """(world, spec or None, bijections): for a seed, every battery world's
    matched set per spec; for "wide", more random bijections than one engine
    chunk of worlds with a card of 9 beside a card of 2 or 5 and of the
    uniform 3x3x2 world (18 groups on the full set).  Padding the 5 values
    to the call's 9 would change their sum's order, which numpy makes
    pairwise from 8 terms on."""
    if source != "wide":
        for world in theorem_battery(support_max=6, seed=source):
            for spec in battery_specs(world):
                yield world, spec, matched_perms(world, [spec])
        return
    rng = np.random.default_rng(5)
    for world in (random_world(2, 2, (9, 2), 0.5), random_world(4, 2, (5, 9), 0.5), uniform_world((3, 3, 2))):
        yield world, None, np.array([rng.permutation(world.support_size) for _ in range(metrics.EXACT_CHUNK + 37)])


@pytest.mark.parametrize("source", [0, 11, "wide"])
def test_batched_numerators_equal_per_model(source):
    """One (k, m) call gives every model's raw consistency of the guaranteed
    set and of its complement (of every set, on the wide worlds), float.hex
    for float.hex."""
    for world, spec, perms in _engine_batches(source):
        if spec is None:
            sets = [IndexSet(world.n, bits) for bits in range(1 << world.n)]
        else:
            sets = [spec.guaranteed_index_set(world.n), spec.guaranteed_index_set(world.n).complement()]
        targets = [gen_target(CandidateModel(world, perm)) for perm in perms]
        for J in sets:
            batch = metrics._exact_stats(
                world.support, world.support_probs[perms], world.support[perms], world.cards, [J]
            )[0][:, 0]
            assert batch.shape == (len(perms),)
            for target, num in zip(targets, batch.tolist()):
                ref = raw_consistency(target, J)
                assert num.hex() == ref.hex(), (world, spec, target.model, J)


def _every_fact(n):
    return [Fact(kind, IndexSet(n, bits)) for bits in range(1 << n) for kind in "CRD"]


@pytest.mark.parametrize("source", [0, 11, "wide"])
def test_multi_set_call_equals_one_set_calls(source):
    """One engine call over every index set (and one verdict call over every
    C/R/D fact) gives, for every model of the batch, the same numerators
    float.hex for float.hex and the same verdicts as one call per set (per
    fact), so an entry depends neither on the other sets of the call nor on
    its widest card."""
    for world, spec, perms in _engine_batches(source):
        n = world.n
        sets = [IndexSet(n, bits) for bits in range(1 << n)]
        facts = _every_fact(n)
        view = world.support, world.support_probs[perms], world.support[perms], world.cards
        nums = metrics._exact_stats(*view, sets)[0]
        assert nums.shape == (len(perms), len(sets))
        for j, I in enumerate(sets):
            one = metrics._exact_stats(*view, [I])[0][:, 0]
            assert [v.hex() for v in nums[:, j].tolist()] == [v.hex() for v in one.tolist()], (world, spec, I)
        verdicts = metrics.generator_holds(world, perms, facts)
        assert verdicts.shape == (len(perms), len(facts))
        for j, fact in enumerate(facts):
            assert verdicts[:, j].tolist() == metrics.generator_holds(world, perms, fact).tolist(), fact


def test_batched_verdicts_equal_per_model_and_brute_force(world22):
    perms = np.array(list(permutations(range(4))))
    models = [CandidateModel(world22, perm) for perm in perms]
    every = metrics.generator_holds(world22, perms, _every_fact(2))
    for j, fact in enumerate(_every_fact(2)):
        batch = metrics.generator_holds(world22, perms, fact).tolist()
        assert every[:, j].tolist() == batch, fact
        assert batch == [holds(gen_target(m), fact) for m in models], fact
        assert batch == [check_fact_brute(world22, m, fact) for m in models], fact
    r1 = Fact("R", IndexSet.of([1], 2))
    assert (~metrics.generator_holds(world22, perms, r1)).sum() == 16
    label1 = matched_perms(world22, [SupervisionSpec("restricted-labeling", (1,))])
    assert len(label1) == 4 and (~metrics.generator_holds(world22, label1, r1)).sum() == 2


def test_batched_verdicts_on_empty_matched_set(world22):
    none = np.empty((0, 4), dtype=np.int64)
    assert metrics.generator_holds(world22, none, Fact("D", IndexSet.of([1], 2))).shape == (0,)


def _recording_engine(monkeypatch):
    """Wrap the exact engine; returns the list of the set lists it is given."""
    calls = []
    engine = metrics._exact_stats

    def recording(*args, **kwargs):
        calls.append(list(args[4]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(metrics, "_exact_stats", recording)
    return calls


def test_verdicts_read_each_distinct_set_once(monkeypatch):
    """The engine sees each index set once, however many facts read it, and
    the verdicts equal C/R/D read off one-set engine calls for every matched
    model of the battery."""
    calls = _recording_engine(monkeypatch)
    for world in theorem_battery(support_max=5, seed=0):
        n = world.n
        facts = _every_fact(n)
        one_set = {}  # I -> raw consistency within tol, per matched model, from a one-set call
        for spec in battery_specs(world):
            perms = matched_perms(world, [spec])
            view = world.support, world.support_probs[perms], world.support[perms], world.cards
            for bits in range(1 << n):
                I = IndexSet(n, bits)
                one_set[I] = metrics._exact_stats(*view, [I])[0][:, 0] <= metrics.EXACT_TOL
            calls.clear()
            verdicts = metrics.generator_holds(world, perms, facts)
            assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 1 << n
            for j, f in enumerate(facts):
                I = f.index_set
                expected = {"C": one_set[I], "R": one_set[~I], "D": one_set[I] & one_set[~I]}[f.kind]
                assert verdicts[:, j].tolist() == expected.tolist(), (world, spec, f)


def test_matched_report_reads_two_sets_on_two_factors(world22, monkeypatch):
    """Every single-factor C/R/D verdict of a matched set on two factors
    comes from one engine call over the two singletons."""
    perms = matched_perms(world22, [SupervisionSpec("restricted-labeling", (1,))])
    calls = _recording_engine(monkeypatch)
    metrics.generator_holds(world22, perms, [Fact(k, IndexSet.of([i], 2)) for i in (1, 2) for k in "CRD"])
    assert calls == [[IndexSet.of([1], 2), IndexSet.of([2], 2)]]


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_verdicts_reject_negative_or_nan_tol(world22, tol):
    fact = Fact("C", IndexSet.of([1], 2))
    target = gen_target(CandidateModel.identity(world22))
    for mode in ("exact", "mc"):
        with pytest.raises(MetricError, match="tol must be a nonnegative number"):
            holds(target, fact, tol=tol, mode=mode, samples=10)


def test_holds_mc_draws_only_conditional_pairs(xor_model, monkeypatch):
    drawn = []

    def counting(rng, probs, m):
        drawn.append(m)
        return draw_rows(rng, probs, m)

    draw_rows = worlds._draw_rows
    for module in (worlds, metrics):  # the sampler and the engine's prior draws
        monkeypatch.setattr(module, "_draw_rows", counting)
    target, I2 = gen_target(xor_model), IndexSet.of([2], 2)
    dev = float(metrics._mc_deviations(target, I2, 1000, 4)[0].mean())
    drawn.clear()
    assert holds(target, Fact("C", I2), tol=dev, mode="mc", samples=1000, seed=4)
    assert sum(drawn) == 2 * 1000  # one latent and one resampled partner per sample
    assert not holds(target, Fact("C", I2), tol=np.nextafter(dev, 0.0), mode="mc", samples=1000, seed=4)


# -- mutual information gap ---------------------------------------------------------------------


def test_mig_identity_is_one(world22):
    report = mig(gen_target(CandidateModel.identity(world22)))
    assert report.per_factor == (1.0, 1.0) and report.mean == 1.0


def test_mig_xor_collapses_factor_two(world22):
    w3 = uniform_world((2, 2))
    model = CandidateModel.from_map(w3, lambda t: (t[0], t[0] ^ t[1]))
    report = mig(gen_target(model))
    assert report.per_factor[1] == 0.0


def test_mig_single_factor_convention():
    w = uniform_world((4,))
    report = mig(gen_target(CandidateModel.identity(w)))
    assert report.per_factor == (1.0,)


@pytest.mark.parametrize("m", [2, 3, 7, 10])
def test_mig_zero_entropy_factor(m):
    """Factor 2 takes one value.  At m = 7 and 10 its marginal sums to
    0.9999999999999998 and 0.9999999999999999, whose float entropies are
    positive, so only the count of values with mass shows it."""
    w = DiscreteWorld((m, 1), [1 / m] * m, [[i] for i in range(m)])
    with pytest.raises(ZeroEntropyFactor, match="factor 2"):
        mig(gen_target(CandidateModel.identity(w)))


def test_mig_mc_zero_entropy_factor():
    """A measured factor whose samples all fall in one bin: one sample."""
    _, cand = rotation_world()
    with pytest.raises(ZeroEntropyFactor):
        mig(gen_target(cand), samples=1)


def test_mig_exact_equals_reference_on_share_matched_models():
    """Every matched model of every share-pairing spec of the battery, in
    both directions, gives the reference's gaps to the last bit."""
    cases = 0
    for world in theorem_battery(6):
        for spec in battery_specs(world):
            if spec.kind != "share-pairing":
                continue
            for perm in matched_perms(world, [spec]):
                model = CandidateModel(world, perm)
                for direction in (GENERATOR_BASED, ENCODER_BASED):
                    expected = reference_gaps(exact_rows(model, direction), world.cards, world.cards)
                    assert mig(EvaluationTarget(direction, model)).per_factor == expected, (model, direction)
                    cases += 1
    assert cases > 1000


@pytest.mark.parametrize("direction", [GENERATOR_BASED, ENCODER_BASED])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mig_mc_equals_reference_on_rotation(direction, seed):
    _, cand = rotation_world()
    report = mig(EvaluationTarget(direction, cand), samples=3000, seed=seed)
    expected = reference_gaps(mc_rows(cand, direction, 20, 3000, seed), (20,) * 3, (20,) * 3)
    assert report.mode == "mc" and report.samples == 3000
    assert np.allclose(report.per_factor, expected, rtol=0.0, atol=1e-12), (report.per_factor, expected)


def test_mig_takes_samples_and_seed_by_keyword_only():
    """A positional count, such as a bin count, cannot bind to ``samples``."""
    _, cand = rotation_world()
    with pytest.raises(TypeError):
        mig(gen_target(cand), 20)


def test_mig_mc_binned_on_rotation():
    _, cand = rotation_world()
    report = mig(gen_target(cand), samples=20000, seed=0)
    assert report.mode == "mc"
    # the angle aligns with itself; the rotated disk coordinates do not
    assert report.per_factor[0] > 0.5
    assert report.per_factor[1] < 0.3 and report.per_factor[2] < 0.3


@pytest.mark.parametrize("bins", [1, 2, 4, 20])
def test_equal_mass_bins_equal_searchsorted_on_ties(bins):
    """Integer-valued columns put many values exactly on a quantile edge;
    each value's bin is still the number of edges at or below it."""
    rng = np.random.default_rng(bins)
    columns = [rng.integers(0, 5, 4000), rng.integers(0, 3, 4000).astype(float), rng.normal(size=4000),
               np.zeros(50), np.arange(7.0)]
    on_edge = 0
    for values in columns:
        edges = np.quantile(values, np.arange(1, bins) / bins)
        got = metrics._equal_mass_bins(values, bins)
        assert got.dtype == np.intp and got.tolist() == np.searchsorted(edges, values, side="right").tolist()
        on_edge += np.isin(values, edges).sum()
    assert bins == 1 or on_edge > 1000


# -- distribution-match test ----------------------------------------------------------------------


def test_match_check_null_case():
    oracle, _ = rotation_world()
    res = mc_match_check(oracle, oracle, SupervisionSpec("share-pairing", (2,)), seed=1, samples=20000)
    assert res.passed


def test_match_check_rotation_labeling_passes():
    oracle, cand = rotation_world()
    res = mc_match_check(cand, oracle, SupervisionSpec("restricted-labeling", (1,)), seed=0, samples=50000)
    assert res.passed


def test_match_check_rotation_share2_fails():
    oracle, cand = rotation_world()
    res = mc_match_check(cand, oracle, SupervisionSpec("share-pairing", (2,)), seed=0, samples=50000)
    assert not res.passed
    assert res.statistic > res.threshold


def test_match_check_needs_continuous_world(world22):
    with pytest.raises(MetricError):
        mc_match_check(CandidateModel.identity(world22), world22, SupervisionSpec("share-pairing", (1,)))
    oracle, _ = rotation_world()
    with pytest.raises(MetricError, match="samplers of a continuous world"):
        mc_match_check(CandidateModel.identity(world22), oracle, SupervisionSpec("restricted-labeling", (1,)))


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_paths_reject_fewer_than_one_sample(samples):
    oracle, cand = rotation_world()
    message = f"Monte-Carlo mode needs at least one sample, got {samples}"
    with pytest.raises(MetricError, match=message):
        mc_match_check(cand, oracle, SupervisionSpec("restricted-labeling", (1,)), samples=samples)
    with pytest.raises(MetricError, match=message):
        mig(gen_target(cand), samples=samples)


@pytest.mark.parametrize(
    "spec",
    [("restricted-labeling", 1), ("share-pairing", 1), ("restricted-labeling", 2), ("share-pairing", 2)],
    ids=["label:1", "share:1", "label:2", "share:2"],
)
def test_match_null_quantiles_equal_permutation_oracle(spec):
    """The hypergeometric split draw and the reference permutation loop give
    the same null: their 0.5, 0.9 and 0.99 quantiles over 1,000 draws each,
    on the rotation world at 20k samples, agree within 5% (0.5, 0.9) and 10%
    (0.99).  Five seed pairs showed at most 1.6% and 3.8%."""
    oracle, cand = rotation_world()
    samples, draws = 20000, 1000
    seq = np.random.SeedSequence(0).spawn(2)
    spec = SupervisionSpec(spec[0], (spec[1],))
    a = sample_features(oracle, spec, np.random.default_rng(seq[0]), samples)
    b = sample_features(cand, spec, np.random.default_rng(seq[1]), samples)
    cells_a, cells_b, n_cells = metrics._grid_cells(a, b, 4)
    counts = np.bincount(np.concatenate([cells_a, cells_b]), minlength=n_cells)
    counts = counts[counts > 0]

    splits = np.concatenate([*metrics._null_blocks(np.random.default_rng(0), counts, samples, draws)])
    null = metrics._split_stat(splits, counts, samples)
    ref = permutation_null(np.random.default_rng(1), cells_a, cells_b, n_cells, draws)
    got, want = np.quantile(null, [0.5, 0.9, 0.99]), np.quantile(ref, [0.5, 0.9, 0.99])
    assert np.all(np.abs(got / want - 1) <= [0.05, 0.05, 0.10]), (got, want)


@pytest.mark.parametrize("spec", ["label:1", "share:1", "label:2", "share:2"])
def test_grid_cells_equal_the_stacked_grid_oracle(spec):
    """Binning contiguous copies of each column gives the cell ids of the
    stacked (2 samples, d) grid, on the rotation world at 20k samples."""
    oracle, cand = rotation_world()
    seq = np.random.SeedSequence(0).spawn(2)
    a = sample_features(oracle, SupervisionSpec.parse(spec), np.random.default_rng(seq[0]), 20000)
    b = sample_features(cand, SupervisionSpec.parse(spec), np.random.default_rng(seq[1]), 20000)
    got, want = metrics._grid_cells(a, b, 4), vstack_grid_cells(a, b, 4)
    assert got[2] == want[2] and np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("bins", [2, 4, 5])
def test_grid_cells_equal_the_stacked_grid_oracle_on_ties(bins):
    """Rounded features put many values on a quantile edge, and a constant
    column puts every value on all of them; samples of unequal size too."""
    rng = np.random.default_rng(bins)
    a = np.column_stack([rng.normal(size=3000).round(1), np.full(3000, 0.5), rng.integers(0, 3, 3000)])
    b = np.column_stack([rng.normal(size=2000).round(1), np.full(2000, 0.5), rng.integers(0, 3, 2000)])
    got, want = metrics._grid_cells(a, b, bins), vstack_grid_cells(a, b, bins)
    assert got[2] == want[2] == bins**3
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(np.unique(np.concatenate(got[:2]))) > bins


def test_null_splits_follow_the_listed_pmf():
    """Split frequencies of 3 cells holding 8 records, half drawn, equal the
    pmf from listing all C(8, 4) splits, within 4.5 standard errors each."""
    counts = np.array([3, 4, 1])
    records = np.repeat(np.arange(3), counts)
    pmf = Counter(
        tuple(np.bincount(records[list(half)], minlength=3).tolist()) for half in combinations(range(8), 4)
    )
    draws = 20000
    splits = np.concatenate([*metrics._null_blocks(np.random.default_rng(0), counts, 4, draws)])
    freq = Counter(tuple(x.tolist()) for x in splits)
    assert set(freq) <= set(pmf)
    for split, ways in pmf.items():
        p = ways / comb(8, 4)
        assert abs(freq[split] / draws - p) <= 4.5 * np.sqrt(p * (1 - p) / draws), (split, freq[split], p)


def product_of_binomials_pmf(counts, half):
    """Exact pmf of the first-half cell counts of a uniform split of the
    pooled records: prod_i C(c_i, x_i) / C(total, half), over every
    x with 0 <= x_i <= c_i summing to half."""
    pmf = {}
    for head in product(*(range(c + 1) for c in counts[:-1])):
        last = half - sum(head)
        if 0 <= last <= counts[-1]:
            x = (*head, last)
            pmf[x] = prod(comb(c, k) for c, k in zip(counts, x)) / comb(sum(counts), half)
    return pmf


@pytest.mark.parametrize(
    "counts, half",
    [((70, 64, 63), 98), ((70, 64, 63), 60), ((70, 64, 63), 140), ((3, 4, 1), 3), ((129, 1, 2), 70)],
    ids=["both-ways", "first-too-large", "first-too-small", "small-uneven", "three-words"],
)
def test_null_splits_follow_the_product_of_binomials_pmf(counts, half):
    """Cells of 70, 64 and 63 records end on a masked, a full and a
    one-bit-short word.  With 197 records the coins' first-half size K falls
    on both sides of 98; it is above 60 and below 140 in every draw, so
    records move back (60) or over (140) on each one.  Each outcome with at
    least 20 expected hits is within 4.5 standard errors of its pmf, and so
    is each cell's count, against the pmf summed over the other cells."""
    pmf = product_of_binomials_pmf(counts, half)
    draws = 40000
    splits = np.concatenate([*metrics._null_blocks(np.random.default_rng(half), np.array(counts), half, draws)])
    freq = Counter(tuple(x.tolist()) for x in splits)
    assert sum(freq.values()) == draws and set(freq) <= set(pmf)
    outcomes = [(pmf, freq)]
    for i in range(len(counts)):
        marginal, hits = Counter(), Counter()
        for split, p in pmf.items():
            marginal[split[i]] += p
            hits[split[i]] += freq[split]
        outcomes.append((marginal, hits))
    checked = 0
    for law, hits in outcomes:
        for value, p in law.items():
            if p * draws >= 20:
                assert abs(hits[value] / draws - p) <= 4.5 * np.sqrt(p * (1 - p) / draws), (value, hits[value], p)
                checked += 1
    assert checked >= 10


def test_null_splits_moments_equal_numpy_hypergeometric():
    """Per-cell mean and variance over 4,000 draws match numpy's
    scalar-per-cell multivariate hypergeometric draw, within 4.5 standard
    errors, on 65 cells (some at the 64-bit word edges) and a first half of
    40% of the records."""
    rng = np.random.default_rng(3)
    counts = np.concatenate([rng.integers(1, 200, 60), [63, 64, 65, 128, 129]])
    half, draws = int(0.4 * counts.sum()), 4000
    got = np.concatenate([*metrics._null_blocks(np.random.default_rng(0), counts, half, draws)])
    ref_rng = np.random.default_rng(1)
    ref = np.array([ref_rng.multivariate_hypergeometric(counts, half, method="marginals") for _ in range(draws)])
    assert np.all(got.sum(axis=1) == half)
    var_got, var_ref = got.var(axis=0, ddof=1), ref.var(axis=0, ddof=1)
    assert np.all(np.abs(got.mean(axis=0) - ref.mean(axis=0)) <= 4.5 * np.sqrt((var_got + var_ref) / draws))
    assert np.all(np.abs(var_got / var_ref - 1) <= 4.5 * np.sqrt(4 / draws))


def test_null_words_are_the_generator_integers():
    """The null reads its words with ``random_raw``.  On a ``default_rng``
    (PCG64) they are the words of ``integers(2**64, dtype=np.uint64)``, and
    the generator state after the draw is the same, a buffered 32-bit half
    word included."""
    for k, w in ((1, 3288), (7, 5), (0, 4)):
        ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
        for rng in (ours, theirs):
            rng.integers(5, size=k)  # bounded draws that may leave a half word buffered
        words = ours.bit_generator.random_raw(k * w).reshape(k, w)
        assert np.array_equal(words, theirs.integers(2**64, size=(k, w), dtype=np.uint64))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count, half", [(5, 0), (5, 3), (5, 5), (64, 32), (65, 64), (130, 65)])
def test_null_splits_on_one_cell_are_forced(count, half):
    splits = np.concatenate([*metrics._null_blocks(np.random.default_rng(0), np.array([count]), half, 30)])
    assert len(splits) == 30 and all(x.tolist() == [half] for x in splits)


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("spec", ["label:1", "share:2"])
def test_match_check_at_one_and_two_samples(samples, spec):
    """2 or 4 pooled records: the coins' size misses half by at most 2."""
    oracle, cand = rotation_world()
    for seed in range(5):
        res = mc_match_check(cand, oracle, SupervisionSpec.parse(spec), seed=seed, samples=samples)
        assert np.isfinite(res.statistic) and np.isfinite(res.threshold) and 0.0 < res.p_value <= 1.0


def test_match_check_on_one_occupied_cell(monkeypatch):
    """Equal features put every record in one cell: each split is forced."""
    oracle, cand = rotation_world()
    monkeypatch.setattr(metrics, "sample_features", lambda obj, spec, rng, n: np.zeros((n, 3)))
    res = mc_match_check(cand, oracle, SupervisionSpec("share-pairing", (2,)), seed=0, samples=100)
    assert (res.passed, res.statistic, res.threshold, res.p_value) == (True, 0.0, 0.0, 1.0)


# -- reports --------------------------------------------------------------------------------------


def test_score_report_serializes(world22, xor_model):
    rep = normalized_consistency(gen_target(xor_model), IndexSet.of([1], 2))
    doc = rep.to_dict()
    assert doc["score"] == 1.0 and doc["index_set"] == [1] and doc["mode"] == "exact"
    assert list(doc) == ["direction", "kind", "index_set", "score", "numerator", "denominator", "mode",
                         "samples", "std_error", "seed"]
    one = metrics.ScoreReport("generator", "consistency", IndexSet.of([1], 2), 1.0, 0.0, 0.5, "mc", 1,
                              float("nan"), 0)
    assert one.to_dict() == {**doc, "numerator": 0.0, "denominator": 0.5, "mode": "mc", "samples": 1,
                             "std_error": None, "seed": 0}
