"""The fused exact engine against the per-set reference engine, and its
support-layout memo and model chunks."""

import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from disentlab import Fact, IndexSet, metrics, random_world, uniform_world
from disentlab.errors import ArityMismatch
from disentlab.learner import matched_perms
from disentlab.verify import battery_specs, soundness_sweep, theorem_battery
from reference_engine import exact_stats as reference_stats

ENTRY_TOL = 1e-14


def all_sets(n):
    return [IndexSet(n, bits) for bits in range(1 << n)]


def view_of(world, perms):
    perms = np.asarray(perms, dtype=np.int64)
    return world.support, world.support_probs[perms], world.support[perms], world.cards


def wide_worlds():
    """A card of 9 beside a card of 2 at three correlations and beside a
    card of 5, and the uniform 3x3x2 world: up to 18 groups per set and 9
    values per column."""
    beside_2 = [random_world(s, 2, (9, 2), c) for s, c in ((1, 0.0), (2, 0.5), (3, 1.0))]
    return beside_2 + [random_world(4, 2, (5, 9), 0.5), uniform_world((3, 3, 2))]


def random_perms(world, count, seed):
    rng = np.random.default_rng(seed)
    return np.array([rng.permutation(world.support_size) for _ in range(count)])


def assert_engines_agree(view, sets):
    """Numerators and gaps of the fused engine and the reference agree: the
    same verdicts at EXACT_TOL, exact zeros in the same places, and every
    other entry within ENTRY_TOL."""
    got = metrics._exact_stats(*view, sets, gap=True)
    want = reference_stats(*view, sets, gap=True)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert ((g == 0) == (w == 0)).all()
        assert np.abs(g - w).max(initial=0.0) <= ENTRY_TOL
    assert ((got[0] <= metrics.EXACT_TOL) == (want[0] <= metrics.EXACT_TOL)).all()


# -- differential: fused engine vs the per-set reference ------------------------------


def test_engines_agree_on_every_sweep_case(monkeypatch):
    calls = []
    engine = metrics._exact_stats

    def recording(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(metrics, "_exact_stats", recording)
    assert soundness_sweep(seed=0, trials=300).passed
    monkeypatch.undo()
    assert len(calls) == 300
    for support, probs, mapped, cards, sets in calls:
        assert len(sets) == 1 << support.shape[1]
        assert_engines_agree((support, probs, mapped, cards), sets)


@pytest.mark.parametrize("seed", [0, 11])
def test_engines_agree_on_battery_matched_sets(seed):
    for world in theorem_battery(support_max=6, seed=seed):
        for spec in battery_specs(world):
            assert_engines_agree(view_of(world, matched_perms(world, [spec])), all_sets(world.n))


@pytest.mark.parametrize("world", wide_worlds(), ids=repr)
def test_engines_agree_on_wide_cards_and_many_groups(world):
    assert_engines_agree(view_of(world, random_perms(world, 64, 0)), all_sets(world.n))
    identity = np.arange(world.support_size)
    assert_engines_agree(view_of(world, identity), all_sets(world.n))


def test_engines_agree_on_more_models_than_one_chunk():
    world = uniform_world((3, 3, 2))
    assert_engines_agree(view_of(world, random_perms(world, metrics.EXACT_CHUNK + 37, 3)), all_sets(3))


# -- model chunks ------------------------------------------------------------------------


def test_generator_holds_at_8_factorial_peaks_below_reference(monkeypatch):
    """All 8 C facts over every bijection of the uniform 2x2x2 world: the
    chunked engine's traced peak stays within 1.5x the per-set reference's."""
    world = uniform_world((2, 2, 2))
    perms = np.array(list(permutations(range(8))))
    facts = [Fact("C", I) for I in all_sets(3)]

    def peak(engine):
        monkeypatch.setattr(metrics, "_exact_stats", engine)
        tracemalloc.start()
        try:
            verdicts = metrics.generator_holds(world, perms, facts)
            return tracemalloc.get_traced_memory()[1], verdicts
        finally:
            tracemalloc.stop()

    fused_peak, fused = peak(metrics._exact_stats)
    reference_peak, reference = peak(lambda *a, **k: reference_stats(*a, **k))
    assert (fused == reference).all()
    assert fused_peak <= 1.5 * reference_peak, (fused_peak, reference_peak)


# -- the support-layout memo ---------------------------------------------------------------


def test_memo_results_equal_cold_and_warm():
    world = random_world(2, 2, (9, 2), 0.5)
    view, sets = view_of(world, random_perms(world, 40, 1)), all_sets(2)
    metrics._pair_layout.cache_clear()
    cold = metrics._exact_stats(*view, sets, gap=True)
    assert metrics._pair_layout.cache_info().misses == 1
    warm = metrics._exact_stats(*view, sets, gap=True)
    assert metrics._pair_layout.cache_info().hits == 1
    for c, w in zip(cold, warm):
        assert [v.hex() for v in c.ravel().tolist()] == [v.hex() for v in w.ravel().tolist()]


def test_memo_stays_within_its_maxsize():
    metrics._pair_layout.cache_clear()
    maxsize = metrics._pair_layout.cache_info().maxsize
    assert maxsize is not None
    for rows in range(1, maxsize + 12):  # one distinct one-factor support each
        support = np.arange(rows)[:, None]
        num = metrics._exact_stats(support, np.full(rows, 1 / rows), support, (rows,), all_sets(1))[0]
        assert num.tolist() == [0.0, 0.0]
        assert metrics._pair_layout.cache_info().currsize <= maxsize
    assert metrics._pair_layout.cache_info().currsize == maxsize


def test_results_alias_no_cached_array():
    world = uniform_world((3, 3, 2))
    sets = all_sets(3)
    view = view_of(world, random_perms(world, 5, 2))
    num, gaps = metrics._exact_stats(*view, sets, gap=True)
    support = np.ascontiguousarray(world.support, dtype=np.int64)
    layout = metrics._pair_layout(support.shape, support.tobytes(), tuple(world.cards), tuple(sets))
    for arr in layout:
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, num) and not np.shares_memory(arr, gaps)
    expected = num.copy(), gaps.copy()
    num[:], gaps[:] = -1.0, -1.0
    again = metrics._exact_stats(*view, sets, gap=True)
    assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])


def test_wrong_arity_raises_with_the_memo_warm():
    world = uniform_world((2, 2))
    view = view_of(world, np.arange(4))
    metrics._exact_stats(*view, all_sets(2))
    for bad in (IndexSet(3, 1), IndexSet(2, 1, nuisance=True)):
        with pytest.raises(ArityMismatch):
            metrics._exact_stats(*view, [IndexSet(2, 1), bad])
        with pytest.raises(ArityMismatch):
            metrics._exact_stats(*view, [bad])
