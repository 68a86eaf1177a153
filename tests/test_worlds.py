import json

import numpy as np
import pytest

from disentlab import (
    CandidateModel,
    DiscreteWorld,
    IndexSet,
    random_world,
    schematic_world,
    uniform_world,
    world_from_doc,
    zigzag_connected_support,
)
from disentlab.errors import (
    ArityMismatch,
    NonInjectiveGenerator,
    NonNormalizedPrior,
    SupportTooLarge,
    WorldError,
    ZeroMassConditioning,
)
from disentlab.verify import check_assumptions
from disentlab.worlds import (
    DEFAULT_SUPPORT_CAP,
    _draw_rows,
    _guide_rows,
    _resample_rows,
    load_world,
    mutual_information,
    save_world,
    zigzag_connectivity,
)
from reference_sampler import resample_table


def test_uniform_world_is_valid(world22):
    assert world22.support_size == 4
    assert abs(float(world22.prior.sum()) - 1.0) <= 1e-12
    ids = world22.observe(world22.support)
    encode = {int(v): r for r, v in enumerate(world22.obs_ids)}  # e*: observation id to support row
    assert [encode[int(v)] for v in ids] == list(range(world22.support_size))


def test_non_normalized_prior_rejected():
    with pytest.raises(NonNormalizedPrior):
        DiscreteWorld((2, 2), [0.25, 0.25, 0.25, 0.23], [0, 1, 2, 3])


def test_non_injective_generator_rejected():
    with pytest.raises(NonInjectiveGenerator):
        DiscreteWorld((2, 2), [0.25] * 4, [0, 1, 1, 3])


def test_gen_ignored_on_zero_mass_tuples():
    w = DiscreteWorld((2, 2), [0.5, 0.5, 0.0, 0.0], [0, 1, -1, -1])
    assert w.support_size == 2


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        DiscreteWorld((2, 2), [0.25] * 4, [0, 1, 2, 3], ordered=[True])


_CAP = DEFAULT_SUPPORT_CAP + 1


@pytest.mark.parametrize(
    "cards, prior, gen, error, message",
    [
        ((), [1.0], [0], ArityMismatch, "factor cardinalities must be >= 1, got ()"),
        ((2, 0), [], [], ArityMismatch, "factor cardinalities must be >= 1, got (2, 0)"),
        ((2,), [1.5, -0.5], [0, 1], NonNormalizedPrior, "prior entries must be finite and nonnegative"),
        ((2,), [float("nan"), 1.0], [0, 1], NonNormalizedPrior, "prior entries must be finite and nonnegative"),
        ((2,), [0.5, 0.5], [0, -1], NonInjectiveGenerator, "positive-mass tuple mapped to negative observation id"),
        ((2,), [float("inf"), 0.0], [0, 1], NonNormalizedPrior, "prior entries must be finite and nonnegative"),
        ((2,), [0.6, 0.5], [0, 1], NonNormalizedPrior, "prior sums to 1.1, not 1 within 1e-12"),
        ((2,), [1e308, 1e308], [0, 1], NonNormalizedPrior, "prior sums to inf, not 1 within 1e-12"),
        ((2,), [0.5, 0.5], [1, 1], NonInjectiveGenerator, "generator repeats an observation id on the support"),
        ((3,), [0.25, 0.25, 0.5], [1, 1, -1], NonInjectiveGenerator,
         "positive-mass tuple mapped to negative observation id"),
        ((2, 2), [0.5, 0.0, 0.0, 0.5], [3, -1, -1, 3], NonInjectiveGenerator,
         "generator repeats an observation id on the support"),
        ((_CAP,), [1 / _CAP] * _CAP, list(range(_CAP)), SupportTooLarge,
         f"factor grid of {_CAP} cells exceeds the support cap {DEFAULT_SUPPORT_CAP}"),
        ((2, 2), [.5, .5], [0, 1], WorldError, "prior/gen arrays must have 4 entries (row-major)"),
        ((2,), [.5, .5], [0.0, 1.7], WorldError, "gen entries must be integers"),
        ((2,), [.5, .5], [0, 1.0], WorldError, "gen entries must be integers"),
        ((2,), [.5, .5], np.array([0.0, 1.0]), WorldError, "gen entries must be integers"),
        ((2,), [.5, .5], [False, True], WorldError, "gen entries must be integers"),
        ((2,), [.5, .5], ["0", "1"], WorldError, "gen entries must be integers"),
    ],
    ids=["no-factors", "zero-cardinality", "negative-prior", "nan-prior", "negative-id-on-support",
         "inf-prior", "prior-over", "prior-sum-overflow", "repeated-id", "repeated-and-negative-id",
         "repeated-id-beside-zero-mass", "grid-over-cap", "short-arrays", "fractional-id", "float-id",
         "float-id-array", "bool-id", "string-id"],
)
def test_invalid_world_rejected(cards, prior, gen, error, message):
    """Each bad input raises its class with its message, and no warning: a
    sum that overflows reads inf.  A negative id is reported before a
    repeated one."""
    with pytest.raises(error) as exc:
        DiscreteWorld(cards, prior, gen)
    assert str(exc.value) == message


def test_out_of_range_entry_rejected():
    with pytest.raises(WorldError, match="prior or gen entry out of range"):
        DiscreteWorld((2,), [.5, .5], [0, 2**63])


def test_world_keeps_its_own_arrays():
    """Changing the caller's arrays afterwards leaves the world as built."""
    p, g = np.array([0.5, 0.5]), np.array([0, 1])
    w = DiscreteWorld((2,), p, g)
    p[0] = 7.0
    g[1] = 0
    assert w.prior.tolist() == [0.5, 0.5] and w.gen.tolist() == [0, 1]


@pytest.mark.parametrize(
    "world, latents",
    [(uniform_world((2, 2)), [[-1, 0], [1, -2]]),
     (schematic_world("zigzag-violation")[0], [[0, 1, 0]]),
     (uniform_world((2, 2)), [[2, 0]])],
    ids=["negative", "zero-mass", "out-of-range"],
)
def test_world_observe_rejects_tuples_off_the_support(world, latents):
    """g* is defined on the support only: a negative value must not wrap
    round to a valid id, a zero-mass tuple must not read the -1 filler and a
    value past its cardinality must not raise a bare IndexError."""
    with pytest.raises(ZeroMassConditioning):
        world.observe(np.array(latents))


# -- conditional resampling ----------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_resampling_every_coordinate_draws_from_the_prior(seed):
    """With no coordinate held fixed the conditional is the prior: the
    redraw equals a prior draw from the same generator state."""
    world = random_world(seed, 3, [2, 3, 2], 0.5)
    model = CandidateModel(world, np.random.default_rng(seed).permutation(world.support_size))
    for obj in (world, model):
        latents = obj.sample_latents(np.random.default_rng(100 + seed), 300)
        redrawn = obj.resample_latents(np.random.default_rng(seed), latents, range(3))
        assert np.array_equal(redrawn, obj.sample_latents(np.random.default_rng(seed), 300))


@pytest.mark.parametrize("cols", [[7], [-1], [0, 2]])
def test_bad_resample_coordinates_rejected(world22, xor_model, cols):
    """Both discrete samplers reject coordinates outside the world's arity,
    as the disk-rotation world does, and leave the generator untouched."""
    for obj in (world22, xor_model):
        rng = np.random.default_rng(0)
        latents = obj.sample_latents(rng, 10)
        state = rng.bit_generator.state
        with pytest.raises(WorldError, match=r"coordinates .* outside this world's arity"):
            obj.resample_latents(rng, latents, cols)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("batch", [0, 1, 7, 8192])
@pytest.mark.parametrize("shape", ["independent", "random", "diagonal", "subset"])
def test_resample_rows_equals_per_group_table_loop(shape, batch):
    """The grouped redraw over support rows gives the rows, and leaves the
    generator in the state, of the per-group loop over factor tuples, for
    the world's prior and a permuted one and for every set of redrawn
    coordinates, none and all included."""
    rng = np.random.default_rng(batch)
    world = _random_support_world(rng, 3, (3, 2, 3), shape)
    model = CandidateModel(world, rng.permutation(world.support_size))
    for obj, probs in ((world, world.support_probs), (model, model.probs)):
        rows = rng.integers(world.support_size, size=batch)
        for bits in range(1 << world.n):
            cols = [c for c in range(world.n) if bits >> c & 1]
            ours, theirs, public = (np.random.default_rng(bits) for _ in range(3))
            want = resample_table(theirs, world, probs, world.support[rows], cols)
            assert np.array_equal(world.support[_resample_rows(ours, world, probs, rows, cols)], want)
            assert np.array_equal(obj.resample_latents(public, world.support[rows], cols), want)
            assert ours.bit_generator.state == theirs.bit_generator.state == public.bit_generator.state


def _row_tables():
    """Probability tables over support rows: one row, tied cumulative sums
    (zero entries, and a mass too small to move its sum), and 300 random
    tables of 1 to 39 rows, some with most of their rows nearly massless."""
    rng = np.random.default_rng(0)
    tables = [np.array([1.0]), np.array([0.25, 0.0, 0.0, 0.5, 0.0, 0.25]), np.array([0.0, 0.5, 0.5]),
              np.array([0.5, 1e-20, 0.5 - 1e-20])]
    for _ in range(300):
        tables.append(rng.dirichlet(np.full(int(rng.integers(1, 40)), rng.choice([0.05, 1.0, 5.0]))))
    return tables


def test_guide_rows_equal_binary_search():
    """The guide-table index of each uniform is searchsorted's, on uniforms
    at 0, at every b/1024 (each table's guide boundaries b/K among them,
    since K <= 256 here) and just below each, at and just below each
    cumulative sum, and at random."""
    grid = np.arange(1024) / 1024
    for probs in _row_tables():
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        assert 4 * len(cum) <= 256
        u = np.concatenate([grid, np.nextafter(grid[1:], 0), [np.nextafter(1.0, 0)], cum[:-1],
                            np.nextafter(cum, 0), np.random.default_rng(len(cum)).random(500)])
        u = u[(0 <= u) & (u < 1)]
        assert np.array_equal(_guide_rows(cum, u), np.searchsorted(cum, u, side="right")), probs


@pytest.mark.parametrize("batch", [0, 1, 8192])
def test_draw_rows_equals_binary_search_draw(batch):
    """Drawn rows and the generator state after the draw equal those of a
    binary search over the same uniforms."""
    for t, probs in enumerate(_row_tables()[:40]):
        ours, theirs = np.random.default_rng(t), np.random.default_rng(t)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        want = np.searchsorted(cum, theirs.random(batch), side="right")
        assert np.array_equal(_draw_rows(ours, probs, batch), want)
        assert ours.bit_generator.state == theirs.bit_generator.state


# -- random worlds --------------------------------------------------------------


def test_random_world_corr_zero_is_uniform_product():
    w = random_world(1, 2, [2, 2], 0.0)
    assert np.allclose(w.prior, 0.25)
    for i in (1, 2):
        joint = np.zeros((w.cards[i - 1], w.support_size))
        # MI between factor i and the full remaining tuple
        rest = [j for j in range(w.n) if j != i - 1]
        keys = {tuple(t): r for r, t in enumerate(w.support[:, rest].tolist())}
        for t, p in zip(w.support, w.support_probs):
            joint[t[i - 1], keys[tuple(t[rest].tolist())]] += p
        assert mutual_information(joint) <= 1e-12


def test_random_world_corr_one_has_positive_mi():
    w = random_world(1, 2, [2, 2], 1.0)
    mi = w.pairwise_mi()
    assert mi[0, 1] > 0.01


def test_random_world_deterministic_in_seed():
    assert random_world(7, 2, [3, 2], 0.4).to_doc() == random_world(7, 2, [3, 2], 0.4).to_doc()
    assert random_world(7, 2, [3, 2], 0.4).to_doc() != random_world(8, 2, [3, 2], 0.4).to_doc()


def test_world_is_hashable():
    """Worlds hash by identity, so they can key a dict."""
    a, b = uniform_world((2, 2)), uniform_world((2, 2))
    seen = {a: "a", b: "b"}
    assert hash(a) == hash(a) and seen[a] == "a" and seen[b] == "b"


def test_every_world_obeys_the_support_cap():
    """A factor grid above DEFAULT_SUPPORT_CAP cells is refused however the
    world is built; the 2^12 grid at the cap is accepted."""
    assert uniform_world((2,) * 12).support_size == DEFAULT_SUPPORT_CAP
    with pytest.raises(SupportTooLarge):
        uniform_world((2,) * 13)
    size = 1 << 13
    doc = {"version": 1, "n": 13, "cards": [2] * 13, "prior": [1 / size] * size, "gen": list(range(size))}
    with pytest.raises(SupportTooLarge):
        world_from_doc(doc)
    with pytest.raises(SupportTooLarge):
        DiscreteWorld((DEFAULT_SUPPORT_CAP + 1,), np.eye(1, DEFAULT_SUPPORT_CAP + 1)[0], np.arange(DEFAULT_SUPPORT_CAP + 1))


def test_random_world_support_cap():
    with pytest.raises(SupportTooLarge):
        random_world(0, 4, [9, 9, 9, 9], 0.0)
    with pytest.raises(ArityMismatch, match="cardinalities >= 2"):
        random_world(0, 2, [1, 2], 0.0)
    with pytest.raises(ArityMismatch, match="cardinalities >= 2"):
        random_world(0, 0, [], 0.5)  # no factors: no diagonal to correlate


# -- zig-zag connectivity -----------------------------------------------------------


def test_zigzag_full_grid_always_connected():
    w = uniform_world((2, 3, 2))
    for ib in range(1 << 3):
        for jb in range(1 << 3):
            assert zigzag_connected_support(w.support, IndexSet(3, ib), IndexSet(3, jb))


def test_zigzag_diagonal_support_disconnected():
    prior = np.zeros((2, 2))
    prior[0, 0] = prior[1, 1] = 0.5
    w = DiscreteWorld((2, 2), prior, [[0, -1], [-1, 1]])
    I, J = IndexSet.of([1], 2), IndexSet.of([2], 2)
    assert not zigzag_connected_support(w.support, I, J)
    # one step may change both coordinates when they all lie in I
    assert zigzag_connected_support(w.support, IndexSet.of([1, 2], 2), IndexSet.of([1, 2], 2))


def test_zigzag_empty_union_vacuously_true():
    prior = np.zeros((2, 2))
    prior[0, 0] = prior[1, 1] = 0.5
    w = DiscreteWorld((2, 2), prior, [[0, -1], [-1, 1]])
    E = IndexSet(2, 0)
    assert zigzag_connected_support(w.support, E, E)


def test_zigzag_symmetry_and_fixed_union_monotonicity():
    rng = np.random.default_rng(0)
    for trial in range(20):
        w = random_world(int(rng.integers(2**31)), 3, [2, 2, 2], float(rng.uniform(0, 1)))
        sets = [IndexSet(3, b) for b in range(8)]
        conn = {}
        for I in sets:
            for J in sets:
                conn[(I.bits, J.bits)] = zigzag_connected_support(w.support, I, J)
        for I in sets:
            for J in sets:
                assert conn[(I.bits, J.bits)] == conn[(J.bits, I.bits)]
        # growing I or J while keeping the union fixed only adds steps
        for I in sets:
            for J in sets:
                if not conn[(I.bits, J.bits)]:
                    continue
                for I2 in sets:
                    for J2 in sets:
                        if (
                            I.bits & ~I2.bits == 0
                            and J.bits & ~J2.bits == 0
                            and (I2 | J2) == (I | J)
                        ):
                            assert conn[(I2.bits, J2.bits)]


def reference_zigzag(support, I, J):
    """Oracle: union-find over support rows, merging rows that share their
    projection onto the complement of I (or of J) through tuple-keyed dicts;
    connected when rows sharing their projection off I u J share a root."""
    m, n = support.shape
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge_by(cols):
        groups = {}
        for r in range(m):
            key = tuple(support[r, [c for c in range(n) if c not in cols]])
            if key in groups:
                parent[find(r)] = find(groups[key])
            else:
                groups[key] = r

    merge_by(set(I.cols()))
    merge_by(set(J.cols()))
    outside = [c for c in range(n) if c not in set(I.union(J).cols())]
    must = {}
    for r in range(m):
        if find(must.setdefault(tuple(support[r, outside]), r)) != find(r):
            return False
    return True


def _random_support_world(rng, n, cards, shape):
    """A world over ``cards``: a random_world of correlation 0, a random
    correlation or 1 (a diagonal support), or one on a random subset of the
    grid."""
    if shape != "subset":
        corr = float(rng.uniform()) if shape == "random" else float(shape == "diagonal")
        return random_world(int(rng.integers(2**31)), n, cards, corr)
    mask = rng.uniform(size=cards) < 0.5
    mask.flat[rng.integers(mask.size)] = True
    return DiscreteWorld(cards, mask / mask.sum(), np.arange(mask.size).reshape(cards))


@pytest.mark.parametrize("shape", ["independent", "random", "diagonal", "subset"])
def test_zigzag_equals_reference_on_every_pair(shape):
    rng = np.random.default_rng(5)
    disconnected = 0
    for trial in range(40):
        n = int(rng.integers(1, 4))
        cards = [int(k) for k in rng.integers(2, 5, n)]
        w = _random_support_world(rng, n, cards, shape)
        sets = [IndexSet(n, b) for b in range(1 << n)]
        for I in sets:
            for J in sets:
                expected = reference_zigzag(w.support, I, J)
                assert zigzag_connected_support(w.support, I, J) == expected, (w.support, I, J)
                disconnected += not expected
    # a full grid is always connected; the sparse supports are not
    assert (disconnected > 0) == (shape in ("diagonal", "subset"))


@pytest.mark.parametrize("shape", ["independent", "random", "diagonal", "subset"])
def test_zigzag_nested_shortcut_equals_label_spreading(shape):
    """When I holds J or J holds I, the shortcut's True is what the
    union-find reference computes over every pair of rows."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        cards = [int(k) for k in rng.integers(2, 4, n)]
        w = _random_support_world(rng, n, cards, shape)
        connected = zigzag_connectivity(w.support)
        for i_bits in range(1 << n):
            for j_bits in range(1 << n):
                if i_bits & j_bits not in (i_bits, j_bits):
                    continue
                I, J = IndexSet(n, i_bits), IndexSet(n, j_bits)
                assert reference_zigzag(w.support, I, J) is connected(i_bits, j_bits) is True


@pytest.mark.parametrize("shape", ["independent", "random", "diagonal", "subset"])
def test_assumption_report_zigzag_failures_equal_reference(shape):
    """The report's failures are the reference's disconnected pairs among
    the sets of one or two factors, each pair listed once, smaller first."""
    rng = np.random.default_rng(13)
    disconnected = 0
    for trial in range(30):
        n = int(rng.integers(2, 5))
        cards = [int(k) for k in rng.integers(2, 4, n)]
        w = _random_support_world(rng, n, cards, shape)
        sets = [IndexSet(n, b) for b in range(1 << n) if 1 <= bin(b).count("1") <= 2]
        expected = sorted(
            (I.members(), J.members())
            for I in sets
            for J in sets
            if I.members() < J.members() and not reference_zigzag(w.support, I, J)
        )
        failures = check_assumptions(w)
        assert sorted(failures) == expected and len(set(failures)) == len(failures), w.support
        disconnected += len(expected)
    assert (disconnected > 0) == (shape in ("diagonal", "subset"))


@pytest.mark.parametrize("cut", [None, 1000], ids=["chain", "broken"])
def test_zigzag_staircase_support(cut):
    """Rows (i, i) and (i, i + 1) form one chain of 4,095 single-coordinate
    steps, the longest path a support of that size can need; dropping
    (cut, cut + 1) splits it in two."""
    i = np.arange(2048)
    support = np.concatenate([np.column_stack([i, i]), np.column_stack([i[:-1], i[:-1] + 1])])
    if cut is not None:
        support = support[~((support[:, 0] == cut) & (support[:, 1] == cut + 1))]
    support = support[np.lexsort(support.T[::-1])]
    for I, J in [(IndexSet.of([1], 2), IndexSet.of([2], 2)), (IndexSet.of([2], 2), IndexSet.of([1], 2))]:
        assert zigzag_connected_support(support, I, J) == reference_zigzag(support, I, J) == (cut is None)


# -- candidate models -----------------------------------------------------------------


def test_candidate_requires_permutation(world22):
    with pytest.raises(WorldError):
        CandidateModel(world22, [0, 0, 1, 2])
    with pytest.raises(WorldError, match="perm entry out of range"):
        CandidateModel(world22, [2**64, 0, 1, 2])


def test_candidate_rejects_non_integer_entries(world22):
    """Floats, strings and booleans are not cast to row numbers."""
    for perm in ([0.7, 1, 2, 3], [0, 1, 2, 3.9], ["0", "1", "2", "3"], np.arange(4.0), [True, 0, 2, 3]):
        with pytest.raises(WorldError, match="perm entries must be integers"):
            CandidateModel(world22, perm)
    with pytest.raises(WorldError, match="perm entries must be integers"):
        CandidateModel(uniform_world((2,)), [True, False])


def test_candidate_keeps_its_own_perm(world22):
    """The caller's array stays writeable, and a model built from a row of
    a 2-D array keeps its perm when that array changes."""
    p = np.array([1, 0, 2, 3])
    CandidateModel(world22, p)
    assert p.flags.writeable
    rows = np.array([[1, 0, 2, 3], [0, 1, 2, 3]])
    model = CandidateModel(world22, rows[0])
    rows[0] = [3, 2, 1, 0]
    assert model.perm.tolist() == [1, 0, 2, 3]


def test_pushforward_observation_distribution_matches():
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = random_world(int(rng.integers(2**31)), 2, [2, 3], float(rng.uniform(0, 1)))
        model = CandidateModel(w, rng.permutation(w.support_size))
        obs_world = {}
        for t, p in zip(w.support, w.support_probs):
            x = int(w.gen[tuple(t)])
            obs_world[x] = obs_world.get(x, 0.0) + float(p)
        obs_model = {}
        for r in range(model.support_size):
            x = int(w.gen[tuple(model.mapped[r])])  # g = g* . phi on latent support row r
            obs_model[x] = obs_model.get(x, 0.0) + float(model.probs[r])
        assert set(obs_world) == set(obs_model)
        assert all(abs(obs_world[k] - obs_model[k]) <= 1e-12 for k in obs_world)


def test_candidate_encoder_inverts_generator(world22, xor_model):
    # e = phi^-1 . e* undoes g: the latent row is read off the inverse bijection
    x = xor_model.observe(xor_model.support)
    encode = {int(v): r for r, v in enumerate(world22.obs_ids)}  # e*: observation id to support row
    rows = [encode[int(v)] for v in x]
    assert np.array_equal(xor_model.support[xor_model.inv_perm[rows]], xor_model.support)


def test_identity_candidate(world22):
    model = CandidateModel.identity(world22)
    assert model.mapped[world22.rows_of(np.array([[1, 0]]))].tolist() == [[1, 0]]
    assert model.observe(np.array([[1, 0]])).tolist() == [world22.gen[1, 0]]


@pytest.mark.parametrize(
    "factors",
    [(-1, 0), (0, -1), (2, 0), (0, 2), (0,), (0, 0, 0), ()],
    ids=["neg-first", "neg-second", "range-first", "range-second", "short", "long", "empty"],
)
def test_row_of_rejects_tuples_outside_the_factor_space(world22, factors):
    with pytest.raises(ZeroMassConditioning):
        world22.rows_of(np.array([factors]))  # negative values must not wrap to the last row


def test_row_of_off_support_and_round_trip():
    world, _ = schematic_world("zigzag-violation")
    assert [world.rows_of(t[None])[0] for t in world.support] == list(range(world.support_size))
    assert world.rows_of(world.support).tolist() == list(range(world.support_size))
    with pytest.raises(ZeroMassConditioning):
        world.rows_of(np.array([[0, 1, 0]]))
    with pytest.raises(ZeroMassConditioning):
        world.rows_of(np.array([[0, 0, 0], [1, 0, 1]]))


def test_from_map_rejects_off_support_and_wrong_arity_images():
    world, _ = schematic_world("zigzag-violation")
    with pytest.raises(ZeroMassConditioning):
        CandidateModel.from_map(world, lambda t: (t[0], 1 - t[1], t[2]))  # off the diagonal support
    with pytest.raises(ZeroMassConditioning):
        CandidateModel.from_map(world, lambda t: t[:2])
    with pytest.raises(ZeroMassConditioning):
        CandidateModel.from_map(world, lambda t: t + (0,))


def test_from_map_rejects_non_bijective_maps(world22):
    with pytest.raises(WorldError):
        CandidateModel.from_map(world22, lambda t: (t[0], 0))
    world, _ = schematic_world("zigzag-violation")
    with pytest.raises(WorldError):
        CandidateModel.from_map(world, lambda t: (0, 0, t[2]))


@pytest.mark.parametrize("corr", [0.0, 0.5, 1.0])
def test_candidate_observe_equals_per_row_apply_gen(corr):
    rng = np.random.default_rng(int(corr * 10))
    for _ in range(8):
        n = int(rng.integers(1, 4))
        cards = [int(rng.integers(2, 4)) for _ in range(n)]
        world = random_world(int(rng.integers(2**31)), n, cards, corr)
        model = CandidateModel(world, rng.permutation(world.support_size))
        z = model.sample_latents(rng, 50)
        expected = [world.gen[tuple(model.mapped[world.rows_of(row[None])[0]])] for row in z]
        assert model.observe(z).tolist() == expected


# -- schematic worlds --------------------------------------------------------------------


def test_schematic_kinds_construct():
    for kind in ("consistent-not-restrictive", "restrictive-not-consistent", "zigzag-violation"):
        world, model = schematic_world(kind)
        assert model.base is world
    with pytest.raises(WorldError):
        schematic_world("nope")


def test_zigzag_violation_support_shape():
    world, model = schematic_world("zigzag-violation")
    assert world.n == 3
    pairs = {tuple(t[:2]) for t in world.support.tolist()}
    assert pairs == {(0, 0), (1, 1)}


# -- serialization ---------------------------------------------------------------------------


def test_world_doc_round_trip(tmp_path):
    w = random_world(11, 2, [3, 2], 0.37)
    path = tmp_path / "w.json"
    save_world(w, path)
    again = load_world(path)
    assert again.to_doc() == w.to_doc()
    # bit-exact prior round trip through the decimal representation
    assert json.loads(path.read_text())["prior"] == [float(v) for v in w.prior.reshape(-1)]


def test_world_doc_malformed(tmp_path):
    with pytest.raises(WorldError):
        world_from_doc({"version": 1, "n": 2})
    with pytest.raises(WorldError):
        world_from_doc({"version": 99, "n": 1, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]})
    with pytest.raises(ArityMismatch):
        world_from_doc({"version": 1, "n": 2, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]})
    with pytest.raises(WorldError, match="prior must be an array of numbers"):
        world_from_doc({"version": 1, "n": 1, "cards": [2], "prior": ["a", 0.5], "gen": [0, 1]})
    for prior, gen in (([1.0], [0, 1]), ([0.5, 0.5], [0])):
        with pytest.raises(WorldError, match="must have 2 entries"):
            world_from_doc({"version": 1, "n": 1, "cards": [2], "prior": prior, "gen": gen})
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(WorldError, match="not valid JSON"):
        load_world(path)


@pytest.mark.parametrize("gen", [[0, "a"], [0, 1.5], [0, None], [0, True], "01"])
def test_world_doc_non_integer_gen_rejected(gen):
    with pytest.raises(WorldError):
        world_from_doc({"version": 1, "n": 1, "cards": [2], "prior": [0.5, 0.5], "gen": gen})
