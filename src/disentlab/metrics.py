"""Consistency and restrictiveness metrics, raw and normalized, plus the
discretized mutual information gap and a Monte-Carlo distribution-match test.

Raw consistency of an index set I measures the expected squared deviation
of the oracle-measured factors s_I when the latent coordinates outside I
are conditionally resampled; restrictiveness is its complement-set dual.
Normalized scores divide by the deviation of unconditioned i.i.d. pairs,
giving a dimensionless value in [0, 1].

Discrete factor values are compared by squared indicator distance (one per
differing coordinate); continuous factors by squared Euclidean distance.
Exact mode enumerates conditional value distributions per group, writing
the numerator and the numerator-to-denominator gap as sums of products of
nonnegative terms, so the [0, 1] score bound survives floating point
verbatim rather than through clamping.  One exact engine pass, over a
memoised support layout, batches index sets as well as models (a (k, m)
array of bijections); a verdict reads I for C(I), ~I for R(I), both for D(I).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .calculus import Fact
from .continuous import DiskRotationWorld, RotationCandidate, _redraw
from .errors import ArityMismatch, DegenerateDenominator, MetricError, ZeroEntropyFactor
from .indexset import IndexSet
from .supervision import SupervisionSpec, sample_features
from .worlds import CandidateModel, _draw_rows, _resample_rows, group_ids, joint_table, mutual_information

GENERATOR_BASED = "generator"
ENCODER_BASED = "encoder"

DEGENERACY_THRESHOLD = 1e-9
EXACT_TOL = 1e-12
MIG_BINS = 20  # equal-mass bins per continuous coordinate in MC ``mig``
MC_CHUNK = 8192
EXACT_CHUNK = 1024  # models per exact-engine pass: at most 1024 m x pairs bins per array


def report_doc(report) -> dict:
    """A report dataclass's fields in declaration order, as JSON values:
    index sets become their members, tuples lists, nested reports dicts
    and non-finite floats None."""
    return {f.name: _doc_value(getattr(report, f.name)) for f in fields(report)}


def _doc_value(v):
    if isinstance(v, IndexSet):
        return list(v.members())
    if is_dataclass(v):
        return report_doc(v)
    if isinstance(v, (list, tuple)):
        return [_doc_value(x) for x in v]
    return None if isinstance(v, float) and not np.isfinite(v) else v


@dataclass(frozen=True)
class ScoreReport:
    """One normalized score with its ingredients and uncertainty."""

    direction: str
    kind: str  # "consistency" | "restrictiveness"
    index_set: IndexSet
    score: float
    numerator: float
    denominator: float
    mode: str  # "exact" | "mc"
    samples: int = 0
    std_error: float = 0.0
    seed: int | None = None

    to_dict = report_doc


@dataclass(frozen=True)
class EvaluationTarget:
    """A candidate model evaluated in one direction against its oracle.

    generator-based: the model's (prior, generator) is probed through the
    oracle encoder; encoder-based: the model's encoder is probed on
    observations from the oracle (prior, generator).
    """

    direction: str
    model: object

    def __post_init__(self):
        if self.direction not in (GENERATOR_BASED, ENCODER_BASED):
            raise MetricError(f"unknown direction {self.direction!r}")
        if not isinstance(self.model, (CandidateModel, RotationCandidate)):
            raise MetricError(f"cannot evaluate a {type(self.model).__name__}")

    @classmethod
    def generator_based(cls, model) -> "EvaluationTarget":
        return cls(GENERATOR_BASED, model)

    @classmethod
    def encoder_based(cls, model) -> "EvaluationTarget":
        return cls(ENCODER_BASED, model)

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.model, CandidateModel)

    @property
    def n(self) -> int:
        return self.model.n

    def exact_view(self):
        """(latent support rows, probabilities, measured rows, cards)."""
        if not self.is_discrete:
            raise MetricError("exact enumeration needs a discrete model; use mode='mc'")
        m = self.model
        if self.direction == GENERATOR_BASED:
            return m.support, m.probs, m.mapped, m.cards
        return m.support, m.base.support_probs, m.support[m.inv_perm], m.cards

    def mc_parts(self, cols):
        """(sample, resample, measure) for Monte-Carlo mode, built for the
        0-based measured factors ``cols``: ``sample(rng, k)`` draws a batch of
        k latents from the prior, ``resample(rng, batch, rcols)`` redraws
        their coordinates ``rcols`` from the exact conditional, and
        ``measure(batch)`` gives the factors ``cols``, one row per factor.
        Discrete batches hold support rows, drawn through one guide table.  A
        rotation score that reads the angle alone (``phi`` and ``phi_inverse``
        copy it) steps the generator past the disk's uniforms and skips its
        trig, so its draws and generator states are those of the full draw."""
        m, cols = self.model, list(cols)
        if self.is_discrete:
            _, probs, measured, _ = self.exact_view()
            measured = measured.T[cols]
            return (lambda rng, k: _draw_rows(rng, probs, k),
                    lambda rng, rows, rcols: _resample_rows(rng, m.base, probs, rows, rcols),
                    lambda rows: measured.take(rows, axis=1))
        if cols == [0]:
            return (lambda rng, k: _redraw(rng, np.empty((k, 3)), {0, 1, 2}, disk=False),
                    lambda rng, z, rcols: _redraw(rng, z.copy(), set(rcols), disk=False),
                    lambda z: z[:, cols].T)
        sampler, phi = (m, m.phi) if self.direction == GENERATOR_BASED else (m.base, m.phi_inverse)
        return sampler.sample_latents, sampler.resample_latents, lambda z: phi(z)[:, cols].T


# -- exact engine ----------------------------------------------------------------


@lru_cache(maxsize=256)
def _pair_layout(shape: tuple, data: bytes, cards: tuple, sets: tuple) -> tuple:
    """Read-only support-only arrays of the (set, column) pairs, in set order,
    and their (pair, group) segments: pair columns, row first cells per pair,
    segment first cells, cell segments, pair first cells, cell (pair, value)
    slots of the marginal, the sets with columns and their first pairs."""
    for I in (I for I in sets if I.n != shape[1] or I.nuisance):
        raise ArityMismatch(f"index set {I!r} does not match target arity {shape[1]}")
    support, set_cols = np.frombuffer(data, dtype=np.int64).reshape(shape), [I.cols() for I in sets]
    grouped = [group_ids(support, cols, cards) for cols in set_cols]
    ids = np.array([g for g, _ in grouped], dtype=np.int64).reshape(-1, shape[0])
    counts = np.array([k for _, k in grouped], dtype=np.int64)
    pairs = [(s, c) for s, cols in enumerate(set_cols) for c in cols]
    pair_set, col = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    card, groups = np.asarray(cards, dtype=np.int64)[col], counts[pair_set]
    seg_card = np.repeat(card, groups)
    segs = np.cumsum(seg_card) - seg_card
    cell_seg = np.repeat(np.arange(len(segs)), seg_card)
    pair_cells = np.cumsum(groups * card) - groups * card
    slot = np.repeat(np.cumsum(card) - card, groups * card) + np.arange(len(cell_seg)) - segs[cell_seg]
    layout = (col, pair_cells + ids[pair_set].T * card, segs, cell_seg, pair_cells, slot,
              *np.unique(pair_set, return_index=True))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _exact_stats(support, probs, mapped, cards, sets, gap: bool = False):
    """(numerator, gap) of the conditional-resampling deviation of every
    index set in ``sets``, for models sharing one latent support: ``probs``
    is (..., m) and ``mapped`` (..., m, n), so a single model has no batch
    axis, and both results are (..., len(sets)).  The gap is computed only
    when asked for (``gap=True``, the normalized scores); otherwise it is
    None, since a verdict reads the numerator alone.

    For an index set I, numerator = sum over the groups of rows that agree
    on I of the within-group probability that an i.i.d. pair of measured
    values differs, per coordinate of I: the sum of t (w - t) / w over the
    masses t of a group's values, w being the group's mass.  gap =
    denominator - numerator, expanded as the group-weighted squared distance
    between conditional and marginal value distributions.  Both are
    accumulated purely from products, ratios and squares of nonnegative
    floats (w - t is one: a sum of nonnegative floats is no smaller than its
    terms).  One bincount gives the (model, pair, group, value) cells of
    ``EXACT_CHUNK`` models; in-order ``np.add.reduceat`` sums give each
    group's mass, each pair's cells and each set's columns, so an entry
    does not depend on the other sets, models or cards of the call.
    """
    col, base, segs, cell_seg, pair_cells, slot, filled, set_pairs = _pair_layout(
        support.shape, np.asarray(support, dtype=np.int64).tobytes(), tuple(cards), tuple(sets))
    shape, cells = probs.shape[:-1] + (len(sets),), len(cell_seg)
    probs, mapped = probs.reshape(-1, support.shape[0]), mapped.reshape((-1,) + support.shape)
    num = np.zeros((len(probs), len(sets)))
    gaps = np.zeros_like(num) if gap else None
    for lo in range(0, len(probs) if len(col) else 0, EXACT_CHUNK):
        bins = mapped[lo:lo + EXACT_CHUNK, :, col] + base  # (k, m, pairs)
        k = len(bins)
        if k > 1:  # model i's cells come after those of the models before it
            bins += np.arange(0, k * cells, cells)[:, None, None]
        table = np.bincount(bins.ravel(), np.repeat(probs[lo:lo + k], len(col)), k * cells).reshape(k, cells)
        w = np.add.reduceat(table, segs, axis=1)[:, cell_seg]  # each cell's group mass
        pair_num = np.add.reduceat(table * (w - table) / w, pair_cells, axis=1)
        num[lo:lo + k, filled] = np.add.reduceat(pair_num, set_pairs, axis=1)
        if gap:
            cond = table / w
            slots = (np.arange(k) * (slot[-1] + 1))[:, None] + slot
            marginal = np.bincount(slots.ravel(), (w * cond).ravel()).reshape(k, -1)
            dev = np.add.reduceat(w * (cond - marginal[:, slot]) ** 2, pair_cells, axis=1)
            gaps[lo:lo + k, filled] = np.add.reduceat(dev, set_pairs, axis=1)
    return num.reshape(shape), gaps.reshape(shape) if gap else None


@lru_cache(maxsize=256)
def _verdict_layout(facts: tuple) -> tuple:
    """(distinct index sets read, each fact's reads in a row, each fact's
    first read) of a tuple of facts, the last two as read-only arrays:
    C(I) reads I, R(I) reads ~I, and D(I) reads both."""
    slots, reads, starts = {}, [], []
    for f in facts:
        I = ~f.index_set if f.kind == "R" else f.index_set
        starts.append(len(reads))
        reads += [slots.setdefault(J, len(slots)) for J in ([I, ~I] if f.kind == "D" else [I])]
    reads, starts = np.array(reads, dtype=np.intp), np.array(starts, dtype=np.intp)
    reads.flags.writeable = starts.flags.writeable = False
    return tuple(slots), reads, starts


def _fact_verdicts(raw, facts, tol: float) -> np.ndarray:
    """Verdicts of one C/R/D fact (shape (...)) or of a list of them
    (..., F) from one call ``raw(sets)``, the raw consistency (..., S) of the
    distinct index sets the facts read (see ``_verdict_layout``)."""
    if not 0 <= tol < np.inf:  # NaN fails too
        raise MetricError(f"tol must be a nonnegative number below infinity, got {tol!r}")
    single = isinstance(facts, Fact)
    sets, reads, starts = _verdict_layout((facts,) if single else tuple(facts))
    ok = np.logical_and.reduceat((raw(list(sets)) <= tol)[..., reads], starts, axis=-1)
    return ok[..., 0] if single else ok


def generator_holds(world, perms, facts) -> np.ndarray:
    """Exact verdicts for the generator-based targets of the models with
    bijections ``perms`` (..., m), from one engine call: for one fact entry
    i, and for a list of facts row i (shape (..., F)), equals ``holds`` on
    ``CandidateModel(world, perms[i])`` at ``EXACT_TOL``."""
    perms = np.asarray(perms, dtype=np.int64)
    view = world.support, world.support_probs[perms], world.support[perms], world.cards
    return _fact_verdicts(lambda sets: _exact_stats(*view, sets)[0], facts, EXACT_TOL)


def raw_consistency(target: EvaluationTarget, I: IndexSet) -> float:
    """Exact expected squared deviation of the measured s_I under the
    fix-I / resample-rest process (zero iff C(I) holds)."""
    return float(_exact_stats(*target.exact_view(), [I])[0][0])


# -- Monte-Carlo engine ------------------------------------------------------------


def _mc_deviations(target, I: IndexSet, samples: int, seed, iid: bool = True):
    """(conditional-pair deviations, i.i.d.-pair deviations), one per
    sample; the i.i.d. pairs only with ``iid`` (None otherwise), since a
    verdict reads the conditional pairs alone.  Each kind draws from its
    child of the seed's SeedSequence (conditional first), one derived seed
    per ``MC_CHUNK`` samples, so a result does not depend on how the chunks
    are scheduled.

    Discrete factors count differing coordinates (squared indicator
    distance); continuous factors use squared Euclidean distance.
    """
    if I.n != target.n or I.nuisance:
        raise ArityMismatch(f"index set {I!r} does not match target arity {target.n}")
    if samples < 1:
        raise MetricError(f"Monte-Carlo mode needs at least one sample, got {samples}")
    cols, resample_cols = I.cols(), I.complement().cols()
    sample, resample, measure = target.mc_parts(cols)
    sizes = [min(MC_CHUNK, samples - lo) for lo in range(0, samples, MC_CHUNK)]

    def distance(z, z2):
        a, b = measure(z), measure(z2)
        if target.is_discrete:
            return (a != b).sum(axis=0, dtype=float)
        return ((a - b) ** 2).sum(axis=0)

    def num_chunk(rng, m):
        z = sample(rng, m)
        return distance(z, resample(rng, z, resample_cols))

    def den_chunk(rng, m):
        return distance(sample(rng, m), sample(rng, m))

    def run(chunk, seq):
        seeds = seq.spawn(len(sizes))
        return np.concatenate([chunk(np.random.default_rng(s), size) for s, size in zip(seeds, sizes)])

    seq_num, seq_den = np.random.SeedSequence(seed).spawn(2)
    return run(num_chunk, seq_num), run(den_chunk, seq_den) if iid else None


def _ratio_std_error(num_devs, den_devs) -> float:
    """Delta-method standard error of 1 - mean(num)/mean(den) for two
    independent samples: sqrt(Var(N)/D^2 + N^2 Var(D)/D^4)."""
    if len(num_devs) < 2 or len(den_devs) < 2:
        return float("nan")
    num, den = num_devs.mean(), den_devs.mean()
    var_num = num_devs.var(ddof=1) / len(num_devs)
    var_den = den_devs.var(ddof=1) / len(den_devs)
    return float(np.sqrt(var_num / den**2 + num**2 * var_den / den**4))


# -- normalized scores ---------------------------------------------------------------


def _normalized(target, I, kind, report_set, mode, samples, seed):
    if mode == "exact":
        num, gap = (float(a[0]) for a in _exact_stats(*target.exact_view(), [I], gap=True))
        den = num + gap
    elif mode == "mc":
        num_devs, den_devs = _mc_deviations(target, I, samples, seed)
        num, den = float(num_devs.mean()), float(den_devs.mean())
    else:
        raise MetricError(f"unknown mode {mode!r}; expected 'exact' or 'mc'")
    if den <= DEGENERACY_THRESHOLD:
        raise DegenerateDenominator(
            f"{kind} denominator {den!r} for I={report_set} is uninformative"
        )
    if mode == "exact":
        return ScoreReport(target.direction, kind, report_set, gap / den, num, den, "exact")
    return ScoreReport(
        target.direction, kind, report_set, 1.0 - num / den, num, den, "mc", samples,
        _ratio_std_error(num_devs, den_devs), seed,
    )


def normalized_consistency(
    target: EvaluationTarget,
    I: IndexSet,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> ScoreReport:
    """Score 1 - num/den: one minus the conditional-resampling deviation over
    the i.i.d.-pair deviation.  Equals 1 iff C(I) holds; raises
    DegenerateDenominator on uninformative codes."""
    return _normalized(target, I, "consistency", I, mode, samples, seed)


def normalized_restrictiveness(
    target: EvaluationTarget,
    I: IndexSet,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> ScoreReport:
    """Dual score over the complement set, reported against I itself."""
    return _normalized(target, I.complement(), "restrictiveness", I, mode, samples, seed)


def holds(
    target: EvaluationTarget,
    fact: Fact,
    tol: float = EXACT_TOL,
    mode: str = "exact",
    samples: int = 10000,
    seed: int = 0,
) -> bool:
    """Whether a C/R/D fact holds: the defining raw deviation(s) are zero
    within tol.  D(I) requires both; the empty set holds vacuously."""
    if mode not in ("exact", "mc"):
        raise MetricError(f"unknown mode {mode!r}; expected 'exact' or 'mc'")

    def raw(sets) -> np.ndarray:
        if mode == "exact":
            return _exact_stats(*target.exact_view(), sets)[0]
        return np.array([_mc_deviations(target, J, samples, seed, iid=False)[0].mean() for J in sets])

    return bool(_fact_verdicts(raw, fact, tol))


# -- mutual information gap ------------------------------------------------------------


@dataclass(frozen=True)
class MigReport:
    """Per-factor normalized gaps between the top two latent informations."""

    per_factor: tuple[float, ...]
    mean: float
    mode: str
    samples: int = 0

    to_dict = report_doc


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def mig(
    target: EvaluationTarget,
    *,
    samples: int = 10000,
    seed: int = 0,
) -> MigReport:
    """Discretized mutual information gap of the latent-to-factor alignment.

    Discrete targets use the exact joint of (latent j, measured factor k);
    continuous targets discretize samples into ``MIG_BINS`` equal-mass bins
    first, each sample weighing 1/samples.  A factor whose values (or bins)
    put all mass on one raises ZeroEntropyFactor.
    """
    n = target.n
    if target.is_discrete:
        latents, weights, measured, cards = target.exact_view()
        mode, samples = "exact", 0
    else:
        if samples < 1:
            raise MetricError(f"Monte-Carlo mode needs at least one sample, got {samples}")
        sample, _, measure = target.mc_parts(range(n))
        z = sample(np.random.default_rng(seed), samples)
        s = measure(z)
        latents = np.column_stack([_equal_mass_bins(z[:, j], MIG_BINS) for j in range(n)])
        measured = np.column_stack([_equal_mass_bins(s[k], MIG_BINS) for k in range(n)])
        weights, cards, mode = np.full(samples, 1.0 / samples), (MIG_BINS,) * n, "mc"
    gaps = []
    for k in range(n):
        marginal = joint_table(measured[:, k], 0, weights, cards[k], 1)[:, 0]
        if np.count_nonzero(marginal) <= 1:
            raise ZeroEntropyFactor(f"factor {k + 1} has zero entropy")
        h = _entropy(marginal)
        joints = (joint_table(latents[:, j], measured[:, k], weights, cards[j], cards[k]) for j in range(n))
        mis = sorted((_structured_mi(joint, h) for joint in joints), reverse=True)
        second = mis[1] if n > 1 else 0.0  # single-latent convention: no runner-up
        gaps.append((mis[0] - second) / h)
    return MigReport(tuple(gaps), float(np.mean(gaps)), mode, samples)


def _structured_mi(joint: np.ndarray, h_col: float) -> float:
    """Mutual information of a joint table, with two structurally exact
    short-circuits: deterministic rows give exactly the column entropy, and
    identical conditional rows give exactly zero.  Avoids log-rounding
    noise where the answer is pinned by the table's shape."""
    rows = joint[joint.sum(axis=1) > 0]
    if np.all((rows > 0).sum(axis=1) <= 1):
        return h_col
    cond = rows / rows.sum(axis=1, keepdims=True)
    if np.all(cond == cond[0]):
        return 0.0
    return mutual_information(joint)


def _equal_mass_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """The number of equal-mass quantile edges at or below each value:
    ``searchsorted(edges, values, "right")`` for finite values.  One
    comparison pass per edge beats a binary search per value; quantiles
    of a sorted copy, partitioned in place, beat quantiles of the values."""
    ids = np.zeros(len(values), dtype=np.intp)
    for edge in np.quantile(np.sort(values), np.arange(1, bins) / bins, overwrite_input=True):
        ids += values >= edge
    return ids


# -- Monte-Carlo distribution matching ----------------------------------------------------


@dataclass(frozen=True)
class MatchCheckResult:
    passed: bool
    statistic: float
    threshold: float
    p_value: float
    samples: int
    seed: int

    to_dict = report_doc


def mc_match_check(
    model,
    oracle,
    spec: SupervisionSpec,
    seed: int = 0,
    samples: int = 50000,
) -> MatchCheckResult:
    """Two-sample test between oracle and model augmented records.

    Records are binned on a pooled equal-mass grid of 4 bins per dimension
    and compared by the squared difference of cell frequencies; the pass
    threshold is the 0.99 quantile of 200 draws from the permutation null,
    a test at significance level 0.01.  The statistic depends only on cell
    counts, so a random permutation of the pooled records is drawn as the
    split of the pooled counts it makes, exactly: fair coins per record,
    then a uniform crossover from the side that holds too many, in blocks
    of as many whole draws as fit in about 2^15 random words (see
    ``_null_blocks``).  Model and oracle are any disk-rotation worlds, the
    rotation candidate included; the test is symmetric in its samples.
    """
    if not (isinstance(model, DiskRotationWorld) and isinstance(oracle, DiskRotationWorld)):
        raise MetricError("mc_match_check compares samplers of a continuous world")
    if samples < 1:
        raise MetricError(f"Monte-Carlo mode needs at least one sample, got {samples}")
    seq = np.random.SeedSequence(seed).spawn(3)
    a = sample_features(oracle, spec, np.random.default_rng(seq[0]), samples)
    b = sample_features(model, spec, np.random.default_rng(seq[1]), samples)
    cells_a, cells_b, n_cells = _grid_cells(a, b, 4)
    first = np.bincount(cells_a, minlength=n_cells)
    counts = first + np.bincount(cells_b, minlength=n_cells)
    occupied = counts > 0
    first, counts = first[occupied], counts[occupied]

    stat = float(_split_stat(first, counts, samples))
    rng = np.random.default_rng(seq[2])
    null = np.concatenate([_split_stat(x, counts, samples) for x in _null_blocks(rng, counts, samples, 200)])
    threshold = float(np.quantile(null, 0.99))
    p_value = float((1 + (null >= stat).sum()) / (len(null) + 1))
    return MatchCheckResult(bool(stat <= threshold), stat, threshold, p_value, samples, seed)


def _grid_cells(a: np.ndarray, b: np.ndarray, bins_per_dim: int):
    """Cell ids of the rows of a and b on the pooled equal-mass grid, and the
    cell count.  Each pooled column is binned from a contiguous copy of its
    two halves, so the comparison passes read memory in order."""
    ids = np.zeros(len(a) + len(b), dtype=np.int64)
    for j in range(a.shape[1]):
        ids *= bins_per_dim
        ids += _equal_mass_bins(np.concatenate([a[:, j], b[:, j]]), bins_per_dim)
    return ids[:len(a)], ids[len(a):], bins_per_dim ** a.shape[1]


_NULL_BLOCK_WORDS = 1 << 15  # random words per block of whole null draws: under about 2.5 MB of arrays


def _null_blocks(rng, counts: np.ndarray, half: int, draws: int):
    """First-half cell counts of ``draws`` uniformly random splits of the
    pooled records (positive cell counts ``counts``) with ``half`` first, as
    (draws, cells) blocks.  A fair coin per record (a popcount of the cell's
    random bits, its last word masked) picks a uniform subset given its size
    K; |K - half| records drawn uniformly from the side that holds too many
    then cross over, so the counts are exactly multivariate hypergeometric.

    A block holds as many whole draws as fit in ``_NULL_BLOCK_WORDS`` words
    (at least one), and its coin words are read before its crossover picks.
    The crossover numbers the records of the side that holds too many by one
    prefix sum of the first-half counts per row (a row whose first half
    holds too few reads ``cumsum(counts) - prefix``), offset by the row
    times the pooled size so that all rows search one sorted array; each
    pick's cell then loses or gains its record in one scatter.  The words
    come straight from the bit generator: ``mc_match_check`` builds ``rng``
    with ``default_rng``, so it is PCG64, whose raw words are those of
    ``rng.integers(2**64, dtype=np.uint64)``."""
    words = -(-counts // 64)
    starts = np.cumsum(words) - words
    mask = np.full(words.sum(), ~np.uint64(0))
    mask[starts + words - 1] >>= (64 * words - counts).astype(np.uint64)
    total, ends_of_counts = int(counts.sum()), np.cumsum(counts)
    step = max(1, _NULL_BLOCK_WORDS // len(mask))
    for done in range(0, draws, step):
        bits = rng.bit_generator.random_raw(min(step, draws - done) * len(mask)).reshape(-1, len(mask))
        bits &= mask
        pops = np.bitwise_count(bits)  # a segment sum costs per cell, so cells of one word skip it
        first = pops.astype(np.int64) if len(mask) == len(counts) else np.add.reduceat(pops, starts, 1, np.int64)
        kept = first.sum(axis=1)
        excess = kept - half
        low = excess < 0
        ends = np.cumsum(first, axis=1)
        np.subtract(ends_of_counts, ends, out=ends, where=low[:, None])
        offset = total * np.arange(len(first))
        ends += offset[:, None]
        over = np.abs(excess)
        size = np.repeat(np.where(low, total - kept, kept), over)
        base = np.repeat(offset, over)
        # Sorting keeps each pick in its row's slots; a pick equal to another is
        # drawn again, a rule that only compares picks and so favours no record.
        picks, again = np.empty(len(size), dtype=np.int64), np.arange(len(size))
        while len(again):
            picks[again] = base[again] + rng.integers(size[again])
            picks.sort()
            again = np.flatnonzero(picks[1:] == picks[:-1]) + 1
        cells = np.searchsorted(ends.reshape(-1), picks, side="right")
        np.add.at(first.reshape(-1), cells, np.repeat(np.sign(-excess), over))  # picks of one cell add up
        yield first


def _split_stat(first: np.ndarray, counts: np.ndarray, half: int):
    """Squared distance between the two halves' cell frequencies, per row of ``first``."""
    return (((2 * first - counts) / half) ** 2).sum(axis=-1)
