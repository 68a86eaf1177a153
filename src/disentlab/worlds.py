"""Tabular oracle worlds and candidate latent models over finite factor spaces.

A world is a prior over factor tuples and a generator to observation ids
that is injective on the support, so an encoder inverts it.  A candidate
model relabels the factor space through a support bijection, which makes its
observation distribution match the oracle's by construction.
"""

from __future__ import annotations

import json
from functools import cache
from math import prod
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    NonInjectiveGenerator,
    NonNormalizedPrior,
    SupportTooLarge,
    WorldError,
    ZeroMassConditioning,
)
from .indexset import IndexSet

PROB_TOL = 1e-12
DEFAULT_SUPPORT_CAP = 4096
WORLD_DOC_VERSION = 1

SCHEMATIC_KINDS = (
    "consistent-not-restrictive",
    "restrictive-not-consistent",
    "zigzag-violation",
)


def _integer_entries(values, name: str) -> np.ndarray:
    """``values`` as an array whose entries are all integers: a float, even
    an integral one, or a bool raises WorldError rather than being cast.
    Python ints stay objects, so one past int64 still reads out of range."""
    entries = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if entries.dtype.kind not in "iu" and not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries.flat):
        raise WorldError(f"{name} entries must be integers")
    return entries


class DiscreteWorld:
    """An exact oracle over a finite factor space.

    Immutable after construction; every invariant is checked eagerly:
    the factor grid has at most ``DEFAULT_SUPPORT_CAP`` cells, the prior
    normalizes to one and the generator is injective on the support, so an
    encoder inverting it exists.
    """

    def __init__(self, cards: Sequence[int], prior, gen, ordered: Sequence[bool] | None = None):
        cards = tuple(int(k) for k in cards)
        if not cards or min(cards) < 1:
            raise ArityMismatch(f"factor cardinalities must be >= 1, got {cards}")
        size = prod(cards)
        if size > DEFAULT_SUPPORT_CAP:
            raise SupportTooLarge(f"factor grid of {size} cells exceeds the support cap {DEFAULT_SUPPORT_CAP}")
        self.n = len(cards)
        self.cards = cards
        gen = _integer_entries(gen, "gen")
        try:  # new arrays, so the caller cannot change a built world
            prior, gen = np.array(prior, dtype=float), np.array(gen, dtype=np.int64)
        except OverflowError as exc:
            raise WorldError(f"prior or gen entry out of range: {exc}") from exc
        if prior.size != size or gen.size != size:
            raise WorldError(f"prior/gen arrays must have {size} entries (row-major)")
        prior, gen = prior.reshape(cards), gen.reshape(cards)

        # finite and nonnegative iff min >= 0 (NaN fails) and, if the sum is inf, every entry is finite
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, reported below
            low, total = prior.min(), float(prior.sum())
        if not low >= 0 or total == np.inf and not np.isfinite(prior).all():
            raise NonNormalizedPrior("prior entries must be finite and nonnegative")
        if abs(total - 1.0) > PROB_TOL:
            raise NonNormalizedPrior(f"prior sums to {total!r}, not 1 within {PROB_TOL}")

        self.ordered = (True,) * self.n if ordered is None else tuple(bool(b) for b in ordered)
        if len(self.ordered) != self.n:
            raise ArityMismatch("ordered flags must have one entry per factor")

        mask = prior > 0
        ids = gen[mask]
        ranked = np.sort(ids)  # nonempty: the mass sums to 1
        if ranked[0] < 0:
            raise NonInjectiveGenerator("positive-mass tuple mapped to negative observation id")
        if np.count_nonzero(ranked[1:] == ranked[:-1]):
            raise NonInjectiveGenerator("generator repeats an observation id on the support")

        self.prior = prior
        self.gen = gen
        self.support = np.array(np.nonzero(mask), dtype=np.int64).T  # np.argwhere: lexicographic row order
        self.support_probs = prior[mask]
        self.obs_ids = ids
        # dense row index over the factor grid, -1 off the support
        self._row = np.full(cards, -1, dtype=np.int64)
        self._row[mask] = np.arange(len(ids))
        for arr in (self.prior, self.gen, self.support, self.support_probs, self.obs_ids, self._row):
            arr.flags.writeable = False

    # -- basic queries -----------------------------------------------------

    @property
    def support_size(self) -> int:
        return len(self.support)

    def rows_of(self, latents: np.ndarray) -> np.ndarray:
        """Support row of each factor tuple in an (m, n) int array."""
        latents = np.asarray(latents)
        if latents.ndim != 2 or latents.shape[1] != self.n:
            raise ZeroMassConditioning(f"expected tuples of {self.n} factors, got shape {latents.shape}")
        if np.any((latents < 0) | (latents >= np.asarray(self.cards))):
            raise ZeroMassConditioning("factor value outside the factor space has zero mass")
        rows = self._row[tuple(latents.T)]
        if np.any(rows < 0):
            raise ZeroMassConditioning(f"tuple {tuple(latents[np.argmin(rows)].tolist())} has zero mass")
        return rows

    # -- distributions -----------------------------------------------------

    def factor_marginal(self, i: int) -> np.ndarray:
        """Marginal distribution of factor i (1-based)."""
        return joint_table(self.support[:, i - 1], 0, self.support_probs, self.cards[i - 1], 1)[:, 0]

    def pairwise_mi(self) -> np.ndarray:
        """Matrix of mutual informations (nats) between factor pairs."""
        out = np.zeros((self.n, self.n))
        for a in range(self.n):
            for b in range(self.n):
                if a == b:
                    continue
                joint = joint_table(self.support[:, a], self.support[:, b], self.support_probs,
                                    self.cards[a], self.cards[b])
                out[a, b] = mutual_information(joint)
        return out

    # -- sampling protocol (shared with candidate models) --------------------

    def sample_latents(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m i.i.d. factor tuples from the prior, as an (m, n) int array."""
        return self.support[_draw_rows(rng, self.support_probs, m)]

    def resample_latents(self, rng, latents: np.ndarray, resample_cols: Sequence[int]) -> np.ndarray:
        """Redraw the given 0-based coordinates from their exact conditional."""
        return self.support[_resample_rows(rng, self, self.support_probs, self.rows_of(latents), resample_cols)]

    def observe(self, latents: np.ndarray) -> np.ndarray:
        """Vectorized g* over an (m, n) array of factor tuples."""
        return self.obs_ids[self.rows_of(latents)]

    # -- serialization -------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "version": WORLD_DOC_VERSION,
            "n": self.n,
            "cards": list(self.cards),
            "ordered": list(self.ordered),
            "prior": [float(v) for v in self.prior.reshape(-1)],
            "gen": [int(v) for v in self.gen.reshape(-1)],
        }

    def __repr__(self) -> str:
        return f"DiscreteWorld(cards={self.cards}, support={self.support_size})"


def world_from_doc(doc: dict) -> DiscreteWorld:
    """Build and validate a world from its structured-text document."""
    try:
        version, n, cards = doc["version"], doc["n"], doc["cards"]
        prior = doc["prior"]
        gen = doc["gen"]
        ordered = doc.get("ordered")
    except (KeyError, TypeError) as exc:
        raise WorldError(f"malformed world document: {exc}") from exc
    if type(version) is not int or version != WORLD_DOC_VERSION:
        raise WorldError(f"unsupported world document version {version!r}")
    if type(n) is not int or not isinstance(cards, list) or not all(type(k) is int for k in cards):
        raise WorldError("n must be an integer and cards an array of integers")
    if not isinstance(prior, list) or not all(type(v) in (int, float) for v in prior):
        raise WorldError("prior must be an array of numbers")
    if not isinstance(gen, list) or not all(type(v) is int for v in gen):
        raise WorldError("gen must be an array of integers")
    if ordered is not None and not (isinstance(ordered, list) and all(type(b) is bool for b in ordered)):
        raise WorldError("ordered must be null or an array of booleans")
    if len(cards) != n:
        raise ArityMismatch(f"n={n} but {len(cards)} cardinalities listed")
    return DiscreteWorld(cards, prior, gen, ordered)


def load_world(path) -> DiscreteWorld:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
        raise WorldError(f"world file is not valid JSON: {exc}") from exc
    return world_from_doc(doc)


def save_world(world: DiscreteWorld, path):
    Path(path).write_text(json.dumps(world.to_doc()) + "\n")


# -- constructors ------------------------------------------------------------


def random_world(seed: int, n: int, cards: Sequence[int], correlation: float = 0.0) -> DiscreteWorld:
    """Seed-deterministic world with a tunable factor correlation.

    correlation=0 gives the independent uniform product prior; larger
    values mix in mass concentrated on the diagonal tuples
    (v mod k_1, ..., v mod k_n), which couples the factors.  The
    generator is a random injection into 0..support_size-1.
    """
    cards = tuple(int(k) for k in cards)
    if len(cards) != n:
        raise ArityMismatch(f"n={n} but {len(cards)} cardinalities given")
    if not cards or min(cards) < 2:
        raise ArityMismatch(f"random worlds need one or more cardinalities >= 2, got {cards}")
    if not 0.0 <= correlation <= 1.0:
        raise WorldError(f"correlation must lie in [0, 1], got {correlation}")
    size = prod(cards)
    if size > DEFAULT_SUPPORT_CAP:  # before the grid is allocated, not only when the world is built
        raise SupportTooLarge(f"support {size} exceeds cap {DEFAULT_SUPPORT_CAP}")

    rng = np.random.default_rng(seed)
    prior = np.full(cards, (1.0 - correlation) / size)
    if correlation > 0.0:
        # the largest factor's coordinate is v itself, so the cells are distinct
        weights = rng.uniform(0.2, 1.0, max(cards))
        weights /= weights.sum()
        diag = np.arange(len(weights))
        prior[tuple(diag % k for k in cards)] += correlation * weights
    prior /= prior.sum()

    gen = np.full(cards, -1, dtype=np.int64)
    mask = prior > 0
    gen[mask] = rng.permutation(np.count_nonzero(mask))
    return DiscreteWorld(cards, prior, gen)


def uniform_world(cards: Sequence[int]) -> DiscreteWorld:
    """Full-support uniform world with row-major observation ids."""
    cards = tuple(int(k) for k in cards)
    size = prod(cards)
    return DiscreteWorld(cards, np.full(cards, 1.0 / size), np.arange(size).reshape(cards))


# -- candidate models ---------------------------------------------------------


class CandidateModel:
    """A latent model derived from a world through a support bijection.

    ``perm[i] = j`` means the bijection sends support tuple i to support
    tuple j, i.e. a latent z equal to support row i is measured by the
    oracle as the factor tuple in support row j.  The induced prior is the
    pushforward q(z) = p*(phi(z)), so the model's observation distribution
    equals the oracle's exactly.  phi is held as arrays over support rows:
    ``mapped[i]`` is phi of latent row i and ``inv_perm`` gives phi^-1, and
    g = g* . phi is ``observe``.
    """

    def __init__(self, world: DiscreteWorld, perm: Sequence[int]):
        entries = _integer_entries(perm, "perm")
        try:
            perm = np.array(entries, dtype=np.int64)
        except OverflowError as exc:
            raise WorldError(f"perm entry out of range: {exc}") from exc
        m = world.support_size
        if perm.shape != (m,) or not np.array_equal(np.sort(perm), np.arange(m)):
            raise WorldError(f"perm must be a permutation of range({m})")
        self.base = world
        self.n = world.n
        self.cards = world.cards
        self.ordered = world.ordered
        self.perm = perm
        self.inv_perm = np.argsort(perm)
        self.support = world.support  # latent tuples share the oracle's value space
        self.probs = world.support_probs[perm]
        self.mapped = world.support[perm]  # row i: e* . g of latent support[i]
        for arr in (self.perm, self.inv_perm, self.probs, self.mapped):
            arr.flags.writeable = False

    @classmethod
    def identity(cls, world: DiscreteWorld) -> "CandidateModel":
        return cls(world, np.arange(world.support_size))

    @classmethod
    def from_map(cls, world: DiscreteWorld, fn: Callable[[tuple[int, ...]], Sequence[int]]) -> "CandidateModel":
        """Build from an explicit tuple-to-tuple bijection on the support."""
        return cls(world, world.rows_of(np.array([fn(tuple(int(v) for v in t)) for t in world.support])))

    @property
    def support_size(self) -> int:
        return self.base.support_size

    # -- sampling protocol ---------------------------------------------------

    def sample_latents(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self.support[_draw_rows(rng, self.probs, m)]

    def resample_latents(self, rng, latents: np.ndarray, resample_cols: Sequence[int]) -> np.ndarray:
        return self.support[_resample_rows(rng, self.base, self.probs, self.base.rows_of(latents), resample_cols)]

    def observe(self, latents: np.ndarray) -> np.ndarray:
        return self.base.obs_ids[self.perm[self.base.rows_of(latents)]]

    def __repr__(self) -> str:
        return f"CandidateModel(cards={self.cards}, perm={self.perm.tolist()})"


# -- row grouping -------------------------------------------------------------


def group_ids(rows: np.ndarray, cols, cards) -> tuple[np.ndarray, int]:
    """(group id per row, group count): the rows grouped by their values on
    the 0-based columns ``cols``.  Ids are the dense rank of a mixed-radix
    key with digit ``rows[:, c] < cards[c]``, in the lexicographic order of
    ``np.unique(rows[:, cols], axis=0)``.  A key spans prod(cards[c]) values,
    no more than the factor grid."""
    key = np.zeros(len(rows), dtype=np.int64)
    for c in cols:
        key *= int(cards[c])
        key += rows[:, c]
    seen = np.zeros(prod(int(cards[c]) for c in cols) + 1, dtype=np.int64)
    seen[key + 1] = 1
    below = np.cumsum(seen)  # below[x]: distinct keys less than x
    return below[key], int(below[-1])


# -- zig-zag connectedness -----------------------------------------------------


def zigzag_connectivity(support) -> Callable[[int, int], bool]:
    """``connected(I bits, J bits)``: whether every pair of support rows
    differing only inside I u J is joined by a path whose steps each change
    only I-coordinates or only J-coordinates.

    When one set holds the other, every step inside the smaller set is a
    step inside the larger one, which is I u J, so any such pair is one
    step apart.  Otherwise steps between rows sharing all coordinates
    outside I (or outside J) are single moves, so reachability is the
    transitive closure of "same projection onto the complement of I" and
    "same onto the complement of J".  Each row carries a component label,
    the least row index it is known to reach.  The labels are lowered to the
    group minimum through the I- and J-groupings in turn, then to their own
    row's label, until they stop changing.  The support is connected when
    rows sharing their projection onto the complement of I u J share one
    label.  Groupings are memoised per set and verdicts per unordered pair.
    """
    support = np.asarray(support)
    m, n = support.shape
    radix = cache(lambda: support.max(axis=0) + 1)  # at the first grouping: most guards never group
    groups: dict[int, tuple[np.ndarray, int]] = {}
    verdicts: dict[tuple[int, int], bool] = {}

    def group_min(bits: int, label: np.ndarray) -> np.ndarray:
        """Each row's least label among the rows sharing its values outside ``bits``."""
        if bits not in groups:
            groups[bits] = group_ids(support, [c for c in range(n) if not bits >> c & 1], radix())
        ids, count = groups[bits]
        low = np.full(count, m)
        np.minimum.at(low, ids, label)
        return low[ids]

    def connected(i_bits: int, j_bits: int) -> bool:
        if i_bits & j_bits in (i_bits, j_bits):
            return True
        key = (i_bits, j_bits) if i_bits >= j_bits else (j_bits, i_bits)
        if key not in verdicts:
            label = np.arange(m)
            while True:
                before = label
                label = group_min(j_bits, group_min(i_bits, label))
                label = label[label]  # pointer jumping: shortens long chains of steps
                if np.array_equal(label, before):
                    break
            verdicts[key] = bool(np.array_equal(group_min(i_bits | j_bits, label), label))
        return verdicts[key]

    return connected


def zigzag_connected_support(support: np.ndarray, I: IndexSet, J: IndexSet) -> bool:
    """Zig-zag connectivity of the support for one pair of index sets (see
    ``zigzag_connectivity``); ArityMismatch for sets of different universes."""
    I._check_same_universe(J)
    return zigzag_connectivity(support)(I.bits, J.bits)


# -- schematic constructions ---------------------------------------------------


def schematic_world(kind: str) -> tuple[DiscreteWorld, CandidateModel]:
    """Named counterexample worlds with their entangled candidate models.

    consistent-not-restrictive: fixing z_1 fixes factor 1, but changing
    z_1 drags factor 2 along (phi = (z1, z1 xor z2)).
    restrictive-not-consistent: changing z_1 touches only factor 1, but
    fixing z_1 does not fix it (phi = (z1 xor z2, z2)).
    zigzag-violation: the first two factors live on a two-point diagonal
    support and a third factor absorbs the region label, so
    restrictiveness holds per-coordinate but fails on the pair.
    """
    if kind == "consistent-not-restrictive":
        world = uniform_world((2, 2))
        model = CandidateModel.from_map(world, lambda t: (t[0], t[0] ^ t[1]))
        return world, model
    if kind == "restrictive-not-consistent":
        world = uniform_world((2, 2))
        model = CandidateModel.from_map(world, lambda t: (t[0] ^ t[1], t[1]))
        return world, model
    if kind == "zigzag-violation":
        # the cells (a, a, c) in row-major order, ids 0..3
        world = DiscreteWorld((2, 2, 2), [0.25, 0.25, 0, 0, 0, 0, 0.25, 0.25], [0, 1, -1, -1, -1, -1, 2, 3])
        model = CandidateModel.from_map(world, lambda t: (t[0], t[1], t[2] ^ t[0]))
        return world, model
    raise WorldError(f"unknown schematic kind {kind!r}; expected one of {SCHEMATIC_KINDS}")


# -- internal helpers -----------------------------------------------------------


def _draw_rows(rng: np.random.Generator, probs: np.ndarray, m: int) -> np.ndarray:
    """m i.i.d. indices into ``probs`` by inverse CDF: one uniform each, in order."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return _guide_rows(cum, rng.random(m))


def _guide_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` for a nondecreasing ``cum``
    ending at 1 and ``u`` in [0, 1), by guide table (Chen & Asau 1974): with K
    the least power of two >= 4 len(cum), the search starts at the count of
    ``cum`` entries <= floor(u K) / K and steps while ``cum[idx] <= u``.
    Scaling by a power of two is exact, so the start never passes the answer,
    and a draw takes about one step whatever the table's size."""
    k = 1 << (4 * len(cum) - 1).bit_length()
    idx = np.searchsorted(cum, np.arange(k) / k, side="right")[(u * k).astype(np.intp)]
    live = np.flatnonzero(cum[idx] <= u)
    while len(live):
        idx[live] += 1
        live = live[cum[idx[live]] <= u[live]]
    return idx


def _resample_rows(rng, world: DiscreteWorld, probs, rows: np.ndarray, resample_cols) -> np.ndarray:
    """Redraw the given coordinates of the support rows ``rows`` from the
    exact conditional, given the remaining coordinates, of the table
    ``probs`` over the world's support rows.  Groups of rows sharing their
    fixed values draw in lexicographic order of those values, each group's
    rows in batch order."""
    resample_cols = set(resample_cols)
    if not resample_cols <= set(range(world.n)):
        raise WorldError(f"coordinates {sorted(resample_cols)} outside this world's arity")
    if not resample_cols:
        return rows.copy()
    ids, count = group_ids(world.support, [c for c in range(world.n) if c not in resample_cols], world.cards)
    members = np.argsort(ids, kind="stable")  # support rows, group by group
    batch = ids.astype(np.min_scalar_type(count))[rows]  # 8- or 16-bit ids sort by radix
    order = np.argsort(batch, kind="stable")  # batch positions, group by group
    edges = np.searchsorted(ids[members], np.arange(count + 1))
    cuts = np.searchsorted(batch[order], np.arange(count + 1))
    out = np.empty_like(rows)
    for g in np.flatnonzero(np.diff(cuts)):
        idx, at = members[edges[g]:edges[g + 1]], order[cuts[g]:cuts[g + 1]]
        out[at] = idx[_draw_rows(rng, probs[idx] / probs[idx].sum(), len(at))]
    return out


def joint_table(a, b, weights, ka: int, kb: int) -> np.ndarray:
    """(ka, kb) table of the summed ``weights`` of the value pairs
    (a[r], b[r]), with 0 <= a < ka and 0 <= b < kb."""
    return np.bincount(a * kb + b, weights=weights, minlength=ka * kb).reshape(ka, kb)


def mutual_information(joint: np.ndarray) -> float:
    """MI in nats of a 2-D joint probability table."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (pa * pb))
    return float(np.nansum(terms))
