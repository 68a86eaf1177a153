"""Augmented data distributions for weak supervision.

Three supervision families, each a distribution over enriched records:
restricted labeling exposes (x, s_I); match pairing exposes ordered pairs
(x, x') drawn to share the factors in I; rank pairing exposes i.i.d. pairs
plus the order indicator of one scalar factor.  Share pairing and change
pairing are match-pairing specializations (share one factor / change one
set, i.e. share its complement) and canonicalize accordingly.

Exact tables (discrete worlds) are dense arrays over oracle support rows,
built by one array function that the learner shares; one record builder
draws i.i.d. records of the same processes, for the continuous family
too, as record tuples, feature matrices or dataset lines.  Dataset lines
are formatted from those columns, byte for byte what ``json.dumps`` gives
per record, and read back one JSON document per line.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    ArityMismatch,
    KindMismatch,
    SupervisionError,
    UnorderedFactorForRank,
)
from .indexset import IndexSet, parse_ints
from .worlds import CandidateModel, DiscreteWorld, group_ids

RESTRICTED_LABELING = "restricted-labeling"
MATCH_PAIRING = "match-pairing"
SHARE_PAIRING = "share-pairing"
CHANGE_PAIRING = "change-pairing"
RANK_PAIRING = "rank-pairing"

KINDS = (RESTRICTED_LABELING, MATCH_PAIRING, SHARE_PAIRING, CHANGE_PAIRING, RANK_PAIRING)

_SHORT = {
    "label": RESTRICTED_LABELING,
    "match": MATCH_PAIRING,
    "share": SHARE_PAIRING,
    "change": CHANGE_PAIRING,
    "rank": RANK_PAIRING,
}
_TO_SHORT = {v: k for k, v in _SHORT.items()}

DATASET_FORMAT = "disentlab-dataset"
MASS_TOL = 1e-12


@dataclass(frozen=True)
class SupervisionSpec:
    """A supervision strategy: a kind plus the 1-based factor indices it touches."""

    kind: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SupervisionError(f"unknown supervision kind {self.kind!r}")
        for i in self.indices:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise SupervisionError(f"factor index {i!r} is not an integer")
        object.__setattr__(self, "indices", tuple(sorted(set(int(i) for i in self.indices))))
        if self.kind == RANK_PAIRING and len(self.indices) != 1:
            raise SupervisionError("rank pairing targets exactly one factor")
        if self.kind in (SHARE_PAIRING, CHANGE_PAIRING) and not self.indices:
            raise SupervisionError(f"{self.kind} needs at least one factor index")

    def canonical(self, n: int) -> tuple[str, IndexSet]:
        """Reduce to (base kind, index set): share(I) -> match(I), change(I) -> match(~I)."""
        for i in self.indices:
            if not 1 <= i <= n:
                raise ArityMismatch(f"factor index {i} outside 1..{n}")
        I = IndexSet.of(self.indices, n)
        if self.kind == SHARE_PAIRING:
            return MATCH_PAIRING, I
        if self.kind == CHANGE_PAIRING:
            return MATCH_PAIRING, I.complement()
        return self.kind, I

    def guaranteed_index_set(self, n: int) -> IndexSet:
        """The index set whose consistency is guaranteed to a distribution matcher."""
        return self.canonical(n)[1]

    def validate_for(self, world):
        n = world.n
        kind, I = self.canonical(n)
        if kind == RANK_PAIRING:
            i = self.indices[0]
            if not world.ordered[i - 1]:
                raise UnorderedFactorForRank(f"factor {i} has no ordering; rank pairing invalid")
        return kind, I

    def to_string(self) -> str:
        return f"{_TO_SHORT[self.kind]}:{','.join(str(i) for i in self.indices)}"

    @classmethod
    def parse(cls, text: str) -> "SupervisionSpec":
        head, sep, rest = text.strip().partition(":")
        try:
            indices = parse_ints(rest)
        except ValueError:
            indices = None
        if not sep or head not in _SHORT or indices is None:
            raise SupervisionError(
                f"cannot parse supervision spec {text!r}; expected e.g. 'share:1' or 'label:1,2'"
            )
        return cls(_SHORT[head], indices)


@dataclass(frozen=True, eq=False)
class AugmentedTable:
    """Exact joint distribution of one supervision family's records.

    ``table`` is dense and indexed by oracle support row (row j is
    observation ``obs_ids[j]``): shape (m, G) for restricted labeling, one
    column per distinct I-label; (m, m) for match pairing; (m, m, 2) for
    rank pairing, the last axis being y.  ``outcomes`` marks the entries the
    family can produce, ``axes`` names the values along each axis.  Total
    mass is one within MASS_TOL.
    """

    kind: str
    index_set: IndexSet
    table: np.ndarray
    outcomes: np.ndarray
    axes: tuple

    def __post_init__(self):
        total = float(self.table.sum())
        if abs(total - 1.0) > 1e-9:
            raise SupervisionError(f"augmented table mass {total!r} is not 1")
        self.table.flags.writeable = False
        self.outcomes.flags.writeable = False

    @cached_property
    def mass(self) -> Mapping:
        """Read-only view: outcome (x, s_I), (x, x') or (x, x', y) -> mass,
        with one key per producible outcome, zero masses included."""
        return MappingProxyType({
            tuple(axis[i] for axis, i in zip(self.axes, idx)): float(self.table[idx])
            for idx in zip(*np.nonzero(self.outcomes))
        })


def tables_match(a: AugmentedTable, b: AugmentedTable, tol: float = MASS_TOL) -> bool:
    """Whether two augmented tables of one world agree within a sup-norm
    mass tolerance."""
    if a.kind != b.kind or a.index_set != b.index_set:
        raise KindMismatch(
            f"cannot compare {a.kind}{a.index_set} against {b.kind}{b.index_set}"
        )
    if a.axes != b.axes:
        raise KindMismatch(f"cannot compare {a.kind}{a.index_set} tables of different worlds")
    return float(np.abs(a.table - b.table).max()) <= tol


def row_keys(world: DiscreteWorld, kind: str, cols) -> tuple[np.ndarray, np.ndarray | None]:
    """(key per support row, distinct I-labels in lexicographic order).  The
    key is the row's I-label group id for restricted labeling and match
    pairing (labels ``None`` otherwise) and its ranked factor value for rank
    pairing."""
    support = world.support
    if kind == RANK_PAIRING:
        return support[:, cols[0]], None
    gid, count = group_ids(support, cols, world.cards)
    labels = np.empty((count, len(cols)), dtype=support.dtype)
    labels[gid] = support[:, cols]
    return gid, labels


def dense_table(kind: str, probs: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(augmented table, producible outcomes) over latent rows with
    probabilities ``probs`` and ``row_keys`` keys.  ``probs`` may carry
    leading batch axes, shape (..., m); the tables then carry them too and
    the outcomes, which depend on the keys only, do not.  A match-pairing
    entry (r, r2) is probs[r] probs[r2] / w inside one I-group of mass w,
    which ``bincount`` sums in row order."""
    if kind == RESTRICTED_LABELING:
        on = keys[:, None] == np.arange(keys.max() + 1)
        return np.where(on, probs[..., None], 0.0), on
    pp = probs[..., :, None] * probs[..., None, :]
    if kind == MATCH_PAIRING:
        on = keys[:, None] == keys
        groups = keys.max() + 1
        k = probs.size // len(keys)
        cells = np.arange(k).reshape(probs.shape[:-1] + (1,)) * groups + keys  # (model, group) per row
        w = np.bincount(cells.ravel(), weights=probs.ravel(), minlength=k * groups)[cells]
        return np.where(on, pp / w[..., :, None], 0.0), on
    y = keys[:, None] >= keys
    on = np.stack([~y, y], axis=-1)
    return np.where(on, pp[..., None], 0.0), on


def augmented_table(obj, spec: SupervisionSpec) -> AugmentedTable:
    """The exact augmented distribution of a world or candidate model.  A
    model's table is its latent-row table re-indexed through ``inv_perm``."""
    kind, I = spec.validate_for(obj)
    if isinstance(obj, CandidateModel):
        world, probs, rows = obj.base, obj.probs, obj.inv_perm
    elif isinstance(obj, DiscreteWorld):
        world, probs, rows = obj, obj.support_probs, np.arange(obj.support_size)
    else:
        raise SupervisionError(f"exact tables need a discrete world or model, got {type(obj).__name__}")
    keys, labels = row_keys(world, kind, I.cols())
    table, on = dense_table(kind, probs, keys)
    obs = tuple(world.obs_ids.tolist())
    if kind == RESTRICTED_LABELING:
        at, axes = rows, (obs, tuple(map(tuple, labels.tolist())))
    else:
        at, axes = np.ix_(rows, rows), (obs, obs) if kind == MATCH_PAIRING else (obs, obs, (0, 1))
    return AugmentedTable(kind, I, table[at], on[at], axes)


# -- sampling -------------------------------------------------------------------


_FIELDS = {
    RESTRICTED_LABELING: ("x", "s_I"),
    MATCH_PAIRING: ("x", "x2"),
    RANK_PAIRING: ("x", "x2", "y"),
}


def _record_columns(obj, spec: SupervisionSpec, rng: np.random.Generator, count: int) -> list:
    """The columns [x, s_I], [x, x'] or [x, x', y] of `count` i.i.d.
    records, one row per record.  An observation column is 1-D for
    discrete objects (ids) and 2-D for continuous ones."""
    kind, I = spec.validate_for(obj)
    z = obj.sample_latents(rng, count)
    if kind == RESTRICTED_LABELING:
        return [obj.observe(z), z[:, I.cols()]]
    if kind == MATCH_PAIRING:
        return [obj.observe(z), obj.observe(obj.resample_latents(rng, z, I.complement().cols()))]
    z2 = obj.sample_latents(rng, count)
    c = I.cols()[0]
    return [obj.observe(z), obj.observe(z2), (z[:, c] >= z2[:, c]).astype(int)]


def sample_records(obj, spec: SupervisionSpec, seed: int, count: int) -> list[tuple]:
    """Stream `count` i.i.d. records of the augmented distribution.

    Records mirror the table outcomes: (x, s_I), (x, x'), or (x, x', y).
    Observations are ids for discrete worlds and float tuples for
    continuous ones.  Deterministic in (seed, count).
    """
    columns = _record_columns(obj, spec, np.random.default_rng(seed), count)
    return list(zip(*(c.tolist() if c.ndim == 1 else map(tuple, c.tolist()) for c in columns)))


def sample_features(obj, spec: SupervisionSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """Augmented records as a flat (count, d) float matrix, for two-sample tests.

    Continuous observations contribute their coordinates; labels, partner
    observations, and rank indicators are appended as extra columns.
    """
    return np.column_stack(_record_columns(obj, spec, rng, count)).astype(float, copy=False)


# -- dataset files ----------------------------------------------------------------


def write_dataset(path, obj, spec: SupervisionSpec, seed: int, count: int):
    """Write a header line plus one JSON record per line, formatted from the
    record columns through one template per kind.  ``str`` of an int, a
    finite float or a list of them is what ``json.dumps`` writes, and the
    samplers draw ints and finite floats (disk angles and points) only."""
    kind, I = spec.validate_for(obj)
    columns = _record_columns(obj, spec, np.random.default_rng(seed), count)
    header = {
        "format": DATASET_FORMAT,
        "version": 1,
        "spec": spec.to_string(),
        "kind": kind,
        "index_set": list(I.members()),
        "seed": seed,
        "count": count,
    }
    fields = [f'"{name}": %s' for name in _FIELDS[kind]]
    if kind == MATCH_PAIRING:
        fields.append(f'"shared": {json.dumps(list(I.members()))}')
    template = "{" + ", ".join(fields) + "}\n"
    lines = [template % rec for rec in zip(*(c.tolist() for c in columns))]
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n" + "".join(lines))


_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str):
    """``json.loads(line)``: the same value, or the same error.  The raw
    decoder is its fast path for lines with no surrounding whitespace."""
    try:
        doc, end = _decode(line)
        if end == len(line):
            return doc
    except ValueError:
        pass
    return json.loads(line)


def read_dataset(path) -> tuple[dict, list[dict]]:
    try:
        docs = [_parse_line(line) for line in Path(path).read_text().splitlines()]
    except ValueError as exc:  # bytes that are not UTF-8, or a line that is not JSON
        raise SupervisionError(f"dataset file {path} is not JSON lines: {exc}") from exc
    if not docs:
        raise SupervisionError(f"dataset file {path} is empty")
    header, *records = docs
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise SupervisionError(f"{path} is not a dataset file")
    return header, records
