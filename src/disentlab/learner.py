"""Desk-scale distribution matching over all support bijections.

The candidate family is every bijection of the world's support with the
pushforward prior, which matches the observation distribution by
construction.  A candidate is "matched" for a supervision spec when its
exact augmented table equals the oracle's within tolerance; listing the
whole matched set makes guarantee and impossibility claims checkable by
inspection.

The matched set is found by pruned backtracking, not by trying all m!
bijections.  The bijection is assigned one latent support row at a time,
targets in ascending order, and a partial assignment is dropped as soon
as one row or pair of rows breaks a necessary condition of a table match:

- restricted labeling: row r maps to row j only if both carry the same
  I-label or p[j] <= tol;
- rank pairing: the order bit of a latent pair equals the oracle's bit on
  the target pair unless p[j] p[j2] <= tol;
- match pairing: a latent pair in different I-groups needs an oracle
  kernel entry <= tol, and a latent pair inside one I-group mapped across
  oracle I-groups needs a massless target pair.  Whole I-groups of equal
  size may trade places, so the I-projection need not be preserved.

Each labeling and rank entry of the augmented table depends on one row or
one pair, so there the conditions are the table comparison itself.
Match-pairing leaves are accepted ``LEAF_CHUNK`` at a time by one
vectorised exact sup-norm comparison of the candidates' tables with the
oracle's, all built by ``supervision.dense_table``, the builder behind
``augmented_table``.  The matched set is therefore the same, in the same
order, as filtering ``itertools.permutations`` through ``tables_match``.
The cap ``MAX_ENUM_SUPPORT`` still applies to the support size.

Guarantee checks take the matched set as one (k, m) array of bijections
(``matched_perms``) and get its verdicts from the batched exact engine
(``metrics.generator_holds``), building no candidate model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import DisentlabError, SupportTooLarge
from .indexset import IndexSet
from .metrics import EvaluationTarget, generator_holds, holds, mig
from .calculus import Fact
from .supervision import (
    MASS_TOL,
    MATCH_PAIRING,
    RANK_PAIRING,
    RESTRICTED_LABELING,
    SupervisionSpec,
    dense_table,
    row_keys,
)
from .worlds import CandidateModel, DiscreteWorld

MAX_ENUM_SUPPORT = 8  # 8! = 40320 bijections
LEAF_CHUNK = 512  # leaves per vectorised leaf check: at most 512 m^2 floats per array


def _as_spec_list(specs) -> list[SupervisionSpec]:
    if specs is None:
        return []
    if isinstance(specs, SupervisionSpec):
        return [specs]
    return list(specs)


def _constraints(world: DiscreteWorld, specs: list[SupervisionSpec], tol: float):
    """Row masks and pair masks of the backtracking search, plus the
    match-pairing kernels its leaves are checked against.

    ``row_masks[i]`` has bit j set when latent row i may map to oracle row
    j.  ``into[k][i][j]`` has bit j2 set when latent rows (i, k), i < k, may
    map to oracle rows (j, j2).  ``kernels`` holds (group keys, oracle
    table) per match-pairing spec; with none, the masks decide the table
    match exactly.
    """
    m = world.support_size
    p = world.support_probs
    pp = np.outer(p, p)
    allowed = np.ones((m, m), dtype=bool)
    ok = np.ones((m, m, m, m), dtype=bool)  # [i, k, j, j2]: (i, k) -> (j, j2)
    kernels = []
    for spec in specs:
        kind, I = spec.validate_for(world)
        keys = row_keys(world.support, kind, I.cols())[0]
        if kind == RANK_PAIRING:
            y = keys[:, None] >= keys
            ok &= (y[:, :, None, None] == y) | (pp <= tol)
            continue
        if kind == RESTRICTED_LABELING:
            allowed &= (keys[:, None] == keys) | (p <= tol)
            continue
        # match pairing; a latent group's mass w is at most 1 up to
        # rounding, so p[j] p[j2] / w <= tol needs p[j] p[j2] <= 2 tol
        kernel, same = dense_table(MATCH_PAIRING, p, keys)
        ok &= np.where(same[:, :, None, None], same | (pp <= 2 * tol), kernel <= tol)
        kernels.append((keys, kernel))

    bits = np.array([1 << j for j in range(m)], dtype=object)  # no width limit on m
    both = ok & ok.transpose(1, 0, 3, 2)
    pair_masks = (both @ bits).transpose(1, 0, 2).tolist()  # [k][i][j]
    into = [pair_masks[k][:k] for k in range(m)]
    row_masks = (allowed @ bits).tolist()
    return row_masks, into, kernels


def _search(m: int, row_masks, into) -> Iterator[tuple[int, ...]]:
    """Depth-first search over the bijections the masks admit, in
    lexicographic order, which is the order of
    ``itertools.permutations(range(m))``."""
    perm = [0] * m
    todo = [0] * m  # per depth: targets not yet tried
    todo[0] = row_masks[0]
    used = 0
    d = 0
    last = m - 1
    while d >= 0:
        options = todo[d]
        if not options:
            d -= 1
            if d >= 0:
                used ^= 1 << perm[d]
            continue
        low = options & -options
        todo[d] = options ^ low
        perm[d] = low.bit_length() - 1
        if d == last:
            yield tuple(perm)
            continue
        used |= low
        d += 1
        mask = row_masks[d] & ~used
        for i, masks in enumerate(into[d]):
            mask &= masks[perm[i]]
        todo[d] = mask


def _accepted(p, leaves, m: int, kernels, tol: float) -> Iterator[np.ndarray]:
    """Chunks (c, m) of the mask-surviving ``leaves`` whose match-pairing
    tables equal the oracle's kernels: one vectorised sup-norm per chunk."""
    while True:
        perms = np.array(list(islice(leaves, LEAF_CHUNK)), dtype=np.int64).reshape(-1, m)
        if not len(perms):
            return
        for keys, kernel in kernels:
            table = dense_table(MATCH_PAIRING, p[perms], keys)[0]
            dev = np.abs(table - kernel[perms[:, :, None], perms[:, None, :]]).max(axis=(1, 2))
            perms = perms[dev <= tol]
        yield perms


def _matched_chunks(world: DiscreteWorld, specs, tol: float, max_support: int) -> Iterator[np.ndarray]:
    """The matched bijections as (c, m) arrays, in ``itertools.permutations``
    order.  The support cap and the specs are checked at the call."""
    m = world.support_size
    if m > max_support:
        raise SupportTooLarge(f"support {m} exceeds enumeration cap {max_support}")
    row_masks, into, kernels = _constraints(world, _as_spec_list(specs), tol)
    return _accepted(world.support_probs, _search(m, row_masks, into), m, kernels, tol)


def matched_perms(
    world: DiscreteWorld,
    specs=None,
    tol: float = MASS_TOL,
    max_support: int = MAX_ENUM_SUPPORT,
) -> np.ndarray:
    """The matched set as one (k, m) array of support bijections, row i
    being the bijection of ``enumerate_matched(...)[i]``; no model is built."""
    chunks = list(_matched_chunks(world, specs, tol, max_support))
    return np.concatenate(chunks) if chunks else np.empty((0, world.support_size), dtype=np.int64)


def iter_matched(
    world: DiscreteWorld,
    specs=None,
    tol: float = MASS_TOL,
    max_support: int = MAX_ENUM_SUPPORT,
) -> Iterator[CandidateModel]:
    """Lazily yield the matched candidates in ``itertools.permutations``
    order of their bijections.  The support cap and the specs are checked
    at the call; a candidate model is built only once it is matched."""
    chunks = _matched_chunks(world, specs, tol, max_support)
    return (CandidateModel(world, perm) for perms in chunks for perm in perms)


def enumerate_matched(
    world: DiscreteWorld,
    specs=None,
    tol: float = MASS_TOL,
    max_support: int = MAX_ENUM_SUPPORT,
) -> list[CandidateModel]:
    """All support bijections whose augmented tables equal the oracle's.

    With an empty spec list only the observation distribution is matched,
    which every bijection satisfies by construction.
    """
    return list(iter_matched(world, specs, tol, max_support))


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of checking the guaranteed consistency fact on a matched set."""

    spec: SupervisionSpec
    guaranteed: Fact
    matched_count: int
    violating_perms: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return self.matched_count > 0 and not self.violating_perms

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_string(),
            "guaranteed": str(self.guaranteed),
            "matched": self.matched_count,
            "violations": [list(p) for p in self.violating_perms],
            "ok": self.ok,
        }


def verify_guarantee(
    world: DiscreteWorld,
    spec: SupervisionSpec,
    max_support: int = MAX_ENUM_SUPPORT,
) -> GuaranteeReport:
    """Check that every matched candidate is consistent on the canonical
    index set of the supervision (for change pairing that set is the
    complement of the changed factors, hence restrictiveness on them)."""
    guaranteed = Fact("C", spec.guaranteed_index_set(world.n))
    perms = matched_perms(world, [spec], max_support=max_support)
    ok = generator_holds(world, perms, guaranteed)
    bad = tuple(tuple(perm) for perm in perms[~ok].tolist())
    return GuaranteeReport(spec, guaranteed, len(perms), bad)


def find_violating_model(
    world: DiscreteWorld,
    specs,
    target: Fact,
    max_support: int = MAX_ENUM_SUPPORT,
) -> CandidateModel | None:
    """First matched candidate violating the target fact, if any exists;
    the search stops there."""
    for model in iter_matched(world, specs, max_support=max_support):
        if not holds(EvaluationTarget.generator_based(model), target):
            return model
    return None


def check_informativeness(world: DiscreteWorld, model) -> bool:
    """Whether decoding through the model and re-encoding recovers every
    support tuple: e* . g . e . g* must be the identity on the support."""
    for t in world.support:
        s = tuple(int(v) for v in t)
        try:
            x = world.generate(s)
            z = model.apply_enc(x)
            x2 = model.apply_gen(z)
            if world.encode(x2) != s:
                return False
        except DisentlabError:
            return False
    return True


def matched_report(
    world: DiscreteWorld,
    specs=None,
    max_support: int = MAX_ENUM_SUPPORT,
) -> list[dict]:
    """Per-candidate summary of the matched set: bijection, single-factor
    facts satisfied, and the mutual information gap."""
    specs = _as_spec_list(specs)
    perms = matched_perms(world, specs, max_support=max_support)
    facts = [Fact(kind, IndexSet.of([i], world.n)) for i in range(1, world.n + 1) for kind in "CRD"]
    verdicts = [generator_holds(world, perms, fact) for fact in facts]
    return [
        {
            "perm": perm.tolist(),
            "specs": [s.to_string() for s in specs],
            "facts": [f"{fact.kind}{fact.index_set}" for fact, ok in zip(facts, verdicts) if ok[r]],
            "mig": list(mig(EvaluationTarget.generator_based(CandidateModel(world, perm))).per_factor),
        }
        for r, perm in enumerate(perms)
    ]
