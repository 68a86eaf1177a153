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
one pair, so there the conditions are the table comparison itself.  A
match-pairing leaf is accepted by the exact sup-norm comparison of the
candidate's table with the oracle's, both built by
``supervision.dense_table``, the builder behind ``augmented_table``.  The
matched set is therefore the same, in the same order, as filtering
``itertools.permutations`` through ``tables_match``.  The cap
``MAX_ENUM_SUPPORT`` still applies to the support size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DisentlabError, SupportTooLarge
from .indexset import IndexSet
from .metrics import EvaluationTarget, holds, mig
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


def _as_spec_list(specs) -> list[SupervisionSpec]:
    if specs is None:
        return []
    if isinstance(specs, SupervisionSpec):
        return [specs]
    return list(specs)


def _constraints(world: DiscreteWorld, specs: list[SupervisionSpec], tol: float):
    """Row masks, pair masks and the leaf check of the backtracking search.

    ``row_masks[i]`` has bit j set when latent row i may map to oracle row
    j.  ``into[k][i][j]`` has bit j2 set when latent rows (i, k), i < k, may
    map to oracle rows (j, j2).  ``accept`` is None when the masks decide
    the table match exactly, else the exact check of a complete bijection.
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

    if not kernels:
        return row_masks, into, None

    def accept(perm: list[int]) -> bool:
        idx = np.array(perm)
        q = p[idx]
        return all(
            np.abs(dense_table(MATCH_PAIRING, q, keys)[0] - kernel[idx[:, None], idx]).max() <= tol
            for keys, kernel in kernels
        )

    return row_masks, into, accept


def _search(m: int, row_masks, into, accept) -> Iterator[tuple[int, ...]]:
    """Depth-first search over bijections in lexicographic order, which is
    the order of ``itertools.permutations(range(m))``."""
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
            if accept is None or accept(perm):
                yield tuple(perm)
            continue
        used |= low
        d += 1
        mask = row_masks[d] & ~used
        for i, masks in enumerate(into[d]):
            mask &= masks[perm[i]]
        todo[d] = mask


def iter_matched(
    world: DiscreteWorld,
    specs=None,
    tol: float = MASS_TOL,
    max_support: int = MAX_ENUM_SUPPORT,
) -> Iterator[CandidateModel]:
    """Lazily yield the matched candidates in ``itertools.permutations``
    order of their bijections.  The support cap and the specs are checked
    at the call; a candidate model is built only once it is matched."""
    m = world.support_size
    if m > max_support:
        raise SupportTooLarge(f"support {m} exceeds enumeration cap {max_support}")
    masks = _constraints(world, _as_spec_list(specs), tol)
    return (CandidateModel(world, perm) for perm in _search(m, *masks))


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
    matched = enumerate_matched(world, [spec], max_support=max_support)
    bad = tuple(
        tuple(int(v) for v in model.perm)
        for model in matched
        if not holds(EvaluationTarget.generator_based(model), guaranteed)
    )
    return GuaranteeReport(spec, guaranteed, len(matched), bad)


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
    rows = []
    for model in enumerate_matched(world, specs, max_support=max_support):
        target = EvaluationTarget.generator_based(model)
        sats = []
        for i in range(1, world.n + 1):
            I = IndexSet.of([i], world.n)
            for kind in ("C", "R", "D"):
                if holds(target, Fact(kind, I)):
                    sats.append(f"{kind}{I}")
        rows.append(
            {
                "perm": [int(v) for v in model.perm],
                "specs": [s.to_string() for s in specs],
                "facts": sats,
                "mig": list(mig(target).per_factor),
            }
        )
    return rows
