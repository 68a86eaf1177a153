"""Desk-scale distribution matching over all support bijections.

The candidate family is every bijection of the world's support with the
pushforward prior, which matches the observation distribution by
construction.  A candidate is "matched" for a supervision spec when its
exact augmented table equals the oracle's within tol = ``MASS_TOL``;
listing the whole matched set makes guarantee and impossibility claims
checkable by inspection.

The matched set is found by a level-order search, not by trying all m!
bijections.  A frontier of partial bijections, one per array row, grows by
one latent support row per level; a target j is kept for row d only if
every row and pair of rows assigned so far meets a necessary condition of
a table match:

- restricted labeling: row r maps to row j only if both carry the same
  I-label or p[j] <= tol;
- rank pairing: the order bit of a latent pair equals the oracle's bit on
  the target pair unless p[j] p[j2] <= tol;
- match pairing: a latent pair in different I-groups needs an oracle
  kernel entry <= tol, and a latent pair inside one I-group mapped across
  oracle I-groups needs a massless target pair.  Whole I-groups of equal
  size may trade places, so the I-projection need not be preserved.

Each level is one gather and ``&`` per assigned row over boolean arrays,
and ``np.nonzero`` lists the extensions in row-major order, so every level
stays in lexicographic order, the order of
``itertools.permutations(range(m))``.  Each labeling and rank entry of the
augmented table depends on one row or one pair, so there the conditions
are the table comparison itself.

Match-pairing conditions decide the table match too once every pair mass
p[j] p[j2] (j != j2) exceeds 2 tol, which ``matched_perms`` reads off the
two smallest support masses.  Then neither exemption in ``_constraints``
applies: no target pair has p[j] p[j2] <= 2 tol, and an oracle kernel
entry inside one I-group is p[j] p[j2] / W with the group mass W at most 1
up to rounding, so no such entry is <= tol.  A latent pair inside one I-group must then map inside
one oracle I-group and a pair across groups across groups, and the leaves
are exactly the bijections that map each I-group onto an I-group.  Their
tables hold, inside each group, q[r] q[r2] / W' with q = p[perm], the
oracle's own product p[j] p[j2], and a group mass W' that adds the same
at most m floats as the oracle's W in another order; across groups both
are zero.  The two sums differ by about 2 (m - 1) 2^-53 relative, far
below tol, so every leaf matches and the leaves are returned as they are.
Below that mass a leaf may still fail (light rows of two groups may trade
places while the shifted group masses move the heavy rows' entries), so
those leaves are accepted ``LEAF_CHUNK`` at a time by one vectorised exact
sup-norm comparison of the candidates' tables with the oracle's, all built
by ``supervision.dense_table``, the builder behind ``augmented_table``.
The matched set is therefore the same, in the same order, as filtering
``itertools.permutations`` through ``tables_match``.  The cap
``MAX_ENUM_SUPPORT`` still applies to the support size.

Guarantee checks take the matched set as one (k, m) array of bijections
(``matched_perms``) and get its verdicts from the batched exact engine
(``metrics.generator_holds``), building no candidate model.  Match pairing
over no factor or every factor matches all m! bijections and guarantees a
fact true of every model, so ``verify_guarantee`` answers it in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import SupportTooLarge
from .metrics import generator_holds
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
_DECIDING_PAIR_MASS = 2 * MASS_TOL  # above it for every pair, no leaf needs a table check


def _constraints(world: DiscreteWorld, specs: list[SupervisionSpec]):
    """Row and pair conditions of the search, plus the match-pairing
    kernels its leaves are checked against.

    ``allowed[i, j]`` says latent row i may map to oracle row j;
    ``pairs[i, k, j, j2]`` says latent rows (i, k) may map to oracle rows
    (j, j2), which needs j != j2.  ``kernels`` holds (group keys, oracle
    table) per match-pairing spec; with none, the conditions decide the
    table match exactly.
    """
    m = world.support_size
    p = world.support_probs
    pp = np.outer(p, p)
    allowed = np.ones((m, m), dtype=bool)
    ok = np.ones((m, m, m, m), dtype=bool)  # [i, k, j, j2]: (i, k) -> (j, j2)
    kernels = []
    for spec in specs:
        kind, I = spec.validate_for(world)
        keys = row_keys(world, kind, I.cols())[0]
        if kind == RANK_PAIRING:
            y = keys[:, None] >= keys
            ok &= (y[:, :, None, None] == y) | (pp <= MASS_TOL)
            continue
        if kind == RESTRICTED_LABELING:
            allowed &= (keys[:, None] == keys) | (p <= MASS_TOL)
            continue
        # match pairing; a latent group's mass w is at most 1 up to
        # rounding, so p[j] p[j2] / w <= MASS_TOL needs p[j] p[j2] <= 2 MASS_TOL
        kernel, same = dense_table(MATCH_PAIRING, p, keys)
        ok &= np.where(same[:, :, None, None], same | (pp <= 2 * MASS_TOL), kernel <= MASS_TOL)
        kernels.append((keys, kernel))
    return allowed, ok & ok.transpose(1, 0, 3, 2) & ~np.eye(m, dtype=bool), kernels


def _bijections(allowed: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Every bijection the conditions admit, as a (k, m) array in
    lexicographic order, which is the order of
    ``itertools.permutations(range(m))``."""
    m = len(allowed)
    frontier = np.empty((1, 0), dtype=np.int64)
    for d in range(m):
        options = allowed[d][None]  # one row: the first & broadcasts it
        for i in range(d):
            options = options & pairs[i, d][frontier[:, i]]
        parent, target = np.nonzero(options)
        frontier = np.concatenate([frontier[parent], target[:, None]], axis=1)
    return frontier


def _accepted(p, perms: np.ndarray, kernels) -> np.ndarray:
    """The rows of ``perms`` (c, m) whose match-pairing tables equal the
    oracle's kernels: one vectorised sup-norm per kernel."""
    for keys, kernel in kernels:
        table = dense_table(MATCH_PAIRING, p[perms], keys)[0]
        dev = np.abs(table - kernel[perms[:, :, None], perms[:, None, :]]).max(axis=(1, 2))
        perms = perms[dev <= MASS_TOL]
    return perms


def _check_support_cap(world: DiscreteWorld) -> None:
    m = world.support_size
    if m > MAX_ENUM_SUPPORT:
        raise SupportTooLarge(f"support {m} exceeds enumeration cap {MAX_ENUM_SUPPORT}")


def matched_perms(world: DiscreteWorld, specs: list[SupervisionSpec]) -> np.ndarray:
    """The matched set as one (k, m) array of support bijections in
    ``itertools.permutations`` order, row i being the bijection of
    ``enumerate_matched(...)[i]``; no model is built."""
    _check_support_cap(world)
    allowed, pairs, kernels = _constraints(world, specs)
    leaves = _bijections(allowed, pairs)
    p = world.support_probs
    # the smallest pair mass; a one-row support has no pair and gives its mass 1
    if not kernels or np.sort(p)[:2].prod() > _DECIDING_PAIR_MASS:
        return leaves
    chunks = [_accepted(p, leaves[lo:lo + LEAF_CHUNK], kernels) for lo in range(0, len(leaves), LEAF_CHUNK)]
    return np.concatenate([leaves[:0], *chunks])


def enumerate_matched(world: DiscreteWorld, specs: list[SupervisionSpec]) -> list[CandidateModel]:
    """All support bijections whose augmented tables equal the oracle's, as
    candidate models in ``itertools.permutations`` order.

    With an empty spec list only the observation distribution is matched,
    which every bijection satisfies by construction.
    """
    return [CandidateModel(world, perm) for perm in matched_perms(world, specs)]


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


def verify_guarantee(world: DiscreteWorld, spec: SupervisionSpec) -> GuaranteeReport:
    """Check that every matched candidate is consistent on the canonical
    index set of the supervision (for change pairing that set is the
    complement of the changed factors, hence restrictiveness on them).

    Match pairing over no factor or over every factor is answered in closed
    form: x' is then independent of x or equal to it, so both tables depend
    only on the observation distribution, which every bijection preserves.
    All m! bijections match, and C(empty) and C(full) hold on every model.
    The support cap applies as in ``matched_perms``.
    """
    kind, I = spec.canonical(world.n)
    guaranteed = Fact("C", I)
    if kind == MATCH_PAIRING and I.bits in (0, (1 << world.n) - 1):
        _check_support_cap(world)
        return GuaranteeReport(spec, guaranteed, factorial(world.support_size), ())
    perms = matched_perms(world, [spec])
    ok = generator_holds(world, perms, guaranteed)
    bad = tuple(tuple(perm) for perm in perms[~ok].tolist())
    return GuaranteeReport(spec, guaranteed, len(perms), bad)


def find_violating_model(world: DiscreteWorld, specs, target: Fact) -> CandidateModel | None:
    """First matched candidate violating the target fact, if any exists,
    from one verdict call over the matched set; only the witness model is
    built."""
    perms = matched_perms(world, specs)
    bad = np.flatnonzero(~generator_holds(world, perms, target))
    return CandidateModel(world, perms[bad[0]]) if len(bad) else None

