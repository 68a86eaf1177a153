"""Reference augmented tables built by plain dictionary loops.

An independent second implementation of ``supervision.augmented_table``:
one outcome -> mass dict per world or candidate model, with a key for every
outcome the supervision family can produce, in Python floats.  It shares no
code with the library's dense builder, so the differential tests can check
that builder against it.  ``reference_tables`` repeats the same arithmetic
as numpy arrays over many bijections at once, from world arrays only, for
the learner's brute-force enumerator ``brute_matched``.  Also the two
tolerance-edge worlds all of them run on.
"""

from itertools import permutations, product

import numpy as np

from disentlab import CandidateModel, DiscreteWorld
from disentlab.supervision import MASS_TOL, MATCH_PAIRING, RANK_PAIRING, RESTRICTED_LABELING


def reference_table(obj, spec) -> dict:
    kind, I = spec.validate_for(obj)
    if isinstance(obj, CandidateModel):
        latents, probs, obs = obj.support, obj.probs, obj.base.obs_ids[obj.perm]
    else:
        latents, probs, obs = obj.support, obj.support_probs, obj.obs_ids
    cols = I.cols()
    mass: dict = {}

    if kind == RESTRICTED_LABELING:
        for r in range(len(latents)):
            key = (int(obs[r]), tuple(int(v) for v in latents[r, cols]))
            mass[key] = mass.get(key, 0.0) + float(probs[r])
    elif kind == MATCH_PAIRING:
        keys = [tuple(int(v) for v in latents[r, cols]) for r in range(len(latents))]
        group_mass: dict = {}
        for r, key in enumerate(keys):
            group_mass[key] = group_mass.get(key, 0.0) + float(probs[r])
        rows_by_key: dict = {}
        for r, key in enumerate(keys):
            rows_by_key.setdefault(key, []).append(r)
        for key, rows in rows_by_key.items():
            w = group_mass[key]
            for r in rows:
                for r2 in rows:
                    outcome = (int(obs[r]), int(obs[r2]))
                    mass[outcome] = mass.get(outcome, 0.0) + float(probs[r]) * float(probs[r2]) / w
    else:
        assert kind == RANK_PAIRING
        c = cols[0]
        for r in range(len(latents)):
            for r2 in range(len(latents)):
                y = 1 if latents[r, c] >= latents[r2, c] else 0
                outcome = (int(obs[r]), int(obs[r2]), y)
                mass[outcome] = mass.get(outcome, 0.0) + float(probs[r]) * float(probs[r2])
    return mass


def reference_match(a: dict, b: dict, tol: float = MASS_TOL) -> bool:
    """Sup-norm comparison of two reference tables; a missing key is zero."""
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)) <= tol


def reference_tables(world: DiscreteWorld, perms, spec) -> tuple[list, np.ndarray]:
    """(outcomes, tables): the ``reference_table`` of
    ``CandidateModel(world, perms[i])`` as row i of a dense (k, len(outcomes))
    array, column j holding the mass of outcome key ``outcomes[j]`` (zero
    where ``reference_table`` has no key); the identity bijection gives the
    world's own table.

    Built from the world's support, masses and observation ids with the
    reference arithmetic: row masses p_r, products p_r * p_r2, and for match
    pairing p_r * p_r2 / w with the group mass w summed in row order.  Each
    outcome's terms are added in the order of ``reference_table``'s loops,
    so every entry equals the dictionary's float.hex for float.hex.
    """
    kind, I = spec.validate_for(world)
    cols = I.cols()
    perms = np.asarray(perms, dtype=np.int64).reshape(-1, world.support_size)
    latents = world.support
    m = len(latents)
    ids, rank = np.unique(world.obs_ids, return_inverse=True)
    ids = [int(v) for v in ids]
    obs = rank.reshape(-1)[perms]  # (k, m): observation rank of each latent row
    probs = world.support_probs[perms]

    if kind == RESTRICTED_LABELING:
        labels = list(product(*(range(world.cards[c]) for c in cols)))
        label = np.array([labels.index(tuple(int(v) for v in latents[r, cols])) for r in range(m)])
        outcomes = [(o, lab) for o in ids for lab in labels]
        keys, weights = obs * len(labels) + label, probs
    elif kind == MATCH_PAIRING:
        first_seen: dict = {}  # group ids in order of first appearance, as rows_by_key
        group = np.array(
            [first_seen.setdefault(tuple(int(v) for v in latents[r, cols]), len(first_seen)) for r in range(m)]
        )
        rows = [r for g in range(len(first_seen)) for r in np.flatnonzero(group == g)]
        r, r2 = np.array([(r, r2) for r in rows for r2 in rows if group[r] == group[r2]]).T
        k, groups = len(perms), len(first_seen)
        cell = (np.arange(k)[:, None] * groups + group).reshape(-1)
        mass = np.bincount(cell, weights=probs.reshape(-1), minlength=k * groups).reshape(k, groups)
        outcomes = [(a, b) for a in ids for b in ids]
        keys, weights = obs[:, r] * len(ids) + obs[:, r2], probs[:, r] * probs[:, r2] / mass[:, group[r]]
    else:
        assert kind == RANK_PAIRING
        c = cols[0]
        r, r2 = (v.reshape(-1) for v in np.indices((m, m)))
        y = (latents[r, c] >= latents[r2, c]).astype(np.int64)
        outcomes = [(a, b, bit) for a in ids for b in ids for bit in (0, 1)]
        keys, weights = (obs[:, r] * len(ids) + obs[:, r2]) * 2 + y, probs[:, r] * probs[:, r2]

    k, size = len(perms), len(outcomes)
    flat = (np.arange(k)[:, None] * size + keys).reshape(-1)
    tables = np.bincount(flat, weights=weights.reshape(-1), minlength=k * size).reshape(k, size)
    return outcomes, tables


def brute_matched(world: DiscreteWorld, specs) -> list[tuple[int, ...]]:
    """Reference enumerator: every bijection, in ``itertools.permutations``
    order, whose ``reference_tables`` match the world's within ``MASS_TOL``
    in sup norm (``reference_match`` over all m! bijections at once)."""
    perms = np.array(list(permutations(range(world.support_size))))
    ok = np.ones(len(perms), dtype=bool)
    for spec in specs:
        oracle = reference_tables(world, np.arange(world.support_size), spec)[1]
        ok &= np.abs(reference_tables(world, perms, spec)[1] - oracle).max(axis=1) <= MASS_TOL
    return [tuple(p) for p in perms[ok].tolist()]


# off-diagonal rows carry mass 1e-13 <= MASS_TOL, so bijections that break the
# labeling on them still match: 8 for label:1 where only 4 preserve the label
TOLERANCE_EDGE = DiscreteWorld(
    (2, 2), [[0.5 - 1e-13, 1e-13], [1e-13, 0.5 - 1e-13]], np.arange(4)
)

# the light rows of the two factor-1 groups (mass 9e-13 and 1e-14) may trade
# places under every row and pair condition, but the shifted group masses
# move the heavy rows' table entries past MASS_TOL: only the exact check of
# the complete bijection rejects those 72 of 432 for share:1
GROUP_MASS_EDGE = DiscreteWorld(
    (2, 3), [[0.5 - 1.8e-12, 9e-13, 9e-13], [0.5 - 2e-14, 1e-14, 1e-14]], np.arange(6)
)
