"""Reference augmented tables built by plain dictionary loops.

An independent second implementation of ``supervision.augmented_table``:
one outcome -> mass dict per world or candidate model, with a key for every
outcome the supervision family can produce, in Python floats.  It shares no
code with the library's dense builder, so the differential tests and the
learner's brute-force enumerator can check that builder against it.
Also the two tolerance-edge worlds both of them run on.
"""

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
