"""Reference conditional redraw: one loop over the groups of a joint table.

The per-group loop that ``worlds._resample_rows`` replaced, kept as the
oracle of its differential test.  It groups the support rows together with
the batch of factor tuples by ``np.unique`` (not the library's
``group_ids``), then walks the groups present in the batch in lexicographic
order of their fixed values, drawing each group's tuples, in batch order,
from the table restricted to the group.
"""

import numpy as np

from reference_engine import unique_groups


def resample_table(rng, world, probs, latents, resample_cols) -> np.ndarray:
    """Redraw the coordinates ``resample_cols`` of the factor tuples
    ``latents`` from the exact conditional of the table ``probs`` over the
    world's support rows, given their other coordinates."""
    support = world.support
    resample_cols = sorted(set(resample_cols))
    if not resample_cols:
        return latents.copy()
    fixed = [c for c in range(world.n) if c not in resample_cols]
    m = len(support)
    ids, count = unique_groups(np.concatenate([support, latents]), fixed)
    order = np.argsort(ids, kind="stable")  # per group: its support rows, then its latents
    bounds = np.searchsorted(ids[order], np.arange(count + 1))
    out = np.array(latents)
    for g in np.unique(ids[m:]):
        rows = order[bounds[g]:bounds[g + 1]]
        idx, members = rows[rows < m], rows[rows >= m] - m
        cum = np.cumsum(probs[idx] / probs[idx].sum())
        cum[-1] = 1.0
        out[members] = support[idx[np.searchsorted(cum, rng.random(len(members)), side="right")]]
    return out
