"""Reference samplers: the code that faster library paths replaced.

``resample_table`` is the per-group loop that ``worlds._resample_rows``
replaced, kept as the oracle of its differential test.  It groups the
support rows together with the batch of factor tuples by ``np.unique`` (not
the library's ``group_ids``), then walks the groups present in the batch in
lexicographic order of their fixed values, drawing each group's tuples, in
batch order, from the table restricted to the group.

``rotation_chunks`` is the disk-rotation Monte-Carlo pair sampler from
before scores were built for their measured columns: every draw computes the
disk point's sqrt, cos and sin, and every batch is measured through the
whole rotation.
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


TWO_PI = 2.0 * np.pi


def sample_disk_latents(rng, m):
    """(angle, disk point) rows: the angle's uniforms, then the disk's radii and angles."""
    out = np.empty((m, 3))
    out[:, 0] = rng.uniform(0.0, TWO_PI, m)
    _sample_disk(rng, out[:, 1:])
    return out


def resample_disk_latents(rng, latents, resample_cols):
    cols = set(resample_cols)
    out = np.asarray(latents, dtype=float).copy()
    m = len(out)
    if 0 in cols:
        out[:, 0] = rng.uniform(0.0, TWO_PI, m)
    if {1, 2} <= cols:
        _sample_disk(rng, out[:, 1:])
    elif 1 in cols:
        half = np.sqrt(np.maximum(0.0, 1.0 - out[:, 2] ** 2))
        out[:, 1] = rng.uniform(-half, half)
    elif 2 in cols:
        half = np.sqrt(np.maximum(0.0, 1.0 - out[:, 1] ** 2))
        out[:, 2] = rng.uniform(-half, half)
    return out


def _sample_disk(rng, out):
    radii = np.sqrt(rng.uniform(0.0, 1.0, len(out)))
    theta = rng.uniform(0.0, TWO_PI, len(out))
    np.multiply(radii, np.cos(theta), out=out[:, 0])
    np.multiply(radii, np.sin(theta), out=out[:, 1])


def rotate(z, sign):
    """(z1, z2, z3) with the point (z2, z3) rotated by sign * z1, row by row."""
    c, s = np.cos(z[:, 0]), sign * np.sin(z[:, 0])
    out = np.empty((len(z), 3))
    out[:, 0] = z[:, 0]
    out[:, 1] = c * z[:, 1] - s * z[:, 2]
    out[:, 2] = s * z[:, 1] + c * z[:, 2]
    return out


def rotation_chunks(direction, I):
    """(conditional-pair chunk, i.i.d.-pair chunk) of the rotation candidate
    on the index set I, ``direction`` "generator" (measured through phi) or
    "encoder" (through phi_inverse): functions of (rng, size) giving one
    squared distance of the measured factors I per pair."""
    sign = 1.0 if direction == "generator" else -1.0
    cols, resample_cols = I.cols(), I.complement().cols()

    def distance(z, z2):
        a, b = rotate(z, sign)[:, cols].T, rotate(z2, sign)[:, cols].T
        return ((a - b) ** 2).sum(axis=0)

    def num_chunk(rng, m):
        z = sample_disk_latents(rng, m)
        return distance(z, resample_disk_latents(rng, z, resample_cols))

    def den_chunk(rng, m):
        return distance(sample_disk_latents(rng, m), sample_disk_latents(rng, m))

    return num_chunk, den_chunk
