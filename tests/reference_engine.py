"""Reference exact engine: one grouping and one bincount per (index set, column).

An independent second implementation of ``metrics._exact_stats`` as a plain
loop over the index sets and their columns: each (set, column) pair's
(model, group, value) table comes from its own ``np.bincount`` and is
reduced with numpy sums.  Rows are grouped by ``np.unique`` rather than the
library's ``group_ids``, so the differential tests check that grouping too.
"""

import numpy as np

from disentlab.errors import ArityMismatch


def unique_groups(support, cols):
    """(group id of each row by its values on ``cols`` in lexicographic
    order, number of groups)."""
    if not cols:
        return np.zeros(len(support), dtype=np.int64), 1
    values, inverse = np.unique(support[:, cols], axis=0, return_inverse=True)
    return inverse.reshape(-1), len(values)


def exact_stats(support, probs, mapped, cards, sets, gap: bool = False):
    """(numerator, gap) of every index set in ``sets``, shapes (..., len(sets)),
    for ``probs`` (..., m) and ``mapped`` (..., m, n); the gap is None unless
    asked for."""
    batch = probs.shape[:-1]
    k = probs.size // len(support)
    model = np.arange(k).reshape(batch + (1,))
    num = np.zeros(batch + (len(sets),))
    gaps = np.zeros(batch + (len(sets),))
    for s, I in enumerate(sets):
        if I.n != support.shape[1] or I.nuisance:
            raise ArityMismatch(f"index set {I!r} does not match target arity {support.shape[1]}")
        cols = I.cols()
        inverse, groups = unique_groups(support, cols)
        cells = model * groups + inverse  # (model, group) per row
        num_I = gap_I = 0.0
        for c in cols:
            bins = (cells * cards[c] + mapped[..., c]).ravel()
            table = np.bincount(bins, weights=probs.ravel(), minlength=k * groups * cards[c])
            table = table.reshape(batch + (groups, cards[c]))
            w = table.sum(axis=-1)
            cond = table / w[..., None]
            row_sum = cond.sum(axis=-1)
            num_I = num_I + (w * (cond * (row_sum[..., None] - cond)).sum(axis=-1)).sum(axis=-1)
            if gap:
                marginal = (w[..., None] * cond).sum(axis=-2)
                gap_I = gap_I + (w[..., None] * (cond - marginal[..., None, :]) ** 2).sum(axis=(-2, -1))
        num[..., s], gaps[..., s] = num_I, gap_I
    return num, gaps if gap else None
