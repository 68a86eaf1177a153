"""Reference permutation null of the two-sample match check.

An independent second implementation of the null distribution behind
``metrics.mc_match_check``: the pooled grid cells of both samples are
shuffled by ``rng.permutation`` and split in two halves, and the statistic
is recomputed from the two halves' cell frequencies.  It shares no code
with the library's hypergeometric split draw, so the differential tests
can check that draw against it on null quantiles.
"""

import numpy as np


def freq_stat(cells_a, cells_b, n_cells: int) -> float:
    """Squared distance between the cell frequencies of two samples."""
    fa = np.bincount(cells_a, minlength=n_cells) / len(cells_a)
    fb = np.bincount(cells_b, minlength=n_cells) / len(cells_b)
    return float(((fa - fb) ** 2).sum())


def permutation_null(rng, cells_a, cells_b, n_cells: int, draws: int = 200) -> np.ndarray:
    """Statistics of ``draws`` random permutations of the pooled cells."""
    samples = len(cells_a)
    pooled = np.concatenate([cells_a, cells_b])
    stats = np.empty(draws)
    for t in range(draws):
        shuffled = rng.permutation(pooled)
        stats[t] = freq_stat(shuffled[:samples], shuffled[samples:], n_cells)
    return stats
