"""Reference mutual information gap.

An independent second implementation of ``metrics.mig``, written as
straight-line loops over support rows (exact mode) or samples (Monte-Carlo
mode): each row adds its weight to one cell of a (latent j, measured
factor k) table, and the gap of factor k is the difference of the two
largest informations about it over its entropy.  A table whose nonempty
rows each hold one cell carries the factor's entropy exactly, and one whose
nonempty rows are all proportional carries exactly zero.  It shares no code
with the library's table builder.  The per-cell terms of an entropy or an
information are added by ``np.sum`` over the same cells in the same order
as the library, so exact results can be compared by ``==``.
"""

import numpy as np


def _entropy(marginal) -> float:
    return -np.sum([p * np.log(p) for p in marginal if p > 0])


def _information(table, h: float) -> float:
    rows = [row for row in table if sum(row) > 0]
    if all(sum(1 for v in row if v > 0) <= 1 for row in rows):
        return h
    conds = [[v / sum(row) for v in row] for row in rows]
    if all(c == conds[0] for c in conds):
        return 0.0
    pa = [sum(row) for row in table]
    pb = [sum(table[a][b] for a in range(len(table))) for b in range(len(table[0]))]
    return np.sum([
        table[a][b] * np.log(table[a][b] / (pa[a] * pb[b])) if table[a][b] > 0 else 0.0
        for a in range(len(table))
        for b in range(len(table[0]))
    ])


def reference_gaps(rows, cards_latent, cards_measured) -> tuple[float, ...]:
    """Per-factor gaps from ``rows``, a list of (latent tuple, measured
    tuple, weight)."""
    n = len(cards_measured)
    gaps = []
    for k in range(n):
        marginal = [0.0] * cards_measured[k]
        for _, s, w in rows:
            marginal[s[k]] += w
        h = _entropy(marginal)
        infos = []
        for j in range(n):
            table = [[0.0] * cards_measured[k] for _ in range(cards_latent[j])]
            for z, s, w in rows:
                table[z[j]][s[k]] += w
            infos.append(_information(table, h))
        infos.sort(reverse=True)
        gaps.append((infos[0] - (infos[1] if n > 1 else 0.0)) / h)
    return tuple(gaps)


def exact_rows(model, direction: str):
    """(latent, measured, weight) per support row: a latent z with q(z) and
    its measured factors phi(z) (generator), or a factor tuple s with p*(s)
    and its code phi^-1(s) in place of the latent (encoder).  phi is read
    row by row off ``model.mapped`` and phi^-1 by inverting that dict."""
    world = model.base
    phi = {tuple(int(v) for v in z): tuple(int(v) for v in s) for z, s in zip(model.support, model.mapped)}
    phi_inverse = {s: z for z, s in phi.items()}
    rows = []
    for r, t in enumerate(world.support):
        t = tuple(int(v) for v in t)
        if direction == "generator":
            rows.append((t, phi[t], float(model.probs[r])))
        else:
            rows.append((t, phi_inverse[t], float(world.support_probs[r])))
    return rows


def mc_rows(model, direction: str, bins: int, samples: int, seed: int):
    """(latent bins, measured bins, 1/samples) per sample of a continuous
    candidate: latents from its prior measured through phi (generator), or
    factor tuples from the oracle prior measured through phi^-1 (encoder).
    Each column is cut at its equal-mass quantiles."""
    sampler, measure = (model, model.phi) if direction == "generator" else (model.base, model.phi_inverse)
    z = sampler.sample_latents(np.random.default_rng(seed), samples)
    s = measure(z)

    def cut(values):
        edges = np.quantile(values, [q / bins for q in range(1, bins)])
        return [sum(1 for e in edges if e <= v) for v in values]

    zb = [cut(z[:, j]) for j in range(z.shape[1])]
    sb = [cut(s[:, k]) for k in range(s.shape[1])]
    return [(tuple(c[r] for c in zb), tuple(c[r] for c in sb), 1.0 / samples) for r in range(samples)]
