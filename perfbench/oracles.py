"""Correctness oracles of the benchmark, independent of the code they check.

Each function here recomputes what a library call should return from the
definitions, with plain bitmask and numpy arithmetic, so a wrong answer in
the library cannot also be the reference.  The one borrowed reference is
``verify.check_fact_brute``, the library's own straight-line oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod, sqrt

import numpy as np

# A raw deviation of a consistent set is an exact float zero (every term is
# 1 - 1**2); the library uses the same cut-off for its exact verdicts.
ZERO_DEV = 1e-12
# MC scores and record frequencies must lie within this many standard
# errors of the exact value; six sigma makes a false alarm on correct code
# a one-in-a-billion event per comparison.
SIGMAS = 6.0


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


# -- C/R/D calculus ---------------------------------------------------------------


def saturate(n: int, c_sets, r_sets) -> frozenset[int]:
    """C-family of the unguarded closure, by saturation over bitmasks.

    The rules map C(I) to R(~I) and back and close both kinds under union
    and intersection, so R(I) is derivable iff ~I is in the C-family, and
    the C-family is the union/intersection closure of the C-axioms, the
    complements of the R-axioms, the empty set and the full set.
    """
    full = (1 << n) - 1
    family = {0, full, *c_sets, *(full ^ r for r in r_sets)}
    work = list(family)
    while work:
        a = work.pop()
        for b in list(family):
            for c in (a | b, a & b):
                if c not in family:
                    family.add(c)
                    work.append(c)
    return frozenset(family)


def holds_in(family: frozenset[int], n: int, kind: str, bits: int) -> bool:
    full = (1 << n) - 1
    c_ok = bits in family
    r_ok = (full ^ bits) in family
    return {"C": c_ok, "R": r_ok, "D": c_ok and r_ok}[kind]


def plan_families(n: int, cand_sets: list[int], budget: int) -> dict[tuple[int, ...], frozenset[int]]:
    """The saturated C-family of every candidate subset up to the budget."""
    return {
        picks: saturate(n, [cand_sets[i] for i in picks], [])
        for size in range(min(budget, len(cand_sets)) + 1)
        for picks in combinations(range(len(cand_sets)), size)
    }


def minimal_plans(families: dict, n: int, goal: list[tuple[str, int]]) -> list[tuple[int, ...]]:
    """Every smallest candidate subset (by position) whose guaranteed
    consistency facts entail every goal atom; empty if none within budget."""
    for size in sorted({len(p) for p in families}):
        winners = [
            picks for picks, family in families.items()
            if len(picks) == size and all(holds_in(family, n, kind, bits) for kind, bits in goal)
        ]
        if winners:
            return sorted(winners)
    return []


# -- exact consistency statistics ---------------------------------------------------


def _differ(mass: dict, total: float) -> float:
    """Probability that two independent draws from a value->mass table differ."""
    return 1.0 - sum((q / total) ** 2 for q in mass.values())


def deviation(support, probs, mapped, cols: list[int]) -> tuple[float, float]:
    """(numerator, denominator) of the consistency score of the columns.

    numerator: expected number of measured columns that differ between a
    latent draw and a redraw sharing its latent values on ``cols``;
    denominator: the same for two independent draws.  Plain dictionary
    sums over the support rows; a column that is constant within a group
    contributes an exact zero.
    """
    groups: dict = {}
    marginal = [{} for _ in cols]
    for z, p, s in zip(support.tolist(), probs.tolist(), mapped.tolist()):
        key = tuple(z[c] for c in cols)
        if key not in groups:
            groups[key] = [0.0, [{} for _ in cols]]
        group = groups[key]
        group[0] += p
        for j, c in enumerate(cols):
            group[1][j][s[c]] = group[1][j].get(s[c], 0.0) + p
            marginal[j][s[c]] = marginal[j].get(s[c], 0.0) + p
    num = sum(w * sum(_differ(m, w) for m in tables) for w, tables in groups.values())
    den = sum(_differ(m, sum(m.values())) for m in marginal)
    return num, den


def true_atoms(support, probs, mapped, n: int) -> set[tuple[str, int]]:
    """Every C/R atom over all 2^n index sets that holds exactly."""
    full = (1 << n) - 1
    cons = set()
    for bits in range(1 << n):
        num, _ = deviation(support, probs, mapped, [i for i in range(n) if bits >> i & 1])
        if num <= ZERO_DEV:
            cons.add(bits)
    return {("C", b) for b in cons} | {("R", full ^ b) for b in cons}


def mc_score_tolerance(num: float, den: float, measured: int, samples: int) -> float:
    """Six-sigma bound on |MC score - exact score| for 1 - N/D.

    Each MC deviation is a count in [0, measured], so its variance is at
    most measured**2 / 4; the delta method for a ratio of two independent
    means then bounds the score's standard error.
    """
    var = measured**2 / 4.0 / samples
    return SIGMAS * sqrt(var / den**2 + num**2 * var / den**4)


# -- supervision ----------------------------------------------------------------------


def labeling_matched_count(support: np.ndarray, cols: list[int]) -> int:
    """Size of the matched set under restricted labeling of ``cols``.

    A bijection matches the labeled table iff it maps every support row to
    a row with the same label, so the matched set is the product of the
    symmetric groups of the label classes.
    """
    _, counts = np.unique(support[:, cols], axis=0, return_counts=True)
    return prod(factorial(int(c)) for c in counts)


def within_class_perm(support: np.ndarray, cols: list[int], rng: np.random.Generator) -> list[int]:
    """A random bijection that permutes rows only within their label class."""
    _, group = np.unique(support[:, cols], axis=0, return_inverse=True)
    group = group.ravel()
    perm = np.arange(len(support))
    for g in range(int(group.max()) + 1):
        rows = np.flatnonzero(group == g)
        perm[rows] = rng.permutation(rows)
    return [int(v) for v in perm]


def check_frequencies(outcomes: list[tuple], mass: dict):
    """Empirical outcome frequencies within six binomial sigmas (plus two
    counts of slack) of the exact table, and no outcome off the table."""
    count = len(outcomes)
    seen: dict = {}
    for o in outcomes:
        seen[o] = seen.get(o, 0) + 1
    for o in seen:
        expect(o in mass, f"record {o} has zero mass in the exact table")
    for o, p in mass.items():
        f = seen.get(o, 0) / count
        tol = SIGMAS * sqrt(p * (1.0 - p) / count) + 2.0 / count
        expect(abs(f - p) <= tol, f"outcome {o}: frequency {f:.5f} vs mass {p:.5f} (tol {tol:.5f})")
