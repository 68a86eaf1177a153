"""Immutable sets of factor indices, the argument of every consistency fact.

Indices are 1-based (factor 1 .. factor n).  A universe may optionally
include one nuisance index, written ``eta`` and stored as index n+1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import ArityMismatch

ETA = "eta"


def parse_ints(text: str) -> list[int]:
    """The comma-separated integers of ``text``, blank entries skipped.
    Entries must be ASCII digits (``int`` alone takes other scripts' digits
    too); anything else raises ValueError."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens if tok):
        raise ValueError(f"{text!r} is not a comma-separated list of nonnegative integers")
    return [int(tok) for tok in tokens if tok]


@dataclass(frozen=True, order=True)
class IndexSet:
    """A subset of {1..n} (plus optionally the nuisance index) as a bitmask.

    ``n`` is the number of regular factors; bit ``i-1`` holds factor ``i``.
    When ``nuisance`` is true the universe gains one extra index ``n+1``
    (the nuisance variable), stored in bit ``n``.
    """

    n: int
    bits: int
    nuisance: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ArityMismatch(f"negative arity {self.n}")
        if self.bits < 0 or self.bits & ~self._mask():
            raise ArityMismatch(
                f"bitmask {bin(self.bits)} outside universe of size {self.universe_size}"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, indices: Iterable[int], n: int, nuisance: bool = False) -> "IndexSet":
        bits = 0
        limit = n + (1 if nuisance else 0)
        for i in indices:
            if isinstance(i, bool) or not hasattr(type(i), "__index__"):
                raise ArityMismatch(f"index {i!r} is not an integer")
            i = operator.index(i)
            if not 1 <= i <= limit:
                raise ArityMismatch(f"index {i} outside 1..{limit}")
            bits |= 1 << (i - 1)
        return cls(n, bits, nuisance)

    # -- structure ---------------------------------------------------------

    @property
    def universe_size(self) -> int:
        return self.n + (1 if self.nuisance else 0)

    @property
    def eta_index(self) -> int:
        return self.n + 1

    def _mask(self) -> int:
        return (1 << self.universe_size) - 1

    def members(self) -> tuple[int, ...]:
        """1-based indices in ascending order (eta appears as n+1)."""
        return tuple(i + 1 for i in range(self.universe_size) if self.bits >> i & 1)

    def cols(self) -> list[int]:
        """0-based column positions, for array indexing."""
        return [i for i in range(self.universe_size) if self.bits >> i & 1]

    # -- algebra -----------------------------------------------------------

    def _check_same_universe(self, other: "IndexSet"):
        if (self.n, self.nuisance) != (other.n, other.nuisance):
            raise ArityMismatch(
                f"index sets live in different universes: "
                f"(n={self.n}, nuisance={self.nuisance}) vs (n={other.n}, nuisance={other.nuisance})"
            )

    def union(self, other: "IndexSet") -> "IndexSet":
        self._check_same_universe(other)
        return IndexSet(self.n, self.bits | other.bits, self.nuisance)

    def complement(self) -> "IndexSet":
        return IndexSet(self.n, self.bits ^ self._mask(), self.nuisance)

    __or__ = union
    __invert__ = complement

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for i in self.members():
            parts.append(ETA if self.nuisance and i == self.eta_index else str(i))
        return "{" + ",".join(parts) + "}"

    def __repr__(self) -> str:
        return f"IndexSet({self} of n={self.n}{', nuisance' if self.nuisance else ''})"
