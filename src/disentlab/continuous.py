"""Parametric continuous oracle: the disk-rotation family.

The oracle has three real factors: an angle uniform on [0, 2*pi) and a
point uniform on the unit disk, with the identity generator.  The paired
candidate model rotates the disk point by the angle, which preserves the
data distribution yet entangles the angle into the remaining factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .errors import WorldError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DiskRotationWorld:
    """Oracle: s1 ~ unif[0, 2pi), (s2, s3) ~ unif(unit disk), g* = identity."""

    n: ClassVar[int] = 3
    ordered: ClassVar[tuple[bool, ...]] = (True, True, True)

    def sample_latents(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return _redraw(rng, np.empty((m, 3)), {0, 1, 2})

    def resample_latents(self, rng, latents: np.ndarray, resample_cols: Sequence[int]) -> np.ndarray:
        """Redraw the given coordinates from their exact conditional.

        The angle is independent of the disk point; within the disk the
        conditional of one coordinate given the other is uniform on the
        chord through the fixed value.
        """
        cols = set(resample_cols)
        if not cols <= {0, 1, 2}:
            raise WorldError(f"coordinates {sorted(cols)} outside this world's arity")
        return _redraw(rng, np.asarray(latents, dtype=float).copy(), cols)

    def observe(self, latents: np.ndarray) -> np.ndarray:
        """g* is the identity: observations are the factor vectors."""
        return np.asarray(latents, dtype=float).copy()


@dataclass(frozen=True)
class RotationCandidate(DiskRotationWorld):
    """Candidate whose generator rotates (z2, z3) by the angle z1.

    It samples latents as the oracle world does, and rotation preserves
    the disk's uniform measure, so the model matches the observation
    distribution while z1 leaks into the measured factors 2 and 3.
    ``base`` is the oracle.
    """

    base: DiskRotationWorld = field(default_factory=DiskRotationWorld)

    def phi(self, z: np.ndarray) -> np.ndarray:
        """Forward reparameterization (equals e* . g here)."""
        return _rotate(z, 1.0)

    def phi_inverse(self, s_vals: np.ndarray) -> np.ndarray:
        return _rotate(s_vals, -1.0)

    def observe(self, latents: np.ndarray) -> np.ndarray:
        """g = g* . phi (g* is the identity)."""
        return self.phi(latents)


def rotation_world() -> tuple[DiskRotationWorld, RotationCandidate]:
    """The impossibility counterexample: oracle plus rotating candidate."""
    world = DiskRotationWorld()
    return world, RotationCandidate(world)


def _redraw(rng: np.random.Generator, out: np.ndarray, cols: set, disk: bool = True) -> np.ndarray:
    """Redraw the 0-based coordinates ``cols`` of the (m, 3) latents ``out``
    in place and return it: the angle first, then the disk point (radius and
    angle uniforms) or one coordinate on its chord.  With ``disk`` false the
    same uniforms are drawn in the same order but the disk coordinates are
    left unset, skipping the sqrt, cos and sin, for draws of the angle alone."""
    m = len(out)
    if 0 in cols:
        out[:, 0] = rng.uniform(0.0, TWO_PI, m)
    if not disk:
        rng.random(m * len(cols & {1, 2}))
    elif {1, 2} <= cols:
        radii = np.sqrt(rng.uniform(0.0, 1.0, m))
        theta = rng.uniform(0.0, TWO_PI, m)
        np.multiply(radii, np.cos(theta), out=out[:, 1])
        np.multiply(radii, np.sin(theta), out=out[:, 2])
    elif cols & {1, 2}:
        (c,) = cols & {1, 2}
        half = np.sqrt(np.maximum(0.0, 1.0 - out[:, 3 - c] ** 2))
        out[:, c] = rng.uniform(-half, half)
    return out


def _rotate(z, sign: float) -> np.ndarray:
    """(z1, z2, z3) with the point (z2, z3) rotated by sign * z1, row by row."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    c, s = np.cos(z[:, 0]), sign * np.sin(z[:, 0])
    out = np.empty((len(z), 3))
    out[:, 0] = z[:, 0]
    out[:, 1] = c * z[:, 1] - s * z[:, 2]
    out[:, 2] = s * z[:, 1] + c * z[:, 2]
    return out
