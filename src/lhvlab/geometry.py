"""Deterministic geometry and randomness substrate.

Unit vectors on the sphere, the one per-trial dot product (every u.x of
the model rules and protocol runners rounds alike), the global sign
convention, and seeded splittable random streams. Everything downstream
draws exclusively through :class:`RandomStream` so that a run is
reproducible bit-for-bit from its master seed.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-12

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])


def dot(u, x):
    """u.x over the last axis, summed left to right as
    np.sum(u * x, axis=-1) sums (the same bits), without the temporary."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    return u[..., 0] * x[..., 0] + u[..., 1] * x[..., 1] + u[..., 2] * x[..., 2]


def sgn(x):
    """Sign with sgn(0) = +1, applied elementwise.

    The convention at zero is fixed globally; the zero set has measure
    zero under every sampler here, so estimated probabilities do not
    depend on it (test-verified).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("sgn requires finite input")
    out = np.where(x >= 0.0, 1.0, -1.0)
    return float(out) if out.ndim == 0 else out


def normalize(v) -> np.ndarray:
    """Scale v to unit length. Idempotent: a vector already within
    UNIT_TOL of unit norm is returned unchanged."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("cannot normalize zero or non-finite vector")
    if abs(norm - 1.0) <= UNIT_TOL:
        return v
    return v / norm


def unit_vector(x, y, z) -> np.ndarray:
    return normalize(np.array([x, y, z], dtype=float))


def planar_setting(angle_deg: float) -> np.ndarray:
    """Analyzer direction at the given angle in the x-y plane."""
    t = math.radians(angle_deg)
    return np.array([math.cos(t), math.sin(t), 0.0])


def assert_unit(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(float(np.dot(v, v)) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit vector, got norm^2={float(np.dot(v, v))!r}")
    return v


class RandomStream:
    """Counter-based splittable random stream.

    A stream is identified by (master_seed, stream_id); equal
    identifiers reproduce the identical draw sequence on any platform,
    and distinct stream_ids give statistically independent sequences
    (Philox counter-based generator keyed by the pair). The number of
    values drawn so far is tracked in ``counter``.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self.counter = 0
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self):
        return (f"RandomStream(master_seed={self.master_seed}, "
                f"stream_id={self.stream_id}, counter={self.counter})")

    def _count(self, size) -> None:
        self.counter += 1 if size is None else int(np.prod(size))

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        self._count(size)
        return self._gen.random(size)

    def signs(self, size=None):
        """Fair draws from {-1.0, +1.0}."""
        u = self.uniform(size)
        return np.where(np.asarray(u) < 0.5, -1.0, 1.0) if size is not None else (-1.0 if u < 0.5 else 1.0)

    def bits(self, size=None):
        """Fair draws from {0, 1}."""
        u = self.uniform(size)
        return (np.asarray(u) < 0.5).astype(np.int64) if size is not None else int(u < 0.5)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        self._count(size)
        return self._gen.integers(low, high, size=size)

    def sphere(self, size=None):
        """Uniform unit vectors on the sphere; see sample_uniform_sphere."""
        return sample_uniform_sphere(self, size)


def substream(master_seed: int, trial_index: int) -> RandomStream:
    """Deterministic per-trial (or per-party) stream. Distinct
    trial_index values map to distinct stream ids by construction."""
    return RandomStream(master_seed, trial_index)


def sample_uniform_sphere(stream: RandomStream, size=None):
    """Uniform direction(s) on the unit sphere.

    Area-preserving inverse transform: z uniform in [-1, 1], azimuth
    uniform in [0, 2*pi). Exactly two uniform draws per vector, never
    rejection, so the draw count per sample is fixed.
    """
    n = 1 if size is None else int(size)
    z = 2.0 * stream.uniform(n) - 1.0
    phi = 2.0 * math.pi * stream.uniform(n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    out = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    return out[0] if size is None else out
