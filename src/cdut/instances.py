"""Seeded instance generators for tests, benchmarks, and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PointSet, as_translation

__all__ = [
    "PlantedInstance",
    "uniform_instance",
    "clustered_instance",
    "translated_copy_instance",
    "noisy_copy_instance",
    "separated_planted_instance",
]


# sites of the lattice that separated_planted_instance draws B from; the draw
# permutes all of them, 8 bytes each
_MAX_SITES = 1 << 24


@dataclass(frozen=True)
class PlantedInstance:
    a: PointSet
    b: PointSet
    shift: np.ndarray
    meta: dict = field(default_factory=dict)


def _snap(values: np.ndarray, grain: float = 1.0 / 1024.0) -> np.ndarray:
    # dyadic coordinates make planted shifts exact in floating point
    return np.round(values / grain) * grain


def uniform_instance(m: int, n: int, d: int, seed: int, low: float = -100.0, high: float = 100.0):
    rng = np.random.default_rng(seed)
    a = PointSet(rng.uniform(low, high, size=(m, d)))
    b = PointSet(rng.uniform(low, high, size=(n, d)))
    return a, b


def clustered_instance(m: int, n: int, d: int, seed: int):
    """Both sets drawn from three Gaussian blobs of spread 5."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-100.0, 100.0, size=(3, d))

    def blob(count):
        which = rng.integers(0, 3, size=count)
        return PointSet(centers[which] + rng.normal(scale=5.0, size=(count, d)))

    return blob(m), blob(n)


def translated_copy_instance(m: int, d: int, seed: int, shift=None) -> PlantedInstance:
    """B is an exact translate of A; coordinates are dyadic so the planted
    shift survives float arithmetic bit-for-bit."""
    rng = np.random.default_rng(seed)
    base = _snap(rng.uniform(-100.0, 100.0, size=(m, d)))
    if shift is None:
        shift = _snap(rng.uniform(-20.0, 20.0, size=d))
    else:
        shift = as_translation(shift, d)
    a = PointSet(base)
    b = PointSet(base + shift)
    return PlantedInstance(a=a, b=b, shift=shift, meta={"kind": "translated-copy"})


def noisy_copy_instance(
    m: int,
    d: int,
    seed: int,
    shift=None,
    noise: float = 0.5,
) -> PlantedInstance:
    """A tight cluster in [0, 10]^d and its jittered translate: candidate
    translations concentrate near the planted shift, which is the regime
    where the union net pays off."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 10.0, size=(m, d))
    if shift is None:
        shift = rng.uniform(-20.0, 20.0, size=d)
    else:
        shift = as_translation(shift, d)
    jitter = rng.uniform(-noise, noise, size=(m, d))
    return PlantedInstance(
        a=PointSet(base),
        b=PointSet(base + shift + jitter),
        shift=shift,
        meta={"kind": "noisy-copy", "noise": noise},
    )


def separated_planted_instance(
    m: int,
    n: int,
    d: int,
    radius: float,
    c: float,
    epsilon: float,
    kind: str,
    seed: int,
) -> PlantedInstance:
    """A decision instance with a known answer.

    B sits on n sites of a side^d lattice (side = ceil(n^(1/d))), scaled
    so the separation assumption holds three times over; a lattice of
    more than ``_MAX_SITES`` sites is refused with ``ValueError``.  A is m
    of those sites pulled back by a shift and perturbed: for a YES instance the perturbations' norms sum to R/2, so
    the optimum is at most R/2.  For a NO instance the perturbations are
    +-delta along the first axis in equal numbers; no translation can
    cancel opposite offsets, so the optimum is exactly m * delta,
    calibrated to 2 R (1 + eps).
    """
    if kind not in ("yes", "no"):
        raise ValueError("kind must be 'yes' or 'no'")
    if kind == "no" and m % 2:
        raise ValueError("NO instances need an even m so offsets pair up")
    if m > n:
        raise ValueError(f"m = {m} exceeds n = {n}: A's points are drawn from B's sites without replacement")
    side = math.ceil(n ** (1.0 / d))
    if side**d > _MAX_SITES:
        raise ValueError(f"a lattice of {side}^{d} sites exceeds the cap of {_MAX_SITES}")
    rng = np.random.default_rng(seed)
    spacing = 3.0 * (c + 1.0) * (1.0 + 2.0 / m) * radius
    # n sites drawn from the side^d lattice, whose site j is j's digits in
    # base side, the last axis fastest
    digits = np.unravel_index(rng.permutation(side**d)[:n], (side,) * d)
    sites = np.stack(digits, axis=-1).astype(np.float64) * spacing
    b = PointSet(sites)
    chosen = rng.permutation(n)[:m]
    shift = rng.uniform(-5.0, 5.0, size=d) * radius
    if kind == "yes":
        directions = rng.normal(size=(m, d))
        directions /= np.sqrt(np.sum(directions**2, axis=1))[:, None]
        weights = rng.uniform(0.5, 1.0, size=m)
        weights *= (radius / 2.0) / weights.sum()
        noise = directions * weights[:, None]
        opt_upper = radius / 2.0
        opt_lower = 0.0
    else:
        delta = 2.0 * radius * (1.0 + epsilon) / m
        noise = np.zeros((m, d))
        noise[: m // 2, 0] = delta
        noise[m // 2 :, 0] = -delta
        opt_upper = m * delta
        opt_lower = m * delta
    a = PointSet(sites[chosen] - shift + noise)
    return PlantedInstance(
        a=a,
        b=b,
        shift=shift,
        meta={
            "kind": f"separated-{kind}",
            "radius": radius,
            "c": c,
            "epsilon": epsilon,
            "opt_upper": opt_upper,
            "opt_lower": opt_lower,
        },
    )
