"""Analytic positions and indexing of the periodic well lattice.

Stationary points of the potential away from the imaginary axis satisfy
zeta cosh 2z = iM, which puts well centers at

    right side:  x = +arcsinh(M/zeta)/2,  y = (4n+1) pi/4
    left side:   x = -arcsinh(M/zeta)/2,  y = (4n-1) pi/4

for integer n.  The vertical lattice period is pi.  The y coordinates are
returned correctly rounded: a plain ``(4n+1) * math.pi / 4`` rounds twice
and lands up to 0.83 ulp from the lattice point, which the curvature
8(M^2 + zeta^2) turns into a gradient of several 1e-12 at |n| ~ 50.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams
from .errors import DomainError

__all__ = ["Side", "WellIndex", "well_x", "lattice_y", "lattice_y_array", "well_center", "nearest_wells", "nearest_well"]

# pi to 50 decimals as the integer ratio _PI_DIGITS / 10**50
_PI_DIGITS = 314159265358979323846264338327950288419716939937510
_PI_SCALE = 10**50


class Side(enum.Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True, order=True)
class WellIndex:
    """Lattice label (side, n) for one well."""

    side: Side
    n: int


def well_x(params: SystemParams) -> float:
    """Magnitude of the well x-coordinate, arcsinh(M/zeta)/2."""
    return 0.5 * math.asinh(params.m_int / params.zeta)


@functools.lru_cache(maxsize=1024)
def _quarter_pi(k: int) -> float:
    """k pi/4, correctly rounded.

    Integer true division rounds correctly, and 50 digits of pi keep the
    exact quotient far from a rounding midpoint for any practical k.
    Cached: ``lattice_y_array`` rebuilds its table of the same few rows on
    every call, and ``nearest_well`` makes one call per point.
    """
    return (k * _PI_DIGITS) / (4 * _PI_SCALE)


def lattice_y(side: Side, n: int) -> float:
    """(4n+1) pi/4 on the right, (4n-1) pi/4 on the left, correctly rounded."""
    return _quarter_pi(4 * n + 1 if side is Side.RIGHT else 4 * n - 1)


def lattice_y_array(side: Side, n: np.ndarray) -> np.ndarray:
    """``lattice_y`` over an integer-valued array, through a table of its range."""
    if n.size == 0:
        return np.zeros(n.shape)
    k = n.astype(np.int64)
    lo = int(k.min())
    table = np.array([lattice_y(side, j) for j in range(lo, int(k.max()) + 1)])
    return table[k - lo]


def well_center(idx: WellIndex, params: SystemParams) -> complex:
    """Center of the indexed well as a point in the complex plane."""
    xw = well_x(params)
    return complex(xw if idx.side is Side.RIGHT else -xw, lattice_y(idx.side, idx.n))


def nearest_wells(z: np.ndarray, params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The well nearest to each point of ``z``, as arrays (right, n, d): whether it is
    on the right, its row n, and the Euclidean distance.

    On each side the wells at fixed x lie pi apart in y, so the nearest one is in
    the row rounded from y; ``right`` says which side's is nearer.  A non-finite
    point raises DomainError: its row would make ``lattice_y_array``'s table span
    the whole int64 range.
    """
    finite = np.isfinite(z)
    if not finite.all():
        raise DomainError(f"z must be finite, got {complex(z[~finite][0])!r}")
    x, y = z.real, z.imag
    xw = well_x(params)
    n_r = np.round(y / math.pi - 0.25)
    n_l = np.round(y / math.pi + 0.25)
    d_r = np.hypot(x - xw, y - lattice_y_array(Side.RIGHT, n_r))
    d_l = np.hypot(x + xw, y - lattice_y_array(Side.LEFT, n_l))
    right = d_r <= d_l
    return right, np.where(right, n_r, n_l).astype(np.int64), np.where(right, d_r, d_l)


def nearest_well(z: complex, params: SystemParams) -> tuple[WellIndex, float]:
    """Lattice index minimizing Euclidean distance to z, plus that distance:
    :func:`nearest_wells` at one point.

    At an exact tie between the sides the right well wins, so points on the
    imaginary axis report deterministically; between two rows of one side
    ``np.round`` takes the even row.
    """
    right, n, d = nearest_wells(np.array([z]), params)
    return WellIndex(Side.RIGHT if right[0] else Side.LEFT, int(n[0])), float(d[0])
