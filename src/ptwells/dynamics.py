"""Complexified cosh-well potential, its gradient, and the energy split.

Everything here is a pure function of a phase-space point and the two
physical parameters (zeta, M).  Units are fixed so that 2m = hbar = 1,
hence H = p^2 + V(z) with the particle living in the complex plane
z = x + iy.  Lengths are nanometers, times seconds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteStateError

__all__ = [
    "SystemParams",
    "EnergyComponents",
    "flow",
    "chart_flow",
    "chart_jerk",
    "potential",
    "potential_array",
    "potential_gradient",
    "hamiltonian",
    "energy_components",
    "real_axis_hermitian_potential",
    "PARITY_POINT",
]

# Parity acts as z -> PARITY_POINT - z; combined with conjugation it leaves
# the potential invariant.
PARITY_POINT = complex(0.0, math.pi / 2)


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration: coupling zeta > 0 and integer well depth M >= 1."""

    zeta: float
    m_int: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m_int, int) and self.m_int >= 1):
            raise DomainError(f"m_int must be a positive integer, got {self.m_int!r}")
        if not (math.isfinite(self.zeta) and self.zeta > 0):
            raise DomainError(f"zeta must be finite and > 0, got {self.zeta!r}")


@dataclass(frozen=True)
class EnergyComponents:
    """Real and imaginary parts of the conserved complex energy."""

    e1: float
    e2: float


def _require_finite(value: complex, name: str) -> None:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{name} must be finite, got {value!r}")


def flow(params: SystemParams) -> Callable[[complex, complex], tuple[complex, complex, complex]]:
    """The flow as one scalar kernel: (z, p) -> (dz/dt, dp/dt, bracket).

    dz/dt = 2p and dp/dt = -dV/dz = 4 zeta sinh(2z) bracket, with
    bracket = zeta cosh(2z) - iM and V = -bracket^2.  cosh(2x + 2iy) =
    cosh2x cos2y + i sinh2x sin2y and the analogous identity for sinh
    share four real evaluations.  It serves the quantities evaluated in z:
    :func:`potential`, :func:`potential_gradient`, ``integrator.derivative``
    and the slopes of the integrator's return watch; the integration loop
    steps :func:`chart_flow`.  A cosh or sinh overflow raises
    NonFiniteStateError.
    """
    zeta = params.zeta
    i_m = 1j * params.m_int
    cosh = math.cosh
    sinh = math.sinh
    cos = math.cos
    sin = math.sin

    def rhs(z: complex, p: complex) -> tuple[complex, complex, complex]:
        x2 = 2.0 * z.real
        y2 = 2.0 * z.imag
        try:
            chx = cosh(x2)
            shx = sinh(x2)
        except OverflowError as exc:
            raise NonFiniteStateError(f"state overflow at z={z!r}") from exc
        cy = cos(y2)
        sy = sin(y2)
        bracket = zeta * complex(chx * cy, shx * sy) - i_m
        return 2.0 * p, 4.0 * zeta * complex(shx * cy, chx * sy) * bracket, bracket

    return rhs


def chart_flow(params: SystemParams, energy: complex) -> Callable[[complex], tuple[complex, complex]]:
    """The flow in the chart w = e^{2z} at energy E as one scalar kernel:
    w -> (w'' = 2 Q'(w), Q(w)), with Q(w) = 4E w^2 + (zeta w^2 - 2iM w + zeta)^2.

    On the shell H = E, w' = 4wp and w'^2 = 4 Q(w).  Re z = -inf is the regular
    point w = 0.  The chart w = e^{-2z} has the same flow, since w^4 Q(1/w) = Q(w).
    """
    _require_finite(energy, "energy")
    zeta = params.zeta
    i_m = 1j * params.m_int
    i_2m = 2.0 * i_m
    e4 = 4.0 * energy
    e16 = 16.0 * energy

    def accel(w: complex) -> tuple[complex, complex]:
        zw = zeta * w
        b = (zw - i_2m) * w + zeta
        return e16 * w + 8.0 * b * (zw - i_m), e4 * w * w + b * b

    return accel


def chart_jerk(params: SystemParams, energy: complex) -> Callable[[complex, complex], complex]:
    """The third derivative in the chart of :func:`chart_flow`: (w, w') -> w''' = 2 Q''(w) w',
    with 2 Q''(w) = 16E + 16 (zeta w - iM)^2 + 8 zeta (zeta w^2 - 2iM w + zeta).

    It takes scalars or numpy arrays; the integrator's dense output evaluates
    it at the step ends.
    """
    _require_finite(energy, "energy")
    zeta = params.zeta
    i_m = 1j * params.m_int
    e16 = 16.0 * energy

    def jerk(w, v):
        u = zeta * w - i_m
        return (e16 + 16.0 * u * u + 8.0 * zeta * ((u - i_m) * w + zeta)) * v

    return jerk


def potential(z: complex, params: SystemParams) -> complex:
    """V(z) = -(zeta cosh 2z - iM)^2, the analytic continuation of the well."""
    _require_finite(z, "z")
    bracket = flow(params)(z, 0j)[2]
    return -bracket * bracket


def potential_array(z: np.ndarray, params: SystemParams) -> np.ndarray:
    """:func:`potential` over an array of z."""
    return -((params.zeta * np.cosh(2.0 * z) - 1j * params.m_int) ** 2)


def potential_gradient(z: complex, params: SystemParams) -> complex:
    """dV/dz = -4 zeta sinh(2z) (zeta cosh(2z) - iM), minus the force of :func:`flow`.

    The test suite checks it against central finite differences of
    :func:`potential`.
    """
    _require_finite(z, "z")
    return -flow(params)(z, 0j)[1]


def hamiltonian(z: complex, p: complex, params: SystemParams) -> complex:
    """H = p^2 + V(z) (complex-valued, conserved along trajectories)."""
    _require_finite(z, "z")
    _require_finite(p, "p")
    return p * p + potential(z, params)


def energy_components(z: complex, p: complex, params: SystemParams) -> EnergyComponents:
    """E1 = p1^2 - p2^2 + V1 and E2 = 2 p1 p2 + V2.

    Algebraically identical to the real/imaginary parts of
    :func:`hamiltonian`; computed from the component formulas so tests can
    compare the two code paths.
    """
    v = potential(z, params)
    p1 = p.real
    p2 = p.imag
    return EnergyComponents(
        e1=p1 * p1 - p2 * p2 + v.real,
        e2=2.0 * p1 * p2 + v.imag,
    )


def real_axis_hermitian_potential(x: float, params: SystemParams) -> float:
    """Hermitian counterpart -(zeta cosh 2x - M)^2 on the real axis.

    A double well, always <= 0, with central barrier height (M - zeta)^2
    above the well bottoms.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    bracket = params.zeta * math.cosh(2.0 * x) - params.m_int
    return -(bracket * bracket)
