"""Complexified cosh-well potential, its gradient, and the chart flow.

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
    "flow",
    "chart_coefficients",
    "chart_flow",
    "potential",
    "potential_array",
    "potential_gradient",
    "hamiltonian",
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
    steps the chart polynomial of :func:`chart_coefficients`.  A cosh or
    sinh overflow raises NonFiniteStateError.
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


def chart_coefficients(params: SystemParams, energy: complex) -> tuple[complex, complex, complex, complex, complex]:
    """The coefficients (q0, q1, q2, q3, q4) of the chart polynomial at energy E,
    Q(w) = 4E w^2 + (zeta w^2 - 2iM w + zeta)^2 = q0 + q1 w + q2 w^2 + q3 w^3 + q4 w^4:
    q0 = q4 = zeta^2, q1 = q3 = -4iM zeta and q2 = 4E - 4M^2 + 2 zeta^2.  Q is written
    out here only; :func:`chart_flow` and ``integrator.chart_step``, on scalars and on the
    samples' arrays, evaluate it and its derivatives in Horner form on these coefficients."""
    _require_finite(energy, "energy")
    zeta, m = params.zeta, params.m_int
    q0, q1 = complex(zeta * zeta), -4j * m * zeta
    return q0, q1, 4.0 * energy - 4.0 * m * m + 2.0 * zeta * zeta, q1, q0


def chart_flow(params: SystemParams, energy: complex) -> Callable[[complex], tuple[complex, complex]]:
    """The flow in the chart w = e^{2z} at energy E as one kernel, on scalars or numpy
    arrays: w -> (w'' = 2 Q'(w), Q(w)), with Q of :func:`chart_coefficients`.

    On the shell H = E, w' = 4wp and w'^2 = 4 Q(w).  Re z = -inf is the regular
    point w = 0.  The chart w = e^{-2z} has the same flow, since w^4 Q(1/w) = Q(w).
    """
    q0, q1, q2, q3, q4 = chart_coefficients(params, energy)
    k0, k1, k2, k3 = 2.0 * q1, 4.0 * q2, 6.0 * q3, 8.0 * q4

    def accel(w):
        return ((k3 * w + k2) * w + k1) * w + k0, (((q4 * w + q3) * w + q2) * w + q1) * w + q0

    return accel


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


def real_axis_hermitian_potential(x: float, params: SystemParams) -> float:
    """Hermitian counterpart -(zeta cosh 2x - M)^2 on the real axis.

    A double well, always <= 0, with central barrier height (M - zeta)^2
    above the well bottoms.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    bracket = params.zeta * math.cosh(2.0 * x) - params.m_int
    return -(bracket * bracket)
