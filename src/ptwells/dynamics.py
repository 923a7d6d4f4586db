"""Complexified cosh-well potential, its gradient, and the chart flow.

Everything here is a pure function of a phase-space point and the two
physical parameters (zeta, M).  Units are fixed so that 2m = hbar = 1,
hence H = p^2 + V(z) with the particle living in the complex plane
z = x + iy.  Lengths are nanometers, times seconds.

Each kernel is written once: :func:`potential` and :func:`potential_gradient`
(and with them :func:`hamiltonian` and ``integrator.derivative``) from the
bracket zeta cosh 2z - iM, :func:`potential_array` over numpy arrays, and the
chart polynomial Q, on the coefficients of :func:`chart_coefficients`, by
:func:`chart_accel`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteStateError

__all__ = [
    "SystemParams",
    "chart_coefficients",
    "chart_accel",
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


def _bracket(z: complex, params: SystemParams) -> complex:
    """zeta cosh(2z) - iM, with V = -bracket^2."""
    try:
        return params.zeta * cmath.cosh(2.0 * z) - 1j * params.m_int
    except OverflowError as exc:
        raise NonFiniteStateError(f"state overflow at z={z!r}") from exc


def _finite(value: complex, z: complex) -> complex:
    # cmath.cosh(2z) overflows from |Re z| ~ 355 on, the bracket's square from about half
    # that: each kernel checks its value
    if not cmath.isfinite(value):
        raise NonFiniteStateError(f"state overflow at z={z!r}")
    return value


def chart_coefficients(params: SystemParams, energy: complex) -> tuple[complex, complex, complex, complex, complex]:
    """The coefficients (q0, q1, q2, q3, q4) of the chart polynomial at energy E,
    Q(w) = 4E w^2 + (zeta w^2 - 2iM w + zeta)^2 = q0 + q1 w + q2 w^2 + q3 w^3 + q4 w^4:
    q0 = q4 = zeta^2, q1 = q3 = -4iM zeta and q2 = 4E - 4M^2 + 2 zeta^2.  Q is written
    out here only; :func:`chart_accel` evaluates it and 2Q' on these coefficients, on
    scalars and on the samples' arrays."""
    _require_finite(energy, "energy")
    zeta, m = params.zeta, params.m_int
    q0, q1 = complex(zeta * zeta), -4j * m * zeta
    return q0, q1, 4.0 * energy - 4.0 * m * m + 2.0 * zeta * zeta, q1, q0


def chart_accel(q, w):
    """The flow in the chart w = e^{2z} on Q's coefficients ``q`` (:func:`chart_coefficients`),
    for w a scalar or a numpy array: (w'' = 2 Q'(w), Q(w)), in Horner form.

    On the shell H = E, w' = 4wp and w'^2 = 4 Q(w).  Re z = -inf is the regular
    point w = 0.  The chart w = e^{-2z} has the same flow, since w^4 Q(1/w) = Q(w).
    """
    q0, q1, q2, q3, q4 = q
    return ((8.0 * q4 * w + 6.0 * q3) * w + 4.0 * q2) * w + 2.0 * q1, (((q4 * w + q3) * w + q2) * w + q1) * w + q0


def potential(z: complex, params: SystemParams) -> complex:
    """V(z) = -(zeta cosh 2z - iM)^2, the analytic continuation of the well.

    A value that overflows raises NonFiniteStateError.
    """
    _require_finite(z, "z")
    b = _bracket(z, params)
    return _finite(-b * b, z)


def potential_array(z: np.ndarray, params: SystemParams) -> np.ndarray:
    """:func:`potential` over an array of z."""
    return -((params.zeta * np.cosh(2.0 * z) - 1j * params.m_int) ** 2)


def potential_gradient(z: complex, params: SystemParams) -> complex:
    """dV/dz = -4 zeta sinh(2z) (zeta cosh(2z) - iM), minus the force dp/dt.

    The test suite checks it against central finite differences of
    :func:`potential`.  A value that overflows raises NonFiniteStateError.
    """
    _require_finite(z, "z")
    b = _bracket(z, params)  # first: sinh(2z) overflows where cosh(2z) does
    return _finite(-(4.0 * params.zeta * cmath.sinh(2.0 * z) * b), z)


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
