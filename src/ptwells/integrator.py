"""Adaptive integration of Hamilton's equations in the complex plane.

The flow (``dynamics.flow``)

    dz/dt = 2p,        dp/dt = -dV/dz = 4 zeta sinh(2z) (zeta cosh(2z) - iM),

is integrated with an embedded Dormand-Prince 5(4) pair (FSAL) under PI step
control.  The complex energy H = p^2 + V(z) is exactly conserved by the
flow, so the relative deviation |H - E| / max(1, |E|) measured at every
accepted step serves as the numerical-correctness guard: the first sample
that exceeds ``energy_drift_limit`` is discarded and integration stops
with ``Termination.DRIFT_EXCEEDED``.  Every retained sample is therefore
certified to satisfy the drift bound.

Tunneling orbits periodically whip through regions where the potential is
enormous (|V| ~ 1e4..1e9 while |E| ~ 1); there the energy check is
ill-conditioned and plain relative step control lets single steps kick the
energy by ~|V| * rel_tol.  The error norm below therefore also weights the
per-step error against its effect on the energy (via 2|p| and |dV/dz|),
which keeps trajectories certified through moderate whips.  Past
|dV/dz| ~ 1e6 the drift measurement saturates at the double-precision
representation floor of the state itself and the guard fires regardless;
analysis then works on the certified prefix.

That floor is recorded.  One rounding of z and p each moves H by at most
about eps (|dV/dz| |z| + 2 |p|^2); relative to max(1, |E|) this is the
per-step drift floor F.  The kicks stay in the state, since the flow
carries an energy offset on, and add up from step to step as a random
walk.  ``Trajectory.drift_floor_rss`` is sqrt(sum F^2) over the steps whose
sample is kept, the samples ``max_drift`` is taken over; drift of that
order is not resolvable in double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemParams, flow, hamiltonian, potential, potential_array
from .errors import DomainError, NonFiniteStateError

__all__ = [
    "MomentumBranch",
    "Termination",
    "PhaseState",
    "IntegratorConfig",
    "ReturnWatch",
    "Trajectory",
    "initial_momentum",
    "derivative",
    "dp5_step",
    "integrate",
]


class MomentumBranch(enum.Enum):
    PRINCIPAL = "principal"
    NEGATED = "negated"


class Termination(enum.Enum):
    TIME_LIMIT = "time_limit"
    STEP_LIMIT = "step_limit"
    ESCAPED = "escaped"
    DRIFT_EXCEEDED = "drift_exceeded"
    RETURNED = "returned"


@dataclass(frozen=True)
class PhaseState:
    """One point of a trajectory: time, complex position, complex momentum."""

    t: float
    z: complex
    p: complex


@dataclass(frozen=True)
class IntegratorConfig:
    dt_init: float = 1e-3
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    t_max: float = 200.0
    max_steps: int = 2_000_000
    energy_drift_limit: float = 1e-8
    escape_radius: float = 8.0
    # escape along the lattice: |Im z - Im z0| beyond this also terminates
    # as ESCAPED (open orbits at real energy flee down the well column
    # with bounded Re z); infinite by default
    escape_y_span: float = math.inf
    # end at the first return within this distance of the start phase point
    # (see ReturnWatch); None integrates on to t_max
    return_tol: float | None = None

    def __post_init__(self) -> None:
        for name in ("dt_init", "rel_tol", "abs_tol", "t_max", "energy_drift_limit", "escape_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        if not self.escape_y_span > 0:
            raise DomainError(f"escape_y_span must be > 0, got {self.escape_y_span!r}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be >= 1, got {self.max_steps!r}")
        if self.return_tol is not None and not (math.isfinite(self.return_tol) and self.return_tol > 0):
            raise DomainError(f"return_tol must be None or finite and > 0, got {self.return_tol!r}")


@dataclass
class Trajectory:
    """Samples retained at accepted steps, plus the conserved energy.

    Sample arrays are columnar for memory efficiency; ``state(i)``
    provides the record view.  ``drift[i]`` is the relative
    energy deviation |H - E| / max(1, |E|) at sample i, bounded by the
    integration config's ``energy_drift_limit`` for every retained sample.
    ``drift_floor_rss`` is the root sum of squares of the per-step drift
    floors eps (|dV/dz| |z| + 2 |p|^2) / max(1, |E|) over the steps whose
    sample is retained, so it pairs with ``max_drift``.
    """

    params: SystemParams
    energy: complex
    t: np.ndarray
    z: np.ndarray
    p: np.ndarray
    drift: np.ndarray
    termination: Termination
    n_accepted: int = 0
    n_rejected: int = 0
    config: IntegratorConfig = field(default_factory=IntegratorConfig)
    drift_floor_rss: float = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PhaseState:
        return PhaseState(float(self.t[i]), complex(self.z[i]), complex(self.p[i]))

    @property
    def max_drift(self) -> float:
        return float(self.drift.max()) if len(self.drift) else 0.0

    def energy_component_errors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample (e1, e2) deviations, each relative to its initial value."""
        h = self.p * self.p + potential_array(self.z, self.params)
        e1_0, e2_0 = self.energy.real, self.energy.imag
        err1 = (h.real - e1_0) / max(1.0, abs(e1_0))
        err2 = (h.imag - e2_0) / max(1.0, abs(e2_0))
        return err1, err2


def initial_momentum(
    z0: complex,
    energy: complex,
    branch: MomentumBranch,
    params: SystemParams,
) -> complex:
    """Momentum satisfying H(z0, p0) = energy: +/- sqrt(energy - V(z0)).

    The principal complex square root fixes the branch; NEGATED flips the
    sign and hence the initial direction of travel.
    """
    p = cmath.sqrt(energy - potential(z0, params))
    return -p if branch is MomentumBranch.NEGATED else p


def derivative(state: PhaseState, params: SystemParams) -> tuple[complex, complex]:
    """Right-hand side (dz/dt, dp/dt) of Hamilton's equations."""
    dz, dp, _ = flow(params)(state.z, state.p)
    return dz, dp


class ReturnWatch:
    """The first return of a sample sequence to its start phase point.

    Distances are Euclidean over (z, p) as a 4-real-vector.  A return is
    the first segment between consecutive samples whose closest approach
    to the start lies within ``tol``, counted only once a sample has left
    the ball of radius max(100 tol, 1e-3) about the start.  Taking the
    minimum over each segment registers the return even when no sample
    lands near the start.  ``integrate`` feeds it each kept sample online
    and ``analysis.classify_orbit`` replays a finished trajectory through
    it, so both find the same return.
    """

    def __init__(self, z0: complex, p0: complex, tol: float) -> None:
        self.z0, self.p0 = z0, p0
        self.tol = tol
        self.leave_sq = max(100.0 * tol, 1e-3) ** 2
        self.left = False
        self.az, self.ap = 0j, 0j  # offset of the previous sample from the start

    def step(self, z: complex, p: complex) -> float | None:
        """Take the next sample; the fraction along the segment from the
        previous sample at which the orbit returns, or None."""
        az, ap = self.az, self.ap
        bz, bp = z - self.z0, p - self.p0
        self.az, self.ap = bz, bp
        if not self.left:
            self.left = _norm_sq(bz, bp) > self.leave_sq
            return None
        uz, up = bz - az, bp - ap
        uu = _norm_sq(uz, up)
        au = az.real * uz.real + az.imag * uz.imag + ap.real * up.real + ap.imag * up.imag
        s = min(1.0, max(0.0, -au / uu)) if uu > 0 else 0.0
        return s if math.sqrt(_norm_sq(az + s * uz, ap + s * up)) <= self.tol else None


def _norm_sq(z: complex, p: complex) -> float:
    return z.real * z.real + z.imag * z.imag + p.real * p.real + p.imag * p.imag


# Dormand-Prince 5(4) tableau: rows for stages 2-6, the fifth-order weights
# (the 7th stage is taken there, FSAL) and the error weights of stages 1-7.
_ROWS = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR_ROW = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (_A61, _A62, _A63, _A64, _A65) = _ROWS[:5]
_B1, _B2, _B3, _B4, _B5, _B6 = _ROWS[5]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _ERR_ROW


def dp5_step(rhs, y: np.ndarray, k1: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One DP5 step of the array ``y`` under ``rhs`` from its slope ``k1``: the
    new state, its slope and the error estimate (``integrate`` inlines it)."""
    k = [k1]
    for row in _ROWS:
        yn = y + h * sum(a * ki for a, ki in zip(row, k))
        k.append(rhs(yn))
    return yn, k[-1], h * sum(e * ki for e, ki in zip(_ERR_ROW, k))


_EPS = 2.220446049250313e-16
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
# fraction of (abs_tol + rel_tol |E|) a single step may kick the energy by;
# the margin absorbs random-walk accumulation over ~1e5-step horizons
_ENERGY_SAFETY = 0.25


class _Buf:
    """Geometrically grown columnar sample storage."""

    def __init__(self) -> None:
        self.cap = 1 << 12
        self.n = 0
        self.t = np.empty(self.cap)
        self.z = np.empty(self.cap, dtype=complex)
        self.p = np.empty(self.cap, dtype=complex)
        self.d = np.empty(self.cap)

    def push(self, t: float, z: complex, p: complex, d: float) -> None:
        if self.n == self.cap:
            self.cap *= 2
            for name in ("t", "z", "p", "d"):
                arr = getattr(self, name)
                grown = np.empty(self.cap, dtype=arr.dtype)
                grown[: self.n] = arr
                setattr(self, name, grown)
        i = self.n
        self.t[i] = t
        self.z[i] = z
        self.p[i] = p
        self.d[i] = d
        self.n = i + 1


def integrate(
    z0: complex,
    p0: complex,
    config: IntegratorConfig,
    params: SystemParams,
) -> Trajectory:
    """Integrate from (z0, p0) until t_max, escape, step budget, drift, or
    (with ``config.return_tol``) the first return to the start."""
    try:
        e0 = hamiltonian(z0, p0, params)
    except NonFiniteStateError as exc:
        raise DomainError(f"initial state overflows the potential: z0={z0!r}") from exc
    if not (math.isfinite(e0.real) and math.isfinite(e0.imag)):
        raise DomainError(f"initial energy is not finite: {e0!r}")

    rhs = flow(params)
    e_scale = max(1.0, abs(e0))
    # per-step energy-error budget used by the error norm
    budget = _ENERGY_SAFETY * (config.abs_tol + config.rel_tol * e_scale)
    rtol = config.rel_tol
    atol = config.abs_tol
    drift_limit = config.energy_drift_limit
    escape_radius = config.escape_radius
    escape_y_span = config.escape_y_span
    y0 = z0.imag
    t_max = config.t_max
    max_steps = config.max_steps

    buf = _Buf()
    t, z, p = 0.0, complex(z0), complex(p0)
    buf.push(t, z, p, 0.0)
    watch = None if config.return_tol is None else ReturnWatch(z, p, config.return_tol)

    k1z, k1p, _ = rhs(z, p)
    h = min(config.dt_init, t_max)
    facold = 1e-4
    floor_sq = 0.0  # sum of (|dV/dz| |z| + 2 |p|^2)^2 over kept samples
    n_acc = 0
    n_rej = 0
    rejected_last = False
    termination = Termination.TIME_LIMIT

    while True:
        if n_acc + n_rej >= max_steps:
            termination = Termination.STEP_LIMIT
            break
        last_step = t + h >= t_max
        if last_step:
            h = t_max - t

        k2z, k2p, _ = rhs(z + h * (_A21 * k1z), p + h * (_A21 * k1p))
        k3z, k3p, _ = rhs(z + h * (_A31 * k1z + _A32 * k2z), p + h * (_A31 * k1p + _A32 * k2p))
        k4z, k4p, _ = rhs(
            z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z),
            p + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p),
        )
        k5z, k5p, _ = rhs(
            z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z),
            p + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p),
        )
        k6z, k6p, _ = rhs(
            z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z),
            p + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p),
        )
        zn = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        pn = p + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        if not (
            math.isfinite(zn.real) and math.isfinite(zn.imag)
            and math.isfinite(pn.real) and math.isfinite(pn.imag)
        ):
            raise NonFiniteStateError(f"non-finite state at t={t!r}: z={zn!r}, p={pn!r}")
        k7z, k7p, bracket = rhs(zn, pn)

        err_z = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
        err_p = h * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)

        az = max(abs(z), abs(zn))
        ap = max(abs(p), abs(pn))
        # |dV/dz| and 2|p| convert state error into energy error; cap the
        # scales so one step cannot kick H by much more than `budget`, but
        # never push them below the representation floor of the state.
        grad_mag = abs(k1p)
        sz = min(atol + rtol * az, budget / max(1.0, grad_mag))
        sp = min(atol + rtol * ap, budget / max(1.0, 2.0 * ap))
        sz = max(sz, 4.0 * _EPS * az)
        sp = max(sp, 4.0 * _EPS * ap)
        err = math.sqrt(0.5 * ((abs(err_z) / sz) ** 2 + (abs(err_p) / sp) ** 2))

        if err <= 1.0:
            t = t_max if last_step else t + h
            z, p = zn, pn
            k1z, k1p = k7z, k7p
            n_acc += 1

            hh = p * p - bracket * bracket
            drift = abs(hh - e0) / e_scale
            if drift <= drift_limit:
                # the floor counts only where the sample is kept, as the drift does
                floor = grad_mag * az + 2.0 * ap * ap
                floor_sq += floor * floor
            if abs(zn.real) > escape_radius or abs(zn.imag - y0) > escape_y_span:
                if drift <= drift_limit:
                    buf.push(t, z, p, drift)
                termination = Termination.ESCAPED
                break
            if drift > drift_limit:
                termination = Termination.DRIFT_EXCEEDED
                break
            buf.push(t, z, p, drift)
            if watch is not None and watch.step(z, p) is not None:
                termination = Termination.RETURNED
                break
            if last_step:
                termination = Termination.TIME_LIMIT
                break

            if err == 0.0:
                fac = 10.0
            else:
                fac = _SAFETY * err ** (-_EXPO1) * facold**_BETA
                fac = min(10.0, max(0.2, fac))
            if rejected_last:
                fac = min(1.0, fac)
            h *= fac
            facold = max(err, 1e-4)
            rejected_last = False
        else:
            n_rej += 1
            h *= max(0.2, _SAFETY * err**-0.2)
            rejected_last = True
            if h < 1e-14 * max(1.0, abs(t)):
                raise NonFiniteStateError(f"step size underflow at t={t!r} (h={h!r})")

    return Trajectory(
        params=params,
        energy=e0,
        t=buf.t[: buf.n].copy(),
        z=buf.z[: buf.n].copy(),
        p=buf.p[: buf.n].copy(),
        drift=buf.d[: buf.n].copy(),
        termination=termination,
        n_accepted=n_acc,
        n_rejected=n_rej,
        config=config,
        drift_floor_rss=_EPS * math.sqrt(floor_sq) / e_scale,
    )
