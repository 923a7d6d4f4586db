"""Integration of Hamilton's equations in the complex plane by the exact flow map.

H = p^2 + V(z) is integrated in the exponential charts of
``dynamics.chart_flow``, w = e^{2z} left of the imaginary axis and
w = e^{-2z} right of it, where the flow is the polynomial w'' = 2 Q'(w)
and Re z = -/+inf is the regular point w = 0.  The whips of the paper's
orbits, out to Re z ~ -7 where the cosh flow is exponentially steep, are
passes near w = 0.  On the shell w'^2 = f(w) = 4 Q(w), a quartic, so the
orbit is an elliptic function of t (Whittaker & Watson, *A Course of Modern
Analysis*, 20.6): w(t0 + h) is a rational function of w(t0), w'(t0) and the
Weierstrass function P(h) and P'(h) on the invariants g2, g3 of f
(:func:`chart_invariants`).  Each step is that map, :func:`chart_step`,
exact up to rounding.  P and P' at each step length are summed once per run
from their Laurent series (DLMF 23.9, :func:`weierstrass_p`) and cached by
length; a series that has not converged within its term budget, at a length
near or beyond its radius, raises NonFiniteStateError.

The step length is h = min(1/48, 0.13 / l) (rel_tol / 1e-10)^(1/8), with
l = max(|g2|^(1/4), |g3|^(1/6)) the inverse length scale of the period
lattice: h l = 0.13 is the median step of an adaptive DOP853 run at rel_tol
1e-10 on the zeta = 0.1 orbits, the sample spacing that the polyline
analyses rest on, and lies well inside the series' radius.  ``rel_tol``
therefore sets the resolution of the samples, not a truncation error;
``rel_tol`` and ``abs_tol`` together bound the projection below.  Every step
length is h_max / 2^j, and t is h_max times the exact sum of the 2^-j, so
the step ends carry the orbit's time to one rounding.  At |w| > 1 the loop
changes chart, w -> 1/w and w' -> -w'/w^2.  A step that turns w by more
than 1 rad, or scales |w| by more than e, is rejected and halved, and the
next accepted step doubles the length back: the integer count k of turns
about w = 0 then stays exact, and approaches to w = 0 are resolved.

The loop keeps only the step ends.  Every ``_BLOCK_STEPS`` accepted steps,
and at the end of the run, numpy emits ``SAMPLES_PER_STEP`` samples per
step, at theta = j / SAMPLES_PER_STEP of it, from the step's degree-7
Hermite interpolant of w on w, w', w'' and w''' = 2 Q''(w) w'
(``dynamics.chart_jerk``) at both ends (Hairer, Norsett & Wanner, *Solving
ODEs I*, II.6).  Each sample is projected onto the shell as below and mapped
to z = c (ln|w| + i (arg w + 2 pi k)) / 2, p = c w' / (4w) with its step's
chart, c = +1 on the left and -1 on the right, and turn count.  With
``stop_at_return`` the return watch reads each block as it is emitted, and
a block also ends at any step that ends near the start: the samples end at
the first return, and the run ends ``Termination.RETURNED`` before any
later stop.

After each step the state is projected onto the energy shell
I = w'^2 - 4 Q(w) = 0 by one Newton step along conj(grad I) / |grad I|^2
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, IV.4),
which is well conditioned in the charts but at the equilibria, double roots
of Q where grad I = 0 and Q's rounding is the residual: a projection that
would move w or w' by more than atol + rtol times its size is skipped.  The
residual before the projection, |I| / (16 |w|^2) / max(1, |E|), is
|H - E| / max(1, |E|) of the unprojected state, the energy error of one
step, rounding alone for the exact map: ``Trajectory.drift``.  Measured in
z it grows as 1/|w|^2 on a whip.  The first step whose drift exceeds
``energy_drift_limit`` is discarded and integration stops.  The escape
bounds are tested before the drift, on that step's end: the run ends
``Termination.ESCAPED`` if it lies beyond one, else
``Termination.DRIFT_EXCEEDED``.

In z, where the samples are stored, H is ill-conditioned at a whip: one
rounding of z and p moves H by about eps (|dV/dz| |z| + 2 |p|^2), the
floor F of a sample relative to max(1, |E|).  ``Trajectory.drift_floor_rss``
is sqrt(sum F^2) over the kept samples; an energy error of that order at a
stored sample is not resolvable in double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemParams, chart_coefficients, chart_flow, chart_jerk, flow, hamiltonian, potential
from .dynamics import potential_array
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
    "chart_invariants",
    "weierstrass_p",
    "step_constants",
    "chart_step",
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
    """Settings of one run of :func:`integrate`.

    ``rel_tol`` sets the step length, as (rel_tol / 1e-10)^(1/8) times the
    length at 1e-10, and with ``abs_tol`` the largest projection onto the
    shell, atol + rtol times the size of w or w', beyond which it is skipped.
    The run ends at ``t_max``, after ``max_steps`` steps (accepted and
    rejected), at the first step whose energy error exceeds
    ``energy_drift_limit`` (``Termination.DRIFT_EXCEEDED``), or where |Re z|
    exceeds ``escape_radius`` or |Im z - Im z0| exceeds ``escape_y_span``
    (``Termination.ESCAPED``).
    """

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
    # end at the first return to the start phase point (see ReturnWatch)
    stop_at_return: bool = False

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max", "energy_drift_limit", "escape_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        if not self.escape_y_span > 0:
            raise DomainError(f"escape_y_span must be > 0, got {self.escape_y_span!r}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be >= 1, got {self.max_steps!r}")


@dataclass
class Trajectory:
    """The start and SAMPLES_PER_STEP samples per kept step, plus the conserved energy.

    Sample arrays are columnar for memory efficiency; ``state(i)``
    provides the record view.  ``len(traj)`` is SAMPLES_PER_STEP times the
    kept steps, plus 1: a run that ends by drift keeps every accepted step
    but the last, and one that ends RETURNED keeps its samples up to the
    return.  ``n_accepted`` counts the accepted steps the loop took.
    ``drift[i]`` is the energy error of the step that sample i belongs to:
    |H - E| / max(1, |E|) of the step's end before the projection onto the
    shell, bounded by the integration config's ``energy_drift_limit`` for
    every retained sample (0 at the start).  ``drift_floor_rss`` is the
    root sum of squares of the per-sample floors
    eps (|dV/dz| |z| + 2 |p|^2) / max(1, |E|) over the retained samples.
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

    Distances are Euclidean over (z, p) as a 4-real-vector.  Between
    consecutive samples the orbit is the cubic Hermite of (z, p) in t with
    the slopes (2p, -dV/dz) of ``dynamics.flow``; a return is the first
    segment whose closest approach to the start lies within ``TOL``,
    counted once a sample has left the ball of radius 100 TOL about the
    start.  ``integrate`` feeds it every kept sample, a block of steps at a
    time as the samples are emitted, and ends the samples at the return;
    ``analysis.classify_orbit`` replays a finished trajectory through it,
    so both find the same return, on the trajectory's last segment.
    """

    TOL = 1e-4

    def __init__(self, t0: float, z0: complex, p0: complex, params: SystemParams) -> None:
        self.z0, self.p0 = z0, p0
        self.leave_sq = (100.0 * self.TOL) ** 2
        self.left = False
        self.rhs = flow(params)
        dz, dp, _ = self.rhs(z0, p0)
        # time, offset from the start, slope, and the norms of both
        self.prev = (t0, 0j, 0j, dz, dp, 0.0, math.hypot(abs(dz), abs(dp)))

    def step(self, t: float, z: complex, p: complex) -> float | None:
        """Take the next sample; the time of the return on the segment it ends, or None."""
        ta, az, ap, dza, dpa, na, ma = self.prev
        bz, bp = z - self.z0, p - self.p0
        dz, dp, _ = self.rhs(z, p)
        nb, mb = math.hypot(abs(bz), abs(bp)), math.hypot(abs(dz), abs(dp))
        self.prev = (t, bz, bp, dz, dp, nb, mb)
        if not self.left:
            self.left = _norm_sq(bz, bp) > self.leave_sq
            return None
        h = t - ta
        # the chord passes no nearer than max(|a|, |b|) - |u|, and the cubic strays from
        # it by at most (h max(|m_a|, |m_b|) + |u|) / 4 (see _hermite_closest): far
        # segments end here, with a margin of TOL against rounding
        u = math.hypot(abs(bz - az), abs(bp - ap))
        if (na if na > nb else nb) - u - 0.25 * (h * (ma if ma > mb else mb) + u) > 2.0 * self.TOL:
            return None
        s = _hermite_closest((az, ap), (h * dza, h * dpa), (bz, bp), (h * dz, h * dp), self.TOL)
        return None if s is None else ta + s * h

    def feed(self, t: np.ndarray, z: np.ndarray, p: np.ndarray) -> tuple[int, float] | None:
        """Take the next samples, as arrays: the index of the one that ends the
        return's segment and the time of the return, or None."""
        for i, sample in enumerate(zip(t.tolist(), z.tolist(), p.tolist())):
            t_return = self.step(*sample)
            if t_return is not None:
                return i, t_return
        return None


def _norm_sq(z: complex, p: complex) -> float:
    return z.real * z.real + z.imag * z.imag + p.real * p.real + p.imag * p.imag


def _hermite_closest(a, ma, b, mb, tol: float) -> float | None:
    """The s in [0, 1] where the cubic Hermite from ``a`` (slope ``ma``) to
    ``b`` (slope ``mb``), each a (z, p) pair, comes closest to 0, if within
    ``tol``.  The cubic strays from the chord by s(1-s)((1-s) alpha - s beta),
    alpha and beta the end slopes less the chord, so by at most
    max(|alpha|, |beta|) / 4: a chord farther than that beyond ``tol`` is
    skipped.  Otherwise the squared distance, of degree 6, is minimised over
    its critical points and the ends."""
    u = (b[0] - a[0], b[1] - a[1])
    au = a[0].real * u[0].real + a[0].imag * u[0].imag + a[1].real * u[1].real + a[1].imag * u[1].imag
    uu = _norm_sq(*u)
    s = min(1.0, max(0.0, -au / uu)) if uu > 0 else 0.0
    bow = 0.25 * math.sqrt(max(_norm_sq(ma[0] - u[0], ma[1] - u[1]), _norm_sq(mb[0] - u[0], mb[1] - u[1])))
    if math.sqrt(_norm_sq(a[0] + s * u[0], a[1] + s * u[1])) > tol + bow:
        return None
    # per complex component, the offset c3 s^3 + c2 s^2 + c1 s + c0
    coef = np.array([[ma[i] + mb[i] - 2.0 * u[i], 3.0 * u[i] - 2.0 * ma[i] - mb[i], ma[i], a[i]] for i in (0, 1)])
    sq = sum(np.convolve(c, c) for c in (*coef.real, *coef.imag))
    cands = np.concatenate([[0.0, 1.0], np.clip(np.roots(np.polyder(sq)).real, 0.0, 1.0)])
    s = float(cands[np.argmin(np.polyval(sq, cands))])
    return s if math.sqrt(_norm_sq(*(complex(np.polyval(c, s)) for c in coef))) <= tol else None


_EPS = 2.220446049250313e-16
# the most terms of the Laurent series of the Weierstrass function that are summed
_SERIES_TERMS = 48


def chart_invariants(q) -> tuple[complex, complex]:
    """The invariants (g2, g3) of f = 4Q, from Q's coefficients ``q``
    (``dynamics.chart_coefficients``).  With f(w) = a0 w^4 + 4a1 w^3 + 6a2 w^2 + 4a3 w + a4,
    g2 = a0 a4 - 4 a1 a3 + 3 a2^2 and g3 = a0 a2 a4 + 2 a1 a2 a3 - a2^3 - a0 a3^2 - a1^2 a4
    (Whittaker & Watson, *A Course of Modern Analysis*, 20.6)."""
    q0, q1, q2, q3, q4 = q
    a0, a1, a2, a3, a4 = 4.0 * q4, q3, 2.0 * q2 / 3.0, q1, 4.0 * q0
    g2 = a0 * a4 - 4.0 * a1 * a3 + 3.0 * a2 * a2
    g3 = a0 * a2 * a4 + 2.0 * a1 * a2 * a3 - a2**3 - a0 * a3 * a3 - a1 * a1 * a4
    return g2, g3


def weierstrass_p(u: float, g2: complex, g3: complex) -> tuple[complex, complex]:
    """(P(u), P'(u)) of the Weierstrass function on the invariants g2, g3, from its
    Laurent series at 0 (DLMF 23.9): P(u) = 1/u^2 + sum_{k>=2} c_k u^{2k-2}, with
    c2 = g2/20, c3 = g3/28 and c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_{k-m}.

    The sums end once three terms in a row of each lie below half an ulp of its
    total.  A series that has not ended within ``_SERIES_TERMS`` terms, as at a u
    near or beyond its radius (the nearest nonzero lattice point), raises
    NonFiniteStateError.
    """
    uu = u * u
    p, d = 1.0 / uu, -2.0 / (uu * u)
    c = [0j, 0j, g2 / 20.0, g3 / 28.0]
    power = uu  # u^{2k-2}
    small = 0
    for k in range(2, _SERIES_TERMS + 2):
        if k > 3:
            c.append(3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1)))
        term = c[k] * power
        dterm = (2 * k - 2) * term / u
        p += term
        d += dterm
        small = small + 1 if abs(term) <= 0.5 * _EPS * abs(p) and abs(dterm) <= 0.5 * _EPS * abs(d) else 0
        if small == 3:
            return p, d
        power *= uu
    raise NonFiniteStateError(
        f"the Laurent series of the Weierstrass function did not converge within {_SERIES_TERMS} terms "
        f"at u={u!r} (g2={g2!r}, g3={g3!r}): u lies near or beyond its radius"
    )


def step_constants(u: float, g2: complex, g3: complex) -> tuple[complex, complex, complex, complex]:
    """What :func:`chart_step` takes of a step length u: P, P' (:func:`weierstrass_p`),
    P'' = 6 P^2 - g2/2 and K = 2 P^3 - 3/2 g2 P - 2 g3, which is 2 P'^2 - P P'' on the
    curve P'^2 = 4 P^3 - g2 P - g3."""
    p, dp = weierstrass_p(u, g2, g3)
    return p, dp, 6.0 * p * p - 0.5 * g2, (2.0 * p * p - 1.5 * g2) * p - 2.0 * g3


def chart_step(q, w: complex, v: complex, a: complex, qw: complex, pk: tuple[complex, complex, complex, complex]):
    """The exact flow map of w'^2 = 4 Q(w) over one step, on Q's coefficients ``q``
    (``dynamics.chart_coefficients``): from (w, w'), where w'' = a and Q(w) = qw, with
    ``pk`` the :func:`step_constants` of the step length, the new w, w', w'' = 2 Q'(w)
    and Q(w), the last two in Horner form.

    With f = 4Q, sigma = f''(w)/24, s = P - sigma, N = -w' P' + f'(w) s/2 + f(w) f'''(w)/24
    and D = 2 s^2 - f(w) f''''(w)/48, the new w is w + N/D (Whittaker & Watson, 20.6).
    The new w' is (N' D - N D')/D^2, with N' = -w' P'' + f'(w) P'/2 and D' = 4 s P';
    its terms in w' P'^2, whose leading orders in the step length cancel, are summed as
    w' (2 s (K + sigma P'') + f(w) f''''(w)/48 P''), by the curve.
    """
    q0, q1, q2, q3, q4 = q
    p, dp, ddp, k = pk
    sig = (2.0 * q4 * w + q3) * w + q2 / 3.0
    gam = 4.0 * qw * (4.0 * q4 * w + q3)  # f f'''/24
    bf = 8.0 * q4 * qw  # f f''''/48
    s = p - sig
    ss = s * s
    n = a * s - v * dp + gam
    r = 1.0 / (2.0 * ss - bf)
    wn = w + n * r
    vn = (v * (2.0 * s * (k + sig * ddp) + bf * ddp) - dp * (a * (2.0 * ss + bf) + 4.0 * s * gam)) * r * r
    an = ((8.0 * q4 * wn + 6.0 * q3) * wn + 4.0 * q2) * wn + 2.0 * q1
    qn = (((q4 * wn + q3) * wn + q2) * wn + q1) * wn + q0
    return wn, vn, an, qn


# the step length at rel_tol 1e-10: h l = 0.13, with l = max(|g2|^(1/4), |g3|^(1/6)) the
# lattice's inverse length scale, but at most 1/48; it scales as rel_tol^(1/8)
_H_LATTICE = 0.13
_H_MAX = 1.0 / 48.0
# largest change of ln w, real or imaginary, in one accepted step
_MAX_DLOG = 1.0
_MAX_RATIO = math.exp(_MAX_DLOG)
# 2 pi as a double plus its rounding error, so that 2 pi k keeps its digits
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16

# samples emitted per accepted step, at theta = j / SAMPLES_PER_STEP of the step
SAMPLES_PER_STEP = 8
# accepted steps emitted at a time, at most
_BLOCK_STEPS = 256


def _hermite(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The degree-7 two-point Hermite interpolant on [0, 1] and its derivative at
    ``theta``, as matrices that take the end data (f, f', f'', f''' at 0, then at 1,
    each derivative of order r scaled by h^r) to the values at each theta.

    The basis polynomial of the r-th derivative at 0 is x^r / r! (1 - x)^4 S_r(x),
    with S_r(x) = sum_{j <= 3 - r} C(3 + j, j) x^j; at 1 it is (-1)^r times the
    same in x = 1 - theta."""
    w, v = [], []
    for side, x in ((1.0, theta), (-1.0, 1.0 - theta)):
        for r in range(4):
            c = [math.comb(3 + j, j) / math.factorial(r) for j in range(4 - r)]
            s = sum(cj * x ** (r + j) for j, cj in enumerate(c))  # x^r / r! S_r(x)
            ds = sum((r + j) * cj * x ** (r + j - 1) for j, cj in enumerate(c) if r + j)
            sign = side**r
            w.append(sign * s * (1.0 - x) ** 4)
            v.append(side * sign * (ds * (1.0 - x) - 4.0 * s) * (1.0 - x) ** 3)
    return np.array(w), np.array(v)


_THETA = np.arange(1, SAMPLES_PER_STEP + 1) / SAMPLES_PER_STEP
_HERMITE_W, _HERMITE_V = _hermite(_THETA)


def _emit(steps: list, accel, jerk, atol: float, rtol: float) -> tuple[np.ndarray, ...]:
    """The samples of a block of accepted steps, SAMPLES_PER_STEP per step.

    Each row of ``steps`` is (t, h, c, k, w0, w0', w0'', w, w', w'', drift) of one
    step: its end time, length, chart and turn count at the end, and its ends in
    its own chart.  A sample is the step's degree-7 Hermite interpolant of w, with
    w''' = 2 Q''(w) w' at both ends, and the interpolant's derivative for w'; it is
    projected onto the shell by the loop's Newton step and mapped to (z, p) with
    the step's chart and turns.  Returns t, z, p, drift and the floor of each sample.
    """
    s = np.array(steps, dtype=complex)
    t1, h, c, k, drift = (s[:, i].real[:, None] for i in (0, 1, 2, 3, 10))
    w0, v0, a0, w1, v1, a1 = s[:, 4:10].T
    h1 = h[:, 0]
    hh = h1 * h1
    # the third derivatives at both ends, times h^3
    j0, j1 = (jerk(s[:, 4:8:3], s[:, 5:9:3]) * (hh * h1)[:, None]).T
    ends = np.stack([w0, h1 * v0, hh * a0, j0, w1, h1 * v1, hh * a1, j1], 1)
    w = np.einsum("nd,ds->ns", ends, _HERMITE_W)
    v = np.einsum("nd,ds->ns", ends, _HERMITE_V) / h
    a, q = accel(w)
    # the loop's projection onto I = w'^2 - 4 Q(w) = 0, skipped where it exceeds the tolerance
    res = v * v - 4.0 * q
    gg = np.abs(a) ** 2 + np.abs(v) ** 2
    f = np.divide(0.5 * res, gg, out=np.zeros_like(res), where=gg > 0.0)
    f[(np.abs(f * a) > atol + rtol * np.abs(w)) | (np.abs(f * v) > atol + rtol * np.abs(v))] = 0.0
    w = w + f * a.conj()
    v = v - f * v.conj()
    aw = np.abs(w)
    ph = np.angle(w)
    k = k + np.round((np.angle(w1)[:, None] - ph) / _TWO_PI)  # arg w within 1 rad of the step end's
    z = 0.5 * c * (np.log(aw) + 1j * (ph + k * _TWO_PI + k * _TWO_PI_LO))
    p = 0.25 * c * v / w
    # |dV/dz| = |dp/dt| = |w'' w - w'^2| / (4 |w|^2) and |p| = |w'| / (4 |w|)
    floor = (np.abs(a * w - v * v) * np.abs(z) + 0.5 * np.abs(v) ** 2) / (4.0 * aw * aw)
    t = t1 - (1.0 - _THETA) * h
    return tuple(x.ravel() for x in np.broadcast_arrays(t, z, p, drift, floor))


def integrate(
    z0: complex,
    p0: complex,
    config: IntegratorConfig,
    params: SystemParams,
) -> Trajectory:
    """Integrate from (z0, p0) until t_max, escape, step budget, drift, or
    (with ``config.stop_at_return``) the first return to the start."""
    try:
        e0 = hamiltonian(z0, p0, params)
    except NonFiniteStateError as exc:
        raise DomainError(f"initial state overflows the potential: z0={z0!r}") from exc
    if not (math.isfinite(e0.real) and math.isfinite(e0.imag)):
        raise DomainError(f"initial energy is not finite: {e0!r}")

    q = chart_coefficients(params, e0)
    g2, g3 = chart_invariants(q)
    accel = chart_flow(params, e0)
    jerk = chart_jerk(params, e0)
    e_scale = max(1.0, abs(e0))
    rtol, atol, t_max, max_steps = config.rel_tol, config.abs_tol, config.t_max, config.max_steps
    drift_limit, escape_y_span = config.energy_drift_limit, config.escape_y_span
    w_escape = math.exp(-2.0 * config.escape_radius)  # |Re z| > escape_radius: |w| off [w_escape, 1 / w_escape]
    y0 = z0.imag
    log, phase, hypot, inf = math.log, cmath.phase, math.hypot, math.inf
    ell = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
    h_max = (min(_H_MAX, _H_LATTICE / ell) if ell else _H_MAX) * (rtol / 1e-10) ** 0.125
    constants: dict[float, tuple] = {}  # step_constants by step length

    t, z, p = 0.0, complex(z0), complex(p0)
    watch = ReturnWatch(t, z, p, params) if config.stop_at_return else None
    # with the watch: whether the orbit has been away, whether the last step may
    # hold the return, and its end's distance from the start
    away, near, d = False, False, 0.0
    chunks = [(np.array([t]), np.array([z]), np.array([p]), np.zeros(1), np.zeros(1))]
    steps: list[tuple] = []  # accepted steps not yet emitted

    def flush() -> bool:
        """Emit ``steps``; True if the watch finds the return, where the samples then end."""
        if not steps:
            return False
        block = _emit(steps, accel, jerk, atol, rtol)
        steps.clear()
        hit = None if watch is None else watch.feed(*block[:3])
        chunks.append(block if hit is None else tuple(x[: hit[0] + 1] for x in block))
        return hit is not None

    # the chart: c = +1 for w = e^{2z}, -1 for w = e^{-2z}; k counts the turns of w
    c = 1.0 if z.real <= 0.0 else -1.0
    w = cmath.exp(2.0 * c * z)
    v = 4.0 * c * p * w
    a, qw = accel(w)
    aw = abs(w)
    ph = phase(w)
    k = round((2.0 * c * z.imag - ph) / _TWO_PI)

    # the step is scale * h_max, scale = 2^-j; t = units * h_max, units the exact sum of the scales
    units, scale = 0.0, 1.0
    n_acc = n_rej = 0

    while True:
        if n_acc + n_rej >= max_steps:
            termination = Termination.STEP_LIMIT
            break
        t_end = (units + scale) * h_max
        last_step = t_end >= t_max
        h = t_max - t if last_step else scale * h_max

        pk = constants.get(h)
        if pk is None:
            pk = constants[h] = step_constants(h, g2, g3)
        wn, vn, an, qn = chart_step(q, w, v, a, qw, pk)
        awn, avn = abs(wn), abs(vn)
        if not (0.0 < awn < inf and avn < inf):
            raise NonFiniteStateError(f"state leaves the chart at t={t!r}: w={wn!r}, w'={vn!r}")
        darg = abs(phase(wn) - ph)

        if _MAX_DLOG < darg < _TWO_PI - _MAX_DLOG or awn * _MAX_RATIO < aw or awn > aw * _MAX_RATIO:
            n_rej += 1
            scale *= 0.5
            if scale * h_max < 1e-14 * max(1.0, abs(t)):
                raise NonFiniteStateError(f"step size underflow at t={t!r} (h={h!r})")
            continue

        t = t_max if last_step else t_end
        units += scale
        n_acc += 1
        # the projection onto I = 0, grad I = (-2 w'', 2 w'); I is the step's energy error
        res = vn * vn - 4.0 * qn
        gg = abs(an) ** 2 + avn * avn
        f = 0.5 * res / gg if gg else 0.0
        if abs(f * an) > atol + rtol * awn or abs(f) * avn > atol + rtol * avn:
            f = 0.0  # at an equilibrium (see the module docstring)
        wn = wn + f * an.conjugate()
        vn = vn - f * vn.conjugate()
        drift = abs(res) / (16.0 * awn * awn * e_scale)
        aw = abs(wn)
        ph_new = phase(wn)
        k += round((ph - ph_new) / _TWO_PI)  # arg w moved by at most 1 < pi
        ph = ph_new
        if drift <= drift_limit:
            steps.append((t, h, c, k, w, v, a, wn, vn, an, drift))
        w, v, a, qw = wn, vn, an, qn
        y = 0.5 * c * (ph + k * _TWO_PI + k * _TWO_PI_LO)  # Im z
        if watch is not None:
            # a step of arc length at most twice its chord, in (z, p), passes within
            # TOL of the start only if the start lies in the ellipse about its ends
            # below.  Once the orbit has been away, 4 chords from the start, such a
            # step's samples go to the watch at once, so that the loop stops there.
            # A return missed here is found at a later flush
            z_end, p_end = complex(0.5 * c * log(aw), y), 0.25 * c * v / w
            d_end = hypot(abs(z_end - z0), abs(p_end - p0))
            chord = hypot(abs(z_end - z), abs(p_end - p))
            near = away and d + d_end <= 2.0 * (chord + ReturnWatch.TOL)
            away = away or d_end > 4.0 * chord
            z, p, d = z_end, p_end, d_end

        if aw < w_escape or aw * w_escape > 1.0 or abs(y - y0) > escape_y_span:
            termination = Termination.ESCAPED
            break
        if drift > drift_limit:
            termination = Termination.DRIFT_EXCEEDED
            break
        if last_step:
            termination = Termination.TIME_LIMIT
            break
        if (near or len(steps) >= _BLOCK_STEPS) and flush():
            termination = Termination.RETURNED
            break

        if aw > 1.0:  # across the imaginary axis: the other chart
            w = 1.0 / w
            v = -v * w * w
            c = -c
            aw = abs(w)
            ph = phase(w)
            k = round((2.0 * c * y - ph) / _TWO_PI)
            a, qw = accel(w)
        scale = min(2.0 * scale, 1.0)

    if flush():  # a return among the last samples ends the run there, before any later stop
        termination = Termination.RETURNED
    t, z, p, drift, floor = (np.concatenate(x) for x in zip(*chunks))
    return Trajectory(
        params=params,
        energy=e0,
        t=t,
        z=z,
        p=p,
        drift=drift,
        termination=termination,
        n_accepted=n_acc,
        n_rejected=n_rej,
        config=config,
        drift_floor_rss=_EPS * math.sqrt(float(np.dot(floor, floor))) / e_scale,
    )
