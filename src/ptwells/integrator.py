"""Integration of Hamilton's equations in the complex plane by the exact flow map.

H = p^2 + V(z) is integrated in the exponential charts of
``dynamics.chart_accel``, w = e^{2z} left of the imaginary axis and
w = e^{-2z} right of it, where the flow is the polynomial w'' = 2 Q'(w)
and Re z = -/+inf is the regular point w = 0.  The whips of the paper's
orbits, out to Re z ~ -7 where the cosh flow is exponentially steep, are
passes near w = 0.  On the shell w'^2 = f(w) = 4 Q(w), a quartic, so the
orbit is an elliptic function of t (Whittaker & Watson, *A Course of Modern
Analysis*, 20.6): w(t0 + h) is a rational function of w(t0), w'(t0) and the
Weierstrass function P(h) and P'(h) on the invariants g2, g3 of f
(:func:`chart_invariants`).  Each step is that map, :func:`chart_step`,
exact up to rounding.  P and P' come from their Laurent series (DLMF 23.9,
:func:`weierstrass_p`), whose coefficients a run sums once; a series that
has not converged within its term budget, at a length near or beyond its
radius, raises NonFiniteStateError.  A run keeps one table by step length,
of the :func:`step_constants` of the step and then of its samples (below).

The step length is h = min(1/12, 0.52 / l) min(1, (rel_tol / 1e-10)^(1/8)),
with l = max(|g2|^(1/4), |g3|^(1/6)) the inverse length scale of the period
lattice: h l = 0.52, four times the median step of an adaptive DOP853 run at
rel_tol 1e-10 on the zeta = 0.1 orbits, lies well inside the series' radius.
A rel_tol above 1e-10 keeps that length, since a longer step would near the
radius.  The steps and the samples are exact: ``rel_tol`` sets the samples'
resolution, not a truncation error, and bounds the projection below.
Every step length is h_max / 2^j, and t is h_max times the exact sum of
the 2^-j, so the step ends carry the orbit's time to one rounding.  At
|w| > 1 the loop changes chart, w -> 1/w and w' -> -w'/w^2.  A step that
turns w by more than 1 rad, or scales |w| by more than e, is rejected and
halved, and the next accepted step doubles the length back: the integer
count k of turns about w = 0 then stays exact, and approaches to w = 0 are
resolved.  The map returns (w, w'); the loop evaluates w'' and Q by
``dynamics.chart_accel`` only at an accepted step's end and at a chart change.

The loop keeps a record of each kept step (see ``_emit``).  After it, numpy
emits the samples, ``_BLOCK_STEPS`` steps at a time, into arrays of their
final length: each step's by the map itself, :func:`chart_step` from the
step's start over theta h: n = 8 ceil(4 h / h_max) at theta = i / n,
i = 1..n, h_max / 32 apart from a step of h_max / 4 up (the DOP853 median
step over 8, the spacing the polyline analyses rest on).  Each is mapped,
with its step's chart c (+1 on the left, -1 on the right) and turn count, to
z = c (ln|w| + i (arg w + 2 pi k)) / 2 and p = c w' / (4w).  The samples are
not projected: the map runs from a step start that is already on the shell,
and keeps them there to rounding.  ``Trajectory.state_at`` maps any t alike.

At real E the lattice has a real period omega_R (:func:`real_period`): after it
every orbit of that energy is back at its start, shifted by i pi k in z, by which
``analysis`` classifies it from ``Trajectory.state_at(omega_R)``.

After each step the state is projected onto the energy shell
I = w'^2 - 4 Q(w) = 0 by one Newton step along conj(grad I) / |grad I|^2
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, IV.4),
which is well conditioned in the charts but at the equilibria, double roots
of Q where grad I = 0 and Q's rounding is the residual: a projection that
would move w or w' by more than rel_tol (|x| + 1e-2), x its size, is
skipped.  The residual before the projection, |I| / (16 |w|^2) /
max(1, |E|), is |H - E| / max(1, |E|) of the unprojected state, the energy
error of one step, rounding alone for the exact map: ``Trajectory.drift``.
Measured in z it grows as 1/|w|^2 on a whip.  The first step whose drift
exceeds ``energy_drift_limit`` is discarded and integration stops.  The
escape bounds are tested before the drift, on that step's end: the run
ends ``Termination.ESCAPED`` if it lies beyond one, else
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
import itertools
import math
from collections import Counter
from struct import Struct
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, chart_accel, chart_coefficients, hamiltonian, potential
from .dynamics import _require_finite, potential_array, potential_gradient
from .errors import DomainError, NonFiniteStateError

__all__ = [
    "MomentumBranch",
    "Termination",
    "PhaseState",
    "IntegratorConfig",
    "Trajectory",
    "initial_momentum",
    "derivative",
    "chart_invariants",
    "real_period",
    "laurent_coefficients",
    "weierstrass_p",
    "step_constants",
    "chart_step",
    "step_length",
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


@dataclass(frozen=True)
class PhaseState:
    """One point of a trajectory: time, complex position, complex momentum."""

    t: float
    z: complex
    p: complex


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of one run of :func:`integrate`.

    ``rel_tol`` sets the step length h_max, as (rel_tol / 1e-10)^(1/8) times the
    length at 1e-10 below 1e-10 and that length above, so the sample spacing,
    and the largest projection of a step end onto the shell that is applied,
    rel_tol (|x| + 1e-2) for x = w or w'.
    The run ends at ``t_max``, after ``max_steps`` steps (accepted and
    rejected), at the first step whose energy error exceeds
    ``energy_drift_limit`` (``Termination.DRIFT_EXCEEDED``), or where |Re z|
    exceeds ``escape_radius`` or |Im z - Im z0| exceeds ``escape_y_span``
    (``Termination.ESCAPED``).  The defaults are the guards of every run the
    package makes; ``analysis.run_preset`` sets only the horizon, and at real
    energy the exit from the start's lattice cell.
    """

    rel_tol: float = 1e-10
    t_max: float = 200.0
    max_steps: int = 10_000_000
    # A step's energy error, measured in z, grows as 1/|w|^2 on a whip's pass near w = 0:
    # at most 6.46e-7 over the 27 table rows, 5.35e-8 over the eight well-pair map runs and
    # 4.2e-7 over the 14 boundary searches' probes.  1e-6 would leave a margin of only 1.5x.
    energy_drift_limit: float = 1e-3
    # A closed orbit d below the separatrix whips about ln(1/d)/2 deep, past 8 at d = 3e-6
    # (E = 0.8, zeta 0.1, M 3), and a further ln(0.1/zeta)/2 deep at smaller zeta.
    escape_radius: float = 25.0
    # escape along the lattice: |Im z - Im z0| beyond this also terminates
    # as ESCAPED (open orbits at real energy flee down the well column
    # with bounded Re z); infinite by default
    escape_y_span: float = math.inf

    def __post_init__(self) -> None:
        for name in ("rel_tol", "t_max", "energy_drift_limit", "escape_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        if not self.escape_y_span > 0:
            raise DomainError(f"escape_y_span must be > 0, got {self.escape_y_span!r}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be >= 1, got {self.max_steps!r}")


@dataclass
class Trajectory:
    """The start and the samples of each kept step, plus the conserved energy.

    The samples are one array per field.  A kept step of length h has
    MIN_SAMPLES_PER_STEP ceil(4 h / h_max) samples, SAMPLES_PER_STEP if full,
    and ``len(traj)`` is 1 plus their sum: a run that ends by drift keeps every
    accepted step but the last.  ``n_accepted`` counts the accepted steps the
    loop took.  ``drift[i]`` is the energy error of the step that sample i
    belongs to: |H - E| / max(1, |E|) of the step's end before the projection
    onto the shell, at most the run's ``energy_drift_limit`` (0 at the start).
    ``drift_floor_rss`` is the root sum of squares of the per-sample floors
    eps (|dV/dz| |z| + 2 |p|^2) / max(1, |E|) over the retained samples.
    ``steps`` holds the record of each kept step (``_emit``), for :meth:`state_at`.
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
    drift_floor_rss: float = 0.0
    steps: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)

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

    def state_at(self, t: float) -> tuple[complex, complex]:
        """(z, p) at time t of the run as the samples are made (``_emit``): :func:`chart_step` over t from its step's
        start.  A t outside [0, t[-1]], or a Trajectory without step records, raises DomainError."""
        if self.steps is None or len(self.steps) == 0:
            raise DomainError("the trajectory keeps no step records to read a state from")
        if not 0.0 <= t <= self.t[-1]:
            raise DomainError(f"t={t!r} lies outside the run, [0, {float(self.t[-1])!r}]")
        row = self.steps[np.searchsorted(self.steps[:, 8], t)]  # the first step that ends at or after t
        w, v, a, qw = row[:8].view(complex)
        u = t - (row[8] - row[9])
        if abs(u) > _EPS * max(1.0, t):  # else the state is the step's start, to one rounding of t
            q = chart_coefficients(self.params, self.energy)
            w, v = chart_step(q, w, v, a, qw, step_constants(u, laurent_coefficients(*chart_invariants(q))))
        return _chart_point(w, v, *row[10:13])


def initial_momentum(
    z0: complex,
    energy: complex,
    branch: MomentumBranch,
    params: SystemParams,
) -> complex:
    """Momentum satisfying H(z0, p0) = energy: +/- sqrt(energy - V(z0)).

    The principal complex square root fixes the branch; NEGATED flips the
    sign and hence the initial direction of travel.  A non-finite energy raises DomainError.
    """
    _require_finite(energy, "energy")
    p = cmath.sqrt(energy - potential(z0, params))
    return -p if branch is MomentumBranch.NEGATED else p


def derivative(state: PhaseState, params: SystemParams) -> tuple[complex, complex]:
    """Right-hand side (dz/dt, dp/dt) of Hamilton's equations."""
    return 2.0 * state.p, -potential_gradient(state.z, params)


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


def real_period(g2: complex, g3: complex) -> float:
    """The real period omega_R of the lattice on the invariants g2, g3 of a real energy,
    from Re g2 and Re g3: with e1 > e2 > e3 the real roots of 4x^3 - g2 x - g3, in their
    trigonometric form, omega_R = pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2)) (DLMF 19.8, 23.22).
    At E = 0 the lattice degenerates to e2 = e3, and omega_R to pi / sqrt(e1 - e3), the real
    period of the orbits there.  e1 = e2 (an infinite real period) or g2 <= 0 raises DomainError."""
    g2, g3 = g2.real, g3.real
    cos3phi = g3 * math.sqrt(27.0 / g2**3) if g2 > 0.0 else math.nan
    if not cos3phi > -1.0:
        raise DomainError(f"the lattice of g2={g2!r}, g3={g3!r} has no finite real period")
    # near E = 0 rounding carries cos 3phi up to a few eps past 1; an error in phi moves
    # e2 and e3 apart oppositely, which the AGM cancels to first order
    r = math.sqrt(g2 / 3.0)
    phi = math.acos(min(cos3phi, 1.0)) / 3.0
    e1, e2, e3 = (r * math.cos(phi - j * _TWO_PI / 3.0) for j in range(3))
    a, b = math.sqrt(e1 - e3), math.sqrt(e1 - e2)
    while abs(a - b) > 2.0 * _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / a


def laurent_coefficients(g2: complex, g3: complex) -> list[complex]:
    """The coefficients c_k of the Laurent series of P at 0 on the invariants g2, g3
    (DLMF 23.9), as the list [0, 0, c2 = g2/20, c3 = g3/28] indexed by k, to which
    :func:`weierstrass_p` appends c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_{k-m}
    as far as its arguments need: one list per run sums each c_k once."""
    return [0j, 0j, g2 / 20.0, g3 / 28.0]


def weierstrass_p(u, c: list[complex]):
    """(P(u), P'(u)) of the Weierstrass function, for u a float or a numpy array of floats,
    from its Laurent series at 0 on the coefficients ``c`` of :func:`laurent_coefficients`:
    P(u) = 1/u^2 + sum_{k>=2} c_k u^{2k-2}.  The sums end once three terms in a row of each
    lie below half an ulp of its total, at the largest u, where the series converges
    slowest; an array is then summed to the same term.  A series that has not ended
    within ``_SERIES_TERMS`` terms, as at a u near or beyond its radius (the nearest
    nonzero lattice point), raises NonFiniteStateError."""
    array = isinstance(u, np.ndarray)
    x = float(u.max()) if array else u
    xx = x * x
    p, d = 1.0 / xx, -2.0 / (xx * x)
    power, small = xx, 0  # x^{2k-2}, and the small terms in a row
    for k in range(2, _SERIES_TERMS + 2):
        if k == len(c):
            c.append(3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1)))
        term = c[k] * power
        dterm = (2 * k - 2) * term / x
        p, d = p + term, d + dterm
        small = small + 1 if abs(term) <= 0.5 * _EPS * abs(p) and abs(dterm) <= 0.5 * _EPS * abs(d) else 0
        if small == 3:
            break
        power *= xx
    else:
        raise NonFiniteStateError(
            f"the Laurent series of the Weierstrass function did not converge within {_SERIES_TERMS} terms "
            f"at u={x!r} (g2={20.0 * c[2]!r}, g3={28.0 * c[3]!r}): u lies near or beyond its radius"
        )
    if not array:
        return p, d
    uu = u * u
    ck, powers = np.array(c[2 : k + 1]), uu[:, None] ** np.arange(k - 1)  # uu^0 .. uu^(k-2)
    return 1.0 / uu + uu * (powers @ ck), u * (powers @ (np.arange(2, 2 * k - 1, 2) * ck)) - 2.0 / (uu * u)


def step_constants(u, c: list[complex]):
    """What :func:`chart_step` takes of a step length u, a float or an array: P, P'
    (:func:`weierstrass_p` on the coefficients ``c``), P'' = 6 P^2 - g2/2 and
    K = 2 P^3 - 3/2 g2 P - 2 g3, which is 2 P'^2 - P P'' on the curve
    P'^2 = 4 P^3 - g2 P - g3, with g2 = 20 c2 and g3 = 28 c3."""
    p, dp = weierstrass_p(u, c)
    g2, g3 = 20.0 * c[2], 28.0 * c[3]
    return p, dp, 6.0 * p * p - 0.5 * g2, (2.0 * p * p - 1.5 * g2) * p - 2.0 * g3


def chart_step(q, w: complex, v: complex, a: complex, qw: complex, pk: tuple[complex, complex, complex, complex]):
    """The exact flow map of w'^2 = 4 Q(w) over one step, on Q's coefficients ``q``
    (``dynamics.chart_coefficients``): from (w, w'), where w'' = a and Q(w) = qw, with
    ``pk`` the :func:`step_constants` of the step length, the new w and w'.  The loop
    evaluates w'' = 2 Q'(w) and Q(w) (``dynamics.chart_accel``) only for an accepted step.

    With f = 4Q, sigma = f''(w)/24, s = P - sigma, N = -w' P' + f'(w) s/2 + f(w) f'''(w)/24
    and D = 2 s^2 - f(w) f''''(w)/48, the new w is w + N/D (Whittaker & Watson, 20.6).
    The new w' is (N' D - N D')/D^2, with N' = -w' P'' + f'(w) P'/2 and D' = 4 s P';
    its terms in w' P'^2, whose leading orders in the step length cancel, are summed as
    w' (2 s (K + sigma P'') + f(w) f''''(w)/48 P''), by the curve.
    """
    _, _, q2, q3, q4 = q
    p, dp, ddp, k = pk
    sig = (2.0 * q4 * w + q3) * w + q2 / 3.0
    gam = 4.0 * qw * (4.0 * q4 * w + q3)  # f f'''/24
    bf = 8.0 * q4 * qw  # f f''''/48
    s = p - sig
    ss = s * s
    n = a * s - v * dp + gam
    r = 1.0 / (2.0 * ss - bf)
    vn = (v * (2.0 * s * (k + sig * ddp) + bf * ddp) - dp * (a * (2.0 * ss + bf) + 4.0 * s * gam)) * r * r
    return w + n * r, vn


# the step length at rel_tol 1e-10: h l = 0.52, with l = max(|g2|^(1/4), |g3|^(1/6)) the
# lattice's inverse length scale, but at most 1/12; it scales as rel_tol^(1/8) below 1e-10
_H_LATTICE = 0.52
_H_MAX = 1.0 / 12.0
# largest change of ln w, real or imaginary, in one accepted step
_MAX_DLOG = 1.0
_MAX_RATIO = math.exp(_MAX_DLOG)
# 2 pi as a double plus its rounding error, so that 2 pi k keeps its digits
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16

# a step of length h emits n = MIN_SAMPLES_PER_STEP ceil(4 h / h_max) samples, at theta = i / n of it:
# SAMPLES_PER_STEP, h_max / SAMPLES_PER_STEP apart, on a full step; MIN_SAMPLES_PER_STEP from h_max / 4 down
SAMPLES_PER_STEP = 32
MIN_SAMPLES_PER_STEP = 8
_BLOCK_STEPS = 64  # kept steps emitted at a time, at most: up to 2048 samples
_THETA = {n: np.arange(1, n + 1) / n for n in range(MIN_SAMPLES_PER_STEP, SAMPLES_PER_STEP + 1, MIN_SAMPLES_PER_STEP)}


def step_length(g2: complex, g3: complex, rel_tol: float) -> float:
    """h_max, the step length of a run on the lattice of g2, g3 at ``rel_tol`` (module docstring)."""
    ell = max(abs(g2) ** 0.25, abs(g3) ** (1.0 / 6.0))
    return (min(_H_MAX, _H_LATTICE / ell) if ell else _H_MAX) * min(1.0, (rel_tol / 1e-10) ** 0.125)


def _sample_count(h: float, h_max: float) -> int:
    """The samples a step of length h emits; the last step's length may exceed its scale by a rounding."""
    return min(SAMPLES_PER_STEP, MIN_SAMPLES_PER_STEP * math.ceil(4.0 * h / h_max))


def _chart_point(w, v, c, k, ph1):
    """(z, p) of chart states (w, w') in chart c whose arg w lies within 1 rad of ph1, the arg at turn count k."""
    ph = np.angle(w)
    k = k + np.round((ph1 - ph) / _TWO_PI)
    return 0.5 * c * (np.log(np.abs(w)) + 1j * (ph + k * _TWO_PI + k * _TWO_PI_LO)), 0.25 * c * v / w


def _emit(steps: np.ndarray, q, table: dict[float, list], coeffs: list[complex], h_max: float) -> tuple[np.ndarray, ...]:
    """The samples of a block of kept steps.

    Each row of ``steps`` is one step's record, 14 doubles: its start w0, w0', w0'', Q(w0) in
    its own chart, each as real and imaginary part, then its end time t, length h, chart c, and
    turn count k and arg w at its end, and its drift.  A sample is :func:`chart_step` from the
    start over theta h, mapped to (z, p) with the step's chart and turns.  ``table`` maps a step
    length to its :func:`step_constants`, then its samples' (theta, P, P', P'', K) rows, which
    the lengths new to the block get here in one array call on ``coeffs``.  Returns t, z, p,
    drift and the floor of each sample.
    """
    lengths = steps[:, 9].tolist()
    new = [x for x in dict.fromkeys(lengths) if len(table[x]) == 1]
    if new:
        counts = [_sample_count(x, h_max) for x in new]
        theta = np.concatenate([_THETA[n] for n in counts])
        rows = np.array([theta, *step_constants(theta * np.repeat(new, counts), coeffs)])
        for x, end, n in zip(new, itertools.accumulate(counts), counts):
            table[x].append(rows[:, end - n : end])
    parts = [table[x][1] for x in lengths]
    n = [x.shape[1] for x in parts]
    theta, *pk = np.concatenate(parts, axis=1)
    w, v = chart_step(q, *np.repeat(steps[:, :8].view(complex).T, n, axis=1), pk)
    a, _ = chart_accel(q, w)
    t1, h, c, k, ph1, drift = np.repeat(steps[:, 8:].T, n, axis=1)
    z, p = _chart_point(w, v, c, k, ph1)
    # |dV/dz| = |dp/dt| = |w'' w - w'^2| / (4 |w|^2) and |p| = |w'| / (4 |w|)
    floor = (np.abs(a * w - v * v) * np.abs(z) + 0.5 * np.abs(v) ** 2) / (4.0 * np.abs(w) ** 2)
    return t1 - (1.0 - theta.real) * h, z, p, drift, floor


def integrate(
    z0: complex,
    p0: complex,
    config: IntegratorConfig,
    params: SystemParams,
) -> Trajectory:
    """Integrate from (z0, p0) until t_max, escape, step budget or drift."""
    try:
        e0 = hamiltonian(z0, p0, params)
    except NonFiniteStateError as exc:
        raise DomainError(f"initial state overflows the potential: z0={z0!r}") from exc
    if not (math.isfinite(e0.real) and math.isfinite(e0.imag)):
        raise DomainError(f"initial energy is not finite: {e0!r}")

    q = chart_coefficients(params, e0)
    g2, g3 = chart_invariants(q)
    e_scale = max(1.0, abs(e0))
    rtol, t_max, max_steps = config.rel_tol, config.t_max, config.max_steps
    atol = rtol / 100.0  # the projection's bound is rtol (|x| + 1e-2), x = w or w'
    drift_limit, escape_y_span = config.energy_drift_limit, config.escape_y_span
    w_escape = math.exp(-2.0 * config.escape_radius)  # |Re z| > escape_radius: |w| off [w_escape, 1 / w_escape]
    y0 = z0.imag
    phase, inf = cmath.phase, math.inf
    h_max = step_length(g2, g3, rtol)
    coeffs = laurent_coefficients(g2, g3)
    table: dict[float, list] = {}  # step length -> [its step_constants, its samples' rows (_emit)]

    t, z, p = 0.0, complex(z0), complex(p0)
    steps, record = bytearray(), Struct("14d").pack  # the kept steps' records, for _emit

    # the chart: c = +1 for w = e^{2z}, -1 for w = e^{-2z}; k counts the turns of w
    c = 1.0 if z.real <= 0.0 else -1.0
    w = cmath.exp(2.0 * c * z)
    v = 4.0 * c * p * w
    a, qw = chart_accel(q, w)
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

        entry = table.get(h)
        if entry is None:
            entry = table[h] = [step_constants(h, coeffs)]
        wn, vn = chart_step(q, w, v, a, qw, entry[0])
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
        an, qn = chart_accel(q, wn)
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
            steps += record(w.real, w.imag, v.real, v.imag, a.real, a.imag, qw.real, qw.imag, t, h, c, k, ph, drift)
        w, v, a, qw = wn, vn, an, qn
        y = 0.5 * c * (ph + k * _TWO_PI + k * _TWO_PI_LO)  # Im z

        if aw < w_escape or aw * w_escape > 1.0 or abs(y - y0) > escape_y_span:
            termination = Termination.ESCAPED
            break
        if drift > drift_limit:
            termination = Termination.DRIFT_EXCEEDED
            break
        if last_step:
            termination = Termination.TIME_LIMIT
            break

        if aw > 1.0:  # across the imaginary axis: the other chart
            w = 1.0 / w
            v = -v * w * w
            c = -c
            aw = abs(w)
            ph = phase(w)
            k = round((2.0 * c * y - ph) / _TWO_PI)
            a, qw = chart_accel(q, w)
        scale = min(2.0 * scale, 1.0)

    # the samples of each block of steps, written where they belong in arrays of the final length
    steps = np.frombuffer(steps).reshape(-1, 14)
    n = 1 + sum(_sample_count(x, h_max) * m for x, m in Counter(steps[:, 9].tolist()).items())
    samples = t, z, p, drift = np.empty(n), np.empty(n, complex), np.empty(n, complex), np.empty(n)
    t[0], z[0], p[0], drift[0] = 0.0, z0, p0, 0.0
    floor_sq, i = 0.0, 1  # the sum of the samples' squared floors, and the next sample
    for b in range(0, len(steps), _BLOCK_STEPS):
        *block, floor = _emit(steps[b : b + _BLOCK_STEPS], q, table, coeffs, h_max)
        for out, x in zip(samples, block):
            out[i : i + len(x)] = x
        floor_sq += float(np.dot(floor, floor))
        i += len(floor)
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
        drift_floor_rss=_EPS * math.sqrt(floor_sq) / e_scale,
        steps=steps,
    )
