"""Adaptive integration of Hamilton's equations in the complex plane.

H = p^2 + V(z) is integrated in the exponential charts of
``dynamics.chart_flow``, w = e^{2z} left of the imaginary axis and
w = e^{-2z} right of it, where the flow is the polynomial w'' = 2 Q'(w)
and Re z = -/+inf is the regular point w = 0.  The whips of the paper's
orbits, out to Re z ~ -7 where the cosh flow is exponentially steep, are
passes near w = 0.  An embedded Dormand-Prince 5(4) pair (FSAL) under PI
step control advances (w, w') in Nystrom form (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.14): w'' does not depend on w', so the stages, the new
w and its error are sums of the stage accelerations weighted by A^2, bA and
eA of the same tableau, and the steps are the first-order pair's up to
rounding.  At |w| > 1 the loop changes chart, w -> 1/w and w' -> -w'/w^2.
A step that turns w by more than 1 rad, or scales |w| by more than e, is
rejected and halved: the integer count k of turns about w = 0 then stays
exact, and approaches to w = 0 are resolved.  Each accepted step emits the sample
z = c (ln|w| + i (arg w + 2 pi k)) / 2, p = c w' / (4w), with c = +1 on
the left chart and -1 on the right.

After each step the state is projected onto the energy shell
I = w'^2 - 4 Q(w) = 0 by one Newton step along conj(grad I) / |grad I|^2
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, IV.4),
which is well conditioned in the charts.  The residual before the
projection, |I| / (16 |w|^2) / max(1, |E|), is |H - E| / max(1, |E|) of
the unprojected state, the energy error of one step: ``Trajectory.drift``.
The first step whose drift exceeds ``energy_drift_limit`` is discarded
and integration stops.  The escape bounds are tested before the drift, on
that step's end: the run ends ``Termination.ESCAPED`` if it lies beyond
one, else ``Termination.DRIFT_EXCEEDED``.

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
from fractions import Fraction as F

import numpy as np

from .dynamics import SystemParams, chart_flow, flow, hamiltonian, potential, potential_array
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
    """Samples retained at accepted steps, plus the conserved energy.

    Sample arrays are columnar for memory efficiency; ``state(i)``
    provides the record view.  ``drift[i]`` is the energy error of the
    step that ended at sample i: |H - E| / max(1, |E|) of its state before
    the projection onto the shell, bounded by the integration config's
    ``energy_drift_limit`` for every retained sample.  ``drift_floor_rss``
    is the root sum of squares of the per-sample floors
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
    start.  ``integrate`` feeds it each kept sample online and
    ``analysis.classify_orbit`` replays a finished trajectory through it,
    so both find the same return.
    """

    TOL = 1e-4

    def __init__(self, t0: float, z0: complex, p0: complex, params: SystemParams) -> None:
        self.z0, self.p0 = z0, p0
        self.leave_sq = (100.0 * self.TOL) ** 2
        self.left = False
        self.rhs = flow(params)
        self.prev = (t0, 0j, 0j, *self.rhs(z0, p0)[:2])  # time, offset from the start, slope

    def step(self, t: float, z: complex, p: complex) -> float | None:
        """Take the next sample; the time of the return on the segment it ends, or None."""
        ta, az, ap, dza, dpa = self.prev
        bz, bp = z - self.z0, p - self.p0
        dz, dp, _ = self.rhs(z, p)
        self.prev = (t, bz, bp, dz, dp)
        if not self.left:
            self.left = _norm_sq(bz, bp) > self.leave_sq
            return None
        h = t - ta
        s = _hermite_closest((az, ap), (h * dza, h * dpa), (bz, bp), (h * dz, h * dp), self.TOL)
        return None if s is None else ta + s * h


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


# Dormand-Prince 5(4): the stage rows, the last being the fifth-order weights b
# (the 7th stage is taken at the new point, FSAL), and the error weights e.
_DP5_ROWS = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
_DP5_ERR = (F(71, 57600), F(0), F(-71, 16695), F(71, 1920), F(-17253, 339200), F(22, 525), F(-1, 40))


def _nystrom_rows():
    """c, A^2 and eA of the DP5 rows, as floats.  For w'' = g(w), stage i sits at
    w + c_i h w' + h^2 sum_l (A^2)_il g(stage l); the new w is row 7 (A's last
    row is b, sum b = 1), and the error of w is h^2 sum_l (eA)_l g(stage l)."""
    a = [[F(0)] * 7] + [[*row] + [F(0)] * (7 - len(row)) for row in _DP5_ROWS]
    a2 = [[sum(a[i][j] * a[j][l] for j in range(7)) for l in range(7)] for i in range(7)]
    ea = [sum(e * a[j][l] for j, e in enumerate(_DP5_ERR)) for l in range(7)]
    return [float(sum(r)) for r in a], [[float(x) for x in r] for r in a2], [float(x) for x in ea]


_C, _AA, _EA = _nystrom_rows()
_C2, _C3, _C4, _C5 = _C[1:5]
# row i of A^2 is 0 from column i - 1 on; b A has no a_2 or a_6 term, eA no a_2 or a_7 term
_A31, _A41, _A42, _A51, _A52, _A53, _A61, _A62, _A63, _A64 = (x for i in (2, 3, 4, 5) for x in _AA[i][: i - 1])
_W1, _, _W3, _W4, _W5 = _AA[6][:5]
_EW1, _, _EW3, _EW4, _EW5, _EW6 = _EA[:6]
_B1, _, _B3, _B4, _B5, _B6 = map(float, _DP5_ROWS[-1])
_E1, _, _E3, _E4, _E5, _E6, _E7 = map(float, _DP5_ERR)


def chart_step(accel, w: complex, v: complex, a: complex, h: float, atol: float, rtol: float):
    """One DP5 step of w'' = 2 Q'(w) in Nystrom form under the chart kernel ``accel``
    from (w, w'), where w'' = a: the new w, w', w'' and Q(w), and the RMS of the
    error estimates of w and w', each over atol + rtol times its larger end."""
    hv = h * v
    hh = h * h
    a2 = accel(w + _C2 * hv)[0]
    a3 = accel(w + _C3 * hv + hh * (_A31 * a))[0]
    a4 = accel(w + _C4 * hv + hh * (_A41 * a + _A42 * a2))[0]
    a5 = accel(w + _C5 * hv + hh * (_A51 * a + _A52 * a2 + _A53 * a3))[0]
    a6 = accel(w + hv + hh * (_A61 * a + _A62 * a2 + _A63 * a3 + _A64 * a4))[0]
    wn = w + hv + hh * (_W1 * a + _W3 * a3 + _W4 * a4 + _W5 * a5)
    vn = v + h * (_B1 * a + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6)
    an, qn = accel(wn)
    x, y, s, u = abs(w), abs(wn), abs(v), abs(vn)  # the larger of each pair below, without the slower max()
    err_w = abs(_EW1 * a + _EW3 * a3 + _EW4 * a4 + _EW5 * a5 + _EW6 * a6) * hh / (atol + rtol * (x if x > y else y))
    err_v = abs(_E1 * a + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6 + _E7 * an) * h
    err_v /= atol + rtol * (s if s > u else u)
    return wn, vn, an, qn, math.sqrt(0.5 * (err_w * err_w + err_v * err_v))


_EPS = 2.220446049250313e-16
_H_FIRST = 1e-3  # the first trial step; the PI control sizes the rest
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
# largest change of ln w, real or imaginary, in one accepted step
_MAX_DLOG = 1.0
_MAX_RATIO = math.exp(_MAX_DLOG)
# 2 pi as a double plus its rounding error, so that 2 pi k keeps its digits
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16


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

    accel = chart_flow(params, e0)
    e_scale = max(1.0, abs(e0))
    rtol, atol, t_max, max_steps = config.rel_tol, config.abs_tol, config.t_max, config.max_steps
    drift_limit, escape_y_span = config.energy_drift_limit, config.escape_y_span
    w_escape = math.exp(-2.0 * config.escape_radius)  # |Re z| > escape_radius: |w| off [w_escape, 1 / w_escape]
    y0 = z0.imag
    log, phase, inf = math.log, cmath.phase, math.inf

    t, z, p = 0.0, complex(z0), complex(p0)
    ts, zs, ps, ds = [t], [z], [p], [0.0]
    watch = ReturnWatch(t, z, p, params) if config.stop_at_return else None

    # the chart: c = +1 for w = e^{2z}, -1 for w = e^{-2z}; k counts the turns of w
    c = 1.0 if z.real <= 0.0 else -1.0
    w = cmath.exp(2.0 * c * z)
    v = 4.0 * c * p * w
    a = accel(w)[0]
    aw = abs(w)
    ph = phase(w)
    k = round((2.0 * c * z.imag - ph) / _TWO_PI)

    h = min(_H_FIRST, t_max)
    facold = 1e-4
    floor_sq = 0.0  # sum of (|dV/dz| |z| + 2 |p|^2)^2 over kept samples
    n_acc = n_rej = 0
    rejected_last = False
    termination = Termination.TIME_LIMIT

    while True:
        if n_acc + n_rej >= max_steps:
            termination = Termination.STEP_LIMIT
            break
        last_step = t + h >= t_max
        if last_step:
            h = t_max - t

        wn, vn, an, qn, err = chart_step(accel, w, v, a, h, atol, rtol)
        awn, avn = abs(wn), abs(vn)
        if not (0.0 < awn < inf and avn < inf):
            raise NonFiniteStateError(f"state leaves the chart at t={t!r}: w={wn!r}, w'={vn!r}")
        darg = abs(phase(wn) - ph)

        if err > 1.0 or _MAX_DLOG < darg < _TWO_PI - _MAX_DLOG or awn * _MAX_RATIO < aw or awn > aw * _MAX_RATIO:
            n_rej += 1
            h *= 0.5 if err <= 1.0 else max(0.2, _SAFETY * err**-0.2)
            rejected_last = True
            if h < 1e-14 * max(1.0, abs(t)):
                raise NonFiniteStateError(f"step size underflow at t={t!r} (h={h!r})")
            continue

        t = t_max if last_step else t + h
        n_acc += 1
        # the projection onto I = 0, grad I = (-2 w'', 2 w'); I is the step's energy error
        res = vn * vn - 4.0 * qn
        gg = abs(an) ** 2 + avn * avn
        f = 0.5 * res / gg if gg else 0.0
        w = wn + f * an.conjugate()
        v = vn - f * vn.conjugate()
        drift = abs(res) / (16.0 * awn * awn * e_scale)
        a = an
        aw = abs(w)
        ph_new = phase(w)
        k += round((ph - ph_new) / _TWO_PI)  # arg w moved by at most 1 < pi
        ph = ph_new
        z = complex(0.5 * c * log(aw), 0.5 * c * (ph + k * _TWO_PI + k * _TWO_PI_LO))
        p = 0.25 * c * v / w

        if drift <= drift_limit:
            # |dV/dz| = |dp/dt| = |w'' w - w'^2| / (4 |w|^2) and |p| = |w'| / (4 |w|)
            floor = (abs(a * w - v * v) * abs(z) + 0.5 * abs(v) ** 2) / (4.0 * aw * aw)
            floor_sq += floor * floor
            ts.append(t)
            zs.append(z)
            ps.append(p)
            ds.append(drift)
        if aw < w_escape or aw * w_escape > 1.0 or abs(z.imag - y0) > escape_y_span:
            termination = Termination.ESCAPED
            break
        if drift > drift_limit:
            termination = Termination.DRIFT_EXCEEDED
            break
        if watch is not None and watch.step(t, z, p) is not None:
            termination = Termination.RETURNED
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
            k = round((2.0 * c * z.imag - ph) / _TWO_PI)
            a = accel(w)[0]

        # PI control: fac clipped to [0.2, 10], and to 1 after a rejection
        fac = 10.0 if err == 0.0 else _SAFETY * err ** (-_EXPO1) * facold**_BETA
        fac = 10.0 if fac > 10.0 else 0.2 if fac < 0.2 else fac
        h *= 1.0 if rejected_last and fac > 1.0 else fac
        facold = err if err > 1e-4 else 1e-4
        rejected_last = False

    return Trajectory(
        params=params,
        energy=e0,
        t=np.array(ts),
        z=np.array(zs, dtype=complex),
        p=np.array(ps, dtype=complex),
        drift=np.array(ds),
        termination=termination,
        n_accepted=n_acc,
        n_rejected=n_rej,
        config=config,
        drift_floor_rss=_EPS * math.sqrt(floor_sq) / e_scale,
    )
