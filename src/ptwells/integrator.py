"""Adaptive integration of Hamilton's equations in the complex plane.

H = p^2 + V(z) is integrated in the exponential charts of
``dynamics.chart_flow``, w = e^{2z} left of the imaginary axis and
w = e^{-2z} right of it, where the flow is the polynomial w'' = 2 Q'(w)
and Re z = -/+inf is the regular point w = 0.  The whips of the paper's
orbits, out to Re z ~ -7 where the cosh flow is exponentially steep, are
passes near w = 0.  Hairer's DOP853, an explicit 8(5,3) pair (FSAL),
under PI step control advances (w, w') in Nystrom form (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.5 and II.14): w'' does not depend on w', so
the stages, the new w and its error estimates are sums of the stage
accelerations weighted by A^2, bA, e5 A and e3 A of the same tableau, and
the steps are the first-order pair's up to rounding.  Each stage evaluates
2 Q' inline on ``dynamics.chart_coefficients``; the kernel runs only where
the loop enters a chart.  At |w| > 1 the loop changes chart, w -> 1/w and
w' -> -w'/w^2.  A step that turns w by more than 1 rad, or scales |w| by
more than e, is rejected and halved: the integer count k of turns about
w = 0 then stays exact, and approaches to w = 0 are resolved.

The loop keeps only the step ends.  Every ``_BLOCK_STEPS`` accepted steps,
and at the end of the run, numpy emits ``SAMPLES_PER_STEP`` samples per
step, at theta = j / SAMPLES_PER_STEP of it, from the step's degree-7
Hermite interpolant of w on w, w', w'' and w''' = 2 Q''(w) w'
(``dynamics.chart_jerk``) at both ends (*Solving ODEs I*, II.6).  Each
sample is projected onto the shell as below and mapped to
z = c (ln|w| + i (arg w + 2 pi k)) / 2, p = c w' / (4w) with its step's
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
step: ``Trajectory.drift``.  The first step whose drift exceeds
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


# DOP853, the 8(5,3) pair of Hairer, Norsett & Wanner, *Solving ODEs I*, II.5, with the
# coefficients of Hairer's dop853.f: the nonzero entries {j: a_ij} of stage rows 2-13,
# the last being the eighth-order weights b (stage 13 is taken at the new point, FSAL),
# the fifth-order error weights e5, and the third-order weights bhat3 (e3 = b - bhat3).
_DOP853_ROWS = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
)
_DOP853_E5 = {
    0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1,
}
_DOP853_BHAT3 = {
    0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547, 11: 0.220588235294117647058823529412e-1,
}


def _nystrom():
    """c, A^2, b, e5, e3, e5 A and e3 A of the DOP853 tableau, in floats.  For
    w'' = g(w), stage i sits at w + c_i h w' + h^2 sum_l (A^2)_il g(stage l), with
    c_i the row sums of A; the new w is row 13 of A^2, b A (sum b = 1), and the
    error estimates of w are h^2 sum_l (e A)_l g(stage l) (sum e = 0)."""
    n = len(_DOP853_ROWS) + 1
    a = [[0.0] * n] + [[row.get(j, 0.0) for j in range(n)] for row in _DOP853_ROWS]
    b = a[-1]
    e5 = [_DOP853_E5.get(j, 0.0) for j in range(n)]
    e3 = [b[j] - _DOP853_BHAT3.get(j, 0.0) for j in range(n)]

    def times_a(u):
        return [math.fsum(u[j] * a[j][l] for j in range(n)) for l in range(n)]

    return [math.fsum(r) for r in a], [times_a(r) for r in a], b, e5, e3, times_a(e5), times_a(e3)


def _nonzero(u):
    return [x for x in u if x]


_C, _AA, _B, _E5, _E3, _E5A, _E3A = _nystrom()
_C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = _C[1:12]
# the nonzero entries of rows 3-12 of A^2, and of b A, b, e A, e5 and bhat3, by stage
(
    (_A2_0,),
    (_A3_0, _A3_1),
    (_A4_0, _A4_1, _A4_2),
    (_A5_0, _A5_2, _A5_3),
    (_A6_0, _A6_2, _A6_3, _A6_4),
    (_A7_0, _A7_2, _A7_3, _A7_4, _A7_5),
    (_A8_0, _A8_2, _A8_3, _A8_4, _A8_5, _A8_6),
    (_A9_0, _A9_2, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7),
    (_A10_0, _A10_2, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8),
    (_A11_0, _A11_2, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9),
    (_W0, _W3, _W4, _W5, _W6, _W7, _W8, _W9, _W10),
) = map(_nonzero, _AA[2:])
_P0, _P3, _P4, _P5, _P6, _P7, _P8, _P9, _P10 = _nonzero(_E5A)
_Q0, _Q3, _Q4, _Q5, _Q6, _Q7, _Q8, _Q9, _Q10 = _nonzero(_E3A)
_B0, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = _nonzero(_B)
_F0, _F5, _F6, _F7, _F8, _F9, _F10, _F11 = _nonzero(_E5)
_H0, _H8, _H11 = _DOP853_BHAT3.values()


def chart_step(q, w: complex, v: complex, a: complex, h: float, atol: float, rtol: float):
    """One DOP853 step of w'' = 2 Q'(w) in Nystrom form from (w, w'), where w'' = a, on Q's
    coefficients ``q`` (``dynamics.chart_coefficients``), evaluated inline in Horner form:
    the new w, w', w'' and Q(w), and the error norm of DOP853, which combines the fifth- and
    third-order estimates of w and w', each over atol + rtol times its larger end."""
    q0, q1, q2, q3, q4 = q
    k0, k1, k2, k3 = 2.0 * q1, 4.0 * q2, 6.0 * q3, 8.0 * q4  # 2 Q'(u) = ((k3 u + k2) u + k1) u + k0
    hv = h * v
    hh = h * h
    g0 = a
    g1 = ((k3 * (u := w + _C1 * hv) + k2) * u + k1) * u + k0
    g2 = ((k3 * (u := w + _C2 * hv + hh * (_A2_0 * g0)) + k2) * u + k1) * u + k0
    g3 = ((k3 * (u := w + _C3 * hv + hh * (_A3_0 * g0 + _A3_1 * g1)) + k2) * u + k1) * u + k0
    g4 = ((k3 * (u := w + _C4 * hv + hh * (_A4_0 * g0 + _A4_1 * g1 + _A4_2 * g2)) + k2) * u + k1) * u + k0
    g5 = ((k3 * (u := w + _C5 * hv + hh * (_A5_0 * g0 + _A5_2 * g2 + _A5_3 * g3)) + k2) * u + k1) * u + k0
    g6 = ((k3 * (u := w + _C6 * hv + hh * (_A6_0 * g0 + _A6_2 * g2 + _A6_3 * g3 + _A6_4 * g4)) + k2) * u + k1) * u + k0
    s7 = _A7_0 * g0 + _A7_2 * g2 + _A7_3 * g3 + _A7_4 * g4 + _A7_5 * g5
    g7 = ((k3 * (u := w + _C7 * hv + hh * s7) + k2) * u + k1) * u + k0
    s8 = _A8_0 * g0 + _A8_2 * g2 + _A8_3 * g3 + _A8_4 * g4 + _A8_5 * g5 + _A8_6 * g6
    g8 = ((k3 * (u := w + _C8 * hv + hh * s8) + k2) * u + k1) * u + k0
    s9 = _A9_0 * g0 + _A9_2 * g2 + _A9_3 * g3 + _A9_4 * g4 + _A9_5 * g5 + _A9_6 * g6 + _A9_7 * g7
    g9 = ((k3 * (u := w + _C9 * hv + hh * s9) + k2) * u + k1) * u + k0
    s10 = _A10_0 * g0 + _A10_2 * g2 + _A10_3 * g3 + _A10_4 * g4 + _A10_5 * g5 + _A10_6 * g6 + _A10_7 * g7
    g10 = ((k3 * (u := w + _C10 * hv + hh * (s10 + _A10_8 * g8)) + k2) * u + k1) * u + k0
    s11 = _A11_0 * g0 + _A11_2 * g2 + _A11_3 * g3 + _A11_4 * g4 + _A11_5 * g5 + _A11_6 * g6 + _A11_7 * g7
    g11 = ((k3 * (u := w + _C11 * hv + hh * (s11 + _A11_8 * g8 + _A11_9 * g9)) + k2) * u + k1) * u + k0
    bw = _W0 * g0 + _W3 * g3 + _W4 * g4 + _W5 * g5 + _W6 * g6 + _W7 * g7 + _W8 * g8 + _W9 * g9 + _W10 * g10
    wn = w + hv + hh * bw
    vn = v + h * (bg := _B0 * g0 + _B5 * g5 + _B6 * g6 + _B7 * g7 + _B8 * g8 + _B9 * g9 + _B10 * g10 + _B11 * g11)
    an, qn = ((k3 * wn + k2) * wn + k1) * wn + k0, (((q4 * wn + q3) * wn + q2) * wn + q1) * wn + q0
    x, y, s, u = abs(w), abs(wn), abs(v), abs(vn)  # the larger of each pair below, without the slower max()
    sw = atol + rtol * (x if x > y else y)
    sv = atol + rtol * (s if s > u else u)
    # the fifth- and third-order error estimates of w and w', over their scales (e3 g = b g - bhat3 g)
    e5w = abs(_P0 * g0 + _P3 * g3 + _P4 * g4 + _P5 * g5 + _P6 * g6 + _P7 * g7 + _P8 * g8 + _P9 * g9 + _P10 * g10)
    e3w = abs(_Q0 * g0 + _Q3 * g3 + _Q4 * g4 + _Q5 * g5 + _Q6 * g6 + _Q7 * g7 + _Q8 * g8 + _Q9 * g9 + _Q10 * g10)
    e5v = abs(_F0 * g0 + _F5 * g5 + _F6 * g6 + _F7 * g7 + _F8 * g8 + _F9 * g9 + _F10 * g10 + _F11 * g11) * h / sv
    e3v = abs(bg - (_H0 * g0 + _H8 * g8 + _H11 * g11)) * h / sv
    e5w *= hh / sw
    e3w *= hh / sw
    # DOP853's norm, e5^2 / sqrt(e5^2 + e3^2 / 100) over the squared sums e5^2 and e3^2, as an RMS of two
    e5 = e5w * e5w + e5v * e5v
    err = e5 / math.sqrt(2.0 * (e5 + 0.01 * (e3w * e3w + e3v * e3v))) if e5 else 0.0
    return wn, vn, an, qn, err


_EPS = 2.220446049250313e-16
_H_FIRST = 1e-3  # the first trial step; the PI control sizes the rest
# 0.8, not DOP853's usual 0.9: at 0.9 the end states of the closed and tunneling
# figures and of sweep rows E2 = 2.0 and 3.2 were 2-2.5x farther from a rel_tol
# 1e-14 run than the DP5 loop's; at 0.8 each is closer than DP5's
_SAFETY = 0.8
_BETA = 0.04
_EXPO = 0.125  # 1 / (order + 1) of the seventh-order error estimate
_EXPO1 = _EXPO - 0.2 * _BETA
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
    accel = chart_flow(params, e0)
    jerk = chart_jerk(params, e0)
    e_scale = max(1.0, abs(e0))
    rtol, atol, t_max, max_steps = config.rel_tol, config.abs_tol, config.t_max, config.max_steps
    drift_limit, escape_y_span = config.energy_drift_limit, config.escape_y_span
    w_escape = math.exp(-2.0 * config.escape_radius)  # |Re z| > escape_radius: |w| off [w_escape, 1 / w_escape]
    y0 = z0.imag
    log, phase, hypot, inf = math.log, cmath.phase, math.hypot, math.inf

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
    a = accel(w)[0]
    aw = abs(w)
    ph = phase(w)
    k = round((2.0 * c * z.imag - ph) / _TWO_PI)

    h = min(_H_FIRST, t_max)
    facold = 1e-4
    n_acc = n_rej = 0
    rejected_last = False

    while True:
        if n_acc + n_rej >= max_steps:
            termination = Termination.STEP_LIMIT
            break
        last_step = t + h >= t_max
        if last_step:
            h = t_max - t

        wn, vn, an, qn, err = chart_step(q, w, v, a, h, atol, rtol)
        awn, avn = abs(wn), abs(vn)
        if not (0.0 < awn < inf and avn < inf):
            raise NonFiniteStateError(f"state leaves the chart at t={t!r}: w={wn!r}, w'={vn!r}")
        darg = abs(phase(wn) - ph)

        if err > 1.0 or _MAX_DLOG < darg < _TWO_PI - _MAX_DLOG or awn * _MAX_RATIO < aw or awn > aw * _MAX_RATIO:
            n_rej += 1
            h *= 0.5 if err <= 1.0 else max(0.2, _SAFETY * err**-_EXPO)
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
        w, v, a = wn, vn, an
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
            a = accel(w)[0]

        # PI control: fac clipped to [0.2, 10], and to 1 after a rejection
        fac = 10.0 if err == 0.0 else _SAFETY * err ** (-_EXPO1) * facold**_BETA
        fac = 10.0 if fac > 10.0 else 0.2 if fac < 0.2 else fac
        h *= 1.0 if rejected_last and fac > 1.0 else fac
        facold = err if err > 1e-4 else 1e-4
        rejected_last = False

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
