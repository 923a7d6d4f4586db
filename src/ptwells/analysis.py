"""Orbit classification, axis-crossing detection, and dwell statistics.

Conventions: the imaginary axis (Re z = 0) separates the left and right
well columns.  A "crossing" is a sign change of Re z; the dwell between
two consecutive crossings is attributed to the side the particle entered.
The tunneling time is the mean of the two per-side dwell means.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import SystemParams, chart_flow
from .errors import (
    AmbiguousOrbitError,
    BracketingError,
    ClassificationMismatchError,
    DegenerateWindingError,
    DomainError,
    InsufficientCrossingsError,
)
from .integrator import (
    IntegratorConfig,
    MomentumBranch,
    PhaseState,
    ReturnWatch,
    Termination,
    Trajectory,
    chart_step,
    initial_momentum,
    integrate,
)
from .wells import Side, WellIndex, lattice_y_array, nearest_well, well_center, well_x

__all__ = [
    "CrossingDirection",
    "CrossingEvent",
    "DwellSegment",
    "TunnelingStats",
    "OrbitKind",
    "OrbitClass",
    "Chirality",
    "BoundaryResult",
    "detect_axis_crossings",
    "dwell_segments",
    "measure_tunneling",
    "tunnel_well_pair",
    "classify_orbit",
    "closed_orbit_boundary",
    "separatrix_offset",
    "spiral_chirality",
    "spiral_windows",
    "self_intersections",
]

DEFAULT_RECURRENCE_TOL = 1e-4

# Default spread of the two boundary probes about the separatrix.
BOUNDARY_WIDTH = 1e-4

# separatrix_offset's DP5 tolerances (~1e-14 off a 30-digit leaf) and step budget
_LEAF_RTOL, _LEAF_ATOL, _LEAF_MAX_STEPS = 1e-13, 1e-15, 10_000

# Boundary-probe preset: see closed_orbit_boundary for the two stops, at
# the first return and at the exit from the start's cell.
PROBE_CONFIG = IntegratorConfig(
    t_max=15.0,
    escape_radius=25.0,
    escape_y_span=0.5 * math.pi,
    energy_drift_limit=0.05,
    return_tol=DEFAULT_RECURRENCE_TOL,
)


class CrossingDirection(enum.Enum):
    LEFT_TO_RIGHT = "left_to_right"
    RIGHT_TO_LEFT = "right_to_left"


@dataclass(frozen=True)
class CrossingEvent:
    """One transit of the imaginary axis."""

    t_cross: float
    y_at_cross: float
    direction: CrossingDirection
    index: int  # sample index of the segment start containing the crossing


@dataclass(frozen=True)
class DwellSegment:
    """A full stay on one side, between consecutive crossings."""

    side: Side
    t_start: float
    t_end: float
    i_first: int  # first sample index strictly after the entering crossing
    i_last: int  # last sample index before the leaving crossing

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class TunnelingStats:
    dwell_left_mean: float
    dwell_right_mean: float
    n_cycles: int

    @property
    def tunneling_time(self) -> float:
        return 0.5 * (self.dwell_left_mean + self.dwell_right_mean)


class OrbitKind(enum.Enum):
    CLOSED = "closed"
    OPEN_ESCAPE = "open_escape"
    TUNNELING = "tunneling"


@dataclass(frozen=True)
class OrbitClass:
    kind: OrbitKind
    period: float | None = None
    anchor: WellIndex | None = None
    escape_side: Side | None = None
    wells: tuple[WellIndex, WellIndex] | None = None  # (left, right)


class Chirality(enum.Enum):
    CLOCKWISE = "clockwise"
    ANTICLOCKWISE = "anticlockwise"


def _interp_at(traj: Trajectory, i: int, j: int, t: float) -> tuple[complex, complex]:
    """Linear interpolation of (z, p) on the sample bracket [i, j]."""
    ta, tb = traj.t[i], traj.t[j]
    frac = 0.0 if tb == ta else (t - ta) / (tb - ta)
    z = traj.z[i] + frac * (traj.z[j] - traj.z[i])
    p = traj.p[i] + frac * (traj.p[j] - traj.p[i])
    return complex(z), complex(p)


def detect_axis_crossings(traj: Trajectory) -> list[CrossingEvent]:
    """All sign changes of Re z, located on the linear interpolant.

    A crossing time is the root of the interpolant of Re z between the
    two samples of opposite sign; the direction comes from the sign of
    Re(dz/dt) = 2 Re p there.  Samples landing exactly on the axis are
    bridged by the surrounding nonzero-sign samples.
    """
    if len(traj) == 0:
        raise DomainError("empty trajectory")
    x = traj.z.real
    nz = np.nonzero(x != 0.0)[0]
    if len(nz) < 2:
        return []
    s = np.sign(x[nz])
    flips = np.nonzero(s[:-1] != s[1:])[0]

    events: list[CrossingEvent] = []
    for f in flips:
        i, j = int(nz[f]), int(nz[f + 1])
        ti, tj = float(traj.t[i]), float(traj.t[j])
        xi, xj = float(x[i]), float(x[j])
        t_star = ti - xi * (tj - ti) / (xj - xi)
        z_star, p_star = _interp_at(traj, i, j, t_star)
        re_v = 2.0 * p_star.real
        if re_v != 0.0:
            direction = CrossingDirection.LEFT_TO_RIGHT if re_v > 0 else CrossingDirection.RIGHT_TO_LEFT
        else:
            direction = CrossingDirection.LEFT_TO_RIGHT if x[j] > x[i] else CrossingDirection.RIGHT_TO_LEFT
        events.append(CrossingEvent(t_star, z_star.imag, direction, i))
    return events


def dwell_segments(
    traj: Trajectory,
    crossings: Sequence[CrossingEvent] | None = None,
    commit_frac: float = 0.5,
) -> list[DwellSegment]:
    """Full dwell segments between consecutive committed crossings.

    A crossing opens a dwell only if the orbit then reaches at least
    ``commit_frac`` of the well-column |x| before crossing back: transits
    occasionally graze the imaginary axis (sign wiggles lasting ~0.1 time
    units at |Re z| ~ 0.1), and without the hysteresis those grazes would
    enter the dwell statistics as spurious sub-unit dwells.  The partial
    stretches before the first and after the last committed crossing are
    not segments.
    """
    if crossings is None:
        crossings = detect_axis_crossings(traj)
    if len(crossings) < 2:
        return []
    x_commit = commit_frac * well_x(traj.params)
    abs_x = np.abs(traj.z.real)
    n_last = len(traj) - 1

    kept: list[CrossingEvent] = []
    last_side: Side | None = None
    for i, ev in enumerate(crossings):
        side = Side.RIGHT if ev.direction is CrossingDirection.LEFT_TO_RIGHT else Side.LEFT
        i0 = ev.index + 1
        i1 = crossings[i + 1].index if i + 1 < len(crossings) else n_last
        peak = float(abs_x[i0 : i1 + 1].max()) if i1 >= i0 else 0.0
        if side is not last_side and peak >= x_commit:
            kept.append(ev)
            last_side = side

    segs: list[DwellSegment] = []
    for a, b in zip(kept[:-1], kept[1:]):
        side = Side.RIGHT if a.direction is CrossingDirection.LEFT_TO_RIGHT else Side.LEFT
        segs.append(
            DwellSegment(
                side=side,
                t_start=a.t_cross,
                t_end=b.t_cross,
                i_first=a.index + 1,
                i_last=b.index,
            )
        )
    return segs


def measure_tunneling(traj: Trajectory, crossings: Sequence[CrossingEvent] | None = None) -> TunnelingStats:
    """Per-side mean dwell times and their average, the tunneling time."""
    if crossings is None:
        crossings = detect_axis_crossings(traj)
    if len(crossings) < 3:
        raise InsufficientCrossingsError(
            f"need >= 3 axis crossings for dwell statistics, got {len(crossings)}"
        )
    segs = dwell_segments(traj, crossings)
    left = [s.duration for s in segs if s.side is Side.LEFT]
    right = [s.duration for s in segs if s.side is Side.RIGHT]
    if not left or not right:
        raise InsufficientCrossingsError("dwell segments missing on one side")
    return TunnelingStats(
        dwell_left_mean=sum(left) / len(left),
        dwell_right_mean=sum(right) / len(right),
        n_cycles=min(len(left), len(right)),
    )


ANCHOR_RADIUS = 0.35


def anchor_episodes(traj: Trajectory, radius: float = ANCHOR_RADIUS) -> list[tuple[WellIndex, int, float]]:
    """Maximal sample runs spent within ``radius`` of some well center.

    Returns (well, sample index of closest approach, closest distance) per
    episode, consecutive same-well episodes merged.  Spirals pass within
    ~0.1 of the well they orbit while transits between well columns stay
    at least a well-x away from every center, so the episode sequence
    reads off which wells the orbit actually visits, robustly even when
    spiral loops wrap across the imaginary axis.
    """
    x = traj.z.real
    y = traj.z.imag
    xw = well_x(traj.params)
    n_r = np.round(y / math.pi - 0.25)
    n_l = np.round(y / math.pi + 0.25)
    d_r = np.hypot(x - xw, y - lattice_y_array(Side.RIGHT, n_r))
    d_l = np.hypot(x + xw, y - lattice_y_array(Side.LEFT, n_l))
    right_closer = d_r <= d_l
    d = np.where(right_closer, d_r, d_l)

    episodes: list[tuple[WellIndex, int, float]] = []
    inside = d < radius
    i = 0
    n_tot = len(d)
    while i < n_tot:
        if not inside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_tot and inside[j + 1]:
            j += 1
        k = i + int(np.argmin(d[i : j + 1]))
        side = Side.RIGHT if right_closer[k] else Side.LEFT
        n = int(n_r[k]) if right_closer[k] else int(n_l[k])
        well = WellIndex(side, n)
        if episodes and episodes[-1][0] == well:
            if d[k] < episodes[-1][2]:
                episodes[-1] = (well, k, float(d[k]))
        else:
            episodes.append((well, k, float(d[k])))
        i = j + 1
    return episodes


def _vote_wells(traj: Trajectory) -> tuple[WellIndex, WellIndex]:
    """The (left, right) wells of the first visit episode on each side.

    The first visits identify the pair the orbit initially oscillates
    between; over long runs the anchors migrate to neighboring lattice
    cells, which the first visits deliberately ignore.  The episode that
    holds sample 0 is where the orbit starts, not a visit: an orbit
    launched from a well center may leave that well for good.
    """
    episodes = anchor_episodes(traj)
    if episodes and nearest_well(complex(traj.z[0]), traj.params)[1] < ANCHOR_RADIUS:
        episodes = episodes[1:]
    first: dict[Side, WellIndex] = {}
    for well, _, _ in episodes:
        first.setdefault(well.side, well)
    for side in (Side.LEFT, Side.RIGHT):
        if side not in first:
            raise InsufficientCrossingsError(f"the orbit never settles at a {side.value}-side well")
    return first[Side.LEFT], first[Side.RIGHT]


def tunnel_well_pair(traj: Trajectory) -> tuple[WellIndex, WellIndex]:
    """The (left, right) wells a tunneling orbit oscillates between.

    Wells are identified by the orbit's closest-approach episodes (the
    spiral cores pass within ~0.1 of their center), taking the first
    visit per side.  A start inside a well's anchor radius is not a
    visit to that well: the orbit from the center of left well -2 at
    zeta=0.1, M=3, E=1+i oscillates between -1 and +19 and never returns
    to -2.  The deepest |Re z| sample of a dwell is deliberately
    not used as the witness: it sits on the outward excursion, whose y can
    be a full lattice cell away from the orbited well.
    """
    crossings = detect_axis_crossings(traj)
    if len(crossings) < 3 or traj.termination is Termination.ESCAPED:
        raise ClassificationMismatchError(
            "well-pair extraction requires a tunneling orbit "
            f"(crossings={len(crossings)}, termination={traj.termination.value})"
        )
    return _vote_wells(traj)


def _recurrence(traj: Trajectory) -> float | None:
    """First return time to within DEFAULT_RECURRENCE_TOL of the start.

    The return is the one ``ReturnWatch`` finds, at the closest approach of
    the cubic between two samples.  Returns the period, 0.0 for a trajectory
    that never leaves the ball about its start, or None when there is no
    recurrence.
    """
    z, p, t = traj.z.tolist(), traj.p.tolist(), traj.t.tolist()
    watch = ReturnWatch(t[0], z[0], p[0], DEFAULT_RECURRENCE_TOL, traj.params)
    for k in range(1, len(t)):
        t_return = watch.step(t[k], z[k], p[k])
        if t_return is not None:
            return t_return
    return None if watch.left else 0.0


def classify_orbit(traj: Trajectory) -> OrbitClass:
    """Closed, open-escape, or tunneling; anything else raises.

    Closed: the phase point returns within DEFAULT_RECURRENCE_TOL of its
    start (in the combined (z, p) Euclidean norm) with no axis crossing,
    on a run that did not escape.  Open escape: the run escaped with at
    most one crossing.  Tunneling: at least three alternating crossings on
    a run that did not escape; drift- or step-terminated runs classify on
    their retained (certified) samples.
    """
    crossings = detect_axis_crossings(traj)
    escaped = traj.termination is Termination.ESCAPED
    if escaped and len(crossings) <= 1:
        side = Side.RIGHT if traj.z[-1].real > 0 else Side.LEFT
        return OrbitClass(kind=OrbitKind.OPEN_ESCAPE, escape_side=side)
    if not crossings and not escaped:
        period = _recurrence(traj)
        if period is not None:
            anchor, _ = nearest_well(complex(np.mean(traj.z)), traj.params)
            return OrbitClass(kind=OrbitKind.CLOSED, period=period, anchor=anchor)
    if len(crossings) >= 3 and not escaped:
        left, right = _vote_wells(traj)
        return OrbitClass(kind=OrbitKind.TUNNELING, wells=(left, right))
    raise AmbiguousOrbitError(
        f"no orbit class fits: termination={traj.termination.value}, "
        f"crossings={len(crossings)}, t_end={traj.t[-1]:.6g}"
    )


@dataclass(frozen=True)
class BoundaryResult:
    """Critical start offset separating closed orbits from escape."""

    offset: float
    closed_offset: float
    open_offset: float
    n_probes: int
    max_probe_drift: float
    # (max_drift, drift_floor_rss) of every probe integration
    probe_drifts: tuple[tuple[float, float], ...]


def separatrix_offset(params: SystemParams, energy_real: float) -> float:
    """The closed-orbit boundary: the start offset of the separatrix, the leaf
    from s = 0 (Re z = -inf) with s' = +2 zeta in the chart s = e^{2z}, at its
    first crossing of |s| = r_w = e^{-asinh(M/zeta)} (Re z = x_w).  Every left
    well maps to s = -i r_w, and s -> -conj(s) maps the leaf onto the one with
    s' = -2 zeta, so the offset (arg s + pi/2)/2 holds for every well and both
    directions.
    """
    rhs = chart_flow(params, complex(energy_real))
    r_w = math.exp(-math.asinh(params.m_int / params.zeta))
    w, v = 0j, complex(2.0 * params.zeta)
    a = rhs(w, v)[1]
    h = 1e-3
    for _ in range(_LEAF_MAX_STEPS):
        wn, vn, an, _, err = chart_step(rhs, w, v, a, h, _LEAF_ATOL, _LEAF_RTOL)
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            continue
        if abs(wn) >= r_w:
            for _ in range(8):  # Newton on the step length; d|w|/dh = Re(conj(w) w') / |w|
                h -= (abs(wn) - r_w) * abs(wn) / (wn.conjugate() * vn).real
                wn, vn = chart_step(rhs, w, v, a, h, _LEAF_ATOL, _LEAF_RTOL)[:2]
            if abs(abs(wn) - r_w) <= 1e-14 * r_w:
                return 0.5 * (cmath.phase(wn) + 0.5 * math.pi)
            break
        w, v, a = wn, vn, an
        h *= min(5.0, 0.9 * err**-0.2) if err > 0 else 5.0
    raise AmbiguousOrbitError(
        f"the separatrix leaf did not land on |s| = r_w within {_LEAF_MAX_STEPS} steps ({params}, E={energy_real!r})"
    )


def closed_orbit_boundary(
    idx: WellIndex,
    energy_real: float,
    params: SystemParams,
    cfg: IntegratorConfig = PROBE_CONFIG,
    direction: int = 1,
    width_tol: float = BOUNDARY_WIDTH,
) -> BoundaryResult:
    """The critical y-offset from a well center at real energy,
    :func:`separatrix_offset`, confirmed by two probes.

    The probes start at the well's x, width_tol/2 below and above the
    separatrix in Im z (signed by ``direction``).  The lower must end
    closed, by its first return (``RETURNED``) or at t_max in its cell; the
    upper open, leaving its cell (``ESCAPED``: Im z moves pi/2, on its first
    whip down the well column).  Otherwise a BracketingError reports both;
    a probe that ends by drift or step budget raises AmbiguousOrbitError.
    """
    if direction not in (-1, 1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    if not (math.isfinite(width_tol) and width_tol > 0):
        raise DomainError(f"width_tol must be finite and > 0, got {width_tol!r}")
    sep = separatrix_offset(params, energy_real)
    center = well_center(idx, params)
    lo, hi = sep - 0.5 * width_tol, sep + 0.5 * width_tol
    ends: list[Termination] = []
    drifts: list[tuple[float, float]] = []
    for offset in (lo, hi):
        z0 = complex(center.real, center.imag + direction * offset)
        p0 = initial_momentum(z0, complex(energy_real), MomentumBranch.PRINCIPAL, params)
        traj = integrate(z0, p0, cfg, params)
        if traj.termination in (Termination.DRIFT_EXCEEDED, Termination.STEP_LIMIT):
            raise AmbiguousOrbitError(
                f"probe at offset {offset!r} ended by {traj.termination.value} "
                f"at t={float(traj.t[-1])!r}, kept drift up to {traj.max_drift!r}"
            )
        ends.append(traj.termination)
        drifts.append((traj.max_drift, traj.drift_floor_rss))
    if ends[0] is Termination.ESCAPED or ends[1] is not Termination.ESCAPED:
        raise BracketingError(
            f"probes do not confirm the separatrix {sep!r}: offset {lo!r} ended by {ends[0].value}, "
            f"offset {hi!r} ended by {ends[1].value}"
        )
    return BoundaryResult(
        offset=sep,
        closed_offset=lo,
        open_offset=hi,
        n_probes=len(drifts),
        max_probe_drift=max(d for d, _ in drifts),
        probe_drifts=tuple(drifts),
    )


def spiral_chirality(segment: Sequence[PhaseState], center: complex) -> Chirality:
    """Sense of rotation of a spiral segment about a well center.

    The accumulated winding angle of z - center decides: negative is
    clockwise, positive anticlockwise.  Zero net winding has no chirality
    and raises.
    """
    if len(segment) < 10:
        raise DomainError(f"need >= 10 samples, got {len(segment)}")
    rel = np.array([s.z - center for s in segment], dtype=complex)
    if np.any(np.abs(rel) > math.pi / 4):
        raise DomainError("all samples must lie within pi/4 of the center")
    if np.any(rel == 0):
        raise DomainError("segment passes exactly through the center")
    winding = float(np.sum(np.angle(rel[1:] / rel[:-1])))
    if abs(winding) <= 1e-9:
        raise DegenerateWindingError(f"zero net winding ({winding!r})")
    return Chirality.CLOCKWISE if winding < 0 else Chirality.ANTICLOCKWISE


def spiral_windows(
    traj: Trajectory,
    seg: DwellSegment,
    center: complex,
    radius: float = math.pi / 4,
) -> tuple[list[PhaseState], list[PhaseState]]:
    """Inward and outward spiral sample windows of one dwell.

    Both windows are contiguous sample runs inside ``radius`` of the well
    center, split at the closest approach: the inward window ends there,
    the outward one starts there.
    """
    if seg.i_last < seg.i_first:
        raise DomainError("dwell segment holds no samples")
    zseg = traj.z[seg.i_first : seg.i_last + 1]
    r = np.abs(zseg - center)
    k_min = int(np.argmin(r))
    lo = k_min
    while lo > 0 and r[lo - 1] <= radius:
        lo -= 1
    hi = k_min
    while hi + 1 < len(r) and r[hi + 1] <= radius:
        hi += 1
    inward = [traj.state(seg.i_first + i) for i in range(lo, k_min + 1)]
    outward = [traj.state(seg.i_first + i) for i in range(k_min, hi + 1)]
    return inward, outward


def _proper_crossings(pts: np.ndarray, pairs_i: np.ndarray, pairs_j: np.ndarray) -> int:
    """Count transversal interior intersections among the listed segment pairs."""
    a = pts[pairs_i]
    b = pts[pairs_i + 1]
    c = pts[pairs_j]
    d = pts[pairs_j + 1]

    def orient(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])

    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)
    return int(np.count_nonzero((d1 * d2 < 0) & (d3 * d4 < 0)))


def self_intersections(traj: Trajectory) -> int:
    """Number of transversal self-crossings of the trajectory polyline.

    Segments are binned into a uniform grid (cell = twice the mean segment
    length) so only nearby pairs are tested; adjacent segments are skipped.
    Endpoint touches and collinear overlaps do not count.
    """
    if len(traj) < 4:
        raise DomainError(f"need >= 4 samples, got {len(traj)}")
    pts = np.column_stack([traj.z.real, traj.z.imag])
    n_seg = len(pts) - 1
    seg_len = np.hypot(*(pts[1:] - pts[:-1]).T)
    cell = max(2.0 * float(seg_len.mean()), 1e-12)

    lo = np.floor(np.minimum(pts[:-1], pts[1:]) / cell).astype(np.int64)
    hi = np.floor(np.maximum(pts[:-1], pts[1:]) / cell).astype(np.int64)

    grid: dict[tuple[int, int], list[int]] = {}
    for i in range(n_seg):
        for cx in range(lo[i, 0], hi[i, 0] + 1):
            for cy in range(lo[i, 1], hi[i, 1] + 1):
                grid.setdefault((cx, cy), []).append(i)

    keys: set[int] = set()
    for members in grid.values():
        m = len(members)
        if m < 2:
            continue
        for ai in range(m - 1):
            i = members[ai]
            for bi in range(ai + 1, m):
                j = members[bi]
                if j - i > 1:
                    keys.add(i * n_seg + j)
                elif i - j > 1:
                    keys.add(j * n_seg + i)
    if not keys:
        return 0
    karr = np.fromiter(keys, dtype=np.int64, count=len(keys))
    return _proper_crossings(pts, karr // n_seg, karr % n_seg)
