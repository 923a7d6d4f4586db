"""End-to-end acceptance runs: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive
trajectory sets are computed once in module-scoped fixtures and shared.

Five criteria rest on more than the double-precision runs themselves:

* criterion 3, the well-pair map: the (zeta=0.1, M=4) orbit from the
  origin visits right +21, then left -20, not the symmetric +/-21.  No
  symmetry forces a symmetric pair: z -> -z maps the principal-branch
  pair (l a, r b) onto the negated-branch pair (l -b, r -a).  The
  reference is the pair of a 25-digit integration;
* criterion 4, the closed-orbit boundary: every search's offset must lie
  within 1e-12 of the separatrix, the leaf through Re z = -inf, integrated
  at 30 digits with mpmath (the ``mp_separatrix`` fixture), and its two
  probes must bracket it;
* criterion 5, energy conservation: tunneling and near-separatrix orbits
  pass where no double-precision state has H within 1e-8 of E.  Each
  trajectory, each boundary probe included, is held to 1e-8 plus a fixed
  multiple of its own accumulated drift floor ``Trajectory.drift_floor_rss``
  (see DRIFT_FLOOR_FACTOR);
* criterion 8, the shift rule: the orbit started at the center of left
  well -2 leaves it for good and oscillates between left -1 and right
  +19, as the 25-digit integration confirms.  The "-b+2a" rule's
  prediction (-2, +18) has no source here; its checkable part, the pair
  separation of the origin run, is kept;
* criterion 9, well stationarity: V and dV/dz vanish at the exact lattice
  points (evaluated with mpmath), and ``well_center`` returns them
  correctly rounded.  The gradient at the rounded point is not the
  measure: half an ulp of y times the curvature 8(M^2+zeta^2) reaches
  2.9e-12 at |n| ~ 50.

The 25-digit integrations are ``tests/data/arbitration.json``, written by
``scripts/arbitrate.py``; criteria 3 and 8 also check that the double-
precision runs visit the same wells over the integrated stretch.
"""

import json
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    Chirality,
    IntegratorConfig,
    MomentumBranch,
    OrbitKind,
    Side,
    SystemParams,
    Trajectory,
    WellIndex,
    anchor_episodes,
    classify_orbit,
    closed_orbit_boundary,
    detect_axis_crossings,
    dwell_segments,
    initial_momentum,
    integrate,
    pt_phase,
    qes_levels,
    self_intersections,
    spiral_chirality,
    spiral_windows,
    tunnel_well_pair,
    well_center,
)
from ptwells import integrator
from ptwells.analysis import PROBE_CONFIG
from ptwells.cli import RunConfig, cmd_sweep_e2, run_preset, run_simulation
from ptwells.spectrum import ZETA_C_M3

P_MAIN = SystemParams(0.1, 3)

TABLE_ROWS = {
    0.3: 54.19, 0.5: 32.42, 0.8: 20.1, 1.0: 15.99, 1.2: 13.14, 1.5: 10.42,
    1.7: 9.203, 2.0: 7.739, 2.2: 7.008, 2.5: 6.097, 2.7: 5.635, 3.0: 5.054,
    3.2: 4.745, 3.5: 4.329, 3.7: 4.058, 4.0: 3.76, 4.2: 3.601, 4.5: 3.355,
    4.7: 3.22, 5.0: 3.025, 5.2: 2.902, 5.5: 2.763, 5.7: 2.673, 6.0: 2.541,
    6.2: 2.47, 6.5: 2.375, 6.7: 2.313,
}
HEADLINE_E2 = [0.5, 1.0, 2.0, 4.0, 6.7]

# (left n, right n) per (zeta, M)
WELL_MAP = {
    (0.1, 2): (-3, 3), (0.1, 3): (-10, 10),
    # not symmetric: the 25-digit run "map_zeta0.1_M4" in ARBITRATION visits
    # right +21 at t~11.94, then left -20 at t~35.99
    (0.1, 4): (-20, 21),
    (0.1, 5): (-35, 35),
    (1.0, 2): (-3, 3), (1.0, 3): (-6, 6), (1.0, 4): (-11, 11), (1.0, 5): (-19, 19),
}
# the 25-digit run "shift_zeta0.1_M3" in ARBITRATION: left -2 (the start),
# right +19 at t~15.49, left -1 at t~31.95
SHIFT_PAIR = (-1, 19)

ARBITRATION = pathlib.Path(__file__).parent / "data" / "arbitration.json"

# Criterion 5 holds each trajectory to 1e-8 + DRIFT_FLOOR_FACTOR * R.  Its
# drift is the energy error of one integrator step: |H - E| / max(1, |E|) of
# the state a step reaches before the integrator projects it back onto the
# energy shell, largest over the kept steps.  The projection carries no step's
# error on to the next, so a step's error is its own, not a sum.  R is
# Trajectory.drift_floor_rss, sqrt(sum F^2) over the kept samples, with
# F = eps (|dV/dz| |z| + 2 |p|^2) / max(1, |E|) the floor of a sample stored
# in z: rounding z and p to doubles moves H by up to F, spread over an
# interval at most F wide, RMS at most F/sqrt(12).  At a whip F passes 1e-8,
# and no double-precision state there has H within 1e-8 of E.  K bounds
# rounding even where it adds up as a random walk, of spread
# sigma = R/sqrt(12) at the end of the run: by the reflection principle the
# walk's largest excursion passes 4 sigma with probability at most
# 2 P(|N(0,1)| > 4) ~ 1.3e-4 per trajectory, and evaluating H at a sample
# adds at most about one F, with F <= R.  Hence K = 4/sqrt(12) + 1 ~ 2.15.
# The control, a run at rel_tol 1e-5, must exceed its allowance: a step error
# that a loose tolerance lets through is not hidden under R.  It is the tightest
# decade that does so clearly: on the closed figure to t = 40 the peak drift is
# 2.0e-7 at 1e-5, 20x its allowance, but 9.5e-9 at 1e-6, under it.
DRIFT_FLOOR_FACTOR = 4.0 / math.sqrt(12.0) + 1.0


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def headline_sweep():
    t0 = time.time()
    rows = cmd_sweep_e2(P_MAIN, 1.0, HEADLINE_E2)
    return {"rows": {r["e2"]: r for r in rows}, "wall": time.time() - t0}


@pytest.fixture(scope="module")
def full_sweep(headline_sweep):
    rest = [e2 for e2 in TABLE_ROWS if e2 not in HEADLINE_E2]
    rows = {r["e2"]: r for r in cmd_sweep_e2(P_MAIN, 1.0, rest)}
    rows.update(headline_sweep["rows"])
    return rows


def _map_run(zeta: float, m: int) -> Trajectory:
    params = SystemParams(zeta, m)
    t_max = 340.0 if zeta < 0.5 else 250.0
    # tight tolerances: at zeta=1 the nested spiral wraps pass within the
    # noise floor of looser runs and pick up spurious polyline crossings
    cfg = replace(run_preset(1 + 1j, t_max), rel_tol=1e-12, abs_tol=1e-14)
    p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, params)
    return integrate(0j, p0, cfg, params)


@pytest.fixture(scope="module")
def map_runs():
    return {key: _map_run(*key) for key in WELL_MAP}


@pytest.fixture(scope="module")
def boundary_results():
    out = {}
    for key, (n, direction) in {"n0_up": (0, 1), "n0_down": (0, -1), "n1_up": (1, 1)}.items():
        out[key] = closed_orbit_boundary(
            WellIndex(Side.LEFT, n), 0.8, P_MAIN, direction=direction
        )
    return out


@pytest.fixture(scope="module")
def arbitration():
    return json.loads(ARBITRATION.read_text())["cases"]


@pytest.fixture(scope="module")
def shift_run():
    z0 = well_center(WellIndex(Side.LEFT, -2), P_MAIN)
    cfg = run_preset(1 + 1j, 260.0)
    p0 = initial_momentum(z0, 1 + 1j, MomentumBranch.PRINCIPAL, P_MAIN)
    return integrate(z0, p0, cfg, P_MAIN)


def _head(traj: Trajectory, end: int) -> Trajectory:
    """The first ``end`` samples of a trajectory."""
    return Trajectory(
        params=traj.params, energy=traj.energy, t=traj.t[:end], z=traj.z[:end],
        p=traj.p[:end], drift=traj.drift[:end], termination=traj.termination,
    )


def _arbitration_mismatches(name: str, case: dict, traj: Trajectory, pair: tuple[int, int]) -> list[str]:
    """Disagreements between a reference pair, a run and its 25-digit arbitration.

    The arbitration must start from the run's own (z0, p0), conserve H at
    >= 25 digits to 1e-16, finer than double precision can resolve, and
    read off the reference pair; the run must visit the same wells, in
    order, up to the arbitration's horizon.
    """
    out = []
    start = [traj.z[0].real, traj.z[0].imag, traj.p[0].real, traj.p[0].imag]
    if case["z0"] + case["p0"] != start:
        out.append(f"{name}: arbitration starts at {case['z0']}, {case['p0']}, the run at {start}")
    if case["dps"] < 25 or case["max_energy_error"] > 1e-16:
        out.append(f"{name}: arbitration at {case['dps']} digits, energy error {case['max_energy_error']:.1e}")
    arbitrated = (case["pair"]["left"], case["pair"]["right"])
    if arbitrated != pair:
        out.append(f"{name}: 25-digit pair {arbitrated} vs reference {pair}")
    head = _head(traj, int(np.searchsorted(traj.t, case["t_end"], side="right")))
    visited = [(w.side.value, w.n) for w, _, _ in anchor_episodes(head)]
    expected = [(e["side"], e["n"]) for e in case["episodes"]]
    if visited != expected:
        out.append(f"{name}: wells visited up to t={case['t_end']} {visited} vs 25-digit {expected}")
    return out


def test_criterion_1_table_reproduction(headline_sweep):
    rows = headline_sweep["rows"]
    failures = []
    branch_note = "principal"
    for e2 in HEADLINE_E2:
        expected = TABLE_ROWS[e2]
        row = rows[e2]
        tau = row["tau"]
        if tau is None or abs(tau - expected) > 0.10 * expected:
            # unstated branch choice: accept if the negated branch passes
            config = RunConfig(
                params=P_MAIN,
                energy=complex(1.0, e2),
                start="origin",
                branch=MomentumBranch.NEGATED,
                integrator=run_preset(complex(1.0, e2)),
            )
            summary = run_simulation(config)
            tau_neg = summary["tunneling"]["tau"] if summary["tunneling"] else None
            if tau_neg is not None and abs(tau_neg - expected) <= 0.10 * expected:
                branch_note = f"negated branch used for e2={e2}"
                rows[e2] = {**row, "tau": tau_neg}
            else:
                failures.append(f"e2={e2}: tau={tau} vs {expected}")
    wall = headline_sweep["wall"]
    detail = (
        f"tau deviations "
        + ", ".join(f"{e2}: {abs(rows[e2]['tau'] - TABLE_ROWS[e2]) / TABLE_ROWS[e2]:.1%}" for e2 in HEADLINE_E2)
        + f"; wall {wall:.0f}s; branch {branch_note}"
    )
    ok = not failures and wall < 120.0
    report(1, "tunneling-time table", ok, detail if ok else "; ".join(failures) + f"; wall {wall:.0f}s")


def test_criterion_2_inverse_law(full_sweep):
    products = {}
    bad = []
    for e2 in TABLE_ROWS:
        tau = full_sweep[e2]["tau"]
        if tau is None:
            bad.append(f"e2={e2}: no tau ({full_sweep[e2]['error']})")
            continue
        products[e2] = e2 * tau
        if not (14.5 <= products[e2] <= 17.0):
            bad.append(f"e2={e2}: E2*tau={products[e2]:.3f}")
    detail = f"E2*tau in [{min(products.values()):.2f}, {max(products.values()):.2f}] over {len(products)} rows"
    report(2, "inverse law", not bad, detail if not bad else "; ".join(bad))


def test_criterion_3_well_pair_map(map_runs, arbitration):
    mismatches = []
    for (zeta, m), expected in WELL_MAP.items():
        left, right = tunnel_well_pair(map_runs[(zeta, m)])
        if (left.n, right.n) != expected:
            mismatches.append(
                f"zeta={zeta} M={m}: got (left {left.n:+d}, right {right.n:+d}), expected {expected}"
            )
    mismatches += _arbitration_mismatches(
        "zeta=0.1 M=4", arbitration["map_zeta0.1_M4"], map_runs[(0.1, 4)], WELL_MAP[(0.1, 4)]
    )
    detail = "all 8 pairs exact; (0.1, 4) = (-20, +21) as in the 25-digit arbitration"
    report(3, "well-pair map", not mismatches, "; ".join(mismatches) or detail)


def test_criterion_4_closed_orbit_boundary(boundary_results, mp_separatrix):
    n0_up = boundary_results["n0_up"].offset
    n0_down = boundary_results["n0_down"].offset
    n1_up = boundary_results["n1_up"].offset
    # the separatrix, the leaf through Re z = -inf, at 30 digits
    sep = mp_separatrix(0.1, 3, 0.8)
    ok = (
        0.525 <= n0_up <= 0.535
        and 0.525 <= n1_up <= 0.535
        and abs(n0_up - n1_up) <= 1e-3
        and abs(n0_up - n0_down) <= 1e-3
        and all(
            r.closed_offset <= sep <= r.open_offset and abs(r.offset - sep) <= 1e-12
            for r in boundary_results.values()
        )
    )
    detail = (
        f"n0 up {n0_up:.6f}, n0 down {n0_down:.6f}, n1 up {n1_up:.6f}"
        f" (separatrix {float(sep)!r}, 30-digit leaf)"
    )
    report(4, "closed-orbit boundary", ok, detail)


def test_criterion_5_energy_conservation(full_sweep, map_runs, boundary_results, monkeypatch):
    # time reversal on a bounded run, T = 50
    c = well_center(WellIndex(Side.LEFT, 0), P_MAIN)
    z0 = complex(c.real, c.imag + 0.4740)
    p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P_MAIN)
    fwd = integrate(z0, p0, IntegratorConfig(t_max=50.0), P_MAIN)
    back = integrate(complex(fwd.z[-1]), -complex(fwd.p[-1]), IntegratorConfig(t_max=50.0), P_MAIN)
    reversal_err = abs(complex(back.z[-1]) - z0)
    reversal_ok = reversal_err <= 1e-6

    runs = {
        f"sweep e2={e2}": (full_sweep[e2]["max_drift"], full_sweep[e2]["drift_floor_rss"])
        for e2 in TABLE_ROWS
    }
    runs.update({f"map {k}": (traj.max_drift, traj.drift_floor_rss) for k, traj in map_runs.items()})
    for k, r in boundary_results.items():
        runs.update({f"boundary {k} probe {i}": pair for i, pair in enumerate(r.probe_drifts, 1)})
    runs["time-reversal forward"] = (fwd.max_drift, fwd.drift_floor_rss)
    runs["time-reversal back"] = (back.max_drift, back.drift_floor_rss)

    def load(drift: float, floor: float) -> float:
        """Drift as a fraction of its allowance 1e-8 + K R."""
        return drift / (1e-8 + DRIFT_FLOOR_FACTOR * floor)

    loads = {k: load(d, f) for k, (d, f) in runs.items()}
    worst = max(loads, key=loads.get)
    over = [k for k, v in loads.items() if v > 1.0]

    # control: a run whose steps err by about 1e-5 and whose floor stays tiny must not fit
    # the allowance.  The steps are the exact flow map, so the error is put into the
    # Weierstrass values P and P' of each step: both are scaled by 1 + 1e-5, in the one
    # function that computes them
    exact_p = integrator.weierstrass_p

    def perturbed_p(u, c):
        return tuple(x * (1.0 + 1e-5) for x in exact_p(u, c))

    with monkeypatch.context() as patch:
        patch.setattr(integrator, "weierstrass_p", perturbed_p)
        loose = integrate(z0, p0, IntegratorConfig(t_max=40.0, energy_drift_limit=1.0), P_MAIN)
    control = load(loose.max_drift, loose.drift_floor_rss)

    ok = reversal_ok and not over and control > 1.0
    drift, floor = runs[worst]
    detail = (
        f"reversal error {reversal_err:.2e}; worst drift {drift:.2e} at floor rss {floor:.2e} ({worst}), "
        f"{loads[worst]:.2f} of 1e-8 + {DRIFT_FLOOR_FACTOR:.3g} x rss; "
        f"{len(over)}/{len(runs)} trajectories over their allowance"
        + (f": {', '.join(over)}" if over else "")
        + f"; control with P, P' off by 1e-5 at {control:.0f} x its allowance (must exceed 1)"
    )
    report(5, "energy conservation", ok, detail)


def test_criterion_6_spectrum():
    failures = []
    for m in (1, 2, 3, 4):
        for zeta in (0.1, 0.3, 1.0, 2.0, 4.5):
            ours = sorted(
                (lv.energy for lv in qes_levels(m, zeta)),
                key=lambda v: (round(v.real, 9), v.imag),
            )
            z2 = zeta * zeta
            if m == 1:
                oracle = [complex(1 - z2)]
            elif m == 2:
                b = 3 - z2
                oracle = sorted(np.roots([1, -2 * b, b * b + 4 * z2]), key=lambda v: (round(v.real, 9), v.imag))
            elif m == 3:
                b = 7 - z2
                oracle = sorted(
                    list(np.roots([1, -2 * b, b * b - (1 - 4 * z2)])) + [complex(5 - z2)],
                    key=lambda v: (round(v.real, 9), v.imag),
                )
            else:
                b = complex(11 - z2, -2 * zeta)
                oracle = sorted(
                    np.roots([1, -2 * b, b * b - complex(1 - z2, -zeta)]),
                    key=lambda v: (round(v.real, 9), v.imag),
                )
            for a, b_ in zip(ours, oracle):
                if abs(a - b_) > 1e-12 * max(1.0, abs(b_)):
                    failures.append(f"M={m} zeta={zeta}: {a} vs {b_}")

    phases = {
        (2, 0.1): "broken", (2, 1.0): "broken", (4, 0.1): "broken", (4, 1.0): "broken",
        (3, 0.1): "unbroken", (3, 1.0): "broken",
    }
    for (m, zeta), expected in phases.items():
        got = pt_phase(m, zeta).phase.value
        if got != expected:
            failures.append(f"phase M={m} zeta={zeta}: {got} != {expected}")
    if ZETA_C_M3 != 0.5:
        failures.append(f"zeta_c(3) = {ZETA_C_M3}")
    report(6, "QES spectrum", not failures, "levels at 1e-12 vs root oracle; phases and zeta_c=0.5 exact"
           if not failures else "; ".join(failures))


def test_criterion_7_qualitative(map_runs):
    problems = []

    # (a) strictly alternating crossing directions
    for key, traj in map_runs.items():
        events = detect_axis_crossings(traj)
        if len(events) < 3:
            problems.append(f"{key}: only {len(events)} crossings")
        for a, b in zip(events, events[1:]):
            if a.direction is b.direction:
                problems.append(f"{key}: consecutive crossings in the same direction")
                break

    # (b) no self-intersection over >= 3 full tunneling cycles (7 visits)
    for key, traj in map_runs.items():
        episodes = anchor_episodes(traj)
        if len(episodes) < 7:
            problems.append(f"{key}: only {len(episodes)} well visits")
            continue
        n_cross = self_intersections(_head(traj, episodes[6][1] + 1))
        if n_cross != 0:
            problems.append(f"{key}: {n_cross} self-intersections")

    # (c) chirality: clockwise inward / anticlockwise outward for E2 > 0,
    #     reversed for E2 < 0
    def spiral_senses(traj):
        segs = dwell_segments(traj)
        senses = []
        for well, k, d in anchor_episodes(traj)[1:-1]:
            if d > 0.15:
                continue
            seg = next((s for s in segs if s.i_first <= k <= s.i_last), None)
            if seg is None:
                continue
            center = well_center(well, traj.params)
            inward, outward = spiral_windows(traj, seg, center)
            if len(inward) >= 10 and len(outward) >= 10:
                senses.append((spiral_chirality(inward, center), spiral_chirality(outward, center)))
        return senses

    plus = spiral_senses(map_runs[(0.1, 3)])
    p0 = initial_momentum(0j, 1 - 1j, MomentumBranch.PRINCIPAL, P_MAIN)
    minus_run = integrate(0j, p0, run_preset(1 - 1j, 150.0), P_MAIN)
    minus = spiral_senses(minus_run)
    if not plus or not minus:
        problems.append("chirality: no usable spiral windows")
    if any(s != (Chirality.CLOCKWISE, Chirality.ANTICLOCKWISE) for s in plus):
        problems.append(f"chirality E2>0: {plus}")
    if any(s != (Chirality.ANTICLOCKWISE, Chirality.CLOCKWISE) for s in minus):
        problems.append(f"chirality E2<0: {minus}")

    # (d) real energy never classifies as tunneling
    c = well_center(WellIndex(Side.LEFT, 0), P_MAIN)
    cfg = replace(PROBE_CONFIG, t_max=30.0)
    for offset in (0.2, 0.4740, 0.52, 0.54, 0.6):
        z0 = complex(c.real, c.imag + offset)
        p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, P_MAIN)
        traj = integrate(z0, p0, cfg, P_MAIN)
        kind = classify_orbit(traj).kind
        if kind is OrbitKind.TUNNELING:
            problems.append(f"real-energy offset {offset} classified tunneling")

    report(7, "qualitative observations", not problems,
           "alternation, zero self-crossings over 3 cycles, chirality senses, no real-energy tunneling"
           if not problems else "; ".join(problems))


def test_criterion_8_shift_rule(shift_run, map_runs, arbitration):
    left, right = tunnel_well_pair(shift_run)
    o_left, o_right = tunnel_well_pair(map_runs[(0.1, 3)])
    problems = []
    if (left.n, right.n) != SHIFT_PAIR:
        problems.append(f"got (left {left.n:+d}, right {right.n:+d}), expected {SHIFT_PAIR}")
    if right.n - left.n != o_right.n - o_left.n:
        problems.append(
            f"separation {right.n - left.n} differs from the origin pair's {o_right.n - o_left.n}"
        )
    problems += _arbitration_mismatches("shift", arbitration["shift_zeta0.1_M3"], shift_run, SHIFT_PAIR)
    detail = (
        f"start at left -2 -> pair (left {left.n:+d}, right {right.n:+d}), as in the 25-digit"
        f" arbitration; separation {right.n - left.n} as from the origin"
    )
    report(8, "initial-condition shift rule", not problems, "; ".join(problems) or detail)


def test_criterion_9_well_stationarity():
    mpmath = pytest.importorskip("mpmath")
    worst_v = worst_g = worst_ulps = 0.0
    worst_at = None
    with mpmath.workdps(40):
        for zeta in (0.1, 1.0):
            for m in (2, 3, 4, 5):
                params = SystemParams(zeta, m)
                mz = mpmath.mpf(params.zeta)
                xw = mpmath.asinh(m / mz) / 2
                for side in Side:
                    for n in range(-50, 51):
                        # the exact lattice point, for the double zeta
                        if side is Side.RIGHT:
                            z = mpmath.mpc(xw, (4 * n + 1) * mpmath.pi / 4)
                        else:
                            z = mpmath.mpc(-xw, (4 * n - 1) * mpmath.pi / 4)
                        bracket = mz * mpmath.cosh(2 * z) - mpmath.mpc(0, m)
                        worst_v = max(worst_v, float(abs(bracket * bracket)))
                        worst_g = max(worst_g, float(abs(4 * mz * mpmath.sinh(2 * z) * bracket)))
                        # well_center must round each coordinate correctly
                        c = well_center(WellIndex(side, n), params)
                        ulps = max(
                            float(abs(c.real - z.real)) / math.ulp(c.real),
                            float(abs(c.imag - z.imag)) / math.ulp(c.imag),
                        )
                        if ulps > worst_ulps:
                            worst_ulps = ulps
                            worst_at = (zeta, m, side.value, n)
    ok = worst_v <= 1e-12 and worst_g <= 1e-12 and worst_ulps <= 0.5
    detail = (
        f"exact lattice: max |V| {worst_v:.2e}, max |dV/dz| {worst_g:.2e}; "
        f"well_center within {worst_ulps:.5f} ulp (worst at {worst_at})"
    )
    report(9, "well-lattice stationarity", ok, detail)
