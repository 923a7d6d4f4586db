"""Workload inputs, one pass of each workload, and the checks on its outputs.

``run.py`` makes the inputs from the seed and starts this file once per pass
in a fresh interpreter, so that the peak resident memory a pass reports is
its own.  The pass reads its request as one JSON object on stdin and prints
its outcome as one JSON line on stdout:

    {"workload": ..., "inputs": {...}, "workers": 2, "trace": false}

Every operation (sweep row, boundary search, grid point, figure run) comes
back with ``ok`` and, when not ok, the reason.  A failing operation is
reported, never dropped or retried.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("tunnel_table", "boundary_search", "start_grid", "figure_files")

ZETA, M_INT = 0.1, 3

# The paper's tau table for E = 1 + i*E2, as the acceptance suite states it.
TABLE_TAU = {
    0.3: 54.19, 0.5: 32.42, 0.8: 20.1, 1.0: 15.99, 1.2: 13.14, 1.5: 10.42,
    1.7: 9.203, 2.0: 7.739, 2.2: 7.008, 2.5: 6.097, 2.7: 5.635, 3.0: 5.054,
    3.2: 4.745, 3.5: 4.329, 3.7: 4.058, 4.0: 3.76, 4.2: 3.601, 4.5: 3.355,
    4.7: 3.22, 5.0: 3.025, 5.2: 2.902, 5.5: 2.763, 5.7: 2.673, 6.0: 2.541,
    6.2: 2.47, 6.5: 2.375, 6.7: 2.313,
}
HEADLINE_E2 = (0.5, 1.0, 2.0, 4.0, 6.7)  # criterion 1: tau within 10 % of the table
E2_TAU_BAND = (14.5, 17.0)  # criterion 2, for every row

# A tunnel pass is [low row, floor row, floor row] on two workers.  Rows at
# the 200-unit horizon floor (E2 >= 3.2) all take 105k-109k steps; the low
# rows (horizon 640/E2) take 141k-175k, between one and two floor rows.  So
# one worker runs the low row while the other runs both floor rows, and the
# pass takes two floor rows whichever rows the seed picks.
LOW_E2 = (2.0, 2.2, 2.5)
FLOOR_E2 = tuple(e2 for e2 in TABLE_TAU if e2 >= 3.2)

BOUNDARY_ENERGY = 0.8
BOUNDARY_BAND = (0.525, 0.535)  # criterion 4; grid points inside it may be either class
WELL_N = range(-3, 4)

# Start-grid strata, one uniform offset per stratum and direction.  The
# closed side narrows towards the boundary, where a closed orbit's step
# count climbs from 13k (offset 0.30) to 77k (0.524), so that the seed moves
# a pass's total step count by a few percent only.  The band itself is not
# sampled: there the step count diverges at the separatrix, which would make
# the pass cost depend on the seed; the boundary_search workload covers it.
GRID_CLOSED_STRATA = ((0.30, 0.40), (0.40, 0.46), (0.46, 0.50), (0.50, 0.515), (0.515, 0.525))
GRID_OPEN_STRATA = ((0.535, 0.55), (0.55, 0.575), (0.575, 0.60), (0.60, 0.65), (0.65, 0.72), (0.72, 0.80))

# Host speed.  The machine's CPUs are shared with other tenants, and the
# share a pass gets drifts by up to twice over minutes; its wall time drifts
# with it.  While a pass runs, a SIGALRM handler times a fixed loop every
# SAMPLE_PERIOD_S, by the CPU time of the loop itself: time spent waiting
# for a CPU inside this machine does not count, time the host takes the CPU
# away does.  wall_s is the pass's wall time, less the samples' own, times
# the mean sampled speed: the wall time at the loop's reference speed.  The
# loop uses no ptwells code, so a change to the package cannot move it.
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERATIONS = 2000
REF_SAMPLE_S = 0.001  # CPU time of one sample on an uncontended core of a 2-vCPU Xeon VM

FIGURE_OFFSET = 0.4740
FIGURE_PERIOD = 0.548
FIGURE_PERIOD_RTOL = 0.005
FIGURE_PAIR = (-10, 10)


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tunnel_table":
        return {"e2": [rng.choice(LOW_E2), *rng.sample(FLOOR_E2, 2)]}
    if workload == "boundary_search":
        return {"n": rng.choice(WELL_N), "direction": rng.choice((1, -1))}
    if workload == "start_grid":
        points = []
        for direction in (1, -1):
            for lo, hi in GRID_CLOSED_STRATA + GRID_OPEN_STRATA:
                points.append({"n": rng.choice(WELL_N), "direction": direction, "offset": rng.uniform(lo, hi)})
        return {"points": points}
    if workload == "figure_files":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def _reference_loop() -> complex:
    acc = 0j
    for i in range(SAMPLE_ITERATIONS):
        x2, y2 = 1e-5 * i, 2e-5 * i
        acc += complex(math.cosh(x2) * math.cos(y2), math.sinh(x2) * math.sin(y2))
    return acc


class HostSpeed:
    """Samples the host's speed, relative to the reference, while a block runs.

    With ``each_cpu`` the samples visit the allowed CPUs in turn, for blocks
    whose work runs in other processes (the sweep pool, the import); the
    full CPU set is back before the handler returns, so that a process the
    block starts inherits it.  Otherwise they run where the block runs.
    """

    def __init__(self, each_cpu: bool = False) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if each_cpu else None
        self.speeds: list[float] = []
        self.cost_s = 0.0  # wall time the samples took

    def sample(self, signum=None, frame=None) -> None:
        w0 = time.perf_counter()
        if self.cpus:
            os.sched_setaffinity(0, {self.cpus[len(self.speeds) % len(self.cpus)]})
        try:
            c0 = time.thread_time()
            _reference_loop()
            self.speeds.append(REF_SAMPLE_S / (time.thread_time() - c0))
        finally:
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
        self.cost_s += time.perf_counter() - w0

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)


def _import_ptwells():
    """Import ptwells from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ptwells
    import ptwells.cli

    if Path(ptwells.__file__).resolve().parent != SRC / "ptwells":
        raise ImportError(f"ptwells imported from {ptwells.__file__}, not from {SRC}")
    return ptwells


def _op(name: str, ok: bool, why: str = "", **values) -> dict:
    return {"op": name, "ok": ok, "why": why, **values}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _op_scope(tracer):
    """``with scope(label):`` marks one operation in a traced pass."""
    return tracer.op if tracer is not None else (lambda label: contextlib.nullcontext())


def _probe_config(pt):
    # closed_orbit_boundary's own probe config (it is not exported)
    return pt.IntegratorConfig(
        t_max=15.0, escape_radius=25.0, escape_y_span=2.0 * math.pi, energy_drift_limit=0.05
    )


def pass_tunnel_table(pt, inputs: dict, workers: int, tracer, workdir: Path) -> list[dict]:
    params = pt.SystemParams(ZETA, M_INT)
    e2_list = inputs["e2"]
    if tracer is not None:
        # one row per call, in this process, so that every span lands here
        rows = []
        for e2 in e2_list:
            with tracer.op(f"row e2={e2}"):
                rows.append(pt.cli.cmd_sweep_e2(params, 1.0, [e2], workers=1)[0])
    else:
        rows = pt.cli.cmd_sweep_e2(params, 1.0, e2_list, workers=workers)
    ops = []
    for row in rows:
        e2, tau = row["e2"], row["tau"]
        name = f"row e2={e2}"
        if row["error"] or tau is None:
            ops.append(_op(name, False, f"error row: {row['error']}"))
            continue
        lo, hi = E2_TAU_BAND
        why = ""
        if not lo <= e2 * tau <= hi:
            why = f"E2*tau = {e2 * tau!r} outside [{lo}, {hi}]"
        elif e2 in HEADLINE_E2 and abs(tau - TABLE_TAU[e2]) > 0.10 * TABLE_TAU[e2]:
            why = f"tau = {tau!r} more than 10 % from the table's {TABLE_TAU[e2]}"
        ops.append(_op(name, not why, why, tau=tau, n_left=row["n_left"], n_right=row["n_right"]))
    return ops


def pass_boundary_search(pt, inputs: dict, workers: int, tracer, workdir: Path) -> list[dict]:
    params = pt.SystemParams(ZETA, M_INT)
    name = f"boundary left n={inputs['n']} direction={inputs['direction']:+d}"
    try:
        with _op_scope(tracer)(name):
            res = pt.analysis.closed_orbit_boundary(
                pt.wells.WellIndex(pt.wells.Side.LEFT, inputs["n"]),
                BOUNDARY_ENERGY,
                params,
                direction=inputs["direction"],
            )
    except pt.PtwellsError as exc:
        return [_op(name, False, _error(exc))]
    lo, hi = BOUNDARY_BAND
    why = "" if lo <= res.offset <= hi else f"offset {res.offset!r} outside [{lo}, {hi}]"
    return [_op(name, not why, why, offset=res.offset, probes=res.n_probes)]


def _grid_label(point: dict) -> str:
    return f"grid n={point['n']} direction={point['direction']:+d} offset={point['offset']!r}"


def pass_start_grid(pt, inputs: dict, workers: int, tracer, workdir: Path) -> list[dict]:
    params = pt.SystemParams(ZETA, M_INT)
    cfg = _probe_config(pt)
    scope = _op_scope(tracer)
    lo, hi = BOUNDARY_BAND
    kinds = []
    for point in inputs["points"]:
        try:
            with scope(_grid_label(point)):
                center = pt.wells.well_center(pt.wells.WellIndex(pt.wells.Side.LEFT, point["n"]), params)
                z0 = complex(center.real, center.imag + point["direction"] * point["offset"])
                p0 = pt.integrator.initial_momentum(
                    z0, complex(BOUNDARY_ENERGY), pt.integrator.MomentumBranch.PRINCIPAL, params
                )
                traj = pt.integrator.integrate(z0, p0, cfg, params)
                kinds.append(pt.analysis.classify_orbit(traj).kind)
        except pt.PtwellsError as exc:
            kinds.append(exc)
    ops = []
    for point, kind in zip(inputs["points"], kinds):
        name = _grid_label(point)
        if isinstance(kind, Exception):
            ops.append(_op(name, False, _error(kind)))
            continue
        expected = None
        if point["offset"] < lo:
            expected = pt.OrbitKind.CLOSED
        elif point["offset"] > hi:
            expected = pt.OrbitKind.OPEN_ESCAPE
        why = "" if expected in (None, kind) else f"classified {kind.value}, expected {expected.value}"
        ops.append(_op(name, not why, why, kind=kind.value))
    return ops


def _spiral_senses(pt, traj) -> list:
    """Inward and outward chirality of each well visit, as criterion 7 reads them."""
    an = pt.analysis
    segs = an.dwell_segments(traj)
    senses = []
    for well, k, d in an.anchor_episodes(traj)[1:-1]:
        if d > 0.15:
            continue
        seg = next((s for s in segs if s.i_first <= k <= s.i_last), None)
        if seg is None:
            continue
        center = pt.wells.well_center(well, traj.params)
        inward, outward = an.spiral_windows(traj, seg, center)
        if len(inward) >= 10 and len(outward) >= 10:
            senses.append((an.spiral_chirality(inward, center), an.spiral_chirality(outward, center)))
    return senses


def pass_figure_files(pt, inputs: dict, workers: int, tracer, workdir: Path) -> list[dict]:
    params = pt.SystemParams(ZETA, M_INT)
    cli = pt.cli
    center = pt.wells.well_center(pt.wells.WellIndex(pt.wells.Side.LEFT, 0), params)
    runs = {
        "closed": cli.RunConfig(
            params=params,
            energy=complex(BOUNDARY_ENERGY),
            start=f"point:{center.real!r},{center.imag + FIGURE_OFFSET!r}",
            branch=pt.integrator.MomentumBranch.PRINCIPAL,
            integrator=pt.IntegratorConfig(t_max=40.0),
        ),
        "tunneling": cli.RunConfig(
            params=params,
            energy=1 + 1j,
            start="origin",
            branch=pt.integrator.MomentumBranch.PRINCIPAL,
            integrator=pt.IntegratorConfig(
                t_max=150.0,
                energy_drift_limit=cli.TUNNELING_DRIFT_LIMIT,
                escape_radius=cli.TUNNELING_ESCAPE_RADIUS,
                max_steps=10_000_000,
            ),
        ),
    }
    # run_simulation returns only the summary; keep the trajectory it integrates
    captured = []
    integrate = cli.integrate

    def capture(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        captured.append(traj)
        return traj

    cli.integrate = capture
    scope = _op_scope(tracer)
    ops = []
    try:
        for name, config in runs.items():
            config = _with_paths(config, workdir / name)
            captured.clear()
            try:
                with scope(f"figure {name}"):
                    summary = cli.run_simulation(config)
                    if name == "tunneling":
                        traj = captured[-1]
                        pair = pt.analysis.tunnel_well_pair(traj)
                        crossings = pt.analysis.self_intersections(traj)
                        senses = _spiral_senses(pt, traj)
                if name == "closed":
                    ops.append(_check_closed(summary))
                else:
                    ops.append(_check_tunneling(pt, summary, pair, crossings, senses))
            except pt.PtwellsError as exc:
                ops.append(_op(f"figure {name}", False, _error(exc)))
            ops[-1]["bytes"] = sum(p.stat().st_size for p in workdir.glob(f"{name}.*"))
    finally:
        cli.integrate = integrate
    return ops


def _with_paths(config, stem: Path):
    return replace(
        config,
        trajectory_path=f"{stem}.csv",
        events_path=f"{stem}.jsonl",
        summary_path=f"{stem}.json",
    )


def _check_closed(summary: dict) -> dict:
    cls = summary["classification"]
    why = ""
    if cls["kind"] != "closed":
        why = f"classified {cls['kind']}, expected closed"
    elif abs(cls["period"] / FIGURE_PERIOD - 1.0) > FIGURE_PERIOD_RTOL:
        why = f"period {cls['period']!r}, expected {FIGURE_PERIOD} within {FIGURE_PERIOD_RTOL:.1%}"
    return _op("figure closed", not why, why, period=cls.get("period"), samples=summary["n_samples"])


def _check_tunneling(pt, summary: dict, pair: tuple, crossings: int, senses: list) -> dict:
    cls = summary["classification"]
    cw, acw = pt.Chirality.CLOCKWISE, pt.Chirality.ANTICLOCKWISE
    why = ""
    if cls["kind"] != "tunneling":
        why = f"classified {cls['kind']}, expected tunneling"
    elif (pair[0].n, pair[1].n) != FIGURE_PAIR:
        why = f"well pair ({pair[0].n}, {pair[1].n}), expected {FIGURE_PAIR}"
    elif crossings != 0:
        why = f"{crossings} self-crossings, expected none"
    elif not senses:
        why = "no usable spiral windows"
    elif any(s != (cw, acw) for s in senses):
        why = f"chirality {[(a.value, b.value) for a, b in senses]}, expected clockwise in / anticlockwise out"
    return _op(
        "figure tunneling", not why, why,
        tau=(summary["tunneling"] or {}).get("tau"), samples=summary["n_samples"],
        self_crossings=crossings, spirals=len(senses),
    )


PASSES = {
    "tunnel_table": pass_tunnel_table,
    "boundary_search": pass_boundary_search,
    "start_grid": pass_start_grid,
    "figure_files": pass_figure_files,
}


def run_pass(request: dict) -> dict:
    """Run one pass; time it, take its peak memory and check its outputs."""
    pt = _import_ptwells()
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer(pt)
        tracer.install()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    host = HostSpeed(each_cpu=request["workers"] > 1 and tracer is None)
    try:
        with host:
            t0 = time.perf_counter()
            ops = PASSES[request["workload"]](pt, request["inputs"], request["workers"], tracer, workdir)
            wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # getrusage reports only the largest reaped child: count it once per pool worker
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n_pool = request["workers"] if request["workload"] == "tunnel_table" and not tracer else 0
    out = {
        "wall_s": wall - host.cost_s,
        "speed": host.speed,
        "speed_samples": len(host.speeds),
        "peak_rss_mb": (own + n_pool * pool) / 1024.0,
        "ops": ops,
    }
    if tracer is not None:
        # layer self times keep the samples' time, so they add up to the raw wall
        out["trace"] = tracer.report(wall, bytes_written=sum(op.get("bytes", 0) for op in ops))
    return out


def main() -> None:
    request = json.load(sys.stdin)
    print(json.dumps(run_pass(request)))


if __name__ == "__main__":
    main()
