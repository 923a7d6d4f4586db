"""Spans around the layers' public functions, recorded from outside the package.

The tracer rebinds the module attributes through which the layers call each
other (``ptwells.cli.integrate``, ``ptwells.analysis.detect_axis_crossings``,
``ptwells.cli.write_trajectory_csv``, ...) to wrappers that record one span
per call: name, start, end, parent span and operation.  Spans stay in memory.
A span's self time is its duration minus that of its child spans; calls are
synchronous, so children never overlap.  Time inside a pass that no layer
span covers is the benchmark's own (layer ``bench``).

The integrator loop and its right-hand side are one function, so the
per-call cost of the physics kernel copies is measured by micro probes
instead, on states sampled from the trajectories the pass integrated.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> the ptwells modules whose attribute of that name is rebound.
# The original is the attribute of the module the span name starts with.
TARGETS = {
    "dynamics.hamiltonian": ("integrator",),
    "dynamics.potential": ("integrator",),
    "wells.well_center": ("analysis", "cli", "wells"),
    "wells.well_x": ("analysis",),
    "wells.nearest_well": ("analysis",),
    "integrator.initial_momentum": ("analysis", "cli", "integrator"),
    "integrator.integrate": ("analysis", "cli", "integrator"),
    "analysis.detect_axis_crossings": ("analysis", "cli"),
    "analysis.dwell_segments": ("analysis",),
    "analysis.measure_tunneling": ("cli",),
    "analysis.anchor_episodes": ("analysis",),
    "analysis.tunnel_well_pair": ("analysis",),
    "analysis.classify_orbit": ("analysis", "cli"),
    "analysis.closed_orbit_boundary": ("analysis", "cli"),
    "analysis.spiral_windows": ("analysis",),
    "analysis.spiral_chirality": ("analysis",),
    "analysis.self_intersections": ("analysis",),
    "cli.cmd_sweep_e2": ("cli",),
    "cli.run_simulation": ("cli",),
    "cli.write_trajectory_csv": ("cli",),
    "cli.write_events_jsonl": ("cli",),
}
LAYERS = ("dynamics", "wells", "integrator", "analysis", "cli", "bench")
OP_SPAN = "bench.op"
BOUNDARY_SPAN = "analysis.closed_orbit_boundary"
SAMPLES_PER_TRAJECTORY = 64
PROBE_STATES = 2048
PROBE_REPEATS = 7


class Tracer:
    def __init__(self, pt) -> None:
        self.pt = pt
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end, self time)
        self.stack: list[list] = []
        self.next_id = 0
        self.op_id = 0
        self.op_labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.max_drift = 0.0
        self.params = None  # of the last trajectory; every workload uses one
        self.states: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.saved: list[tuple[object, str, object]] = []

    # -- rebinding ---------------------------------------------------------
    def install(self) -> None:
        for name, modules in TARGETS.items():
            layer, attr = name.split(".")
            original = getattr(getattr(self.pt, layer), attr)
            wrapper = self._wrap(name, original)
            for mod_name in modules:
                mod = getattr(self.pt, mod_name)
                self.saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str) -> list:
        entry = [self.next_id, 0.0, name, time.perf_counter()]  # id, child time, name, start
        self.next_id += 1
        self.stack.append(entry)
        return entry

    def _exit(self, entry: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, child, name, start = entry
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += end - start
        self.spans.append((span_id, parent[0] if parent else None, self.op_id, name, start, end, end - start - child))

    def _call(self, name: str, fn, args, kwargs):
        entry = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[f"{name}.errors"] += 1
            raise
        finally:
            self._exit(entry)
        if name == "integrator.integrate":
            self._count_trajectory(result)
        return result

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation; every span inside it shares its op id."""
        self.op_id += 1
        self.op_labels[self.op_id] = label
        entry = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(entry)

    def _count_trajectory(self, traj) -> None:
        c = self.counts
        c["steps_accepted"] += traj.n_accepted
        c["steps_rejected"] += traj.n_rejected
        c["samples_retained"] += len(traj)
        c[f"term.{traj.termination.value}"] += 1
        c["integrated_time"] += float(traj.t[-1] - traj.t[0])
        self.max_drift = max(self.max_drift, traj.max_drift)
        self.params = traj.params
        if any(e[2] == BOUNDARY_SPAN for e in self.stack):
            c["boundary.probes"] += 1
            if traj.termination.value in ("drift_exceeded", "step_limit"):
                c["boundary.retries"] += 1
        idx = np.unique(np.linspace(0, len(traj) - 1, SAMPLES_PER_TRAJECTORY).astype(int))
        self.states.append((traj.t[idx], traj.z[idx], traj.p[idx]))

    # -- report ------------------------------------------------------------
    def report(self, wall: float, bytes_written: int) -> dict:
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for _, _, _, name, start, end, self_t in self.spans:
            agg = by_name[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_t
            layer_self[name.split(".")[0]] += self_t
        # pass time outside every span is the benchmark's own as well
        layer_self["bench"] += wall - sum(
            end - start for _, parent, _, _, start, end, _ in self.spans if parent is None
        )
        t0 = min((span[4] for span in self.spans), default=0.0)
        return {
            "wall_s": wall,
            "spans": len(self.spans),
            "span_cost_s": _span_cost(),
            "span_log": [
                (i, parent, self.op_labels.get(op), name, start - t0, end - t0)
                for i, parent, op, name, start, end, _ in self.spans
            ],
            "by_name": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in by_name.items()},
            "layer_self_s": layer_self,
            "counts": dict(self.counts),
            "max_drift": self.max_drift,
            "bytes_written": bytes_written,
            "sweep_rows_s": [end - start for _, _, _, name, start, end, _ in self.spans if name == "cli.cmd_sweep_e2"],
            "probes_ns": self.micro_probes(),
        }

    def micro_probes(self) -> dict:
        """ns per call of each physics-kernel copy, on the pass's own states."""
        pt = self.pt
        t = np.concatenate([s[0] for s in self.states])
        z = np.concatenate([s[1] for s in self.states])
        p = np.concatenate([s[2] for s in self.states])
        keep = np.unique(np.linspace(0, len(t) - 1, min(PROBE_STATES, len(t))).astype(int))
        t, z, p = t[keep], z[keep], p[keep]
        params = self.params
        zs = [complex(v) for v in z]
        phase_states = [pt.integrator.PhaseState(float(a), complex(b), complex(c)) for a, b, c in zip(t, z, p)]
        traj = pt.integrator.Trajectory(
            params=params, energy=1 + 1j, t=t, z=z, p=p, drift=np.zeros(len(t)),
            termination=pt.integrator.Termination.TIME_LIMIT,
        )
        derivative = pt.integrator.derivative
        gradient = pt.dynamics.potential_gradient
        nearest = pt.wells.nearest_well
        return {
            "integrator.derivative_ns": _ns_per_item(lambda: [derivative(s, params) for s in phase_states], len(zs)),
            "dynamics.potential_gradient_ns": _ns_per_item(lambda: [gradient(v, params) for v in zs], len(zs)),
            "integrator.energy_component_errors_ns_per_sample": _ns_per_item(traj.energy_component_errors, len(zs)),
            "wells.nearest_well_ns": _ns_per_item(lambda: [nearest(v, params) for v in zs], len(zs)),
            "states": len(zs),
        }


def _ns_per_item(fn, n: int) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1e9


def _span_cost() -> float:
    """Seconds one traced call adds: a wrapped no-op against the bare one."""

    def noop():
        return None

    traced = Tracer(None)._wrap("bench.noop", noop)
    n = 20_000
    bare_ns = _ns_per_item(lambda: [noop() for _ in range(n)], n)
    traced_ns = _ns_per_item(lambda: [traced() for _ in range(n)], n)
    return (traced_ns - bare_ns) * 1e-9
