#!/usr/bin/env python3
"""Benchmark of the ptwells package: four workloads, timed end to end or traced.

    python3 benchmarks/run.py --workload tunnel_table --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times untraced passes for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it times one untraced
pass, then traced passes for the rest of the time, and reports the
per-layer metrics.  Every pass of a run repeats the same inputs, made from
the seed.  Each pass runs in a fresh interpreter (see ``workloads.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit, and any failed operation.  The full record (per-pass values,
quartiles, failures, inputs and provenance) is appended to ``--out``.
See README.md for the metrics, the workloads and what is left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

SETUP_IMPORTS = 7
MIN_PASSES = 2  # so that wall_s is never a single pass
PASS_TIMEOUT_S = 150.0
DEFAULT_OUT = BENCH_DIR / "results" / "runs.jsonl"

ANALYSIS_FNS = (
    "classify_orbit",
    "detect_axis_crossings",
    "measure_tunneling",
    "tunnel_well_pair",
    "anchor_episodes",
    "self_intersections",
    "spiral_chirality",
    "closed_orbit_boundary",
)
TERMINATIONS = ("time_limit", "escaped", "drift_exceeded", "step_limit")
PROBES = (
    "integrator.derivative_ns",
    "dynamics.potential_gradient_ns",
    "integrator.energy_component_errors_ns_per_sample",
    "wells.nearest_well_ns",
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pass_workers(workload: str, inputs: dict) -> int:
    """Pool workers for the sweep: the CPUs this process may use, at most one per row."""
    if workload != "tunnel_table":
        return 0
    return min(len(os.sched_getaffinity(0)), len(inputs["e2"]))


def expected_ops(workload: str, inputs: dict) -> int:
    """Operations in one pass: sweep rows, grid points, figure runs or the one search."""
    if workload == "tunnel_table":
        return len(inputs["e2"])
    if workload == "start_grid":
        return len(inputs["points"])
    return 2 if workload == "figure_files" else 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], float]:
    """Fresh-interpreter ``import ptwells`` (numpy included), after one warm-up.

    Returns the raw times and the mean host speed while they ran.
    """
    cmd = [sys.executable, "-c", "import ptwells"]
    env = child_env()
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # byte-compiles a fresh checkout
    times = []
    with workloads.HostSpeed(each_cpu=True) as host:
        for _ in range(SETUP_IMPORTS):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, cwd=ROOT)
            times.append(time.perf_counter() - t0)
    return times, host.speed


def run_pass(request: dict, timeout: float) -> dict:
    """One pass in a fresh interpreter; the whole process group dies on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"pass exceeded {timeout:.0f} s and was killed"}
    except BaseException:  # interrupted: take the pass and its pool down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        return {"crash": f"pass exited {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(out.strip().splitlines()[-1])


def timed_passes(request: dict, seconds: float, started: float, at_least: int) -> list[dict]:
    """At least ``at_least`` passes, then more until the next would end after ``seconds``."""
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(run_pass(request, PASS_TIMEOUT_S))
        durations.append(time.perf_counter() - t0)
        if "crash" in results[-1]:
            break
        if len(results) >= at_least and time.perf_counter() - started + statistics.median(durations) > seconds:
            break
    return results


def tally(workload: str, inputs: dict, results: list[dict]) -> tuple[int, list[dict]]:
    """Operations attempted over all passes, and the ones that failed."""
    attempted, failures = 0, []
    for i, res in enumerate(results):
        if "crash" in res:
            n = expected_ops(workload, inputs)
            attempted += n
            failures.append({"pass": i, "op": f"all {n} operations of the pass", "why": res["crash"]})
            continue
        attempted += len(res["ops"])
        failures += [{"pass": i, "op": op["op"], "why": op["why"]} for op in res["ops"] if not op["ok"]]
    return attempted, failures


def end_to_end(results: list[dict], setup: list[float], setup_speed: float, attempted: int, failed: int) -> dict:
    """Times at the reference speed (see workloads.HostSpeed), memory, and the success share."""
    ok = [r for r in results if "crash" not in r]
    metrics = {"setup_s": (statistics.median(setup) * setup_speed, "s")}
    if ok:
        metrics["wall_s"] = (statistics.median(r["wall_s"] * r["speed"] for r in ok), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in ok), "MB")
    metrics["ok_frac"] = ((attempted - failed) / attempted, "fraction")
    return metrics


def per_layer(workload: str, untraced: list[dict], traced: list[dict], workers: int) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    traces = [r["trace"] for r in traced if "crash" not in r]
    walls = [r["wall_s"] for r in untraced if "crash" not in r]
    if not traces or not walls:
        return {}
    first = traces[0]
    c = first["counts"]

    def med(get) -> float:
        return statistics.median(get(t) for t in traces)

    def self_s(name: str):
        return med(lambda t: t["by_name"].get(name, {}).get("self_s", 0.0))

    def calls(name: str) -> int:
        return first["by_name"].get(name, {}).get("calls", 0)

    acc, rej = c.get("steps_accepted", 0), c.get("steps_rejected", 0)
    n_int = calls("integrator.integrate")
    busy = self_s("integrator.integrate")
    untraced_wall = statistics.median(walls)
    traced_wall = med(lambda t: t["wall_s"])
    # both at the reference host speed, so that host contention drops out of the ratio
    untraced_ref = statistics.median(r["wall_s"] * r["speed"] for r in untraced if "crash" not in r)
    traced_ref = statistics.median(r["wall_s"] * r["speed"] for r in traced if "crash" not in r)
    m = {
        "integrator.calls": (n_int, "count"),
        "integrator.steps_accepted": (acc, "count"),
        "integrator.steps_rejected": (rej, "count"),
        "integrator.accept_ratio": (acc / (acc + rej) if acc + rej else 0.0, "fraction"),
        "integrator.steps_per_time_unit": (acc / c["integrated_time"] if c.get("integrated_time") else 0.0, "1/time"),
        "integrator.busy_s": (busy, "s"),
        "integrator.us_per_step": (busy / (acc + rej) * 1e6 if acc + rej else 0.0, "us"),
        "integrator.rhs_evals": (6 * (acc + rej) + n_int, "count"),
        "integrator.samples_retained": (c.get("samples_retained", 0), "count"),
    }
    for term in TERMINATIONS:
        m[f"integrator.term.{term}"] = (c.get(f"term.{term}", 0), "count")
    m["integrator.max_drift"] = (first["max_drift"], "relative")
    m["integrator.errors"] = (c.get("integrator.integrate.errors", 0), "count")
    for probe in PROBES:
        m[probe] = (med(lambda t: t["probes_ns"][probe]), "ns")
    for fn in ANALYSIS_FNS:
        m[f"analysis.{fn}.calls"] = (calls(f"analysis.{fn}"), "count")
        m[f"analysis.{fn}.self_s"] = (self_s(f"analysis.{fn}"), "s")
    probes, retries = c.get("boundary.probes", 0), c.get("boundary.retries", 0)
    m["analysis.boundary.probes"] = (probes, "count")
    m["analysis.boundary.retries"] = (retries, "count")
    m["analysis.boundary.useful_probe_ratio"] = ((probes - retries) / probes if probes else 0.0, "fraction")
    m["cli.run_simulation.self_s"] = (self_s("cli.run_simulation"), "s")
    m["cli.write_trajectory_csv.self_s"] = (self_s("cli.write_trajectory_csv"), "s")
    m["cli.write_events_jsonl.self_s"] = (self_s("cli.write_events_jsonl"), "s")
    m["cli.bytes_written"] = (first["bytes_written"], "B")
    rows = [med(lambda t: t["sweep_rows_s"][i]) for i in range(len(first["sweep_rows_s"]))]
    m["cli.pool.workers"] = (workers, "count")
    m["cli.pool.row_max_s"] = (max(rows, default=0.0), "s")
    m["cli.pool.row_sum_s"] = (sum(rows), "s")
    m["cli.pool.efficiency"] = (sum(rows) / (workers * untraced_wall) if workers else 0.0, "fraction")
    for layer in ("dynamics", "wells", "integrator", "analysis", "cli", "bench"):
        m[f"layer.{layer}.self_s"] = (med(lambda t: t["layer_self_s"][layer]), "s")
    m["trace.spans"] = (first["spans"], "count")
    m["trace.overhead_s"] = (med(lambda t: t["spans"] * t["span_cost_s"]), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.wall_ratio"] = (traced_ref / untraced_ref, "ratio")
    return m


def provenance(workers: int) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True, check=True
                ).stdout.strip()
            )
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptwells").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pool_workers": workers,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON-lines file the run record is appended to")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ptwells" / "__init__.py").is_file():
        print(f"error: no ptwells sources under {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    workers = pass_workers(args.workload, inputs)
    request = {"workload": args.workload, "inputs": inputs, "workers": workers, "trace": False}
    untraced, traced, setup, setup_speed = [], [], [], None
    if args.trace:
        started = time.perf_counter()
        untraced = timed_passes(request, 0.0, started, at_least=1)
        traced = timed_passes({**request, "trace": True}, args.seconds, started, at_least=1)
    else:
        setup, setup_speed = measure_setup()
        started = time.perf_counter()
        untraced = timed_passes(request, args.seconds, started, at_least=MIN_PASSES)
    results = untraced + traced
    attempted, failures = tally(args.workload, inputs, results)

    if args.trace:
        metrics = per_layer(args.workload, untraced, traced, workers)
    else:
        metrics = end_to_end(untraced, setup, setup_speed, attempted, len(failures))
    correct = not failures and bool(metrics)

    walls = [r["wall_s"] for r in untraced if "crash" not in r]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "untraced_wall_s": walls,
        "untraced_wall_s_quartiles": quartiles(walls) if walls else None,
        "untraced_speed": [r["speed"] for r in untraced if "crash" not in r],
        "peak_rss_mb_passes": [r["peak_rss_mb"] for r in untraced if "crash" not in r],
        "setup_s_raw": setup,
        "setup_speed": setup_speed,
        "traced_wall_s": [r["wall_s"] for r in traced if "crash" not in r],
        "traced_counts_repeat": len(
            {json.dumps(r["trace"]["counts"], sort_keys=True) for r in traced if "crash" not in r}
        ) <= 1,
        "ops": [r.get("ops") for r in results],
        "inputs": inputs,
        "provenance": provenance(workers),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        spans = [r["trace"]["span_log"] for r in traced if "crash" not in r]
        spans_path = args.out.parent / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "passes": spans}))

    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    if walls:
        q1, q2, q3 = quartiles(walls)
        speed = statistics.median(r["speed"] for r in untraced if "crash" not in r)
        print(f"# {len(walls)} untraced passes: raw wall median {q2:.4g} s, quartiles {q1:.4g} / {q3:.4g} s;"
              f" host speed {speed:.3g} of the reference")
    for f in failures:
        print(f"# FAILED pass {f['pass']}: {f['op']}: {f['why']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
