"""Command-line drivers: single runs, dwell-time sweeps, boundary search.

Subcommands: ``simulate``, ``sweep-e2``, ``threshold``, ``wells``,
``spectrum``.  Complex numbers on the command line use the literal form
``a+bi`` with decimal reals (e.g. ``1+1i``, ``0.8``, ``-2.5i``).  A JSON
config file (``--config``) may supply any flag value; explicit flags win.
Its keys are the flag names with underscores for hyphens and ``m`` for
``--M`` (``t_max``, ``summary_out``); an unknown key is a config error,
and each value is converted and checked as its flag's value is.
Every run integrates on ``analysis.run_preset`` of its energy: ``simulate``,
each ``sweep-e2`` row and the two ``threshold`` probes.  The one integrator
setting is ``--t-max`` (key ``t_max``) of ``simulate`` and ``sweep-e2``, which
replaces the preset's horizon; ``threshold`` has none.

Exit codes: 0 success, 1 usage, config or output-file error, 2 numerical
failure, 3 ambiguous classification.

Numeric output uses shortest round-trip decimal formatting (a trajectory CSV block
formats each distinct energy-error value once), so identical configs produce
byte-identical files.

``sweep-e2`` rows and the 4096-row blocks of a trajectory CSV run through one
helper, ``_pool_map``: one worker process per job, at most one per usable
CPU, and no pool for one job or one CPU.  The pool takes the platform's
default start method; under spawn or forkserver (Python 3.14's default on
Linux) each pool start pays an import of the package per worker.  A sweep
row is worth that import, a CSV block is not: the blocks use the pool only
where it forks (the default start method is fork and this process is not
daemonic) and for at least three blocks, and are formatted in process
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import multiprocessing
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    CrossingEvent,
    OrbitClass,
    OrbitKind,
    classify_orbit,
    closed_orbit_boundary,
    detect_axis_crossings,
    measure_tunneling,
    run_preset,
)
from .dynamics import SystemParams, _require_finite
from .errors import (
    AmbiguousOrbitError,
    BracketingError,
    DomainError,
    InsufficientCrossingsError,
    NonFiniteStateError,
    PtwellsError,
    UnsupportedOrderError,
)
from .integrator import (
    IntegratorConfig,
    MomentumBranch,
    Termination,
    Trajectory,
    initial_momentum,
    integrate,
)
from .spectrum import pt_phase, qes_levels
from .wells import Side, WellIndex, well_center

__all__ = ["main", "RunConfig", "parse_complex", "run_preset", "cmd_sweep_e2"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_AMBIGUOUS = 3

TUNNELING_DRIFT_LIMIT = IntegratorConfig.energy_drift_limit  # read by the benchmark
TUNNELING_ESCAPE_RADIUS = IntegratorConfig.escape_radius  # read by the benchmark


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` literals: '1+1i', '0.8', '-2.5i', '3.2e-1-0.4i'.

    The trailing ``i`` becomes Python's ``j`` and ``complex()`` reads the
    rest; a literal that already holds a ``j`` is refused.
    """
    s = text.strip().replace(" ", "")
    if "j" in s.lower():
        raise DomainError(f"bad complex literal {text!r}")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise DomainError(f"bad complex literal {text!r}") from exc


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    energy: complex
    start: str  # 'origin', 'well:<side>,<n>', or 'point:<re>,<im>'
    branch: MomentumBranch
    integrator: IntegratorConfig
    trajectory_path: str | None = None
    events_path: str | None = None
    summary_path: str | None = None


def _resolve_start(spec: str, params: SystemParams) -> complex:
    s = spec.strip().lower()
    if s == "origin":
        return 0j
    if s.startswith("well:"):
        try:
            side_s, n_s = s[5:].split(",")
            side = Side(side_s.strip())
            return well_center(WellIndex(side, int(n_s)), params)
        except (ValueError, KeyError) as exc:
            raise DomainError(f"bad start spec {spec!r} (want well:<left|right>,<n>)") from exc
    if s.startswith("point:"):
        try:
            re_s, im_s = s[6:].split(",")
            return complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise DomainError(f"bad start spec {spec!r} (want point:<re>,<im>)") from exc
    raise DomainError(f"bad start spec {spec!r}")


def _well_label(idx: WellIndex) -> dict:
    return {"side": idx.side.value, "n": idx.n}


def _classification_payload(oc: OrbitClass) -> dict:
    out: dict = {"kind": oc.kind.value}
    if oc.kind is OrbitKind.CLOSED:
        out["period"] = oc.period
        out["anchor"] = _well_label(oc.anchor)
    elif oc.kind is OrbitKind.OPEN_ESCAPE:
        out["escape_side"] = oc.escape_side.value
    elif oc.kind is OrbitKind.TUNNELING:
        out["wells"] = {"left": _well_label(oc.wells[0]), "right": _well_label(oc.wells[1])}
    return out


def _csv_rows(cols: tuple) -> str:
    """The trajectory CSV rows of one block of columns, each value its shortest round-trip repr;
    the error columns' few values (H - E is exact) are formatted once per distinct bit pattern."""
    rows = zip(*(c.tolist() for c in cols[:5]), *map(_distinct_reprs, cols[5:]))
    return "".join(f"{t!r},{x!r},{y!r},{u!r},{v!r},{e},{f}\n" for t, x, y, u, v, e, f in rows)


def _distinct_reprs(col) -> list[str]:  # keyed on bits, so -0.0 stays apart from 0.0
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)[inverse].tolist()


# A forked pool pays from about 13,000 rows, so it starts at three blocks: on two CPUs the
# tunneling figure's head took 31.5 / 29.7 ms pooled / in process at 8,192 rows, 45.5 / 43.5
# at 12,288, 45.4 / 46.0 at 13,312 and 52.1 / 59.5 at 16,353 (medians of 51, 2-vCPU x86-64).
_CSV_BLOCK_ROWS = 4096
_CSV_POOL_ROWS = 3 * _CSV_BLOCK_ROWS


def _forks_workers() -> bool:
    """Whether a pool started here forks its workers: the default start method is
    fork, and this process is not daemonic (a daemon may have no children)."""
    method = multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
    return method == "fork" and not multiprocessing.current_process().daemon


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the samples as CSV: the header, then blocks of 4096 rows in order.

    Float ``repr`` is most of the cost: ``_csv_rows`` formats each distinct error value
    of a block once, and ``_pool_map`` formats the blocks, one worker per block up to the
    usable CPUs, for at least three blocks and where a pool forks; otherwise in this
    process.  Each block is written as it arrives.  The bytes do not depend on the workers.
    """
    err1, err2 = traj.energy_component_errors()
    cols = (traj.t, traj.z.real, traj.z.imag, traj.p.real, traj.p.imag, err1, err2)
    n = _CSV_BLOCK_ROWS
    blocks = [tuple(c[i : i + n] for c in cols) for i in range(0, len(traj), n)]
    pooled = len(traj) >= _CSV_POOL_ROWS and _forks_workers()
    with open(path, "w") as fh:
        fh.write("t,re_z,im_z,re_p,im_p,e1_err,e2_err\n")
        fh.writelines(_pool_map(_csv_rows, blocks, None if pooled else 1))


def write_events_jsonl(crossings: list[CrossingEvent], oc: OrbitClass, path: str) -> None:
    with open(path, "w") as fh:
        for ev in crossings:
            crossing = {"type": "crossing", "t": ev.t_cross, "y": ev.y_at_cross, "dir": ev.direction.value}
            fh.write(json.dumps(crossing) + "\n")
        fh.write(json.dumps({"type": "classification", **_classification_payload(oc)}) + "\n")


def run_simulation(config: RunConfig) -> dict:
    """Integrate, classify, and measure one run; returns the summary dict.

    Raises the underlying package error when the run cannot be analyzed.
    """
    z0 = _resolve_start(config.start, config.params)
    p0 = initial_momentum(z0, config.energy, config.branch, config.params)
    traj = integrate(z0, p0, config.integrator, config.params)
    crossings = detect_axis_crossings(traj)

    try:
        oc = classify_orbit(traj, crossings)
    except AmbiguousOrbitError:
        if traj.termination in (Termination.DRIFT_EXCEEDED, Termination.STEP_LIMIT):
            raise NonFiniteStateError(
                f"run ended by {traj.termination.value} at t={traj.t[-1]:.6g} "
                "before any orbit class emerged"
            ) from None
        raise

    summary: dict = {
        "zeta": config.params.zeta,
        "m": config.params.m_int,
        "energy": {"re": config.energy.real, "im": config.energy.imag},
        "start": config.start,
        "branch": config.branch.value,
        "classification": _classification_payload(oc),
        "tunneling": None,
        "termination": traj.termination.value,
        "max_drift": traj.max_drift,
        "drift_floor_rss": traj.drift_floor_rss,
        "t_final": float(traj.t[-1]),
        "n_samples": len(traj),
    }
    if oc.kind is OrbitKind.TUNNELING:
        stats = measure_tunneling(traj, crossings)
        summary["tunneling"] = {
            "tau": stats.tunneling_time,
            "dwell_left": stats.dwell_left_mean,
            "dwell_right": stats.dwell_right_mean,
            "n_cycles": stats.n_cycles,
        }

    if config.trajectory_path:
        write_trajectory_csv(traj, config.trajectory_path)
    if config.events_path:
        write_events_jsonl(crossings, oc, config.events_path)
    if config.summary_path:
        with open(config.summary_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return summary


def _sweep_row(config: RunConfig) -> dict:
    """Worker for one sweep row, the run of ``config`` at E2 = Im E; never raises, reports failures in 'error'."""
    row = dict.fromkeys(("e2", "tau", "dwell_left", "dwell_right", "n_left", "n_right", "error"))
    row.update(e2=config.energy.imag, error="", max_drift=None, drift_floor_rss=None, termination=None)
    try:
        summary = run_simulation(config)
        row.update((key, summary[key]) for key in ("max_drift", "drift_floor_rss", "termination"))
        kind = summary["classification"]["kind"]
        if kind != OrbitKind.TUNNELING.value:
            row["error"] = f"classified {kind}, not tunneling"
            return row
        row.update((key, summary["tunneling"][key]) for key in ("tau", "dwell_left", "dwell_right"))
        wells = summary["classification"]["wells"]
        row["n_left"], row["n_right"] = wells["left"]["n"], wells["right"]["n"]
    except PtwellsError as exc:
        row["error"] = str(exc)
    return row


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, jobs: list, workers: int | None = None) -> Iterator:
    """``fn(job)`` for each job, yielded in order: in this process for one worker or one
    job, else on a pool of ``workers``, by default the usable CPUs, and at most one per job."""
    workers = min(len(jobs), _usable_cpus() if workers is None else workers)
    if workers <= 1:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs)


def cmd_sweep_e2(
    params: SystemParams,
    e1: float,
    e2_list: list[float],
    t_max: float | None = None,
    out_path: str | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Run one tunneling measurement per E2, concurrently, in input order.

    Each row integrates with the ``run_preset`` of its own energy, up to
    ``t_max`` when given, else to that preset's horizon.  ``workers``, at least 1,
    defaults to one per row, at most one per CPU the process may run on.
    """
    if not e2_list:
        raise DomainError("empty E2 list")
    energies = [complex(e1, e2) for e2 in e2_list]
    for energy in energies:  # before the sign test, which a nan fails too
        _require_finite(energy, "energy")
    if 0.0 in e2_list:
        raise DomainError("E2 = 0 is not a tunneling energy: every E2 must be nonzero")
    if not (all(e2 > 0 for e2 in e2_list) or all(e2 < 0 for e2 in e2_list)):
        raise DomainError("E2 values must all have the same sign")
    if workers is not None and workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    jobs = [RunConfig(params, e, "origin", MomentumBranch.PRINCIPAL, run_preset(e, t_max)) for e in energies]
    rows = list(_pool_map(_sweep_row, jobs, workers))
    if out_path:
        write_sweep_csv(rows, out_path)
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("e2,tau,dwell_left,dwell_right,n_left,n_right,error\n")
        out = csv.writer(fh, lineterminator="\n")  # quotes a cell only if it holds a comma, quote or newline
        for r in rows:
            cells = [fmt(r["e2"])]
            for key in ("tau", "dwell_left", "dwell_right"):
                cells.append("" if r[key] is None else fmt(r[key]))
            for key in ("n_left", "n_right"):
                cells.append("" if r[key] is None else str(r[key]))
            cells.append(r["error"])
            out.writerow(cells)


def write_wells_csv(params: SystemParams, n_min: int, n_max: int, fh) -> None:
    fh.write("side,n,x,y\n")
    for side in (Side.RIGHT, Side.LEFT):
        for n in range(n_min, n_max + 1):
            c = well_center(WellIndex(side, n), params)
            fh.write(f"{side.value},{n},{fmt(c.real)},{fmt(c.imag)}\n")


def write_spectrum_csv(m_int: int, zeta: float, fh) -> str:
    levels = qes_levels(m_int, zeta)
    fh.write("label,re_E,im_E,is_real\n")
    for lv in levels:
        fh.write(f"{lv.label},{fmt(lv.energy.real)},{fmt(lv.energy.imag)},{str(lv.is_real).lower()}\n")
    report = pt_phase(m_int, zeta)
    zc = "none" if report.zeta_critical is None else fmt(report.zeta_critical)
    return f"phase={report.phase.value} zeta_c={zc}"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config(path: str, p: argparse.ArgumentParser) -> dict:
    """The JSON object in ``path`` as values of the flags of subcommand ``p``.

    Every key must be the destination of one of ``p``'s flags.  Each value
    is converted by that flag's ``type`` and checked against its
    ``choices``, as the flag's own value would be; one without a type takes a string (``e2`` also a list).
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config {path!r} must hold a JSON object")
    flags = {a.dest: a for a in p._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise DomainError(
            f"config {path!r}: unknown key(s) {', '.join(map(repr, unknown))}; known: {', '.join(sorted(flags))}"
        )
    values = {}
    for key, raw in data.items():
        flag = flags[key]
        if flag.type is None and not (isinstance(raw, str) or key == "e2" and isinstance(raw, list)):
            raise DomainError(f"bad {key} {raw!r}")
        try:
            value = raw if flag.type is None else flag.type(str(raw))
        except ValueError as exc:
            raise DomainError(f"bad {key} {raw!r}") from exc
        if flag.choices is not None and value not in flag.choices:
            raise DomainError(f"bad {key} {raw!r}")
        values[key] = value
    return values


def _e2_list(raw) -> list[float]:
    """Numbers from a comma-separated string or a JSON list; anything else is a config error."""
    items = raw.split(",") if isinstance(raw, str) else raw
    try:
        if any(isinstance(v, bool) for v in items):  # float() would read JSON true as 1.0
            raise TypeError
        return [float(v) for v in items if str(v).strip()]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad e2 {raw!r}: want comma-separated numbers") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="ptwells", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags each group of subcommands shares; built per call, since a config file's
    # set_defaults writes into these action objects
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="JSON file with flag defaults")
    run.add_argument("--zeta", type=float)
    run.add_argument("--M", dest="m", type=int)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--zeta", type=float, required=True)
    table.add_argument("--M", dest="m", type=int, required=True)
    table.add_argument("--out")

    p_sim = sub.add_parser("simulate", parents=[run], help="integrate one run and classify its orbit")
    p_sim.add_argument("--e", type=str, help="complex energy, e.g. 1+1i")
    p_sim.add_argument("--start", type=str, default="origin", help="origin | well:<side>,<n> | point:<re>,<im>")
    p_sim.add_argument("--branch", choices=[b.value for b in MomentumBranch], default="principal")
    p_sim.add_argument("--trajectory-out", dest="trajectory_out")
    p_sim.add_argument("--events-out", dest="events_out")
    p_sim.add_argument("--summary-out", dest="summary_out")
    p_sim.add_argument("--t-max", dest="t_max", type=float, help="integration horizon (default: the preset's)")

    p_sweep = sub.add_parser("sweep-e2", parents=[run], help="tunneling time vs imaginary energy")
    p_sweep.add_argument("--e1", type=float, default=1.0)
    p_sweep.add_argument("--e2", help="comma-separated E2 values")
    p_sweep.add_argument("--out", help="sweep CSV path")
    p_sweep.add_argument("--workers", type=int)
    p_sweep.add_argument("--t-max", dest="t_max", type=float, help="integration horizon (default: each row's preset's)")

    p_thr = sub.add_parser("threshold", parents=[run], help="closed-orbit boundary offset for one well")
    p_thr.add_argument("--e", type=float, help="real energy")
    p_thr.add_argument("--side", choices=[s.value for s in Side], default="left")
    p_thr.add_argument("--n", type=int, default=0)
    p_thr.add_argument("--direction", type=int, choices=[1, -1], default=1)

    p_wells = sub.add_parser("wells", parents=[table], help="well lattice table as CSV")
    p_wells.add_argument("--n-min", dest="n_min", type=int, default=-10)
    p_wells.add_argument("--n-max", dest="n_max", type=int, default=10)

    sub.add_parser("spectrum", parents=[table], help="solvable levels and PT phase")

    args = parser.parse_args(argv)

    try:
        if getattr(args, "config", None):
            # the file's values become flag defaults, so a flag given on the command line still wins
            p_cmd = sub.choices[args.command]
            p_cmd.set_defaults(**_load_config(args.config, p_cmd))
            args = parser.parse_args(argv)
        return _dispatch(args)
    except (DomainError, UnsupportedOrderError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BracketingError as exc:
        print(f"bracket failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AmbiguousOrbitError as exc:
        print(f"ambiguous classification: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (NonFiniteStateError, InsufficientCrossingsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PtwellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output file that cannot be opened or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _require(args, energy_flag: str) -> None:
    """A run needs zeta, M and its energy, each from a flag or the config file."""
    if None in (args.zeta, args.m, getattr(args, energy_flag)):
        raise DomainError(f"{args.command} needs --zeta, --M and --{energy_flag} (flags or config file)")


def _dispatch(args) -> int:
    if args.command == "simulate":
        _require(args, "e")
        energy = parse_complex(args.e)
        config = RunConfig(
            params=SystemParams(args.zeta, args.m),
            energy=energy,
            start=args.start,
            branch=MomentumBranch(args.branch),
            integrator=run_preset(energy, args.t_max),
            trajectory_path=args.trajectory_out,
            events_path=args.events_out,
            summary_path=args.summary_out,
        )
        print(json.dumps(run_simulation(config)))
        return EXIT_OK

    if args.command == "sweep-e2":
        _require(args, "e2")
        params = SystemParams(args.zeta, args.m)
        rows = cmd_sweep_e2(params, args.e1, _e2_list(args.e2), args.t_max, args.out, workers=args.workers)
        failed = [r for r in rows if r["error"]]
        for r in rows:
            tau = "" if r["tau"] is None else f"{r['tau']:.6g}"
            print(f"e2={r['e2']:g} tau={tau} {r['error']}".rstrip())
        return EXIT_NUMERICAL if len(failed) == len(rows) else EXIT_OK

    if args.command == "threshold":
        _require(args, "e")
        res = closed_orbit_boundary(
            WellIndex(Side(args.side), args.n), args.e, SystemParams(args.zeta, args.m), direction=args.direction
        )
        result = {
            "side": args.side,
            "n": args.n,
            "direction": args.direction,
            "critical_offset": res.offset,
            "closed_offset": res.closed_offset,
            "open_offset": res.open_offset,
            "n_probes": res.n_probes,
        }
        print(json.dumps(result))
        return EXIT_OK

    if args.command == "wells":
        params = SystemParams(args.zeta, args.m)
        if args.n_min > args.n_max:
            raise DomainError(f"n-min {args.n_min} exceeds n-max {args.n_max}")
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            write_wells_csv(params, args.n_min, args.n_max, fh)
        return EXIT_OK

    if args.command == "spectrum":
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            phase_line = write_spectrum_csv(args.m, args.zeta, fh)
        print(phase_line)
        return EXIT_OK

    raise DomainError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
