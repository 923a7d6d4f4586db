import csv
import json
import multiprocessing
import pathlib
import runpy
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    DomainError,
    IntegratorConfig,
    MomentumBranch,
    Side,
    SystemParams,
    WellIndex,
    analysis,
    cli,
    well_center,
)
from ptwells.analysis import BOUNDARY_WIDTH, default_t_max
from ptwells.cli import (
    EXIT_AMBIGUOUS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    cmd_sweep_e2,
    fmt,
    main,
    parse_complex,
    run_preset,
)
from ptwells.dynamics import chart_coefficients
from ptwells.integrator import chart_invariants, real_period

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLOSED_START = "point:-2.047311112165265,-0.3113981633974483"  # 0.474 above left n=0
SEPARATRIX_START = "point:-2.047311112165265,-0.2556981633974483"  # 0.5297 above left n=0
COMMANDS = ("simulate", "sweep-e2", "threshold")  # the subcommands that read a config file
# the integrator flags that simulate and sweep-e2 no longer take, each with a value
REMOVED_FLAGS = {
    "--rel-tol": "1e-10",
    "--abs-tol": "1e-12",
    "--max-steps": "100",
    "--energy-drift-limit": "1e-3",
    "--escape-radius": "12",
}


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1+1i", 1 + 1j),
            ("0.8", 0.8 + 0j),
            ("-2.5i", -2.5j),
            ("1-0.3i", 1 - 0.3j),
            ("i", 1j),
            ("-i", -1j),
            ("3.2e-1-0.4i", 0.32 - 0.4j),
            ("2i", 2j),
            ("-7.99+0.4i", -7.99 + 0.4j),
        ],
    )
    def test_literals(self, text, value):
        assert parse_complex(text) == pytest.approx(value)

    @pytest.mark.parametrize("text", ["", "abc", "1+2j+3", "++i", "e5i", "1..2i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(DomainError):
            parse_complex(text)


class TestDefaults:
    def test_t_max_heuristic(self):
        assert default_t_max(1 + 1j) == pytest.approx(640.0)
        assert default_t_max(1 + 0.5j) == pytest.approx(1280.0)
        assert default_t_max(1 + 6.7j) == pytest.approx(200.0)
        assert default_t_max(0.8 + 0j) == pytest.approx(200.0)


class TestWellsCommand:
    def test_csv_golden(self, capsys):
        assert main(["wells", "--zeta", "0.1", "--M", "3", "--n-min", "0", "--n-max", "0"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "side,n,x,y"
        assert out[1] == "right,0,2.047311112165265,0.7853981633974483"
        assert out[2] == "left,0,-2.047311112165265,-0.7853981633974483"

    def test_bad_range(self, capsys):
        assert main(["wells", "--zeta", "0.1", "--M", "3", "--n-min", "2", "--n-max", "1"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "args,phase_line",
    [
        (["wells", "--zeta", "0.1", "--M", "3", "--n-min", "-2", "--n-max", "2"], ""),
        (["spectrum", "--zeta", "0.1", "--M", "3"], "phase=unbroken zeta_c=0.5\n"),
    ],
    ids=["wells", "spectrum"],
)
def test_table_bytes_are_the_same_on_stdout_and_in_out(args, phase_line, tmp_path, capsys):
    # the table goes to stdout, or to --out; spectrum's phase line goes to stdout either way
    assert main(args) == EXIT_OK
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == phase_line
    assert out.read_bytes() + phase_line.encode() == stdout.encode()


class TestSpectrumCommand:
    def test_csv_and_phase_line(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        assert main(["spectrum", "--zeta", "0.1", "--M", "3", "--out", str(out_path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "phase=unbroken zeta_c=0.5"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "label,re_E,im_E,is_real"
        assert lines[1].startswith("E+,7.9697958971132")
        assert lines[3] == "E0,4.99,0.0,true"

    def test_unsupported_m(self, capsys):
        assert main(["spectrum", "--zeta", "0.1", "--M", "5"]) == EXIT_USAGE


class TestSimulateCommand:
    def test_closed_run_outputs(self, tmp_path, capsys):
        args = [
            "simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8",
            "--start", CLOSED_START, "--t-max", "20",
            "--trajectory-out", str(tmp_path / "traj.csv"),
            "--events-out", str(tmp_path / "events.jsonl"),
            "--summary-out", str(tmp_path / "summary.json"),
        ]
        assert main(args) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["classification"]["kind"] == "closed"
        assert summary["classification"]["anchor"] == {"side": "left", "n": 0}
        assert summary["max_drift"] <= 1e-8
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        assert header == "t,re_z,im_z,re_p,im_p,e1_err,e2_err"
        events = [json.loads(l) for l in (tmp_path / "events.jsonl").read_text().splitlines()]
        assert events[-1]["type"] == "classification"
        assert all(e["type"] == "crossing" for e in events[:-1])

    def test_deterministic_output(self, tmp_path, capsys):
        files = []
        for tag in ("a", "b"):
            args = [
                "simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8",
                "--start", CLOSED_START, "--t-max", "10",
                "--trajectory-out", str(tmp_path / f"traj_{tag}.csv"),
            ]
            assert main(args) == EXIT_OK
            files.append((tmp_path / f"traj_{tag}.csv").read_bytes())
        assert files[0] == files[1]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {
            "zeta": 0.1, "m": 3, "e": "0.8", "start": CLOSED_START,
            "t_max": 999.0,
            "summary_out": str(tmp_path / "s.json"),
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path), "--t-max", "10"]) == EXIT_OK
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["t_final"] == 10.0

    def test_missing_args(self, capsys):
        assert main(["simulate", "--zeta", "0.1"]) == EXIT_USAGE

    def test_bad_complex(self, capsys):
        assert main(["simulate", "--zeta", "0.1", "--M", "3", "--e", "zzz"]) == EXIT_USAGE

    def test_ambiguous_exit(self, capsys):
        # too short to close, escape, or cross
        args = [
            "simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8",
            "--start", CLOSED_START, "--t-max", "0.2",
        ]
        assert main(args) == EXIT_AMBIGUOUS

    @pytest.mark.parametrize("x", ["200", "400"])
    def test_overflowing_start_is_a_numerical_failure(self, x, capsys):
        # at Re z = 200 cosh(2z) is finite but the potential overflows: the same
        # failure as at 400, where cosh overflows
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--start", f"point:{x},0.3", "--t-max", "1"]
        assert main(args) == EXIT_NUMERICAL
        assert "numerical failure: state overflow" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "y,code",
        [("-0.2556060188339804", EXIT_OK), ("-0.2556040188339804", EXIT_NUMERICAL)],
        ids=["3e-6_below_closed", "1e-6_below_drift_stop"],
    )
    def test_guard_stop_is_a_numerical_failure(self, y, code, capsys):
        # two starts above left well 0, 3e-6 and 1e-6 below the separatrix: the first
        # comes back closed at one period; the deeper whip of the second exceeds the
        # drift limit before any orbit class emerges
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8",
                "--start", f"point:-2.047311112165265,{y}", "--t-max", "2"]
        assert main(args) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            classification = json.loads(out)["classification"]
            assert classification["kind"] == "closed" and classification["period"] == 0.5481629113898281
        else:
            assert err.strip() == (
                "numerical failure: run ended by drift_exceeded at t=0.462336 before any orbit class emerged"
            )

    def test_open_start_escapes(self, capsys):
        # a real-energy open orbit keeps Re z bounded on its way down the well
        # column; it ends by leaving its start's cell
        c = well_center(WellIndex(Side.LEFT, 0), SystemParams(0.1, 3))
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--start", f"point:{c.real!r},{c.imag + 0.6!r}"]
        assert main(args) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["classification"] == {"kind": "open_escape", "escape_side": "left"}
        assert summary["termination"] == "escaped"

    def test_near_separatrix_start_is_closed(self, capsys):
        # 0.5297 above left n=0, 9.5e-5 inside the separatrix: closed, on the preset's guards
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--start", SEPARATRIX_START]
        assert main(args) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["classification"]["kind"] == "closed" and summary["termination"] == "time_limit"
        omega_r = real_period(*chart_invariants(chart_coefficients(SystemParams(0.1, 3), 0.8 + 0j)))
        assert abs(summary["classification"]["period"] - omega_r) <= 1e-14

    def test_summary_printed(self, capsys):
        args = [
            "simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8",
            "--start", CLOSED_START, "--t-max", "10",
        ]
        assert main(args) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["branch"] == "principal"
        assert summary["termination"] == "time_limit"

    @pytest.mark.parametrize("energy", ["0.8", "1+1i"])
    def test_runs_its_preset(self, energy, monkeypatch, capsys):
        # the run's preset, with its horizon replaced only when --t-max is given
        seen = _record_runs(monkeypatch)
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", energy]
        assert main(args) == EXIT_OK
        assert main([*args, "--t-max", "7"]) == EXIT_OK
        preset = run_preset(parse_complex(energy))
        assert seen == [preset, replace(preset, t_max=7.0)]


class TestTrajectoryCsv:
    @pytest.mark.parametrize("fixture", ["fig_closed", "fig_tunneling"])
    def test_bytes_equal_the_per_cell_loop(self, fixture, request, tmp_path):
        traj = request.getfixturevalue(fixture)
        # the reference: one fmt call per cell, on numpy scalars
        err1, err2 = traj.energy_component_errors()
        ref = ["t,re_z,im_z,re_p,im_p,e1_err,e2_err\n"]
        for i in range(len(traj)):
            ref.append(
                f"{fmt(traj.t[i])},{fmt(traj.z[i].real)},{fmt(traj.z[i].imag)},"
                f"{fmt(traj.p[i].real)},{fmt(traj.p[i].imag)},{fmt(err1[i])},{fmt(err2[i])}\n"
            )
        cli.write_trajectory_csv(traj, str(tmp_path / "traj.csv"))
        assert (tmp_path / "traj.csv").read_bytes() == "".join(ref).encode()

    def test_bytes_do_not_depend_on_the_pool(self, fig_tunneling, monkeypatch, tmp_path):
        # 15 blocks of 4096 rows: formatted in this process on one CPU, by two workers on two
        assert len(fig_tunneling) > 2 * 4096
        monkeypatch.setattr(cli, "_forks_workers", lambda: True)
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            cli.write_trajectory_csv(fig_tunneling, str(tmp_path / f"cpus{cpus}.csv"))
        assert (tmp_path / "cpus1.csv").read_bytes() == (tmp_path / "cpus2.csv").read_bytes()

    @pytest.mark.parametrize("rows,pooled", [(12287, False), (12288, True)])
    def test_short_trajectory_starts_no_pool(self, rows, pooled, fig_closed, monkeypatch, tmp_path):
        # the pool pays from three full blocks on
        head = replace(
            fig_closed, t=fig_closed.t[:rows], z=fig_closed.z[:rows], p=fig_closed.p[:rows], drift=fig_closed.drift[:rows]
        )
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_forks_workers", lambda: True)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _no_pool)
        path = tmp_path / "head.csv"
        if pooled:
            with pytest.raises(RuntimeError, match="pool started"):
                cli.write_trajectory_csv(head, str(path))
        else:
            cli.write_trajectory_csv(head, str(path))
            assert len(path.read_text().splitlines()) == 1 + rows

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_no_pool_without_fork(self, method, fig_closed, monkeypatch, tmp_path):
        # a worker that must import the package costs about what its block saves
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli.multiprocessing, "get_start_method", lambda allow_none=False: method)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _no_pool)
        cli.write_trajectory_csv(fig_closed, str(tmp_path / "traj.csv"))
        assert len((tmp_path / "traj.csv").read_text().splitlines()) == 1 + len(fig_closed)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_daemonic_caller_writes_in_process(self, fig_closed, monkeypatch, tmp_path):
        # a daemonic process, say a multiprocessing.Pool task, may have no children
        assert len(fig_closed) >= 3 * 4096
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        child = multiprocessing.get_context("fork").Process(
            target=cli.write_trajectory_csv, args=(fig_closed, str(tmp_path / "daemon.csv")), daemon=True
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        cli.write_trajectory_csv(fig_closed, str(tmp_path / "serial.csv"))
        assert (tmp_path / "daemon.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    # the error columns' edge values: both zeros, NaN, both infinities, the smallest subnormals
    SPECIALS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, -0.0, 0.0, 5e-324, 1e-16]

    @pytest.mark.parametrize(
        "err1,err2",
        [
            (SPECIALS, SPECIALS[::-1]),
            ([-0.0] * len(SPECIALS), SPECIALS),  # one repeated value
            ([i * 1.1e-16 for i in range(len(SPECIALS))], [0.1 * i for i in range(len(SPECIALS))]),  # all distinct
        ],
        ids=["specials", "repeated", "distinct"],
    )
    def test_block_rows_equal_the_per_value_repr(self, err1, err2):
        # each distinct error value is formatted once, keyed on its bits, so -0.0 stays apart from 0.0
        n = len(err1)
        values = [np.linspace(0.0, 1.0, n) + k for k in range(5)]
        cols = tuple(np.array(c, dtype=np.float64) for c in (*values, err1, err2))
        ref = "".join(",".join(repr(float(c[i])) for c in cols) + "\n" for i in range(n))
        assert cli._csv_rows(cols) == ref


def _no_pool(*args, **kwargs):
    raise RuntimeError("pool started")


class TestSweepCommand:
    def test_single_row_matches_simulate(self, tmp_path, capsys):
        params = SystemParams(0.1, 3)
        rows = cmd_sweep_e2(params, 1.0, [4.0], t_max=60.0, workers=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["error"] == ""

        args = [
            "simulate", "--zeta", "0.1", "--M", "3", "--e", "1+4i",
            "--start", "origin", "--t-max", "60",
        ]
        assert main(args) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["tunneling"]["tau"] == row["tau"]
        assert summary["classification"]["wells"]["left"]["n"] == row["n_left"]

    def test_mixed_signs_rejected(self):
        params = SystemParams(0.1, 3)
        with pytest.raises(DomainError):
            cmd_sweep_e2(params, 1.0, [0.5, -0.5], workers=1)

    def test_zero_e2_rejected(self, capsys):
        # zero is a real energy, whatever the signs of the other rows
        assert main(["sweep-e2", "--zeta", "0.1", "--M", "3", "--e2", "0.5,0"]) == EXIT_USAGE
        assert "E2 = 0 is not a tunneling energy" in capsys.readouterr().err

    def test_sweep_csv_and_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep-e2", "--zeta", "0.1", "--M", "3", "--e1", "1",
            "--e2", "6.7,4.0", "--t-max", "40",
            "--out", str(out), "--workers", "2",
        ]
        assert main(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "e2,tau,dwell_left,dwell_right,n_left,n_right,error"
        assert lines[1].startswith("6.7,")
        assert lines[2].startswith("4.0,")

    @pytest.mark.parametrize("stub", [False, True], ids=["no_class_fits", "not_tunneling"])
    def test_error_row_reads_back_as_seven_fields(self, stub, tmp_path, monkeypatch):
        # both error messages hold a comma; the cell is quoted, so the row keeps the header's 7 fields
        if stub:
            monkeypatch.setattr(cli, "run_simulation", lambda config: {
                "max_drift": 0.0, "drift_floor_rss": 0.0, "termination": "escaped",
                "classification": {"kind": "open_escape", "escape_side": "left"},
            })
        out = tmp_path / "sweep.csv"
        rows = cmd_sweep_e2(SystemParams(0.1, 3), -1.0, [0.3], t_max=5.0, out_path=str(out), workers=1)
        assert "," in rows[0]["error"]
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert len(header) == len(row) == 7
        assert row[:6] == ["0.3", "", "", "", "", ""] and row[6] == rows[0]["error"]

    def test_row_error_recorded(self, tmp_path):
        params = SystemParams(0.1, 3)
        # closed-orbit energy: classify fails to be tunneling, error column set
        rows = cmd_sweep_e2(params, 1.0, [1.0], t_max=5.0, workers=1)
        assert len(rows) == 1
        assert rows[0]["tau"] is None
        assert rows[0]["error"] != ""

    @pytest.mark.parametrize(
        "e2,t_max,row",
        [
            (4.0, 60.0, {
                "e2": 4.0, "tau": 3.7713887407575366, "dwell_left": 3.7711220739213047,
                "dwell_right": 3.7716554075937685, "n_left": -2, "n_right": 3, "error": "",
                "max_drift": 2.5243253987585826e-12, "drift_floor_rss": 9.135570086533274e-11,
                "termination": "time_limit",
            }),
            (1.0, 5.0, {
                "e2": 1.0, "tau": None, "dwell_left": None, "dwell_right": None, "n_left": None, "n_right": None,
                "error": "no orbit class fits: termination=time_limit, crossings=0, t_end=5",
                "max_drift": None, "drift_floor_rss": None, "termination": None,
            }),
        ],
        ids=["tunneling", "no_class_fits"],
    )
    def test_row_of_a_run_config(self, e2, t_max, row):
        # the rows, keys in order, that cmd_sweep_e2(SystemParams(0.1, 3), 1.0, [e2], t_max) returned
        # when each worker rebuilt its RunConfig from a tuple
        params, energy = SystemParams(0.1, 3), complex(1.0, e2)
        config = cli.RunConfig(params, energy, "origin", MomentumBranch.PRINCIPAL, run_preset(energy, t_max))
        assert list(cli._sweep_row(config).items()) == list(row.items())
        assert list(cmd_sweep_e2(params, 1.0, [e2], t_max=t_max, workers=1)[0].items()) == list(row.items())

    def test_each_row_gets_its_own_horizon(self, monkeypatch):
        # each row runs the preset of its own energy; --t-max replaces its horizon only
        seen = _record_runs(monkeypatch)
        args = ["sweep-e2", "--zeta", "0.1", "--M", "3", "--e2", "6.7,0.3", "--workers", "1"]
        assert main(args) == EXIT_OK
        assert [cfg.t_max for cfg in seen] == [200.0, pytest.approx(640.0 / 0.3)]
        assert seen == [run_preset(1 + 6.7j), run_preset(1 + 0.3j)]
        seen.clear()
        assert main([*args, "--t-max", "50"]) == EXIT_OK
        assert seen == [replace(run_preset(1 + 6.7j), t_max=50.0), replace(run_preset(1 + 0.3j), t_max=50.0)]


class TestOutputErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--start", CLOSED_START, "--t-max", "10",
             "--trajectory-out"],
            ["sweep-e2", "--zeta", "0.1", "--M", "3", "--e2", "6.7", "--t-max", "5", "--workers", "1", "--out"],
        ],
        ids=["simulate", "sweep-e2"],
    )
    def test_unwritable_output_is_one_line_error(self, args, tmp_path, capsys):
        path = tmp_path / "missing" / "out.csv"
        assert main([*args, str(path)]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()  # one line, no traceback
        assert line.startswith("error: cannot write output: ") and str(path) in line


class TestNonFiniteEnergy:
    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-e2", "--e2", "inf"],
            ["sweep-e2", "--e1", "nan", "--e2", "1"],
            ["sweep-e2", "--e2", "nan"],
            ["simulate", "--e", "nan+1i"],
            ["simulate", "--e", "inf"],
        ],
        ids=["sweep_e2_inf", "sweep_e1_nan", "sweep_e2_nan", "simulate_nan_real_part", "simulate_inf"],
    )
    def test_is_a_config_error_before_any_run(self, args, monkeypatch, capsys):
        # the energy is refused, and named, before a pool starts or a run integrates
        def no_call(*args, **kwargs):
            raise AssertionError("called with a non-finite energy")

        monkeypatch.setattr(cli, "_pool_map", no_call)
        monkeypatch.setattr(cli, "integrate", no_call)
        assert main([*args, "--zeta", "0.1", "--M", "3"]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: energy must be finite, got ")


def _record_runs(monkeypatch) -> list:
    """Replace run_simulation by a stub that records each row's integrator config."""
    seen = []

    def run(config):
        seen.append(config.integrator)
        return {
            "max_drift": 0.0, "drift_floor_rss": 0.0, "termination": "time_limit",
            "classification": {"kind": "tunneling", "wells": {"left": {"n": -1}, "right": {"n": 1}}},
            "tunneling": {"tau": 1.0, "dwell_left": 1.0, "dwell_right": 1.0},
        }

    monkeypatch.setattr(cli, "run_simulation", run)
    return seen


class TestIntegratorConfigKeys:
    def test_config_file_reaches_the_sweep(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, "t_max": 50.0}))
        seen = _record_runs(monkeypatch)
        assert main(["sweep-e2", "--config", str(cfg_path), "--e2", "1.0", "--workers", "1"]) == EXIT_OK
        assert seen == [replace(run_preset(1 + 1j), t_max=50.0)]

    def test_threshold_config_takes_no_integrator_key(self, tmp_path, monkeypatch, capsys):
        # the probes always run analysis.run_preset of their energy
        monkeypatch.setattr(analysis, "integrate", _never)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, "e": 0.8, "rel_tol": 1e-12}))
        assert main(["threshold", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "unknown key(s) 'rel_tol'" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["threshold", "--e", "0.8", "--rel-tol", "1e-12"],
            ["threshold", "--e", "0.8", "--width", "0.1"],
            ["simulate", "--e", "0.8", "--dt-init", "1e-3"],
            ["sweep-e2", "--e2", "1.0", "--dt-init", "1e-3"],
            *[
                [command, energy, value, flag, setting]
                for command, energy, value in (("simulate", "--e", "0.8"), ("sweep-e2", "--e2", "1.0"))
                for flag, setting in REMOVED_FLAGS.items()
            ],
        ],
        ids=[
            "threshold-rel-tol",
            "threshold-width",
            "simulate-dt-init",
            "sweep-e2-dt-init",
            *[f"{command}-{flag[2:]}" for command in ("simulate", "sweep-e2") for flag in REMOVED_FLAGS],
        ],
    )
    def test_removed_flag_is_a_usage_error(self, args, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_simulation", _never)
        monkeypatch.setattr(analysis, "integrate", _never)
        with pytest.raises(SystemExit) as exc_info:
            main([args[0], "--zeta", "0.1", "--M", "3", *args[1:]])
        assert exc_info.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key",
        [
            *[(command, flag[2:].replace("-", "_")) for flag in REMOVED_FLAGS for command in ("simulate", "sweep-e2")],
            ("threshold", "width"),
        ],
        ids=lambda v: v,
    )
    def test_removed_key_is_unknown(self, command, key, tmp_path, monkeypatch, capsys):
        # a removed flag's key is unknown, whatever its value
        monkeypatch.setattr(cli, "run_simulation", _never)
        monkeypatch.setattr(analysis, "integrate", _never)
        energy = {"simulate": {"e": "0.8"}, "sweep-e2": {"e2": "1.0"}, "threshold": {"e": 0.8}}[command]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, **energy, key: "x"}))
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        assert f"config error: config {str(cfg_path)!r}: unknown key(s) {key!r};" in capsys.readouterr().err


def _never(*args, **kwargs):
    pytest.fail("the run went ahead despite a bad setting")


class TestConfigFile:
    def test_workers_key_reaches_the_sweep(self, tmp_path, monkeypatch, capsys):
        seen = []

        def sweep(params, e1, e2_list, t_max=None, out_path=None, workers=None):
            seen.append(workers)
            return [{"e2": e2, "tau": 1.0, "error": ""} for e2 in e2_list]

        monkeypatch.setattr(cli, "cmd_sweep_e2", sweep)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, "e2": "1.0", "workers": 1}))
        assert main(["sweep-e2", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["sweep-e2", "--config", str(cfg_path), "--workers", "2"]) == EXIT_OK
        assert seen == [1, 2]

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("source", ["flag", "key"])
    def test_workers_below_one_is_a_config_error(self, workers, source, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_simulation", _never)
        keys, flag = {"zeta": 0.1, "m": 3, "e2": "6.7"}, []
        if source == "key":
            keys["workers"] = workers
        else:
            flag = ["--workers", str(workers)]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(keys))
        assert main(["sweep-e2", "--config", str(cfg_path), *flag]) == EXIT_USAGE
        assert f"config error: workers must be >= 1, got {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,keys",
        [
            ("simulate", {"e": "0.8", "start": CLOSED_START}),
            ("sweep-e2", {"e2": "1.0", "workers": 1}),
            ("threshold", {"e": 0.8}),
        ],
    )
    def test_unknown_key_is_a_config_error(self, command, keys, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            pytest.fail("the run went ahead despite an unknown config key")

        monkeypatch.setattr(cli, "run_simulation", never)
        monkeypatch.setattr(cli, "closed_orbit_boundary", never)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, "rel-tol": 1e-12, **keys}))
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        assert "'rel-tol'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,keys,bad",
        [
            ("threshold", {"e": "abc"}, "e"),
            ("sweep-e2", {"zeta": "x", "e2": "1.0"}, "zeta"),
            ("simulate", {"e": "0.8", "branch": "sideways"}, "branch"),
            ("sweep-e2", {"e2": [True, 2]}, "e2"),
        ],
    )
    def test_bad_config_value_is_a_config_error(self, command, keys, bad, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            pytest.fail("the run went ahead despite a bad config value")

        monkeypatch.setattr(cli, "run_simulation", never)
        monkeypatch.setattr(cli, "cmd_sweep_e2", never)
        monkeypatch.setattr(cli, "closed_orbit_boundary", never)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, **keys}))
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and f"bad {bad} {keys[bad]!r}" in err


    @pytest.mark.parametrize(
        "command,key,value",
        [
            *[(command, "zeta", "x") for command in COMMANDS],
            *[(command, "t_max", "x") for command in ("simulate", "sweep-e2")],
            *[(command, "m", 3.5) for command in COMMANDS],
            ("simulate", "branch", "sideways"),
            ("sweep-e2", "e1", "one"),
            ("sweep-e2", "workers", 1.5),
            ("threshold", "e", "0.8+0.1i"),
            ("threshold", "side", "up"),
            ("threshold", "n", 0.5),
            ("threshold", "direction", 2),
        ],
    )
    def test_every_value_is_checked_as_its_flag(self, command, key, value, tmp_path, monkeypatch, capsys):
        # a config value is converted by its flag's type and checked against
        # its choices, as the flag's own value would be
        def never(*args, **kwargs):
            pytest.fail("the run went ahead despite a bad config value")

        monkeypatch.setattr(cli, "run_simulation", never)
        monkeypatch.setattr(cli, "cmd_sweep_e2", never)
        monkeypatch.setattr(cli, "closed_orbit_boundary", never)
        energy = {"simulate": {"e": "0.8"}, "sweep-e2": {"e2": "1.0"}, "threshold": {"e": 0.8}}[command]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, **energy, key: value}))
        assert main([command, "--config", str(cfg_path)]) == EXIT_USAGE
        assert f"config error: bad {key} {value!r}\n" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command,key,value",
        [
            *[("simulate", key, value) for key in ("trajectory_out", "events_out", "summary_out") for value in (2, None)],
            ("sweep-e2", "out", 2),
            ("sweep-e2", "out", None),
        ],
    )
    def test_a_path_must_be_a_string(self, command, key, value, tmp_path):
        # in a subprocess: a number taken as a path is a file descriptor, and
        # writing to fd 2 and closing it would close this process's stderr
        energy = {"simulate": {"e": "0.8"}, "sweep-e2": {"e2": "1.0"}}[command]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"zeta": 0.1, "m": 3, "t_max": 0.01, **energy, key: value}))
        proc = subprocess.run(
            [sys.executable, "-m", "ptwells", command, "--config", str(cfg_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"config error: bad {key} {value!r}\n"


class TestPoolSizing:
    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)

        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was started with one usable CPU")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        seen = _record_runs(monkeypatch)
        rows = cmd_sweep_e2(SystemParams(0.1, 3), 1.0, [6.7, 3.2])
        assert [r["e2"] for r in rows] == [6.7, 3.2]
        assert len(seen) == 2

    def test_explicit_workers_are_capped_at_the_jobs(self, monkeypatch):
        # a pool that forks starts all of its workers with its first task, so 64 workers
        # asked for two rows would fork 64 processes; a recorder stands in for the pool
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
        assert list(cli._pool_map(abs, [-1, -2], workers=64)) == [1, 2]
        assert list(cli._pool_map(abs, [-1, -2, -3], workers=2)) == [1, 2, 3]
        assert asked == [2, 2]
        assert list(cli._pool_map(abs, [-1], workers=64)) == [1] and asked == [2, 2]  # one job: in process


class TestThresholdCommand:
    def test_bracket_failure_exit(self, monkeypatch, capsys):
        # with the probes stopped at t = 0.3, short of the real period, the lower one is
        # not back at its start and the upper one cannot leave its cell this soon, so
        # the probes do not confirm the separatrix
        monkeypatch.setattr(analysis, "real_period", lambda g2, g3: 0.3)
        args = ["threshold", "--zeta", "0.1", "--M", "3", "--e", "0.8"]
        assert main(args) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "bracket failure" in err and "probes do not confirm the separatrix" in err

    def test_coarse_search_reports_bracket(self, capsys):
        args = ["threshold", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--side", "left", "--n", "0"]
        assert main(args) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        sep = out["critical_offset"]
        assert (out["closed_offset"], out["open_offset"]) == (sep - 0.5 * BOUNDARY_WIDTH, sep + 0.5 * BOUNDARY_WIDTH)
        assert 0.45 <= sep <= 0.6
        assert out["n_probes"] == 2

    def test_boundary_beyond_the_series_radius(self, capsys):
        # the leaf meets the well line at t = 0.124, past the reach of one Laurent step from s = 0
        assert main(["threshold", "--zeta", "0.1", "--M", "1", "--e", "20"]) == EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["critical_offset"] - 0.69536552976346343197) <= 1e-12

    def test_no_boundary_on_the_well_line_is_a_config_error(self, capsys):
        assert main(["threshold", "--zeta", "0.1", "--M", "3", "--e", "-10"]) == EXIT_USAGE
        assert "config error: the separatrix leaf does not reach the well line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [("sweep-e2", ["--e2", "abc"])],
    )
    def test_bad_number_list_is_a_config_error(self, command, flags, monkeypatch, capsys):
        def never(*args, **kwargs):
            pytest.fail("the run went ahead despite a bad number list")

        monkeypatch.setattr(cli, "closed_orbit_boundary", never)
        monkeypatch.setattr(cli, "cmd_sweep_e2", never)
        assert main([command, "--zeta", "0.1", "--M", "3", *flags]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ptwells", "wells", "--zeta", "1", "--M", "2", "--n-min", "0", "--n-max", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "side,n,x,y"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ptwells", "wells", "--zeta", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE


class TestCrossingsFoundOnce:
    """run_simulation finds the axis crossings once and hands them to classify_orbit,
    measure_tunneling and the events writer.  Its files are those of the former path,
    on which each of the three found them again from the trajectory; both paths run on
    the same trajectories (``cli.integrate`` memoized)."""

    FIGURES = {
        "closed": cli.RunConfig(
            params=SystemParams(0.1, 3),
            energy=0.8 + 0j,
            start=CLOSED_START,
            branch=MomentumBranch.PRINCIPAL,
            integrator=IntegratorConfig(t_max=40.0),
        ),
        "tunneling": cli.RunConfig(
            params=SystemParams(0.1, 3),
            energy=1 + 1j,
            start="origin",
            branch=MomentumBranch.PRINCIPAL,
            integrator=run_preset(1 + 1j, 150.0),
        ),
    }

    @pytest.fixture()
    def memo(self, monkeypatch):
        trajectories = {}
        integrate = cli.integrate

        def cached(*args):
            if args not in trajectories:
                trajectories[args] = integrate(*args)
            return trajectories[args]

        monkeypatch.setattr(cli, "integrate", cached)
        return trajectories

    @staticmethod
    def former_path(patch) -> None:
        last = []
        integrate = cli.integrate

        def capture(*args):
            last.append(integrate(*args))
            return last[-1]

        write = cli.write_events_jsonl

        def write_found_again(crossings, oc, path):
            write(analysis.detect_axis_crossings(last[-1]), oc, path)

        patch.setattr(cli, "integrate", capture)
        patch.setattr(cli, "classify_orbit", lambda traj, crossings: analysis.classify_orbit(traj))
        patch.setattr(cli, "measure_tunneling", lambda traj, crossings: analysis.measure_tunneling(traj))
        patch.setattr(cli, "write_events_jsonl", write_found_again)

    @pytest.mark.parametrize("name", ["closed", "tunneling"])
    def test_figure_files_equal_the_former_path(self, name, memo, monkeypatch, tmp_path):
        calls = []
        detect = analysis.detect_axis_crossings

        def counted(traj):
            calls.append(traj)
            return detect(traj)

        paths = {side: (tmp_path / f"{side}.json", tmp_path / f"{side}.jsonl") for side in ("once", "former")}
        with monkeypatch.context() as patch:
            patch.setattr(cli, "detect_axis_crossings", counted)
            patch.setattr(analysis, "detect_axis_crossings", counted)
            summary, events = paths["once"]
            cli.run_simulation(replace(self.FIGURES[name], summary_path=str(summary), events_path=str(events)))
        assert len(calls) == 1
        with monkeypatch.context() as patch:
            self.former_path(patch)
            summary, events = paths["former"]
            cli.run_simulation(replace(self.FIGURES[name], summary_path=str(summary), events_path=str(events)))
        assert len(memo) == 1
        for once, former in zip(paths["once"], paths["former"]):
            assert once.read_bytes() == former.read_bytes()

    def test_table_sweep_csv_equals_the_former_path(self, memo, monkeypatch, tmp_path):
        e2 = runpy.run_path(str(ROOT / "scripts" / "run_table_sweep.py"))["E2_VALUES"]
        assert len(e2) == 27
        once, former = tmp_path / "once.csv", tmp_path / "former.csv"
        cmd_sweep_e2(SystemParams(0.1, 3), 1.0, e2, out_path=str(once), workers=1)
        with monkeypatch.context() as patch:
            self.former_path(patch)
            cmd_sweep_e2(SystemParams(0.1, 3), 1.0, e2, out_path=str(former), workers=1)
        assert len(memo) == 27
        assert once.read_bytes() == former.read_bytes()
