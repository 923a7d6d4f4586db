import json
import subprocess
import sys
from dataclasses import replace

import pytest

from ptwells import DomainError, Side, SystemParams, WellIndex, analysis, cli, well_center
from ptwells.analysis import BOUNDARY_WIDTH, PROBE_CONFIG
from ptwells.cli import (
    EXIT_AMBIGUOUS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    cmd_sweep_e2,
    default_t_max,
    fmt,
    main,
    parse_complex,
    run_preset,
)

CLOSED_START = "point:-2.047311112165265,-0.3113981633974483"  # 0.474 above left n=0
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

    def test_open_start_escapes(self, capsys):
        # a real-energy open orbit keeps Re z bounded on its way down the well
        # column; it ends by leaving its start's cell
        c = well_center(WellIndex(Side.LEFT, 0), SystemParams(0.1, 3))
        args = ["simulate", "--zeta", "0.1", "--M", "3", "--e", "0.8", "--start", f"point:{c.real!r},{c.imag + 0.6!r}"]
        assert main(args) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["classification"] == {"kind": "open_escape", "escape_side": "left"}
        assert summary["termination"] == "escaped"

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

    def test_row_error_recorded(self, tmp_path):
        params = SystemParams(0.1, 3)
        # closed-orbit energy: classify fails to be tunneling, error column set
        rows = cmd_sweep_e2(params, 1.0, [1.0], t_max=5.0, workers=1)
        assert len(rows) == 1
        assert rows[0]["tau"] is None
        assert rows[0]["error"] != ""

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
        # the probes always run analysis.PROBE_CONFIG
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


class TestThresholdCommand:
    def test_bracket_failure_exit(self, monkeypatch, capsys):
        # the upper probe cannot leave its cell this soon, so the probes
        # do not confirm the separatrix
        monkeypatch.setattr(analysis, "PROBE_CONFIG", replace(PROBE_CONFIG, t_max=0.3))
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
