"""The benchmark's hooks into the package stay in place.

``benchmarks/tracing.py`` wraps the layers' functions by rebinding module
attributes, and ``benchmarks/workloads.py`` reads the tunneling guard and
the kernel entry points by name and calls the package with its own
settings.  A refactor that drops one of these names or settings breaks
``benchmarks/run.py``; these checks catch it in tier-1.
"""

import importlib.util
import pathlib

import pytest

import ptwells
from ptwells import cli, dynamics, integrator

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracing")
    hooked = [(mod, name.split(".")[1]) for name, mods in tracing.TARGETS.items() for mod in mods]
    before = {(mod, attr): getattr(getattr(ptwells, mod), attr) for mod, attr in hooked}
    tracer = tracing.Tracer(ptwells)
    tracer.install()
    try:
        assert cli.integrate is not before[("cli", "integrate")]
    finally:
        tracer.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(getattr(ptwells, mod), attr) is original


def test_names_the_workloads_read():
    assert isinstance(cli.TUNNELING_DRIFT_LIMIT, float)
    assert isinstance(cli.TUNNELING_ESCAPE_RADIUS, float)
    # the figure run's hand-built tunneling config is the package's preset
    tunneling = integrator.IntegratorConfig(
        t_max=150.0,
        energy_drift_limit=cli.TUNNELING_DRIFT_LIMIT,
        escape_radius=cli.TUNNELING_ESCAPE_RADIUS,
        max_steps=10_000_000,
    )
    assert tunneling == cli.run_preset(1 + 1j, 150.0)
    assert callable(cli.integrate)
    assert callable(integrator.derivative)
    assert callable(dynamics.potential_gradient)


def test_workload_calls_into_the_package(tmp_path):
    workloads = _load("workloads")
    assert isinstance(workloads._probe_config(ptwells), integrator.IntegratorConfig)
    ops = workloads.pass_boundary_search(ptwells, {"n": 0, "direction": 1}, 0, None, tmp_path)
    assert [op["ok"] for op in ops] == [True], ops


@pytest.mark.parametrize(
    "workload,inputs",
    [
        ("tunnel_table", {"e2": [6.7]}),
        ("start_grid", {"points": [{"n": 0, "direction": 1, "offset": 0.45}, {"n": 0, "direction": -1, "offset": 0.6}]}),
        ("figure_files", {}),
    ],
    ids=["tunnel_table", "start_grid", "figure_files"],
)
def test_workload_passes_once(workload, inputs, tmp_path):
    # one small pass in this process, on one worker
    ops = _load("workloads").PASSES[workload](ptwells, inputs, 1, None, tmp_path)
    assert ops and all(op["ok"] for op in ops), ops
