"""The scripts under ``scripts/`` still run against the package they import.

pytest does not collect them, so a rename in the package would otherwise
break them without any test failing.
"""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
# the end-to-end run below; every other script is slow and is only loaded
END_TO_END = "run_boundary_search.py"


def test_boundary_search_runs_end_to_end():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / END_TO_END)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "14 of 14 offsets equal the separatrix" in proc.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py") if p.name != END_TO_END))
def test_script_loads(name):
    # a run_name other than "__main__" executes the imports and constants, not main()
    namespace = runpy.run_path(str(SCRIPTS / name), run_name="x")
    assert callable(namespace["main"])
