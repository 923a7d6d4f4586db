from dataclasses import replace

import numpy as np
import pytest

from ptwells import (
    IntegratorConfig,
    MomentumBranch,
    Side,
    SystemParams,
    WellIndex,
    initial_momentum,
    integrate,
    well_center,
)
from ptwells.cli import run_preset


@pytest.fixture(scope="session")
def params_main() -> SystemParams:
    return SystemParams(0.1, 3)


@pytest.fixture(scope="session")
def fig_closed(params_main):
    """Closed orbit: E = 0.8, start 0.4740 above the left n=0 well center."""
    c = well_center(WellIndex(Side.LEFT, 0), params_main)
    z0 = complex(c.real, c.imag + 0.4740)
    p0 = initial_momentum(z0, 0.8 + 0j, MomentumBranch.PRINCIPAL, params_main)
    return integrate(z0, p0, IntegratorConfig(t_max=40.0), params_main)


@pytest.fixture(scope="session")
def fig_tunneling(params_main):
    """Tunneling orbit: E = 1 + i from the origin (oscillates between n = -/+10)."""
    p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, params_main)
    return integrate(0j, p0, replace(run_preset(1 + 1j), t_max=150.0), params_main)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
