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
    return integrate(0j, p0, run_preset(1 + 1j, 150.0), params_main)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def mp_separatrix():
    """The closed-orbit boundary offset at 30 digits, as an mpmath number.

    The leaf of s'' = 2 Q'(s), Q(s) = 4E s^2 + (zeta s^2 - 2iM s + zeta)^2,
    from s = 0 with s' = 2 zeta is integrated by ``mpmath.odefun`` (Taylor
    series) up to its first crossing of |s| = r_w = e^{-asinh(M/zeta)}, which
    a bracketed ``findroot`` locates; the offset is (arg s + pi/2)/2.  The
    crossing is bracketed by scanning forward in t, since ``odefun`` only
    integrates forward from its start.
    """
    mpmath = pytest.importorskip("mpmath")
    cache = {}

    def offset(zeta: float, m_int: int, energy: float):
        key = (zeta, m_int, energy)
        if key not in cache:
            with mpmath.workdps(30):
                z, m, e = mpmath.mpf(zeta), mpmath.mpf(m_int), mpmath.mpf(energy)
                r_w = mpmath.exp(-mpmath.asinh(m / z))

                def f(t, y):
                    s, v = y
                    return [v, 16 * e * s + 8 * (z * s * s - 2j * m * s + z) * (z * s - 1j * m)]

                leaf = mpmath.odefun(f, 0, [mpmath.mpc(0), mpmath.mpc(2 * z)])

                def g(t):
                    return abs(leaf(t)[0]) - r_w

                dt = mpmath.mpf(1) / 64
                t = dt
                while g(t) < 0:
                    t += dt
                t_cross = mpmath.findroot(g, (t - dt, t), solver="anderson")
                cache[key] = (mpmath.arg(leaf(t_cross)[0]) + mpmath.pi / 2) / 2
        return cache[key]

    return offset
