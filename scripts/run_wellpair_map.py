#!/usr/bin/env python3
"""Map the tunneling well pair vs (zeta, M) for E = 1 + i from the origin.

The pair separation grows with M and shrinks with zeta.  Writes
results/wellpair_map.csv.
"""

import argparse
import pathlib

from ptwells import (
    MomentumBranch,
    SystemParams,
    initial_momentum,
    integrate,
    measure_tunneling,
    tunnel_well_pair,
)
from ptwells.cli import run_preset

CASES = [(0.1, 2), (0.1, 3), (0.1, 4), (0.1, 5), (1.0, 2), (1.0, 3), (1.0, 4), (1.0, 5)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-max", type=float, default=340.0)
    ap.add_argument("--out", default="results/wellpair_map.csv")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("zeta,M,n_left,n_right,tau\n")
        for zeta, m in CASES:
            params = SystemParams(zeta, m)
            cfg = run_preset(1 + 1j, args.t_max)
            p0 = initial_momentum(0j, 1 + 1j, MomentumBranch.PRINCIPAL, params)
            traj = integrate(0j, p0, cfg, params)
            left, right = tunnel_well_pair(traj)
            tau = measure_tunneling(traj).tunneling_time
            print(f"zeta={zeta} M={m}: left {left.n:+d} / right {right.n:+d}  tau={tau:.3f}")
            fh.write(f"{zeta},{m},{left.n},{right.n},{tau!r}\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
