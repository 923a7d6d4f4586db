#!/usr/bin/env python3
"""Locate the closed-orbit boundary offset for left wells -3..3, up and down.

At real energy a particle started within the critical y-offset of a well
center orbits it forever; beyond, it runs off down the lattice.  Every
well and both offset signs should agree on the critical value (0.529767
for zeta=0.1, M=3, E=0.8).  The last line gives the offsets' range and
the number of wells whose up and down searches disagree.

    PYTHONPATH=src python scripts/run_boundary_search.py
"""

import argparse

from ptwells import Side, SystemParams, WellIndex, closed_orbit_boundary
from ptwells.analysis import BOUNDARY_WIDTH


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--zeta", type=float, default=0.1)
    ap.add_argument("--M", type=int, default=3)
    ap.add_argument("--e", type=float, default=0.8)
    ap.add_argument("--width", type=float, default=BOUNDARY_WIDTH)
    args = ap.parse_args()

    params = SystemParams(args.zeta, args.M)
    offsets: dict[tuple[int, int], float] = {}
    for n in range(-3, 4):
        for direction in (+1, -1):
            res = closed_orbit_boundary(
                WellIndex(Side.LEFT, n), args.e, params,
                direction=direction, width_tol=args.width,
            )
            offsets[n, direction] = res.offset
            print(
                f"left n={n:+d} direction={direction:+d}: critical offset {res.offset:.6f} "
                f"(bracket [{res.closed_offset:.6f}, {res.open_offset:.6f}], "
                f"{res.n_probes} probes, worst drift {res.max_probe_drift:.1e})"
            )
    mismatches = sum(offsets[n, 1] != offsets[n, -1] for n in range(-3, 4))
    print(
        f"{len(offsets)} searches: min {min(offsets.values()):.6f}, "
        f"max {max(offsets.values()):.6f}, up/down mismatches {mismatches} of 7"
    )


if __name__ == "__main__":
    main()
