#!/usr/bin/env python3
"""Confirm the closed-orbit boundary offset for left wells -3..3, up and down.

At real energy a particle started within the critical y-offset of a well
center orbits it forever; beyond, it runs off down the lattice.  The
boundary is the separatrix leaf through Re z = -inf, the same for every
well and both offset signs (0.5297951445634 for zeta=0.1, M=3, E=0.8).
The script prints it once, then each search's two confirming probes.  The
last line says whether all 14 offsets equal the separatrix, with the total
number of probes and of accepted integration steps.

    PYTHONPATH=src python scripts/run_boundary_search.py
"""

import argparse

from ptwells import Side, SystemParams, WellIndex, analysis, closed_orbit_boundary, separatrix_offset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--zeta", type=float, default=0.1)
    ap.add_argument("--M", type=int, default=3)
    ap.add_argument("--e", type=float, default=0.8)
    args = ap.parse_args()

    params = SystemParams(args.zeta, args.M)
    sep = separatrix_offset(params, args.e)
    print(f"separatrix offset {sep!r}")

    # count the accepted steps of every probe integration
    steps = []
    integrate = analysis.integrate

    def counted(*a):
        traj = integrate(*a)
        steps.append(traj.n_accepted)
        return traj

    analysis.integrate = counted
    offsets = []
    for n in range(-3, 4):
        for direction in (+1, -1):
            n_before = len(steps)
            res = closed_orbit_boundary(WellIndex(Side.LEFT, n), args.e, params, direction=direction)
            offsets.append(res.offset)
            print(
                f"left n={n:+d} direction={direction:+d}: critical offset {res.offset:.6f} "
                f"(bracket [{res.closed_offset:.6f}, {res.open_offset:.6f}], "
                f"{res.n_probes} probes, {sum(steps[n_before:])} steps, "
                f"worst drift {max(d for d, _ in res.probe_drifts):.1e})"
            )
    same = sum(offset == sep for offset in offsets)
    print(
        f"{len(offsets)} searches: {same} of {len(offsets)} offsets equal the separatrix; "
        f"{len(steps)} probes, {sum(steps)} steps"
    )


if __name__ == "__main__":
    main()
