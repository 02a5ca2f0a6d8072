"""Escape study for the canonical entry game.

Starts the cubic tempered dynamic from the reversed composition at the
stable aggregate equilibrium 0.25, certifies a decrease level, and writes
plot-ready CSVs: the simulated aggregate path, the frozen-rate upper bound,
and the time-0 flow-source atoms that bound sums.

Usage: python scripts/run_escape_study.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from evodyn import (
    SqrtShiftTypes,
    affine_game,
    critical_mass_sets,
    escape_certificate,
    find_aggregate_equilibria,
    integrate,
    make_grid,
    power_protocol,
    reversed_composition,
    start_sources,
)


def main(outdir: str = "escape_study") -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    game = affine_game(2.45, -0.05)
    dist = SqrtShiftTypes()
    protocol = power_protocol(3)
    grid = make_grid(dist, 4000)

    report = find_aggregate_equilibria(game, dist)
    print("aggregate equilibria:")
    for eq in report.equilibria:
        print(f"  xbar = {eq.xbar:.6f}  {eq.stability}  basin [{eq.basin_lo:.3f}, {eq.basin_hi:.3f}]")

    masses = critical_mass_sets(game, dist, protocol)
    print("certified decrease intervals:", masses.decrease_intervals)
    xbar_dagger = max(hi for _, hi in masses.decrease_intervals if hi < 0.25)

    x0 = reversed_composition(grid, dist, 0.25)
    cert = escape_certificate(game, dist, protocol, x0, xbar_dagger)
    print(f"dominance: {cert.dominance}  crossing time: {cert.crossing_time:.4f}")

    traj = integrate(game, dist, protocol, x0, t_end=50.0, dt=0.005)
    print(f"simulated: xbar(1) = {traj.xbar_at(1.0):.5f}  xbar(50) = {traj.final_xbar:.2e}")

    np.savetxt(
        out / "trajectory.csv",
        np.column_stack([traj.times, traj.xbars]),
        delimiter=",",
        header="t,xbar",
        comments="",
    )
    np.savetxt(
        out / "bound.csv",
        np.column_stack([cert.times, cert.bound]),
        delimiter=",",
        header="t,xbarbar",
        comments="",
    )
    # the atoms the certificate's bound sums, at the level it starts from
    _, inflow, outflow = start_sources(game, dist, protocol, x0)
    rows = [(q, m, 0) for q, m in zip(inflow.qs, inflow.ms)]
    rows += [(q, m, 1) for q, m in zip(outflow.qs, outflow.ms)]
    np.savetxt(
        out / "flow_atoms.csv",
        np.array(rows),
        delimiter=",",
        header="q,m,is_outflow",
        comments="",
    )
    print(f"wrote {out}/trajectory.csv, bound.csv, flow_atoms.csv")


if __name__ == "__main__":
    main(*sys.argv[1:])
