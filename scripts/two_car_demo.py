#!/usr/bin/env python3
"""Head-on two-car run, coordinated only through the ground.

Two cars drive toward each other on one lane.  Each one paints and deforms
the ground it crosses; each one reads the ground inside its sensing ring.
Paint from the other car means imminent collision (hard stop), deformation
means another car is active nearby (slow down).  The script replays the run
against the pose-only supervisor oracle and reports whether the implicit
mechanism fired at exactly the oracle's risk steps.

Usage:
    python3 scripts/two_car_demo.py --horizon 20 --out out/demo
"""

import argparse
import math
import os
import sys

import numpy as np

from hioaw import (
    CarParams,
    RandomScheduler,
    SpaceGrid,
    build_two_car_world,
    first_action_step,
    first_risk_steps,
    footprint,
)
from hioaw.cars import PRESSURE
from hioaw.cli import write_trace_csv


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=200, help="grid cells per axis")
    ap.add_argument("--cell-size", type=float, default=0.25, help="cell edge, metres")
    ap.add_argument("--dt", type=float, default=0.1, help="sample period, seconds")
    ap.add_argument("--horizon", type=float, default=20.0, help="run length, seconds")
    ap.add_argument("--gap", type=float, default=20.0, help="initial centre distance")
    ap.add_argument("--seed", type=int, default=0, help="scheduler seed")
    ap.add_argument("--out", default="", help="directory for trace.csv (optional)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    grid = SpaceGrid(args.cells, args.cells, args.cell_size)
    mid = args.cells * args.cell_size / 2.0
    p1 = CarParams("1", 1000.0, 2.0, 1.0, 2.0, (mid - args.gap / 2, mid), 0.0)
    p2 = CarParams("2", 800.0, 2.0, 1.0, 2.0, (mid + args.gap / 2, mid), math.pi)

    world = build_two_car_world(p1, p2, grid, args.dt)
    frag = world.run(args.horizon, RandomScheduler(world.composite, seed=args.seed))

    print(f"grid {args.cells}x{args.cells} @ {args.cell_size} m, dt {args.dt} s")
    print(f"run: {frag.total_steps} steps, {len(frag.actions)} discrete events")
    for off, act in zip(frag.junction_offsets(), frag.actions):
        print(f"  t={off * args.dt:6.2f}s  step {off:4d}  {act}")

    risk1, risk2 = first_risk_steps(frag, p1, p2, grid)
    col1 = first_action_step(frag, "collision_1")
    col2 = first_action_step(frag, "collision_2")
    print(f"supervisor oracle risk steps: car1={risk1}  car2={risk2}")
    print(f"implicit collision steps:     car1={col1}  car2={col2}")
    agree = (col1, col2) == (risk1, risk2)
    print(f"implicit mechanism matches the oracle: {agree}")

    total_mass = p1.mass + p2.mass
    worst = max(
        abs(s[PRESSURE].integral() - total_mass)
        for tr in frag.trajectories
        for s in tr.samples
    )
    print(f"pressure integral drift from {total_mass:g} kg: {worst:.3e}")

    last = frag.lval
    for p in (p1, p2):
        v = p.var
        print(
            f"car {p.label}: x={last[v('pos_x')]:.2f} y={last[v('pos_y')]:.2f} "
            f"speed={last[v('speed')]:.2f} stopped={last[v('stop')]}"
        )
    fp1 = footprint(
        last[p1.var("heading")],
        (last[p1.var("pos_x")], last[p1.var("pos_y")]),
        p1.length, p1.width, grid,
    )
    fp2 = footprint(
        last[p2.var("heading")],
        (last[p2.var("pos_x")], last[p2.var("pos_y")]),
        p2.length, p2.width, grid,
    )
    print(f"final footprints overlap: {bool(np.intersect1d(fp1, fp2).size)}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "trace.csv")
        write_trace_csv(frag, path)
        print(f"trace written to {path}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
