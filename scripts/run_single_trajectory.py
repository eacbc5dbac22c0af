#!/usr/bin/env python3
"""Produce the data behind a single filtered-vs-smoothed trajectory plot.

Scans trajectory indices under one master seed until it finds a record
with exactly one detection (the most instructive case: the smoothed state
knows the photon is coming), then writes the per-time Bloch components
and purities as CSV through the CLI's column writer.

    python scripts/run_single_trajectory.py --seed 0 --out trajectory.csv
"""

import argparse
import sys

import numpy as np

from qsmooth import cli, smoothing
from qsmooth.dynamics import ModelParams, build_step_operators, filter_batch


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=5.0)
    ap.add_argument("--nbar", type=float, default=0.5)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-final", type=float, default=7.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--detections", type=int, default=1,
                    help="number of clicks the record must contain")
    ap.add_argument("--max-scan", type=int, default=512)
    ap.add_argument("--out", default="trajectory.csv")
    args = ap.parse_args()

    p = ModelParams(omega=args.omega, nbar=args.nbar, unraveling="jump",
                    dt=args.dt, t_final=args.t_final, seed=args.seed)
    ops = build_step_operators(p)
    chosen = None
    for start in range(0, args.max_scan, 64):
        idx = range(start, start + 64)
        outcomes, _, _ = filter_batch(p, ops, idx)
        hits = np.nonzero((outcomes >= 0.5).sum(axis=0) == args.detections)[0]
        if len(hits):
            chosen = start + int(hits[0])
            break
    if chosen is None:
        print(f"no record with {args.detections} detections among "
              f"{args.max_scan} trajectories", file=sys.stderr)
        return 1

    res = smoothing.smooth_trajectory(p, chosen)
    jumps = np.nonzero(res.record >= 0.5)[0] * p.dt
    print(f"trajectory index {chosen}: detections at t = {np.round(jumps, 3)}")

    bf = smoothing.qubit_statistics(res.filtered_coords.T)[1]
    bs = smoothing.qubit_statistics(res.smoothed_coords.T)[1]
    cfg = {"omega": args.omega, "nbar": args.nbar, "dt": args.dt,
           "t_final": args.t_final, "seed": args.seed, "traj_index": chosen,
           "unraveling": "jump", "format": "csv", "out": args.out}
    cli._write(cfg, [
        ("t", "times", res.times),
        ("outcome", "outcome", np.concatenate([[np.nan], res.record])),
        ("fx,fy,fz", "filtered_bloch", bf.T),
        ("sx,sy,sz", "smoothed_bloch", bs.T),
        ("p_filt", "purity_filtered", res.purity_filtered),
        ("p_smooth", "purity_smoothed", res.purity_smoothed),
    ], {})
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
