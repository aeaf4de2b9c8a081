#!/usr/bin/env python3
"""Write the standard input files used by the CLI campaigns.

Produces, in the output directory:
  h2.json          R x_{e^r} E^1 (hyperbolic plane chart)
  flat.json        R x_1 E^1 (Euclidean chart)
  fg_space.json    [0, 2.6] x_g E^1 x_f T^1 with the built (f, g) pair
  square7_d1.json  n=2 filling spec, square side 7, one d=1 cusp
  square6_d1.json  same but side 6 (fails the 2pi condition)
  n3_d2.json       n=3 filling spec with one d=2 cusp
"""

import argparse
import json
import os

import numpy as np

from warpfill.filling_topology import axis_filling, filling_to_json_dict
from warpfill.model_spaces import LatticeTorus
from warpfill.numerics import Const, ExpShift
from warpfill.warp_engine import WarpedSpace, space_to_json_dict
from warpfill.warp_functions import build_fg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="campaign_inputs")
    ap.add_argument("--lambda", dest="lam", type=float, default=1.6)
    ap.add_argument("--delta0", type=float, default=0.2)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    f, g, delta, _ = build_fg(args.lam, args.delta0)
    spaces = {
        "h2.json": WarpedSpace(interval=(-6.0, 6.0), euclid_dim=1, warp_g=ExpShift(0.0)),
        "flat.json": WarpedSpace(interval=(-3.0, 3.0), euclid_dim=1, warp_g=Const(1.0)),
        "fg_space.json": WarpedSpace(
            interval=(0.0, 1.0 + args.lam),
            euclid_dim=1,
            warp_g=g,
            torus=LatticeTorus(np.eye(1) * 7.0),
            warp_f=f,
        ),
    }
    fillings = {
        "square7_d1.json": axis_filling(2, [1], 7.0),
        "square6_d1.json": axis_filling(2, [1], 6.0),
        "n3_d2.json": axis_filling(3, [2], 7.0),
    }
    for name, space in spaces.items():
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as fh:
            json.dump(space_to_json_dict(space), fh, indent=2)
        print(f"wrote {path}")
    for name, filling in fillings.items():
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as fh:
            json.dump(filling_to_json_dict(filling), fh, indent=2)
        print(f"wrote {path}")
    print(f"warp pair: delta = {delta:.6f} (lambda = {args.lam}, delta0 hint = {args.delta0})")


if __name__ == "__main__":
    main()
