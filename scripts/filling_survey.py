#!/usr/bin/env python3
"""Survey the invariants of axis-aligned fillings over a range of (n, s).

Prints one block per spec: systoles, the H^q(G; ZG) table, and the
classification flags.
"""

import argparse

from warpfill.filling_topology import axis_filling, classify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--side", type=float, default=7.0)
    args = ap.parse_args()

    for n in range(2, args.n_max + 1):
        for s in range(1, n + 1):
            print(classify(axis_filling(n, [s], args.side)).render())
            print()


if __name__ == "__main__":
    main()
