#!/usr/bin/env python3
"""Rebuild a workload's inputs from its seed and print them as JSON.

    python3 perfbench/inputs.py --workload core_geodesics --seed 7 --rounds 2

Prints one JSON object: the workload, the seed, and for each round its
operations with their reference values (closed-form distances, enumerated
systoles).  run.py builds its inputs with the same function, so this is the
exact input set a benchmark run with that seed uses.  Needs numpy only.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [workloads.round_inputs(args.workload, args.seed, k) for k in range(args.rounds)],
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
