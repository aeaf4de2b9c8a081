#!/usr/bin/env python3
"""Digest of the geodesic solver's results on the benchmark's inputs.

    PYTHONPATH=src python3 scripts/geodesic_digest.py --workload core_geodesics --seeds 101-120 --rounds 3

For every seed, rebuilds the inputs of rounds 0..N-1 of a workload that
solves geodesics with ``perfbench/workloads.round_inputs``, runs each
operation as ``workloads.Context.run`` does, and prints one line: the seed,
the count of operations, the count that fail the workload's check
(``checks.check_geodesic`` or ``checks.check_cat``) or raise, which ones fail
as round:index (``-`` for none), and a sha256 over every result, each float
written with ``float.hex``: for a geodesic its distance, iteration count and
path vertices, for a ``filling_cat`` triangle the ``cat_test`` report's
``max_violation`` and every sample record.  Two checkouts whose solver
numerics agree print the same lines, so running this with PYTHONPATH set to
each checkout's ``src`` shows whether a change moved them.  warpfill is imported
from PYTHONPATH; the workload definitions come from this checkout.
"""

import argparse
import hashlib
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A or A-B, got {text!r}") from None
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def result_fields(result):
    """The digested fields of one GeodesicResult, as text."""
    parts = [result.distance.hex(), str(result.iterations)]
    for v in result.path.vertices:
        parts.append(" ".join(float(x).hex() for x in (v.r, *v.e, *v.theta)))
    return "\n".join(parts)


def report_fields(report):
    """The digested fields of one cat_test ComparisonReport, as text."""
    parts = [report.max_violation.hex()]
    for s1, t1, s2, t2, violation in report.samples:
        parts.append(f"{s1} {t1.hex()} {s2} {t2.hex()} {violation.hex()}")
    return "\n".join(parts)


FIELDS = {"h2_geodesics": result_fields, "core_geodesics": result_fields, "filling_cat": report_fields}


def digest_seed(ctx, workload, seed, rounds):
    """(operations, failing "round:index" labels, sha256 hex) over rounds
    0..rounds-1 of ``seed``."""
    sha = hashlib.sha256()
    ops = 0
    failing = []
    for k in range(rounds):
        for i, op in enumerate(workloads.round_inputs(workload, seed, k)):
            args = ctx.prepare(op)
            ops += 1
            try:
                result = ctx.run(op, args)
            except Exception as exc:  # counted as failed, as the benchmark does
                traceback.print_exc(file=sys.stderr)
                sha.update(f"raised {type(exc).__name__}\n".encode())
                ok = False
            else:
                sha.update(FIELDS[workload](result).encode() + b"\n")
                ok, _ = ctx.check(op, args, result, [])
            if not ok:
                failing.append(f"{k}:{i}")
    return ops, failing, sha.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(FIELDS))
    ap.add_argument("--seeds", required=True, type=seed_range, help="one seed A or a range A-B")
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    ctx = workloads.Context()
    for seed in args.seeds:
        ops, failing, hexdigest = digest_seed(ctx, args.workload, seed, args.rounds)
        print(f"{args.workload} seed {seed} rounds {args.rounds} ops {ops} failed {len(failing)} "
              f"at {','.join(failing) or '-'} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
