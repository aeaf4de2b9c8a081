#!/usr/bin/env python3
"""One point of the benchmark trajectory: BENCH_<tag>.json for this checkout.

    python3 scripts/bench_trajectory.py --tag baseline --seeds 101-110 --seconds 20

Runs ``perfbench/run.py --trace 0`` unchanged, one process per workload and
seed (the seeds in the outer loop, so slow drift of the machine reaches
every workload alike), and writes ``BENCH_<tag>.json`` under ``--out-dir``.
The workloads and metrics are the ones ``BENCHMARK.json`` declares.  Per
workload the file holds the median and quartiles over the seeds of each
end-to-end metric (setup_s, ops_per_s, peak_rss_mb), the totals of failed
and attempted operations, every run's ``correct`` flag and the seeds.  The
file also records the git HEAD, whether the tree differed from it, the run
length and the machine.  A run that exits non-zero stops the script with
exit code 1.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from geodesic_digest import seed_range

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload, seed, seconds):
    """The result object that ``perfbench/run.py`` prints last."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, seeds, units):
    """The per-workload entry of BENCH_<tag>.json from one result per seed;
    ``units`` maps each end-to-end metric to its unit."""
    entry = {}
    for name, unit in units.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
        entry[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
    entry["failed"] = sum(r["failed"] for r in results)
    entry["attempted"] = sum(r["attempted"] for r in results)
    entry["correct"] = [r["correct"] for r in results]
    entry["seeds"] = list(seeds)
    return entry


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    ap.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    ap.add_argument("--seeds", required=True, type=seed_range, help="one seed A or a range A-B")
    ap.add_argument("--seconds", type=float, default=20.0, help="timed phase of each run")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)

    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, args.seconds)
            results[workload].append(result)
            print(f"{workload} seed {seed}: {result['metrics']['ops_per_s']['value']:.1f} op/s, "
                  f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)

    doc = {
        "tag": args.tag,
        "git_head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(), "python": platform.python_version()},
        "workloads": {w: summarize(results[w], args.seeds, units) for w in args.workloads},
    }
    path = Path(args.out_dir) / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
