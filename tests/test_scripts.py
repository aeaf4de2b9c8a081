"""Smoke tests of the command-line scripts under scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import warpfill
from warpfill.filling_topology import filling_from_json_dict
from warpfill.warp_engine import space_from_json_dict, space_to_json_dict

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(warpfill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_make_spaces_writes_loadable_files(tmp_path):
    proc = run_script("make_spaces.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    spaces = ("h2.json", "flat.json", "fg_space.json")
    fillings = ("square7_d1.json", "square6_d1.json", "n3_d2.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(spaces + fillings)
    for name in spaces:
        space_from_json_dict(json.loads((tmp_path / name).read_text()))
    for name in fillings:
        filling_from_json_dict(json.loads((tmp_path / name).read_text()))


def test_make_spaces_documents_round_trip(tmp_path):
    proc = run_script("make_spaces.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("h2.json", "flat.json", "fg_space.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert space_to_json_dict(space_from_json_dict(doc)) == doc, name


def test_filling_survey_runs():
    proc = run_script("filling_survey.py", "--n-max", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_geodesic_digest_is_one_stable_line_per_seed():
    proc = run_script("geodesic_digest.py", "--workload", "h2_geodesics", "--seeds", "5-6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[:8] for line in lines] == [
        ["h2_geodesics", "seed", str(seed), "rounds", "1", "ops", "10", "failed"] for seed in (5, 6)
    ]
    assert all(line.split()[8:11] == ["0", "at", "-"] and len(line.split()[-1]) == 64 for line in lines)
    again = run_script("geodesic_digest.py", "--workload", "h2_geodesics", "--seeds", "6")
    assert again.returncode == 0, again.stderr
    assert again.stdout.strip() == lines[1]
    bad = run_script("geodesic_digest.py", "--workload", "h2_geodesics", "--seeds", "9-3")
    assert bad.returncode == 2
    # core_geodesics ends every round with its two kept pairs, which pass
    # now that the route through the core is solved in the doubled base
    core = run_script("geodesic_digest.py", "--workload", "core_geodesics", "--seeds", "5", "--rounds", "2")
    assert core.returncode == 0, core.stderr
    assert core.stdout.split()[5:11] == ["ops", "24", "failed", "0", "at", "-"]
    cat = run_script("geodesic_digest.py", "--workload", "filling_cat", "--seeds", "5")
    assert cat.returncode == 0, cat.stderr
    assert cat.stdout.split()[:11] == ["filling_cat", "seed", "5", "rounds", "1", "ops", "1", "failed", "0", "at", "-"]
    assert len(cat.stdout.split()[-1]) == 64


def test_bench_trajectory_writes_the_summary(tmp_path):
    proc = run_script("bench_trajectory.py", "--tag", "smoke", "--workloads", "invariants",
                      "--seeds", "7", "--seconds", "1", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc.keys() == {"tag", "git_head", "dirty", "seconds", "machine", "workloads"}
    assert list(doc["workloads"]) == ["invariants"]
    entry = doc["workloads"]["invariants"]
    assert entry.keys() == {"setup_s", "ops_per_s", "peak_rss_mb", "failed", "attempted", "correct", "seeds"}
    for name in ("setup_s", "ops_per_s", "peak_rss_mb"):
        assert entry[name]["q1"] <= entry[name]["median"] <= entry[name]["q3"]
    assert entry["failed"] == 0 and entry["attempted"] > 0
    assert entry["correct"] == [True] and entry["seeds"] == [7]
