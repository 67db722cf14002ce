"""Smoke test of the scripts in scripts/: each runs on small flags, exits 0
and writes the CSV header its docstring documents."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxplus

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(maxplus.__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


@pytest.mark.parametrize(
    "name, args, csvs",
    [
        ("backward_diameter_trace.py", ["--budget", "2000", "--tolerance", "0.05"],
         {"backward_ring.csv": ["n", "diameter"], "backward_uniform.csv": ["n", "diameter"]}),
        ("ring_stability_sweep.py", ["--horizon", "50", "--replications", "2"], {}),
    ],
)
def test_script_runs(tmp_path, name, args, csvs):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for filename, columns in csvs.items():
        assert header(tmp_path / filename) == columns


def test_rank_one_thresholds(tmp_path):
    # A = [[1 - s, 0], [0, 1]] first has a rank-one power at n = 2 / s
    proc = run_script("rank_one_threshold.py", "--replications", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "rank_one_threshold.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["slack", "rank_one_power", "inverse_slack",
                                 "mean_merge_time", "merged", "replications"]
    assert [(r["slack"], r["rank_one_power"]) for r in rows] == [
        ("1/2", "4"), ("1/3", "6"), ("1/4", "8"), ("1/6", "12"),
        ("1/8", "16"), ("1/12", "24"), ("1/16", "32"),
    ]
