"""Golden report bytes: every command below, run in-process on the small
fixtures of tests/golden/inputs, writes exactly the report (and CSV side
file) stored under tests/golden. The reports echo their relative input
paths, so each case runs in a temporary copy of the inputs directory.

After a deliberate change of a report, regenerate the files with

    PYTHONPATH=src python tests/test_report_golden.py

and review the diff.
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from maxplus import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# name -> (argv, CSV side file or None)
CASES = {
    "spectral_transient": (["spectral", "--input", "matrix.json", "--transient",
                            "--max-power", "40"], None),
    "spectral_float": (["spectral", "--input", "matrix.json", "--backing", "float"], None),
    "power": (["power", "--input", "matrix.json", "--max-power", "40"], None),
    "simulate_exact": (["simulate", "--dist", "ring.dist.json", "--x0", "x0.json",
                        "--horizon", "30", "--seed", "5", "--thin", "3"], None),
    "simulate_exact_columns": (["simulate", "--dist", "ring.dist.json", "--x0", "x1.json",
                                "--horizon", "20", "--seed", "5", "--replication", "2",
                                "--cjn-columns", "physical", "--csv", "states.csv"],
                               "states.csv"),
    "simulate_float": (["simulate", "--dist", "uniform.dist.json", "--x0", "xf.json",
                        "--horizon", "60", "--seed", "7", "--thin", "7"], None),
    "simulate_float_columns": (["simulate", "--dist", "uniform.dist.json", "--x0", "xf2.json",
                                "--horizon", "25", "--seed", "7", "--cjn-columns", "physical",
                                "--csv", "states.csv"], "states.csv"),
    "simulate_float_finite": (["simulate", "--dist", "ringf.dist.json", "--x0", "xf3.json",
                               "--horizon", "30", "--seed", "3", "--cjn-columns", "split",
                               "--csv", "states.csv"], "states.csv"),
    "couple_exact": (["couple", "--dist", "ring.dist.json", "--x0", "x0.json", "--x0", "x1.json",
                      "--horizon", "50", "--seed", "2", "--replications", "3",
                      "--csv", "couple.csv"], "couple.csv"),
    "couple_float": (["couple", "--dist", "uniform.dist.json", "--x0", "xf.json",
                      "--x0", "xf2.json", "--horizon", "60", "--eta", "0.01", "--seed", "4",
                      "--replications", "3"], None),
    "loynes_exact": (["loynes", "--dist", "ring.dist.json", "--seed", "6", "--budget", "60",
                      "--csv", "loynes.csv"], "loynes.csv"),
    "patterns_exact": (["patterns", "--dist", "ring.dist.json", "--budget", "300"], None),
    "stability_exact": (["stability", "--dist", "ring.dist.json", "--seed", "3",
                         "--search-budget", "200", "--mc-seeds", "2", "--mc-budget", "20"], None),
    "stability_float": (["stability", "--dist", "uniform.dist.json", "--seed", "3",
                         "--eta", "0.05", "--mc-seeds", "3", "--mc-budget", "50"], None),
}


def run_case(name: str, workdir: Path) -> tuple:
    """(report bytes, CSV bytes or None) of one case, run in workdir."""
    argv, side = CASES[name]
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, name
    csv_bytes = (workdir / side).read_bytes() if side else None
    return out.getvalue().encode(), csv_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    report, csv_bytes = run_case(name, tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_bytes()
    side = CASES[name][1]
    if side:
        assert csv_bytes == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            report, csv_bytes = run_case(name, Path(tmp))
        (GOLDEN / f"{name}.json").write_bytes(report)
        if csv_bytes is not None:
            (GOLDEN / f"{name}.csv").write_bytes(csv_bytes)
        print(name, len(report), file=sys.stderr)
