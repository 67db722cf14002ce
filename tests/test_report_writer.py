"""The float simulate report is written from its track arrays, a bounded
piece at a time: cli._pieces lays out each float table (a 2-D float64
array) a chunk of cli._TABLE_ROWS rows at a time through the same row rule
as cli._layout. The text is json.dumps(obj, sort_keys=True, indent=2) of
the same object with its tables as lists, byte for byte."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from maxplus import cli

INPUTS = Path(__file__).parent / "golden" / "inputs"
FLOAT_MODEL = {"kind": "generator", "name": "shared_uniform_diagonal", "k": 2,
               "params": {"k": 2, "low": 0, "high": 1}}
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, -1.0, 0.1, -2.5e-7, 123456789.125]


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@st.composite
def tables(draw):
    """A float64 table of 0, 1, 255, 256, 257 or 600 rows of 1 to 8 entries,
    its entries drawn from a pool that holds the signed zeros, the least
    subnormal, values near the largest double and negatives."""
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 600]))
    k = draw(st.integers(1, 8))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(pool)[rng.integers(len(pool), size=(n, k))]


@settings(max_examples=60, deadline=None)
@given(tables(), st.sampled_from(["", "  ", "    "]))
def test_table_is_laid_out_as_json_dumps(table, pad):
    pieces = list(cli._pieces(table, pad))
    assert "".join(pieces) == reference(table.tolist()).replace("\n", "\n" + pad)
    assert "".join(pieces) == cli._layout(table.tolist(), pad)
    # no piece holds more than one chunk of rows
    assert max(piece.count("[") for piece in pieces) <= cli._TABLE_ROWS


@settings(max_examples=30, deadline=None)
@given(tables(), tables(), tables())
def test_simulate_writes_its_tables_as_json_dumps(tmp_path_factory, states, projective,
                                                  increments):
    """cli.main on a simulate whose track is the drawn tables writes the
    reference layout both to --output and to stdout."""
    fields = dict(seed=1, replication=0, horizon=len(increments), thin=1,
                  sample_times=list(range(len(states))), states=states,
                  projective=projective, increments=increments)
    files = tmp_path_factory.mktemp("files")
    (files / "d.json").write_text(json.dumps(FLOAT_MODEL))
    (files / "x0.json").write_text("[0.5, -0.0]")
    argv = ["simulate", "--dist", str(files / "d.json"), "--x0", str(files / "x0.json"),
            "--horizon", "3", "--seed", "1"]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_track", lambda D, x0, *args: dict(fields, x0=x0))
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--output", str(files / "out.json")]) == 0
    for text in (out.getvalue(), (files / "out.json").read_text()):
        report = json.loads(text)
        assert text == reference(report) + "\n"
        for key, table in (("states", states), ("projective", projective),
                           ("increments", increments)):
            assert report["result"][key] == table.tolist()


def test_pieces_of_a_dict_holding_a_table():
    report = {"b": {"t": np.array([[1.5, -0.0]] * 300), "e": {}, "n": None},
              "a": [1, {"x": 2}], "c": np.zeros((0, 2))}
    expected = {"b": {"t": [[1.5, -0.0]] * 300, "e": {}, "n": None}, "a": [1, {"x": 2}], "c": []}
    assert "".join(cli._pieces(report)) == reference(expected)


def test_report_without_a_table_is_one_layout_and_one_write(monkeypatch):
    """An exact simulate report holds lists, not tables: its 300 kB are laid
    out by one _layout call and written by one write."""
    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    layouts = []
    layout = cli._layout
    monkeypatch.setattr(cli, "_layout", lambda obj, pad="": layouts.append(pad) or layout(obj, pad))
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["simulate", "--dist", str(INPUTS / "ring.dist.json"),
                     "--x0", str(INPUTS / "x0.json"), "--horizon", "1500", "--seed", "1"]) == 0
    assert out.writes == 1 and layouts.count("") == 1 and len(out.getvalue()) > 1 << 16
    assert out.getvalue() == reference(json.loads(out.getvalue())) + "\n"


# sha256 of the report on stdout, the report written to --output and the CSV
# side file, as the row-list writer before the table writer wrote them.
CASES = {
    "horizon_zero": (["--dist", "uniform.dist.json", "--x0", "xf.json", "--horizon", "0",
                      "--seed", "7"], None),
    "thin": (["--dist", "uniform.dist.json", "--x0", "xf.json", "--horizon", "600",
              "--seed", "7", "--thin", "7"], None),
    "csv": (["--dist", "uniform.dist.json", "--x0", "xf2.json", "--horizon", "600",
             "--seed", "8", "--csv", "states.csv"], "states.csv"),
    "split": (["--dist", "ringf.dist.json", "--x0", "xf3.json", "--horizon", "600",
               "--seed", "3", "--cjn-columns", "split"], None),
}
DIGESTS = {
    "csv": ("3a70b519", "3b79c4d9", "b1737b1a"),
    "horizon_zero": ("2e4abf0c", "b026079e", None),
    "split": ("0c192803", "91eae211", None),
    "thin": ("252692c5", "c0dcd388", None),
}


def digest(data) -> str:
    return None if data is None else hashlib.sha256(data).hexdigest()[:8]


def run_case(name, workdir: Path) -> tuple:
    argv, side = CASES[name]
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["simulate", *argv]) == 0
        assert cli.main(["simulate", *argv, "--output", "out.json"]) == 0
        texts = [out.getvalue(), Path("out.json").read_text()]
        csv_bytes = Path(side).read_bytes() if side else None
    finally:
        os.chdir(cwd)
    for text in texts:
        assert text == reference(json.loads(text)) + "\n"
    return tuple(digest(data) for data in (texts[0].encode(), texts[1].encode(), csv_bytes))


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_report_bytes_are_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


def test_simulate_report_is_not_held_whole(tmp_path):
    """A 20 000-step report of 8 coordinates is about 12 MB of text; writing
    it from whole lists of Python floats and one string traced a peak of
    3.7 times its size, writing it from the track arrays 0.6 times."""
    (tmp_path / "d.json").write_text(json.dumps({
        "kind": "generator", "name": "shared_uniform_diagonal", "k": 8,
        "params": {"k": 8, "low": 0.1, "high": 1.2}}))
    (tmp_path / "x0.json").write_text(json.dumps([0.0] * 8))
    out = tmp_path / "out.json"

    def run(horizon):
        return cli.main(["simulate", "--dist", str(tmp_path / "d.json"),
                         "--x0", str(tmp_path / "x0.json"), "--horizon", str(horizon),
                         "--seed", "1", "--output", str(out)])

    assert run(10) == 0  # first-call allocations
    tracemalloc.start()
    assert run(20000) == 0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < out.stat().st_size
