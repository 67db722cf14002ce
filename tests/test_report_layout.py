"""The report writer: every report is laid out exactly as
json.dumps(obj, sort_keys=True, indent=2), and unreadable or unwritable
files are JSON input errors (exit 2)."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import cli
from maxplus.semiring import FLOAT, Vector, scalar_to_json
from maxplus.stochastic import distribution_from_json, simulate


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


TRICKY_STRINGS = ["", ", ", "],[", "[1,2]", "\n", "a\nb", '"', '\\"', "\0", "é", "日本語", "\ud800"]
ints = st.one_of(
    st.integers(-10, 10),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**64, 2**64 + 1, -(2**70)]),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
numbers = st.one_of(ints, floats)
strings = st.one_of(st.sampled_from(TRICKY_STRINGS), st.text(max_size=6))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    floats,
    strings,
    floats.map(np.float64),
    st.lists(numbers, max_size=5),
    st.lists(st.lists(numbers, max_size=4), max_size=4),  # [[]], ragged rows
    st.lists(st.one_of(ints, floats, st.booleans()), max_size=5),
    st.lists(st.lists(floats.map(np.float64), max_size=3), max_size=3),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_layout_matches_json_dumps(tree):
    assert cli._layout(tree) == reference(tree)
    nested = {"a": [tree, {"b": tree}]}
    assert cli._layout(nested) == reference(nested)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], [1]], [[1, 2], [3]], [[1], []], [[[1.5]]],
    [-0.0, math.inf, -math.inf, math.nan], [[0.1, -0.0], [math.nan]],
    [2**64, -(2**65), 2**200], [1, True, 2.5, None], [True, False],
    {"k": [1, 2], "s": "x, y],[\n\"\0é", "e": {}, "z": None},
    {1: [1, 2], 3: {"a": 1}}, [np.float64(0.1), 2], [[np.float64(1.0)], [2.0]],
    (1, 2), [(1, 2), [3]], ([1.0], [2.0]), [["a", "b"]], [[1, "-inf"]],
    "-inf", 7, 0.1, True, None,
])
def test_layout_matches_json_dumps_on_edge_cases(obj):
    assert cli._layout(obj) == reference(obj)
    assert cli._layout({"x": [obj]}) == reference({"x": [obj]})


def test_every_report_of_the_cli_tests_has_the_reference_layout():
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "report_layout_plugin", str(tests / "test_cli.py")],
        capture_output=True, text=True, cwd=tests.parent,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    checked = re.search(r"reports checked: (\d+)", proc.stdout)
    assert checked and int(checked.group(1)) >= 30, proc.stdout[-2000:]


FLOAT_MODEL = {
    "kind": "generator",
    "name": "shared_uniform_diagonal",
    "k": 3,
    "params": {"k": 3, "low": 0, "high": 1},
}


def simulate_report(tmp_path, horizon):
    (tmp_path / "d.json").write_text(json.dumps(FLOAT_MODEL))
    (tmp_path / "x0.json").write_text("[0, 1, 0.5]")
    out = tmp_path / "out.json"
    argv = ["simulate", "--dist", str(tmp_path / "d.json"), "--x0", str(tmp_path / "x0.json"),
            "--horizon", str(horizon), "--seed", "5", "--output", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert text == reference(json.loads(text)) + "\n"
    return json.loads(text)["result"]


def test_horizon_zero_report(tmp_path):
    result = simulate_report(tmp_path, 0)
    assert result["increments"] == []
    assert result["states"] == [result["x0"]] == [[0.0, 1.0, 0.5]]
    assert result["sample_times"] == [0]


def test_float_simulate_report_converts_no_entry(tmp_path, monkeypatch):
    calls = []

    def counting(v):
        calls.append(v)
        return scalar_to_json(v)

    monkeypatch.setattr(cli, "scalar_to_json", counting)
    result = simulate_report(tmp_path, 1500)
    assert len(calls) < 10
    tr = simulate(distribution_from_json(FLOAT_MODEL), Vector.make([0, 1, 0.5], FLOAT),
                  horizon=1500, seed=5)
    assert result["states"] == [[scalar_to_json(v) for v in s.entries] for s in tr.states]
    assert result["increments"] == [[scalar_to_json(v) for v in z] for z in tr.increments]


def test_float_vector_with_eps_is_converted():
    assert cli._vector_json(Vector((1.5, None), FLOAT)) == [1.5, "-inf"]


def run_main(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().err


@pytest.fixture
def float_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(FLOAT_MODEL))
    return str(path)


def test_directory_as_input_is_input_error(capsys, tmp_path):
    code, err = run_main(capsys, ["lyapunov", "--dist", str(tmp_path), "--horizon", "5",
                                  "--seed", "1"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" + b"9" * 5000 + b"]"])
def test_unreadable_json_is_input_error(capsys, tmp_path, content):
    path = tmp_path / "d.json"
    path.write_bytes(content)
    code, err = run_main(capsys, ["lyapunov", "--dist", str(path), "--horizon", "5", "--seed", "1"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_unwritable_output_is_input_error(capsys, tmp_path, float_model, flag):
    x0 = tmp_path / "x0.json"
    x0.write_text("[0, 0, 0]")
    target = str(tmp_path / "missing" / "o.json")
    code, err = run_main(capsys, ["simulate", "--dist", float_model, "--x0", str(x0),
                                  "--horizon", "3", "--seed", "1", flag, target])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"
