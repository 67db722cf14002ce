"""Strict distribution and matrix JSON: a key the writer does not write, at
any level, and a declared k that the matrices do not have, are contract
errors (exit 3) on every command that reads them."""

import json

import pytest

from maxplus import cli

RING = {
    "kind": "finite",
    "k": 2,
    "backing": "exact",
    "support": [
        {"matrix": {"k": 2, "entries": [[1, "-inf"], [0, 1]]}, "probability": "1/2"},
        {"matrix": {"k": 2, "entries": [[1, 0], [0, 2]]}, "probability": "1/2"},
    ],
}


def generator(name, params, **top):
    return {"kind": "generator", "name": name, "params": params, **top}


def run(capsys, tmp_path, argv, obj, flag):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code = cli.main(argv + [flag, str(path), "--output", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


def ring_with(edit):
    obj = json.loads(json.dumps(RING))
    edit(obj)
    return obj


BAD = {
    "support item key": ring_with(lambda o: o["support"][0].update(weight=2)),
    "matrix key": ring_with(lambda o: o["support"][1]["matrix"].update(kk=2)),
    "declared k": ring_with(lambda o: o.update(k=3)),
    "generator key": generator("shared_uniform_diagonal", {"k": 2}, k=2, extra=1),
    "misspelt high": generator("shared_uniform_diagonal", {"k": 2, "low": 0, "hgih": 2}),
    "independent param": generator("independent_uniform_diagonal", {"k": 2, "mean": 1}),
    "cjn param": generator("cjn_uniform", {"queues": 2, "customers": 2, "law": "uniform"}),
    "taskgraph param": generator(
        "taskgraph_uniform",
        {"k": 1, "subsets": [[[1], ["1"]]], "low": 0, "high": 1, "duration": 1},
    ),
    "generator k": generator("shared_uniform_diagonal", {"k": 3}, k=5),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_unknown_key_is_contract_error(capsys, tmp_path, case):
    argv = ["lyapunov", "--horizon", "5", "--seed", "0"]
    code, err = run(capsys, tmp_path, argv, BAD[case], "--dist")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "contract"


def test_the_same_keys_load(capsys, tmp_path):
    good = [
        RING,
        generator("shared_uniform_diagonal", {"k": 2, "low": 0, "high": 2}, k=2),
        generator("independent_uniform_diagonal", {"k": 2}),
        generator("cjn_uniform", {"queues": 2, "customers": 3, "low": 0, "high": 1}, k=3),
        generator("taskgraph_uniform",
                  {"k": 1, "subsets": [[[1], ["1"]]], "low": 0, "high": 1}, k=1),
    ]
    for obj in good:
        code, err = run(capsys, tmp_path, ["lyapunov", "--horizon", "5", "--seed", "0"], obj, "--dist")
        assert code == 0, err


def test_input_matrix_key_is_contract_error(capsys, tmp_path):
    code, err = run(capsys, tmp_path, ["spectral"], {"k": 2, "entries": [[0, 1], [1, 0]], "kk": 1},
                    "--input")
    assert code == 3
    assert "kk" in json.loads(err)["error"]["message"]


# Model specs (maxplus model --spec) and vectors (--x0) are strict the same way.
JOINT = {"joint": {"atoms": [[2, 1, 1], [1, 1, 1]], "probs": ["1/2", "1/2"]}}
SUBSETS = [{"masks": [3], "probs": [1]}, {"masks": [1, 3], "probs": ["1/2", "1/2"]}]
GOOD_SPECS = {
    "cjn joint": ("cjn", {"queues": 3, "customers": 3, "law": JOINT}),
    "cjn per_queue": ("cjn", {"queues": 2, "law": {"per_queue": {
        "values": [[1, 2], [1]], "probs": [["1/2", "1/2"], [1]]}}}),
    "cjn uniform": ("cjn", {"queues": 3, "customers": 4, "law": {"uniform": {"low": 0, "high": 2}}}),
    "taskgraph constant": ("taskgraph", {"k": 2, "subsets": SUBSETS, "duration": "3/2"}),
    "taskgraph uniform": ("taskgraph", {"k": 2, "subsets": SUBSETS,
                                        "duration": {"uniform": {"low": 0, "high": 1}}}),
}
BAD_SPECS = {
    "cjn spec key": ("cjn", {"queues": 3, "custmers": 5, "law": JOINT}),
    "two laws": ("cjn", {"queues": 3, "law": {**JOINT, "uniform": {}}}),
    "unknown law": ("cjn", {"queues": 3, "law": {"jiont": JOINT["joint"]}}),
    "joint key": ("cjn", {"queues": 3, "law": {"joint": {**JOINT["joint"], "weights": [1]}}}),
    "per_queue key": ("cjn", {"queues": 1, "law": {"per_queue": {
        "values": [[1]], "probs": [[1]], "value": [[2]]}}}),
    "uniform law key": ("cjn", {"queues": 2, "law": {"uniform": {"low": 0, "hgih": 2}}}),
    "taskgraph key": ("taskgraph", {"k": 2, "subsets": SUBSETS, "duraton": 5}),
    "subset law key": ("taskgraph", {"k": 1, "subsets": [{"masks": [1], "probs": [1], "p": 1}]}),
    "duration key": ("taskgraph", {"k": 2, "subsets": SUBSETS, "duration": {"unifrm": {}}}),
    "uniform duration key": ("taskgraph", {"k": 2, "subsets": SUBSETS,
                                           "duration": {"uniform": {"lo": 0}}}),
}


@pytest.mark.parametrize("case", sorted(GOOD_SPECS))
def test_spec_keys_load(capsys, tmp_path, case):
    kind, spec = GOOD_SPECS[case]
    code, err = run(capsys, tmp_path, ["model", kind], spec, "--spec")
    assert code == 0, err


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_unknown_spec_key_is_contract_error(capsys, tmp_path, case):
    kind, spec = BAD_SPECS[case]
    code, err = run(capsys, tmp_path, ["model", kind], spec, "--spec")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "contract"


@pytest.mark.parametrize("x0, code", [
    ({"entries": [0, 1]}, 0),
    ({"k": 2, "entries": [0, 1]}, 0),
    ([0, 1], 0),
    ({"entries": [0, 1], "kk": 3}, 3),
    ({"k": 3, "entries": [0, 1]}, 3),
])
def test_vector_keys(capsys, tmp_path, x0, code):
    (tmp_path / "ring.json").write_text(json.dumps(RING))
    argv = ["simulate", "--dist", str(tmp_path / "ring.json"), "--horizon", "2", "--seed", "0"]
    assert run(capsys, tmp_path, argv, x0, "--x0")[0] == code
