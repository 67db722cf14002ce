"""The array loaders of the spectral readers give what the Matrix path of
the reference kernel gives: the same lcm L, dtype, eps and integer array as
``int_stack(scale_to_integers(matrix_from_json(obj)))``, or the same
ContractViolation message. They are the one-pass loader of the spectral
commands, ``spectral._int_matrix``, and ``spectral._scaled``, which scales
a Matrix for the public readers. The spectral and power commands build no
Matrix on the way. The paths share their parse of the distinct entries
(``semiring._matrix_table``), which ``test_scalar_parse.py`` checks against
a per-entry parse; this file checks what the loaders do after it."""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import cli, semiring, spectral
from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    matrix_from_json,
)
from reference_kernel import int_stack, scale_to_integers

BIG = 2**61 - 1  # a denominator whose lcm takes the record past float64


def outcome(fn, *args):
    """("ok", result) or ("error", message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except ContractViolation as exc:
        return "error", str(exc)


def reference(obj, backing):
    A = matrix_from_json(obj, backing)
    L, (B,), _ = scale_to_integers((A,))
    (B,), eps, _ = int_stack([B], spectral._reach(A.k))
    # the lcm once more, from the parsed entries, independently of the scaling
    assert L == math.lcm(*{Fraction(v).denominator for row in A.rows for v in row if v is not EPS})
    return L, B.dtype, eps, B.tolist()


def loaded(obj, backing):
    L, B, eps, _ = spectral._int_matrix(obj, backing)
    return L, B.dtype, eps, B.tolist()


def scaled(obj, backing):
    L, B, eps, _ = spectral._scaled(matrix_from_json(obj, backing))
    return L, B.dtype, eps, B.tolist()


spellings = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=6).map("{0.numerator}/{0.denominator}".format),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "+", "-"]), st.integers(0, 99),
              st.sampled_from(["", "/3", "/1", "/4 ", ".5", "e1", "E-2", " "])),
    st.sampled_from(["-inf", " -inf ", None, "1_000/7", "-0", "0/5", "007", "1.25e2"]),
    st.sampled_from(["3/0", "x", "", "nan", "inf", "1/2/3", "1e99999", [1], {"a": 1}, []]),
    st.sampled_from([1, 1.0, True, False, 0.0, -0.0, 2.5, 1e308, float("nan")]),
    st.sampled_from([f"1/{BIG}", f"-5/{3 * BIG}", str(2**70), 2**1100, f"{2**1100 + 1}/3"]),
)


@st.composite
def documents(draw):
    """A JSON matrix object whose k x k entries come from a small pool, so
    that values repeat; now and then a ragged or non-list row, entries that
    are not an array, or a wrong declared k."""
    pool = draw(st.lists(spellings, min_size=1, max_size=5))
    pool += draw(st.sampled_from([[], [], [1, 1.0, True], [None, "-inf"], [0.0, -0.0]]))
    k = draw(st.integers(1, 4))
    entries = [[draw(st.sampled_from(pool)) for _ in range(k)] for _ in range(k)]
    shape = draw(st.sampled_from(["square"] * 12 + ["ragged", "row", "entries"]))
    if shape == "ragged":
        entries[-1] = entries[-1][:-1]
    elif shape == "row":
        entries[draw(st.integers(0, k - 1))] = draw(st.sampled_from([5, "0", None]))
    elif shape == "entries":
        entries = draw(st.sampled_from([[], 5, "[[0]]"]))
    obj = {"entries": entries}
    declared = draw(st.sampled_from([None] * 3 + [k] * 3 + [k + 1, str(k)]))
    if declared is not None:
        obj["k"] = declared
    return obj


@settings(max_examples=600, deadline=None)
@given(documents(), st.sampled_from([EXACT, FLOAT]))
@example({"entries": [["1/2", "-inf", 3], [None, "-4/3", "1/2"], [3, 0, "-inf"]]}, EXACT)
@example({"entries": [[f"1/{BIG}", "-2/3", None], [None, 5, 0], [1, "1/3", f"-7/{3 * BIG}"]]}, EXACT)
@example({"entries": [[str(2**1100 + 1), 0], [0, -1]]}, EXACT)
@example({"entries": [[1, 1.0], [True, 0]]}, FLOAT)
@example({"entries": [[1.0, 1], [True, 0]]}, EXACT)
@example({"entries": [[-0.0, 0.0], [0.0, -0.0]]}, FLOAT)
@example({"entries": [[0.1, -0.0], [None, 1e-300]]}, FLOAT)
@example({"entries": [[0.75, 2.5], [-0.125, None]]}, FLOAT)
@example({"entries": [[1e308, 1.0], [5e-324, 0.0]]}, FLOAT)
@example({"entries": [[1, [2]], [{"a": 1}, 0]]}, EXACT)
@example({"entries": [[1, "x"], [3]]}, EXACT)
@example({"entries": [[0, 1], 5]}, EXACT)
@example({"k": 3, "entries": [[0, 1], [1, 0]]}, EXACT)
@example({"k": 2, "entries": [[0, 1], [1, 0]], "x": 1}, EXACT)
@example({"entries": [["-inf", None], [None, "-inf"]]}, EXACT)
def test_loader_matches_the_matrix_path(obj, backing):
    want = outcome(reference, obj, backing)
    assert outcome(loaded, obj, backing) == want
    assert outcome(scaled, obj, backing) == want


def test_non_object_documents_match_the_matrix_path():
    for obj in ([[0, 1], [1, 0]], None, "m", {"k": 1}):
        assert outcome(loaded, obj, EXACT) == outcome(reference, obj, EXACT)


def test_spectral_commands_build_no_matrix(tmp_path, monkeypatch, capsys, count_calls):
    """The spectral and power commands go from JSON to the integer array
    without a per-entry Fraction pass: no Matrix.make, no
    matrix_from_json. The public readers, which take a Matrix, still
    count, so the guard sees the path it forbids."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"k": 3, "entries": [
        ["1/2", "-inf", 3], [0, "-4/3", "1/2"], [3, 0, "-inf"]]}))
    calls = count_calls(semiring, "matrix_from_json")
    make = Matrix.make

    def counting_make(*args, **kwargs):
        calls["Matrix.make"] += 1
        return make(*args, **kwargs)

    monkeypatch.setattr(Matrix, "make", staticmethod(counting_make))
    for argv in (["spectral", "--transient"], ["power"], ["spectral", "--backing", "float"]):
        assert cli.main([argv[0], "--input", str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert not calls
    spectral.classify(Matrix.make([[0, 1], [1, 0]]), with_transient=True)
    assert calls["Matrix.make"] == 1
