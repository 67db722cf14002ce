"""The JSON loaders parse every entry as as_scalar (or, for probabilities,
_as_probability) would on its own: the same value, down to the type and
the sign of a zero, or the same ContractViolation message. The reference
is the per-entry parse, kept here as it stood before the loaders shared
one parse table per document."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    matrix_from_json,
    vector_from_json,
)
from maxplus.stochastic import FiniteSupport, _as_probability, distribution_from_json


# README "File formats": a decimal exponent past this is rejected, since
# Fraction("1e1000000000000") would build 10**exponent
MAX_EXPONENT = 4300
DECIMAL = re.compile(r"[-+]?(?=\d|\.\d)(\d*|\d+(_\d+)*)(\.(\d*|\d+(_\d+)*))?"
                     r"E(?P<exp>[-+]?\d+(_\d+)*)", re.IGNORECASE)


def decimal_exponent(text):
    """The exponent of a decimal spelling that Fraction reads, else 0."""
    m = DECIMAL.fullmatch(text)
    return int(m["exp"]) if m else 0


def reference_as_scalar(value, backing):
    """semiring.as_scalar, entry by entry."""
    if value is EPS:
        return EPS
    raw = value
    if isinstance(value, str):
        if value.strip() == "-inf":
            return EPS
        try:
            if abs(decimal_exponent(value.strip())) > MAX_EXPONENT:
                raise ValueError(value)
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ContractViolation(f"not a max-plus scalar: {raw!r}") from None
    if isinstance(value, bool):
        raise ContractViolation(f"bool is not a max-plus scalar: {value!r}")
    if backing == EXACT:
        if not isinstance(value, (int, Fraction)):
            raise ContractViolation(
                f"exact backing accepts int, Fraction or 'p/q' strings, got {value!r}"
            )
        return Fraction(value)
    try:
        out = float(value)
    except OverflowError:
        raise ContractViolation(f"float entry out of range: {raw!r}") from None
    except TypeError:
        raise ContractViolation(f"not a max-plus scalar: {raw!r}") from None
    if math.isnan(out) or math.isinf(out):
        raise ContractViolation("float entries must be finite; eps is None or '-inf'")
    return out


def canon(v):
    """A value with its type and, for floats, its sign and bits."""
    if isinstance(v, float):
        return "float", v.hex()
    if isinstance(v, Fraction):
        return "Fraction", v.numerator, v.denominator
    return type(v).__name__, v


def outcome(fn, *args):
    """("ok", result) or ("error", message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except ContractViolation as exc:
        return "error", str(exc)


def reference_matrix(entries, backing):
    rows = [[canon(reference_as_scalar(v, backing)) for v in row] for row in entries]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ContractViolation("matrix must be square and non-empty")
    return rows


def loaded_matrix(entries, backing):
    return [list(map(canon, row)) for row in matrix_from_json({"entries": entries}, backing).rows]


PADS = ["", " ", "\t", "\n ", " ", "\x1c"]
SIGNS = ["", "", "-", "+", "--", "+-"]
digits = st.one_of(
    st.integers(0, 99).map(str),
    st.integers(0, 10**40).map(str),
    st.from_regex(r"\A[0-9]{1,3}(_[0-9]{1,3}){0,2}\Z"),
    st.sampled_from(["", "0", "00", "007", "1__0", "_1", "1_", "١٢", "½", "²", "0x10"]),
)
bodies = st.one_of(
    digits,
    st.builds("{}/{}".format, digits, digits),
    st.builds("{}{}/{}{}{}".format, digits, st.sampled_from(PADS), st.sampled_from(PADS),
              st.sampled_from(SIGNS), digits),
    st.builds("{}.{}".format, digits, digits),
    st.builds("{}{}{}{}".format, digits, st.sampled_from(["e", "E", ".5e"]),
              st.sampled_from(SIGNS), digits),
    st.sampled_from(["-inf", "inf", "nan", "Infinity", "3/0", "0/0", "/", "1/", "/2",
                     "1/2/3", "1 2", ".5", "5.", "1e-3", "1.5", "1e", "e3", "eps", "None"]),
    st.text(max_size=6),
)
scalar_strings = st.builds("{}{}{}{}".format, st.sampled_from(PADS), st.sampled_from(SIGNS),
                           bodies, st.sampled_from(PADS))
values = st.one_of(
    scalar_strings,
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, "1e400", 2**1100]),
    st.fractions(max_denominator=10),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3), max_size=1),
)


@st.composite
def documents(draw):
    """A k x k entry array drawn from a small pool, so that values repeat;
    now and then ragged or empty."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    pool += draw(st.sampled_from([[], [0.0, -0.0], [True, 1], [1, 1.0, "1"], [None, "-inf"]]))
    k = draw(st.integers(1, 3))
    entries = [[draw(st.sampled_from(pool)) for _ in range(k)] for _ in range(k)]
    if draw(st.integers(0, 9)) == 0:
        entries[-1] = entries[-1][:-1]
    return entries


@settings(max_examples=400, deadline=None)
@given(documents(), st.sampled_from([EXACT, FLOAT]))
@example([[0.0, -0.0], [-0.0, 0.0]], FLOAT)
@example([[True, 1], [1, 0]], EXACT)
@example([["3/0", 1], [1, 1]], EXACT)
@example([[" -inf ", "1_000/3"], ["-1e-3", "1" * 5000]], EXACT)
@example([["1.5", [1]], [{"a": 1}, 2]], FLOAT)
@example([["1e1000000000000", "1e-4301"], ["1e4300", " 1E-4300"]], EXACT)
@example([["1e1000000000000", "1e-4301"], ["1e4300", " 1E-4300"]], FLOAT)
def test_matrix_from_json_parses_as_each_entry_alone(entries, backing):
    assert outcome(loaded_matrix, entries, backing) == outcome(reference_matrix, entries, backing)


@settings(max_examples=200, deadline=None)
@given(documents(), st.sampled_from([EXACT, FLOAT]))
def test_vector_from_json_parses_as_each_entry_alone(entries, backing):
    flat = [v for row in entries for v in row]

    def loaded():
        return list(map(canon, vector_from_json(flat, backing).entries))

    def reference():
        out = [canon(reference_as_scalar(v, backing)) for v in flat]
        if not out:
            raise ContractViolation("empty vector")
        return out

    assert outcome(loaded) == outcome(reference)


probabilities = st.one_of(
    st.sampled_from(["1/2", " 1/2", "1/3", "2/3", "0.5", "1", 1, 0, True, 0.5, -0.0, 0.0,
                     "1/0", "x", None, [1]]),
    st.floats(0, 1),
    st.fractions(0, 1, max_denominator=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(probabilities, min_size=2, max_size=2),
       st.one_of(st.none(), st.lists(st.lists(probabilities, min_size=2, max_size=2),
                                     min_size=2, max_size=2)),
       st.sampled_from([EXACT, FLOAT]))
@example(["1/2", "1/2"], [["1/2", "1/2"], ["1/2", "1/2"]], EXACT)
@example([0.5, 0.5], [[1, 0.0], [-0.0, 1]], FLOAT)
def test_distribution_from_json_parses_each_probability_alone(probs, kernel, backing):
    entries = [[[1, "1/2"], ["-inf", 0]], [["1/2", 1], [0, "-inf"]]]
    obj = {"kind": "finite", "backing": backing,
           "support": [{"matrix": {"entries": m}, "probability": p}
                       for m, p in zip(entries, probs)]}
    if kernel is not None:
        obj["kernel"] = kernel

    def flat(D):
        return ([list(map(canon, row)) for M in D.matrices for row in M.rows],
                list(map(canon, D.probabilities)),
                None if D.kernel is None else [list(map(canon, row)) for row in D.kernel])

    def reference():
        # FiniteSupport.make checks the probabilities before it parses the
        # kernel; _as_probability returns a parsed value unchanged
        mats = [Matrix.make(m, backing) for m in entries]
        ps = [_as_probability(p) for p in probs]
        FiniteSupport.make(mats, ps)
        rows = None if kernel is None else [[_as_probability(p) for p in row] for row in kernel]
        return flat(FiniteSupport.make(mats, ps, rows))

    assert outcome(lambda: flat(distribution_from_json(obj))) == outcome(reference)


def test_int_and_bool_entries_stay_apart():
    with pytest.raises(ContractViolation, match="bool is not a max-plus scalar: True"):
        matrix_from_json({"entries": [[1, True], [1, 1]]}, EXACT)
    M = matrix_from_json({"entries": [[0.0, -0.0], [-0.0, 0.0]]}, FLOAT)
    assert [[math.copysign(1, v) for v in row] for row in M.rows] == [[1, -1], [-1, 1]]


# the spellings that README.md "File formats" lists: (entry, exact, float)
REJECT = "rejected"
SPELLINGS = [
    (3, Fraction(3), 3.0),
    (None, EPS, EPS),
    ("-inf", EPS, EPS),
    (" -inf ", EPS, EPS),
    ("3", Fraction(3), 3.0),
    ("-7/2", Fraction(-7, 2), -3.5),
    ("0.5", Fraction(1, 2), 0.5),
    ("1e-3", Fraction(1, 1000), 0.001),
    ("1_000", Fraction(1000), 1000.0),
    (" 3/4 ", Fraction(3, 4), 0.75),
    ("1/-2", REJECT, REJECT),
    ("1 / 2", REJECT, REJECT),
    ("3/0", REJECT, REJECT),
    ("inf", REJECT, REJECT),
    (0.5, REJECT, 0.5),
    (-0.0, REJECT, -0.0),
    (float("inf"), REJECT, REJECT),
    (2**1100, Fraction(2**1100), REJECT),
    ("1e400", Fraction(10**400), REJECT),
    ("1e-4300", Fraction(1, 10**4300), 0.0),
    ("1e5000", REJECT, REJECT),
    ("1e1000000000000", REJECT, REJECT),
    (True, REJECT, REJECT),
    (False, REJECT, REJECT),
]


@pytest.mark.parametrize("entry, exact, flt", SPELLINGS)
def test_documented_spellings(entry, exact, flt):
    for backing, want in ((EXACT, exact), (FLOAT, flt)):
        got = outcome(lambda: canon(matrix_from_json({"entries": [[entry]]}, backing).rows[0][0]))
        if want is REJECT:
            assert got[0] == "error"
        else:
            assert got == ("ok", canon(want))
