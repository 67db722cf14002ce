"""Max-plus scalars, vectors, and matrices.

Scalars live in (R u {eps}, max, +) where eps, the additive identity, is
absorbing for + and neutral for max. Two backings are supported: "exact"
(``fractions.Fraction`` entries, equality is exact) and "float". A value
never mixes backings; operations on mixed operands are rejected.

eps is modelled as ``None``, a distinguished variant rather than a numeric
sentinel. Products run on the array kernel of ``arrays``, which scales exact
operands to integers and holds them exactly, so no exact result is rounded;
a float product whose sums pass the float64 range raises ContractViolation.
All containers are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Optional, Union

EXACT = "exact"
FLOAT = "float"

EPS = None
Scalar = Optional[Union[Fraction, float]]


class MaxPlusError(Exception):
    """Base class for library errors."""


class ContractViolation(MaxPlusError):
    """Input outside an operation's contract (shape, backing, precondition)."""


class BudgetExceeded(MaxPlusError):
    """An iterative operation hit its budget before reaching a conclusion."""


def zero(backing: str) -> Scalar:
    """Multiplicative identity e (the ordinary 0) in the requested backing."""
    return Fraction(0) if backing == EXACT else 0.0


# the digits Python reads into an int from a str by default
MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    """Fraction(text), reading a "p/q" or integer spelling of plain digits
    with int(), which skips Fraction's regex; any other spelling, and a
    digit that int() does not take, goes to Fraction. A decimal exponent
    beyond MAX_EXPONENT is a ValueError: Fraction would build 10**exponent,
    which for "1e1000000000000" takes no end of time and memory."""
    num, slash, den = text.partition("/")
    if num.lstrip("+-").isdigit() and (den.isdigit() or not slash):
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except ValueError:
            pass
    _, e, exp = text.replace("E", "e").rpartition("e")
    if e and exp.lstrip("+-").replace("_", "").isdigit() and abs(int(exp)) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT}: {text!r}")
    return Fraction(text)


def as_scalar(value, backing: str) -> Scalar:
    """Coerce a user-supplied entry to a scalar of the given backing.

    Accepts eps (``None`` or the string ``"-inf"``), ints, Fractions, and
    "p/q" strings; floats are accepted only by the float backing.
    """
    if value is EPS:
        return EPS
    raw = value
    if isinstance(value, str):
        text = value.strip()
        if text == "-inf":
            return EPS
        try:
            value = _fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ContractViolation(f"not a max-plus scalar: {raw!r}") from None
    if isinstance(value, bool):
        raise ContractViolation(f"bool is not a max-plus scalar: {value!r}")
    if backing == EXACT:
        if not isinstance(value, (int, Fraction)):
            raise ContractViolation(
                f"exact backing accepts int, Fraction or 'p/q' strings, got {value!r}"
            )
        return value if type(value) is Fraction else Fraction(value)
    if backing == FLOAT:
        try:
            out = float(value)
        except OverflowError:
            raise ContractViolation(f"float entry out of range: {raw!r}") from None
        except TypeError:
            raise ContractViolation(f"not a max-plus scalar: {raw!r}") from None
        if math.isnan(out) or math.isinf(out):
            raise ContractViolation("float entries must be finite; eps is None or '-inf'")
        return out
    raise ContractViolation(f"unknown backing {backing!r}")


def parse_table(parse: Callable, *args) -> Callable:
    """A reader of value as parse(value, *args), run once per distinct
    entry of one JSON document: the table lives as long as the reader. It
    is keyed on (type, value), so True and 1 stay apart; floats are parsed
    every time, since -0.0 == 0.0 and float() is cheap, and an unhashable
    entry goes straight to parse, which rejects it."""
    table = {}

    def read(value):
        kind = type(value)
        if kind is float:
            return parse(value, *args)
        try:
            out = table.get((kind, value), table)
        except TypeError:
            return parse(value, *args)
        if out is table:
            out = table[kind, value] = parse(value, *args)
        return out

    return read


def oplus(a: Scalar, b: Scalar) -> Scalar:
    """max, with eps neutral."""
    if a is EPS:
        return b
    if b is EPS:
        return a
    return a if a >= b else b


def otimes(a: Scalar, b: Scalar) -> Scalar:
    """+, with eps absorbing."""
    if a is EPS or b is EPS:
        return EPS
    return a + b


def _coerce_backing(backing: str) -> str:
    if backing not in (EXACT, FLOAT):
        raise ContractViolation(f"backing must be {EXACT!r} or {FLOAT!r}, got {backing!r}")
    return backing


@dataclass(frozen=True)
class Vector:
    """Immutable max-plus vector; entries are scalars of one backing."""

    entries: tuple
    backing: str

    @staticmethod
    def make(entries: Iterable, backing: str = EXACT) -> "Vector":
        backing = _coerce_backing(backing)
        tup = tuple(map(parse_table(as_scalar, backing), entries))
        if not tup:
            raise ContractViolation("empty vector")
        return Vector(tup, backing)

    def __len__(self) -> int:
        return len(self.entries)

    def is_finite(self) -> bool:
        return all(v is not EPS for v in self.entries)

    def to_float(self) -> "Vector":
        return Vector(
            tuple(EPS if v is EPS else float(v) for v in self.entries), FLOAT
        )

    def __repr__(self) -> str:  # keep pytest output readable
        body = ", ".join("eps" if v is EPS else str(v) for v in self.entries)
        return f"Vector([{body}], {self.backing})"


@dataclass(frozen=True)
class Matrix:
    """Immutable square max-plus matrix (tuple of row tuples)."""

    rows: tuple
    backing: str

    @staticmethod
    def make(rows: Iterable[Iterable], backing: str = EXACT, read: Optional[Callable] = None) -> "Matrix":
        """read parses the entries: the parse_table of as_scalar that serves
        the whole JSON document, or as_scalar on backing."""
        return matrix_from_json({"entries": rows}, backing, read)

    @staticmethod
    def identity(k: int, backing: str = EXACT) -> "Matrix":
        e = zero(backing)
        return Matrix(
            tuple(tuple(e if i == j else EPS for j in range(k)) for i in range(k)),
            backing,
        )

    @property
    def k(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def row_finite_violation(self) -> Optional[int]:
        """Index of the first all-eps row, or None when every row has a finite entry."""
        for i, row in enumerate(self.rows):
            if all(v is EPS for v in row):
                return i
        return None

    def all_finite(self) -> bool:
        return all(v is not EPS for row in self.rows for v in row)

    def eps_pattern(self) -> tuple:
        """Boolean pattern, True where the entry is finite."""
        return tuple(tuple(v is not EPS for v in row) for row in self.rows)

    def to_float(self) -> "Matrix":
        return Matrix(
            tuple(
                tuple(EPS if v is EPS else float(v) for v in row) for row in self.rows
            ),
            FLOAT,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join("eps" if v is EPS else str(v) for v in row) for row in self.rows
        )
        return f"Matrix({self.k}x{self.k} {self.backing} [{body}])"


def _require_same_backing(a, b, what: str) -> None:
    if a.backing != b.backing:
        raise ContractViolation(
            f"{what}: mixed backings {a.backing!r} and {b.backing!r}"
        )


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """(A otimes B)_ij = max_l (A_il + B_lj)."""
    _require_same_backing(A, B, "mat_mul")
    if A.k != B.k:
        raise ContractViolation(f"mat_mul: dimension mismatch {A.k} vs {B.k}")
    from .arrays import _operands, _scalars, _times

    L, (a, b), _, eps, clamp = _operands((A, B), (), 2)
    return Matrix(_scalars(_times(a, b, clamp), eps, L), A.backing)


def mat_vec(A: Matrix, x: Vector) -> Vector:
    """(A otimes x)_i = max_j (A_ij + x_j)."""
    _require_same_backing(A, x, "mat_vec")
    if A.k != len(x):
        raise ContractViolation(f"mat_vec: dimension mismatch {A.k} vs {len(x)}")
    from .arrays import _operands, _scalars, _times

    L, (a,), (v,), eps, clamp = _operands((A,), (x,), 2)
    return Vector(_scalars(_times(a, v, clamp), eps, L), A.backing)


def mat_oplus(A: Matrix, B: Matrix) -> Matrix:
    """Entrywise max."""
    _require_same_backing(A, B, "mat_oplus")
    if A.k != B.k:
        raise ContractViolation(f"mat_oplus: dimension mismatch {A.k} vs {B.k}")
    return Matrix(
        tuple(
            tuple(oplus(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(A.rows, B.rows)
        ),
        A.backing,
    )


def mat_power(A: Matrix, n: int) -> Matrix:
    """n-th otimes power by repeated squaring from the identity E = A^0, in
    one fixed order: float otimes is not associative, and E A turns -0.0 to 0.0."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ContractViolation(f"mat_power: exponent must be an int, got {n!r}")
    if n < 0:
        raise ContractViolation("mat_power: negative exponent")
    from .arrays import _operands, _scalars, _times

    L, (result, base), _, eps, clamp = _operands((Matrix.identity(A.k, A.backing), A), (), n + 1)
    while n:
        if n & 1:
            result = _times(result, base, clamp)
        n >>= 1
        if n:
            base = _times(base, base, clamp)
    return Matrix(_scalars(result, eps, L), A.backing)


def scale_matrix(c, A: Matrix) -> Matrix:
    """c otimes A, c a finite scalar."""
    c = as_scalar(c, A.backing)
    if c is EPS:
        raise ContractViolation("scale_matrix: scaling by eps is not useful")
    return Matrix(
        tuple(tuple(EPS if v is EPS else v + c for v in row) for row in A.rows),
        A.backing,
    )


def scale_vector(c, x: Vector) -> Vector:
    c = as_scalar(c, x.backing)
    if c is EPS:
        raise ContractViolation("scale_vector: scaling by eps is not useful")
    return Vector(
        tuple(EPS if v is EPS else v + c for v in x.entries), x.backing
    )


def _integers(values) -> tuple:
    """(L, the scalars values times L as Python ints, eps kept) for L the
    lcm of their denominators; a float counts as the exact dyadic rational
    it denotes."""
    values = [Fraction(v) if type(v) is float else v for v in values]
    L = math.lcm(*{v.denominator for v in values if v is not EPS})
    return L, [EPS if v is EPS else v.numerator * (L // v.denominator) for v in values]


# ---------------------------------------------------------------------------
# JSON serialization. Matrices travel as {"k": int, "entries": [[...]]} with
# eps written "-inf" and non-integral rationals written "p/q".


def scalar_to_json(v: Scalar):
    if v is EPS:
        return "-inf"
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return float(v)


def matrix_to_json(A: Matrix) -> dict:
    return {
        "k": A.k,
        "entries": [[scalar_to_json(v) for v in row] for row in A.rows],
    }


def reject_unknown_keys(obj: dict, allowed, what: str, hint: str = "") -> None:
    """ContractViolation when the JSON object obj has a key outside allowed."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ContractViolation(f"{what}: unknown keys {unknown}{hint}")


def _matrix_table(obj, backing: str, read: Optional[Callable] = None) -> tuple:
    """(values, index) of the JSON matrix object obj: the distinct entries,
    each parsed once by read (as_scalar on backing by default) in row-major
    order, keyed on (type, value) as in parse_table and never shared by a
    float; and the rows with each entry replaced by the position of its value."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ContractViolation('matrix JSON must be {"k": ..., "entries": [[...]]}')
    reject_unknown_keys(obj, ("k", "entries"), "matrix JSON")
    backing, rows = _coerce_backing(backing), obj["entries"]
    read = read or partial(as_scalar, backing=backing)
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
        raise ContractViolation("matrix entries must be an array of row arrays")
    table, values, index = {}, [], []
    get = table.get
    for row in rows:
        slots = []
        for v in row:
            kind = type(v)
            key = v if kind is str else (kind, v)  # a str equals no other type
            try:
                n = None if kind is float else get(key)
            except TypeError:  # unhashable: never a scalar, so read rejects it
                n = None
            if n is None:
                n = len(values)
                values.append(read(v))
                if kind is not float:
                    table[key] = n
            slots.append(n)
        index.append(slots)
    k = len(index)
    if k == 0 or any(len(row) != k for row in index):
        raise ContractViolation("matrix must be square and non-empty")
    if "k" in obj and obj["k"] != k:
        raise ContractViolation(f'matrix JSON: declared k={obj["k"]} but entries are {k}x{k}')
    return values, index


def matrix_from_json(obj, backing: str = EXACT, read: Optional[Callable] = None) -> Matrix:
    values, index = _matrix_table(obj, backing, read)
    return Matrix(tuple(tuple(map(values.__getitem__, row)) for row in index), backing)


def vector_from_json(obj, backing: str = EXACT) -> Vector:
    declared = None
    if isinstance(obj, dict) and "entries" in obj:
        reject_unknown_keys(obj, ("k", "entries"), "vector JSON")
        declared, obj = obj.get("k"), obj["entries"]
    if not isinstance(obj, list):
        raise ContractViolation("vector JSON must be an array (or {'entries': [...]})")
    v = Vector.make(obj, backing)
    if declared is not None and declared != len(v):
        raise ContractViolation(
            f"vector JSON: declared k={declared} but there are {len(v)} entries"
        )
    return v
