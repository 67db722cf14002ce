"""The one-matrix public API on the array kernel against the per-entry
routines of ``reference_kernel``, on both backings.

Each test draws operands and requires the same outcome from both sides:
the same values with the same scalar types and signs of zero (the int 0
of an exact zero diameter against ``Fraction``, 0.0 against -0.0), or the
same ``ContractViolation`` with the same message. The draws cover eps
entries and all-eps rows and columns, tied signed zeros, exact entries
whose denominators push the scaled integers past 2**53 onto object
arrays, float matrices one rounding away from rank one, and operands of
mismatched dimension or backing.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference_kernel as reference
from maxplus import arrays, projective, semiring, spectral, stochastic
from maxplus.projective import ProjVector
from maxplus.semiring import EPS, EXACT, FLOAT, ContractViolation, Matrix, Vector
from maxplus.stochastic import FiniteSupport

PUBLIC = {
    name: getattr(module, name)
    for module, names in (
        (semiring, "mat_mul mat_vec mat_power"),
        (projective, "is_rank_one matrix_proj_normal proj_diameter"),
        (spectral, "span_membership weak_rank"),
        (stochastic, "word_product"),
    )
    for name in names.split()
}


def shape(x):
    """x with every scalar as (type name, repr) and every container tagged
    with its kind and backing."""
    if isinstance(x, Matrix):
        return "Matrix", x.backing, shape(x.rows)
    if isinstance(x, (Vector, ProjVector)):
        return type(x).__name__, x.backing, shape(x.entries)
    if isinstance(x, tuple):
        return tuple(map(shape, x))
    return type(x).__name__, repr(x)


def outcome(fn, *args):
    try:
        return "value", shape(fn(*args))
    except ContractViolation as e:
        return "error", str(e)


def agree(name, *args):
    assert outcome(PUBLIC[name], *args) == outcome(getattr(reference, name), *args)


# two large primes: entries over both scale to integers past 2**53
_BIG = (2147483647, 2147483629)
ZEROS = "zeros"

SCALARS = {
    EXACT: st.one_of(
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-(2**40), 2**40), st.sampled_from(_BIG)),
    ),
    FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 0.7, 3.4, 4.0, 0.1000000000000001]),
        st.floats(-64, 64),
    ),
    # float entries whose maxima are mostly tied signed zeros
    ZEROS: st.sampled_from([0.0, -0.0, -1.0]),
}
BACKING = {EXACT: EXACT, FLOAT: FLOAT, ZEROS: FLOAT}
OTHER = {EXACT: FLOAT, FLOAT: EXACT, ZEROS: EXACT}
palettes = st.sampled_from([EXACT, FLOAT, ZEROS])


def entries(draw, n, palette, eps=True):
    entry = st.one_of(st.none(), SCALARS[palette], SCALARS[palette]) if eps else SCALARS[palette]
    return draw(st.lists(entry, min_size=n, max_size=n))


@st.composite
def matrices(draw, k=None, palette=None, eps=True):
    """A k x k matrix, sometimes with an all-eps row or column."""
    k = draw(st.integers(1, 4)) if k is None else k
    palette = draw(palettes) if palette is None else palette
    rows = [entries(draw, k, palette, eps) for _ in range(k)]
    blank, i = draw(st.sampled_from(["", "", "row", "col"])), draw(st.integers(0, k - 1))
    if blank == "row":
        rows[i] = [EPS] * k
    elif blank == "col":
        for row in rows:
            row[i] = EPS
    return Matrix.make(rows, BACKING[palette])


@st.composite
def near_rank_one(draw):
    """The outer sum of two vectors, u_i + o_j in the backing's arithmetic,
    eps where either is: rank one, up to float rounding."""
    k, backing = draw(st.integers(1, 4)), draw(st.sampled_from([EXACT, FLOAT]))
    tenths = st.integers(-50, 50).map(lambda n: n / 10 if backing == FLOAT else Fraction(n, 10))
    u, o = (draw(st.lists(st.one_of(st.none(), tenths), min_size=k, max_size=k)) for _ in "uo")
    return Matrix.make([[EPS if a is EPS or b is EPS else a + b for b in o] for a in u], backing)


def test_large_denominators_run_on_object_arrays():
    A = Matrix.make([[Fraction(1, _BIG[0]), Fraction(2**40, _BIG[1])], ["1/3", 3]], EXACT)
    assert arrays._operands((A,), (), 2)[1].dtype == object
    for name, *args in (("mat_mul", A, A), ("mat_power", A, 5), ("is_rank_one", A),
                        ("matrix_proj_normal", A), ("proj_diameter", A), ("weak_rank", A)):
        agree(name, *args)


@st.composite
def pairs(draw):
    """(A, k, palette): a matrix, and the dimension and palette of a second
    operand, one time in ten another than A's."""
    k, palette = draw(st.integers(1, 4)), draw(palettes)
    A = draw(matrices(k, palette))
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(1, 4))
    if draw(st.integers(0, 9)) == 0:
        palette = OTHER[palette]
    return A, k, palette


@settings(max_examples=200, deadline=None)
@given(pairs(), st.data())
def test_mat_mul(pair, data):
    A, k, palette = pair
    agree("mat_mul", A, data.draw(matrices(k, palette)))


@settings(max_examples=200, deadline=None)
@given(pairs(), st.data())
def test_mat_vec(pair, data):
    A, k, palette = pair
    agree("mat_vec", A, Vector.make(entries(data.draw, k, palette), BACKING[palette]))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 9))
def test_mat_power(A, n):
    agree("mat_power", A, n)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), near_rank_one()))
def test_is_rank_one(A):
    agree("is_rank_one", A)


def test_is_rank_one_keeps_the_column_differences():
    # 0.7000000000000001 - 0.1000000000000001 != 4.0 - 3.4 in float64,
    # though the normal form, minus 4.0, would read rank one
    A = Matrix.make([[0.1000000000000001, 0.7000000000000001], [3.4, 4.0]], FLOAT)
    assert reference.is_rank_one(A) is False
    agree("is_rank_one", A)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), near_rank_one()))
def test_matrix_proj_normal(A):
    agree("matrix_proj_normal", A)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(matrices(), matrices(eps=False), near_rank_one()),
    st.sampled_from(["exact", "exact", "sampled", "both"]),
    st.integers(1, 6),
    st.integers(0, 3),
)
def test_proj_diameter(A, mode, samples, seed):
    agree("proj_diameter", A, mode, samples, seed)


def test_proj_diameter_zero_is_the_int_zero_on_exact():
    A = Matrix.make([[0, 1], [2, 3]], EXACT)
    assert shape(PUBLIC["proj_diameter"](A)) == ("int", "0")
    agree("proj_diameter", A)
    agree("proj_diameter", A.to_float())


@st.composite
def spans(draw):
    """(cols, b): 0..4 columns of one dimension and backing, one time in ten
    of another, and b either drawn or a max-plus combination of them."""
    k, palette = draw(st.integers(1, 4)), draw(palettes)
    backing = BACKING[palette]
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        kk = draw(st.integers(1, 4)) if draw(st.integers(0, 9)) == 0 else k
        pp = OTHER[palette] if draw(st.integers(0, 9)) == 0 else palette
        cols.append(Vector.make(entries(draw, kk, pp), BACKING[pp]))
    if cols and draw(st.booleans()) and all(len(c) == k and c.backing == backing for c in cols):
        alphas = entries(draw, len(cols), palette)
        terms = [[a + c.entries[i] for a, c in zip(alphas, cols) if a is not EPS and c.entries[i] is not EPS]
                 for i in range(k)]
        return cols, Vector.make([max(t) if t else EPS for t in terms], backing)
    return cols, Vector.make(entries(draw, k, palette), backing)


@settings(max_examples=300, deadline=None)
@given(spans())
def test_span_membership(span):
    agree("span_membership", *span)


def test_signed_zero_ties_keep_the_first():
    Z, N = 0.0, -0.0

    def F(rows):
        return Matrix.make(rows, FLOAT)

    def V(entries):
        return Vector.make(entries, FLOAT)

    # each tie is between a -0.0 and a later 0.0, which numpy's max and
    # min would not keep
    assert shape(reference.span_membership([V([Z, Z])], V([N, Z]))) == (("float", "-0.0"),)
    agree("span_membership", [V([Z, Z])], V([N, Z]))
    agree("mat_mul", F([[N, Z], [N, N]]), F([[N, N], [Z, N]]))
    agree("mat_vec", F([[N, Z], [Z, N]]), V([N, Z]))
    agree("matrix_proj_normal", F([[N, Z], [-1.0, N]]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), near_rank_one()))
def test_weak_rank(A):
    agree("weak_rank", A)


@st.composite
def words(draw):
    k, palette = draw(st.integers(1, 3)), draw(palettes)
    mats = [draw(matrices(k, palette)) for _ in range(draw(st.integers(1, 3)))]
    D = FiniteSupport.make(mats, [Fraction(1, len(mats))] * len(mats))
    return D, draw(st.lists(st.integers(0, len(mats) - 1), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(words())
def test_word_product(case):
    agree("word_product", *case)
