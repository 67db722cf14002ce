"""Stochastic max-plus recursions x(n+1) = A(n) x(n).

Distributions over matrices come in two shapes: a finite support with iid
or Markov-modulated draws, and seeded generator callbacks for continuous
laws. Everything downstream is replayable: random streams are derived from
(seed, replication, channel) alone, and replications are independent units
reported in order, so reports do not depend on the ``threads`` argument,
which is accepted and has no effect. Exact rational models support coupling
certificates (windows whose matrix product is rank-one), projective-
semigroup pattern search, and structural condition checks; float models get
Monte-Carlo estimates and eta-coupling.

Each driver call (``simulate``, ``lyapunov_estimate``,
``forward_coupling``, ``backward_loynes``) and ``sample_sequence`` runs on
one walk (_Walk). It draws each replication's matrices on its own random
stream in (n, k, k) blocks: a finite support picks rows of its stacked
support by a block of uniforms, a generator draws a block through its
``sample_block(rng, n)`` or stacks n ``sample_fn`` calls. Blocks hold at
most ``_CHUNK`` matrices, so memory stays O(_CHUNK k^2) on long horizons;
drivers that stop early start from ``_FIRST_CHUNK`` and double. The
walk's block loop (``_Walk.blocks``) steps a group of independent
replications as one stack and owns their streams and the order of their
errors; the driver keeps its state update and tests every step of a block
at once. The loop writes each replication's block once, into one array in
the layout the driver's steps read (``_Walk.order``), and tests each
stacked generator block once for all-eps rows; the driver fails at the
step that would use such a matrix, and only the tail of a block cut short
is zero-filled. Both backings form a block's states one step at a time,
each from the one before, on the array kernel (``arrays._states``, on the
transposes for the backward scheme), through the walk's step
(``_Walk.states``).

Exact: each call scales the support, and the initial conditions, once by
L, the lcm of their entry denominators, into integer arrays
(``arrays._operands``, in _Walk). otimes is positively homogeneous, so
products are L times the rational ones, with the same projective classes,
rank-one tests and dedupe keys; distances are L times larger and are
compared with L times the exact threshold. Integer max-plus sums and
maxima are exact, so the values do not depend on the order in which the
products are formed. Every value that leaves the module is divided by L
again, and report matrices are products of the original support. The word
search expands a breadth-first level at a time on the same kernel. Under a
Markov kernel a letter may follow another when the exact transition
probability is positive, however small.

Float: float64 with -inf for eps, with the IEEE additions and maxima of the
one-matrix products: of tied signed zeros the first is kept, as Python's
``max`` does (``arrays._max_last``, which ``semiring.mat_vec`` and
``mat_mul`` share), so reports are bit for bit those of ``mat_vec`` and
``projective.proj_dist``, one step at a time.
Results leave the module as Python floats.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .arrays import (
    _FLOAT_EXACT,
    _as_object,
    _diameters,
    _matrix_of,
    _max_last,
    _negative_zero,
    _no_clamp,
    _normal,
    _operands,
    _pair_dists,
    _rank_one_flags,
    _scalars,
    _stack_keys,
    _stack_mul,
    _states,
    _times,
    _top,
)
from .graphs import _closure, graph_of, scc_decompose
from .projective import ProjVector, canonicalize
from .semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    _fraction,
    as_scalar,
    matrix_from_json,
    matrix_to_json,
    parse_table,
    reject_unknown_keys,
    scalar_to_json,
    zero,
)
from .spectral import _scs1cyc1_flags

DEFAULT_ETA = 1e-6
_Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# Distributions


def _as_probability(value):
    """Probabilities are Fractions when given exactly, floats otherwise."""
    if isinstance(value, bool):
        raise ContractViolation("bool is not a probability")
    try:
        if isinstance(value, str):
            value = _fraction(value.strip())
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if math.isfinite(value := float(value)):
            return value
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ContractViolation(f"not a probability: {value!r}")


def _check_sum(ps: tuple, what: str) -> None:
    """ContractViolation unless the probabilities ps sum to 1: exactly when
    all are Fractions, else within 1e-12."""
    if all(isinstance(p, Fraction) for p in ps):
        if sum(ps) != 1:
            raise ContractViolation(f"FiniteSupport: {what} must sum to 1 exactly")
    elif abs(sum(map(float, ps)) - 1.0) > 1e-12:
        raise ContractViolation(f"FiniteSupport: {what} must sum to 1 within 1e-12")


@dataclass(frozen=True)
class FiniteSupport:
    """Finitely many matrices A_l with probabilities p_l > 0.

    kernel is None for iid draws; otherwise a row-stochastic matrix over
    the support indices, and the index sequence is the stationary Markov
    chain it defines.
    """

    matrices: tuple
    probabilities: tuple
    kernel: Optional[tuple] = None

    @staticmethod
    def make(matrices, probabilities, kernel=None) -> "FiniteSupport":
        read = parse_table(_as_probability)  # shared by the probabilities and the kernel
        mats = tuple(matrices)
        if not mats:
            raise ContractViolation("FiniteSupport: empty support")
        k = mats[0].k
        backing = mats[0].backing
        for M in mats:
            if M.k != k:
                raise ContractViolation("FiniteSupport: mixed dimensions")
            if M.backing != backing:
                raise ContractViolation("FiniteSupport: mixed backings")
        probs = tuple(map(read, probabilities))
        if len(probs) != len(mats):
            raise ContractViolation("FiniteSupport: probabilities do not match support")
        if any((p <= 0) for p in probs):
            raise ContractViolation("FiniteSupport: probabilities must be positive")
        _check_sum(probs, "probabilities")
        knl = None
        if kernel is not None:
            rows = tuple(tuple(map(read, row)) for row in kernel)
            if len(rows) != len(mats) or any(len(r) != len(mats) for r in rows):
                raise ContractViolation("FiniteSupport: kernel shape must match support size")
            for row in rows:
                if any(p < 0 for p in row):
                    raise ContractViolation("FiniteSupport: kernel entries must be >= 0")
                _check_sum(row, "kernel rows")
            knl = rows
        return FiniteSupport(mats, probs, knl)

    @property
    def k(self) -> int:
        return self.matrices[0].k

    @property
    def backing(self) -> str:
        return self.matrices[0].backing

    @property
    def size(self) -> int:
        return len(self.matrices)

    def is_iid(self) -> bool:
        return self.kernel is None

    def to_float(self) -> "FiniteSupport":
        return FiniteSupport(
            tuple(M.to_float() for M in self.matrices),
            tuple(float(p) for p in self.probabilities),
            self.kernel,
        )


@dataclass(frozen=True)
class GeneratorDistribution:
    """Seeded callback producing float matrices A(n) from a stream position.

    sample_fn receives the per-(seed, replication, channel) random stream
    and the position n, and must depend on nothing else.

    sample_block(rng, n), when given, returns the next n matrices of the
    stream as a float64 (n, k, k) array with -inf for eps, the matrices
    that n sample_fn calls would give; the float routines then draw
    through it. Without it they stack sample_fn calls.
    """

    k: int
    sample_fn: Callable
    name: str = "custom"
    params: tuple = ()
    sample_block: Optional[Callable] = None

    @property
    def backing(self) -> str:
        return FLOAT


MatrixDistribution = Union[FiniteSupport, GeneratorDistribution]


def dist_backing(D: MatrixDistribution) -> str:
    return D.backing


def _stream(seed: int, replication: int = 0, channel: int = 0) -> np.random.Generator:
    if seed < 0:
        raise ContractViolation("seed must be a non-negative integer")
    if replication < 0 or channel < 0:
        raise ContractViolation("replication and channel must be non-negative integers")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication), int(channel)))
    return np.random.default_rng(ss)


def _cum_floats(probs) -> list:
    cum = []
    acc = 0.0
    for p in probs:
        acc += float(p)
        cum.append(acc)
    cum[-1] = max(cum[-1], 1.0)
    return cum


def _pick(cum: list, u: float) -> int:
    idx = bisect.bisect_right(cum, u)
    return min(idx, len(cum) - 1)


def stationary_distribution(kernel) -> tuple:
    """Fixed point of p = pK from the uniform start, damped to kill
    periodic kernels; tiny entries are clipped to exactly 0."""
    m = len(kernel)
    rows = [[float(p) for p in row] for row in kernel]
    p = [1.0 / m] * m
    for _ in range(200000):
        q = [0.0] * m
        for i, pi in enumerate(p):
            if pi == 0.0:
                continue
            row = rows[i]
            for j in range(m):
                if row[j]:
                    q[j] += pi * row[j]
        nxt = [(a + b) / 2.0 for a, b in zip(p, q)]
        if max(abs(a - b) for a, b in zip(nxt, p)) < 1e-15:
            p = nxt
            break
        p = nxt
    p = [0.0 if x < 1e-12 else x for x in p]
    total = sum(p)
    return tuple(x / total for x in p)


def _recurrent_letters(kernel) -> tuple:
    """Indices with positive stationary mass: members of sink components of
    the positive-transition graph, the letters i that every letter they
    reach reaches back."""
    reach = _closure(np.array([[x > 0 for x in row] for row in kernel], bool))
    return tuple(np.flatnonzero((reach <= reach.T).all(1)).tolist())


def _reverse_kernel_cum(kernel, pi) -> list:
    """Cumulative rows of the time-reversed kernel K'(i, j) = pi_j K(j, i) / pi_i."""
    m = len(kernel)
    rows = []
    for i in range(m):
        if pi[i] <= 0.0:
            rows.append(_cum_floats([1.0 / m] * m))
            continue
        raw = [pi[j] * float(kernel[j][i]) / pi[i] for j in range(m)]
        total = sum(raw)
        rows.append(_cum_floats([x / total for x in raw]))
    return rows


class _Letters:
    """Support indices of a FiniteSupport on one random stream, one uniform
    u per index: iid draws pick bisect_right(cumulative probabilities, u),
    clipped to the last index; a Markov chain starts from its stationary
    law and walks the kernel, time-reversed for the backward scheme. A walk
    builds the tables once a call, and each of its replications draws on a
    copy (on)."""

    def __init__(self, D: FiniteSupport, rng: np.random.Generator, backward: bool = False):
        self._rng, self._rows, self._state = rng, None, None
        self._cum = np.array(_cum_floats(D.probabilities))
        if D.kernel is not None:
            pi = stationary_distribution(D.kernel)
            self._pi_cum = _cum_floats(pi)
            self._rows = (_reverse_kernel_cum(D.kernel, pi) if backward
                          else [_cum_floats(row) for row in D.kernel])

    def on(self, rng: np.random.Generator) -> "_Letters":
        """These letters on another random stream, sharing the tables."""
        letters = object.__new__(_Letters)
        letters.__dict__.update(self.__dict__, _rng=rng, _state=None)
        return letters

    def draw(self, n: int) -> np.ndarray:
        us = self._rng.random(n)
        if self._rows is None:
            idx = np.searchsorted(self._cum, us, side="right")
            return np.minimum(idx, len(self._cum) - 1)
        out = []
        for u in us.tolist():
            cum = self._pi_cum if self._state is None else self._rows[self._state]
            self._state = _pick(cum, u)
            out.append(self._state)
        return np.array(out, dtype=np.intp)


# At most this many matrices are drawn at once per stream, so memory stays
# O(_CHUNK k^2) on long horizons. Drivers that may stop early ask for
# _FIRST_CHUNK first and double, so they never draw far past their stop.
_CHUNK = 1024
_FIRST_CHUNK = 16


def _block_sizes(total: int, first: int):
    """The sizes of the blocks that cover total steps: first, doubling, at
    most _CHUNK."""
    n = first
    while total > 0:
        yield min(n, total)
        total -= n
        n = min(2 * n, _CHUNK)


def _sample_one(sample_block: Callable) -> Callable:
    """The sample_fn of a block sampler: the one matrix of a block of one."""
    return lambda rng, n: _matrix_of(sample_block(rng, 1)[0])


def _reach(steps: int) -> int:
    """Every integer an exact driver forms within steps steps is at most
    top * _reach(steps) in magnitude, top the largest of the scaled support
    and initial conditions: a product's action on an initial condition,
    differences of two such values, and sums of two differences."""
    return 4 * (steps + 1)


class _Walk:
    """The one walk of a driver call: the matrices A(0), A(1), ... or,
    backward, A(-1), A(-2), ... of its replications a block at a time
    (blocks), its initial conditions as the (m, k) array x0, and the step
    of a block (states).

    A FiniteSupport picks a block's matrices from its stacked support by
    their letters (_Letters); a generator draws them through its
    sample_block(rng, n) or n sample_fn calls. blocks() writes the blocks
    of R replications into one stack in the layout ``order``: the axes of
    the (R, n, k, k) stack A[r, j] that it holds in turn, and A is
    stack.transpose(axes). Forward that is the matrices transposed with the
    replications last, as arrays._states steps on them; backward the
    matrices as they are, for the steps on their transposes.

    Exact: the support and the initial conditions scaled once by L into
    integer arrays, float64 with -inf for eps while top * _reach(T) < 2**53
    for the T steps formed so far, and from the first block past that
    object arrays of Python ints, with the eps and clamp that arrays._guard
    picks for the whole run. fit(T, *arrays) casts them, and the arrays, to
    the dtype of the block that ends at step T; eps and clamp are those of
    the current dtype. So a large horizon or budget alone keeps float64.
    Float: float64 as given, L None, no dtype switch, and signed once a
    -0.0 was seen (arrays._max_last). clamp runs on each state after its
    step; float simulate sets it to renormalise its projective state."""

    def __init__(self, D: MatrixDistribution, x0s: Sequence[Vector], steps: int,
                 when: Optional[str] = None, backward: bool = False):
        self.dist, self.when, self.support, self.x0 = D, when, None, None
        self.dtype, self.eps, self.clamp, self.L, self.top = float, -math.inf, _no_clamp, None, 0
        finite = isinstance(D, FiniteSupport)
        if finite or x0s:
            self.L, self.support, self.x0, self._eps, self._clamp = _operands(
                D.matrices if finite else (), x0s, _reach(steps))
        if self.L is not None:
            self.top = max(_top(a, a != self._eps) for a in (self.support, self.x0))
        self._letters = _Letters(D, None, backward) if finite else None
        self.signed = self.x0 is not None and _negative_zero(self.x0)
        self.order = (1, 2, 3, 0) if backward else (1, 3, 2, 0)
        self.axes = tuple(map(self.order.index, range(4)))
        self.fit(0)

    def _cast(self, a):
        if a is None or a.dtype == self.dtype:
            return a
        if self.dtype == object:
            return _as_object(a, a != -math.inf, self._eps)
        return np.where(a != self._eps, a, -math.inf).astype(float)

    def fit(self, steps: int, *arrays) -> list:
        if self.dtype == float and self.top * _reach(steps) >= _FLOAT_EXACT:
            self.dtype, self.eps, self.clamp = object, self._eps, self._clamp
        self.support, self.x0 = self._cast(self.support), self._cast(self.x0)
        return [self._cast(a) for a in arrays]

    def states(self, A: np.ndarray, X, t: int) -> np.ndarray:
        """The states of the block A, a stack in the layout of order, that
        follows step t, stepped from X (arrays._states)."""
        A, X = self.fit(t + len(A), A, X)
        self.signed = self.signed or _negative_zero(A)
        return _states(A, X, self.signed, self.clamp)

    def groups(self, replications: int, total: int, first: int, per_step: int) -> list:
        """The replication ranges of _group for blocks of _block_sizes(total,
        first): exact, of at most _CHUNK matrices a block; float, of at most
        _FLOAT_GROUP entries a block in the driver's largest array, which
        takes per_step entries a step."""
        cap = _CHUNK if self.L is not None else _FLOAT_GROUP // per_step
        return _group(replications, total, first, cap)

    def _sample(self, rng: np.random.Generator, n: int, position: int) -> np.ndarray:
        """A generator's next at most n matrices from position on: fewer,
        maybe none, only before a misshapen matrix."""
        d, mats = self.dist, []
        if d.sample_block is not None:
            block = np.asarray(d.sample_block(rng, n), dtype=float)
            if block.shape == (n, d.k, d.k):
                return block
        else:
            for position in range(position, position + n):
                A = d.sample_fn(rng, position)
                if not isinstance(A, Matrix) or A.k != d.k or A.backing != FLOAT:
                    break
                mats.append(A)
        return _operands(mats, (), 1)[1] if mats else np.empty((0, d.k, d.k))

    def blocks(self, reps: range, seed: int, channel: int, total: int, first: int,
               ended=lambda rep: False, letters: Optional[dict] = None):
        """The blocks of the replications reps, replication rep on the random
        stream (seed, rep, channel). For each block of _block_sizes(total,
        first) it yields (live, keep, A, lengths, t): the replications that
        step on, their indices into the live of the block before (into reps
        at the first), their next n matrices as one stack in the layout of
        order, each one's length, and the steps before the block.

        Each replication's matrices are written once, into their place in
        the stack. A block that stops short before a bad matrix, one of the
        wrong shape or (when ``when`` names the caller) one with an all-eps
        row, ends in zero matrices, whose steps the driver ignores; only
        such a tail is filled. Unless ended(rep), replication rep has then
        met its error. So each replication ends as it would alone, those
        after the lowest failed one stop, and its error is raised once every
        one before it has ended: a stack raises what running its
        replications one after another would. letters maps replications to
        lists that collect the letters of each of their blocks."""
        D = self.dist
        draws = {rep: _stream(seed, rep, channel) for rep in reps if not ended(rep)}
        if self._letters is not None:
            draws = {rep: self._letters.on(rng) for rep, rng in draws.items()}
        live, errors, failed, t = list(reps), {}, {}, 0
        sizes = _block_sizes(total, first)
        while True:
            failed.update((rep, errors[rep]) for rep in live if rep in errors and not ended(rep))
            cut = min(failed, default=math.inf)
            keep = [i for i, rep in enumerate(live) if not ended(rep) and rep < cut]
            live = [live[i] for i in keep]
            n = next(sizes, 0)
            if not live or not n:
                break
            shape = (len(live), n, D.k, D.k)
            stack = np.empty([shape[axis] for axis in self.order], self.dtype)
            A, lengths = stack.transpose(self.axes), []  # A[r, j]: matrix j of live[r]
            for a, rep in zip(A, live):
                if self._letters is None:
                    block = self._sample(draws[rep], n, t)
                    if len(block) < n:
                        errors[rep] = ContractViolation(
                            f"generator {D.name!r} must produce float matrices of size {D.k}"
                        )
                else:
                    drawn = draws[rep].draw(n)
                    block = self.support[drawn]
                    if rep in (letters or ()):
                        letters[rep].append(drawn)
                a[: len(block)] = block
                a[len(block) :] = 0
                lengths.append(len(block))
            if self.when is not None and self._letters is None:
                eps = A == -math.inf
                if eps.any():  # else no row is all eps
                    dead = eps.all(-1)  # [r, j, i]: row i of A[r, j]; no zero tail has one
                    for i in np.flatnonzero(dead.any((1, 2))).tolist():
                        j = int(dead[i].any(-1).argmax())
                        errors[live[i]] = ContractViolation(
                            f"{self.when}: matrix row {int(dead[i, j].argmax())} is all eps "
                            "(every row needs a finite entry)"
                        )
                        lengths[i] = j
                        A[i, j:] = 0
            yield live, keep, stack, lengths, t
            t += n
        if failed:
            raise failed[min(failed)]


def _first(flags: list) -> Optional[int]:
    """The index of the first true flag, None if there is none."""
    return flags.index(True) if True in flags else None


def _condition_i_offender(D: FiniteSupport) -> Optional[tuple]:
    """(support index, row) of the first all-eps row of the support, or
    None when condition I holds."""
    for idx, M in enumerate(D.matrices):
        bad = M.row_finite_violation()
        if bad is not None:
            return idx, bad
    return None


def _check_condition_i(D: MatrixDistribution) -> None:
    """A ContractViolation at the first all-eps row of a finite support; a
    generator's rows are checked as its walk draws them."""
    if isinstance(D, FiniteSupport) and (offending := _condition_i_offender(D)):
        raise ContractViolation(
            "support matrix {} violates the row-finiteness condition at row {}".format(*offending))


def _check_start(D: MatrixDistribution, x0: Vector, what: str) -> None:
    """The checks of an initial condition x0 that simulate and
    lyapunov_estimate share, naming what, and then condition I."""
    if len(x0) != D.k:
        raise ContractViolation(f"{what}: x0 has length {len(x0)}, model has k={D.k}")
    if x0.backing != D.backing:
        raise ContractViolation(f"{what}: x0 backing does not match the distribution")
    _check_condition_i(D)


def sample_sequence(D: MatrixDistribution, seed: int, n: int, replication: int = 0) -> list:
    """The matrices A(0), ..., A(n-1) that any same-seeded run will see."""
    walk, drawn = _Walk(D, (), n), {replication: []}
    blocks = [A[..., 0] for _, _, A, _, _ in walk.blocks(
        range(replication, replication + 1), seed, 0, n, _CHUNK, letters=drawn)]
    if isinstance(D, FiniteSupport):  # its letters: an exact walk's support is scaled
        return [D.matrices[i] for letters in drawn[replication] for i in letters.tolist()]
    # a forward stack holds the transposes (_Walk.order)
    return [_matrix_of(At.T) for block in blocks for At in block]


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class TrajectoryRecord:
    seed: int
    replication: int
    horizon: int
    thin: int
    x0: Vector
    sample_times: tuple
    states: tuple
    projective: tuple
    increments: tuple  # z(n) = x(n) - x(n-1) for n = 1..horizon, unthinned


def simulate(
    D: MatrixDistribution,
    x0: Vector,
    horizon: int,
    seed: int,
    replication: int = 0,
    thin: int = 1,
) -> TrajectoryRecord:
    """Run x(n+1) = A(n) x(n) and record states, projective states, and
    increments. Replayable: the same (seed, replication) always sees the
    same matrices (cf. sample_sequence)."""
    return _record(_track(D, x0, horizon, seed, replication, thin))


def _record(fields: dict) -> TrajectoryRecord:
    """The TrajectoryRecord of the fields that _track returns, one track at a time."""
    backing = fields["x0"].backing

    def rows(key):
        return map(tuple, fields[key].tolist() if backing == FLOAT else fields[key])

    return TrajectoryRecord(**{
        **fields,
        "sample_times": tuple(fields["sample_times"]),
        "states": tuple(Vector(x, backing) for x in rows("states")),
        "projective": tuple(ProjVector(p, backing) for p in rows("projective")),
        "increments": tuple(rows("increments")),
    })


def _track(D: MatrixDistribution, x0: Vector, horizon: int, seed: int, replication: int,
           thin: int) -> dict:
    """The fields of simulate's TrajectoryRecord, with the sample times a
    list and the states, projective states and increments tables of rows:
    float64 arrays, or lists of lists of Fractions for the exact backing."""
    if horizon < 0 or thin < 1:
        raise ContractViolation("simulate: horizon must be >= 0 and thin >= 1")
    if not x0.is_finite():
        raise ContractViolation("simulate: initial condition must be finite")
    _check_start(D, x0, "simulate")
    times = [0] + [n for n in range(1, horizon + 1) if n % thin == 0 or n == horizon]
    # a float projective state steps too, from the canonical representative, which
    # keeps its rounding error independent of the state's growing magnitude
    exact = x0.backing == EXACT
    walk = _Walk(D, (x0,) if exact else (x0, canonicalize(x0)), horizon, "simulate")
    if not exact:

        def project(S):  # S[i, 0, s]: entry i of x(n) and of the projective state
            S[:, 0, 1] -= _max_last(S[:, 0, 1], walk.signed)

        walk.clamp = project
    blocks = [walk.x0[None]]  # blocks[b][j] = the states after step j of block b: L x(n) if exact
    # a block that stops short before a bad matrix ends in padding, and the loop raises
    for _, _, A, _, t in walk.blocks(range(replication, replication + 1), seed, 0, horizon,
                                     _FIRST_CHUNK if exact else _CHUNK):
        blocks.append(walk.states(A, blocks[-1][-1:], t)[0])
    if exact:
        # in exact arithmetic the projective state is x(n) minus its maximum
        X = np.concatenate([b if b.dtype == object else b.astype(np.int64) for b in blocks])[:, 0]
        track = np.stack([X, X - X.max(1, keepdims=True)], 1)
    else:
        track = np.concatenate(blocks)  # track[n] = (x(n), projective state)
    kept = track if thin == 1 else track[times]
    parts = [kept[:, 0], kept[:, 1], np.diff(track[:, 0], axis=0)]
    if exact:
        parts = [part.tolist() for part in parts]
        fracs = {v: Fraction(v, walk.L) for v in set().union(*parts[0], *parts[1], *parts[2])}
        parts = [[list(map(fracs.__getitem__, row)) for row in part] for part in parts]
    return dict(seed=seed, replication=replication, horizon=horizon, thin=thin, x0=x0,
                sample_times=times, states=parts[0], projective=parts[1], increments=parts[2])


@dataclass(frozen=True)
class LyapunovEstimate:
    point: object
    ci_low: float
    ci_high: float
    std_error: float
    horizon: int
    replications: int
    per_replication: tuple

    def to_json(self) -> dict:
        return {
            "point": scalar_to_json(self.point),
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "std_error": self.std_error,
            "horizon": self.horizon,
            "replications": self.replications,
            "per_replication": [scalar_to_json(v) for v in self.per_replication],
        }


def lyapunov_estimate(
    D: MatrixDistribution,
    horizon: int,
    replications: int = 30,
    seed: int = 0,
    x0: Optional[Vector] = None,
    threads: int = 1,
    channel: int = 0,
) -> LyapunovEstimate:
    """Estimate the growth rate: mean over replications of max_i x_i(horizon) / horizon.

    The confidence interval is the 95% normal approximation across
    replications. Estimates are invariant to the finite initial condition
    up to O(1/horizon); that is tested, not assumed. The replications of
    a group (_Walk.groups, whose largest array is the matrices) step as one
    stack (_Walk.blocks), and each keeps the last state of each block
    (arrays._states). A replication's steps do not depend on the others of
    its group, so neither do its values; threads is accepted and has no
    effect.
    """
    if horizon < 1:
        raise ContractViolation("lyapunov_estimate: horizon must be >= 1")
    if replications < 1:
        raise ContractViolation("replications must be >= 1")
    backing = dist_backing(D)
    if x0 is None:
        e = zero(backing)
        x0 = Vector((e,) * D.k, backing)
    _check_start(D, x0, "lyapunov_estimate")
    walk = _Walk(D, (x0,), horizon, "lyapunov_estimate")
    first = _FIRST_CHUNK if backing == EXACT else _CHUNK
    values = []
    for reps in walk.groups(replications, horizon, first, D.k * D.k):
        x = np.tile(walk.x0, (len(reps), 1))
        for _, keep, A, _, t in walk.blocks(reps, seed, channel, horizon, first):
            x = walk.states(A, x[keep, None], t)[:, -1, 0]
        if (x == walk.eps).any():
            raise ContractViolation("lyapunov_estimate: the state at the horizon has eps coordinates")
        if backing == EXACT:
            values += [Fraction(int(v), walk.L * horizon) for v in x.max(-1).tolist()]
        else:
            values += (_max_last(x, walk.signed) / horizon).tolist()
    point = sum(values, Fraction(0)) / len(values)  # a float for float values
    fvals = [float(v) for v in values]
    mean = sum(fvals) / len(fvals)
    if len(fvals) > 1:
        var = sum((v - mean) ** 2 for v in fvals) / (len(fvals) - 1)
        se = math.sqrt(var / len(fvals))
    else:
        se = 0.0
    return LyapunovEstimate(
        point=point,
        ci_low=mean - _Z95 * se,
        ci_high=mean + _Z95 * se,
        std_error=se,
        horizon=horizon,
        replications=replications,
        per_replication=tuple(values),
    )


def _group(replications: int, total: int, first: int = _FIRST_CHUNK, cap: int = _CHUNK) -> list:
    """Replication ranges stepped as one stack: at most cap matrices per
    block of a group, for blocks of _block_sizes(total, first), so a
    temporary of the states holds O(cap m k^2) entries however many
    replications run. A driver's walk picks cap for its backing
    (_Walk.groups)."""
    largest = max(itertools.islice(_block_sizes(total, first), 8), default=1)
    size = max(1, cap // largest)
    return [range(lo, min(lo + size, replications)) for lo in range(0, replications, size)]


# A group of float replications holds at most this many entries (16 MB of
# float64) per block in its largest array: the matrices for a Lyapunov
# estimate, the pair distances of the states for coupling, those of the
# columns of the products for the backward scheme. So a few replications
# of blocks of 1024 matrices of k <= 8 stay one group.
_FLOAT_GROUP = 2**21


# ---------------------------------------------------------------------------
# Forward coupling


@dataclass(frozen=True)
class CouplingSample:
    replication: int
    merge_time: Optional[int]
    eta_time: Optional[int]
    window_start: Optional[int]
    window_length: Optional[int]


@dataclass(frozen=True)
class CouplingReport:
    """Per-replication coupling observations for a set of initial conditions.

    merge_time is the first step at which every trajectory lies in one
    projective class (exact backing only; all trajectories see the same
    matrices). The window (start, length) is the earliest-completing
    factor window whose product is exactly rank-one; from its end every
    initial condition, observed or not, is merged. eta_time is the first
    step with all pairwise projective distances <= eta.
    """

    eta: float
    horizon: int
    replications: int
    modes: tuple
    initial_conditions: tuple
    samples: tuple


def _window(walk: _Walk, letters: np.ndarray) -> tuple:
    """(p, n - p) for the largest p whose product A(n-1) ... A(p) of the n
    letters is rank-one: the first rank-one one of the right products of
    the letters in reverse, the states of their transposes (arrays._states).
    The caller knows p = 0 qualifies."""
    n = len(letters)
    back = letters[::-1]
    P, lo = None, 0
    for size in _block_sizes(n, _FIRST_CHUNK):
        S = walk.states(walk.support[back[lo : lo + size], ..., None], P, lo)[0]
        j = _first(_rank_one_flags(_normal(S, walk.clamp)[0], walk.clamp))
        if j is not None:
            return n - 1 - (lo + j), lo + j + 1
        P, lo = S[None, -1], lo + size
    raise AssertionError("the whole word is rank-one")


def forward_coupling(
    D: MatrixDistribution,
    initial_conditions: Sequence[Vector],
    horizon: int,
    eta: float = DEFAULT_ETA,
    seed: int = 0,
    replications: int = 1,
    threads: int = 1,
) -> CouplingReport:
    """Drive all initial conditions with the same matrix sequence and watch
    them meet. Exact backing reports strong (exact projective merge) and
    eta coupling plus a rank-one window certificate; float backing reports
    eta coupling only. Replications are independent and reported in order;
    threads is accepted and has no effect.

    The replications of a group (_Walk.groups) step as one stack
    (_Walk.blocks), their states formed a block at a time (arrays._states),
    and every step of a block is tested at once: the largest pairwise
    distance of the states against eta (and 0, the merge), and the rank-one
    test of the running product for the window. Exact: the k unit vectors
    step with the initial conditions, so the last k rows of a state are the
    transpose of the running product A(t) ... A(0). Float: eta only."""
    x0s = tuple(initial_conditions)
    if len(x0s) < 2:
        raise ContractViolation("forward_coupling: need at least two initial conditions")
    backing = dist_backing(D)
    for x in x0s:
        if len(x) != D.k or not x.is_finite():
            raise ContractViolation("forward_coupling: initial conditions must be finite, length k")
        if x.backing != backing:
            raise ContractViolation("forward_coupling: initial condition backing mismatch")
    _check_condition_i(D)
    if eta is None or not eta >= 0:
        raise ContractViolation("forward_coupling: eta must be >= 0")
    if eta == math.inf:
        raise ContractViolation("forward_coupling: eta must be finite")
    if horizon < 0:
        raise ContractViolation("forward_coupling: horizon must be >= 0")
    if replications < 1:
        raise ContractViolation("replications must be >= 1")
    exact, m = backing == EXACT, len(x0s)
    # exact: the unit vectors step too, as the transposed running products
    units = tuple(Vector(row, EXACT) for row in Matrix.identity(D.k).rows) if exact else ()
    walk = _Walk(D, x0s + units, horizon, "forward_coupling")
    # exact: eta times L, capped above every distance
    bound = min(math.floor(Fraction(eta) * walk.L), walk.top * _reach(horizon)) if exact else eta

    def near(d):
        # d <= eta; float64 holds the integer distances below 2**53
        return (d <= (min(bound, _FLOAT_EXACT) if exact and d.dtype == float else bound)).tolist()

    def ended(rep):
        merge, close, window = found[rep]
        return close is not None and not (exact and (merge is None or window is None))

    d0 = _pair_dists(walk.x0[None, :m])
    # merge time, eta time, window; and the letters drawn before the window
    found = {rep: [0 if exact and d0[0] == 0 else None, 0 if near(d0)[0] else None, None]
             for rep in range(replications)}
    seen = {rep: [] for rep in found if exact}
    # the largest arrays: the matrices, k^2 entries a step, and the pair distances, m^2 k
    for reps in walk.groups(replications, horizon, _FIRST_CHUNK, D.k * max(D.k, m**2)):
        for live, keep, A, lengths, t in walk.blocks(reps, seed, 0, horizon, _FIRST_CHUNK,
                                                     ended, seen):
            S = walk.states(A, np.tile(walk.x0, (len(live), 1, 1)) if t == 0 else S[keep, -1], t)
            open_ = [i for i, rep in enumerate(live) if exact and found[rep][2] is None]
            rank_one = {}
            if open_:
                n = len(A)
                Q = _normal(S[open_, :, m:], walk.clamp)[0].reshape(-1, D.k, D.k)
                flags = _rank_one_flags(Q, walk.clamp)
                rank_one = {i: flags[a * n : (a + 1) * n] for a, i in enumerate(open_)}
            d = _pair_dists(S[:, :, :m])
            merged, close = (d == 0).tolist(), near(d)
            for i, rep in enumerate(live):
                b = lengths[i]
                hits = (_first(merged[i][:b]) if exact else None, _first(close[i][:b]),
                        _first(rank_one[i][:b]) if i in rank_one else None)
                for slot, j in enumerate(hits):
                    if found[rep][slot] is None and j is not None:
                        found[rep][slot] = t + j + 1 if slot < 2 else _window(
                            walk, np.concatenate(seen.pop(rep))[: t + j + 1])
    samples = tuple(CouplingSample(rep, merge, close, *(window or (None, None)))
                    for rep, (merge, close, window) in found.items())
    modes = ("strong", "eta") if exact else ("eta",)
    return CouplingReport(eta, horizon, replications, modes, x0s, samples)


# ---------------------------------------------------------------------------
# Backward scheme


@dataclass(frozen=True)
class LoynesResult:
    """Outcome of the backward recursion P(n) = P(n-1) A(-n).

    The projective image of P(n) shrinks monotonically; once its diameter
    hits the tolerance (or the product is exactly rank-one at tolerance 0)
    every column lies in the same near-degenerate class, reported as Z.
    """

    converged: bool
    steps: int
    limit_class: Optional[ProjVector]
    achieved_diameter: object
    tolerance: object
    trace: tuple
    seed: int
    replication: int

    def to_json(self) -> dict:
        return {
            "converged": self.converged,
            "steps": self.steps,
            "limit_class": None
            if self.limit_class is None
            else [scalar_to_json(v) for v in self.limit_class.entries],
            "achieved_diameter": "inf"
            if self.achieved_diameter == math.inf
            else scalar_to_json(self.achieved_diameter),
            "tolerance": scalar_to_json(self.tolerance),
            "trace": [[n, "inf" if d == math.inf else float(d)] for n, d in self.trace],
            "seed": self.seed,
            "replication": self.replication,
        }


def backward_loynes(
    D: MatrixDistribution,
    tolerance=0,
    budget: int = 10000,
    seed: int = 0,
    replication: int = 0,
    trace_every: int = 1,
) -> LoynesResult:
    """Grow the backward product one past matrix at a time until its
    projective image is tolerance-thin. tolerance=0 demands an exactly
    rank-one product and needs the exact backing; float models must pass
    a positive tolerance. The exact backing reads a float tolerance as the
    dyadic rational it denotes, and the result echoes it as given. A
    budget exhaustion returns a partial result with converged=False
    rather than raising. The loop is _loynes's, on a stack of one
    replication."""
    return _loynes(D, tolerance, budget, seed, range(replication, replication + 1), trace_every)[0]


def _loynes(D: MatrixDistribution, tolerance, budget: int, seed: int, replications: range,
            trace_every: int) -> list:
    """backward_loynes for each of the replications, in order.

    The products P(1..n) of a block are tested at once, and the
    replications of a group (_Walk.groups) step as one (R, k, k) stack of
    products (_Walk.blocks): each leaves it when it converges or runs out
    of budget. The products P A(1) ... A(j) are the states of the
    transposed matrices (arrays._states). Exact: tolerance 0 is the
    rank-one test of their normal forms."""
    backing = dist_backing(D)
    if isinstance(tolerance, float) and not math.isfinite(tolerance):
        raise ContractViolation(f"backward_loynes: tolerance must be finite, got {tolerance}")
    tol = as_scalar(tolerance, FLOAT if isinstance(tolerance, float) else backing) if tolerance != 0 else 0
    if tol is EPS:
        raise ContractViolation("backward_loynes: tolerance must be a number >= 0")
    if tolerance != 0 and tol < 0:
        raise ContractViolation("backward_loynes: tolerance must be >= 0")
    if tolerance == 0 and backing == FLOAT:
        raise ContractViolation(
            "backward_loynes: exact convergence (tolerance 0) needs the exact backing"
        )
    if budget < 0 or trace_every < 0:
        raise ContractViolation("backward_loynes: budget and trace_every must be >= 0")
    _check_condition_i(D)
    walk = _Walk(D, (), budget, "backward_loynes", backward=True)
    if backing == FLOAT:
        bound, unscaled, ratio = tol, float, float
    else:
        bound = Fraction(tol) * walk.L

        def unscaled(d):
            # what proj_diameter gives on the unscaled product: 0 and inf as they are
            return d if d == math.inf else Fraction(int(d), walk.L) if d else 0

        def ratio(d):
            # float(unscaled(d)), as int / int rounds correctly
            return d if d == math.inf else int(d) / walk.L

    def limit(Z):
        col = Z[:, int((Z != walk.eps).all(0).argmax())]  # the first finite column
        return ProjVector(_scalars(col - _max_last(col, walk.signed), walk.eps, walk.L), backing)

    traces, lasts, ended = {rep: [] for rep in replications}, dict.fromkeys(replications, math.inf), {}
    # the largest float arrays: the pair distances behind the diameters, k^3 entries a step
    for group in walk.groups(len(replications), budget, _FIRST_CHUNK, D.k**3):
        reps = replications[group.start : group.stop]
        for live, keep, A, lengths, t in walk.blocks(reps, seed, 1, budget, _FIRST_CHUNK,
                                                     ended.__contains__):
            # the stack holds the matrices, which are the transposes of the
            # transposes; the diameters read the products faster in C order
            Ps = np.ascontiguousarray(walk.states(A, None if t == 0 else Ps[keep, -1], t))
            diams = _diameters(Ps, walk.eps) if tolerance != 0 or trace_every else None
            if tolerance == 0:
                n = Ps.shape[1]
                flags = _rank_one_flags(_normal(Ps, walk.clamp)[0].reshape(-1, D.k, D.k), walk.clamp)
            for i, rep in enumerate(live):
                b = lengths[i]
                if tolerance == 0:
                    end = _first(flags[i * n : i * n + b])
                else:
                    end = _first([d <= bound for d in diams[i][:b]])
                stop, traced = b if end is None else end + 1, []
                if trace_every:
                    # the steps t + j + 1 that trace_every divides, and the last
                    traced = list(range((-t - 1) % trace_every, stop, trace_every))
                    if end is not None and end not in traced[-1:]:
                        traced.append(end)
                    traces[rep] += [(t + j + 1, ratio(0 if j == end and tolerance == 0 else diams[i][j]))
                                    for j in traced]
                if end is not None and tolerance == 0:
                    lasts[rep] = 0
                elif tolerance != 0 and stop:
                    lasts[rep] = diams[i][stop - 1]
                elif traced:
                    lasts[rep] = diams[i][traced[-1]]
                last = lasts[rep]
                if end is not None:
                    ended[rep] = LoynesResult(True, t + end + 1, limit(Ps[i, end]),
                                              unscaled(last), tol, tuple(traces[rep]), seed, rep)
                elif t + b == budget:  # out of budget
                    if last == math.inf and tolerance == 0:
                        last = _diameters(Ps[i, -1], walk.eps)
                    ended[rep] = LoynesResult(False, budget, None, unscaled(last), tol,
                                              tuple(traces[rep]), seed, rep)
    # a budget of 0 steps no block
    return [ended.get(rep) or LoynesResult(False, 0, None, math.inf, tol, (), seed, rep)
            for rep in replications]


# ---------------------------------------------------------------------------
# Word search over the admissible semigroup


def _initial_letters(D: FiniteSupport) -> tuple:
    if D.kernel is None:
        return tuple(range(D.size))
    return _recurrent_letters(D.kernel)


def _next_letters(D: FiniteSupport, last: int) -> tuple:
    if D.kernel is None:
        return tuple(range(D.size))
    return tuple(j for j in range(D.size) if D.kernel[last][j] > 0)


def _word_bfs(D: FiniteSupport, root, expand, visit, max_len: int, budget: int):
    """Breadth-first walk over the admissible words of D, shortest first,
    one level of equal-length words at a time.

    Each word carries a state that stands for its product
    A(u_{N-1}) ... A(u_0); root is a level holding the state of the empty
    word alone, the identity. expand(level, parents, letters) gives the
    level of the words (parent word of parents[i]) + (letters[i],), with
    parents indexing into level, and their dedupe keys: (children,
    keys). The walk asks for all the children of a level at once, parent
    major and letter minor, and takes them in that order, which is the
    order of a first-in first-out queue. Under a Markov kernel the key also
    holds the last letter, which decides the letters that may follow.
    visit(children, new, word) sees the new keys of a level at once: new
    indexes the first child of each into children, in that order, and
    word(i) is the word of child i, also after the walk has moved on; it
    returns the position in new of the state to stop at, whose word is the
    result, or None. At most budget words are expanded (the empty word
    aside), and words stop growing at max_len. Returns (result, saturated,
    states): saturated means every state reachable below max_len was
    visited; states counts the distinct keys seen, up to the one stopped
    at."""
    markov = D.kernel is not None
    # the letters that may follow each letter, and last those that may
    # start a word: the root's last letter reads as -1
    follows = [_next_letters(D, letter) for letter in range(D.size)] + [_initial_letters(D)]
    seen = set()
    level, parents, lasts = root, [0], [-1]
    # per level, the parent and the letter of each child: a word is read
    # back from these only when it is reported
    trail = []
    expanded = 0
    cut = False

    def reader(depth):
        def word(i):
            letters = []
            for at, last in reversed(trail[:depth]):
                letters.append(last[i])
                i = at[i]
            return tuple(reversed(letters))

        return word

    while parents:
        if trail:  # the empty word is not counted
            if len(trail) >= max_len or expanded >= budget:
                return None, False, len(seen)
            cut = len(parents) > budget - expanded
            del parents[budget - expanded :]
            expanded += len(parents)
        at, letters = [], []
        for p in parents:
            nxt = follows[lasts[p]]
            at += [p] * len(nxt)
            letters += nxt
        children, keys = expand(level, at, letters)
        trail.append((at, letters))
        if markov:
            keys = list(zip(keys, letters))
        new = []
        for i, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                new.append(i)
        word = reader(len(trail))
        stop = visit(children, new, word)
        if stop is not None:
            return word(new[stop]), False, len(seen) - len(new) + stop + 1
        level, parents, lasts = children, new, letters
        if cut:
            return None, False, len(seen)
    return None, True, len(seen)


def _check_word(D: FiniteSupport, word: Sequence[int], what: str) -> None:
    """A ContractViolation, naming what, unless each letter indexes D's support."""
    for letter in word:
        if not isinstance(letter, int) or isinstance(letter, bool) or not 0 <= letter < D.size:
            raise ContractViolation(f"{what}: letter {letter!r} is not in range({D.size})")


def word_product(D: FiniteSupport, word: Sequence[int]) -> Matrix:
    """Exact product A(u_{N-1}) ... A(u_0) of the word (u_0, ..., u_{N-1})."""
    if not word:
        raise ContractViolation("word_product: empty word")
    _check_word(D, word, "word_product")
    L, support, _, eps, clamp = _operands(D.matrices, (), len(word) + 1)
    P = support[word[0]]
    for letter in word[1:]:
        P = _times(support[letter], P, clamp)
    return Matrix(_scalars(P, eps, L), D.backing)


def word_probability(D: FiniteSupport, word: Sequence[int]):
    """Probability of seeing the word as the next len(word) letters; the
    stationary chain makes this time-invariant. Exact for iid rational
    probabilities, float under a Markov kernel."""
    _check_word(D, word, "word_probability")
    if D.kernel is None:
        p = Fraction(1)
        for letter in word:
            p = p * D.probabilities[letter]
        return p
    pi = stationary_distribution(D.kernel)
    p = pi[word[0]] if word else 1.0
    for a, b in zip(word, word[1:]):
        p *= float(D.kernel[a][b])
    return p


@dataclass(frozen=True)
class PatternReport:
    found: bool
    word: Optional[tuple]
    matrix: Optional[Matrix]
    length: Optional[int]
    classification: Optional[str]
    probability: object
    status: str  # found | saturated | truncated
    states_explored: int
    max_len: int
    scs1cyc1_word: Optional[tuple] = None
    scs1cyc1_matrix: Optional[Matrix] = None
    scs1cyc1_probability: object = None

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "word": None if self.word is None else list(self.word),
            "matrix": None if self.matrix is None else matrix_to_json(self.matrix),
            "length": self.length,
            "classification": self.classification,
            "probability": None if self.probability is None else scalar_to_json(self.probability),
            "status": self.status,
            "states_explored": self.states_explored,
            "max_len": self.max_len,
            "scs1cyc1_word": None if self.scs1cyc1_word is None else list(self.scs1cyc1_word),
            "scs1cyc1_matrix": None
            if self.scs1cyc1_matrix is None
            else matrix_to_json(self.scs1cyc1_matrix),
            "scs1cyc1_probability": None
            if self.scs1cyc1_probability is None
            else scalar_to_json(self.scs1cyc1_probability),
        }


def pattern_search(D: FiniteSupport, max_len: int = 16, budget: int = 200000) -> PatternReport:
    """Search admissible words for one whose matrix product is rank-one
    (BFS, so a hit has minimal length). Also records the first word whose
    product is irreducible with a one-component, cyclicity-one critical
    graph, a weaker pattern that still forces coupling for iid models.

    status 'saturated' means every product class reachable below max_len
    was visited and none is rank-one, which is definitive for the whole
    semigroup; 'truncated' means the search ran out of length or budget.
    """
    if not isinstance(D, FiniteSupport):
        raise ContractViolation("pattern_search: needs a finite-support distribution")
    if D.backing != EXACT:
        raise ContractViolation("pattern_search: needs the exact backing")
    if max_len < 1 or budget < 0:
        raise ContractViolation("pattern_search: max_len must be >= 1 and budget >= 0")
    _check_condition_i(D)
    # states are the projective normal forms Q of the integer-scaled
    # products P, with the shift s of each, so that P = Q + s: scaling
    # every matrix by one positive factor visits the same words. A word has
    # at most W = min(max_len, budget + 1) letters, so a normal form has
    # entries in [-2 W top, 0], a shift is at most W top, and the outer
    # sums of the rank-one test are in [-4 W top, 0] (see _rank_one_flags).
    length = min(max_len, budget + 1)
    L, support, _, eps, clamp = _operands((Matrix.identity(D.k), *D.matrices), (), 2 * (length + 1))
    identity, support = support[:1], support[1:]
    found = {}

    def expand(level, parents, letters):
        Q, shift = level
        Q, top = _normal(_stack_mul(support[letters], Q[parents]), clamp)
        return (Q, shift[parents] + top), _stack_keys(Q)

    def visit(level, new, word):
        # one predicate call per level, on the new states ahead of the
        # first rank-one one while no weak word is known. A rank-one hit,
        # entries u_i + v_j, is irreducible iff it has no eps entry, and then
        # its critical graph is complete with loops on the argmax of
        # u_i + v_i: scs1cyc1
        Q, shift = level
        hit = _first(_rank_one_flags(Q[new], clamp))
        ahead = [] if "weak" in found else new[:hit]
        weak = _first(_scs1cyc1_flags(Q[ahead], eps)) if ahead else None
        if weak is not None:
            i = ahead[weak]
            found["weak"] = word(i), Q[i], shift[i]
        if hit is not None:
            i = new[hit]
            found["hit"] = word(i), Q[i], shift[i]
            found["class"] = "rank-one" if (Q[i] == eps).any() else "rank-one+scs1cyc1"
        return hit

    _, saturated, explored = _word_bfs(
        D, (identity, np.zeros(1, support.dtype)), expand, visit, max_len, budget
    )

    def certificate(key):
        """(word, its product, its probability), or Nones."""
        if key not in found:
            return None, None, None
        word, Q, s = found[key]
        P = np.where(Q != eps, Q + s, eps)
        return word, Matrix(_scalars(P, eps, L), EXACT), word_probability(D, word)

    hit, P, prob = certificate("hit")
    scs_word, scs_mat, scs_prob = certificate("weak")
    return PatternReport(
        found=hit is not None,
        word=hit,
        matrix=P,
        length=None if hit is None else len(hit),
        classification=found.get("class"),
        probability=prob,
        status="found" if hit is not None else "saturated" if saturated else "truncated",
        states_explored=explored,
        max_len=max_len,
        scs1cyc1_word=scs_word,
        scs1cyc1_matrix=scs_mat,
        scs1cyc1_probability=scs_prob,
    )


# ---------------------------------------------------------------------------
# Structural conditions


@dataclass(frozen=True)
class ConditionsReport:
    """condition_i: every support matrix has a finite entry in every row.
    condition_ii: some admissible word has an everywhere-finite product
    (True with a witness, False when the pattern semigroup saturates
    without one, None when the search was truncated)."""

    condition_i: bool
    offending: Optional[tuple]
    condition_ii: Optional[bool]
    witness: Optional[tuple]
    status: str  # found | saturated | truncated
    states_explored: int

    def to_json(self) -> dict:
        return {
            "condition_i": self.condition_i,
            "offending": None if self.offending is None else list(self.offending),
            "condition_ii": self.condition_ii,
            "witness": None if self.witness is None else list(self.witness),
            "status": self.status,
            "states_explored": self.states_explored,
        }


def structural_conditions(D: FiniteSupport, max_len: int = 64, budget: int = 500000) -> ConditionsReport:
    """Decide the two structural preconditions on the support patterns.

    Condition II walks the admissible words (_word_bfs) on ε patterns
    only: a level is an (n, k, k) boolean stack of the finite entries of
    its products, the root the identity pattern, a level's children the
    boolean products of the support patterns with their parents, and the
    walk stops at the first word whose pattern is all true. Pattern
    products form a finite semigroup, so the walk either finds one or
    saturates, unless the budget cuts it short."""
    if not isinstance(D, FiniteSupport):
        raise ContractViolation("structural_conditions: needs a finite-support distribution")
    if max_len < 1 or budget < 0:
        raise ContractViolation("structural_conditions: max_len must be >= 1 and budget >= 0")
    offending = _condition_i_offender(D)
    finite = np.array([[[v is not EPS for v in row] for row in M.rows] for M in D.matrices])

    def expand(level, parents, letters):
        children = finite.take(letters, 0) @ level.take(parents, 0)
        return children, _stack_keys(children)

    def visit(level, new, word):
        return _first(level[new].all((1, 2)).tolist())

    witness, saturated, states = _word_bfs(
        D, np.eye(D.k, dtype=bool)[None], expand, visit, max_len, budget
    )
    if witness is not None:
        cond_ii, status = True, "found"
    elif saturated:
        cond_ii, status = False, "saturated"
    else:
        cond_ii, status = None, "truncated"
    return ConditionsReport(
        condition_i=offending is None,
        offending=offending,
        condition_ii=cond_ii,
        witness=witness,
        status=status,
        states_explored=states,
    )


# ---------------------------------------------------------------------------
# Stability verdicts


@dataclass(frozen=True)
class StabilityOptions:
    max_len: int = 16
    search_budget: int = 200000
    mc_seeds: int = 20
    mc_budget: int = 5000
    mc_threshold: float = 0.95
    eta: float = DEFAULT_ETA
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class StabilityVerdict:
    """Four-way stability call with the evidence that produced it.

    StableStrong      a positive-probability pattern certifies coupling
    StableWeak        Monte-Carlo backward diameters shrink below eta
                      (evidence, not a certificate)
    UnstableCertified the pattern semigroup saturates with no rank-one
                      element, so no finite window ever couples exactly
    Inconclusive      structural preconditions fail or evidence is thin
    """

    verdict: str
    basis: str
    certificate: Optional[dict]
    conditions: Optional[ConditionsReport]
    pattern: Optional[PatternReport]
    notes: tuple

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "basis": self.basis,
            "certificate": self.certificate,
            "conditions": None if self.conditions is None else self.conditions.to_json(),
            "pattern": None if self.pattern is None else self.pattern.to_json(),
            "notes": list(self.notes),
        }


def _mc_backward_evidence(D: MatrixDistribution, options: StabilityOptions) -> dict:
    Df = D.to_float() if isinstance(D, FiniteSupport) and D.backing == EXACT else D
    results = _loynes(Df, options.eta, options.mc_budget, options.seed, range(options.mc_seeds), 0)
    return {
        "seeds": options.mc_seeds,
        "successes": sum(1 for r in results if r.converged),
        "eta": options.eta,
        "budget": options.mc_budget,
        "steps": [r.steps for r in results],
        "diameters": [
            "inf" if r.achieved_diameter == math.inf else float(r.achieved_diameter)
            for r in results
        ],
    }


def _word_certificate(word: tuple, probability, matrix: Matrix, classification: str) -> dict:
    return {
        "word": list(word),
        "length": len(word),
        "probability": scalar_to_json(probability),
        "matrix": matrix_to_json(matrix),
        "classification": classification,
    }


def stability_verdict(D: MatrixDistribution, options: Optional[StabilityOptions] = None) -> StabilityVerdict:
    """Classify the model on the strong/weak/unstable/inconclusive ladder.

    Exact finite-support models are searched for pattern certificates
    first; everything else (and truncated searches) falls back to
    Monte-Carlo backward-diameter evidence at the eta threshold.
    """
    opt = options or StabilityOptions()
    for ok, message in (  # in the order they are checked, before any search or run
        (0 <= opt.mc_threshold <= 1, "mc_threshold must be in [0, 1]"),
        (opt.mc_seeds >= 1, f"mc_seeds must be >= 1, got {opt.mc_seeds}"),
        (opt.mc_budget >= 0, f"mc_budget must be >= 0, got {opt.mc_budget}"),
        (opt.seed >= 0, f"seed must be >= 0, got {opt.seed}"),
        (0 <= opt.eta < math.inf, f"eta must be finite and >= 0, got {opt.eta}"),
        # the Monte-Carlo evidence is a float backward run to tolerance eta
        (opt.eta != 0, f"eta must be > 0, got {opt.eta}"),
        (opt.max_len >= 1, f"max_len must be >= 1, got {opt.max_len}"),
        (opt.search_budget >= 0, f"search_budget must be >= 0, got {opt.search_budget}"),
    ):
        if not ok:
            raise ContractViolation(f"stability_verdict: {message}")
    notes, conditions, pattern = [], None, None
    if isinstance(D, FiniteSupport):
        _check_condition_i(D)
        conditions = structural_conditions(D)
        if conditions.condition_ii is False:
            return StabilityVerdict(
                verdict="Inconclusive",
                basis="condition-ii-fails",
                certificate=None,
                conditions=conditions,
                pattern=None,
                notes=(
                    "condition II fails; see open-system analysis",
                    "the pattern semigroup saturated without an everywhere-finite "
                    "product, so the coupling theory does not apply",
                ),
            )
        if conditions.condition_ii is None:
            notes.append("all-finite-product search was truncated; continuing on pattern evidence")
        if D.backing == EXACT:
            pattern = pattern_search(D, max_len=opt.max_len, budget=opt.search_budget)
            if pattern.found:
                basis = (
                    "positive-probability-rank-one-pattern"
                    if D.is_iid()
                    else "stationary-rank-one-pattern"
                )
                cert = _word_certificate(
                    pattern.word, pattern.probability, pattern.matrix, pattern.classification
                )
                return StabilityVerdict("StableStrong", basis, cert, conditions, pattern, tuple(notes))
            if D.is_iid() and pattern.scs1cyc1_word is not None:
                cert = _word_certificate(
                    pattern.scs1cyc1_word,
                    pattern.scs1cyc1_probability,
                    pattern.scs1cyc1_matrix,
                    "scs1cyc1",
                )
                notes.append(
                    "no rank-one pattern below the length bound; the certificate is an "
                    "irreducible product with a single critical component of cyclicity one"
                )
                return StabilityVerdict(
                    "StableStrong",
                    "positive-probability-scs1cyc1-pattern",
                    cert,
                    conditions,
                    pattern,
                    tuple(notes),
                )
            if pattern.status == "saturated" and D.is_iid():
                cert = {
                    "states_explored": pattern.states_explored,
                    "max_len": pattern.max_len,
                    "status": pattern.status,
                }
                notes.append(
                    "every reachable product class was enumerated and none is rank-one, "
                    "so no factor window ever couples exactly"
                )
                return StabilityVerdict(
                    "UnstableCertified",
                    "pattern-semigroup-saturated-without-rank-one",
                    cert,
                    conditions,
                    pattern,
                    tuple(notes),
                )
            notes.append("pattern search was not definitive; falling back to Monte-Carlo evidence")
        else:
            notes.append("float support: pattern certificates unavailable, using Monte-Carlo evidence")
    else:
        notes.append("generator distribution: using Monte-Carlo backward-diameter evidence")
    evidence = _mc_backward_evidence(D, opt)
    frac = evidence["successes"] / evidence["seeds"]
    if frac >= opt.mc_threshold:
        notes.append("evidence-based verdict from sampled backward diameters, not a certificate")
        return StabilityVerdict(
            "StableWeak", "backward-diameter-evidence", evidence, conditions, pattern, tuple(notes)
        )
    notes.append(
        f"only {evidence['successes']}/{evidence['seeds']} backward runs reached diameter "
        f"<= {opt.eta} within the budget"
    )
    return StabilityVerdict(
        "Inconclusive", "insufficient-evidence", evidence, conditions, pattern, tuple(notes)
    )


# ---------------------------------------------------------------------------
# Open systems


@dataclass(frozen=True)
class OpenSystemReport:
    """Per-component growth rates for a reducible model with a fixed
    support pattern.

    Each strongly connected component of the precedence graph gets the
    growth rate of its own restricted recursion (None when it carries no
    circuit). A node's long-run rate is the maximum over its component
    and all upstream components, walking the condensation.
    """

    components: tuple
    component_rates: tuple
    node_limits: tuple
    two_block: Optional[str]
    notes: tuple
    horizon: int
    replications: int
    seed: int

    def to_json(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "component_rates": [None if r is None else r.to_json() for r in self.component_rates],
            "node_limits": [None if v is None else scalar_to_json(v) for v in self.node_limits],
            "two_block": self.two_block,
            "notes": list(self.notes),
            "horizon": self.horizon,
            "replications": self.replications,
            "seed": self.seed,
        }


def _restrict_support(D: FiniteSupport, members: tuple) -> FiniteSupport:
    idx = list(members)
    mats = []
    for M in D.matrices:
        rows = tuple(tuple(M.rows[i][j] for j in idx) for i in idx)
        mats.append(Matrix(rows, M.backing))
    return FiniteSupport(tuple(mats), D.probabilities, D.kernel)


def open_system_analysis(
    D: FiniteSupport,
    horizon: int,
    replications: int,
    seed: int,
    threads: int = 1,
) -> OpenSystemReport:
    """Growth-rate map of a reducible fixed-structure model.

    Needs every support matrix to share one eps pattern so the component
    structure is deterministic. The full recursion need not satisfy the
    row-finiteness condition; only circuit-bearing components are
    simulated, each on its own random channel.
    """
    if not isinstance(D, FiniteSupport):
        raise ContractViolation("open_system_analysis: needs a finite-support distribution")
    pattern = D.matrices[0].eps_pattern()
    for M in D.matrices[1:]:
        if M.eps_pattern() != pattern:
            raise ContractViolation(
                "open_system_analysis: support matrices must share one eps pattern"
            )
    dec = scc_decompose(graph_of(D.matrices[0]))
    notes = []
    rates = []
    for ci, comp in enumerate(dec.components):
        if dec.cyclicities[ci] is None:  # no circuit
            rates.append(None)
            continue
        sub = _restrict_support(D, comp)
        rates.append(
            lyapunov_estimate(
                sub, horizon=horizon, replications=replications, seed=seed,
                threads=threads, channel=2 + ci,
            )
        )
    # the components upstream of each component, itself included
    n_comp = len(dec.components)
    cond = np.zeros((n_comp, n_comp), bool)
    cond[[a for a, _ in dec.condensation_arcs], [c for _, c in dec.condensation_arcs]] = True
    upstream = [np.flatnonzero(col).tolist() for col in _closure(cond).T]
    node_limits = [None] * D.k
    for node in range(D.k):
        vals = [rates[a].point for a in upstream[dec.component_of[node]] if rates[a] is not None]
        if vals:
            node_limits[node] = max(vals)
        else:
            notes.append(f"node {node} has no circuit-bearing component upstream; no growth rate")
    # two-block source -> sink chain: compare the sink's intrinsic rate a
    # against the source rate u it is fed at
    two_block = None
    if n_comp == 2 and dec.condensation_arcs:
        src, snk = dec.condensation_arcs[0]
        u, a = rates[src], rates[snk]
        if u is not None and a is not None:
            if a.ci_low > u.ci_high:
                two_block = "differences diverge"
                notes.append(
                    "the sink component is intrinsically slower than its input, so the "
                    "gap between the blocks grows without bound"
                )
            elif a.ci_high < u.ci_low:
                two_block = "unique stationary regime for differences"
                notes.append(
                    "the sink component is faster than its input; it inherits the source "
                    "rate and the gap between the blocks stays stochastically bounded"
                )
            else:
                two_block = "inconclusive"
                notes.append(
                    "the confidence intervals of the two component rates overlap; "
                    "raise the horizon or replication count to separate them"
                )
    return OpenSystemReport(
        components=dec.components,
        component_rates=tuple(rates),
        node_limits=tuple(node_limits),
        two_block=two_block,
        notes=tuple(notes),
        horizon=horizon,
        replications=replications,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Serialization


GENERATOR_BUILDERS: dict = {}


def register_generator(name: str, builder: Callable) -> None:
    """builder(params: dict) -> GeneratorDistribution, used by JSON loading."""
    GENERATOR_BUILDERS[name] = builder


def distribution_to_json(D: MatrixDistribution) -> dict:
    if isinstance(D, GeneratorDistribution):
        return {
            "kind": "generator",
            "name": D.name,
            "k": D.k,
            "params": dict(D.params),
        }
    out = {
        "kind": "finite",
        "k": D.k,
        "backing": D.backing,
        "support": [
            {"matrix": matrix_to_json(M), "probability": scalar_to_json(p)}
            for M, p in zip(D.matrices, D.probabilities)
        ],
    }
    if D.kernel is not None:
        out["kernel"] = [[scalar_to_json(p) for p in row] for row in D.kernel]
    return out


# what distribution_to_json writes, and the condition `maxplus model cjn` adds
_FINITE_KEYS = frozenset({"kind", "k", "backing", "support", "kernel", "cjn_stability_condition"})
_GENERATOR_KEYS = frozenset({"kind", "name", "k", "params"})
_ITEM_KEYS = frozenset({"matrix", "probability"})


def distribution_from_json(obj: dict) -> MatrixDistribution:
    """Load what distribution_to_json writes. A key it does not write, at any
    level, is a ContractViolation, and so is a declared k that the matrices
    do not have; a generator's builder checks the keys of its params."""
    kind = obj.get("kind", "finite")
    if kind == "generator":
        reject_unknown_keys(obj, _GENERATOR_KEYS, "generator distribution JSON")
        name = obj.get("name")
        builder = GENERATOR_BUILDERS.get(name)
        if builder is None:
            known = ", ".join(sorted(GENERATOR_BUILDERS)) or "(none registered)"
            raise ContractViolation(f"unknown generator {name!r}; known: {known}")
        D = builder(obj.get("params", {}))
    elif kind == "finite":
        reject_unknown_keys(
            obj, _FINITE_KEYS, "finite distribution JSON",
            '; a Markov kernel is the top-level "kernel"',
        )
        backing = obj.get("backing")
        if backing not in (EXACT, FLOAT):
            raise ContractViolation('distribution JSON needs "backing": "exact" or "float"')
        support = obj.get("support")
        if not support or not isinstance(support, list):
            raise ContractViolation("distribution JSON needs a non-empty support list")
        if not all(isinstance(item, dict) and "matrix" in item and "probability" in item
                   for item in support):
            raise ContractViolation('distribution JSON support items need "matrix" and "probability"')
        for item in support:
            reject_unknown_keys(item, _ITEM_KEYS, "distribution JSON support item")
        read = parse_table(as_scalar, backing)
        mats = [matrix_from_json(item["matrix"], backing, read) for item in support]
        probs = [item["probability"] for item in support]
        D = FiniteSupport.make(mats, probs, kernel=obj.get("kernel"))
    else:
        raise ContractViolation(f"unknown distribution kind {kind!r}")
    if "k" in obj and obj["k"] != D.k:
        raise ContractViolation(
            f'distribution JSON: declared k={obj["k"]!r} but its matrices are {D.k}x{D.k}'
        )
    return D
