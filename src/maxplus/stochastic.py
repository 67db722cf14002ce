"""Stochastic max-plus recursions x(n+1) = A(n) x(n).

Distributions over matrices come in two shapes: a finite support with iid
or Markov-modulated draws, and seeded generator callbacks for continuous
laws. Everything downstream is replayable: random streams are derived from
(seed, replication, channel) alone, and replications are independent units
run in order, so reports do not depend on the ``threads`` argument, which
is accepted and has no effect.

The analysis operations split along the exact/float line. Exact rational
models support coupling certificates (windows whose matrix product is
rank-one), projective-semigroup pattern search, and structural condition
checks; float models get Monte-Carlo estimates and eta-coupling.

The exact routines (the word search behind ``pattern_search``, the strong
and eta tracks of ``forward_coupling``, ``backward_loynes``) run on Python
ints: each call scales the support, and the initial conditions, once by L,
the lcm of their entry denominators (``semiring.scale_to_integers``).
otimes is positively homogeneous, so products are L times the rational
ones, with the same projective classes, rank-one tests and dedupe keys;
distances are L times larger and are compared with L times the exact
threshold. ``Fraction`` stays at the boundary: every value that leaves the
module is divided by L again, and report matrices are products of the
original support. The word search multiplies those integers on the array
kernel of ``arrays``, a breadth-first level at a time, and hands each new
state to the spectral record of ``spectral`` as it is. Under a Markov
kernel a letter may follow another when the exact transition probability
is positive, however small.

The float routines (``simulate``, ``lyapunov_estimate``, the eta track of
``forward_coupling``, ``backward_loynes`` at a positive tolerance) run on
numpy float64 arrays with -inf for eps. A stream yields its matrices in
(n, k, k) blocks: a float support picks indices from a block of uniforms,
a generator draws a block through its ``sample_block(rng, n)``, or, without
one, stacks n ``sample_fn`` calls. Blocks hold at most ``_CHUNK`` matrices,
so memory stays O(_CHUNK k^2) on long horizons; drivers that stop early
start from ``_FIRST_CHUNK`` and double. A generator block is checked for
all-eps rows once, and the driver fails at the step that would use such a
matrix, as it did one matrix at a time. ``lyapunov_estimate`` steps all
replications at once. Each step is the same IEEE additions and maxima as
the scalar kernel, and of tied signed zeros the first is kept, as Python's
``max`` does, so reports are bit for bit those of ``semiring.mat_vec`` and
``projective.proj_dist``. No numpy value leaves the module: results are
Python floats. The array helpers are the kernel in ``arrays``, which the
exact power loops of ``spectral`` share.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .arrays import (
    _as_array,
    _int_stack,
    _matrix_of,
    _max_last,
    _negative_zero,
    _rank_one_flags,
    _stack_keys,
    _stack_mul,
)
from .graphs import graph_of, scc_decompose, scc_from_arcs
from .projective import (
    ProjVector,
    canonicalize,
    is_rank_one,
    proj_dist,
    proj_diameter,
)
from .semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    as_scalar,
    mat_mul,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    reject_unknown_keys,
    scalar_to_json,
    scale_to_integers,
    zero,
)
from .spectral import _int_scs1cyc1, _irreducible_scs1cyc1

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
            value = Fraction(value.strip())
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        return float(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ContractViolation(f"not a probability: {value!r}") from None


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
        probs = tuple(_as_probability(p) for p in probabilities)
        if len(probs) != len(mats):
            raise ContractViolation("FiniteSupport: probabilities do not match support")
        if any((p <= 0) for p in probs):
            raise ContractViolation("FiniteSupport: probabilities must be positive")
        if all(isinstance(p, Fraction) for p in probs):
            if sum(probs) != 1:
                raise ContractViolation("FiniteSupport: probabilities must sum to 1 exactly")
        elif abs(sum(float(p) for p in probs) - 1.0) > 1e-12:
            raise ContractViolation("FiniteSupport: probabilities must sum to 1 within 1e-12")
        knl = None
        if kernel is not None:
            rows = tuple(tuple(_as_probability(p) for p in row) for row in kernel)
            if len(rows) != len(mats) or any(len(r) != len(mats) for r in rows):
                raise ContractViolation("FiniteSupport: kernel shape must match support size")
            for row in rows:
                if any(p < 0 for p in row):
                    raise ContractViolation("FiniteSupport: kernel entries must be >= 0")
                if all(isinstance(p, Fraction) for p in row):
                    if sum(row) != 1:
                        raise ContractViolation("FiniteSupport: kernel rows must sum to 1")
                elif abs(sum(float(p) for p in row) - 1.0) > 1e-12:
                    raise ContractViolation("FiniteSupport: kernel rows must sum to 1")
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
    the positive-transition graph."""
    m = len(kernel)
    arcs = [(i, j) for i in range(m) for j in range(m) if kernel[i][j] > 0]
    dec = scc_from_arcs(m, arcs)
    out = []
    for ci, comp in enumerate(dec.components):
        if all(src != ci for src, _dst in dec.condensation_arcs):
            out.extend(comp)
    return tuple(sorted(out))


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
    law and walks the kernel, time-reversed for the backward scheme."""

    def __init__(self, D: FiniteSupport, rng: np.random.Generator, backward: bool = False):
        self._rng = rng
        self._cum = np.array(_cum_floats(D.probabilities))
        self._rows = None
        self._state = None
        if D.kernel is not None:
            pi = stationary_distribution(D.kernel)
            self._pi_cum = _cum_floats(pi)
            if backward:
                self._rows = _reverse_kernel_cum(D.kernel, pi)
            else:
                self._rows = [_cum_floats(row) for row in D.kernel]

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


class _MatrixStream:
    """Sequential sampler of A(0), A(1), ... or, backward, A(-1), A(-2), ...
    of a FiniteSupport, one support matrix at a time (the exact routines)."""

    def __init__(self, dist: FiniteSupport, rng: np.random.Generator, backward: bool = False):
        self._matrices = dist.matrices
        self._letters = _Letters(dist, rng, backward)
        self._pending = []  # drawn indices, next one last
        self._size = _FIRST_CHUNK

    def next(self) -> Matrix:
        if not self._pending:
            self._pending = self._letters.draw(self._size).tolist()[::-1]
            self._size = min(2 * self._size, _CHUNK)
        return self._matrices[self._pending.pop()]


def _sample_one(sample_block: Callable) -> Callable:
    """The sample_fn of a block sampler: the one matrix of a block of one."""
    return lambda rng, n: _matrix_of(sample_block(rng, 1)[0])


class _FloatStream:
    """A(0), A(1), ... or, backward, A(-1), A(-2), ... of a float
    distribution as float64 (n, k, k) blocks, eps as -inf.

    Generator blocks are checked for all-eps rows (when ``when`` names the
    caller): take() stops just before such a matrix and the next take()
    raises, so a driver fails at the step that would use it. signed turns
    True once a block holds -0.0; drivers set it for their initial state
    too (see _max_last).
    """

    def __init__(self, dist: MatrixDistribution, rng: np.random.Generator,
                 when: Optional[str], backward: bool = False):
        self.dist = dist
        self.rng = rng
        self.when = when
        self.position = 0
        self.signed = False
        self._error = None
        if isinstance(dist, FiniteSupport):
            self._support = _as_array(M.rows for M in dist.matrices)
            self._letters = _Letters(dist, rng, backward)

    def _draw(self, n: int) -> np.ndarray:
        d = self.dist
        if isinstance(d, FiniteSupport):
            return self._support[self._letters.draw(n)]
        if d.sample_block is not None:
            block = np.asarray(d.sample_block(self.rng, n), dtype=float)
            if block.shape != (n, d.k, d.k):
                raise ContractViolation(
                    f"generator {d.name!r} must produce float matrices of size {d.k}"
                )
            return block
        mats = []
        for position in range(self.position, self.position + n):
            A = d.sample_fn(self.rng, position)
            if not isinstance(A, Matrix) or A.k != d.k or A.backing != FLOAT:
                raise ContractViolation(
                    f"generator {d.name!r} must produce float matrices of size {d.k}"
                )
            mats.append(A.rows)
        return _as_array(mats)

    def take(self, n: int) -> np.ndarray:
        """The next at most n matrices: fewer, maybe none, only before an
        all-eps row."""
        if self._error is not None:
            raise self._error
        block = self._draw(n)
        if self.when is not None and isinstance(self.dist, GeneratorDistribution):
            dead = (block == -math.inf).all(-1)
            if dead.any():
                t = int(dead.any(-1).argmax())
                self._error = ContractViolation(
                    f"{self.when}: matrix row {int(dead[t].argmax())} is all eps "
                    "(every row needs a finite entry)"
                )
                block = block[:t]
        self.position += len(block)
        self.signed = self.signed or _negative_zero(block)
        return block

    def blocks(self, total: int, first: int = _CHUNK):
        """Blocks covering the next total matrices, of size first, doubling,
        at most _CHUNK."""
        end = self.position + total
        n = first
        while self.position < end:
            yield self.take(min(n, end - self.position))
            n = min(2 * n, _CHUNK)

    def matrices(self, total: int, first: int = _CHUNK):
        """The next total matrices one by one, drawn as blocks()."""
        for block in self.blocks(total, first):
            yield from block


def _integer_support(D: FiniteSupport, vectors: Sequence[Vector] = ()) -> tuple:
    """(L, D with every matrix times L, vectors times L), all Python ints;
    the draws are those of D."""
    L, mats, xs = scale_to_integers(D.matrices, vectors)
    return L, FiniteSupport(mats, D.probabilities, D.kernel), xs


def _condition_i_offender(D: FiniteSupport) -> Optional[tuple]:
    """(support index, row) of the first all-eps row of the support, or
    None when condition I holds."""
    for idx, M in enumerate(D.matrices):
        bad = M.row_finite_violation()
        if bad is not None:
            return idx, bad
    return None


def _check_condition_i(D: FiniteSupport) -> None:
    offending = _condition_i_offender(D)
    if offending is not None:
        idx, row = offending
        raise ContractViolation(
            f"support matrix {idx} violates the row-finiteness condition at row {row}"
        )


def sample_sequence(D: MatrixDistribution, seed: int, n: int, replication: int = 0) -> list:
    """The matrices A(0), ..., A(n-1) that any same-seeded run will see."""
    rng = _stream(seed, replication, 0)
    if isinstance(D, FiniteSupport):
        stream = _MatrixStream(D, rng)
        return [stream.next() for _ in range(n)]
    return [_matrix_of(A) for block in _FloatStream(D, rng, None).blocks(n) for A in block]


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
    if horizon < 0 or thin < 1:
        raise ContractViolation("simulate: horizon must be >= 0 and thin >= 1")
    if not x0.is_finite():
        raise ContractViolation("simulate: initial condition must be finite")
    if len(x0) != D.k:
        raise ContractViolation(f"simulate: x0 has length {len(x0)}, model has k={D.k}")
    if x0.backing != dist_backing(D):
        raise ContractViolation("simulate: x0 backing does not match the distribution")
    if isinstance(D, FiniteSupport):
        _check_condition_i(D)
    times = [0] + [n for n in range(1, horizon + 1) if n % thin == 0 or n == horizon]
    if x0.backing == FLOAT:
        states, projective, increments = _simulate_float(D, x0, horizon, seed, replication, times)
    else:
        states, projective, increments = _simulate_exact(D, x0, horizon, seed, replication, times)
    return TrajectoryRecord(
        seed=seed,
        replication=replication,
        horizon=horizon,
        thin=thin,
        x0=x0,
        sample_times=tuple(times),
        states=states,
        projective=projective,
        increments=increments,
    )


# The projective track advances from the canonical representative, not from
# the absolute state: identical for exact backing (the action commutes with
# adding constants), and for float backing it keeps rounding error
# independent of the state's growing magnitude.


def _simulate_exact(D, x0, horizon, seed, replication, times):
    stream = _MatrixStream(D, _stream(seed, replication, 0))
    recorded = set(times)
    proj = canonicalize(x0)
    states = [x0]
    projective = [proj]
    increments = []
    x = x0
    for n in range(1, horizon + 1):
        A = stream.next()
        nxt = mat_vec(A, x)
        increments.append(tuple(b - a for a, b in zip(x.entries, nxt.entries)))
        x = nxt
        proj = canonicalize(mat_vec(A, proj.as_vector()))
        if n in recorded:
            states.append(x)
            projective.append(proj)
    return tuple(states), tuple(projective), tuple(increments)


def _simulate_float(D, x0, horizon, seed, replication, times):
    stream = _FloatStream(D, _stream(seed, replication, 0), "simulate")
    track = np.empty((horizon + 1, 2, D.k))  # track[n] = (x(n), projective state)
    track[0] = (x0.entries, canonicalize(x0).entries)
    stream.signed = _negative_zero(track[0])
    for n, A in enumerate(stream.matrices(horizon), 1):
        y = _max_last(A + track[n - 1][:, None, :], stream.signed)
        y[1] -= _max_last(y[1], stream.signed)
        track[n] = y
    kept = track[times].tolist()
    states = tuple(Vector(tuple(x), FLOAT) for x, _ in kept)
    projective = tuple(ProjVector(tuple(p), FLOAT) for _, p in kept)
    increments = tuple(map(tuple, np.diff(track[:, 0], axis=0).tolist()))
    return states, projective, increments


def _map_replications(fn, replications: int) -> list:
    if replications < 1:
        raise ContractViolation("replications must be >= 1")
    return [fn(r) for r in range(replications)]


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
    up to O(1/horizon); that is tested, not assumed. Float models step all
    replications at once; threads is accepted and has no effect.
    """
    if horizon < 1:
        raise ContractViolation("lyapunov_estimate: horizon must be >= 1")
    if replications < 1:
        raise ContractViolation("replications must be >= 1")
    backing = dist_backing(D)
    if x0 is None:
        e = zero(backing)
        x0 = Vector((e,) * D.k, backing)

    if len(x0) != D.k:
        raise ContractViolation(f"lyapunov_estimate: x0 has length {len(x0)}, model has k={D.k}")
    if x0.backing != backing:
        raise ContractViolation("lyapunov_estimate: x0 backing does not match the distribution")
    if isinstance(D, FiniteSupport):
        _check_condition_i(D)
    if backing == FLOAT:
        values = _lyapunov_float(D, x0, horizon, replications, seed, channel)
    else:

        def one(rep: int):
            stream = _MatrixStream(D, _stream(seed, rep, channel))
            x = x0
            for _ in range(horizon):
                x = mat_vec(stream.next(), x)
            if not x.is_finite():
                raise ContractViolation(_EPS_AT_HORIZON)
            return max(x.entries) / horizon

        values = _map_replications(one, replications)
    if backing == EXACT:
        point = sum(values, Fraction(0)) / len(values)
    else:
        point = sum(values) / len(values)
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


_EPS_AT_HORIZON = "lyapunov_estimate: the state at the horizon has eps coordinates"


def _lyapunov_float(D, x0, horizon, replications, seed, channel) -> list:
    """max_i x_i(horizon) / horizon per replication, every replication
    stepped at once: (R, k, k) + (R, 1, k), max over the last axis."""
    streams = [
        _FloatStream(D, _stream(seed, rep, channel), "lyapunov_estimate")
        for rep in range(replications)
    ]
    x = np.tile(np.array([-math.inf if v is EPS else v for v in x0.entries]), (replications, 1))
    signed = _negative_zero(x)
    done = 0
    while done < horizon:
        n = min(_CHUNK, horizon - done)
        blocks = [s.take(n) for s in streams]
        if any(len(b) < n for b in blocks):
            # some replication meets an all-eps row before the horizon; raise
            # for the first one that does, as running them in order would
            for s in streams:
                for _ in s.blocks(horizon - s.position):
                    pass
        signed = signed or any(s.signed for s in streams)
        for A in np.stack(blocks, axis=1):
            x = _max_last(A + x[:, None, :], signed)
        done += n
    if np.isneginf(x).any():
        raise ContractViolation(_EPS_AT_HORIZON)
    return (_max_last(x, signed) / horizon).tolist()


# ---------------------------------------------------------------------------
# Forward coupling


@dataclass(frozen=True)
class CouplingSample:
    replication: int
    merge_time: Optional[int]
    eta_time: Optional[int]
    window_start: Optional[int]
    window_length: Optional[int]

    @property
    def certified_time(self) -> Optional[int]:
        if self.window_start is None:
            return None
        return self.window_start + self.window_length


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

    def merge_times(self) -> list:
        return [s.merge_time for s in self.samples]

    def strong_fraction(self) -> float:
        hits = sum(1 for s in self.samples if s.merge_time is not None)
        return hits / len(self.samples)

    def certified_fraction(self) -> float:
        hits = sum(1 for s in self.samples if s.window_start is not None)
        return hits / len(self.samples)

    def eta_fraction(self) -> float:
        hits = sum(1 for s in self.samples if s.eta_time is not None)
        return hits / len(self.samples)

    def coupled_fraction_by(self, t: int) -> float:
        hits = sum(
            1 for s in self.samples if s.merge_time is not None and s.merge_time <= t
        )
        return hits / len(self.samples)


def _couple_one(D, x0s, horizon, eta, seed, rep):
    """Strong and eta coupling of one replication of an integer support."""
    stream = _MatrixStream(D, _stream(seed, rep, 0))
    xs = list(x0s)
    merge_time = None
    eta_time = None
    window = (None, None)

    def merged() -> bool:
        first = canonicalize(xs[0]).entries
        return all(canonicalize(x).entries == first for x in xs[1:])

    def eta_close() -> bool:
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                if proj_dist(xs[i], xs[j]) > eta:
                    return False
        return True

    if merged():
        merge_time = 0
    if eta_close():
        eta_time = 0
    matrices = []
    prefix = None
    for n in range(1, horizon + 1):
        if merge_time is not None and window[0] is not None and eta_time is not None:
            break
        A = stream.next()
        xs = [mat_vec(A, x) for x in xs]
        if window[0] is None:
            matrices.append(A)
            prefix = A if prefix is None else mat_mul(A, prefix)
            if is_rank_one(prefix):
                # shortest window ending here: walk the start backwards;
                # prod accumulates A(n-1) ... A(p) and p = 0 always hits
                prod = None
                for p in range(n - 1, -1, -1):
                    prod = matrices[p] if prod is None else mat_mul(prod, matrices[p])
                    if is_rank_one(prod):
                        window = (p, n - p)
                        break
                matrices = []
        if merge_time is None and merged():
            merge_time = n
        if eta_time is None and eta_close():
            eta_time = n
    return CouplingSample(
        replication=rep,
        merge_time=merge_time,
        eta_time=eta_time,
        window_start=window[0],
        window_length=window[1],
    )


def _couple_float(D, x0s, horizon, eta, seed, rep):
    """Eta coupling of one replication of a float model: the states of all
    initial conditions step as one (m, k) array. proj_dist(x_i, x_j) is
    M[i, j] + M[j, i] for M[i, j] = max(x_i - x_j)."""
    stream = _FloatStream(D, _stream(seed, rep, 0), "forward_coupling")
    x = np.array([v.entries for v in x0s])

    def eta_close() -> bool:
        M = (x[:, None, :] - x[None, :, :]).max(-1)
        return float((M + M.T).max()) <= eta

    eta_time = 0 if eta_close() else None
    if eta_time is None:
        for n, A in enumerate(stream.matrices(horizon, _FIRST_CHUNK), 1):
            x = (A + x[:, None, :]).max(-1)
            if eta_close():
                eta_time = n
                break
    return CouplingSample(
        replication=rep, merge_time=None, eta_time=eta_time, window_start=None, window_length=None
    )


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
    eta coupling only. Replications run in order; threads is accepted and
    has no effect."""
    x0s = tuple(initial_conditions)
    if len(x0s) < 2:
        raise ContractViolation("forward_coupling: need at least two initial conditions")
    backing = dist_backing(D)
    for x in x0s:
        if len(x) != D.k or not x.is_finite():
            raise ContractViolation("forward_coupling: initial conditions must be finite, length k")
        if x.backing != backing:
            raise ContractViolation("forward_coupling: initial condition backing mismatch")
    if isinstance(D, FiniteSupport):
        _check_condition_i(D)
    if eta is None or not eta >= 0:
        raise ContractViolation("forward_coupling: eta must be >= 0")
    if backing == FLOAT:

        def one(rep):
            return _couple_float(D, x0s, horizon, eta, seed, rep)

    else:
        L, Dw, xw = _integer_support(D, x0s)
        bound = eta if eta == math.inf else Fraction(eta) * L

        def one(rep):
            return _couple_one(Dw, xw, horizon, bound, seed, rep)

    return CouplingReport(
        eta=eta,
        horizon=horizon,
        replications=replications,
        modes=("eta",) if backing == FLOAT else ("strong", "eta"),
        initial_conditions=x0s,
        samples=tuple(_map_replications(one, replications)),
    )


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


def _first_finite_column_class(P: Matrix) -> ProjVector:
    for j in range(P.k):
        col = P.col(j)
        if all(v is not EPS for v in col):
            return canonicalize(Vector(col, P.backing))
    raise ContractViolation("backward product has no finite column")


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
    a positive tolerance. A budget exhaustion returns a partial result
    with converged=False rather than raising."""
    backing = dist_backing(D)
    tol = as_scalar(tolerance, backing) if tolerance != 0 else 0
    if tol is EPS:
        raise ContractViolation("backward_loynes: tolerance must be a number >= 0")
    if tolerance != 0 and tol < 0:
        raise ContractViolation("backward_loynes: tolerance must be >= 0")
    if tolerance == 0 and backing == FLOAT:
        raise ContractViolation(
            "backward_loynes: exact convergence (tolerance 0) needs the exact backing"
        )
    if isinstance(D, FiniteSupport):
        _check_condition_i(D)
    if backing == FLOAT:
        return _loynes_float(D, tol, budget, seed, replication, trace_every)
    L, D, _ = _integer_support(D)
    bound = tol * L

    def unscaled(d):
        # what proj_diameter gives on the unscaled product: 0 and inf as they are
        return d if d == 0 or d == math.inf else Fraction(d, L)

    stream = _MatrixStream(D, _stream(seed, replication, 1), backward=True)
    P = None
    trace = []
    last_diam = math.inf
    for n in range(1, budget + 1):
        A = stream.next()
        P = A if P is None else mat_mul(P, A)
        if tolerance == 0:
            done = is_rank_one(P)
            diam = 0 if done else None
            if done:
                last_diam = 0
            if trace_every and (n % trace_every == 0 or done):
                if not done:
                    diam = proj_diameter(P)
                    last_diam = diam
                trace.append((n, float(unscaled(diam))))
        else:
            diam = proj_diameter(P)
            last_diam = diam
            done = diam <= bound
            if trace_every and (n % trace_every == 0 or done):
                trace.append((n, float(unscaled(diam))))
        if done:
            limit = _first_finite_column_class(P)
            return LoynesResult(
                converged=True,
                steps=n,
                limit_class=ProjVector(tuple(Fraction(v, L) for v in limit.entries), EXACT),
                achieved_diameter=unscaled(last_diam),
                tolerance=tol,
                trace=tuple(trace),
                seed=seed,
                replication=replication,
            )
    if last_diam == math.inf and P is not None and tolerance == 0:
        last_diam = proj_diameter(P)
    return LoynesResult(
        converged=False,
        steps=budget,
        limit_class=None,
        achieved_diameter=unscaled(last_diam),
        tolerance=tol,
        trace=tuple(trace),
        seed=seed,
        replication=replication,
    )


def _loynes_float(D, tol, budget, seed, replication, trace_every) -> LoynesResult:
    """The backward scheme of a float model on arrays: P(n) = P(n-1) A(-n)
    takes the max over l of P[i, l] + A[l, j]."""
    stream = _FloatStream(D, _stream(seed, replication, 1), "backward_loynes", backward=True)
    P = None
    trace = []
    diam = math.inf
    for n, A in enumerate(stream.matrices(budget, _FIRST_CHUNK), 1):
        P = A if P is None else _max_last(P[:, None, :] + A.T, stream.signed)
        diam = _diameter(P)
        done = diam <= tol
        if trace_every and (n % trace_every == 0 or done):
            trace.append((n, diam))
        if done:
            # a finite diameter means every entry is finite: column 0 is the
            # first finite column
            top = _max_last(P[:, 0], stream.signed)
            return LoynesResult(
                converged=True,
                steps=n,
                limit_class=ProjVector(tuple((P[:, 0] - top).tolist()), FLOAT),
                achieved_diameter=diam,
                tolerance=tol,
                trace=tuple(trace),
                seed=seed,
                replication=replication,
            )
    return LoynesResult(
        converged=False,
        steps=budget,
        limit_class=None,
        achieved_diameter=diam,
        tolerance=tol,
        trace=tuple(trace),
        seed=seed,
        replication=replication,
    )


def _diameter(P: np.ndarray) -> float:
    """proj_diameter of a float product: inf unless every entry is finite,
    else the max over column pairs of proj_dist, which is M[i, j] + M[j, i]
    for M[i, j] = max over rows of P[:, i] - P[:, j]."""
    if np.isneginf(P).any():
        return math.inf
    M = (P[:, :, None] - P[:, None, :]).max(0)
    return max(0.0, float((M + M.T).max()))


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
    visit(word, children, i) sees each new key once and may return a result
    to stop with. At most budget words are expanded (the empty word aside),
    and words stop growing at max_len. Returns (result, saturated, states):
    saturated means every state reachable below max_len was visited; states
    counts the distinct keys seen."""
    markov = D.kernel is not None
    follows = [_next_letters(D, letter) for letter in range(D.size)]
    seen = set()
    level, parents, words = root, [0], [()]
    expanded = 0
    cut = False
    while parents:
        if words[0]:  # the empty word is not counted
            if len(words[0]) >= max_len or expanded >= budget:
                return None, False, len(seen)
            cut = len(parents) > budget - expanded
            del parents[budget - expanded :], words[budget - expanded :]
            expanded += len(parents)
        at, letters, stems = [], [], []
        for p, word in zip(parents, words):
            nxt = follows[word[-1]] if word else _initial_letters(D)
            at += [p] * len(nxt)
            letters += nxt
            stems += [word] * len(nxt)
        children, keys = expand(level, at, letters)
        level, parents, words = children, [], []
        for i, (key, letter, stem) in enumerate(zip(keys, letters, stems)):
            if markov:
                key = (key, letter)
            if key in seen:
                continue
            seen.add(key)
            word = stem + (letter,)
            res = visit(word, children, i)
            if res is not None:
                return res, False, len(seen)
            parents.append(i)
            words.append(word)
        if cut:
            return None, False, len(seen)
    return None, True, len(seen)


def word_product(D: FiniteSupport, word: Sequence[int]) -> Matrix:
    """Exact product A(u_{N-1}) ... A(u_0) of the word (u_0, ..., u_{N-1})."""
    P = D.matrices[word[0]]
    for letter in word[1:]:
        P = mat_mul(D.matrices[letter], P)
    return P


def word_probability(D: FiniteSupport, word: Sequence[int]):
    """Probability of seeing the word as the next len(word) letters; the
    stationary chain makes this time-invariant. Exact for iid rational
    probabilities, float under a Markov kernel."""
    if D.kernel is None:
        p = Fraction(1)
        for letter in word:
            p = p * D.probabilities[letter]
        return p
    pi = stationary_distribution(D.kernel)
    p = pi[word[0]]
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
    if max_len < 1:
        raise ContractViolation("pattern_search: max_len must be >= 1")
    _check_condition_i(D)
    weak = {}
    # states are the projective normal forms of the integer-scaled products:
    # scaling every matrix by one positive factor visits the same words. A
    # word has at most W = min(max_len, budget + 1) letters, so a normal
    # form has entries in [-2 W top, 0] and the outer sums of the rank-one
    # test in [-4 W top, 0] (see _rank_one_flags).
    _, Dint, _ = _integer_support(D)
    length = min(max_len, max(budget, 0) + 1)
    support, eps, clamp = _int_stack(Dint.matrices, 2 * (length + 1))
    # a level is (normal forms, rank-one flags); the root holds the identity
    identity = np.full((D.k, D.k), eps, support.dtype)
    np.fill_diagonal(identity, 0)

    def expand(level, parents, letters):
        Q = _stack_mul(support[letters], level[0][parents])
        Q -= Q.max((1, 2))[:, None, None]
        clamp(Q)
        return (Q, _rank_one_flags(Q, clamp)), _stack_keys(Q)

    def on_state(word, level, i):
        Q, rank_one = level
        if rank_one[i]:
            return word
        if not weak and _int_scs1cyc1(Q[i], eps):
            weak["word"] = word
        return None

    hit, saturated, explored = _word_bfs(D, (identity[None],), expand, on_state, max_len, budget)
    scs_word = weak.get("word")
    scs_mat = word_product(D, scs_word) if scs_word is not None else None
    scs_prob = word_probability(D, scs_word) if scs_word is not None else None
    if hit is not None:
        P = word_product(D, hit)
        cls = "rank-one+scs1cyc1" if _irreducible_scs1cyc1(P) else "rank-one"
        return PatternReport(
            found=True,
            word=hit,
            matrix=P,
            length=len(hit),
            classification=cls,
            probability=word_probability(D, hit),
            status="found",
            states_explored=explored,
            max_len=max_len,
            scs1cyc1_word=scs_word,
            scs1cyc1_matrix=scs_mat,
            scs1cyc1_probability=scs_prob,
        )
    return PatternReport(
        found=False,
        word=None,
        matrix=None,
        length=None,
        classification=None,
        probability=None,
        status="saturated" if saturated else "truncated",
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


def _mask_rows(M: Matrix) -> tuple:
    rows = []
    for row in M.rows:
        bits = 0
        for j, v in enumerate(row):
            if v is not EPS:
                bits |= 1 << j
        rows.append(bits)
    return tuple(rows)


def _mask_mul(B: tuple, A: tuple, k: int) -> tuple:
    # boolean product: (B A)[i][j] = OR_l B[i][l] & A[l][j], rows as bitmasks
    out = []
    for i in range(k):
        acc = 0
        bi = B[i]
        for l in range(k):
            if bi >> l & 1:
                acc |= A[l]
        out.append(acc)
    return tuple(out)


def structural_conditions(D: FiniteSupport, max_len: int = 64, budget: int = 500000) -> ConditionsReport:
    """Decide the two structural preconditions on the support patterns.

    Condition II walks the admissible words (_word_bfs) on ε patterns
    only: a word's state is its product's pattern as one bitmask of finite
    entries per row (_mask_rows), extended by the boolean product
    (_mask_mul), and the walk stops at the first word whose rows are all
    full. Pattern products form a finite semigroup, so the walk either
    finds one or saturates, unless the budget cuts it short. The states
    stay bitmasks rather than 0/ε max-plus matrices: a support that fails
    condition I can have an all-ε product, which has no projective normal
    form but must still be reported, and a bitmask step is cheaper than a
    max-plus product."""
    if not isinstance(D, FiniteSupport):
        raise ContractViolation("structural_conditions: needs a finite-support distribution")
    offending = _condition_i_offender(D)
    k = D.k
    full_rows = ((1 << k) - 1,) * k
    masks = [_mask_rows(M) for M in D.matrices]

    def expand(level, parents, letters):
        children = [_mask_mul(masks[letter], level[p], k) for p, letter in zip(parents, letters)]
        return children, children

    witness, saturated, states = _word_bfs(
        D,
        [tuple(1 << i for i in range(k))],
        expand,
        lambda word, level, i: word if level[i] == full_rows else None,
        max_len,
        budget,
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

    def one(rep):
        return backward_loynes(
            Df,
            tolerance=options.eta,
            budget=options.mc_budget,
            seed=options.seed,
            replication=rep,
            trace_every=0,
        )

    results = _map_replications(one, options.mc_seeds)
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


def stability_verdict(D: MatrixDistribution, options: Optional[StabilityOptions] = None) -> StabilityVerdict:
    """Classify the model on the strong/weak/unstable/inconclusive ladder.

    Exact finite-support models are searched for pattern certificates
    first; everything else (and truncated searches) falls back to
    Monte-Carlo backward-diameter evidence at the eta threshold.
    """
    opt = options or StabilityOptions()
    notes = []
    conditions = None
    pattern = None
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
                cert = {
                    "word": list(pattern.word),
                    "length": pattern.length,
                    "probability": scalar_to_json(pattern.probability),
                    "matrix": matrix_to_json(pattern.matrix),
                    "classification": pattern.classification,
                }
                return StabilityVerdict("StableStrong", basis, cert, conditions, pattern, tuple(notes))
            if D.is_iid() and pattern.scs1cyc1_word is not None:
                cert = {
                    "word": list(pattern.scs1cyc1_word),
                    "length": len(pattern.scs1cyc1_word),
                    "probability": scalar_to_json(pattern.scs1cyc1_probability),
                    "matrix": matrix_to_json(pattern.scs1cyc1_matrix),
                    "classification": "scs1cyc1",
                }
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
        has_circuit = all(
            any(D.matrices[0].entry(i, j) is not EPS for j in comp) for i in comp
        )
        if not has_circuit:
            rates.append(None)
            continue
        sub = _restrict_support(D, comp)
        rates.append(
            lyapunov_estimate(
                sub, horizon=horizon, replications=replications, seed=seed,
                threads=threads, channel=2 + ci,
            )
        )
    # ancestor closure over the condensation (components in topological order)
    n_comp = len(dec.components)
    ancestors = [set((i,)) for i in range(n_comp)]
    changed = True
    while changed:
        changed = False
        for src, dst in dec.condensation_arcs:
            before = len(ancestors[dst])
            ancestors[dst] |= ancestors[src]
            if len(ancestors[dst]) != before:
                changed = True
    node_limits = [None] * D.k
    for node in range(D.k):
        ci = dec.component_of[node]
        vals = [rates[a].point for a in ancestors[ci] if rates[a] is not None]
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
        mats = [matrix_from_json(item["matrix"], backing) for item in support]
        probs = [item["probability"] for item in support]
        D = FiniteSupport.make(mats, probs, kernel=obj.get("kernel"))
    else:
        raise ContractViolation(f"unknown distribution kind {kind!r}")
    if "k" in obj and obj["k"] != D.k:
        raise ContractViolation(
            f'distribution JSON: declared k={obj["k"]!r} but its matrices are {D.k}x{D.k}'
        )
    return D
