"""Reference routines, kept verbatim as oracles for differential tests.

The exact routines are the ``Fraction`` implementations that the
integer-scaled routines of ``maxplus.stochastic`` replaced: the word search,
the coupling tracks and the backward scheme multiply the support matrices
in their own exact arithmetic, with no scaling: slow, but independent of
``scale_to_integers`` and of the conversions back to ``Fraction`` on output.

The float routines are the scalar implementations that the numpy block
recursions replaced: one ``Matrix`` per step from ``_MatrixStream.next``
(a generator through its ``sample_fn``), checked row by row, and
``mat_vec``, ``mat_mul``, ``proj_dist`` and ``proj_diameter`` on Python
floats, the per-entry ones of ``reference_kernel``. ``_couple_one`` and
``backward_loynes`` below serve both backings; on floats they are the
scalar routines as they were. The builtin generators' per-step samplers
are kept as well (``scalar_generator``).

``structural_conditions`` is the version with its own breadth-first loop
over bitmask patterns, from before it shared ``_word_bfs`` with the word
search.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Optional

import numpy as np

from maxplus.graphs import is_irreducible
from maxplus.models import cjn_matrix, split_service_vector
from maxplus.projective import canonicalize
from maxplus.semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    Vector,
    as_scalar,
    zero,
)
from maxplus.spectral import is_scs1cyc1
from maxplus.stochastic import (
    _Z95,
    ConditionsReport,
    CouplingSample,
    FiniteSupport,
    GeneratorDistribution,
    LoynesResult,
    LyapunovEstimate,
    MatrixDistribution,
    PatternReport,
    TrajectoryRecord,
    _check_condition_i,
    _cum_floats,
    _initial_letters,
    _next_letters,
    _pick,
    _reverse_kernel_cum,
    _stream,
    dist_backing,
    stationary_distribution,
    word_probability,
)
from reference_kernel import (
    is_rank_one,
    mat_mul,
    mat_vec,
    matrix_proj_normal,
    proj_diameter,
    proj_dist,
    word_product,
)


class _MatrixStream:
    """Sequential sampler of A(0), A(1), ... or, backward, A(-1), A(-2), ..."""

    def __init__(self, dist: MatrixDistribution, rng: np.random.Generator, backward: bool = False):
        self.dist = dist
        self.rng = rng
        self.position = 0
        self._state = None
        if isinstance(dist, FiniteSupport):
            self._cum = _cum_floats(dist.probabilities)
            if dist.kernel is not None:
                pi = stationary_distribution(dist.kernel)
                self._pi_cum = _cum_floats(pi)
                if backward:
                    self._rows = _reverse_kernel_cum(dist.kernel, pi)
                else:
                    self._rows = [_cum_floats(row) for row in dist.kernel]

    def next(self) -> Matrix:
        d = self.dist
        if isinstance(d, GeneratorDistribution):
            A = d.sample_fn(self.rng, self.position)
            self.position += 1
            if not isinstance(A, Matrix) or A.k != d.k or A.backing != FLOAT:
                raise ContractViolation(
                    f"generator {d.name!r} must produce float matrices of size {d.k}"
                )
            return A
        if d.kernel is None:
            idx = _pick(self._cum, float(self.rng.random()))
        else:
            if self._state is None:
                self._state = _pick(self._pi_cum, float(self.rng.random()))
            else:
                self._state = _pick(self._rows[self._state], float(self.rng.random()))
            idx = self._state
        self.position += 1
        return d.matrices[idx]


def _first_finite_column_class(P: Matrix):
    for j in range(P.k):
        col = P.col(j)
        if all(v is not EPS for v in col):
            return canonicalize(Vector(col, P.backing))
    raise ContractViolation("backward product has no finite column")


def _require_row_finite(A: Matrix, when: str) -> None:
    bad = A.row_finite_violation()
    if bad is not None:
        raise ContractViolation(f"{when}: matrix row {bad} is all eps (every row needs a finite entry)")


# ---------------------------------------------------------------------------
# The builtin generators' per-step samplers


def _shared_uniform_sample(k, low, high):
    def sample(rng, n):
        u = float(rng.uniform(low, high))
        rows = tuple(
            tuple(u if i == j else 0.0 for j in range(k)) for i in range(k)
        )
        return Matrix(rows, FLOAT)

    return sample


def _independent_uniform_sample(k, low, high):
    def sample(rng, n):
        us = [float(v) for v in rng.uniform(low, high, size=k)]
        rows = tuple(
            tuple(us[i] if i == j else 0.0 for j in range(k)) for i in range(k)
        )
        return Matrix(rows, FLOAT)

    return sample


def _cjn_uniform_sample(lo, hi, kk, c):
    # continuous service times force float matrices whatever the caller asked
    def sample(rng, n):
        sigma = [float(v) for v in rng.uniform(lo, hi, size=kk)]
        if c == kk:
            return cjn_matrix(sigma, FLOAT)
        return cjn_matrix(split_service_vector(sigma, c, FLOAT), FLOAT)

    return sample


def scalar_generator(D: GeneratorDistribution) -> GeneratorDistribution:
    """A builtin generator with its per-step sampler and no block sampler."""
    p = dict(D.params)
    if D.name == "cjn_uniform":
        sample = _cjn_uniform_sample(p["low"], p["high"], p["queues"], p["customers"])
    elif D.name == "shared_uniform_diagonal":
        sample = _shared_uniform_sample(p["k"], p["low"], p["high"])
    else:
        assert D.name == "independent_uniform_diagonal"
        sample = _independent_uniform_sample(p["k"], p["low"], p["high"])
    return GeneratorDistribution(k=D.k, sample_fn=sample, name=D.name, params=D.params)


# ---------------------------------------------------------------------------
# Drivers


def _couple_one(D, x0s, horizon, eta, seed, rep, track_strong):
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

    if track_strong and merged():
        merge_time = 0
    if eta_close():
        eta_time = 0
    matrices = []
    prefix = None
    for n in range(1, horizon + 1):
        done_strong = (not track_strong) or (merge_time is not None and window[0] is not None)
        if done_strong and eta_time is not None:
            break
        A = stream.next()
        if isinstance(D, GeneratorDistribution):
            _require_row_finite(A, "forward_coupling")
        xs = [mat_vec(A, x) for x in xs]
        if track_strong and window[0] is None:
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
        if track_strong and merge_time is None and merged():
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
    stream = _MatrixStream(D, _stream(seed, replication, 1), backward=True)
    P = None
    trace = []
    last_diam = math.inf
    for n in range(1, budget + 1):
        A = stream.next()
        if isinstance(D, GeneratorDistribution):
            _require_row_finite(A, "backward_loynes")
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
                trace.append((n, float(diam)))
        else:
            diam = proj_diameter(P)
            last_diam = diam
            done = diam <= tol
            if trace_every and (n % trace_every == 0 or done):
                trace.append((n, float(diam) if diam != math.inf else math.inf))
        if done:
            return LoynesResult(
                converged=True,
                steps=n,
                limit_class=_first_finite_column_class(P),
                achieved_diameter=last_diam,
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
        achieved_diameter=last_diam,
        tolerance=tol,
        trace=tuple(trace),
        seed=seed,
        replication=replication,
    )


def _word_bfs(D: FiniteSupport, on_state, max_len: int, budget: int):
    """Breadth-first walk over admissible words, one node per distinct
    (projective product class, last letter if Markov). on_state may return
    a result to stop with. Returns (result, saturated, explored) where
    saturated means the state space was exhausted below max_len."""
    seen = set()
    queue = deque()
    explored = 0
    for letter in _initial_letters(D):
        P = matrix_proj_normal(D.matrices[letter])
        key = (P.rows, letter if D.kernel is not None else None)
        if key in seen:
            continue
        seen.add(key)
        word = (letter,)
        res = on_state(word, P)
        if res is not None:
            return res, False, len(seen)
        queue.append((P, word))
    truncated = False
    while queue:
        explored += 1
        if explored > budget:
            return None, False, len(seen)
        P, word = queue.popleft()
        if len(word) >= max_len:
            truncated = True
            continue
        for letter in _next_letters(D, word[-1]):
            Q = matrix_proj_normal(mat_mul(D.matrices[letter], P))
            key = (Q.rows, letter if D.kernel is not None else None)
            if key in seen:
                continue
            seen.add(key)
            nxt = word + (letter,)
            res = on_state(nxt, Q)
            if res is not None:
                return res, False, len(seen)
            queue.append((Q, nxt))
    return None, not truncated, len(seen)



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

    def on_state(word, P):
        if is_rank_one(P):
            return word
        if not weak and is_irreducible(P) and is_scs1cyc1(P):
            weak["word"] = word
        return None

    hit, saturated, explored = _word_bfs(D, on_state, max_len, budget)
    scs_word = weak.get("word")
    scs_mat = word_product(D, scs_word) if scs_word is not None else None
    scs_prob = word_probability(D, scs_word) if scs_word is not None else None
    if hit is not None:
        P = word_product(D, hit)
        cls = "rank-one"
        if is_irreducible(P) and is_scs1cyc1(P):
            cls = "rank-one+scs1cyc1"
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
    stream = _MatrixStream(D, _stream(seed, replication, 0))
    times = [0]
    states = [x0]
    # The projective track advances from the canonical representative, not
    # from the absolute state: identical for exact backing (the action
    # commutes with adding constants), and for float backing it keeps
    # rounding error independent of the state's growing magnitude.
    proj = canonicalize(x0)
    projective = [proj]
    increments = []
    x = x0
    for n in range(1, horizon + 1):
        A = stream.next()
        if isinstance(D, GeneratorDistribution):
            _require_row_finite(A, "simulate")
        nxt = mat_vec(A, x)
        increments.append(tuple(b - a for a, b in zip(x.entries, nxt.entries)))
        x = nxt
        proj = canonicalize(mat_vec(A, proj.as_vector()))
        if n % thin == 0 or n == horizon:
            times.append(n)
            states.append(x)
            projective.append(proj)
    return TrajectoryRecord(
        seed=seed,
        replication=replication,
        horizon=horizon,
        thin=thin,
        x0=x0,
        sample_times=tuple(times),
        states=tuple(states),
        projective=tuple(projective),
        increments=tuple(increments),
    )


def _map_replications(fn, replications: int, threads: int) -> list:
    if replications < 1:
        raise ContractViolation("replications must be >= 1")
    if threads <= 1:
        return [fn(r) for r in range(replications)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(replications)))


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
    up to O(1/horizon); that is tested, not assumed.
    """
    if horizon < 1:
        raise ContractViolation("lyapunov_estimate: horizon must be >= 1")
    backing = dist_backing(D)
    if x0 is None:
        e = zero(backing)
        x0 = Vector((e,) * D.k, backing)

    def one(rep: int):
        if isinstance(D, FiniteSupport):
            _check_condition_i(D)
        stream = _MatrixStream(D, _stream(seed, rep, channel))
        x = x0
        for _ in range(horizon):
            A = stream.next()
            if isinstance(D, GeneratorDistribution):
                _require_row_finite(A, "lyapunov_estimate")
            x = mat_vec(A, x)
        return max(x.entries) / horizon

    values = _map_replications(one, replications, threads)
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
    Pattern products form a finite semigroup, so the word walk either finds
    an all-finite product or saturates, unless the budget cuts it short."""
    if not isinstance(D, FiniteSupport):
        raise ContractViolation("structural_conditions: needs a finite-support distribution")
    offending = None
    for idx, M in enumerate(D.matrices):
        bad = M.row_finite_violation()
        if bad is not None:
            offending = (idx, bad)
            break
    cond_i = offending is None
    k = D.k
    full = (1 << k) - 1
    full_rows = (full,) * k
    masks = [_mask_rows(M) for M in D.matrices]

    seen = set()
    queue = deque()
    witness = None
    explored = 0
    for letter in _initial_letters(D):
        m = masks[letter]
        key = (m, letter if D.kernel is not None else None)
        if key in seen:
            continue
        seen.add(key)
        if m == full_rows:
            witness = (letter,)
            break
        queue.append((m, (letter,)))
    truncated = False
    while witness is None and queue:
        explored += 1
        if explored > budget:
            truncated = True
            break
        m, word = queue.popleft()
        if len(word) >= max_len:
            truncated = True
            continue
        for letter in _next_letters(D, word[-1]):
            nm = _mask_mul(masks[letter], m, k)
            key = (nm, letter if D.kernel is not None else None)
            if key in seen:
                continue
            seen.add(key)
            nxt = word + (letter,)
            if nm == full_rows:
                witness = nxt
                queue.clear()
                break
            queue.append((nm, nxt))
    if witness is not None:
        cond_ii, status = True, "found"
    elif truncated:
        cond_ii, status = None, "truncated"
    else:
        cond_ii, status = False, "saturated"
    return ConditionsReport(
        condition_i=cond_i,
        offending=offending,
        condition_ii=cond_ii,
        witness=witness,
        status=status,
        states_explored=len(seen),
    )
