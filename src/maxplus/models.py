"""Model builders: cyclic Jackson networks and random task graphs.

Both reduce domain descriptions to MatrixDistributions. The CJN builder
also carries the closed-form stability condition on service-time vectors
and the reconstruction of idle and waiting times from a trajectory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from .semiring import (
    EPS,
    EXACT,
    FLOAT,
    ContractViolation,
    Matrix,
    as_scalar,
    reject_unknown_keys,
)
from .stochastic import (
    FiniteSupport,
    GeneratorDistribution,
    MatrixDistribution,
    _as_probability,
    _cum_floats,
    _pick,
    _sample_one,
    register_generator,
)


# ---------------------------------------------------------------------------
# Cyclic Jackson networks


def _sequence(value, what: str) -> tuple:
    """value as a tuple when it is a list or tuple, else a ContractViolation
    (a spec read from JSON may hold a number or an object there)."""
    if not isinstance(value, (list, tuple)):
        raise ContractViolation(f"{what} must be an array, got {value!r}")
    return tuple(value)


def cjn_matrix(sigma: Sequence, backing: str = EXACT) -> Matrix:
    """Cycle of k single-server queues with service times sigma.

    Queue j starts its n-th service once it has finished the previous one
    (diagonal entry sigma_j) and received the customer from the queue
    before it in the cycle (sub-diagonal entry sigma_j, wrapping at the
    corner). All other entries are eps.
    """
    k = len(sigma)
    if k < 2:
        raise ContractViolation("cjn_matrix: need at least 2 queues")
    s = [as_scalar(v, backing) for v in sigma]
    if any(v is EPS for v in s):
        raise ContractViolation("cjn_matrix: service times must be finite")
    rows = []
    for j in range(k):
        row = [EPS] * k
        row[j] = s[j]
        row[(j - 1) % k] = s[j]
        rows.append(tuple(row))
    return Matrix(tuple(rows), backing)


@dataclass(frozen=True)
class JointServiceLaw:
    """Finite support of whole service vectors: atoms[l] with probability probs[l]."""

    atoms: tuple
    probs: tuple

    @staticmethod
    def make(atoms, probs) -> "JointServiceLaw":
        ats = tuple(_sequence(a, "service atom") for a in _sequence(atoms, "atoms"))
        if not ats:
            raise ContractViolation("JointServiceLaw: empty support")
        k = len(ats[0])
        if any(len(a) != k for a in ats):
            raise ContractViolation("JointServiceLaw: mixed vector lengths")
        ps = tuple(_as_probability(p) for p in _sequence(probs, "probs"))
        if len(ps) != len(ats):
            raise ContractViolation("JointServiceLaw: probabilities do not match atoms")
        return JointServiceLaw(ats, ps)

    @property
    def k(self) -> int:
        return len(self.atoms[0])


@dataclass(frozen=True)
class PerQueueServiceLaw:
    """Independent finite-support service times per queue; the joint law is
    the product over queues."""

    values: tuple  # per queue: tuple of service times
    probs: tuple  # per queue: tuple of probabilities

    @staticmethod
    def make(values, probs) -> "PerQueueServiceLaw":
        vals = tuple(_sequence(v, "queue values") for v in _sequence(values, "values"))
        ps = tuple(
            tuple(_as_probability(p) for p in _sequence(row, "queue probs"))
            for row in _sequence(probs, "probs")
        )
        if len(vals) != len(ps) or not vals:
            raise ContractViolation("PerQueueServiceLaw: values/probs shape mismatch")
        for v, p in zip(vals, ps):
            if len(v) != len(p) or not v:
                raise ContractViolation("PerQueueServiceLaw: values/probs shape mismatch")
        return PerQueueServiceLaw(vals, ps)

    @property
    def k(self) -> int:
        return len(self.values)

    def joint(self) -> JointServiceLaw:
        atoms = []
        probs = []
        for combo in itertools.product(*(range(len(v)) for v in self.values)):
            atoms.append(tuple(self.values[q][i] for q, i in enumerate(combo)))
            probs.append(math.prod((self.probs[q][i] for q, i in enumerate(combo)), start=Fraction(1)))
        return JointServiceLaw.make(atoms, probs)


@dataclass(frozen=True)
class UniformServiceLaw:
    """Service times drawn independently and uniformly from [low, high] per
    step and per queue; produces a generator-backed distribution."""

    k: int
    low: float
    high: float

    def __post_init__(self):
        if self.k < 2:
            raise ContractViolation("UniformServiceLaw: need at least 2 queues")
        if not (0.0 <= self.low <= self.high):
            raise ContractViolation("UniformServiceLaw: need 0 <= low <= high")


ServiceLaw = Union[JointServiceLaw, PerQueueServiceLaw, UniformServiceLaw]


@dataclass(frozen=True)
class CjnSpec:
    """Closed cyclic network of queues visited in a fixed cyclic order by a
    fixed customer population."""

    queues: int
    customers: int
    law: ServiceLaw

    def __post_init__(self):
        if self.queues < 2:
            raise ContractViolation("CjnSpec: need at least 2 queues")
        if self.customers < 1:
            raise ContractViolation("CjnSpec: need at least 1 customer")
        lk = self.law.k
        if lk != self.queues:
            raise ContractViolation(
                f"CjnSpec: law covers {lk} queues, spec declares {self.queues}"
            )


def _split_positions(queues: int, customers: int) -> list:
    """Indices of the fictive zero-service coordinates after splitting.

    The extra customers - queues coordinates are distributed round-robin:
    physical queue j receives extra // queues fictive queues, plus one
    more for j < extra % queues, each inserted immediately after j in the
    cyclic order.
    """
    extra = customers - queues
    per = [extra // queues + (1 if j < extra % queues else 0) for j in range(queues)]
    fictive = []
    pos = 0
    for j in range(queues):
        pos += 1
        for _ in range(per[j]):
            fictive.append(pos)
            pos += 1
    return fictive


def split_service_vector(sigma: Sequence, customers: int, backing: str = EXACT) -> tuple:
    """Embed a k-queue service vector into dimension = customers by giving
    the fictive coordinates service time e (= 0)."""
    k = len(sigma)
    fictive = set(_split_positions(k, customers))
    out = []
    it = iter(sigma)
    for pos in range(customers):
        if pos in fictive:
            out.append(as_scalar(0, backing))
        else:
            out.append(as_scalar(next(it), backing))
    return tuple(out)


def cjn_distribution(spec: CjnSpec, backing: str = EXACT) -> MatrixDistribution:
    """Matrix distribution of the network.

    Each service vector is split into dimension customers with
    zero-service fictive coordinates (layout in split_service_vector,
    the identity when customers == queues), so exactly customers - queues
    rows carry service time e, and mapped through cjn_matrix. customers <
    queues has no matrix form of this shape and is rejected.
    """
    k, c = spec.queues, spec.customers
    if c < k:
        raise ContractViolation(
            "cjn_distribution: fewer customers than queues needs a different "
            "state representation that this library does not provide"
        )

    law = spec.law
    if isinstance(law, UniformServiceLaw):
        lo, hi, kk = law.low, law.high, law.k
        fictive = set(_split_positions(kk, c))
        physical = [pos for pos in range(c) if pos not in fictive]
        diag = np.arange(c)

        # continuous service times force float matrices whatever the caller
        # asked: cjn_matrix of the split service vectors, a block at a time
        def sample_block(rng, n):
            sigma = np.zeros((n, c))
            sigma[:, physical] = rng.uniform(lo, hi, size=(n, kk))
            out = np.full((n, c, c), -math.inf)
            out[:, diag, diag] = sigma
            out[:, diag, (diag - 1) % c] = sigma
            return out

        return GeneratorDistribution(
            k=c,
            sample_fn=_sample_one(sample_block),
            name="cjn_uniform",
            params=(("queues", kk), ("customers", c), ("low", lo), ("high", hi)),
            sample_block=sample_block,
        )
    joint = law.joint() if isinstance(law, PerQueueServiceLaw) else law
    merged = {}
    for atom, p in zip(joint.atoms, joint.probs):
        key = split_service_vector(atom, c, backing)
        if key in merged:
            merged[key] += p
        else:
            merged[key] = p
    return FiniteSupport.make([cjn_matrix(key, backing) for key in merged], list(merged.values()))


def cjn_stability_condition(spec: CjnSpec):
    """Closed-form coupling condition for customers == queues with a finite
    iid service law: some atom has a unique strictly maximal service time,
    or some atom has all service times equal. Returns (bool, witness atom),
    the atom's service times read by as_scalar: exactly, floats as floats."""
    if isinstance(spec.law, UniformServiceLaw):
        raise ContractViolation("cjn_stability_condition: needs a finite service law")
    if spec.customers != spec.queues:
        raise ContractViolation("cjn_stability_condition: needs customers == queues")
    joint = spec.law.joint() if isinstance(spec.law, PerQueueServiceLaw) else spec.law
    for raw in joint.atoms:
        atom = tuple(as_scalar(v, FLOAT if isinstance(v, float) else EXACT) for v in raw)
        top = max(atom)
        if sum(1 for v in atom if v == top) == 1:
            return True, atom
        if all(v == atom[0] for v in atom):
            return True, atom
    return False, None


def cjn_trajectory_columns(traj, matrices, physical: bool = True) -> dict:
    """Reconstruct idle and waiting times from an unthinned trajectory and
    the matrix sequence that drove it (replayable via sample_sequence).

    idle[n-1][j] is the time queue j spent empty between its (n-1)-th and
    n-th departures: x_j(n) - sigma_j - x_j(n-1), with sigma_j read off the
    diagonal of the matrix applied at step n. waiting[n-1][j] is the time
    the customer arriving at queue j waited before service:
    x_j(n) - sigma_j - x_{j-1}(n-1), cyclic in j. Waiting times are only
    meaningful when every coordinate is a physical queue (customers ==
    queues); split models must pass physical=False, which reports
    waiting=None. A matrix with eps on its diagonal is a
    ContractViolation naming the step and the queue.
    """
    if traj.thin != 1:
        raise ContractViolation("cjn_trajectory_columns: needs an unthinned trajectory")
    if len(matrices) < traj.horizon:
        raise ContractViolation("cjn_trajectory_columns: matrix sequence shorter than horizon")
    k = len(traj.x0)
    idle = []
    waiting = []
    for n in range(1, traj.horizon + 1):
        A = matrices[n - 1]
        prev = traj.states[n - 1].entries
        cur = traj.states[n].entries
        sig = [A.entry(j, j) for j in range(k)]
        if EPS in sig:
            raise ContractViolation(
                f"cjn_trajectory_columns: the matrix of step {n} has eps at diagonal entry "
                f"{sig.index(EPS)}, so queue {sig.index(EPS)} has no service time"
            )
        idle.append(tuple(cur[j] - sig[j] - prev[j] for j in range(k)))
        if physical:
            waiting.append(tuple(cur[j] - sig[j] - prev[(j - 1) % k] for j in range(k)))
    return {"idle": tuple(idle), "waiting": tuple(waiting) if physical else None}


# ---------------------------------------------------------------------------
# Random task graphs


@dataclass(frozen=True)
class SubsetLaw:
    """Law of the successor set of one processor: subsets as bitmasks over
    processors 0..k-1, with probabilities."""

    masks: tuple
    probs: tuple

    @staticmethod
    def make(masks, probs) -> "SubsetLaw":
        ms = tuple(_number(int, m, "subset mask") for m in _sequence(masks, "masks"))
        ps = tuple(_as_probability(p) for p in _sequence(probs, "probs"))
        if not ms or len(ms) != len(ps):
            raise ContractViolation("SubsetLaw: masks/probs shape mismatch")
        if any(m < 0 for m in ms):
            raise ContractViolation("SubsetLaw: masks must be non-negative bitmasks")
        return SubsetLaw(ms, ps)

    def can_miss(self, j: int) -> bool:
        """True when processor j is absent from some subset of positive probability."""
        return any(not (m >> j & 1) for m in self.masks)


@dataclass(frozen=True)
class TaskGraphSpec:
    """k processors; after each step, processor i signals a random subset of
    successors (law subsets[i]); the signal from i to j takes a random
    duration (law durations, constant or uniform)."""

    k: int
    subsets: tuple
    duration: object  # scalar constant or ("uniform", low, high)

    def __post_init__(self):
        if self.k < 1:
            raise ContractViolation("TaskGraphSpec: need at least one processor")
        if len(self.subsets) != self.k:
            raise ContractViolation("TaskGraphSpec: one subset law per processor")
        for law in self.subsets:
            for m in law.masks:
                if m >> self.k:
                    raise ContractViolation("TaskGraphSpec: subset mask outside 0..k-1")


def _starved_processor(spec: TaskGraphSpec) -> Optional[int]:
    # row j is all-eps iff no processor signals j; with independent subset
    # draws that event has positive probability iff every law can miss j
    for j in range(spec.k):
        if all(law.can_miss(j) for law in spec.subsets):
            return j
    return None


def taskgraph_distribution(spec: TaskGraphSpec, backing: str = EXACT) -> MatrixDistribution:
    """Distribution of matrices A with A[j][i] = signalling duration when
    processor i signals j, eps otherwise.

    Constant durations enumerate the finitely many subset draws into a
    FiniteSupport (duplicate matrices merged); a uniform duration law
    yields a generator-backed float distribution. Rejected when some
    processor is starved (all-eps row with positive probability).
    """
    starved = _starved_processor(spec)
    if starved is not None:
        raise ContractViolation(
            f"taskgraph_distribution: processor {starved} can be signalled by nobody "
            "(all-eps row with positive probability)"
        )
    k = spec.k
    if isinstance(spec.duration, tuple) and spec.duration and spec.duration[0] == "uniform":
        _, low, high = spec.duration
        if not (0.0 <= low <= high):
            raise ContractViolation("taskgraph_distribution: need 0 <= low <= high")
        laws = [(law.masks, _cum_floats(law.probs)) for law in spec.subsets]

        def sample(rng, n):
            rows = [[EPS] * k for _ in range(k)]
            for i, (masks, cum) in enumerate(laws):
                mask = masks[_pick(cum, float(rng.random()))]
                for j in range(k):
                    if mask >> j & 1:
                        rows[j][i] = float(rng.uniform(low, high))
            return Matrix(tuple(tuple(r) for r in rows), FLOAT)

        return GeneratorDistribution(
            k=k,
            sample_fn=sample,
            name="taskgraph_uniform",
            params=(
                ("k", k),
                ("subsets", tuple((law.masks, tuple(str(p) for p in law.probs)) for law in spec.subsets)),
                ("low", low),
                ("high", high),
            ),
        )
    dur = as_scalar(spec.duration, backing)
    if dur is EPS:
        raise ContractViolation("taskgraph_distribution: duration must be finite")
    merged = {}
    for combo in itertools.product(*(range(len(law.masks)) for law in spec.subsets)):
        rows = [[EPS] * k for _ in range(k)]
        p = math.prod((law.probs[idx] for law, idx in zip(spec.subsets, combo)), start=Fraction(1))
        for i, idx in enumerate(combo):
            mask = spec.subsets[i].masks[idx]
            for j in range(k):
                if mask >> j & 1:
                    rows[j][i] = dur
        key = tuple(tuple(r) for r in rows)
        if key in merged:
            merged[key] += p
        else:
            merged[key] = p
    return FiniteSupport.make([Matrix(key, backing) for key in merged], list(merged.values()))


# ---------------------------------------------------------------------------
# Builtin generator models


def _uniform_diagonal(name: str, k: int, low: float, high: float, draws: int) -> GeneratorDistribution:
    """A(n) is e off the diagonal and uniform on [low, high] on it, from
    one draw shared by every diagonal entry (draws = 1) or one draw per
    entry (draws = k)."""
    if k < 1:
        raise ContractViolation(f"{name}: need k >= 1")

    diag = np.arange(k)

    def sample_block(rng, n):
        out = np.zeros((n, k, k))
        out[:, diag, diag] = rng.uniform(low, high, size=(n, draws))
        return out

    return GeneratorDistribution(
        k=k,
        sample_fn=_sample_one(sample_block),
        name=name,
        params=(("k", k), ("low", float(low)), ("high", float(high))),
        sample_block=sample_block,
    )


def shared_uniform_diagonal(k: int, low: float = 0.0, high: float = 1.0) -> GeneratorDistribution:
    """A(n) has one shared uniform draw U(n) on the whole diagonal and e
    everywhere else, so every coordinate races the same service time
    against its neighbours."""
    return _uniform_diagonal("shared_uniform_diagonal", k, low, high, 1)


def independent_uniform_diagonal(k: int, low: float = 0.0, high: float = 1.0) -> GeneratorDistribution:
    """Like shared_uniform_diagonal but with an independent uniform draw per
    diagonal entry."""
    return _uniform_diagonal("independent_uniform_diagonal", k, low, high, k)


def _uniform_params(params, key: str, extra: tuple = ()) -> tuple:
    """(params[key], low, high) of a uniform generator's JSON params, which
    hold no keys but these and extra."""
    size = _number(int, _field(params, key, "generator params"), key)
    reject_unknown_keys(params, (key, "low", "high", *extra), "generator params")
    return (size, *_bounds(params))


def _bounds(obj: dict) -> tuple:
    """(low, high) of a uniform law's JSON object, 0 and 1 when absent."""
    return _number(float, obj.get("low", 0.0), "low"), _number(float, obj.get("high", 1.0), "high")


def _build_shared_uniform(params: dict) -> GeneratorDistribution:
    return shared_uniform_diagonal(*_uniform_params(params, "k"))


def _build_independent_uniform(params: dict) -> GeneratorDistribution:
    return independent_uniform_diagonal(*_uniform_params(params, "k"))


def _build_cjn_uniform(params: dict) -> GeneratorDistribution:
    queues, low, high = _uniform_params(params, "queues", ("customers",))
    spec = CjnSpec(
        queues=queues,
        customers=_number(int, params.get("customers", queues), "customers"),
        law=UniformServiceLaw(k=queues, low=low, high=high),
    )
    return cjn_distribution(spec, backing=FLOAT)


def _build_taskgraph_uniform(params: dict) -> GeneratorDistribution:
    k, low, high = _uniform_params(params, "k", ("subsets",))
    subsets = _field(params, "subsets", "generator params")
    if not isinstance(subsets, list) or not all(
        isinstance(s, list) and len(s) == 2 for s in subsets
    ):
        raise ContractViolation("taskgraph_uniform params: subsets must be [[masks, probs], ...]")
    laws = tuple(SubsetLaw.make(masks, probs) for masks, probs in subsets)
    return taskgraph_distribution(TaskGraphSpec(k=k, subsets=laws, duration=("uniform", low, high)))


register_generator("shared_uniform_diagonal", _build_shared_uniform)
register_generator("independent_uniform_diagonal", _build_independent_uniform)
register_generator("cjn_uniform", _build_cjn_uniform)
register_generator("taskgraph_uniform", _build_taskgraph_uniform)


# ---------------------------------------------------------------------------
# Spec JSON


def _field(obj, key: str, what: str):
    """obj[key], or a ContractViolation naming what is missing."""
    if not isinstance(obj, dict):
        raise ContractViolation(f"{what} JSON must be an object")
    if key not in obj:
        raise ContractViolation(f"{what} JSON needs {key!r}")
    return obj[key]


def _number(convert, value, what: str):
    """convert(value) for a number read from JSON, or a ContractViolation."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ContractViolation(f"{what} must be a number, got {value!r}") from None


def _object(obj, keys, what: str) -> dict:
    """obj when it is a JSON object holding no key outside keys, else a ContractViolation."""
    if not isinstance(obj, dict):
        raise ContractViolation(f"{what} JSON must be an object")
    reject_unknown_keys(obj, keys, f"{what} JSON")
    return obj


_LAW_KEYS = {
    "joint": ("atoms", "probs"),
    "per_queue": ("values", "probs"),
    "uniform": ("low", "high"),
}


def cjn_spec_from_json(obj: dict) -> CjnSpec:
    """{"queues": k, "customers": c, "law": {"joint": {"atoms": [[...]], "probs": [...]}}
    or {"per_queue": {"values": [[...]], "probs": [[...]]}}
    or {"uniform": {"low": a, "high": b}}}"""
    _object(obj, ("queues", "customers", "law"), "CjnSpec")
    queues = _number(int, _field(obj, "queues", "CjnSpec"), "queues")
    customers = _number(int, obj.get("customers", queues), "customers")
    law_obj = _field(obj, "law", "CjnSpec")
    if not isinstance(law_obj, dict) or len(law_obj) != 1 or not law_obj.keys() <= _LAW_KEYS.keys():
        raise ContractViolation(
            'CjnSpec JSON law must hold exactly one of "joint", "per_queue", or "uniform"'
        )
    [(kind, body)] = law_obj.items()
    _object(body, _LAW_KEYS[kind], f"{kind} law")
    if kind == "joint":
        law = JointServiceLaw.make(
            _field(body, "atoms", "joint law"), _field(body, "probs", "joint law")
        )
    elif kind == "per_queue":
        law = PerQueueServiceLaw.make(
            _field(body, "values", "per_queue law"), _field(body, "probs", "per_queue law")
        )
    else:
        law = UniformServiceLaw(queues, *_bounds(body))
    return CjnSpec(queues=queues, customers=customers, law=law)


def taskgraph_spec_from_json(obj: dict) -> TaskGraphSpec:
    """{"k": k, "subsets": [{"masks": [...], "probs": [...]}, ...],
    "duration": 1 | "3/2" | {"uniform": {"low": a, "high": b}}}"""
    _object(obj, ("k", "subsets", "duration"), "TaskGraphSpec")
    k = _number(int, _field(obj, "k", "TaskGraphSpec"), "k")
    laws = [_object(s, ("masks", "probs"), "subset law")
            for s in _sequence(_field(obj, "subsets", "TaskGraphSpec"), "subsets")]
    subsets = tuple(
        SubsetLaw.make(_field(s, "masks", "subset law"), _field(s, "probs", "subset law"))
        for s in laws
    )
    dur = obj.get("duration", 1)
    if isinstance(dur, dict):
        _object(dur, ("uniform",), "duration")
        u = _object(_field(dur, "uniform", "duration"), ("low", "high"), "uniform duration")
        duration = ("uniform", *_bounds(u))
    else:
        duration = dur
    return TaskGraphSpec(k=k, subsets=subsets, duration=duration)
