"""Seeded fixtures and job lists for the three benchmark workloads.

`build(name, seed, size, workdir)` writes every input file the program
will read (model specs, matrices, distributions, initial conditions) under
`workdir` and returns the workload: the `maxplus model` builds to run
during set-up and one cycle of CLI jobs. The same (name, seed, size) always
gives the same files and the same argv lists, byte for byte.

Each workload is a fixed list of slots. For the exact workloads the
structure of each slot's model or matrix comes from a corpus drawn once
from a fixed design seed, and the run seed makes a fresh copy of it by
transformations that leave the work of every job unchanged: relabelling
queues or nodes, adding a constant, transposing, and drawing
new probabilities, initial conditions and RNG seeds. The cost of an exact
word search or power iteration depends on the structure so strongly (a
factor of 10 between neighbouring draws) that, with structures drawn per
seed, ten seeds would not agree within the bounds; with the corpus they
measure the same work on different bytes. Changing the corpus is a
benchmark change. The float workload draws its parameters per seed, since
its cost depends on sizes and horizons only.

Model families left out on purpose (each is a known defect; the change
that fixes it should add the family in its own benchmark change, because
adding it now would make that fix look like a regression):
  - task graphs with uniform durations (generator `taskgraph_uniform` is
    written by `maxplus model` but cannot be loaded back);
  - Markov kernels in the README form `"dependence": {"markov": ...}`
    (silently read as iid);
  - models with a negative growth rate (`lyapunov` reports |x|/n, so the
    sign is wrong).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("certify_exact", "estimate_float", "spectral_exact")
SIZES = ("full", "tiny")
CORPUS = "corpus-1"  # design seed of the exact workloads' model structures

# The job kind that focus_s.gmean covers on each workload.
FOCUS = {
    "certify_exact": "stability",
    "estimate_float": "lyapunov",
    "spectral_exact": "spectral",
}


@dataclass
class Job:
    """One CLI call. `output` is the report it writes; `dist`/`matrix` name
    the fixture it reads, for the output checks; `steps` is horizon x
    replications for the simulation throughput."""

    kind: str
    argv: list
    output: str
    dist: Optional[str] = None
    matrix: Optional[str] = None
    steps: int = 0
    ok_codes: tuple = (0,)


@dataclass
class Workload:
    name: str
    model_builds: list = field(default_factory=list)  # argv lists, run in set-up
    jobs: list = field(default_factory=list)  # one cycle

    @property
    def focus(self) -> str:
        return FOCUS[self.name]


def _write(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _json_rational(f: Fraction):
    return int(f) if f.denominator == 1 else str(f)


def _probs(rng: random.Random, n: int) -> list:
    """n positive rationals summing to exactly 1, denominators <= 6."""
    den = rng.choice([d for d in (2, 3, 4, 6) if d >= n])
    cuts = sorted(rng.sample(range(1, den), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [str(Fraction(p, den)) for p in parts]


# ---------------------------------------------------------------------------
# certify_exact: exact finite-support models, exact search and coupling


def _ring_unique(rng, q, c):
    """Joint law; atom 0 has a unique strict maximum, so a short rank-one
    word exists and the search ends with `found`."""
    n = rng.choice([2, 3])
    atoms = [[rng.randint(1, 3) for _ in range(q)] for _ in range(n)]
    atoms[0][rng.randrange(q)] = max(atoms[0]) + 1
    return "cjn", {"queues": q, "customers": c,
                   "law": {"joint": {"atoms": atoms, "probs": _probs(rng, n)}}}


def _ring_tie(rng, q):
    """Joint law whose atoms all tie their maxima at the same two queues,
    e.g. (2,2,1),(3,3,1): the product semigroup saturates without a
    rank-one element, so the verdict is UnstableCertified."""
    n = rng.choice([2, 3])
    tied = rng.sample(range(q), 2)
    atoms = []
    for _ in range(n):
        top = rng.randint(2, 4)
        atom = [rng.randint(1, top - 1) for _ in range(q)]
        for t in tied:
            atom[t] = top
        atoms.append(atom)
    return "cjn", {"queues": q, "customers": q,
                   "law": {"joint": {"atoms": atoms, "probs": _probs(rng, n)}}}


def _ring_per_queue(rng, c):
    """Three queues, two of them with a two-point service law."""
    values = [[1, 2], [1, 2], [rng.randint(1, 3)]]
    probs = [_probs(rng, 2), _probs(rng, 2), ["1"]]
    return "cjn", {"queues": 3, "customers": c,
                   "law": {"per_queue": {"values": values, "probs": probs}}}


def _taskgraph(rng, k):
    """Constant duration; every law always signals the next processor, so
    no processor is starved and the support is row-finite."""
    subsets = []
    for i in range(k):
        nxt = 1 << ((i + 1) % k)
        masks = [rng.randrange(1, 1 << k) | nxt, rng.randrange(1, 1 << k) | nxt]
        subsets.append({"masks": masks, "probs": _probs(rng, 2)})
    return "taskgraph", {"k": k, "subsets": subsets, "duration": rng.choice([1, 2, "3/2"])}


def _relabel(rng, kind, spec):
    """A seeded copy of a corpus model that the word search treats the same:
    fresh probabilities, and for rings with customers == queues a rotation
    of the queues and one constant added to every service time (products
    shift by a scalar, so their projective classes are unchanged). Task
    graphs keep their masks: relabelling processors would reorder the
    support, and with it the search."""
    if kind == "taskgraph":
        subsets = [{"masks": law["masks"], "probs": _probs(rng, len(law["masks"]))}
                   for law in spec["subsets"]]
        return {**spec, "subsets": subsets}
    q, c = spec["queues"], spec["customers"]
    r, shift = (rng.randrange(q), rng.randint(0, 2)) if c == q else (0, 0)

    def move(vec):
        return [vec[(i + r) % q] + shift for i in range(q)]

    law = spec["law"]
    if "joint" in law:
        atoms = [move(a) for a in law["joint"]["atoms"]]
        law = {"joint": {"atoms": atoms, "probs": _probs(rng, len(atoms))}}
    else:
        values = law["per_queue"]["values"]
        values = [[v + shift for v in values[(i + r) % q]] for i in range(q)]
        probs = [_probs(rng, len(v)) if len(v) > 1 else ["1"] for v in values]
        law = {"per_queue": {"values": values, "probs": probs}}
    return {**spec, "law": law}


# Families in cycle order; a full run repeats the list with other draws, so
# any prefix of the cycle holds every family in the same proportion.
_CERTIFY_FAMILIES = [
    lambda r: _ring_unique(r, 3, 3),
    lambda r: _ring_tie(r, 3),
    lambda r: _taskgraph(r, 3),
    lambda r: _ring_unique(r, 3, 4),
    lambda r: _ring_per_queue(r, 4),
    lambda r: _ring_unique(r, 4, 4),
    lambda r: _ring_tie(r, 4),
    lambda r: _taskgraph(r, 4),
    lambda r: _ring_unique(r, 3, 5),
    lambda r: _ring_per_queue(r, 3),
    lambda r: _ring_unique(r, 4, 5),
    lambda r: _ring_unique(r, 4, 6),
]
_CERTIFY_SLOTS = {"full": _CERTIFY_FAMILIES * 4, "tiny": _CERTIFY_FAMILIES[:3]}


def _certify(corpus, rng, size, fx, out):
    w = Workload("certify_exact")
    for s, make in enumerate(_CERTIFY_SLOTS[size]):
        kind, spec = make(corpus)
        spec = _relabel(rng, kind, spec)
        spec_path = _write(f"{fx}/m{s:02d}.spec.json", spec)
        dist = f"{fx}/m{s:02d}.dist.json"
        w.model_builds.append(["model", kind, "--spec", spec_path, "--output", dist])
        k = spec["customers"] if kind == "cjn" else spec["k"]
        x0s = []
        for i in range(3):
            x0s += ["--x0", _write(f"{fx}/m{s:02d}.x{i}.json",
                                   [rng.randint(0, 4) for _ in range(k)])]
        seed = str(rng.randrange(10**6))

        def job(kind_, *args):
            o = f"{out}/m{s:02d}.{kind_}.json"
            return Job(kind_, [kind_, "--dist", dist, *args, "--output", o], o, dist=dist)

        w.jobs += [
            job("conditions"),
            job("patterns", "--budget", "300"),
            job("stability", "--seed", seed, "--search-budget", "1000",
                "--mc-seeds", "2", "--mc-budget", "20"),
            job("couple", "--seed", seed, "--horizon", "100", "--replications", "4", *x0s),
            job("loynes", "--seed", seed, "--tolerance", "0", "--budget", "100"),
        ]
    return w


# ---------------------------------------------------------------------------
# estimate_float: continuous laws, Monte-Carlo estimators


def _estimate_slots(size):
    """(family, k) slots, simulate horizon, (lyapunov horizon, replications)."""
    if size == "tiny":
        return [("cjn", 6), ("shared", 3), ("independent", 4)], 200, (100, 2)
    slots = [("cjn", 6), ("shared", 2), ("independent", 5), ("cjn", 7),
             ("shared", 5), ("independent", 8), ("cjn", 8), ("shared", 8),
             ("independent", 3)]
    return slots * 6, 1500, (400, 4)


def _estimate(_corpus, rng, size, fx, out):
    w = Workload("estimate_float")
    slots, sim_horizon, (ly_horizon, ly_reps) = _estimate_slots(size)
    for s, (family, k) in enumerate(slots):
        low = round(rng.uniform(0.0, 0.5), 3)
        high = round(low + rng.uniform(0.5, 1.5), 3)
        dist = f"{fx}/g{s:02d}.dist.json"
        if family == "cjn":
            spec = _write(f"{fx}/g{s:02d}.spec.json", {
                "queues": 4, "customers": k, "law": {"uniform": {"low": low, "high": high}}})
            w.model_builds.append(["model", "cjn", "--spec", spec, "--output", dist])
        else:
            name = f"{family}_uniform_diagonal"
            _write(dist, {"kind": "generator", "name": name, "k": k,
                          "params": {"k": k, "low": low, "high": high}})
        x0s = []
        for i in range(3):
            x0s += ["--x0", _write(f"{fx}/g{s:02d}.x{i}.json",
                                   [round(rng.uniform(0, 4), 3) for _ in range(k)])]
        seed = str(rng.randrange(10**6))

        def job(kind_, *args, steps=0):
            o = f"{out}/g{s:02d}.{kind_}.json"
            return Job(kind_, [kind_, "--dist", dist, *args, "--output", o], o,
                       dist=dist, steps=steps)

        w.jobs += [
            job("lyapunov", "--seed", seed, "--horizon", str(ly_horizon),
                "--replications", str(ly_reps), steps=ly_horizon * ly_reps),
            job("couple", "--seed", seed, "--horizon", "150", "--eta", "0.01",
                "--replications", "6", *x0s),
            job("loynes", "--seed", seed, "--tolerance", "0.05", "--budget", "200",
                "--trace-every", "10"),
            job("stability", "--seed", seed, "--eta", "0.05", "--mc-seeds", "6",
                "--mc-budget", "100"),
            job("simulate", "--seed", seed, "--horizon", str(sim_horizon),
                "--x0", x0s[1], steps=sim_horizon),
        ]
    return w


# ---------------------------------------------------------------------------
# spectral_exact: one large exact matrix per job


def _rational(rng):
    q = rng.choice([1, 2, 3])
    return _json_rational(Fraction(rng.randint(-4 * q, 4 * q), q))


def _irreducible_matrix(rng, k, density):
    """A random Hamiltonian circuit makes the matrix irreducible; the other
    entries are finite with the given probability."""
    perm = list(range(k))
    rng.shuffle(perm)
    entries = [["-inf"] * k for _ in range(k)]
    for a in range(k):
        entries[perm[(a + 1) % k]][perm[a]] = _rational(rng)
    for i in range(k):
        for j in range(k):
            if entries[i][j] == "-inf" and rng.random() < density:
                entries[i][j] = _rational(rng)
    return {"k": k, "entries": entries}


def _similar(rng, m):
    """A seeded copy with the same spectral work: relabel the nodes, add an
    integer to every finite entry (the eigenvalue moves by it, the critical
    graph and the transient do not), transpose half the time."""
    k, entries = m["k"], m["entries"]
    perm = list(range(k))
    rng.shuffle(perm)
    shift = rng.randint(-3, 3)
    out = [["-inf"] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            v = entries[i][j]
            if v != "-inf":
                out[perm[i]][perm[j]] = _json_rational(Fraction(v) + shift)
    if rng.random() < 0.5:
        out = [list(col) for col in zip(*out)]
    return {"k": k, "entries": out}


def _spectral(corpus, rng, size, fx, out):
    w = Workload("spectral_exact")
    if size == "tiny":
        slots = [(4, 0.5), (5, 0.7)]
    else:
        # round-robin over k so that any prefix of the cycle mixes sizes
        bands = [(0.3, 0.45), (0.45, 0.6), (0.6, 0.75), (0.75, 0.9)] * 2
        slots = [(k, corpus.uniform(*band)) for band in bands for k in (8, 12, 16)]
    for s, (k, density) in enumerate(slots):
        matrix = _similar(rng, _irreducible_matrix(corpus, k, density))
        path = _write(f"{fx}/a{s:02d}.matrix.json", matrix)
        for kind in ("spectral", "power"):
            o = f"{out}/a{s:02d}.{kind}.json"
            extra = ["--transient"] if kind == "spectral" else []
            w.jobs.append(Job(kind, [kind, "--input", path, *extra, "--max-power", "40",
                                     "--output", o], o, matrix=path, ok_codes=(0, 4)))
    return w


_BUILDERS = {"certify_exact": _certify, "estimate_float": _estimate, "spectral_exact": _spectral}


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    """Write the fixtures of one workload under workdir and return its jobs.
    Paths in the argv lists are relative to the current directory, so the
    reports (which echo them) are identical across checkouts."""
    fx, out = f"{workdir}/fixtures", f"{workdir}/out"
    os.makedirs(fx, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    corpus = random.Random(f"{name}/{CORPUS}/{size}")
    rng = random.Random(f"{name}/{seed}/{size}")
    return _BUILDERS[name](corpus, rng, size, fx, out)
