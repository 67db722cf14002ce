"""Output checks, run outside the timed region.

They use the benchmark's own small exact max-plus arithmetic on the JSON
files, not the package's, so a defect in the package kernel cannot hide
itself. Each check returns a list of problems; an empty list means pass.
"""

from __future__ import annotations

import json
from fractions import Fraction


def scalar(v):
    """JSON scalar -> Fraction, or None for eps."""
    if v is None or v == "-inf":
        return None
    if isinstance(v, float):
        raise ValueError(f"float in an exact report: {v!r}")
    return Fraction(v)


def matrix(obj) -> list:
    return [[scalar(v) for v in row] for row in obj["entries"]]


def mp_mul(A: list, B: list) -> list:
    """(A otimes B)_ij = max_l (A_il + B_lj), eps = None."""
    k = len(A)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            best = None
            for l in range(k):
                a, b = A[i][l], B[l][j]
                if a is not None and b is not None and (best is None or a + b > best):
                    best = a + b
            row.append(best)
        out.append(row)
    return out


def mp_vec(A: list, x: list) -> list:
    out = []
    for row in A:
        terms = [a + v for a, v in zip(row, x) if a is not None and v is not None]
        out.append(max(terms) if terms else None)
    return out


def rank_one(M: list) -> bool:
    """Columns with a finite entry share one eps pattern and differ by a
    constant on it."""
    k = len(M)
    cols = [[M[i][j] for i in range(k)] for j in range(k)]
    live = [c for c in cols if any(v is not None for v in c)]
    if not live:
        return False
    base = live[0]
    for c in live[1:]:
        if [v is None for v in c] != [v is None for v in base]:
            return False
        diffs = {a - b for a, b in zip(c, base) if a is not None}
        if len(diffs) > 1:
            return False
    return True


def word_product(support: list, word: list) -> list:
    """A(u_{N-1}) ... A(u_0) for the word (u_0, ..., u_{N-1})."""
    P = support[word[0]]
    for letter in word[1:]:
        P = mp_mul(support[letter], P)
    return P


def _support(dist_path: str) -> list:
    with open(dist_path) as fh:
        obj = json.load(fh)
    obj = obj.get("result", obj)
    return [matrix(item["matrix"]) for item in obj["support"]]


def _certificate(support, word, matrix_obj, classification, what) -> list:
    P = word_product(support, word)
    problems = []
    if matrix_obj is not None and P != matrix(matrix_obj):
        problems.append(f"{what}: reported matrix is not the product of word {word}")
    if classification.startswith("rank-one") and not rank_one(P):
        problems.append(f"{what}: product of word {word} is not rank-one")
    return problems


# The bases of a verdict that the exact word search decided: a pattern was
# found, or the pattern semigroup saturated without one.
EXACT_SEARCH_BASES = frozenset({
    "positive-probability-rank-one-pattern",
    "stationary-rank-one-pattern",
    "positive-probability-scs1cyc1-pattern",
    "pattern-semigroup-saturated-without-rank-one",
})


def check_report(kind: str, report: dict, dist_path=None, matrix_path=None,
                 exact_search: bool = False) -> list:
    """Check one CLI envelope. exact_search demands that a stability verdict
    come from the exact word search (one of EXACT_SEARCH_BASES)."""
    if report.get("command") != kind or not isinstance(report.get("result"), dict):
        return [f"{kind}: malformed envelope"]
    res = report["result"]
    problems = []
    if kind == "patterns":
        if res["found"]:
            problems += _certificate(_support(dist_path), res["word"], res["matrix"],
                                     res["classification"], "patterns")
        if res["scs1cyc1_word"] is not None:
            problems += _certificate(_support(dist_path), res["scs1cyc1_word"],
                                     res["scs1cyc1_matrix"], "scs1cyc1", "patterns")
    if kind == "stability":
        cert = res["certificate"]
        if cert is not None and "word" in cert:
            problems += _certificate(_support(dist_path), cert["word"], cert["matrix"],
                                     cert["classification"], "stability")
        if exact_search and res["basis"] not in EXACT_SEARCH_BASES:
            problems.append(f"stability: basis {res['basis']!r} is not an exact-search verdict")
    if kind == "spectral":
        with open(matrix_path) as fh:
            A = matrix(json.load(fh))
        lam = scalar(res["eigenvalue"])
        for vec in res["eigenbasis"]:
            v = [scalar(x) for x in vec]
            if mp_vec(A, v) != [None if x is None else x + lam for x in v]:
                problems.append(f"spectral: A v != lambda v for v = {vec}")
    if kind == "power" and not (res["cyclicity"] >= 1 and res["transient"] >= 1):
        problems.append("power: cyclicity and transient must be >= 1")
    return problems


def check_budget_error(stderr_text: str) -> list:
    """Exit 4 must come with a JSON error of type budget."""
    try:
        err = json.loads(stderr_text.strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        return ["exit 4 without a JSON error"]
    return [] if err.get("type") == "budget" else [f"exit 4 with error type {err.get('type')!r}"]
