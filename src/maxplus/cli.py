"""Command-line front end.

One JSON report per run on stdout (or --output), wrapped in an envelope
carrying the parsed configuration and the library version so every claim
can be re-verified offline. Reports are byte-stable for identical
configurations. --threads is accepted and has no effect: replications
run in order in one thread. Plot data goes to CSV side files;
human-readable summaries go to stderr under --verbose.

Exit codes: 0 success (any verdict), 2 input error, 3 contract violation,
4 budget exhausted in an operation that forbids partial results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .semiring import (
    EXACT,
    FLOAT,
    BudgetExceeded,
    MaxPlusError,
    as_scalar,
    scalar_to_json,
    vector_from_json,
)
from .spectral import _classify, _cyclicity_and_transient, _int_matrix, summary_to_json
from .stochastic import (
    StabilityOptions,
    _record,
    _track,
    backward_loynes,
    dist_backing,
    distribution_from_json,
    forward_coupling,
    lyapunov_estimate,
    open_system_analysis,
    pattern_search,
    sample_sequence,
    stability_verdict,
    structural_conditions,
)
from .models import (
    cjn_distribution,
    cjn_spec_from_json,
    cjn_stability_condition,
    cjn_trajectory_columns,
    UniformServiceLaw,
    taskgraph_distribution,
    taskgraph_spec_from_json,
)
from .stochastic import distribution_to_json


class InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise InputError(f"malformed JSON in {path}: {exc}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")


def _open_for_writing(path: str, **kw):
    """open(path, "w", **kw) for a report or CSV file, InputError when it cannot."""
    try:
        return open(path, "w", **kw)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}")


def _write_csv(path: str, header: list, rows) -> None:
    """Write a CSV side file: the header row, then rows."""
    with _open_for_writing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _load_distribution(path: str):
    obj = _read_json(path)
    if isinstance(obj, dict) and "result" in obj and isinstance(obj["result"], dict):
        obj = obj["result"]
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a distribution object")
    return distribution_from_json(obj)


def _load_vector(path: str, backing: str):
    return vector_from_json(_read_json(path), backing)


def _vector_json(v) -> list:
    return [scalar_to_json(x) for x in v.entries]


# ---------------------------------------------------------------------------
# Report layout


# Reports are laid out as json.dumps(obj, sort_keys=True, indent=2). With
# indent set, CPython runs its pure-Python encoder, and a float trajectory
# holds tens of thousands of numbers. _layout writes the same text: it lays
# out dicts and lists itself and hands each list of numbers, or list of
# such lists (_rows), to the compact C encoder in one call. The text of a
# JSON number never contains ",", "[" or "]", so the compact text is
# indented by plain replacement. _pieces lays out the 2-D float64 arrays
# (tables) of a float simulate report _TABLE_ROWS rows at a time.
_TABLE_ROWS = 256
_compact = json.JSONEncoder(separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii
_NUMBERS = frozenset((int, float))
# The text of one scalar, without building an encoder per call.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else _compact(x),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _layout(obj, pad: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for obj placed on a line
    indented by pad."""
    kind = type(obj)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        items = (f"{_encode_str(key)}: {_layout(obj[key], inner)}" for key in sorted(obj))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if (kind is list or kind is tuple) and obj:
        types = set(map(type, obj))
        if types <= _NUMBERS:
            body = _compact(obj)[1:-1].replace(",", ",\n" + inner)
        elif (types == {list} and all(obj)
              and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBERS):
            body = _rows(obj, inner)
        else:
            body = f",\n{inner}".join(_layout(item, inner) for item in obj)
        return f"[\n{inner}{body}\n{pad}]"
    # Empty lists, numeric subclasses such as numpy floats, dicts with
    # non-str keys and anything else unusual. An encoded string never holds
    # a raw newline, so every newline in the text starts a layout line.
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _rows(rows: list, inner: str) -> str:
    """The non-empty number rows of a list laid out at pad inner[:-2], as
    _layout does, without the list's brackets and first indent."""
    row = inner + "  "
    return (f"[\n{row}" + _compact(rows)[2:-2]
            .replace(",", ",\n" + row)
            .replace(f"],\n{row}[", f"\n{inner}],\n{inner}[\n{row}")
            + f"\n{inner}]")


def _has_table(obj: dict) -> bool:
    """Whether a table is a value of obj or of a dict within it."""
    for v in obj.values():
        if type(v) is np.ndarray or type(v) is dict and _has_table(v):
            return True
    return False


def _pieces(obj, pad: str = ""):
    """_layout(obj, pad), tables as lists, in pieces: a table a chunk of rows
    at a time, a dict holding one item by item, anything else whole."""
    inner = pad + "  "
    if type(obj) is np.ndarray and obj.size:
        yield f"[\n{inner}"
        for i in range(0, len(obj), _TABLE_ROWS):
            yield (f",\n{inner}" if i else "") + _rows(obj[i:i + _TABLE_ROWS].tolist(), inner)
        yield f"\n{pad}]"
    elif type(obj) is dict and _has_table(obj):
        sep = f"{{\n{inner}"
        for key in sorted(obj):
            yield f"{sep}{_encode_str(key)}: "
            yield from _pieces(obj[key], inner)
            sep = f",\n{inner}"
        yield f"\n{pad}}}"
    else:
        yield _layout(obj.tolist() if type(obj) is np.ndarray else obj, pad)


# ---------------------------------------------------------------------------
# Handlers: each returns (result dict, optional stderr summary)


def _cmd_spectral(args):
    B = _int_matrix(_read_json(args.input), args.backing)
    summary = _classify(args.backing, *B, args.transient, args.max_power)
    return summary_to_json(summary), (
        f"eigenvalue {summary.eigenvalue}, cyclicity {summary.cyclicity}, "
        f"scs1cyc1 {summary.scs1cyc1}"
    )


def _cmd_power(args):
    B = _int_matrix(_read_json(args.input), args.backing)
    d, m = _cyclicity_and_transient(args.backing, *B, args.max_power)
    note = f"powers repeat with period {d} (up to uniform growth) from power {m}"
    return {"cyclicity": d, "transient": m}, note


def _cmd_simulate(args):
    D = _load_distribution(args.dist)
    x0 = _load_vector(args.x0, dist_backing(D))
    fields = _track(D, x0, args.horizon, args.seed, args.replication, args.thin)
    result = dict(fields, x0=_vector_json(x0))
    if x0.backing == EXACT:
        for key in ("states", "projective", "increments"):
            result[key] = [[scalar_to_json(v) for v in row] for row in fields[key]]
    if args.cjn_columns != "none":
        mats = sample_sequence(D, seed=args.seed, n=args.horizon, replication=args.replication)
        cols = cjn_trajectory_columns(_record(fields), mats,
                                      physical=args.cjn_columns == "physical")
        for key, rows in cols.items():  # idle, and waiting or None
            result[key] = None if rows is None else [[scalar_to_json(v) for v in row] for row in rows]
    if args.csv:
        _write_csv(args.csv, ["n"] + [f"x_{i}" for i in range(len(x0))],
                   ([n] + [float(v) for v in state]
                    for n, state in zip(fields["sample_times"], fields["states"])))
    return result, f"simulated {args.horizon} steps, recorded {len(fields['states'])} states"


def _cmd_lyapunov(args):
    D = _load_distribution(args.dist)
    x0 = _load_vector(args.x0, dist_backing(D)) if args.x0 else None
    est = lyapunov_estimate(D, horizon=args.horizon, replications=args.replications,
                            seed=args.seed, x0=x0, threads=args.threads)
    return est.to_json(), (
        f"growth rate {float(est.point):.6g} "
        f"(95% CI [{est.ci_low:.6g}, {est.ci_high:.6g}])"
    )


def _cmd_couple(args):
    D = _load_distribution(args.dist)
    backing = dist_backing(D)
    x0s = [_load_vector(p, backing) for p in args.x0]
    rep = forward_coupling(D, x0s, horizon=args.horizon, eta=args.eta, seed=args.seed,
                           replications=args.replications, threads=args.threads)
    result = {
        "eta": rep.eta,
        "horizon": rep.horizon,
        "replications": rep.replications,
        "modes": list(rep.modes),
        "initial_conditions": [_vector_json(v) for v in rep.initial_conditions],
        "samples": [
            {
                "replication": s.replication,
                "merge_time": s.merge_time,
                "eta_time": s.eta_time,
                "window_start": s.window_start,
                "window_length": s.window_length,
            }
            for s in rep.samples
        ],
    }
    if args.csv:
        keys = ["replication", "merge_time", "eta_time", "window_start", "window_length"]
        _write_csv(args.csv, keys, (["" if s[key] is None else s[key] for key in keys]
                                    for s in result["samples"]))
    merged = sum(1 for s in rep.samples if s.merge_time is not None)
    etad = sum(1 for s in rep.samples if s.eta_time is not None)
    return result, f"strong coupling {merged}/{rep.replications}, eta-coupling {etad}/{rep.replications}"


def _cmd_loynes(args):
    D = _load_distribution(args.dist)
    res = backward_loynes(D, tolerance=args.tolerance, budget=args.budget,
                          seed=args.seed, replication=args.replication,
                          trace_every=args.trace_every)
    if args.csv:
        _write_csv(args.csv, ["n", "diameter"], res.trace)
    note = "converged" if res.converged else "budget exhausted (partial result)"
    return res.to_json(), f"{note} after {res.steps} steps, diameter {res.achieved_diameter}"


def _cmd_patterns(args):
    D = _load_distribution(args.dist)
    rep = pattern_search(D, max_len=args.max_len, budget=args.budget)
    if rep.found:
        note = f"rank-one word {list(rep.word)} (probability {rep.probability})"
    else:
        note = f"no rank-one pattern; search {rep.status}"
    return rep.to_json(), note


def _cmd_conditions(args):
    D = _load_distribution(args.dist)
    rep = structural_conditions(D, max_len=args.max_len, budget=args.budget)
    return rep.to_json(), (
        f"condition I {rep.condition_i}, condition II {rep.condition_ii} ({rep.status})"
    )


def _cmd_stability(args):
    D = _load_distribution(args.dist)
    options = StabilityOptions(
        max_len=args.max_len,
        search_budget=args.search_budget,
        mc_seeds=args.mc_seeds,
        mc_budget=args.mc_budget,
        mc_threshold=args.mc_threshold,
        eta=args.eta,
        seed=args.seed,
        threads=args.threads,
    )
    verdict = stability_verdict(D, options)
    return verdict.to_json(), f"{verdict.verdict} ({verdict.basis})"


def _cmd_open_system(args):
    D = _load_distribution(args.dist)
    rep = open_system_analysis(D, horizon=args.horizon, replications=args.replications,
                               seed=args.seed, threads=args.threads)
    limits = [None if v is None else float(v) for v in rep.node_limits]
    return rep.to_json(), f"node limits {limits}, two-block: {rep.two_block}"


def _cmd_model(args):
    spec_obj = _read_json(args.spec)
    if args.kind == "cjn":
        spec = cjn_spec_from_json(spec_obj)
        D = cjn_distribution(spec, backing=args.backing)
        result = distribution_to_json(D)
        if not isinstance(spec.law, UniformServiceLaw) and spec.customers == spec.queues:
            holds, witness = cjn_stability_condition(spec)
            result["cjn_stability_condition"] = {
                "holds": holds,
                "witness": None if witness is None else
                [scalar_to_json(as_scalar(v, args.backing)) for v in witness],
            }
        note = f"cjn distribution over {D.k} coordinates"
    else:
        spec = taskgraph_spec_from_json(spec_obj)
        D = taskgraph_distribution(spec, backing=args.backing)
        result = distribution_to_json(D)
        note = f"task graph distribution over {D.k} processors"
    return result, note


# ---------------------------------------------------------------------------
# Parser


THREADS_HELP = "accepted and ignored: replications run in order in one thread"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Max-plus linear systems: spectral analysis and stochastic stability.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print a human-readable summary to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("spectral", help="eigenvalue, critical graph, cyclicity, eigenbasis")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--backing", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--transient", action="store_true", help="also compute the transient")
    p.add_argument("--max-power", type=int, default=None)
    p.set_defaults(func=_cmd_spectral)

    p = add("power", help="cyclicity and transient of the power sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--backing", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--max-power", type=int, default=None)
    p.set_defaults(func=_cmd_power)

    p = add("simulate", help="run one trajectory")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--x0", required=True, help="initial condition JSON file")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--cjn-columns", choices=["none", "physical", "split"], default="none",
                   help="derive idle/waiting times (physical: customers == queues)")
    p.add_argument("--csv", help="write states as CSV")
    p.set_defaults(func=_cmd_simulate)

    p = add("lyapunov", help="growth-rate estimate with confidence interval")
    p.add_argument("--dist", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--replications", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x0", help="optional initial condition JSON file")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_lyapunov)

    p = add("couple", help="forward coupling of several initial conditions")
    p.add_argument("--dist", required=True)
    p.add_argument("--x0", action="append", required=True,
                   help="initial condition JSON file (repeat at least twice)")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--eta", type=float, default=1e-6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--csv", help="write per-replication coupling times as CSV")
    p.set_defaults(func=_cmd_couple)

    p = add("loynes", help="backward scheme for the stationary state")
    p.add_argument("--dist", required=True)
    p.add_argument("--tolerance", type=float, default=0,
                   help="projective diameter target; 0 = exact rank-one stop")
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("--trace-every", type=int, default=1,
                   help="record the diameter every this many steps (0 = never)")
    p.add_argument("--csv", help="write the diameter trace as CSV")
    p.set_defaults(func=_cmd_loynes)

    p = add("patterns", help="search for rank-one words")
    p.add_argument("--dist", required=True)
    p.add_argument("--max-len", type=int, default=16, help="maximum word length")
    p.add_argument("--budget", type=int, default=200000, help="maximum states to expand")
    p.set_defaults(func=_cmd_patterns)

    p = add("conditions", help="structural conditions I and II")
    p.add_argument("--dist", required=True)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--budget", type=int, default=500000)
    p.set_defaults(func=_cmd_conditions)

    p = add("stability", help="stability verdict with certificates")
    p.add_argument("--dist", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-len", type=int, default=16)
    p.add_argument("--search-budget", type=int, default=200000)
    p.add_argument("--mc-seeds", type=int, default=20)
    p.add_argument("--mc-budget", type=int, default=5000)
    p.add_argument("--mc-threshold", type=float, default=0.95)
    p.add_argument("--eta", type=float, default=1e-6)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_stability)

    p = add("open-system", help="per-component growth rates of a reducible model")
    p.add_argument("--dist", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--replications", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_open_system)

    p = add("model", help="build a distribution from a domain spec")
    p.add_argument("kind", choices=["cjn", "taskgraph"])
    p.add_argument("--spec", required=True, help="model spec JSON file")
    p.add_argument("--backing", choices=[EXACT, FLOAT], default=EXACT)
    p.set_defaults(func=_cmd_model)

    return parser


def _config_json(args) -> dict:
    return {key: value for key, value in vars(args).items() if key != "func"}


# Built on first use and shared by later main() calls in the process: the
# parser holds no per-call state, and parse_args returns a fresh Namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; fold usage errors into exit 2
        return 2 if exc.code not in (0, None) else 0
    try:
        with np.errstate(over="raise"):  # no inf or NaN reaches a report
            result, summary = args.func(args)
        envelope = {
            "command": args.command,
            "config": _config_json(args),
            "version": __version__,
            "result": result,
        }
        pieces = _pieces(envelope)
        text = next(pieces)  # the whole report, in one write, unless it holds a table
        with _open_for_writing(args.output) if args.output else contextlib.nullcontext(sys.stdout) as fh:
            for piece in pieces:
                fh.write(text)
                text = piece
            fh.write(text + "\n")
    except InputError as exc:
        _emit_error("input", str(exc))
        return 2
    except BudgetExceeded as exc:
        _emit_error("budget", str(exc))
        return 4
    except MaxPlusError as exc:  # a ContractViolation, or another library error
        _emit_error("contract", str(exc))
        return 3
    except FloatingPointError:
        _emit_error("contract", "a float value overflowed past the float64 range")
        return 3
    if args.verbose and summary:
        print(summary, file=sys.stderr)
    return 0


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
