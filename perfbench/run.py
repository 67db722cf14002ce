#!/usr/bin/env python3
"""Closed-loop benchmark of the maxplus CLI.

    python3 perfbench/run.py --workload certify_exact --seed 1 --seconds 35 --trace 0

One client, one process, one thread: each job is an in-process call to
`maxplus.cli.main(argv)` writing its report with `--output`, and the next
job starts when the previous one returns. Set-up (import, seeded fixtures,
`maxplus model` builds, one warm-up job per command) is timed on its own.
The timed phase cycles through the workload's jobs for `--seconds`
(at least one full cycle). The outputs are then checked outside the timed
region.

`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the time
untraced and half traced and prints the per-layer metrics. The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
lines above it are a human-readable table, and the full record (environment,
every metric with its sample count, report digests) goes to
`.perfbench/BENCH_<workload>_s<seed>_t<trace>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench"  # relative to ROOT, ignored by git
HOLDOUT_SEED = 9001  # keep out of tuning; confirm gain claims on it
SETUP_REPS = 5
CAL_EVERY = 0.5  # seconds of jobs between two calibration slices
# Largest share of the traced job time that the layer self times may miss.
TRACE_MARGIN = 0.02

perf = time.perf_counter


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# Running jobs


def run_cli(cli, argv):
    """Call the CLI in-process; returns (exit code or None, seconds, stderr,
    exception text). The clock covers the call only."""
    err = io.StringIO()
    exc = None
    with contextlib.redirect_stderr(err):
        t0 = perf()
        try:
            rc = cli.main(argv)
        except Exception as e:  # an undocumented failure mode: count it, keep going
            rc, exc = None, f"{type(e).__name__}: {e}"
        dt = perf() - t0
    return rc, dt, err.getvalue(), exc


def set_up(cli, workloads, name, seed, size, workdir):
    """Fixtures, model builds and a warm-up job per command; returns the
    workload, the seconds it took and a calibration slice timed before."""
    import calibrate

    cal = calibrate.measure()
    t0 = perf()
    shutil.rmtree(workdir, ignore_errors=True)
    w = workloads.build(name, seed, size, workdir)
    for argv in w.model_builds:
        rc, _dt, err, exc = run_cli(cli, argv)
        if rc != 0:
            raise SetupError(f"model build {argv} failed: rc={rc} {exc or err.strip()}")
    seen = set()
    for job in w.jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            rc, _dt, err, exc = run_cli(cli, job.argv)
            if rc not in job.ok_codes:
                raise SetupError(f"warm-up {job.argv} failed: rc={rc} {exc or err.strip()}")
    return w, perf() - t0, cal


class Loop:
    """The closed loop: jobs in cycle order until the time is up, at least
    one full cycle, with a calibration slice after the first job and then
    after every CAL_EVERY seconds of jobs."""

    def __init__(self, w):
        self.w = w
        self.records = []  # (slot, seconds, problem or None)
        self.last = {}  # slot -> (rc, stderr) of its latest run
        self.traces = []  # JobTrace per record, when traced
        self.cals = []  # seconds of each calibration slice

    def run(self, cli, seconds, tracer=None):
        import calibrate

        jobs = self.w.jobs
        start = perf()
        next_cal = start  # the first slice follows the first job
        i = 0
        while i < len(jobs) or perf() - start < seconds:
            slot = i % len(jobs)
            job = jobs[slot]
            if tracer is not None:
                tracer.begin_job(len(self.records))
            rc, dt, err, exc = run_cli(cli, job.argv)
            if tracer is not None:
                self.traces.append(tracer.end_job())
            problem = None
            if exc is not None:
                problem = exc
            elif rc not in job.ok_codes:
                problem = f"exit {rc}: {err.strip()[:200]}"
            self.records.append((slot, dt, problem))
            self.last[slot] = (rc, err)
            i += 1
            if perf() >= next_cal:
                self.cals.append(calibrate.measure())
                next_cal = perf() + CAL_EVERY
        return self


def check_outputs(cli, w, loops):
    """Check the latest report of every slot that ran, digest it, and
    re-run one job per command to confirm identical bytes. Returns
    ({slot: [problems]}, {output path: sha256})."""
    import checks

    problems, digests = {}, {}
    last = {}
    for loop in loops:
        last.update(loop.last)
    exact_search = w.name == "certify_exact"
    for slot, (rc, err) in sorted(last.items()):
        job = w.jobs[slot]
        found = []
        if rc == 4:
            found = checks.check_budget_error(err)
            digests[job.output] = hashlib.sha256(err.encode()).hexdigest()
        elif rc == 0:
            with open(job.output, "rb") as fh:
                data = fh.read()
            digests[job.output] = hashlib.sha256(data).hexdigest()
            try:
                found = checks.check_report(job.kind, json.loads(data), job.dist, job.matrix,
                                            exact_search=exact_search)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                found = [f"unreadable report: {type(e).__name__}: {e}"]
        if found:
            problems[slot] = found
    repeated = set()
    for slot, (rc, err) in sorted(last.items()):
        job = w.jobs[slot]
        if job.kind in repeated or rc not in (0, 4):
            continue
        repeated.add(job.kind)
        rc2, _dt, err2, _exc = run_cli(cli, job.argv)
        if rc2 != rc:
            same = False
        elif rc2 == 0:
            with open(job.output, "rb") as fh:
                same = hashlib.sha256(fh.read()).hexdigest() == digests[job.output]
        else:
            same = err2 == err
        if not same:
            problems.setdefault(slot, []).append("repeated job gave different bytes")
    return problems, digests


# ---------------------------------------------------------------------------
# Metrics


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def end_to_end(w, loop, setup_s, setup_cals, failed):
    """Every end-to-end metric, as (value, unit, samples).

    Times and rates are scaled to the reference speed of calibrate.py:
    job metrics by the mean calibration slice of the timed phase, setup_s
    by the mean of the slices timed before each set-up. The unscaled gated
    values are kept as `raw.*`. The gated job metrics weigh every job of
    the cycle once, from its mean time, so that where a run stops in its
    last cycle does not change them."""
    import calibrate

    scale = calibrate.REF_S / statistics.fmean(loop.cals)
    setup_scale = calibrate.REF_S / statistics.fmean(setup_cals)
    dts = [dt * scale for _slot, dt, _p in loop.records]
    per_slot, by_kind = {}, {}
    for slot, dt, _p in loop.records:
        per_slot.setdefault(slot, []).append(dt * scale)
        by_kind.setdefault(w.jobs[slot].kind, []).append(dt * scale)
    slot_mean = {slot: statistics.fmean(xs) for slot, xs in per_slot.items()}
    focus = [t for slot, t in slot_mean.items() if w.jobs[slot].kind == w.focus]
    m = {
        "setup_s": (setup_s * setup_scale, "s", SETUP_REPS),
        "job_s.gmean": (statistics.geometric_mean(slot_mean.values()), "s", len(dts)),
        "jobs_per_s": (len(slot_mean) / sum(slot_mean.values()), "1/s", len(dts)),
        "focus_s.gmean": (statistics.geometric_mean(focus), "s", len(by_kind[w.focus])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    # Printed and recorded, not gated: medians and the tail over all jobs,
    # whose run-to-run spread on a shared machine reaches the largest bound
    # allowed; named views of the focus command and metrics that do not
    # exist on every workload.
    extra = {"job_s.p50": (p50(dts), "s", len(dts)),
             "job_s.p90": (p90(dts), "s", len(dts)),
             "fail_ratio": (failed / len(dts), "ratio", len(dts))}
    for kind, xs in sorted(by_kind.items()):
        extra[f"cmd.{kind}_s.p50"] = (p50(xs), "s", len(xs))
    for name, kind in (("verdict_s.p50", "stability"), ("growth_s.p50", "lyapunov"),
                       ("spectral_s.p50", "spectral")):
        if kind in by_kind:
            extra[name] = (p50(by_kind[kind]), "s", len(by_kind[kind]))
    sim = [(w.jobs[slot].steps, dt * scale) for slot, dt, _p in loop.records
           if w.jobs[slot].kind in ("simulate", "lyapunov")]
    if sim:
        extra["sim_steps_per_s"] = (sum(s for s, _ in sim) / sum(dt for _, dt in sim),
                                    "1/s", len(sim))
    extra["calibration_s.mean"] = (statistics.fmean(loop.cals), "s", len(loop.cals))
    extra["raw.setup_s"] = (setup_s, "s", SETUP_REPS)
    for name in ("job_s.gmean", "focus_s.gmean"):
        value, unit, n = m[name]
        extra[f"raw.{name}"] = (value / scale, unit, n)
    value, unit, n = m["jobs_per_s"]
    extra["raw.jobs_per_s"] = (value * scale, unit, n)
    return m, extra


def per_layer(w, untraced, traced, outputs):
    """Per-layer metrics from the traced phase, as (value, unit, samples)."""
    from tracer import LAYERS

    traces = traced.traces
    n = len(traces)
    # The traced job time, measured around each cli.main call outside the
    # tracer, so that time the spans miss shows in the check below.
    job_s = sum(dt for _s, dt, _p in traced.records)
    agg = {}
    for t in traces:
        for key, (calls, total, self_s, ops) in t.agg.items():
            a = agg.setdefault(key, [0, 0.0, 0.0, 0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
            a[3] += ops

    def fn(key, field):
        return agg.get(key, [0, 0.0, 0.0, 0])[field]

    def layer_self(layer):
        return sum(a[2] for key, a in agg.items() if key.split(".")[0] == layer)

    m = {}
    selfs = {layer: layer_self(layer) for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs[layer], "s", n)
        m[f"{layer}.share"] = (selfs[layer] / job_s, "ratio", n)
    for key in ("semiring.mat_mul", "semiring.mat_vec"):
        calls, _total, self_s, ops = agg.get(key, [0, 0.0, 0.0, 0])
        m[f"{key}.calls"] = (calls, "count", n)
        m[f"{key}.self_s"] = (self_s, "s", n)
        m[f"{key}.ops_per_s"] = (ops / self_s if self_s else 0.0, "1/s", calls)
    for key in ("projective.is_rank_one", "projective.matrix_proj_normal",
                "projective.canonicalize", "projective.proj_dist", "projective.proj_diameter",
                "graphs.is_irreducible", "spectral.eigenvalue", "spectral.a_plus",
                "spectral.critical_graph", "models.sample"):
        m[f"{key}.calls"] = (fn(key, 0), "count", n)
    for key in ("projective.proj_diameter", "models.sample"):
        m[f"{key}.self_s"] = (fn(key, 2), "s", n)
        m[f"{key}.share"] = (fn(key, 2) / job_s, "ratio", n)
    inputs = sum(t.spectral_matrices for t in traces)
    m["spectral.eigenvalue.per_matrix"] = (
        fn("spectral.eigenvalue", 0) / inputs if inputs else 0.0, "ratio", inputs)

    # Counts read from the reports: each slot's report is deterministic, so
    # the latest copy stands for every traced run of that slot.
    runs = {}
    for slot, _dt, _p in traced.records:
        runs[slot] = runs.get(slot, 0) + 1
    states = steps = bytes_out = 0
    for slot, count in runs.items():
        res = outputs.get(slot)
        bytes_out += count * (res[1] if res else 0)
        res = res[0] if res else None
        if res is None:
            continue
        kind = w.jobs[slot].kind
        if kind == "patterns":
            states += count * res["states_explored"]
        if kind == "stability" and res.get("pattern"):
            states += count * res["pattern"]["states_explored"]
        if kind == "loynes":
            steps += count * res["steps"]
        if kind == "stability" and res["basis"] in ("backward-diameter-evidence",
                                                    "insufficient-evidence"):
            steps += count * sum(res["certificate"]["steps"])
    normals = sum(t.ps_normal_calls for t in traces)
    m["stochastic.bfs.states"] = (states, "count", n)
    m["stochastic.bfs.keep_ratio"] = (states / normals if normals else 0.0, "ratio", normals)
    m["stochastic.loynes.steps"] = (steps, "count", n)
    m["cli.load_s"] = (sum(t.load_s for t in traces), "s", n)
    m["cli.bytes_out"] = (bytes_out, "bytes", n)

    k = min(len(untraced.records), len(traced.records))
    u = p50([dt for _s, dt, _p in untraced.records[:k]])
    t = p50([dt for _s, dt, _p in traced.records[:k]])
    m["trace.overhead_ratio"] = (t / u, "ratio", k)
    # The margin covers the wrappers' own overhead around the spans.
    consistency = abs(sum(selfs.values()) - job_s) <= TRACE_MARGIN * job_s
    return m, consistency


def read_results(w, loop):
    """slot -> (result dict, report bytes) for the latest report of each slot."""
    out = {}
    for slot, (rc, _err) in loop.last.items():
        if rc != 0:
            continue
        with open(w.jobs[slot].output, "rb") as fh:
            data = fh.read()
        out[slot] = (json.loads(data)["result"], len(data))
    return out


# ---------------------------------------------------------------------------
# Environment


def environment(args, maxplus, w, loops):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join("src", "maxplus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    counts = {}
    for loop in loops:
        for slot, _dt, _p in loop.records:
            kind = w.jobs[slot].kind
            counts[kind] = counts.get(kind, 0) + 1
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "maxplus": maxplus.__version__,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycle_jobs": len(w.jobs),
        "samples_by_command": counts,
    }


def git_commit() -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository
    (the check keeps git from reporting an enclosing repository) or git
    cannot run."""
    import subprocess

    if not os.path.exists(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="all: run every workload, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny: a few small fixtures, for the smoke test")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that set-up and
    peak memory are its own; non-zero if any run fails."""
    import subprocess
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "maxplus", "cli.py")):
        print(f"perfbench: no maxplus source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf()
    import maxplus
    import maxplus.cli as cli
    import_s = perf() - t0
    if not os.path.abspath(maxplus.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported maxplus from {maxplus.__file__}, not {ROOT}/src",
              file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(OUT_DIR, "work", args.workload)
    try:
        reps = SETUP_REPS if args.trace == 0 else 1
        setups = [set_up(cli, workloads, args.workload, args.seed, args.size, workdir)
                  for _ in range(reps)]
    except SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    w = setups[-1][0]
    setup_s = import_s + p50([s for _w, s, _c in setups])
    setup_cals = [c for _w, _s, c in setups]

    if args.trace == 0:
        loops = [Loop(w).run(cli, args.seconds)]
    else:
        from tracer import Tracer

        untraced = Loop(w).run(cli, args.seconds / 2)
        tracer = Tracer()
        traced = Loop(w)
        tracer.install()
        try:
            traced.run(cli, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        loops = [untraced, traced]

    problems, digests = check_outputs(cli, w, loops)
    attempted = sum(len(loop.records) for loop in loops)
    failed = sum(1 for loop in loops for slot, _dt, p in loop.records
                 if p is not None or slot in problems)
    run_problems = [p for loop in loops for _s, _dt, p in loop.records if p]

    if args.trace == 0:
        metrics, extra = end_to_end(w, loops[0], setup_s, setup_cals, failed)
    else:
        metrics, consistent = per_layer(w, untraced, traced, read_results(w, traced))
        extra = {}
        if not consistent:
            run_problems.append("layer self times do not add up to the traced job time")
            failed = max(failed, 1)
    correct = failed == 0

    env = environment(args, maxplus, w, loops)
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "extra": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
        "problems": {w.jobs[s].output: p for s, p in problems.items()},
        "run_problems": run_problems[:20],
        "digests": digests,
        "job_seconds": [[slot, dt] for loop in loops for slot, dt, _p in loop.records],
        "calibration_seconds": setup_cals + [c for loop in loops for c in loop.cals],
        "digest_all": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{OUT_DIR}/BENCH_{args.workload}_s{args.seed}_t{args.trace}"
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if args.trace == 1:
        with open(stem + "_spans.jsonl", "w") as fh:
            for t in traced.traces:
                fh.write(json.dumps({"job": t.job_id, "slot": traced.records[t.job_id][0],
                                     "spans": t.spans, "spans_dropped": t.spans_dropped,
                                     "agg": t.agg}) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for name, (v, u, n) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:34s} {v:>16.6g} {u:8s} n={n}")
    for slot, p in sorted(problems.items()):
        print(f"  CHECK FAILED {w.jobs[slot].output}: {'; '.join(p)}")
    for p in run_problems[:5]:
        print(f"  RUN FAILED {p}")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }))
    return 0


def declared_metrics(group: str) -> list:
    """Metric names BENCHMARK.json declares for this mode; the final line
    carries exactly these."""
    with open("BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[group]]


if __name__ == "__main__":
    sys.exit(main())
