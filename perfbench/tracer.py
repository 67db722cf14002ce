"""Per-layer tracing from outside the package.

The tracer rebinds each listed public function, in every maxplus module
that holds it, to a timing wrapper, and wraps the `sample_fn` of every
generator distribution built through `GENERATOR_BUILDERS`. Nothing in
`src/` changes: internal calls are counted because modules look their
imports up as globals at call time.

Every call is aggregated per job as (calls, total time, self time), where
self time is the call's duration minus the duration of the wrapped calls
it made. Non-hot calls also get an individual span (name, start, end,
parent), up to a per-job cap, so memory stays bounded; the hot leaves
(`mat_mul`, `mat_vec`, `proj_dist`, `sample`) are aggregated only.

Helpers that run once per scalar (`as_scalar`, `scalar_to_json`, ...) and
the generator internals (`cjn_matrix`, `split_service_vector`) are not
wrapped: their time counts to the caller, so `models.sample` includes the
construction of the sampled matrix.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import replace

LAYERS = ("semiring", "projective", "graphs", "spectral", "stochastic", "models", "cli")

FUNCTIONS = {
    "semiring": ("mat_mul", "mat_vec", "mat_oplus", "mat_power", "scale_matrix",
                 "scale_vector", "matrix_from_json", "matrix_to_json", "vector_from_json"),
    "projective": ("canonicalize", "proj_norm", "proj_dist", "proj_equal", "is_rank_one",
                   "proj_diameter", "matrix_proj_normal"),
    "graphs": ("graph_of", "scc_from_arcs", "scc_decompose", "is_irreducible",
               "graph_cyclicity", "is_aperiodic"),
    "spectral": ("eigenvalue", "normalize", "a_plus", "critical_graph", "cyclicity",
                 "cyclicity_and_transient", "eigenbasis", "is_scs1cyc1", "classify",
                 "span_membership", "weak_rank", "first_rank_one_power", "summary_to_json"),
    "stochastic": ("sample_sequence", "simulate", "lyapunov_estimate", "forward_coupling",
                   "backward_loynes", "word_product", "word_probability", "pattern_search",
                   "structural_conditions", "stability_verdict", "open_system_analysis",
                   "distribution_to_json", "distribution_from_json",
                   "stationary_distribution"),
    "models": ("cjn_distribution", "cjn_stability_condition", "cjn_trajectory_columns",
               "taskgraph_distribution", "shared_uniform_diagonal",
               "independent_uniform_diagonal", "cjn_spec_from_json",
               "taskgraph_spec_from_json"),
    "cli": ("main",),
}

# Individual spans kept per job; calls beyond it are aggregated only.
SPAN_CAP = 300
HOT = frozenset({"semiring.mat_mul", "semiring.mat_vec", "projective.proj_dist", "models.sample"})
# Loading the job's inputs: these spans, when called straight from the CLI,
# make up cli.load_s.
LOADERS = frozenset({"stochastic.distribution_from_json", "semiring.matrix_from_json",
                     "semiring.vector_from_json"})
# Operations per call, for the kernel rates: k^3 otimes/oplus pairs for a
# matrix product, k^2 for a matrix-vector product.
OPS = {"semiring.mat_mul": 3, "semiring.mat_vec": 2}


class JobTrace:
    """What one traced job did: per-function aggregates and spans."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.agg = {}  # name -> [calls, total_s, self_s, ops]
        self.spans = []  # (span_id, parent_id, name, t0, t1)
        self.spans_dropped = 0
        self.load_s = 0.0
        self.ps_normal_calls = 0  # matrix_proj_normal inside pattern_search
        self.spectral_inputs = set()  # matrices handed to spectral from outside
        self.spectral_matrices = 0  # their number, kept once the job ends


class Tracer:
    """Install with `install()`, bracket each job with `begin_job`/`end_job`,
    remove with `uninstall()`. Single-threaded: the benchmark runs one job
    at a time in one thread."""

    def __init__(self):
        self._patches = []  # (module, attribute, original)
        self._job = None
        self._stack = []
        self._next_span = 0
        self._in_pattern_search = 0
        self._builders = {}
        self._builder_originals = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("maxplus")
        modules = [pkg] + [importlib.import_module(f"maxplus.{m}") for m in LAYERS]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"maxplus.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for mod in modules:
                    if mod.__dict__.get(name) is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        self._builders = importlib.import_module("maxplus.stochastic").GENERATOR_BUILDERS
        self._builder_originals = dict(self._builders)
        for gen_name, builder in self._builder_originals.items():
            self._builders[gen_name] = self._wrap_builder(builder)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        self._builders.update(self._builder_originals)

    def _wrap_builder(self, builder):
        def traced_builder(params):
            dist = builder(params)
            return replace(dist, sample_fn=self._wrap("models.sample", "models", dist.sample_fn))

        return traced_builder

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        perf = time.perf_counter
        stack = self._stack
        hot = key in HOT
        ops_exp = OPS.get(key)
        is_loader = key in LOADERS
        is_ps = key == "stochastic.pattern_search"
        is_normal = key == "projective.matrix_proj_normal"
        is_spectral = layer == "spectral"
        tracer = self

        def wrapper(*args, **kwargs):
            job = tracer._job
            if job is None:  # outside a traced job
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if is_spectral and (parent is None or parent[1] != "spectral") \
                    and hasattr(args[0], "rows"):
                job.spectral_inputs.add(args[0].rows)
            if is_normal and tracer._in_pattern_search:
                job.ps_normal_calls += 1
            span_id = -1
            if not hot:
                if len(job.spans) < SPAN_CAP:
                    span_id = tracer._next_span
                    tracer._next_span += 1
                else:
                    job.spans_dropped += 1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            if is_ps:
                tracer._in_pattern_search += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                if is_ps:
                    tracer._in_pattern_search -= 1
                if parent is not None:
                    parent[0] += dt
                    if is_loader and parent[1] == "cli":
                        job.load_s += dt
                rec = job.agg.get(key)
                if rec is None:
                    rec = job.agg[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if ops_exp:
                    rec[3] += args[0].k ** ops_exp
                if span_id >= 0:
                    job.spans.append((span_id, parent[2] if parent else -1, key, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._job = JobTrace(job_id)
        self._stack.clear()

    def end_job(self) -> JobTrace:
        job, self._job = self._job, None
        job.spectral_matrices = len(job.spectral_inputs)
        job.spectral_inputs = None
        return job
