"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: the tracer replaces the module
attributes that dagmix's own callers look up (``dagmix.samplers.gibbs_update_z``
as seen from ``run_chain``, ``dagmix.dags.is_connected`` as seen from the
spanning-tree validation, and so on) with timing wrappers, and restores the
originals when uninstalled. Nothing inside ``src/`` changes.

Each span is ``(name, layer, start, end, parent, op, note)``:

* ``name`` is ``<caller namespace>:<function>``, e.g. ``dags:is_connected``;
* ``layer`` is the module the function is defined in (``graph`` for
  ``is_connected``, whoever calls it);
* ``parent`` is the index of the enclosing span (-1 for a root);
* ``op`` is the index of the root span of the benchmark operation (one chain,
  one CLI fit or one study call), shared by every span it caused;
* ``note`` holds what the wrapper read off the return value (acceptance,
  stalls, the chain's model and iterations) or the exception type. A chain's
  computed sample bytes are added after its operation's root span closes, so
  that the sizing work is outside every span.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_NAME, LAYER, _START, _END, _PARENT, _OP, _NOTE = range(7)


def samples_bytes(samples) -> int:
    """Bytes held by a PosteriorSamples' kept draws, computed, not measured.

    Array bytes come from ``nbytes``; tree records are summed with
    ``sys.getsizeof`` over the outer tuple, each (child, parent) tuple and
    each distinct int object.
    """
    total = sum(a.nbytes for a in (samples.beta, samples.eta0, samples.eta1,
                                   samples.T, samples.z))
    if samples.tree_edges is not None:
        seen = set()
        for tree in samples.tree_edges:
            total += sys.getsizeof(tree)
            for pair in tree:
                total += sys.getsizeof(pair)
                for v in pair:
                    if id(v) not in seen:
                        seen.add(id(v))
                        total += sys.getsizeof(v)
    return total


def _accepted(result):
    return {"ok": bool(result[1])}


def _stalls(result):
    return {"stalls": int(result[1])}


def _chain(result):
    return {"model": result.model, "iterations": result.iterations}


# (namespace, attribute, note). The namespace is where the caller resolves
# the name, so that wrapping it intercepts every call the caller makes.
TARGETS = (
    ("dagmix.samplers", "run_chain", _chain),
    ("dagmix.samplers", "is_connected", None),
    ("dagmix.samplers", "direct_update_st", None),
    ("dagmix.samplers", "posterior_spanning_tree", None),
    ("dagmix.samplers", "uniform_spanning_tree", None),
    ("dagmix.samplers", "rooted_dag", None),
    ("dagmix.samplers", "acyclic_orientation", None),
    ("dagmix.samplers", "mh_update_dag", _accepted),
    ("dagmix.samplers", "gibbs_update_z", None),
    ("dagmix.samplers", "mh_update_beta", _accepted),
    ("dagmix.samplers", "exchange_update_beta_mrf", _accepted),
    ("dagmix.samplers", "cftp_ising", None),
    ("dagmix.samplers", "gibbs_update_eta", _stalls),
    ("dagmix.samplers", "log_dgm_prior", None),
    ("dagmix.samplers", "pseudo_likelihood_log", None),
    ("dagmix.samplers", "suff_stat_T", None),
    ("dagmix.samplers", "eta_full_conditional_params", None),
    ("dagmix.dags", "is_connected", None),
    ("dagmix.dags", "skeleton", None),
    ("dagmix.graph", "build_lattice_nug", None),
    ("dagmix.experiments", "build_lattice_nug", None),
    ("dagmix.experiments", "generate_dataset", None),
    ("dagmix.experiments", "cftp_ising", None),
    ("dagmix.experiments", "run_chain", _chain),
    ("dagmix.experiments", "posterior_mean_accuracy", None),
    ("dagmix.experiments", "posterior_rmse_T", None),
    ("dagmix.experiments", "suff_stat_T", None),
    ("dagmix.experiments", "bootstrap_ci", None),
    ("dagmix.cli", "load_nug", None),
    ("dagmix.cli", "load_observations", None),
    ("dagmix.cli", "run_chain", _chain),
    ("dagmix.samplers.PosteriorSamples", "to_jsonl", None),
)


def _resolve(path):
    """Module or class object for a dotted path such as dagmix.samplers.PosteriorSamples."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans while installed; keeps them in memory until written out."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._chains = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, note in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            caller = path.rsplit(".", 1)[-1]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{caller}:{attr}", note))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][_OP] if parent >= 0 else idx
        self.spans.append([name, layer, time.perf_counter(), None, parent, op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, note):
        self.spans[idx][_NOTE] = note
        self._stack.pop()

    def _wrap(self, fn, name, note):
        layer = fn.__module__.rsplit(".", 1)[-1]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            span = tracer.spans[idx]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_END] = time.perf_counter()
                tracer._close(idx, {"error": type(exc).__name__})
                raise
            span[_END] = time.perf_counter()
            tracer._close(idx, note(result) if note is not None else None)
            if note is _chain:
                tracer._chains.append((idx, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def op(self, kind, **meta):
        """Root span around one benchmark operation; meta lands in its note."""
        idx = self._open(f"bench:{kind}", "bench")
        try:
            yield
        finally:
            self.spans[idx][_END] = time.perf_counter()
            self._close(idx, dict(meta))
            for chain, samples in self._chains:
                self.spans[chain][_NOTE]["samples_bytes"] = samples_bytes(samples)
            self._chains = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[_NAME], "layer": s[LAYER], "start": s[_START],
                    "end": s[_END], "parent": s[_PARENT], "op": s[_OP], "note": s[_NOTE],
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from a finished recording
# ---------------------------------------------------------------------------

MDGM = ("mdgm-st", "mdgm-rooted", "mdgm-ao")
EXACT_MRF = "exact-mrf"


class Recording:
    """Durations, self times and chain membership of recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[_END] - s[_START] for s in spans]
        self.self_time = list(self.dur)
        self.chain = [-1] * len(spans)  # enclosing run_chain span, or -1
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):  # a parent always precedes its children
            p = s[_PARENT]
            if p >= 0:
                self.self_time[p] -= self.dur[i]
                self.children[p].append(i)
            self.chain[i] = i if s[_NAME].endswith(":run_chain") else (
                self.chain[p] if p >= 0 else -1)
            self.by_name[s[_NAME]].append(i)
        # Finished chains only: a chain that raised has no model in its note.
        self.chains = {i: s[_NOTE] for i, s in enumerate(spans)
                       if s[_NAME].endswith(":run_chain") and s[_NOTE] and "model" in s[_NOTE]}

    def model(self, i):
        return self.chains.get(self.chain[i], {}).get("model")

    def pick(self, names, models=None, parent=None):
        names = (names,) if isinstance(names, str) else names
        return [i for name in names for i in self.by_name.get(name, ())
                if (models is None or self.model(i) in models)
                and (parent is None or self.parent_name(i) == parent)]

    def parent_name(self, i):
        p = self.spans[i][_PARENT]
        return self.spans[p][_NAME] if p >= 0 else None

    def iterations(self, models=None):
        return sum(c["iterations"] for c in self.chains.values()
                   if models is None or c["model"] in models)

    def ms(self, idx):
        return 1000.0 * sum(self.dur[i] for i in idx)

    def mean_ms(self, idx):
        return self.ms(idx) / len(idx) if idx else 0.0

    def per_iter(self, count, models):
        iters = self.iterations(models)
        return count / iters if iters else 0.0

    def rate(self, idx, key):
        notes = [self.spans[i][_NOTE] for i in idx if self.spans[i][_NOTE]]
        notes = [n for n in notes if key in n]
        return sum(bool(n[key]) for n in notes) / len(notes) if notes else 0.0

    def note_sum(self, idx, key):
        return sum(self.spans[i][_NOTE].get(key, 0) for i in idx if self.spans[i][_NOTE])

    def self_ms_per_iter(self, model, by=_NAME):
        """Self time per span name (or per layer, by=LAYER), per iteration,
        over one model's chains.

        The values sum to the chains' wall time per iteration: every instant
        inside a run_chain span is the self time of exactly one span in its
        subtree.
        """
        iters = self.iterations((model,))
        out = defaultdict(float)
        stack = [c for c, note in self.chains.items() if note["model"] == model]
        while stack:
            i = stack.pop()
            out[self.spans[i][by]] += self.self_time[i]
            stack.extend(self.children[i])
        return {k: 1000.0 * v / iters for k, v in sorted(out.items())} if iters else {}


def layer_metrics(rec: Recording) -> dict:
    """Every per-layer metric of BENCHMARK.json except trace_overhead_pct.

    Times are per call unless the name says otherwise. A layer that the
    workload does not reach reports 0.
    """
    m = {}
    draws = rec.pick("samplers:posterior_spanning_tree")
    m["dags.tree_draw_ms"] = rec.mean_ms(draws)
    validation = rec.pick(("dags:skeleton", "dags:is_connected"),
                          parent="samplers:posterior_spanning_tree")
    m["dags.validation_ms_per_draw"] = rec.ms(validation) / len(draws) if draws else 0.0
    m["dags.is_connected_calls_per_iter"] = rec.per_iter(
        len(rec.pick("dags:is_connected", models=("mdgm-st",))), ("mdgm-st",))
    cache = defaultdict(float)
    for i in rec.pick("samplers:rooted_dag", models=("mdgm-rooted",)):
        cache[rec.chain[i]] += rec.dur[i]
    m["dags.rooted_cache_s"] = statistics.median(cache.values()) if cache else 0.0
    m["dags.orientation_ms"] = rec.mean_ms(rec.pick("samplers:acyclic_orientation"))

    prior = rec.pick("samplers:log_dgm_prior")
    m["model.log_dgm_prior_ms"] = rec.mean_ms(prior)
    m["model.log_dgm_prior_calls_per_iter"] = rec.per_iter(
        len(rec.pick("samplers:log_dgm_prior", models=MDGM)), MDGM)
    m["model.pseudo_lik_ms"] = rec.mean_ms(rec.pick("samplers:pseudo_likelihood_log"))
    m["model.pseudo_lik_calls_per_iter"] = rec.per_iter(
        len(rec.pick("samplers:pseudo_likelihood_log", models=("amrf",))), ("amrf",))
    m["model.suff_stat_ms"] = rec.mean_ms(rec.pick(("samplers:suff_stat_T",
                                                     "experiments:suff_stat_T")))
    m["model.eta_params_ms"] = rec.mean_ms(rec.pick("samplers:eta_full_conditional_params"))

    m["samplers.z_sweep_ms"] = rec.mean_ms(rec.pick("samplers:gibbs_update_z"))
    m["samplers.tree_update_ms"] = rec.mean_ms(rec.pick("samplers:direct_update_st"))
    dag_mh = rec.pick("samplers:mh_update_dag")
    m["samplers.dag_mh_ms"] = rec.mean_ms(dag_mh)
    m["samplers.dag_mh_accept"] = rec.rate(dag_mh, "ok")
    beta_mh = rec.pick("samplers:mh_update_beta")
    m["samplers.beta_mh_ms"] = rec.mean_ms(beta_mh)
    m["samplers.beta_mh_accept"] = rec.rate(beta_mh, "ok")
    eta = rec.pick("samplers:gibbs_update_eta")
    m["samplers.eta_ms"] = rec.mean_ms(eta)
    m["samplers.eta_stalls"] = rec.note_sum(eta, "stalls")
    m["samplers.chain_self_ms_per_iter"] = rec.per_iter(
        1000.0 * sum(rec.self_time[i] for i in rec.chains), None)
    cftp = rec.pick("samplers:cftp_ising")
    m["samplers.cftp_ms"] = rec.mean_ms(cftp)
    m["samplers.cftp_calls_per_iter"] = rec.per_iter(
        len(rec.pick("samplers:cftp_ising", models=(EXACT_MRF,))), (EXACT_MRF,))
    m["samplers.cftp_failures"] = sum(
        1 for i in cftp if (rec.spans[i][_NOTE] or {}).get("error") == "CoalescenceError")
    exchange = rec.pick("samplers:exchange_update_beta_mrf")
    m["samplers.exchange_ms"] = rec.mean_ms(exchange)
    m["samplers.exchange_accept"] = rec.rate(exchange, "ok")

    builds = rec.pick(("graph:build_lattice_nug", "experiments:build_lattice_nug"))
    m["graph.build_s"] = rec.mean_ms(builds) / 1000.0
    m["graph.is_connected_ms"] = rec.mean_ms(rec.pick(("samplers:is_connected",
                                                       "dags:is_connected")))

    m["experiments.dataset_ms"] = rec.mean_ms(rec.pick("experiments:generate_dataset"))
    m["experiments.bootstrap_ms"] = rec.mean_ms(rec.pick("experiments:bootstrap_ci"))
    m["experiments.chain_ms"] = rec.mean_ms(rec.pick("experiments:run_chain"))

    fits = rec.by_name.get("bench:fit", [])
    loads = rec.pick(("cli:load_nug", "cli:load_observations"))
    m["cli.load_s"] = rec.ms(loads) / 1000.0 / len(fits) if fits else 0.0
    writes = []
    for f in fits:
        chains = [c for c in rec.children[f] if rec.spans[c][_NAME] == "cli:run_chain"]
        if chains:
            writes.append(rec.spans[f][_END] - rec.spans[chains[-1]][_END])
    m["cli.write_s"] = sum(writes) / len(writes) if writes else 0.0
    sizes = [c["samples_bytes"] for c in rec.chains.values() if "samples_bytes" in c]
    m["cli.samples_mb_computed"] = sum(sizes) / len(sizes) / 1e6 if sizes else 0.0
    return m

