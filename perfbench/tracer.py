"""In-memory span tracer that wraps the public functions of every ucnprec module.

The program itself carries no tracing. `instrument` replaces each wrapped
function everywhere the package holds a reference to it (functions imported by
name into other modules included), records one span per call and restores
the originals when the returned undo function runs.

A span is (name, start, end, parent, key) with key = (solver, seed), so one
batch's spans can be split per (workload, solver, seed); the workload is the
batch's own. Spans stay in memory in flat arrays and are written out once, at
the end of the batch.
"""

import functools
import json
import time
from array import array

import numpy as np

SETUP = "setup"  # key solver for spans before a seed's first solver starts


class Tracer:
    def __init__(self, solvers):
        self.solvers = list(solvers)
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.key_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.keys = [(SETUP, -1)]
        self._key_ids = {self.keys[0]: 0}
        self._key = 0
        self._seed = -1
        self._solver_index = -1
        self._stack = []
        self.counts = {}  # (solver, counter name) -> int, for events too cheap to span

    # -- keys ---------------------------------------------------------------
    def _set_key(self, solver, seed):
        key = (solver, seed)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        self._key = self._key_ids[key]

    def begin_seed(self, seed):
        self._seed = int(seed)
        self._solver_index = -1
        self._set_key(SETUP, self._seed)

    def next_solver(self):
        # run_experiment builds one WsrObjective per solver, in solver order.
        self._solver_index += 1
        self._set_key(self.solvers[self._solver_index], self._seed)

    @property
    def solver(self):
        return self.keys[self._key][0]

    def count(self, name, n=1):
        k = (self.solver, name)
        self.counts[k] = self.counts.get(k, 0) + n

    # -- spans --------------------------------------------------------------
    def span(self, name, fn, after=None):
        """Wrap fn so every call records a span; after(result) runs inside it."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.key_id.append(self._key)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1

        return wrapper

    # -- results ------------------------------------------------------------
    def summarize(self):
        """Calls, seconds and self seconds per span name and per (solver, span name).

        by_parent counts calls per (parent span name, span name).
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        key_id = np.frombuffer(self.key_id, dtype=np.int32, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        solver_names = sorted({s for s, _ in self.keys})
        solver_of_key = np.array([solver_names.index(s) for s, _ in self.keys], dtype=np.int64)
        group = solver_of_key[key_id] * len(self.names) + name_id
        size = len(solver_names) * len(self.names)
        calls = np.bincount(group, minlength=size)
        secs = np.bincount(group, weights=dur, minlength=size)
        self_secs = np.bincount(group, weights=self_time, minlength=size)

        by_solver = {}
        totals = {}
        for s_i, solver in enumerate(solver_names):
            for n_i, name in enumerate(self.names):
                g = s_i * len(self.names) + n_i
                if calls[g] == 0:
                    continue
                entry = {"calls": int(calls[g]), "s": float(secs[g]), "self_s": float(self_secs[g])}
                by_solver.setdefault(solver, {})[name] = entry
                tot = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for field in entry:
                    tot[field] += entry[field]
        counts = {}
        for (solver, name), value in self.counts.items():
            counts.setdefault(solver, {})[name] = value
        parent_name = name_id[parent[has_parent]].astype(np.int64) * len(self.names)
        pairs = np.bincount(parent_name + name_id[has_parent], minlength=len(self.names) ** 2)
        by_parent = {}
        for g in np.flatnonzero(pairs):
            p_name, c_name = self.names[g // len(self.names)], self.names[g % len(self.names)]
            by_parent.setdefault(p_name, {})[c_name] = int(pairs[g])
        return {"totals": totals, "by_solver": by_solver, "by_parent": by_parent, "counts": counts}

    def write(self, path):
        """Dump every span as one .npz: names, keys and five flat arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            keys=np.array([json.dumps(k) for k in self.keys]),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            key_id=np.asarray(self.key_id),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _replace_everywhere(modules, original, replacement, undo):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def instrument(tracer, ucnprec):
    """Wrap the package's public layer functions; returns a function that undoes it."""
    from ucnprec import baselines, channel, embedding, harness, objective, symplectic

    modules = [ucnprec, channel, embedding, objective, symplectic, baselines, harness]
    undo = []

    def wrap_function(mod, attr, name, after=None):
        original = getattr(mod, attr)
        _replace_everywhere(modules, original, tracer.span(name, original, after), undo)

    def wrap_method(cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.span(name, original))
        undo.append((cls, attr, original))

    wrap_function(channel, "generate_topology", "channel.topology")
    wrap_function(channel, "generate_channels", "channel.channels")
    wrap_function(channel, "compute_rsrp", "channel.rsrp")
    wrap_function(channel, "build_clusters", "channel.clusters")

    wrap_method(embedding.PrecoderState, "__init__", "embedding.precoder_state")
    wrap_function(embedding, "renormalize_power", "embedding.renormalize_power")

    wrap_function(objective, "amplitude_matrix", "objective.amplitude_matrix")
    wrap_method(objective.WsrObjective, "evaluate", "objective.evaluate")
    wrap_method(objective.WsrObjective, "value", "objective.value")
    wrap_method(objective.WsrObjective, "wsr_bits", "objective.wsr_bits")
    objective_init = objective.WsrObjective.__init__

    def init_hook(self, *args, **kwargs):
        tracer.next_solver()
        objective_init(self, *args, **kwargs)

    objective.WsrObjective.__init__ = init_hook
    undo.append((objective.WsrObjective, "__init__", objective_init))

    wrap_function(symplectic, "solve", "symplectic.solve")
    wrap_function(symplectic, "rattle_step", "symplectic.rattle_step")
    wrap_function(symplectic, "write_trace_csv", "harness.write_trace")

    def count_accepted(result):
        tracer.count("armijo.accepted", sum(1 for r in result.trace if r.h_used))

    wrap_function(baselines, "rzf_init", "baselines.rzf_init")
    wrap_function(baselines, "wmmse_iterate", "baselines.wmmse")
    wrap_function(baselines, "wmmse_step", "baselines.wmmse_step")
    wrap_function(baselines, "gd_solve", "baselines.gd", count_accepted)
    wrap_function(baselines, "nagd_solve", "baselines.nagd", count_accepted)
    bisect = baselines.bisect_power

    def bisect_counted(power_fn, *args, **kwargs):
        def counted(lam):
            tracer.count("power_fn.calls")
            return power_fn(lam)

        return bisect(counted, *args, **kwargs)

    _replace_everywhere(
        modules, bisect, tracer.span("baselines.bisect_power", bisect_counted), undo
    )
    eigh = np.linalg.eigh
    np.linalg.eigh = tracer.span("baselines.wmmse.eigh", eigh)
    undo.append((np.linalg, "eigh", eigh))

    build = harness.build_instance
    traced_build = tracer.span("harness.build_instance", build)

    def build_hook(config, seed, *args, **kwargs):
        # The seed's key is set before the span opens, so the span carries it.
        tracer.begin_seed(seed)
        return traced_build(config, seed, *args, **kwargs)

    _replace_everywhere(modules, build, build_hook, undo)
    wrap_function(harness, "initial_precoder", "harness.initial_precoder")
    wrap_function(harness, "run_experiment", "harness.run_experiment")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
