"""Span tracing around the calls into each mfsde module, from outside the package.

``Tracer.install()`` replaces public functions under the names their callers
look them up (for example ``mfsde.cli.simulate_mckean_vlasov`` and
``mfsde.feynman_kac.simulate_decoupled``, not only the definitions in
``mfsde.dynamics``).  Each call records a span (name, start, end, parent span,
op id); spans stay in memory until ``write_spans``.  A few very frequent
boundaries (stream construction, normal draws, measure construction) are
counted rather than spanned.  Normal draws are computed, not intercepted:
each stream built inside a ``brownian_increments`` call draws that call's
steps x m normals.

Every ``*_s`` metric is a self time: the span's duration minus the part its
child spans cover.  ``functionals.girsanov_s`` is the one inclusive time, so
that the accumulation done for the Girsanov weight and Novikov estimate is
charged to it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import mfsde.calculus
import mfsde.cli
import mfsde.dynamics
import mfsde.feynman_kac
import mfsde.functionals
import mfsde.generator
import mfsde.measure

# span name -> modules whose global of that name is replaced
SPANNED = {
    "dynamics.simulate_mckean_vlasov": (
        "simulate_mckean_vlasov", ("cli", "dynamics", "feynman_kac")),
    "dynamics.simulate_decoupled": ("simulate_decoupled", ("dynamics", "feynman_kac")),
    "dynamics.brownian_increments": ("brownian_increments", ("dynamics",)),
    "generator.generator_parts": (
        "generator_parts", ("cli", "generator", "functionals", "feynman_kac")),
    "generator.ito_residual_ensemble": ("ito_residual_ensemble", ("cli",)),
    "functionals.accumulate": ("accumulate", ("functionals",)),
    "functionals.potential_increment": ("potential_increment", ("functionals",)),
    "functionals.verify_path_independence": ("verify_path_independence", ("cli",)),
    "functionals.girsanov_weight": ("girsanov_weight", ("cli",)),
    "functionals.novikov_estimate": ("novikov_estimate", ("cli",)),
    "measure.wasserstein2": ("wasserstein2", ("cli", "dynamics", "measure")),
    "feynman_kac.solve_linear": ("solve_linear", ("cli",)),
    "feynman_kac.solve_with_source": ("solve_with_source", ("cli",)),
    "feynman_kac.solve_log_transform": ("solve_log_transform", ("cli",)),
    "feynman_kac.pde_residual_mc": ("pde_residual_mc", ("cli",)),
}
# span name -> (class, method)
SPANNED_METHODS = {
    "calculus.inner_integrals": (mfsde.calculus.CylindricalFunction, "inner_integrals"),
    "feynman_kac.samples": (mfsde.feynman_kac.McValueFunction, "samples"),
}
# modules whose file writes are timed (through a module-global ``open``)
WRITERS = ("cli", "dynamics", "feynman_kac", "functionals", "generator", "measure")


class _TimedFile:
    """File proxy whose lifetime from open to close is one span."""

    def __init__(self, fh, tracer, span):
        self._fh, self._tracer, self._span = fh, tracer, span

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._tracer.counts["csv_bytes"] += self._fh.tell()
            self._fh.close()
            self._tracer.end(self._span)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Tracer:
    """In-memory span recorder plus boundary counters for one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.noise_keys = set()
        self.ensemble_bytes_max = 0
        self.missing = []
        self._undo = []

    # -- span bookkeeping -------------------------------------------------
    def begin(self, name):
        span = [len(self.spans), name, time.perf_counter(), None,
                self.stack[-1][0] if self.stack else None, self.op]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span[3] = time.perf_counter()
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        else:  # a file closed out of order: drop it wherever it sits
            self.stack.remove(span)

    def _wrap(self, name, fn, via=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer._observe(name, via, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, via, args, kwargs, result):
        if name == "dynamics.brownian_increments":
            seed, count, n_steps, m = args[:4]
            domain = args[5] if len(args) > 5 else kwargs.get("domain", 0)
            self.counts["noise_draws"] += self.counts.pop("fresh_streams", 0) * int(n_steps) * int(m)
            key = (int(seed), int(count), int(m), int(domain))
            if key in self.noise_keys:
                self.counts["noise_repeat_calls"] += 1
            self.noise_keys.add(key)
        elif name in ("dynamics.simulate_mckean_vlasov", "dynamics.simulate_decoupled"):
            kind = "interacting" if name.endswith("vlasov") else "decoupled"
            self.counts[f"{kind}_particle_steps"] += result.noise.shape[0] * result.states.shape[1]
            self.ensemble_bytes_max = max(
                self.ensemble_bytes_max, result.states.nbytes + result.noise.nbytes)
            if kind == "interacting" and via == "feynman_kac":
                self.counts["frozen_flows"] += 1
        elif name == "generator.generator_parts":
            X = args[3] if len(args) > 3 else kwargs["X"]
            self.counts["parts_rows"] += np.atleast_2d(np.asarray(X)).shape[0]

    # -- installation -----------------------------------------------------
    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr, None), hasattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: getattr(mfsde, name) for name in
                   ("calculus", "cli", "dynamics", "feynman_kac", "functionals",
                    "generator", "measure")}
        for name, (attr, owners) in SPANNED.items():
            for owner in owners:
                mod = modules[owner]
                if not hasattr(mod, attr):
                    self.missing.append(f"mfsde.{owner}.{attr}")
                    continue
                self._patch(mod, attr, self._wrap(name, getattr(mod, attr), via=owner))
        for name, (cls, attr) in SPANNED_METHODS.items():
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._install_counters(modules)

    def _install_counters(self, modules):
        counts, stack = self.counts, self.stack
        stream = modules["dynamics"].particle_stream

        def particle_stream(*args, **kwargs):
            counts["stream_constructions"] += 1
            if stack and stack[-1][1] == "dynamics.brownian_increments":
                counts["fresh_streams"] += 1
            return stream(*args, **kwargs)

        self._patch(modules["dynamics"], "particle_stream", particle_stream)

        measure_cls = mfsde.measure.EmpiricalMeasure
        post_init = measure_cls.__post_init__

        def counted_post_init(obj):
            counts["measures_built"] += 1
            post_init(obj)

        self._patch(measure_cls, "__post_init__", counted_post_init)

        tracer = self

        def timed_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)  # noqa: SIM115 - closed by the proxy
            if "w" not in mode or not str(file).endswith(".csv"):
                return fh
            return _TimedFile(fh, tracer, tracer.begin("cli.csv_write"))

        for owner in WRITERS:
            self._patch(modules[owner], "open", timed_open)

    def uninstall(self):
        for owner, attr, old, existed in reversed(self._undo):
            if existed:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reduction --------------------------------------------------------
    def self_times(self, op=None):
        """(self seconds, inclusive seconds, calls) per span name."""
        child = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs, incl, calls = Counter(), Counter(), Counter()
        for sid, name, start, end, _parent, sop in self.spans:
            if op is not None and sop != op:
                continue
            selfs[name] += (end - start) - child[sid]
            incl[name] += end - start
            calls[name] += 1
        return selfs, incl, calls

    def metrics(self):
        selfs, incl, calls = self.self_times()
        c = self.counts
        return {
            "dynamics.noise_s": selfs["dynamics.brownian_increments"],
            "dynamics.stream_constructions": c["stream_constructions"],
            "dynamics.noise_draws": c["noise_draws"],
            "dynamics.noise_repeat_calls": c["noise_repeat_calls"],
            "dynamics.interacting_self_s": selfs["dynamics.simulate_mckean_vlasov"],
            "dynamics.interacting_particle_steps": c["interacting_particle_steps"],
            "dynamics.decoupled_self_s": selfs["dynamics.simulate_decoupled"],
            "dynamics.decoupled_particle_steps": c["decoupled_particle_steps"],
            "dynamics.ensemble_bytes_max": self.ensemble_bytes_max,
            "generator.parts_s": selfs["generator.generator_parts"],
            "generator.parts_calls": calls["generator.generator_parts"],
            "generator.parts_rows": c["parts_rows"],
            "generator.ito_residual_self_s": selfs["generator.ito_residual_ensemble"],
            "functionals.accumulate_s": selfs["functionals.accumulate"],
            "functionals.accumulate_calls": calls["functionals.accumulate"],
            "functionals.potential_increment_calls": calls["functionals.potential_increment"],
            "functionals.verify_self_s": selfs["functionals.verify_path_independence"],
            "functionals.girsanov_s": incl["functionals.girsanov_weight"]
            + incl["functionals.novikov_estimate"],
            "calculus.inner_integrals_s": selfs["calculus.inner_integrals"],
            "calculus.inner_integrals_calls": calls["calculus.inner_integrals"],
            "measure.w2_s": selfs["measure.wasserstein2"],
            "measure.w2_calls": calls["measure.wasserstein2"],
            "measure.measures_built": c["measures_built"],
            "feynman_kac.frozen_flows": c["frozen_flows"],
            "feynman_kac.sample_columns": calls["feynman_kac.samples"],
            "feynman_kac.solver_self_s": sum(
                selfs[n] for n in ("feynman_kac.solve_linear", "feynman_kac.solve_with_source",
                                   "feynman_kac.solve_log_transform", "feynman_kac.samples")),
            "feynman_kac.residual_self_s": selfs["feynman_kac.pde_residual_mc"],
            "cli.csv_s": selfs["cli.csv_write"],
            "cli.csv_bytes": c["csv_bytes"],
        }

    def per_op(self):
        """Self seconds and calls per span name, for each op id."""
        out = {}
        for op in dict.fromkeys(s[5] for s in self.spans):
            selfs, _incl, calls = self.self_times(op)
            out[op] = {name: {"self_s": selfs[name], "calls": calls[name]} for name in selfs}
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
