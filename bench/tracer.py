"""Span tracer wrapped around ipss_lab's public functions, for traced runs only.

``Tracer.install`` replaces every public function a module defines (no
leading underscore), in every module namespace that binds it, with a wrapper recording a span
(name, start, end, parent span, round) and the call's self time: its
duration minus the time covered by wrapped child spans.  A few public
methods are wrapped on their classes, and the ``rhs`` of every system
built from ``SYSTEM_REGISTRY`` is wrapped with a call counter.  Spans stay
in memory until :meth:`Tracer.write`.  Untraced runs never construct a
tracer, so they run the program unmodified.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("comparison_functions", "signals", "simulator", "lyapunov_tools",
           "stability_certificates", "converse_construction", "cli_harness")

# public methods traced on their classes: (module, class, method)
METHODS = (
    ("comparison_functions", "KLBound", "eval"),
    ("lyapunov_tools", "KappaBundle", "kappa_inv"),
    ("converse_construction", "ConverseEvaluator", "wk"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counts = {"simulator.rk4_steps": 0, "simulator.rhs_calls": 0,
                       "converse_construction.layer_cache_hits": 0}
        self.absent = []
        self.round = -1
        self._stack = []         # [span index, child seconds]
        self._name = array("i")
        self._parent = array("i")
        self._round = array("i")
        self._start = array("d")
        self._end = array("d")

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter
        names, parents, rounds, starts, ends = (self._name, self._parent, self._round,
                                                self._start, self._end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            rounds.append(self.round)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                starts[idx] = t0
                ends[idx] = t1

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: str = "ipss_lab") -> None:
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                self.absent.append(short)
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    self._rebind(mods, fn, self._hooked(f"{short}.{attr}", fn))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.absent.append(f"{short}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._hooked(f"{short}.{cls_name}.{meth}", fn))
        registry = getattr(mods.get("simulator"), "SYSTEM_REGISTRY", None)
        if registry is None:
            self.absent.append("simulator.SYSTEM_REGISTRY")
        else:
            for key, factory in list(registry.items()):
                registry[key] = self._counting_factory(factory)

    @staticmethod
    def _rebind(mods: dict, fn, wrapper) -> None:
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    def _hooked(self, name: str, fn):
        traced = self.wrap(name, fn)
        counts = self.counts
        if name == "simulator.simulate":
            def simulate(*args, **kwargs):
                traj = traced(*args, **kwargs)
                counts["simulator.rk4_steps"] += len(traj.times) - 1
                return traj
            return functools.wraps(fn)(simulate)
        if name == "converse_construction.ConverseEvaluator.wk":
            estimates = self.stats.setdefault("converse_construction.wk_estimate", [0, 0.0, 0.0])

            def wk(*args, **kwargs):
                before = estimates[0]
                out = traced(*args, **kwargs)
                if estimates[0] == before:
                    counts["converse_construction.layer_cache_hits"] += 1
                return out
            return functools.wraps(fn)(wk)
        return traced

    def _counting_factory(self, factory):
        counts = self.counts

        @functools.wraps(factory)
        def build(*args, **kwargs):
            sysdef = factory(*args, **kwargs)
            rhs = sysdef.rhs

            def counted(t, x, u):
                counts["simulator.rhs_calls"] += 1
                return rhs(t, x, u)
            return dataclasses.replace(sysdef, rhs=counted)

        return build

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-round means of every recorded stat and counter."""
        out = {}
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_s"] = self_s / rounds
        for name, val in self.counts.items():
            out[name] = val / rounds
        sim_self = self.stats.get("simulator.simulate", [0, 0.0, 0.0])[2]
        out["simulator.rk4_steps_per_s"] = (self.counts["simulator.rk4_steps"] / sim_self
                                            if sim_self > 0 else 0.0)
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Spans to ``<path>.npz``, names and per-layer metrics to ``<path>.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 round=np.frombuffer(self._round, dtype=np.int32),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64))
        doc = {"names": self.names, "absent": self.absent, "n_spans": len(self._start),
               **summary}
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
