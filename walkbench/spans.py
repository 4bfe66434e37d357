"""Spans around the calls into fracwos's public functions, set from outside.

``Tracer.install`` replaces module and class attributes with wrappers that
time each call and count the work it was handed; ``Tracer.remove`` puts the
originals back.  Nothing under ``src/`` changes.

Each thread keeps its own span stack.  A span's self time is its duration
minus the durations of its direct children in the same thread.  It is
added to totals shared by all threads as the call ends, so memory stays
flat however long the run.  ``engine._walk_chunk`` has no span of its
own, so its lockstep bookkeeping is ``engine.estimate_point``'s self time.
The workloads call ``estimate_point`` on one thread.  Were its chunks run
in pool threads, the ``estimate_point`` span would also count the wait for
the pool, and the self times would add up to more than the wall time.

A target that does not exist in the program (a function renamed or
removed by a later change) is skipped, and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import defaultdict

import numpy as np


def _rows(x):
    return np.atleast_2d(np.asarray(x)).shape[0]


def _count_uniforms(args, kwargs, out):
    rows = int(np.shape(args[1])[0])
    m = int(args[2])
    return {"rows": rows, "blocks": rows * (-(-m // 4))}


def _count_rows(args, kwargs, out):
    return {"rows": _rows(args[1])}


def _count_idx(args, kwargs, out):
    return {"rows": int(np.shape(args[1])[0])}


def _count_first_arg_rows(args, kwargs, out):
    return {"rows": _rows(args[0])}


def _count_exit(args, kwargs, out):
    return {"evals": int(np.size(args[2]))}


def _count_accept(args, kwargs, out):
    return {"evals": int(np.size(args[0]))}


def _count_estimate(args, kwargs, out):
    return {"paths": out.n_paths, "steps": out.mean_steps * out.n_paths}


class Tracer:
    """Per-name self time, call count and work counters, over all threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._self_s = defaultdict(float)
        self._calls = defaultdict(int)
        self._counts = defaultdict(float)
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, own, counted):
        with self._lock:
            self._calls[name] += 1
            self._self_s[name] += own
            for key, v in counted.items():
                self._counts[key] += v

    def wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                counted = {}
                if ok and count is not None:
                    counted = {f"{name}.{k}": v for k, v in count(args, kwargs, out).items()}
                tracer._record(name, t1 - t0 - frame[0], counted)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, count=None):
        if not hasattr(owner, attr):
            return
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
        self._patches.append((owner, attr, had_own, original))

    def install(self, fracwos):
        """Wrap the layer boundaries of the imported fracwos package."""
        sampling, geometry = fracwos.sampling, fracwos.geometry
        engine, kernels, cli = fracwos.engine, fracwos.kernels, fracwos.cli
        p = self._patch
        p(sampling.StreamBatch, "uniforms", "sampling.StreamBatch.uniforms", _count_uniforms)
        p(sampling.StreamBatch, "normals", "sampling.StreamBatch.normals", _count_idx)
        p(sampling, "exit_radius_from_uniform", "sampling.exit_radius_from_uniform", _count_exit)
        p(sampling, "interior_accept_prob", "sampling.interior_accept_prob", _count_accept)
        domains = [c for c in vars(geometry).values()
                   if isinstance(c, type) and issubclass(c, geometry.Domain)]
        for attr in ("contains", "dist_boundary", "project_boundary"):
            for cls in domains:
                # the base class, and any domain that overrides the method
                if cls is geometry.Domain or attr in vars(cls):
                    p(cls, attr, f"geometry.{attr}", _count_rows)
        for mod in (engine, cli):
            p(mod, "estimate_point", "engine.estimate_point", _count_estimate)
        for mod in (kernels, cli):
            p(mod, "make_constants", "kernels.make_constants")
        p(cli, "main", "cli.main")
        if hasattr(cli, "make_case"):
            make_case = self.wrap("oracle.make_case", cli.make_case)
            self._patches.append((cli, "make_case", True, cli.make_case))
            cli.make_case = lambda *a, **k: self.wrap_fields(make_case(*a, **k))

    def wrap_fields(self, case):
        """The case with its fields f and g wrapped as spans."""
        f = None if case.f is None else self.wrap("field.f", case.f, _count_first_arg_rows)
        g = self.wrap("field.g", case.g, _count_first_arg_rows)
        return dataclasses.replace(case, f=f, g=g)

    def remove(self):
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """(self_s, calls, counts) summed over threads."""
        with self._lock:
            return (defaultdict(float, self._self_s), defaultdict(int, self._calls),
                    defaultdict(float, self._counts))
