"""Per-layer tracing of trapclock from outside the package.

The tracer replaces functions of the package by timing wrappers for the
length of one traced job, then puts the originals back.  Nothing under
``src/`` knows about it.  Modules import functions by name (``from .env
import tau_array``), so a function is replaced in every ``trapclock``
namespace that binds it, aliases included.

What is wrapped:

* every public module-level function of each layer module, in every
  namespace but its own: a call inside the defining module is that layer's
  own time, so a span there would only add overhead;
* the units of work ``estimators._block_z`` (one block run),
  ``estimators._mark_rows`` (one mark run) and ``aging.window_stats`` (one
  aging trajectory), in their own module too;
* the ``Stream`` constructor and ``uniform``/``uniforms`` (rng) and
  ``ClockPath.value_at`` (clock), which other layers call directly;
* the function handed to ``parallel.run_tasks`` in a single-process call, so
  chunk code is charged to the module that defines it, not to ``parallel``.

The benchmark's workload module binds package functions by name like any
consumer and is patched the same way.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is the duration of its spans minus the time their child spans
cover; the traced wall time not inside any span is ``other``.  Work counts
are read from arguments and results at the same boundaries;
``max_cache_sites`` is the largest per-site cache (``model._cache``) seen
after an engine call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("rng", "env", "chains", "clock", "estimators", "aging", "limits",
          "parallel", "cli")

COUNTS = ("rng.words_hashed", "env.sites", "chains.fast.events",
          "chains.general.events", "chains.discrete.steps", "chains.truncated",
          "clock.paths", "clock.rejected", "estimators.block_runs",
          "estimators.mark_runs", "aging.trajectories", "aging.excluded",
          "limits.passage_paths", "limits.fk_samples")


# units of work, called inside their own module and wrapped there as well
_UNITS_OF_WORK = {("estimators", "_block_z"): "estimators.block_run",
                  ("estimators", "_mark_rows"): "estimators.mark_run",
                  ("aging", "window_stats"): "aging.window_stats"}
# public methods that callers in other layers use directly
_METHODS = (("rng", "Stream", "__init__"), ("rng", "Stream", "uniform"),
            ("rng", "Stream", "uniforms"), ("clock", "ClockPath", "value_at"))


def _bind(fn, args, kwargs):
    """The arguments of a call of fn by parameter name, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def _arg(fn, args, kwargs, name):
    return _bind(fn, args, kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = [-1]
        self.counts = Counter()
        self.max_cache_sites = 0
        self._undo = []

    # -- span recording ----------------------------------------------------

    def wrap(self, name, fn, after=None, on_error=None, before=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- work counters -----------------------------------------------------

    def _hooks(self, pkg):
        c = self.counts
        env_cls = pkg.env.EnvConfig
        violation = pkg.errors.ContractViolationError

        def engine_done(args, out):
            jumps = out[1]
            c["chains.truncated"] += int(jumps.truncated)
            cache = getattr(args[0], "_cache", None)
            if isinstance(cache, dict):
                self.max_cache_sites = max(self.max_cache_sites, len(cache))
            return len(jumps)

        def vsrw_done(args, kwargs, out):
            # "fast" is the theta = 0 lattice walk, which the package runs on
            # its time-vectorized path; everything else is the general engine
            cfg = args[0] if isinstance(args[0], env_cls) else getattr(args[0], "cfg", None)
            fast = (isinstance(cfg, env_cls) and cfg.theta == 0.0
                    and not kwargs.get("force_general", False))
            c["chains.fast.events" if fast else "chains.general.events"] += engine_done(args, out)

        def discrete_done(args, kwargs, out):
            c["chains.discrete.steps"] += engine_done(args, out)

        def tau_done(args, kwargs, out):
            c["env.sites"] += len(out)
            c["env.tau_array_calls"] += 1

        def clock_error(exc):
            if isinstance(exc, violation):
                c["clock.rejected"] += 1

        def windows_done(args, kwargs, out):
            c["aging.trajectories"] += 1
            c["aging.excluded"] += out is None

        def count(key, value):
            def after(args, kwargs, out):
                c[key] += value(args, kwargs, out)
            return after

        passage_values, fk_msd = pkg.limits.passage_values, pkg.limits.fk_msd
        return {
            "rng.hash_words": dict(after=count("rng.words_hashed",
                                               lambda a, k, o: len(a) - 1)),
            "rng.hash_coords": dict(after=count("rng.words_hashed",
                                                lambda a, k, o: int(np.size(a[1])))),
            "rng.Stream.__init__": dict(after=count("rng.words_hashed",
                                                    lambda a, k, o: 1)),
            "rng.Stream.uniform": dict(after=count("rng.words_hashed",
                                                   lambda a, k, o: 1)),
            "rng.Stream.uniforms": dict(after=count("rng.words_hashed",
                                                    lambda a, k, o: len(o))),
            "env.tau_array": dict(after=tau_done),
            "chains.run_vsrw": dict(after=vsrw_done),
            "chains.run_discrete": dict(after=discrete_done),
            "clock.build_clock": dict(after=count("clock.paths", lambda a, k, o: 1),
                                      on_error=clock_error),
            "estimators.block_run": dict(after=count("estimators.block_runs",
                                                     lambda a, k, o: 1)),
            "estimators.mark_run": dict(after=count("estimators.mark_runs",
                                                    lambda a, k, o: 1)),
            "aging.window_stats": dict(after=windows_done),
            "limits.passage_values": dict(after=count(
                "limits.passage_paths",
                lambda a, k, o: _arg(passage_values, a, k, "n_paths"))),
            "limits.fk_msd": dict(after=count(
                "limits.fk_samples",
                lambda a, k, o: _arg(fk_msd, a, k, "n_samples"))),
        }

    # -- install / remove --------------------------------------------------

    def install(self, *consumers):
        """Wrap the package; ``consumers`` are further modules (the benchmark's
        own) whose names bound to package functions are wrapped too."""
        pkg = importlib.import_module("trapclock")
        mods = {layer: importlib.import_module(f"trapclock.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "trapclock" or n.startswith("trapclock."))]
        namespaces.extend(consumers)
        hooks = self._hooks(pkg)
        run_tasks = mods["parallel"].run_tasks
        hooks["parallel.run_tasks"] = dict(
            before=lambda args, kwargs: self._trace_task_fn(run_tasks, args, kwargs))

        # id(function) -> (function, wrapper, wrap it in its own module too)
        targets = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr}", False)
        for (layer, attr), span in _UNITS_OF_WORK.items():
            obj = getattr(mods[layer], attr, None)
            if obj is not None:
                targets[id(obj)] = (obj, span, True)
        wrappers = {key: (obj, self.wrap(span, obj, **hooks.get(span, {})), own)
                    for key, (obj, span, own) in targets.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                # a call inside the defining module is that layer's own time
                if ns.__name__ == obj.__module__ and not hit[2]:
                    continue
                self._undo.append((ns, attr, obj))
                setattr(ns, attr, hit[1])
        for layer, cls_name, attr in _METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            span = f"{layer}.{cls_name}.{attr}"
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(span, orig, **hooks.get(span, {})))

    def _trace_task_fn(self, run_tasks, args, kwargs):
        """Charge the chunk function of a single-process run_tasks call to
        the layer that defines it (a pool would have to pickle the wrapper)."""
        bound = _bind(run_tasks, args, kwargs)
        fn = bound.arguments["fn"]
        layer = getattr(fn, "__module__", "").rpartition(".")[2]
        if bound.arguments["workers"] > 1 or layer not in LAYERS:
            return args, kwargs
        bound.arguments["fn"] = self.wrap(f"{layer}.{fn.__name__}", fn)
        return bound.args, bound.kwargs

    def remove(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- results -------------------------------------------------------------

    def durations_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def self_ns(self) -> np.ndarray:
        """Per span: its duration minus the durations of its child spans."""
        dur = self.durations_ns()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return dur - child

    def layer_self_seconds(self) -> dict:
        layer_of = np.asarray([LAYERS.index(n.partition(".")[0]) for n in self.names],
                              dtype=np.int64)
        totals = np.bincount(layer_of, weights=self.self_ns(),
                             minlength=len(LAYERS)) * 1e-9
        return {layer: float(totals[i]) for i, layer in enumerate(LAYERS)}

    def latencies_us(self, *span_names) -> np.ndarray:
        dur = self.durations_ns()
        pick = np.isin(np.asarray(self.names, dtype=object), span_names)
        return dur[pick] * 1e-3

    def write_spans(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent index (-1 = root)."""
        lines = ["name,start_ns,end_ns,parent"]
        lines.extend(f"{n},{s},{e},{p}" for n, s, e, p in
                     zip(self.names, self.starts, self.ends, self.parents))
        path.write_text("\n".join(lines) + "\n")
