"""Spans around the public functions of every lhvlab module.

The wrappers are installed from outside the package. Every attribute of an
``lhvlab`` module that is the original function is replaced, so names that
one module imported from another with ``from .x import y`` are traced too.
A span holds its name, start, end, parent and a few counts taken at the
boundary. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("geometry", "models", "inequalities", "exactlp", "freewill", "protocols", "cli")

# Methods traced besides the public module-level functions.
METHODS = {
    "geometry": {"RandomStream": ("uniform", "integers")},
    "models": {"JointLaw2x2": ("from_outcomes",)},
    "inequalities": {"MasterProb16": ("random", "chsh_value")},
    "protocols": {"TranscriptBatch": ("to_csv",)},
}

# Spans whose calls and self time are reported as per-layer metrics.
REPORTED = (
    "geometry.sample_uniform_sphere", "geometry.sgn",
    "geometry.RandomStream.uniform", "geometry.RandomStream.integers",
    "models.hall_sample", "models.pinned_spin_sample", "models.malus_draw",
    "models.tb_outcomes", "models.tb_extension_sample", "models.hall_outcomes",
    "models.JointLaw2x2.from_outcomes",
    "protocols.run_tb_protocol", "protocols.run_tb_freewill", "protocols.run_shared_coin",
    "protocols.run_detection_loophole", "protocols.run_watch_realization",
    "protocols.run_conspiracy_audit", "protocols.run_signaling_experiment",
    "protocols.binned_outcome_counts", "protocols.TranscriptBatch.to_csv",
    "exactlp.feasible_point", "inequalities.fine_feasibility",
    "inequalities.MasterProb16.random", "inequalities.MasterProb16.chsh_value",
    "inequalities.counterfactual_correlators", "inequalities.chsh_mc",
    "freewill.measure_M", "freewill.mutual_information",
    "freewill.discretized_setting_tied_model",
    "cli.main", "cli.build_parser",
)

STREAM_W0 = 4  # the watch realization's sampling stream


def _draws(args, kwargs, result, before):
    stream = args[0]
    return {"stream": stream.stream_id, "draws": stream.counter - before}


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# name -> (pre(args, kwargs) -> state, post(args, kwargs, result, state) -> attrs)
def _hooks(orig):
    return {
        "geometry.RandomStream.uniform": (lambda a, k: a[0].counter, _draws),
        "geometry.RandomStream.integers": (lambda a, k: a[0].counter, _draws),
        "models.hall_sample": (
            lambda a, k: _bound(orig["models.hall_sample"], a, k)["stream"].counter,
            lambda a, k, r, before: {
                "n": len(r),
                "draws": _bound(orig["models.hall_sample"], a, k)["stream"].counter - before}),
        "protocols.run_watch_realization": (
            lambda a, k: None,
            lambda a, k, r, s: {"model": _bound(orig["protocols.run_watch_realization"],
                                                a, k)["model"], "n": r.n_trials}),
        "protocols.TranscriptBatch.to_csv": (
            lambda a, k: _bound(orig["protocols.TranscriptBatch.to_csv"], a, k)["fh"].tell(),
            lambda a, k, r, before: {
                "rows": a[0].n,
                "bytes": _bound(orig["protocols.TranscriptBatch.to_csv"], a, k)["fh"].tell()
                - before}),
        "inequalities.fine_feasibility": (
            lambda a, k: None, lambda a, k, r, s: {"infeasible": not r.feasible}),
    }


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attrs]
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            return wrapper

        pre, post = hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = post(args, kwargs, result, state)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: sys.modules[f"lhvlab.{layer}"] for layer in LAYERS}
        targets = {}  # name -> (owner, attribute, original, is classmethod)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[f"{layer}.{attr}"] = (mod, attr, obj, False)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    is_cm = isinstance(raw, classmethod)
                    targets[f"{layer}.{cls_name}.{meth}"] = (
                        cls, meth, raw.__func__ if is_cm else raw, is_cm)
        orig = {name: t[2] for name, t in targets.items()}
        hooks = _hooks(orig)
        wrapped = {}
        for name, (owner, attr, fn, is_cm) in targets.items():
            w = self._wrap(name, fn, hooks.get(name))
            if owner.__class__ is type:
                self._set(owner, attr, classmethod(w) if is_cm else w)
            else:
                wrapped[id(fn)] = (fn, w)
        # Replace every module-level alias of a wrapped function, including
        # the package's re-exports and cross-module imports.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lhvlab" or mod_name.startswith("lhvlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans) -> dict:
    """Calls, self time and counts per span name, plus the derived counts
    named in the benchmark: draws, sampler acceptance and transcript
    volume."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = {}
    self_s = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

    draws = 0
    w0_draws = 0
    hall = {"n": 0, "draws": 0, "passes": 0}
    to_csv = {"rows": 0, "bytes": 0}
    infeasible = 0
    for name, _, _, parent, attrs in spans:
        if attrs is None and name != "geometry.sample_uniform_sphere":
            continue  # no attrs: a plain span, or the call raised
        if name in ("geometry.RandomStream.uniform", "geometry.RandomStream.integers"):
            draws += attrs["draws"]
            if attrs["stream"] == STREAM_W0 and _inside_watch_hall(spans, parent):
                w0_draws += attrs["draws"]
        elif name == "models.hall_sample":
            hall["n"] += attrs["n"]
            hall["draws"] += attrs["draws"]
        elif name == "geometry.sample_uniform_sphere" and parent >= 0 \
                and spans[parent][0] == "models.hall_sample":
            hall["passes"] += 1
        elif name == "protocols.TranscriptBatch.to_csv":
            to_csv["rows"] += attrs["rows"]
            to_csv["bytes"] += attrs["bytes"]
        elif name == "inequalities.fine_feasibility":
            infeasible += attrs["infeasible"]
    watch_n = sum(attrs["n"] for name, _, _, _, attrs in spans
                  if name == "protocols.run_watch_realization" and attrs is not None
                  and attrs["model"] == "hall")
    return {
        "calls": calls,
        "self_s": self_s,
        "geometry.draws": draws,
        # Each hall candidate costs three draws: two for the sphere point
        # and one for the acceptance test.
        "models.hall_sample.accept_ratio": _ratio(hall["n"], hall["draws"] / 3),
        "models.hall_sample.passes": hall["passes"],
        "protocols.watch_hall.accept_ratio": _ratio(watch_n, w0_draws / 3),
        "protocols.TranscriptBatch.to_csv.rows": to_csv["rows"],
        "protocols.TranscriptBatch.to_csv.bytes": to_csv["bytes"],
        "inequalities.fine_feasibility.infeasible": infeasible,
    }


def _inside_watch_hall(spans, i) -> bool:
    while i >= 0:
        name, _, _, parent, attrs = spans[i]
        if name == "protocols.run_watch_realization":
            return attrs is not None and attrs["model"] == "hall"
        i = parent
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0
