"""Tracer that wraps the package's public functions from outside the package.

`Tracer.install` replaces every public function of the traced modules, in
every module namespace that binds it (the package imports names with
`from .x import y`, so one function can be bound in several modules), with
a wrapper that records a span: name, start, end and the index of the span
that was open when it started. A few methods get the same treatment. The
per-coefficient `CoefficientTree.set` is counted, never timed. Spans stay in
memory and are handed out by `dump` when the run ends.

Counts that the layer metrics need (points evaluated, transform terms,
coefficients stored, bytes written) are taken at the same boundaries by
small hooks that look at a call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter

LAYERS = ("wavelets", "coefficients", "contamination", "estimators", "besov", "harness", "cli")

_now = time.perf_counter


def _hook_eval(counts, args, kwargs, result):
    counts["wavelets.eval_points"] += result.size


def _hook_empirical(counts, args, kwargs, result):
    samples, family = args[:2]
    j1 = args[3] if len(args) > 3 else kwargs["j1"]
    n, d = _sample_shape(samples)
    w = family.support_width
    counts["coefficients.empirical_terms"] += n * (j1 + 1) * w**d * (2**d - 1)
    counts["coefficients.empirical_coeffs"] += result.n_coefficients
    counts["coefficients.stored_coeffs"] += result.n_coefficients


def _hook_exact(counts, args, kwargs, result):
    counts["coefficients.stored_coeffs"] += result.n_coefficients


def _hook_estimate(counts, args, kwargs, result):
    counts["estimators.kept_coeffs"] += result.n_coefficients


def _hook_sample(counts, args, kwargs, result):
    counts["contamination.sample_points"] += result.shape[0]


def _hook_trials(counts, args, kwargs, result):
    counts["harness.trials"] += result.size


def _hook_to_jsonl(counts, args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["path_or_fp"]
    if not hasattr(target, "write"):
        counts["coefficients.jsonl_bytes"] += os.path.getsize(target)


def _sample_shape(samples) -> tuple[int, int]:
    """(n, D) of a sample given as (n,) or (n, D)."""
    shape = getattr(samples, "shape", None) or (len(samples),)
    return (shape[0], shape[1] if len(shape) > 1 else 1)


# span name -> hook run after each call
_HOOKS = {
    "wavelets.WaveletFamily.father_values": _hook_eval,
    "wavelets.WaveletFamily.mother_values": _hook_eval,
    "coefficients.empirical_coeffs": _hook_empirical,
    "coefficients.exact_coeffs": _hook_exact,
    "estimators.estimate_linear": _hook_estimate,
    "estimators.estimate_thresholded": _hook_estimate,
    "contamination.sample_huber": _hook_sample,
    "harness.risk_trials": _hook_trials,
    "coefficients.CoefficientTree.to_jsonl": _hook_to_jsonl,
}

# (module, class, method) traced besides the module-level functions
_METHODS = (
    ("wavelets", "WaveletFamily", "father_values"),
    ("wavelets", "WaveletFamily", "mother_values"),
    ("coefficients", "CoefficientTree", "to_jsonl"),
    ("coefficients", "CoefficientTree", "from_jsonl"),
)


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name id, parent span index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _now()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s layer modules where bound."""
        mods = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        for layer, cls_name, meth in _METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, raw))

        tree_cls = mods["coefficients"].CoefficientTree
        set_raw = tree_cls.set
        counts = self.counts

        @functools.wraps(set_raw)
        def counted_set(tree, index, value):
            counts["coefficients.tree_set_calls"] += 1
            set_raw(tree, index, value)

        tree_cls.set = counted_set

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
