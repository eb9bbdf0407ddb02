"""Which ``rahman`` functions the traced run wraps, and the per-layer metrics.

Layers are the modules under ``src/rahman``.  Every public function of a
layer module is wrapped, and so are the arithmetic methods of ``Mat``
(matrices) and ``Poly3`` (polymodule), so that time spent in one layer on
behalf of another is charged to the layer whose code runs.  ``scalars``
(``pochhammer``, ``Fraction``) is too hot to wrap: its cost is the self
time of its callers.  The benchmark adds one ``cli`` span around each
request; its self time is click parsing, formatting and the command
bodies.
"""

from __future__ import annotations

import importlib
import inspect
from math import comb

LAYERS = ("params", "sl3", "polynomials", "polymodule", "form", "theorems", "matrices")
ALL_LAYERS = ("cli",) + LAYERS

METHODS = {
    ("matrices", "Mat"): ("__matmul__", "__add__", "__sub__", "__neg__", "scale",
                          "apply", "transpose", "inverse", "bracket"),
    ("polymodule", "Poly3"): ("__add__", "__sub__", "__mul__", "scale", "power", "to_vector"),
    ("form", "BilinearForm"): ("__init__", "expand", "gram_json"),
}

# Metric name -> span names it sums; each gives ``.calls`` and ``.self_s``.
CALL_GROUPS = {
    "params.derive": ["params.derive"],
    "sl3.build": ["sl3.build"],
    "polynomials.eval_P": ["polynomials.eval_P"],
    "polynomials.eval_P_operator": ["polynomials.eval_P_operator"],
    "polymodule.matrix_of": ["polymodule.matrix_of"],
    "matrices.matmul": ["matrices.Mat.__matmul__"],
    "polymodule.act": ["polymodule.act"],
    "polymodule.expand_direct": ["polymodule.expand_tilde_monomial_direct",
                                 "polymodule.expand_plain_monomial_direct"],
    "form.inner": ["form.inner"],
    "form.BilinearForm": ["form.BilinearForm.__init__"],
    "form.dual_basis": ["form.dual_basis"],
}

# Metric name -> verifier spans it sums; each gives ``.self_s`` and ``.checked``.
VERIFIER_GROUPS = {
    "theorems.trans1": ["theorems.verify_trans1"],
    "theorems.trans2": ["theorems.verify_trans2"],
    "theorems.pcosines": ["theorems.verify_pcosines"],
    "theorems.orthogonality": ["theorems.verify_orthogonality"],
    "theorems.recurrences": ["theorems.verify_recurrences"],
    "theorems.operators": ["theorems.verify_operator_identities"],
    "sl3.verify": ["sl3.verify_matrices", "sl3.verify_dagger",
                   "sl3.verify_expansions", "sl3.verify_generation"],
    "polymodule.verify": ["polymodule.verify_action_tables",
                          "polymodule.verify_representation_law",
                          "polymodule.verify_weight_diagonality",
                          "polymodule.verify_block_structure",
                          "polymodule.irreducibility_probe"],
    "form.verify": ["form.verify_adjointness", "form.verify_tilde_norms",
                    "form.verify_dual_sum_identities"],
}
_VERIFIER_SPANS = {span for spans in VERIFIER_GROUPS.values() for span in spans}


def _eval_P_counter(fn):
    """Counts terms summed, and calls repeating an earlier call.

    ``instrument`` runs once per request, so "earlier" means earlier in the
    same request.
    """
    signature = inspect.signature(fn)
    seen = set()

    def on_call(tracer, args, kwargs):
        a, b, c, d, derived, n = signature.bind(*args, **kwargs).args
        tracer.counters["polynomials.eval_P.terms"] += comb(n + 4, 4)
        key = (a, b, c, d, derived.t, derived.u, derived.v, derived.w, n)
        if key in seen:
            tracer.counters["polynomials.eval_P.repeats"] += 1
        seen.add(key)

    return on_call


def _checked_counter(name):
    def on_return(tracer, report):
        tracer.counters[name + ".checked"] += report.checked

    return on_return


def instrument(tracer) -> None:
    """Wrap every layer function and method; undo with ``tracer.restore()``."""
    for layer in LAYERS:
        module = importlib.import_module("rahman." + layer)
        for attribute in module.__all__:
            fn = getattr(module, attribute)
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attribute}"
            hooks = {}
            if name == "polynomials.eval_P":
                hooks["on_call"] = _eval_P_counter(fn)
            elif name in _VERIFIER_SPANS:
                hooks["on_return"] = _checked_counter(name)
            tracer.patch_function(fn, name, **hooks)
    for (layer, cls_name), attributes in METHODS.items():
        cls = getattr(importlib.import_module("rahman." + layer), cls_name)
        for attribute in attributes:
            tracer.patch_method(cls, attribute, f"{layer}.{cls_name}.{attribute}")


def layer_metrics(tracer, batches: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics, per batch, from a traced pass of ``batches`` batches.

    ``traced_wall_s`` and ``untraced_wall_s`` are the mean time per batch of
    the traced requests and of their untraced copies.
    """
    summary = tracer.summary()
    counters = tracer.counters

    def total(spans, field):
        return sum(summary.get(span, {}).get(field, 0) for span in spans)

    metrics = {}
    for layer in ALL_LAYERS:
        own = sum(row["self_s"] for span, row in summary.items()
                  if span == layer or span.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (own / batches, "s")
    metrics["cli.requests"] = (total(["cli"], "calls") / batches, "count")
    for group, spans in CALL_GROUPS.items():
        metrics[f"{group}.calls"] = (total(spans, "calls") / batches, "count")
        metrics[f"{group}.self_s"] = (total(spans, "self_s") / batches, "s")
    eval_calls = total(["polynomials.eval_P"], "calls")
    metrics["polynomials.eval_P.terms"] = (
        counters["polynomials.eval_P.terms"] / batches, "count")
    metrics["polynomials.eval_P.repeat_ratio"] = (
        counters["polynomials.eval_P.repeats"] / eval_calls if eval_calls else 0.0, "ratio")
    for group, spans in VERIFIER_GROUPS.items():
        metrics[f"{group}.self_s"] = (total(spans, "self_s") / batches, "s")
        checked = sum(counters[span + ".checked"] for span in spans)
        metrics[f"{group}.checked"] = (checked / batches, "count")
    operators = total(VERIFIER_GROUPS["theorems.operators"], "total_s") / batches
    metrics["theorems.operators.share"] = (operators / traced_wall_s, "ratio")
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    metrics["trace.spans"] = (len(tracer.spans) / batches, "count")
    return metrics
