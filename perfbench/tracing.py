"""Span recording around the public functions of each monospan module.

The recorder replaces each listed function, in every monospan module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent, request) and a few work counters, then restores the originals.
Nothing under src/ changes.  A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "core", "convergence", "sarason", "quadrature", "laguerre",
          "operators", "atomic", "acceptance")

# module -> functions wrapped; a span is named "<module>.<short name>"
TRACED = {
    "cli": ("dispatch",),
    "core": ("gram_build", "distance_to_span", "monomial_distance_closed_form", "muntz_verdict"),
    "convergence": ("distance_curve", "limit_membership_test", "muntz_limit_experiment"),
    "sarason": ("forward_quadrature", "forward_monomial", "forward_indicator", "h2_inner",
                "inverse_analytic"),
    "quadrature": ("integrate",),
    "laguerre": ("eval_e", "expand_monomial", "apply_J_expansion", "apply_J_monomial"),
    "operators": ("hat_matrix", "pick_positivity_check", "monomial_operator"),
    "atomic": ("model_space_distance", "proj_norm_sq", "singular_inner_taylor",
               "conjugation_identity_check"),
    "acceptance": ("run_suite",),
}
_SHORT = {"monomial_distance_closed_form": "closed_form"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """In-memory spans plus per-name call counts, inclusive and self times."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, request]
        self._stack = []  # (span index, accumulated child time)
        self.request = -1
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._installed = []

    # hooks that turn arguments and results into work counters ------------------

    def _before(self, name, args, kwargs):
        if name == "convergence.distance_curve":
            self.counts["convergence.points"] += int(_arg(args, kwargs, 2, "n_max"))
        elif name == "operators.hat_matrix":
            self.counts["operators.hat_matrix.entries"] += int(_arg(args, kwargs, 1, "N")) ** 2
        elif name == "atomic.model_space_distance":
            self.counts["atomic.model_space_distance.order_sum"] += int(
                _arg(args, kwargs, 2, "N", 4096))
        elif name == "quadrature.integrate":
            f = args[0]
            counts = self.counts

            def panel(x):  # integrate evaluates f once per GK15 panel
                counts["quadrature.cells"] += 1
                return f(x)

            args = (panel,) + tuple(args[1:])
        return args

    def _after(self, name, result):
        if name == "core.distance_to_span":
            label = result.precision
            if label.startswith("extended"):
                self.counts["core.distance_to_span.extended"] += 1
                self.counts["core.distance_to_span.dps_sum"] += int(label.split("=")[1].rstrip(")"))
        elif name == "laguerre.expand_monomial":
            self.counts["laguerre.expand_monomial.coeffs"] += len(result.coeffs)
        elif name == "acceptance.run_suite":
            for r in result:
                self.total_s[f"acceptance.criterion_{r.index}"] += r.elapsed_s

    # span bookkeeping -------------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = tracer._before(name, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, parent, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append([idx, 0.0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NumericalError":
                    tracer.counts[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                span[2] = end
                _, child = tracer._stack.pop()
                dur = end - span[1]
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - child
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            tracer._after(name, result)
            return result

        return wrapper

    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "monospan" or n.startswith("monospan.")]
        for module, funcs in TRACED.items():
            home = importlib.import_module(f"monospan.{module}")
            for func in funcs:
                orig = getattr(home, func)
                wrapped = self.wrap(f"{module}.{_SHORT.get(func, func)}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._installed.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._installed):
            setattr(m, attr, orig)
        self._installed.clear()

    def summary(self):
        layer_self = defaultdict(float)
        for name, t in self.self_s.items():
            layer_self[name.split(".")[0]] += t
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "layer_self_s": dict(layer_self),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
