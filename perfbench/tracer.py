"""In-process span tracer for one CLI job, installed from outside ``src/``.

Each traced layer is a public entry point of a ``tropcrit`` module, or the
private function that is the only way into that layer (``_buchberger``,
``_interreduce``, ``_saturated_equations``, ``_hensel``).  The wrapper
replaces the function in every ``tropcrit.*`` namespace that bound it with
``from .x import y``; otherwise calls across modules would bypass it.

Spans (layer, start, end, parent span, job id) stay in memory and are
written when the job ends.  A span's self time is its duration minus the
durations of its direct child spans.  A layer's total time counts only its
outermost spans, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer name, module, attribute; "Class.method" for methods)
TARGETS = (
    ("cli.run_report", "tropcrit.cli", "run_report"),
    ("groebner.buchberger", "tropcrit.groebner", "_buchberger"),
    ("groebner.interreduce", "tropcrit.groebner", "_interreduce"),
    ("groebner.initial", "tropcrit.groebner", "InitialIdealEngine.initial"),
    ("groebner.saturate", "tropcrit.groebner", "saturate"),
    ("groebner.eliminate", "tropcrit.groebner", "eliminate"),
    ("groebner.squarefree_check", "tropcrit.groebner", "squarefree_check"),
    ("groebner.solve_zero_dim_numeric", "tropcrit.groebner", "solve_zero_dim_numeric"),
    ("tropical.find_rigid_rays", "tropcrit.tropical", "find_rigid_rays"),
    ("tropical.contains", "tropcrit.tropical", "TropicalEngine.contains"),
    ("tropical.is_rigid", "tropcrit.tropical", "TropicalEngine.is_rigid"),
    ("tropical.stratum_euler_char", "tropcrit.tropical", "stratum_euler_char"),
    ("mle.to_ideal", "tropcrit.mle", "VarietySpec.to_ideal"),
    ("mle.ml_degree", "tropcrit.mle", "ml_degree"),
    ("mle.mle_closed_form", "tropcrit.mle", "mle_closed_form"),
    ("asymptotics.branch_seeds", "tropcrit.asymptotics", "branch_seeds"),
    ("asymptotics.series_newton_lift", "tropcrit.asymptotics", "series_newton_lift"),
    ("asymptotics.hensel", "tropcrit.asymptotics", "_hensel"),
    ("asymptotics.refine_seed_exact", "tropcrit.asymptotics", "refine_seed_exact"),
    ("asymptotics.saturated_equations", "tropcrit.asymptotics", "_saturated_equations"),
    ("series.poly_eval_series", "tropcrit.series", "poly_eval_series"),
    ("linalg.rref", "tropcrit.linalg", "rref"),
    ("linalg.inverse", "tropcrit.linalg", "inverse"),
    ("bs_lct.conjecture_check", "tropcrit.bs_lct", "conjecture_check"),
    ("bs_lct.bs_slope_intersection", "tropcrit.bs_lct", "bs_slope_intersection"),
)


class Tracer:
    def __init__(self, job_id, targets=TARGETS):
        self.job_id = job_id
        self.targets = targets
        self.layers = tuple(name for name, _, _ in targets)
        self.spans = []  # [layer index, start, end, parent span, outermost, steps]
        self.stack = []
        self.depth = [0] * len(targets)
        self.missing = []
        self.initial_keys = set()

    def install(self):
        """Wrap every target that exists; record the others as missing."""
        for idx, (layer, modname, attr) in enumerate(self.targets):
            module = sys.modules.get(modname)
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(fname) if owner is not None else None
            if not callable(fn):
                self.missing.append(layer)
                continue
            wrapper = self._wrap(idx, fn)
            if owner_name:
                setattr(owner, fname, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "tropcrit" or name.startswith("tropcrit."):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapper)

    def _wrap(self, idx, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        layer = self.layers[idx]
        clock = time.perf_counter
        counts_steps = layer == "groebner.buchberger"
        keys_result = layer == "groebner.initial"
        initial_keys = self.initial_keys

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            budget = None
            if counts_steps:
                budget = args[2] if len(args) > 2 else kwargs.get("budget")
                steps0 = budget.steps
            span = [idx, clock(), 0.0, stack[-1] if stack else -1, depth[idx] == 0, 0]
            stack.append(len(spans))
            spans.append(span)
            depth[idx] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[idx] -= 1
                stack.pop()
                if budget is not None:
                    span[5] = budget.steps - steps0
            if keys_result:
                engine = args[0]
                initial_keys.add(
                    (tuple(map(str, engine.ideal.gens)), tuple(map(str, result.gens)))
                )
            return result

        return wrapper

    def summary(self):
        """Per-layer calls, total_s, self_s and reduction steps."""
        n = len(self.layers)
        calls, total, own, steps = [0] * n, [0.0] * n, [0.0] * n, [0] * n
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (idx, start, end, _, outer, nsteps) in enumerate(self.spans):
            calls[idx] += 1
            own[idx] += end - start - child[i]
            steps[idx] += nsteps
            if outer:
                total[idx] += end - start
        out = {}
        for idx, layer in enumerate(self.layers):
            if layer in self.missing:
                continue
            out[layer] = {"calls": calls[idx], "total_s": total[idx], "self_s": own[idx]}
        if "groebner.buchberger" in out:
            out["groebner.buchberger"]["steps"] = steps[self.layers.index("groebner.buchberger")]
        if "groebner.initial" in out:
            out["groebner.initial"]["distinct"] = len(self.initial_keys)
        return {"layers": out, "missing": list(self.missing)}

    def dump(self, path):
        """Write the spans, one JSON list per line, and return the summary."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"job": self.job_id, "layers": self.layers}) + "\n")
            for idx, start, end, parent, _, nsteps in self.spans:
                fh.write(json.dumps([idx, start, end, parent, self.job_id, nsteps]) + "\n")
        return self.summary()
