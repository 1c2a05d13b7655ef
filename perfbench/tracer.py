"""In-memory span tracing of liesym's public functions, from outside the
package.

`install` replaces every public function of every liesym module, in every
module that binds it by name, with a wrapper that records a span (id, name,
start, end, parent id, run id, self time, detail).  A call that re-enters
the function whose span is innermost runs unwrapped, so recursion folds
into one span.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

# The recursive differentiator and the per-atom constructors and structure
# scans, called up to ~10^5 times a run: a span around each would cost more
# than the work it measures.  Generator functions are skipped too, since a
# span would close before their work runs.
SKIP = frozenset({
    "diff", "jet", "dep", "indep", "param", "jet_or_dep",
    "walk_bases", "leaf_atoms", "max_jet_order",
})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (id, name, start, end, parent, self_s, detail)
        self.counts: Counter = Counter()
        self._stack: list = []  # [id, name, start, child_time]

    def wrap(self, name, fn, hook=None, label=None):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = [len(spans) + len(stack), name, clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                parent = None
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][0]
                detail = label(args, kwargs) if label else ""
                spans.append((frame[0], name, frame[2], end, parent,
                              dur - frame[3], detail))
                if hook:
                    hook(counts, args, result, exc, dur)

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, self_s, detail in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id,
                                     "self_s": self_s, "detail": detail}) + "\n")

    def by_function(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}."""
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _sid, name, start, end, _parent, self_s, _detail in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
        return dict(out)


# -- hooks: counts taken where the work happens --------------------------------

def _is_zero_hook(counts, args, result, exc, dur):
    counts["expr.residual_terms"] += len(args[0].terms)
    if result is None:
        tier = "probe"  # only the probing tier raises (SamplingExhausted)
    else:
        counts["numeric.verdicts." + result.status.value] += 1
        tier = "exact" if result.is_exact else "probe"
    counts[f"numeric.tier_{tier}.calls"] += 1
    counts[f"numeric.tier_{tier}.s"] += dur


def _eval_mp_hook(counts, args, result, exc, dur):
    if exc is None:
        counts["numeric.eval_mp.returns"] += 1


def _lie_determinant_hook(counts, args, result, exc, dur):
    if result is not None and result.non_polynomial:
        counts["liedet.non_polynomial.calls"] += 1


def _record_label(args, kwargs):
    n = kwargs.get("n_override", args[2] if len(args) > 2 else None)
    return f"{args[0].label}@{'planned' if n is None else n}"


HOOKS = {
    "numeric.is_zero": _is_zero_hook,
    "numeric.eval_mp": _eval_mp_hook,
    "liedet.lie_determinant": _lie_determinant_hook,
}
LABELS = {"harness.run_record_checks": _record_label}


def _short(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def install(tracer: Tracer) -> None:
    """Wrap liesym's public functions in place, once per function."""
    import liesym

    modules = [liesym] + [importlib.import_module(m.name) for m in
                          pkgutil.walk_packages(liesym.__path__, "liesym.")]
    wrappers: dict = {}
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if (not inspect.isfunction(val) or inspect.isgeneratorfunction(val)
                    or attr.startswith("_") or attr in SKIP
                    or not val.__module__.startswith("liesym.")
                    or attr != val.__name__):
                continue
            w = wrappers.get(val)
            if w is None:
                name = f"{_short(val.__module__)}.{attr}"
                w = wrappers[val] = tracer.wrap(name, val, HOOKS.get(name), LABELS.get(name))
            setattr(mod, attr, w)
