"""Spans around the calls into each idcodes module, installed from outside.

A `Tracer` patches the public functions of the library where each module
looks them up (for example `idcodes.sparsify.dist2_pairs` and
`idcodes.cli.sparsify`), records one span per call in memory and restores
every original on `uninstall`. Nothing inside `src/` knows about it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from functools import cached_property

# (module, attribute) of each wrapped function -> span name. Every idcodes
# module whose namespace holds the same function object gets the wrapper,
# so calls are caught wherever the caller looks the name up.
FUNCTIONS = {
    ("idcodes.graphs", "parse_edge_list"): "graphs.parse",
    ("idcodes.graphs", "dist2_pairs"): "graphs.dist2_pairs",
    ("idcodes.graphs", "find_twins"): "graphs.find_twins",
    ("idcodes.graphs", "complement"): "graphs.complement",
    ("idcodes.codes", "is_identifying_code"): "codes.verify",
    ("idcodes.codes", "is_dominating"): "codes.verify",
    ("idcodes.solvers", "greedy_idcode"): "solvers.greedy_idcode",
    ("idcodes.solvers", "greedy_dominating"): "solvers.greedy_dominating",
    ("idcodes.solvers", "exact_min_idcode"): "solvers.exact_idcode",
    ("idcodes.solvers", "exact_min_dominating"): "solvers.exact_dominating",
    ("idcodes._kernels", "separator_counts"): "kernels.separator_counts",
    ("idcodes._kernels", "greedy_cover"): "kernels.greedy_cover",
    ("idcodes.sparsify", "sparsify"): "sparsify",
    ("idcodes.complement", "complement_code"): "complement",
    ("idcodes.watching", "watching_binary"): "watching",
    ("idcodes.watching", "watching_from_subgraph_code"): "watching",
    ("idcodes.watching", "verify_watching"): "watching",
    ("idcodes.watching", "watch_bounds"): "watching",
}

# Graph methods: plain ones are wrapped on the class; cached properties are
# replaced by a cached property over the wrapped function, so only the
# first fill on each graph is timed.
METHODS = {"__init__": "graphs.build", "delete_edges": "graphs.delete_edges"}
CACHED = {"closed_masks": "graphs.pack", "packed_closed": "graphs.pack"}


def _counts(name, result):
    """Counters read off a call's result, recorded on its span."""
    if name == "solvers.greedy_idcode":
        return {"picks": len(result)}
    if name in ("solvers.exact_idcode", "solvers.exact_dominating"):
        return {"nodes": result.nodes}
    if name == "sparsify":
        return {
            "rounds": len(result.trials),
            "separation_failures": sum(t.b_violations for t in result.trials),
            "edges_deleted": result.stats.deleted_edges,
        }
    return None


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def begin(self, name):
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx, counts=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counts
        # a generator abandoned by its consumer closes late, so its span
        # need not sit on top of the stack
        self._stack.remove(idx)

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _wrap(self, fn, name):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # the span covers the whole iteration; its count is the items
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer.begin(name)
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    tracer.end(idx, {"items": items})

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(idx, _counts(name, result) if result is not None else None)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function; `uninstall` undoes it."""
        modules = {n: m for n, m in sys.modules.items() if n == "idcodes" or n.startswith("idcodes.")}
        for (mod_name, attr), span_name in FUNCTIONS.items():
            original = getattr(modules[mod_name], attr)
            wrapped = self._wrap(original, span_name)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        graph_cls = modules["idcodes.graphs"].Graph
        for attr, span_name in METHODS.items():
            self._patch(graph_cls, attr, self._wrap(graph_cls.__dict__[attr], span_name))
        for attr, span_name in CACHED.items():
            prop = cached_property(self._wrap(graph_cls.__dict__[attr].func, span_name))
            prop.__set_name__(graph_cls, attr)
            self._patch(graph_cls, attr, prop)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "counts": s[4]}
                    for s in self.spans
                ],
                fh,
            )


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
