"""Per-layer tracing from outside the package.

The tracer wraps the public functions of posit's modules.  Because
`from .x import f` copies a binding, each wrapper replaces the original
function object in every posit module namespace that binds it, and
`uninstall` puts the originals back.  Spans (name, start, end, parent,
operation) stay in memory, and the runner writes one pass's spans out
when the run ends; self time is a span's duration minus that of its
direct children.  Hot leaf functions only count their calls.
"""

import sys
import time
import types
from collections import Counter

MODULES = ("cli", "automata", "cycles", "positionality", "games",
           "reduction", "gadgets")

COUNT_ONLY = {"positionality.compose", "positionality.omega_accept",
              "automata.member_from", "automata.run_finite"}


def _reduce_counts(counters, args, kwargs, result):
    before = len((args[1] if len(args) > 1 else kwargs["s"]).states)
    counters["reduction.memory_states_in"] += before
    counters["reduction.merges"] += before - len(result.states)


# Counters read off a function's arguments and result.
RESULT_COUNTERS = {
    "positionality.generate_monoid":
        lambda c, a, k, r: c.update({"positionality.monoid_elements": len(r)}),
    "games.product_game":
        lambda c, a, k, r: c.update({"games.product_nodes": len(r.owners)}),
    "gadgets.gadget_from_witness":
        lambda c, a, k, r: c.update({"gadgets.arena_vertices":
                                     len(r[0].owners)}),
    "reduction.reduce_to_positional": _reduce_counts,
}

# Per-layer metrics reported by a traced run, with the end-to-end figure
# each should move; BENCHMARK.json lists the same names.
LAYER_METRICS = (
    # call_p50_ms / wall_s on monoid
    "positionality.check_property3.self_s",
    "positionality.generate_monoid.calls",
    "positionality.generate_monoid.self_s",
    "positionality.monoid_elements",
    "positionality.compose.calls",
    "positionality.omega_accept.calls",
    # wall_s on residuals (its checks)
    "cycles.accepting_lasso_from.calls",
    "cycles.accepting_lasso_from.self_s",
    "cycles.tarjan_scc.self_s",
    "automata.product.calls",
    "positionality.check_property1.total_s",
    "positionality.check_property2.total_s",
    # call_p50_ms / call_p90_ms on residuals (its include queries)
    "automata.residual_included.calls",
    "automata.residual_included.total_s",
    # wall_s on residuals (its compare queries) and reduce (choose_merge)
    "positionality.compare_lassos.calls",
    "positionality.compare_lassos.total_s",
    "automata.member_from.calls",
    # wall_s and call latency on reduce
    "games.verify_strategy.calls",
    "games.verify_strategy.total_s",
    "cycles.nodes_reaching_accepting_cycle.self_s",
    "games.validate_strategy.self_s",
    "reduction.reduce_to_positional.self_s",
    "reduction.choose_merge.total_s",
    "reduction.merge.self_s",
    "reduction.merges",
    "reduction.memory_states_in",
    # wall_s on games (solving and certifying)
    "games.solve_parity.self_s",
    "games.product_game.calls",
    "games.product_nodes",
    "games.find_positional.calls",
    "games.find_positional.total_s",
    "gadgets.gadget_from_witness.calls",
    "gadgets.arena_vertices",
    # call_p50_ms / call_p90_ms on games (the small checks)
    "cli.main.calls",
    "cli.main.self_s",
    "automata.parse_dpa.self_s",
    "games.parse_arena.self_s",
    "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op]
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._swaps = []      # (namespace dict, attribute, original, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        hook = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every traced function in every posit namespace binding it."""
        namespaces = [vars(m) for key, m in sorted(sys.modules.items())
                      if key == "posit" or key.startswith("posit.")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules["posit." + short]
            for attr, fn in sorted(vars(module).items()):
                name = "%s.%s" % (short, attr)
                # The CLI layer is traced as a whole: argument parsing,
                # file reads and printing in cmd_* are cli.main's self time.
                if (not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__
                        or attr.startswith("_")
                        or short == "cli" and name != "cli.main"):
                    continue
                make = (self._count_wrapper if name in COUNT_ONLY
                        else self._span_wrapper)
                wrappers[id(fn)] = (fn, make(name, fn))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    wrapper = wrappers[id(value)][1]
                    self._swaps.append((ns, attr, value, wrapper))
                    ns[attr] = wrapper

    def uninstall(self):
        for ns, attr, original, _wrapper in reversed(self._swaps):
            ns[attr] = original
        self._swaps = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self):
        """{metric: value}: calls, self_s, total_s per traced function,
        plus the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter(self.counts)
        for i, (name, start, end, parent, _op) in enumerate(spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[i]
            # Count a recursive call's time once, at its outermost span.
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[name + ".total_s"] += end - start
        return dict(out)


def write_spans(spans, path):
    """One span per line: op, name, start, end, parent index."""
    with open(path, "w") as f:
        for name, start, end, parent, op in spans:
            f.write("%s\t%s\t%.9f\t%.9f\t%d\n" % (op, name, start, end, parent))
