"""Per-layer tracing for the benchmark's traced run.

The traced run installs a wrapper on each program function named in SPANS
(and on the semiring handles' methods), under every name a caller looks up:
`Polynomial` finds `normalize_antichain` in the `poly` module, `game_eval`
finds `kleene_lfp` in `logic`, the CLI finds its own imported names.  Each
call records a span (name, parent span, start, end) and bumps the counters
of its boundary.  A span's self time is its duration minus the part its
child spans cover; it is settled when the span closes.  Functions that are
not wrapped count towards the self time of their nearest wrapped caller.

Spans are kept in memory, up to SPAN_CAP of them, and written out at the end.
"""

import functools
import json
import sys
import time
from array import array

SPAN_CAP = 100_000

# (module, attribute, span name)
SPANS = [
    ("monomials", "Monomial.mul", "monomials.mul"),
    ("monomials", "normalize_antichain", "monomials.antichain"),
    ("poly", "Polynomial.__init__", "poly.ctor"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("solver", "EquationSystem.apply", "solver.apply"),
    ("solver", "build_system", "solver.build_system"),
    ("solver", "kleene_lfp", "solver.lfp"),
    ("solver", "kleene_gfp", "solver.gfp"),
    ("solver", "solve_game", "solver.solve_game"),
    ("games", "acyclic_valuation", "games.acyclic_valuation"),
    ("games", "GameGraph.topological_order", "games.topo"),
    ("games", "enumerate_strategies", "games.enumerate"),
    ("logic", "parse_formula", "logic.parse_formula"),
    ("logic", "to_nnf", "logic.to_nnf"),
    ("logic", "free_variables", "logic.free_variables"),
    ("logic", "build_mc_game", "logic.build_mc_game"),
    ("logic", "game_eval", "logic.game_eval"),
    ("logic", "poslfp_eval_direct", "logic.direct"),
    ("logic", "fo_eval", "logic.fo_eval"),
    ("gamefile", "parse_game_file", "gamefile.parse"),
    ("gamefile", "parse_interpretation_file", "gamefile.parse"),
    ("cli", "main", "cli.main"),
]
SEMIRING_METHODS = {
    "add": "semirings.op",
    "mul": "semirings.op",
    "leq": "semirings.leq",
    "saturate": "semirings.saturate",
    "format_value": "semirings.format",
}

# Per-layer metrics: metric name -> span name.  Self times are reported only
# for spans that every workload reaches, so that no reported time is 0 by
# construction; the self time of every span is in the trace file.
CALL_METRICS = {
    "monomials.mul_calls": "monomials.mul",
    "monomials.antichain_calls": "monomials.antichain",
    "poly.ctor_calls": "poly.ctor",
    "poly.add_calls": "poly.add",
    "poly.mul_calls": "poly.mul",
    "semirings.leq_calls": "semirings.leq",
    "semirings.saturate_calls": "semirings.saturate",
    "solver.apply_calls": "solver.apply",
    "games.topo_calls": "games.topo",
    "logic.to_nnf_calls": "logic.to_nnf",
    "logic.free_variables_calls": "logic.free_variables",
}
TIME_METRICS = {
    "monomials.antichain_s": "monomials.antichain",
    "poly.ctor_s": "poly.ctor",
    "poly.add_s": "poly.add",
    "poly.mul_s": "poly.mul",
    "solver.apply_s": "solver.apply",
    "solver.build_system_s": "solver.build_system",
    "solver.lfp_s": "solver.lfp",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_time = []
        self.stack = []  # [child time, span index] of each open span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.counts = {"solver.iterations": 0, "solver.saturated_solves": 0,
                       "logic.mc_positions": 0, "games.strategies": 0,
                       "poly.max_monos": 0}

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return self.ids[name]

    def wrap(self, fn, name, after=None):
        sid = self._id(name)
        stack, calls, self_time = self.stack, self.calls, self.self_time
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if len(span_name) < SPAN_CAP:
                index = len(span_name)
                span_name.append(sid)
                span_parent.append(parent)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                index = -1
                self.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[sid] += 1
                self_time[sid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    span_start[index] = start
                    span_end[index] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_ctor(self, args, _):
        self.counts["poly.max_monos"] = max(self.counts["poly.max_monos"], len(args[0].monos))

    def _after_solve(self, _, result):
        self.counts["solver.iterations"] += result.iterations
        self.counts["solver.saturated_solves"] += int(result.saturated)

    def _after_mc_game(self, _, result):
        self.counts["logic.mc_positions"] += len(result.game.owners)

    def _after_enumerate(self, _, result):
        self.counts["games.strategies"] += len(result)

    def install(self):
        """Wrap the functions of the provgames modules loaded right now."""
        modules = [m for name, m in sys.modules.items()
                   if name == "provgames" or name.startswith("provgames.")]
        after = {"poly.ctor": self._after_ctor, "solver.lfp": self._after_solve,
                 "solver.gfp": self._after_solve, "logic.build_mc_game": self._after_mc_game,
                 "games.enumerate": self._after_enumerate}
        for module_name, attr, span in SPANS:
            module = sys.modules.get("provgames." + module_name)
            if module is None:  # never imported, so never called
                continue
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, method, self.wrap(cls.__dict__[method], span, after.get(span)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span, after.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        semirings = sys.modules["provgames.semirings"]
        for cls in list(vars(semirings).values()):
            if isinstance(cls, type) and issubclass(cls, semirings.Semiring):
                for method, span in SEMIRING_METHODS.items():
                    if method in cls.__dict__:
                        setattr(cls, method, self.wrap(cls.__dict__[method], span))

    def totals(self, name):
        sid = self.ids.get(name)
        return (0, 0.0) if sid is None else (self.calls[sid], self.self_time[sid])

    def metrics(self, passes, output_bytes):
        """Per-pass layer metrics over the traced passes."""
        def per_pass(total):
            value = total / passes
            return int(value) if value == int(value) else value

        out = {name: per_pass(self.totals(span)[0]) for name, span in CALL_METRICS.items()}
        out["semirings.ops"] = per_pass(self.totals("semirings.op")[0])
        solves = self.totals("solver.lfp")[0] + self.totals("solver.gfp")[0]
        out["solver.solves"] = per_pass(solves)
        for name in ("solver.iterations", "solver.saturated_solves", "logic.mc_positions",
                     "games.strategies"):
            out[name] = per_pass(self.counts[name])
        out["poly.max_monos"] = self.counts["poly.max_monos"]
        out["cli.output_bytes"] = per_pass(output_bytes)
        out.update({name: self.totals(span)[1] / passes for name, span in TIME_METRICS.items()})
        return out

    def self_times(self, passes):
        """Self time per pass of every span name, for the trace file."""
        return {name: self.self_time[sid] / passes for name, sid in sorted(self.ids.items())}

    def write(self, path, passes):
        spans = [[self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i]]
                 for i in range(len(self.span_name))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "calls": self.calls, "passes": passes,
                       "self_s_per_pass": self.self_times(passes), "dropped_spans": self.dropped,
                       "spans": spans}, fh)
