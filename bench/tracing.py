"""Span tracing by shims around the public functions of each layer.

`Tracer.install` replaces every module-level binding of the traced
functions inside the `ofdma_assoc` package (a function imported by name
into several modules is patched in each of them) and the traced `Evaluator`
methods on the class.  While the tracer is enabled, every call is counted
and timed; its self time is its duration minus the time its traced child
calls cover, accumulated as calls return.

Spans (name, start, end, parent span, op id) stay in memory and are written
out by `write_spans` when the run ends.  A span is stored for each call
that crosses a layer boundary (its layer, the module that defines the
function, differs from its traced caller's), and for each call with a
stored span below it, so that every stored span hangs from its callers.
The game-layer queries in HOT run millions of times per run and are stored
only when they reach a cell solve: a lookup that hits the cache is counted
and timed but leaves no span.
"""

import gzip
import inspect
import os
import statistics
import sys
import time
from array import array

# Traced functions as (defining module, attribute), by layer.
FUNCTIONS = (
    ("net_model", "generate"),
    ("net_model", "inject_estimation_error"),
    ("per_bs_alloc", "solve_cell"),
    ("per_bs_alloc", "water_fill"),
    ("per_bs_alloc", "reported_rates"),
    ("per_bs_alloc", "realized_rates"),
    ("vcg", "misreport_search"),
    ("assoc_game", "better_reply_set"),
    ("assoc_game", "is_ne"),
    ("assoc_game", "enumerate_nes"),
    ("mechanism", "run"),
    ("mechanism", "step"),
    ("mechanism", "update_interference_noise"),
    ("baselines", "nearest_bs"),
    ("baselines", "greedy0"),
    ("baselines", "exhaustive_opt"),
    ("baselines", "multi_connect_bound"),
    ("sim_cli", "main"),
    ("sim_cli", "run_campaign"),
    ("sim_cli", "write_outputs"),
)
EVALUATOR_METHODS = ("__init__", "cell", "utility", "move_utility")
CELL = "assoc_game.Evaluator.cell"
HOT = {CELL, "assoc_game.Evaluator.utility", "assoc_game.Evaluator.move_utility",
       "assoc_game.better_reply_set"}

PACKAGE = "ofdma_assoc"


class BindingError(RuntimeError):
    """A binding the workload must exercise is missing or saw no call."""


def _bound_arg(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _moves(trace):
    """Users whose BS changed, summed over consecutive trace records."""
    return sum(sum(1 for x, y in zip(a.profile, b.profile) if x != y)
               for a, b in zip(trace, trace[1:]))


def _on_run(stats, fn, args, kwargs, res):
    stats["runs_converged"] += int(res.converged)
    stats["runs_ne"] += int(res.is_ne is True)
    stats["trace_records"] += len(res.trace)
    stats["moves"] += _moves(res.trace)
    stats["transitions"] += len(res.trace) - 1


def _on_exhaustive(stats, fn, args, kwargs, res):
    stats["exhaustive_leaves"] += res.evaluations


def _on_greedy0(stats, fn, args, kwargs, res):
    stats["greedy0_evals"] += res.evaluations


def _on_misreport(stats, fn, args, kwargs, res):
    stats["misreport_trials"] += _bound_arg(fn, "trials", args, kwargs)


def _on_enumerate(stats, fn, args, kwargs, res):
    net = _bound_arg(fn, "net", args, kwargs)
    stats["enumerate_profiles"] += net.num_bss ** net.num_users


def _on_run_campaign(stats, fn, args, kwargs, rows):
    stats["campaign_trials"] += sum(row.trials for row in rows)


def _on_write_outputs(stats, fn, args, kwargs, res):
    outdir = _bound_arg(fn, "outdir", args, kwargs)
    stats["bytes_written"] += sum(
        os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))


HOOKS = {
    "mechanism.run": _on_run,
    "baselines.exhaustive_opt": _on_exhaustive,
    "baselines.greedy0": _on_greedy0,
    "vcg.misreport_search": _on_misreport,
    "assoc_game.enumerate_nes": _on_enumerate,
    "sim_cli.run_campaign": _on_run_campaign,
    "sim_cli.write_outputs": _on_write_outputs,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.stack = []             # open calls: [span, child_ns, n_child, start, binding]
        self.bindings = []          # binding id -> "module.function@binding module"
        self.function = []          # binding id -> "module.function"
        self.layer = []             # binding id -> defining module
        self.calls = []
        self.total_ns = []
        self.self_ns = []
        self.with_children = []
        self.stats = {k: 0 for k in (
            "runs_converged", "runs_ne", "trace_records", "moves",
            "transitions", "exhaustive_leaves", "greedy0_evals",
            "misreport_trials", "enumerate_profiles", "campaign_trials",
            "bytes_written")}
        self.sp_binding = array("i")
        self.sp_op = array("i")
        self.sp_parent = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.t0 = time.perf_counter_ns()

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for mod_name, attr in FUNCTIONS:
            key = f"{mod_name}.{attr}"
            fn = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
            for bind_name, mod in sorted(modules.items()):
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        short = bind_name.rpartition(".")[2]
                        setattr(mod, name, self._shim(f"{key}@{short}", key, fn))
        evaluator = modules[f"{PACKAGE}.assoc_game"].Evaluator
        for attr in EVALUATOR_METHODS:
            key = f"assoc_game.Evaluator.{attr}"
            fn = getattr(evaluator, attr)
            setattr(evaluator, attr, self._shim(f"{key}@Evaluator", key, fn))

    def _shim(self, binding, function, fn):
        nid = len(self.bindings)
        self.bindings.append(binding)
        self.function.append(function)
        self.layer.append(function.partition(".")[0])
        for counter in (self.calls, self.total_ns, self.self_ns, self.with_children):
            counter.append(0)
        hook = HOOKS.get(function)
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns
        close = self._close

        def shim(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [-1, 0, 0, 0, nid]
            stack.append(frame)
            frame[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
            if hook is not None:
                hook(tracer.stats, fn, args, kwargs, result)
            return result

        return shim

    # -- span bookkeeping ----------------------------------------------------

    def _close(self, frame, end):
        span, child_ns, n_child, start, nid = frame
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child_ns
        if n_child:
            self.with_children[nid] += 1
        caller = self.stack[-1] if self.stack else None
        if caller is not None:
            caller[1] += dur
            caller[2] += 1
        if span >= 0:
            self.sp_end[span] = end
        elif self.function[nid] not in HOT and (
                caller is None or self.layer[caller[4]] != self.layer[nid]):
            self._append(nid, self._open_span(len(self.stack) - 1), start, end)

    def _open_span(self, depth):
        """Span index of the open call at `depth`, storing it if needed."""
        if depth < 0:
            return -1
        frame = self.stack[depth]
        if frame[0] < 0:
            frame[0] = self._append(frame[4], self._open_span(depth - 1),
                                    frame[3], -1)
        return frame[0]

    def _append(self, nid, parent, start, end):
        self.sp_binding.append(nid)
        self.sp_op.append(self.op)
        self.sp_parent.append(parent)
        self.sp_start.append(start)
        self.sp_end.append(end)
        return len(self.sp_binding) - 1

    def write_spans(self, path):
        """Gzipped CSV, one span per line; times in ns from tracer creation."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            for i in range(len(self.sp_binding)):
                fh.write(f"{i},{self.sp_op[i]},{self.sp_parent[i]},"
                         f"{self.bindings[self.sp_binding[i]]},"
                         f"{self.sp_start[i] - self.t0},{self.sp_end[i] - self.t0}\n")
        return len(self.sp_binding)

    # -- results -------------------------------------------------------------

    def binding_calls(self):
        return dict(zip(self.bindings, self.calls))

    def check_bindings(self, expected):
        calls = self.binding_calls()
        missing = [b for b in expected if b not in calls]
        idle = [b for b in expected if calls.get(b) == 0]
        if missing or idle:
            raise BindingError(f"bindings not found: {missing}; "
                               f"bindings with no call: {idle}")

    def _sum(self, counter, *functions):
        return sum(v for f, v in zip(self.function, counter) if f in functions)

    def _durations_ms(self, function):
        ids = {i for i, f in enumerate(self.function) if f == function}
        return [(self.sp_end[i] - self.sp_start[i]) / 1e6
                for i in range(len(self.sp_binding)) if self.sp_binding[i] in ids]

    def metrics(self, overhead, untraced_s, traced_s):
        """Every per-layer metric as name -> (value, unit, base)."""
        calls = lambda *f: self._sum(self.calls, *f)
        busy = lambda *f: self._sum(self.total_ns, *f) / 1e9
        self_s = lambda *f: self._sum(self.self_ns, *f) / 1e9
        st = self.stats
        solve_calls = calls("per_bs_alloc.solve_cell")
        lookups = calls(CELL)
        misses = self._sum(self.with_children, CELL)
        runs = calls("mechanism.run")
        rounds = calls("mechanism.step")
        run_s = busy("mechanism.run")
        resolve = sum(c for b, c in self.binding_calls().items()
                      if b == "per_bs_alloc.solve_cell@sim_cli")
        steps = self._durations_ms("mechanism.step")
        step_q = statistics.quantiles(steps, n=10) if len(steps) >= 2 else [0.0] * 9
        ratio = lambda a, b: a / b if b else 0.0
        m = {}

        def put(name, value, unit, base=""):
            m[name] = (value, unit, base)

        put("net_model.generate_calls", calls("net_model.generate"), "count")
        put("net_model.generate_s", busy("net_model.generate"), "s")
        put("net_model.inject_error_s", busy("net_model.inject_estimation_error"), "s")
        put("per_bs_alloc.solve_calls", solve_calls, "count")
        put("per_bs_alloc.solve_s", busy("per_bs_alloc.solve_cell"), "s")
        put("per_bs_alloc.solve_us_mean",
            ratio(busy("per_bs_alloc.solve_cell") * 1e6, solve_calls), "us",
            f"{solve_calls} solve_cell calls")
        put("per_bs_alloc.water_fill_calls", calls("per_bs_alloc.water_fill"), "count")
        put("per_bs_alloc.water_fill_s", busy("per_bs_alloc.water_fill"), "s")
        rate_fns = ("per_bs_alloc.reported_rates", "per_bs_alloc.realized_rates")
        put("per_bs_alloc.rates_calls", calls(*rate_fns), "count")
        put("per_bs_alloc.rates_s", busy(*rate_fns), "s")
        put("vcg.misreport_calls", calls("vcg.misreport_search"), "count")
        put("vcg.misreport_trials", st["misreport_trials"], "count")
        put("vcg.misreport_s", busy("vcg.misreport_search"), "s")
        put("assoc_game.cell_lookups", lookups, "count")
        put("assoc_game.cell_misses", misses, "count")
        put("assoc_game.hit_ratio", ratio(lookups - misses, lookups), "ratio",
            f"{lookups} Evaluator.cell lookups")
        put("assoc_game.cell_self_s", self_s(CELL), "s")
        util_fns = ("assoc_game.Evaluator.utility", "assoc_game.Evaluator.move_utility")
        put("assoc_game.utility_calls", calls(*util_fns), "count")
        put("assoc_game.utility_self_s", self_s(*util_fns), "s")
        put("assoc_game.better_reply_calls", calls("assoc_game.better_reply_set"), "count")
        put("assoc_game.better_reply_self_s", self_s("assoc_game.better_reply_set"), "s")
        put("assoc_game.evaluators_built", calls("assoc_game.Evaluator.__init__"), "count")
        put("assoc_game.is_ne_calls", calls("assoc_game.is_ne"), "count")
        put("assoc_game.is_ne_s", busy("assoc_game.is_ne"), "s")
        put("assoc_game.enumerate_profiles", st["enumerate_profiles"], "count")
        put("assoc_game.enumerate_s", busy("assoc_game.enumerate_nes"), "s")
        put("mechanism.runs", runs, "count")
        put("mechanism.rounds", rounds, "count")
        put("mechanism.rounds_per_s", ratio(rounds, run_s), "1/s",
            f"{rounds} rounds over {run_s:.4f} s inside mechanism.run")
        put("mechanism.step_self_s", self_s("mechanism.step"), "s")
        put("mechanism.round_ms_p50", statistics.median(steps) if steps else 0.0,
            "ms", f"{len(steps)} step calls")
        put("mechanism.round_ms_p90", step_q[8], "ms", f"{len(steps)} step calls")
        put("mechanism.run_self_s", self_s("mechanism.run"), "s")
        put("mechanism.moves_per_round", ratio(st["moves"], st["transitions"]),
            "1/round", f"{st['transitions']} rounds in returned traces")
        put("mechanism.trace_records", st["trace_records"], "count")
        put("mechanism.converged_frac", ratio(st["runs_converged"], runs), "ratio",
            f"{runs} runs")
        put("mechanism.ne_frac", ratio(st["runs_ne"], runs), "ratio", f"{runs} runs")
        put("mechanism.interference_update_calls",
            calls("mechanism.update_interference_noise"), "count")
        put("mechanism.interference_update_s",
            busy("mechanism.update_interference_noise"), "s")
        put("baselines.exhaustive_s", busy("baselines.exhaustive_opt"), "s")
        put("baselines.exhaustive_leaves", st["exhaustive_leaves"], "count")
        put("baselines.greedy0_s", busy("baselines.greedy0"), "s")
        put("baselines.greedy0_evals", st["greedy0_evals"], "count")
        put("baselines.nearest_s", busy("baselines.nearest_bs"), "s")
        put("baselines.bound_s", busy("baselines.multi_connect_bound"), "s")
        put("sim_cli.campaigns", calls("sim_cli.run_campaign"), "count")
        put("sim_cli.trials", st["campaign_trials"], "count")
        put("sim_cli.campaign_self_s", self_s("sim_cli.main", "sim_cli.run_campaign"), "s")
        put("sim_cli.resolve_calls", resolve, "count")
        put("sim_cli.write_s", busy("sim_cli.write_outputs"), "s")
        put("sim_cli.bytes_written", st["bytes_written"], "B")
        put("trace_overhead_frac", overhead, "ratio",
            f"ops took {traced_s:.4f} s traced, {untraced_s:.4f} s untraced")
        return m
