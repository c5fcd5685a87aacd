"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions of each `odrs_lab` module with
timing wrappers, at the defining module and at every module global that a
`from ... import` copied the function into. Spans are aggregated per name
(calls, total time, time in child spans, raises) instead of being kept one per
call: the hottest function runs about 600k times in one pass.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# (span name, module, attribute path). Several attributes may share a name.
SPANS = [
    ("cli", "cli", "main"),
    ("instances.load_json", "instances", "load_json"),
    ("instances.validate", "instances", "validate"),
    ("instances.dumps", "instances", "dumps"),
    ("odrs.optimize_params", "odrs", "optimize_params"),
    ("odrs.build_plans", "odrs", "build_plans"),
    ("odrs.BidLawDP.step", "odrs", "BidLawDP.step"),
    ("odrs.CompiledOdrs.init", "odrs", "CompiledOdrs.__init__"),
    ("odrs.CompiledOdrs.sample", "odrs", "CompiledOdrs.sample"),
    ("odrs.CompiledWarmup.init", "odrs", "CompiledWarmup.__init__"),
    ("crs.balance_ratio", "crs", "balance_ratio"),
    ("crs.build_selector", "crs", "build_selector"),
    ("crs.exact_marginals", "crs", "exact_marginals"),
    ("crs.ProductSelector.init", "crs", "ProductSelector.__init__"),
    ("crs.ProductSelector.select", "crs", "ProductSelector.select"),
    ("crs.ProductSelector.conditional_win_probs", "crs", "ProductSelector.conditional_win_probs"),
    ("level_set.step_probability", "level_set", "step_probability"),
    ("level_set.online_step", "level_set", "online_step"),
    ("exact_engine.edge_match_probs", "exact_engine", "edge_match_probs"),
    ("exact_engine.rounding_ratio_exact", "exact_engine", "rounding_ratio_exact"),
    ("bench.monte_carlo_edge_probs", "bench", "monte_carlo_edge_probs"),
    ("bench.lb_adversary", "bench", "lb_adversary"),
    ("bench.replay", "bench", "_batch_odrs"),
    ("bench.replay", "bench", "_batch_warmup"),
    ("stochastic.build_lp", "stochastic", "build_lp"),
    ("stochastic.simplex_max", "stochastic", "simplex_max"),
    ("stochastic.eval_vs_lp", "stochastic", "eval_vs_lp"),
    ("stochastic.exact_threshold_check", "stochastic", "exact_threshold_check"),
    ("apps.edge_color_online", "apps", "edge_color_online"),
    ("apps.verify_coloring", "apps", "verify_coloring"),
    ("apps.cover_trials", "apps", "cover_trials"),
]

MODULES = ["cli", "instances", "rng", "level_set", "crs", "odrs", "exact_engine",
           "bench", "stochastic", "apps"]

# Call-site bindings made by `from ... import`; install() must reach each.
REQUIRED_BINDINGS = [("apps", "step_probability"), ("apps", "online_step"),
                     ("odrs", "step_probability"), ("bench", "validate")]


# Per-layer metrics reported by a traced run, with units. A span that a
# workload never enters reads 0.
PER_LAYER = [
    ("odrs.BidLawDP.step.self_s", "s"), ("odrs.BidLawDP.step.calls", "count"),
    ("odrs.bidlaw.states_peak", "count"), ("odrs.bidlaw.component_max", "count"),
    ("odrs.bidlaw.pairs", "count"), ("odrs.bidlaw.ns_per_pair", "ns"),
    ("odrs.build_plans.self_s", "s"), ("odrs.CompiledOdrs.init.self_s", "s"),
    ("odrs.CompiledWarmup.init.self_s", "s"),
    ("odrs.optimize_params.self_s", "s"), ("odrs.optimize_params.calls", "count"),
    ("odrs.CompiledOdrs.sample.self_s", "s"), ("odrs.CompiledOdrs.sample.calls", "count"),
    ("crs.balance_ratio.self_s", "s"), ("crs.balance_ratio.calls", "count"),
    ("crs.balance_ratio.active_max", "count"),
    ("crs.build_selector.self_s", "s"), ("crs.build_selector.atoms", "count"),
    ("crs.exact_marginals.self_s", "s"),
    ("crs.ProductSelector.init.self_s", "s"), ("crs.ProductSelector.init.calls", "count"),
    ("crs.ProductSelector.init.distinct_frac", "fraction"),
    ("crs.ProductSelector.select.self_s", "s"),
    ("crs.ProductSelector.conditional_win_probs.self_s", "s"),
    ("level_set.step_probability.self_s", "s"), ("level_set.step_probability.calls", "count"),
    ("level_set.online_step.self_s", "s"), ("level_set.online_step.calls", "count"),
    ("bench.monte_carlo_edge_probs.self_s", "s"), ("bench.lb_adversary.self_s", "s"),
    ("bench.replay.self_s", "s"), ("bench.replay.run_arrivals", "count"),
    ("bench.replay.ns_per_run_arrival", "ns"),
    ("exact_engine.edge_match_probs.self_s", "s"),
    ("exact_engine.rounding_ratio_exact.self_s", "s"),
    ("stochastic.build_lp.self_s", "s"), ("stochastic.simplex_max.self_s", "s"),
    ("stochastic.eval_vs_lp.self_s", "s"), ("stochastic.exact_threshold_check.self_s", "s"),
    ("apps.edge_color_online.self_s", "s"), ("apps.verify_coloring.self_s", "s"),
    ("apps.cover_trials.self_s", "s"),
    ("instances.load_json.self_s", "s"), ("instances.validate.self_s", "s"),
    ("instances.dumps.self_s", "s"), ("cli.self_s", "s"),
    ("cli.reports_byte_identical", "count"), ("trace.span_errors", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
]


class SpanStats:
    __slots__ = ("calls", "total", "child", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = 0

    @property
    def self_s(self) -> float:
        return self.total - self.child


class Tracer:
    """Aggregated spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bidlaw = {"pairs": 0, "states_peak": 0, "component_max": 0}
        self.active_max = 0
        self.selector_atoms = 0
        self.product_fractions: set[tuple] = set()
        self.run_arrivals = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        st = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.total += dt
                st.child += frame[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    # Hooks run before the wrapped call's clock starts, so their cost lands in
    # the parent span's self time, not in the measured layer.

    def _hook_bidlaw_step(self, args):
        dp, plan = args[0], args[1]
        outcomes = 1
        for gb in plan.bins:
            outcomes *= sum(1 for sz in gb.sizes if sz > 0) + (1 - sum(gb.sizes) > 0)
        for cn in plan.crossing:
            outcomes *= (cn.takeover > 0) + (1 - cn.takeover > 0)
        states = len(dp.state)
        b = self.bidlaw
        b["pairs"] += states * outcomes
        b["states_peak"] = max(b["states_peak"], states)
        b["component_max"] = max(b["component_max"], len(dp.nodes))

    def _hook_balance_ratio(self, args):
        self.active_max = max(self.active_max, sum(1 for v in args[1] if v > 0))

    def _hook_build_selector(self, args):
        self.selector_atoms += len(args[0].atoms)

    def _hook_product_selector(self, args):
        self.product_fractions.add(tuple(args[1]))

    def _hook_replay(self, args):
        comp, n_runs = args[0], args[1]
        self.run_arrivals += n_runs * sum(1 for s in comp.selectors if s is not None)

    HOOKS = {
        "odrs.BidLawDP.step": "_hook_bidlaw_step",
        "crs.balance_ratio": "_hook_balance_ratio",
        "crs.build_selector": "_hook_build_selector",
        "crs.ProductSelector.init": "_hook_product_selector",
        "bench.replay": "_hook_replay",
    }

    # -- install / uninstall ------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"odrs_lab.{m}") for m in MODULES}
        for name, mod_name, path in SPANS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            hook = getattr(self, self.HOOKS[name]) if name in self.HOOKS else None
            wrapped = self._wrap(name, orig, hook)
            self._set(owner, attr, orig, wrapped)
            if outer:
                continue
            for other in modules.values():  # bindings copied by `from ... import`
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._set(other, key, orig, wrapped)

    def _set(self, owner, attr, orig, wrapped):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @staticmethod
    def binding_errors() -> list[str]:
        """Call-site bindings that are not wrapped right now (call while installed)."""
        return [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
                if not hasattr(getattr(importlib.import_module(f"odrs_lab.{m}"), a),
                               "__wrapped__")]

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of one traced pass, keyed by metric name."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.calls"] = st.calls
        b = self.bidlaw
        step = self.stats["odrs.BidLawDP.step"]
        out["odrs.bidlaw.pairs"] = b["pairs"]
        out["odrs.bidlaw.states_peak"] = b["states_peak"]
        out["odrs.bidlaw.component_max"] = b["component_max"]
        out["odrs.bidlaw.ns_per_pair"] = _per(step.self_s * 1e9, b["pairs"])
        out["crs.balance_ratio.active_max"] = self.active_max
        out["crs.build_selector.atoms"] = self.selector_atoms
        builds = self.stats["crs.ProductSelector.init"].calls
        out["crs.ProductSelector.init.distinct_frac"] = _per(len(self.product_fractions), builds)
        out["bench.replay.run_arrivals"] = self.run_arrivals
        out["bench.replay.ns_per_run_arrival"] = _per(
            self.stats["bench.replay"].self_s * 1e9, self.run_arrivals)
        out["trace.span_errors"] = sum(st.errors for st in self.stats.values())
        out["trace.self_sum_s"] = math.fsum(st.self_s for st in self.stats.values())
        return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0
