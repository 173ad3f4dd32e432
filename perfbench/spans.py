"""Span tracing for the traced run, installed from outside the program.

Each traced function is replaced, under every name an echogrid module looks
it up by, with a wrapper that records a span: (id, parent id, op id, name,
start ns, end ns, value, raised). The parent is the innermost open span on
the same thread. A pool thread's outermost span hangs off the innermost
open span of the thread that began the op, which is the span waiting on
the pool.
Spans stay in memory; run.py folds each op's spans into `LayerStats`
and keeps the first traced op's spans to write out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op_span = 0  # root span of the current op; also the op's id
        self._op_stack: list = []  # span stack of the thread that began the op
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, value=None, before=None):
        """fn with a span per call; value(args, result, state) is stored on it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            stack = tracer._stack()
            outer = stack or tracer._op_stack
            parent = outer[-1] if outer else tracer.op_span
            sid = next(tracer._ids)
            op = tracer.op_span
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, op, name, start, end, None, True))
                raise
            end = perf_counter_ns()
            stack.pop()
            v = value(args, result, state) if value is not None else None
            tracer.spans.append((sid, parent, op, name, start, end, v, False))
            return result

        return traced

    def begin_op(self) -> int:
        """Open an op's root span; every span until end_op carries its id."""
        self.op_span = next(self._ids)
        self._op_stack = self._stack()
        self.spans = []
        return perf_counter_ns()

    def end_op(self, start_ns: int) -> list[tuple]:
        self.spans.append((self.op_span, 0, self.op_span, "op", start_ns, perf_counter_ns(), None, False))
        spans, self.spans = self.spans, []
        return spans

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def patch_function(self, name, fn, value=None, before=None):
        """Replace fn in every echogrid module that holds it by any name."""
        wrapper = self.wrap(name, fn, value, before)
        sites = [
            (module, attr)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "echogrid" or mod_name.startswith("echogrid.")
            for attr, obj in list(vars(module).items())
            if obj is fn
        ]
        if not sites:
            raise RuntimeError(f"no module holds {name}")
        for module, attr in sites:
            self._set(module, attr, wrapper)

    def patch_method(self, name, cls, attr, value=None, before=None):
        if attr not in cls.__dict__:
            raise RuntimeError(f"{cls.__name__} defines no {attr}")
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], value, before))

    def patch_sleep(self, name, module):
        """Trace module.time.sleep without touching the process-wide time module."""
        real_time = module.time
        proxy = type("TracedTime", (), {"__getattr__": lambda _self, attr: getattr(real_time, attr)})()
        proxy.sleep = self.wrap(name, real_time.sleep)
        self._set(module, "time", proxy)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def install_echogrid(tracer: Tracer) -> None:
    """Wrap each echogrid module's public functions that the layer metrics read."""
    from echogrid import episode, harness, lm, oracle, policy, prompts, strategies, textview, world

    # ROADMAP item 2 moves classify_request from oracle to prompts.
    classify = getattr(prompts, "classify_request", None) or oracle.classify_request

    def stored(args, result, old):
        buffer, goal, workflow = args
        return int(buffer.entries.get(textview.canonical_goal(goal)) is workflow and old is not workflow)

    tracer.patch_function("textview.render", textview.render, value=lambda a, r, s: len(r.text))
    tracer.patch_function("world.step", world.step)
    tracer.patch_function("world.goal_satisfied", world.goal_satisfied)
    tracer.patch_function("world.generate", world.generate)
    tracer.patch_function("prompts.agent_step_message", prompts.agent_step_message)
    tracer.patch_method(
        "policy.decide", policy.ReactPolicy, "decide",
        value=lambda a, r, s: a[0].calls_per_step[-1] - 1,
    )
    tracer.patch_function("lm.parse_choice", lm.parse_choice)
    tracer.patch_function("lm.parse_json_payload", lm.parse_json_payload)
    tracer.patch_function("lm.parse_summary", lm.parse_summary)
    tracer.patch_method("lm.complete", lm.LiveBackend, "complete")
    tracer.patch_sleep("lm.backoff", lm)
    tracer.patch_method(
        "oracle.complete", oracle.ScriptedBackend, "complete",
        value=lambda a, r, s: classify(a[1]),
    )
    tracer.patch_method("oracle.demo_init", oracle.DemoBackend, "__init__")
    tracer.patch_function("oracle.bfs_plan", oracle.bfs_plan)
    for cls in {type(s) for s in strategies.STRATEGIES.values()}:
        tracer.patch_method("strategies.after_episode", cls, "after_episode")
        if "render_memory" in cls.__dict__:
            tracer.patch_method(
                "strategies.render_memory", cls, "render_memory", value=lambda a, r, s: len(r)
            )
    tracer.patch_function(
        "strategies.update_rule", strategies.update_rule,
        before=lambda a: a[0].entries.get(textview.canonical_goal(a[1])), value=stored,
    )
    tracer.patch_function("episode.run_episode", episode.run_episode, value=lambda a, r, s: len(r.steps))
    tracer.patch_function(
        "episode.format_trajectory", episode.format_trajectory, value=lambda a, r, s: len(r)
    )
    tracer.patch_function("harness.make_backend", harness.make_backend)
    tracer.patch_function("harness.write_run_dir", harness.write_run_dir)
    tracer.patch_function("harness.validity_analysis", harness.validity_analysis)
    tracer.patch_function("harness.load_validity_pools", harness.load_validity_pools)
    tracer.patch_function("harness.run_env_stream", harness.run_env_stream)
    tracer.patch_function(
        "harness.run_stream", harness.run_stream, value=lambda a, r, s: r.strategy_calls
    )


def _self_ns(span, children) -> int:
    """Duration minus the union of the child intervals (children may overlap)."""
    start, end = span[4], span[5]
    covered, cursor = 0, start
    for c_start, c_end in sorted((c[4], c[5]) for c in children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return end - start - covered


class LayerStats:
    """Per-layer sums over traced ops; one op's stats merge into a run's."""

    def __init__(self):
        self.count = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.value_sum = defaultdict(float)
        self.failures = defaultdict(int)
        self.live_complete_ms: list[float] = []
        self.offline_calls = 0
        self.ops = 0
        self.extra = defaultdict(float)  # per-op figures run.py adds (stub, files)

    def merge(self, other: "LayerStats") -> None:
        for name in ("count", "total_ns", "self_ns", "value_sum", "failures", "extra"):
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] += value
        self.live_complete_ms += other.live_complete_ms
        self.offline_calls += other.offline_calls
        self.ops += other.ops

    def add_op(self, spans: list[tuple], extra: dict) -> None:
        self.ops += 1
        for key, value in extra.items():
            self.extra[key] += value
        children = defaultdict(list)
        by_id = {}
        for span in spans:
            children[span[1]].append(span)
            by_id[span[0]] = span
        for span in spans:
            sid, parent, _op, name, start, end, value, raised = span
            if name == "oracle.complete":
                name = f"oracle.complete.{value}"
            self.count[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += _self_ns(span, children.get(sid, ()))
            if isinstance(value, (int, float)):
                self.value_sum[name] += value
            if raised:
                self.failures[name] += 1
            if name == "lm.complete":
                self.live_complete_ms.append((end - start) / 1e6)
            if span[3] in ("lm.complete", "oracle.complete"):
                up = by_id.get(parent)
                if up is not None and up[3] == "strategies.after_episode":
                    self.offline_calls += 1

    def mean(self, name, scale=1e-3, self_time=False) -> float:
        n = self.count[name]
        total = self.self_ns[name] if self_time else self.total_ns[name]
        return total * scale / n if n else 0.0

    def per_op(self, name) -> float:
        return self.count[name] / self.ops if self.ops else 0.0

    def value_mean(self, name) -> float:
        n = self.count[name]
        return self.value_sum[name] / n if n else 0.0

    def value_per_op(self, name) -> float:
        return self.value_sum[name] / self.ops if self.ops else 0.0


ROLES = ("agent", "summarize", "identify_goals", "infer_traj")


def layer_metrics(stats: LayerStats, workers: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit). Layers a workload
    never enters read 0 (their call counts read 0 too)."""
    us, ms = 1e-3, 1e-6
    x = stats.extra
    ops = stats.ops or 1
    steps = stats.value_sum["episode.run_episode"]
    parse_names = ("lm.parse_choice", "lm.parse_json_payload", "lm.parse_summary")
    attempts = x["stub_requests"]
    live_calls = stats.count["lm.complete"]
    client_ns = stats.total_ns["lm.complete"] - stats.total_ns["lm.backoff"]
    updates = stats.count["strategies.update_rule"]
    run_ns = stats.total_ns["harness.run_stream"]
    after = stats.count["strategies.after_episode"]
    m = {
        "textview.render_us": (stats.mean("textview.render", us), "us"),
        "textview.render_calls": (stats.per_op("textview.render"), "count"),
        "textview.obs_chars": (stats.value_mean("textview.render"), "chars"),
        "world.step_us": (stats.mean("world.step", us), "us"),
        "world.goal_satisfied_us": (stats.mean("world.goal_satisfied", us), "us"),
        "world.generate_ms": (stats.mean("world.generate", ms), "ms"),
        "prompts.agent_step_message_us": (stats.mean("prompts.agent_step_message", us), "us"),
        "policy.decide_self_us": (stats.mean("policy.decide", us, self_time=True), "us"),
        "policy.parse_retries": (stats.value_per_op("policy.decide"), "count"),
        "lm.parse_choice_us": (stats.mean("lm.parse_choice", us), "us"),
        "lm.parse_failures": (sum(stats.failures[n] for n in parse_names) / ops, "count"),
        "lm.complete_ms_p50": (quantile(stats.live_complete_ms, 0.5), "ms"),
        "lm.complete_ms_p90": (quantile(stats.live_complete_ms, 0.9), "ms"),
        "lm.client_overhead_ms": (
            (client_ns / 1e6 - x["stub_handle_s"] * 1e3) / attempts if attempts else 0.0, "ms"
        ),
        "lm.http_attempts": (attempts / ops, "count"),
        "lm.retries": (stats.per_op("lm.backoff"), "count"),
        "lm.connections_per_call": (x["stub_connections"] / attempts if attempts else 0.0, "ratio"),
        "lm.request_kbytes_per_call": (x["stub_body_bytes"] / 1e3 / attempts if attempts else 0.0, "kB"),
        "lm.mirror_mbytes": (x["mirror_bytes"] / 1e6 / ops, "MB"),
        "oracle.demo_init_ms": (stats.mean("oracle.demo_init", ms), "ms"),
        "oracle.bfs_plan_calls": (stats.per_op("oracle.bfs_plan"), "count"),
        "oracle.bfs_plan_ms": (stats.mean("oracle.bfs_plan", ms), "ms"),
        "strategies.after_episode_ms": (stats.mean("strategies.after_episode", ms), "ms"),
        "strategies.offline_calls_per_episode": (stats.offline_calls / after if after else 0.0, "count"),
        "strategies.update_accept_ratio": (
            stats.value_sum["strategies.update_rule"] / updates if updates else 0.0, "ratio"
        ),
        "strategies.memory_kchars": (stats.value_mean("strategies.render_memory") / 1e3, "kchars"),
        "episode.run_episode_self_us_per_step": (
            stats.self_ns["episode.run_episode"] * us / steps if steps else 0.0, "us"
        ),
        "episode.format_trajectory_ms": (stats.mean("episode.format_trajectory", ms), "ms"),
        "episode.transcript_kchars": (stats.value_mean("episode.format_trajectory") / 1e3, "kchars"),
        "harness.make_backend_ms": (stats.mean("harness.make_backend", ms), "ms"),
        "harness.write_run_dir_ms": (stats.mean("harness.write_run_dir", ms), "ms"),
        "harness.bytes_written": (x["bytes_written"] / ops, "B"),
        "harness.validity_analysis_ms": (stats.mean("harness.validity_analysis", ms), "ms"),
        "harness.load_validity_pools_ms": (stats.mean("harness.load_validity_pools", ms), "ms"),
        "harness.pool_busy_frac": (
            stats.total_ns["harness.run_env_stream"] / (run_ns * workers) if run_ns else 0.0, "ratio"
        ),
        "harness.record_strategy_calls": (stats.value_per_op("harness.run_stream"), "count"),
        "lm.offline_calls_served": (
            (x["stub_offline_answered"] if live_calls else stats.offline_calls) / ops, "count"
        ),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for role in ROLES:
        m[f"oracle.complete_us.{role}"] = (stats.mean(f"oracle.complete.{role}", us), "us")
    return m


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1, in steps of 0.01) by the inclusive method;
    the only value of a single sample, 0 of none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def write_spans(path, spans: list[tuple]) -> None:
    keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "value", "raised")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
