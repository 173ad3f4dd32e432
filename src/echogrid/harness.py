"""Experiment runner, sample-efficiency metrics, and workflow validity checks.

A run walks one episode stream per env seed: generate, then for
each episode reset -> act -> record reward -> apply the strategy's
after_episode. Memory persists across episodes within an env and
never across envs. Streams are independent, so they may run in
parallel; all outputs are written in a fixed order to keep runs
byte-reproducible.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from .episode import Trajectory, deserialize, run_episode, serialize
from .lm import BackendError, LiveBackend
from .oracle import DemoBackend, OracleBackend, TurnLeftBackend
from .policy import ReactPolicy
from .rng import SplitMix64, stage_stream
from .strategies import get_strategy, render_workflows
from .textview import canonical_goal, parse_goal, render_goal
from .world import Goal, GridWorld, canonical_json, check_goal, decode, generate, reset

logger = logging.getLogger(__name__)

CONFIG_VERSION = 2
METRICS_HEADER = "env_seed,episode,goal,reward,steps,cum_avg_reward,strategy"
MEMORY_LOG = "memory.jsonl"  # one snapshot line per episode, in trajectories.jsonl's order

SCRIPTED_BACKENDS = ("scripted:turn-left", "scripted:oracle", "scripted:bfs-demo")
MAX_DEFAULT_WORKERS = 8  # so a long seed list does not start one thread per env by default
SEED_LIST = "a non-empty list of distinct integers"


@dataclass(frozen=True)
class RunConfig:
    """Every setting that decides a run's output files, and nothing else."""

    env_seeds: tuple[int, ...]
    episodes_per_env: int = 16
    horizon: int = 64
    strategy: str = "react"
    backend: str = "scripted:turn-left"
    goal_seed: int = 0

    def __post_init__(self) -> None:
        if not distinct_seeds(self.env_seeds):
            raise ValueError(f"run config env_seeds must be {SEED_LIST}, got {self.env_seeds}")
        for name in ("episodes_per_env", "horizon"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"run config {name} must be >= 1, got {value}")
        get_strategy(self.strategy)  # an unknown strategy raises here

    def to_json(self) -> str:
        return canonical_json({"version": CONFIG_VERSION, **vars(self)})

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("run config is not a JSON object")
        if (version := doc.pop("version", None)) != CONFIG_VERSION:
            raise ValueError(f"run config version {version!r}: echogrid reads version {CONFIG_VERSION}")
        names = {f.name for f in fields(cls)}
        if set(doc) != names:
            raise ValueError(
                f"run config keys: missing {sorted(names - set(doc))}, "
                f"unknown {sorted(set(doc) - names)}"
            )
        return decode(cls, doc, "config")


def distinct_seeds(seeds) -> bool:
    """Whether seeds are SEED_LIST: a repeated seed would run two streams as one."""
    return len(set(seeds)) == len(seeds) > 0


@dataclass
class StreamResult:
    """One env stream's run-dir lines, appended as each of its episodes finishes."""

    env_seed: int
    trajectory_lines: list[str] = field(default_factory=list)  # trajectories.jsonl
    memory_lines: list[str] = field(default_factory=list)  # memory.jsonl
    goals: list[str] = field(default_factory=list)  # per episode, as metrics.csv writes them
    rewards: list[int] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    memory: object = None  # the strategy's memory after the last episode
    strategy_calls: int = 0  # backend calls made by after_episode; not persisted

    def add_trajectory(self, line: str, trajectory: Trajectory) -> Trajectory:
        self.trajectory_lines.append(line)
        self.goals.append(render_goal(trajectory.goal))
        self.rewards.append(trajectory.reward)
        self.steps.append(len(trajectory.steps))
        return trajectory


@dataclass
class MemoryRecord:
    """One memory.jsonl line: an env's memory snapshot after one episode."""

    env_seed: int
    episode_index: int
    memory: dict  # Strategy.memory_snapshot's document


@dataclass
class RunRecord:
    """One run: its config and its streams in config.env_seeds order, as
    run_stream returns it and read_run_dir reads it back."""

    config: RunConfig
    streams: list[StreamResult]

    @property
    def strategy_calls(self) -> int:
        """Backend calls made by after_episode: not persisted, so 0 for a run read back."""
        return sum(s.strategy_calls for s in self.streams)


def check_backend(spec: str) -> None:
    """Raise ValueError unless spec names a backend make_backend builds."""
    if spec != "live" and spec not in SCRIPTED_BACKENDS:
        raise ValueError(
            f"unknown backend {spec!r}; expected 'live' or one of {list(SCRIPTED_BACKENDS)}"
        )


def make_backend(spec: str, world: GridWorld, mirror_path: Optional[str] = None):
    """Backend factory; scripted backends are bound to one world.

    Live backends read their configuration in lm.LiveBackend and
    mirror raw request/response pairs to mirror_path when given.
    """
    check_backend(spec)
    if spec == "live":
        return LiveBackend(mirror_path=mirror_path)
    if spec == "scripted:turn-left":
        return TurnLeftBackend()
    if spec == "scripted:oracle":
        return OracleBackend(world)
    return DemoBackend(world)


def sample_goals(world: GridWorld, count: int, seed: int) -> list[Goal]:
    """count i.i.d. uniform draws (with replacement) over the world's objects."""
    if not world.objects:
        raise ValueError("world has no objects to sample goals from")
    rng = SplitMix64(seed)
    return [
        Goal(obj.color, obj.kind)
        for obj in (world.objects[rng.randbelow(len(world.objects))] for _ in range(count))
    ]


def _env_goal_seed(goal_seed: int, env_seed: int) -> int:
    # Per-env goal stream tied to (run goal seed, env seed) so method and
    # baseline runs sample identical goal sequences.
    return stage_stream(goal_seed, f"goals/{env_seed}").next_u64()


def run_env_stream(
    config: RunConfig, env_seed: int, mirror_path: Optional[str] = None
) -> StreamResult:
    """All episodes for one env; memory evolves strictly in order. The stream
    keeps one step_json dict for serialize, so each distinct step it records
    is encoded once; the dict is dropped when the stream ends."""
    world = generate(env_seed)
    strategy = get_strategy(config.strategy)
    memory = strategy.new_memory()
    goals = sample_goals(
        world, config.episodes_per_env, _env_goal_seed(config.goal_seed, env_seed)
    )
    stream = StreamResult(env_seed)
    step_json: dict[tuple, str] = {}
    backend = make_backend(config.backend, world, mirror_path=mirror_path)
    try:
        for index, goal in enumerate(goals):
            reset(world)
            policy = ReactPolicy(
                backend,
                horizon=config.horizon,
                memory_text=strategy.render_memory(memory),
            )
            trajectory = run_episode(
                world, goal, policy, config.horizon, env_seed=env_seed, episode_index=index
            )
            calls = backend.calls
            try:
                memory = strategy.after_episode(backend, trajectory, memory)
            except BackendError as exc:
                logger.warning(
                    "strategy %s failed after episode %d of env %d: %s",
                    config.strategy, index, env_seed, exc,
                )
            stream.strategy_calls += backend.calls - calls
            stream.add_trajectory(serialize(trajectory, step_json) + "\n", trajectory)
            snapshot = MemoryRecord(env_seed, index, strategy.memory_snapshot(memory))
            stream.memory_lines.append(canonical_json(snapshot) + "\n")
            stream.memory = memory
    finally:
        backend.close()
    return stream


def run_stream(
    config: RunConfig, out_dir: Optional[Path] = None, workers: Optional[int] = None
) -> RunRecord:
    """Execute every env stream on a pool of workers threads and optionally
    persist the run. The pool size changes no output file."""
    mirror_path = None
    if out_dir is not None and config.backend == "live":
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        mirror_path = str(Path(out_dir) / "lm_calls.jsonl")
    workers = workers or min(len(config.env_seeds), MAX_DEFAULT_WORKERS)
    if workers > 1 and len(config.env_seeds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            streams = list(
                pool.map(lambda s: run_env_stream(config, s, mirror_path), config.env_seeds)
            )
    else:
        streams = [run_env_stream(config, s, mirror_path) for s in config.env_seeds]

    record = RunRecord(config, streams)
    if out_dir is not None:
        write_run_dir(Path(out_dir), record)
    return record


def write_run_dir(out_dir: Path, record: RunRecord) -> None:
    """config.json, then each log as the streams' lines in config.env_seeds order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(record.config.to_json() + "\n", encoding="utf-8")
    logs = {
        "trajectories.jsonl": [line for s in record.streams for line in s.trajectory_lines],
        MEMORY_LOG: [line for s in record.streams for line in s.memory_lines],
        "metrics.csv": metrics_lines(record),
    }
    for name, lines in logs.items():
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def metrics_lines(record: RunRecord) -> list[str]:
    """metrics.csv: the header, then one row per episode of each stream."""
    lines = [METRICS_HEADER + "\n"]
    for s in record.streams:
        rows = zip(s.goals, s.rewards, s.steps, cumulative_average(s.rewards))
        for index, (goal, reward, steps, cum_avg) in enumerate(rows):
            lines.append(
                f"{s.env_seed},{index},{goal},{reward},{steps},{cum_avg!r},"
                f"{record.config.strategy}\n"
            )
    return lines


def read_run_dir(run_dir: Path) -> RunRecord:
    """The run write_run_dir wrote to run_dir, its files checked against each other:
    trajectories.jsonl and memory.jsonl hold one line per (env seed, episode index)
    of config.json in the writer's order, and metrics.csv the bytes metrics_lines
    renders from the trajectories. A fault raises ValueError naming the file and
    line; a missing file raises OSError."""
    path = Path(run_dir) / "config.json"
    try:
        config = RunConfig.from_json(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    strategy = get_strategy(config.strategy)
    record = RunRecord(config, [StreamResult(seed) for seed in config.env_seeds])

    def add_trajectory(stream: StreamResult, text: str) -> Trajectory:
        return stream.add_trajectory(text, deserialize(text))

    def add_memory(stream: StreamResult, text: str) -> MemoryRecord:
        snapshot = decode(MemoryRecord, json.loads(text), "record")
        stream.memory = strategy.load_snapshot(snapshot.memory)
        stream.memory_lines.append(text)
        return snapshot

    n = config.episodes_per_env
    keys = [f"env_seed {seed} episode_index {i}" for seed in config.env_seeds for i in range(n)]
    for name, add in (("trajectories.jsonl", add_trajectory), (MEMORY_LOG, add_memory)):
        path, lineno = path.with_name(name), 0
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if lineno > len(keys):
                        raise ValueError(f"expected the end of the file after {len(keys)} lines")
                    got = add(record.streams[(lineno - 1) // n], line.decode("utf-8"))
                    key = f"env_seed {got.env_seed} episode_index {got.episode_index}"
                    if key != keys[lineno - 1]:
                        raise ValueError(f"expected {keys[lineno - 1]}, got {key}")
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        if lineno < len(keys):
            raise ValueError(
                f"{path}:{lineno + 1}: expected {keys[lineno]}, got the end of the file"
            )
    path = path.with_name("metrics.csv")
    with open(path, "rb") as fh:
        for lineno, (line, row) in enumerate(zip_longest(fh, metrics_lines(record)), start=1):
            if line != (row and row.encode("utf-8")):
                want = repr(row) if row else "the end of the file"
                raise ValueError(f"{path}:{lineno}: trajectories.jsonl gives {want} here")
    return record


def cumulative_average(rewards: list) -> list[float]:
    """Element tau is the mean of rewards[0..tau]."""
    if not rewards:
        raise ValueError("cumulative_average requires a non-empty series")
    out = []
    total = 0.0
    for tau, reward in enumerate(rewards):
        total += reward
        out.append(total / (tau + 1))
    return out


def mean_cumulative_average(record: RunRecord) -> list[float]:
    """Per-episode mean over envs of each env's cumulative average."""
    series = [cumulative_average(s.rewards) for s in record.streams]
    return [sum(col) / len(col) for col in zip(*series)]


def gain_over_baseline(method: RunRecord, baseline: RunRecord) -> list[float]:
    """Per-episode cumulative-average difference, averaged across envs; streams pair by seed.
    The two configs must be equal but for strategy, env_seeds in any order."""
    ours, theirs = (
        {**vars(run.config), "env_seeds": set(run.config.env_seeds), "strategy": None}
        for run in (method, baseline)
    )
    differ = sorted(name for name in ours if ours[name] != theirs[name])
    if differ:
        raise ValueError(
            "method and baseline runs must differ only in strategy; "
            f"they differ in {', '.join(differ)}"
        )
    base = {s.env_seed: cumulative_average(s.rewards) for s in baseline.streams}
    gains = [
        [x - y for x, y in zip(cumulative_average(s.rewards), base[s.env_seed])]
        for s in method.streams
    ]
    return [sum(col) / len(col) for col in zip(*gains)]


@dataclass
class ValidityFailure:
    env_seed: int
    goal: str
    workflow: str
    classification: str  # "agent_deviation" | "infeasible_step"


@dataclass
class ValidityReport:
    successes: int
    total: int
    failures: list[ValidityFailure] = field(default_factory=list)


def default_failure_classifier(trajectory: Trajectory) -> str:
    """Invalid executed steps point at an infeasible workflow step."""
    if any(not s.was_valid for s in trajectory.steps):
        return "infeasible_step"
    return "agent_deviation"


def validity_analysis(
    pools: dict[int, list[tuple[str, str]]],
    worlds: dict[int, GridWorld],
    backend_spec: str,
    n_samples: int,
    sample_seed: int = 0,
    horizon: int = 64,
) -> ValidityReport:
    """Run sampled (goal, workflow) pairs with the workflow injected into the
    system prompt and count how many reach their goal.

    pools maps env seed to that run's stored (goal, workflow) pairs. Pairs of
    one env share a backend: scripted replies depend only on the request and
    the reset world.
    """
    flat = [
        (env_seed, goal, workflow)
        for env_seed in sorted(pools)
        for goal, workflow in pools[env_seed]
    ]
    if not flat:
        return ValidityReport(successes=0, total=0)
    if len(flat) > n_samples:
        rng = SplitMix64(sample_seed)
        flat = [flat[i] for i in sorted(rng.sample(range(len(flat)), n_samples))]
    successes = 0
    failures = []
    backends = {}
    try:
        for env_seed, goal_text, workflow in flat:
            world = worlds[env_seed]
            reset(world)
            try:
                goal = parse_goal(goal_text)
                check_goal(world, goal)
            except ValueError:
                # hallucinated goal: nothing in the world can satisfy it
                failures.append(
                    ValidityFailure(
                        env_seed=env_seed,
                        goal=goal_text,
                        workflow=workflow,
                        classification="infeasible_step",
                    )
                )
                continue
            if env_seed not in backends:
                backends[env_seed] = make_backend(backend_spec, world)
            policy = ReactPolicy(
                backends[env_seed],
                horizon=horizon,
                memory_text=render_workflows([(canonical_goal(goal_text), workflow)]),
            )
            trajectory = run_episode(world, goal, policy, horizon)
            if trajectory.success:
                successes += 1
            else:
                failures.append(
                    ValidityFailure(
                        env_seed=env_seed,
                        goal=goal_text,
                        workflow=workflow,
                        classification=default_failure_classifier(trajectory),
                    )
                )
    finally:
        for backend in backends.values():
            backend.close()
    return ValidityReport(successes=successes, total=len(flat), failures=failures)


def load_validity_pools(record: RunRecord) -> dict[int, list[tuple[str, str]]]:
    """Final-episode (goal, workflow) pairs per env of a run, for the envs holding any."""
    workflows = get_strategy(record.config.strategy).workflows
    return {s.env_seed: pairs for s in record.streams if (pairs := workflows(s.memory))}


# ---------------------------------------------------------------------------
# SVG gain curves
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_gain_svg(curves: dict[str, list[float]], width: int = 640, height: int = 400) -> str:
    """Minimal deterministic SVG line chart of cumulative-average gains.

    Hand-rolled instead of a plotting library so output bytes are stable
    enough to pin in golden tests.
    """
    margin = 50
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    lows = [min(series) for series in curves.values() if series]
    highs = [max(series) for series in curves.values() if series]
    lo = min(lows + [0.0])
    hi = max(highs + [0.0])
    if hi == lo:
        hi = lo + 1.0
    n = max((len(s) for s in curves.values()), default=2)

    def sx(i: float) -> float:
        return margin + plot_w * (i / max(n - 1, 1))

    def sy(v: float) -> float:
        return margin + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{sy(0.0):.2f}" x2="{width - margin}" y2="{sy(0.0):.2f}" '
        'stroke="#888888" stroke-dasharray="4 4"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        'font-size="13">episode</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height // 2})">cumulative average reward gain</text>',
        f'<text x="{margin - 6}" y="{sy(lo):.2f}" text-anchor="end" font-size="11">{lo:.2f}</text>',
        f'<text x="{margin - 6}" y="{sy(hi):.2f}" text-anchor="end" font-size="11">{hi:.2f}</text>',
    ]
    for idx, (label, series) in enumerate(sorted(curves.items())):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(series))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 12}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
