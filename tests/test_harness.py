"""Runner determinism, metrics exactness, and the validity analysis."""

import json
import math

import pytest

from echogrid.harness import (
    RunConfig,
    RunRecord,
    StreamResult,
    cumulative_average,
    default_failure_classifier,
    gain_over_baseline,
    load_validity_pools,
    make_backend,
    mean_cumulative_average,
    read_run_dir,
    render_gain_svg,
    run_stream,
    sample_goals,
    validity_analysis,
    write_run_dir,
)
from echogrid.episode import StepRecord, Trajectory
from echogrid.rng import SplitMix64
from echogrid.strategies import STRATEGIES
from echogrid.textview import render_goal
from echogrid.world import Goal, generate


def test_sample_goals_membership_and_determinism(world7):
    goals = sample_goals(world7, 16, seed=5)
    assert len(goals) == 16
    pool = {(o.color, o.kind) for o in world7.objects}
    assert all((g.color, g.kind) in pool for g in goals)
    assert goals == sample_goals(world7, 16, seed=5)
    assert goals != sample_goals(world7, 16, seed=6)


def test_sample_goals_uniform_chi_square(world7):
    """1000 draws: frequencies within 3 sigma of uniform and chi-square sane."""
    n = 1000
    goals = sample_goals(world7, n, seed=11)
    counts = {}
    for goal in goals:
        counts[(goal.color, goal.kind)] = counts.get((goal.color, goal.kind), 0) + 1
    expected = n / 4
    sigma = math.sqrt(n * 0.25 * 0.75)
    for value in counts.values():
        assert abs(value - expected) <= 3 * sigma
    chi_square = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi_square < 16.27, "chi-square above the 0.1% critical value for df=3"


def test_sample_goals_requires_objects(world7):
    import dataclasses

    empty = dataclasses.replace(world7, objects=[])
    with pytest.raises(ValueError):
        sample_goals(empty, 4, seed=0)


def test_cumulative_average_examples():
    assert cumulative_average([1, 0, 1]) == [1.0, 0.5, 2 / 3]
    assert cumulative_average([0, 0, 0]) == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        cumulative_average([])


def test_cumulative_average_matches_brute_force():
    rng = SplitMix64(1234)
    for _ in range(50):
        series = [rng.randbelow(2) for _ in range(64)]
        fast = cumulative_average(series)
        brute = [sum(series[: tau + 1]) / (tau + 1) for tau in range(len(series))]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(fast, brute))


def test_gain_over_baseline_contracts():
    base = dict(goal_seed=3, episodes_per_env=4)
    a = _record("echo", {0: [1, 1, 0, 1], 1: [0, 1, 1, 1]}, **base)
    b = _record("react", {0: [0, 0, 0, 0], 1: [0, 0, 0, 0]}, **base)
    assert gain_over_baseline(a, a) == [0.0, 0.0, 0.0, 0.0]
    ones = _record("echo", {0: [1] * 4, 1: [1] * 4}, **base)
    assert gain_over_baseline(ones, b) == [1.0, 1.0, 1.0, 1.0]
    # hand-computed fixture
    gain = gain_over_baseline(a, b)
    expected = [
        (1 / 1 + 0 / 1) / 2,
        (2 / 2 + 1 / 2) / 2,
        (2 / 3 + 2 / 3) / 2,
        (3 / 4 + 3 / 4) / 2,
    ]
    assert all(abs(x - y) <= 1e-12 for x, y in zip(gain, expected))


def test_gain_over_baseline_rejects_mismatches():
    a = _record("echo", {0: [1, 0]}, goal_seed=1, episodes_per_env=2)
    wrong_envs = _record("react", {1: [0, 0]}, goal_seed=1, episodes_per_env=2)
    wrong_seed = _record("react", {0: [0, 0]}, goal_seed=2, episodes_per_env=2)
    with pytest.raises(ValueError, match="differ in env_seeds$"):
        gain_over_baseline(a, wrong_envs)
    with pytest.raises(ValueError, match="differ in goal_seed$"):
        gain_over_baseline(a, wrong_seed)


def _record(strategy, rewards, goal_seed, episodes_per_env):
    config = RunConfig(
        env_seeds=tuple(rewards), episodes_per_env=episodes_per_env, strategy=strategy,
        goal_seed=goal_seed,
    )
    return RunRecord(
        config, [StreamResult(seed, goals=["g"] * len(r), rewards=r) for seed, r in rewards.items()]
    )


def _config(**overrides):
    defaults = dict(
        env_seeds=(0, 1),
        episodes_per_env=4,
        horizon=64,
        strategy="react",
        backend="scripted:turn-left",
        goal_seed=0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_run_stream_react_keeps_memory_empty(tmp_path):
    out = tmp_path / "run"
    record = run_stream(_config(), out_dir=out)
    assert all(s.rewards == [0, 0, 0, 0] for s in record.streams)
    lines = (out / "memory.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"env_seed": env_seed, "episode_index": episode, "memory": {"kind": "none"}}
        for env_seed in (0, 1)
        for episode in range(4)
    ]


def test_run_stream_oracle_backend_all_rewards_one():
    record = run_stream(_config(backend="scripted:oracle"))
    assert all(s.rewards == [1, 1, 1, 1] for s in record.streams)


def test_run_stream_echo_demo_gain_after_episode_three():
    config = _config(
        env_seeds=tuple(range(4)), episodes_per_env=8, strategy="echo",
        backend="scripted:bfs-demo",
    )
    echo = run_stream(config)
    react = run_stream(
        _config(env_seeds=tuple(range(4)), episodes_per_env=8, backend="scripted:bfs-demo")
    )
    gain = gain_over_baseline(echo, react)
    assert all(g > 0 for g in gain[3:]), "gain positive from episode index 3 on"
    for stream in echo.streams:
        series = cumulative_average(stream.rewards)
        assert all(b >= a for a, b in zip(series[3:], series[4:])), (
            "cumulative average non-decreasing after episode 3"
        )


def test_run_stream_goal_sequences_shared_across_strategies():
    a = run_stream(_config())
    b = run_stream(_config(strategy="echo", backend="scripted:bfs-demo"))
    assert [s.goals for s in a.streams] == [s.goals for s in b.streams], (
        "baseline pairing requires identical goal draws"
    )


def test_run_stream_deterministic_outputs(tmp_path):
    """The worker count changes no output file, config.json and memory.jsonl included."""
    for workers, name in ((2, "a"), (1, "b")):
        config = _config(strategy="echo", backend="scripted:bfs-demo")
        run_stream(config, out_dir=tmp_path / name, workers=workers)

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))}

    a, b = files(tmp_path / "a"), files(tmp_path / "b")
    assert "config.json" in a and any(name.startswith("memory") for name in a)
    assert a == b


def test_run_stream_accounting(monkeypatch):
    """Backend-recorded calls equal agent steps plus strategy calls (no retries)."""
    from echogrid import harness

    backends = []
    real_make_backend = harness.make_backend

    def recording_make_backend(spec, world, mirror_path=None):
        backends.append(real_make_backend(spec, world, mirror_path))
        return backends[-1]

    monkeypatch.setattr(harness, "make_backend", recording_make_backend)
    for strategy in ("react", "reflexion", "awm", "echo"):
        backends.clear()
        config = _config(strategy=strategy, backend="scripted:bfs-demo")
        stream = harness.run_env_stream(config, env_seed=0)
        [backend] = backends
        assert backend.calls == sum(stream.steps) + stream.strategy_calls
        assert (stream.strategy_calls > 0) == (strategy != "react")


def test_run_stream_out_of_range_choice_fails_episodes(tmp_path, monkeypatch):
    """An agent that always answers choice 9 fails each episode; the run still finishes."""
    from echogrid import harness
    from echogrid.episode import read_trajectories
    from echogrid.oracle import TurnLeftBackend

    class ChoiceNineBackend(TurnLeftBackend):
        def _on_agent(self, request):
            return json.dumps({"thought": "t", "choice": 9})

    monkeypatch.setattr(
        harness, "make_backend", lambda spec, world, mirror_path=None: ChoiceNineBackend()
    )
    run_stream(_config(strategy="reflexion"), out_dir=tmp_path)
    trajectories = list(read_trajectories(tmp_path / "trajectories.jsonl"))
    assert len(trajectories) == 8
    for trajectory in trajectories:
        assert trajectory.steps == []
        assert trajectory.note.startswith("policy failure: unparseable reply after retry")


def test_failed_transcript_states_the_steps_run(monkeypatch):
    """A reflexion run at horizon 8 reflects on a transcript that says 8 steps, not 64."""
    from echogrid import harness
    from echogrid.prompts import classify_request

    backends = []
    real_make_backend = harness.make_backend

    def recording_make_backend(spec, world, mirror_path=None):
        backends.append(real_make_backend(spec, world, mirror_path))
        return backends[-1]

    monkeypatch.setattr(harness, "make_backend", recording_make_backend)
    run_stream(_config(strategy="reflexion", env_seeds=(0,), episodes_per_env=1, horizon=8))
    reflects = [r for r in backends[0].requests if classify_request(r) == "reflect"]
    assert len(reflects) == 1
    transcript = reflects[0].messages[-1]["content"]
    assert "The goal was not achieved within 8 steps." in transcript


def test_run_stream_default_workers_capped(monkeypatch):
    from echogrid import harness

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return []

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    run_stream(_config(env_seeds=tuple(range(20))))
    run_stream(_config(env_seeds=(0, 1, 2)))
    assert seen == [8, 3]


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_run_dir_reads_back_to_its_own_bytes(tmp_path, strategy):
    """read_run_dir gives back the run run_stream wrote, strategy_calls aside
    (a run dir does not keep them), and write_run_dir of it rewrites the same bytes."""
    config = _config(strategy=strategy, backend="scripted:bfs-demo", env_seeds=(2, 0, 1))
    record = run_stream(config, out_dir=tmp_path / "run")
    loaded = read_run_dir(tmp_path / "run")
    assert loaded.strategy_calls == 0
    for stream in record.streams:
        stream.strategy_calls = 0
    assert loaded == record
    write_run_dir(tmp_path / "again", loaded)
    files = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "again").iterdir())
    for name in files:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_config_json_roundtrip():
    config = _config(strategy="awmpp", goal_seed=17)
    assert RunConfig.from_json(config.to_json()) == config


def test_validity_analysis_bfs_backed_is_perfect(tmp_path):
    config = _config(
        env_seeds=(0, 1, 2), episodes_per_env=3, strategy="echo", backend="scripted:bfs-demo"
    )
    run_stream(config, out_dir=tmp_path / "run")
    pools = load_validity_pools(read_run_dir(tmp_path / "run"))
    assert pools, "echo stored workflows"
    worlds = {seed: generate(seed) for seed in (0, 1, 2)}
    report = validity_analysis(pools, worlds, "scripted:bfs-demo", n_samples=40)
    assert report.total == sum(len(p) for p in pools.values())
    assert report.successes == report.total
    assert report.failures == []


def test_validity_analysis_builds_one_backend_per_env(tmp_path, monkeypatch):
    """Pairs of one env share a backend, and the report equals one built with a
    fresh backend per pair (each pair validated on its own)."""
    from echogrid import harness
    from echogrid.world import COLORS, KINDS

    config = _config(
        env_seeds=(0, 1, 2), episodes_per_env=3, strategy="echo", backend="scripted:bfs-demo"
    )
    run_stream(config, out_dir=tmp_path / "run")
    pools = load_validity_pools(read_run_dir(tmp_path / "run"))
    worlds = {seed: generate(seed) for seed in (0, 1, 2)}
    # Add a pair that deviates (a valid route that stops short) and, for env 1,
    # a hallucinated goal, so the report holds both failure classes.
    goal = render_goal(Goal(worlds[0].objects[0].color, worlds[0].objects[0].kind))
    pools[0].append(
        (goal, f"Step 1: From the starting position, follow this route: turn left. Step 2: {goal}.")
    )
    present = {(o.color, o.kind) for o in worlds[1].objects}
    absent = next((c, k) for k in KINDS for c in COLORS if (c, k) not in present)
    pools[1].append((f"Pick up the {absent[0]} {absent[1]}", "Step 1: wander."))

    expected = harness.ValidityReport(successes=0, total=0)
    for env_seed in sorted(pools):
        for pair in pools[env_seed]:
            one = validity_analysis({env_seed: [pair]}, worlds, "scripted:bfs-demo", n_samples=1)
            expected.successes += one.successes
            expected.total += one.total
            expected.failures += one.failures

    built = []
    real_make_backend = harness.make_backend

    def recording_make_backend(spec, world, mirror_path=None):
        built.append(world.seed)
        return real_make_backend(spec, world, mirror_path)

    monkeypatch.setattr(harness, "make_backend", recording_make_backend)
    report = validity_analysis(pools, worlds, "scripted:bfs-demo", n_samples=40)
    assert built == [0, 1, 2]
    assert report == expected
    assert sorted(f.classification for f in report.failures) == [
        "agent_deviation", "infeasible_step",
    ]


def test_validity_analysis_nothing_to_validate():
    report = validity_analysis({}, {}, "scripted:bfs-demo", n_samples=40)
    assert report.total == 0


def test_validity_analysis_sampling_is_deterministic(tmp_path):
    config = _config(
        env_seeds=(0, 1, 2), episodes_per_env=2, strategy="echo", backend="scripted:bfs-demo"
    )
    run_stream(config, out_dir=tmp_path / "run")
    pools = load_validity_pools(read_run_dir(tmp_path / "run"))
    worlds = {seed: generate(seed) for seed in (0, 1, 2)}
    first = validity_analysis(pools, worlds, "scripted:bfs-demo", n_samples=5, sample_seed=3)
    second = validity_analysis(pools, worlds, "scripted:bfs-demo", n_samples=5, sample_seed=3)
    assert first.total == second.total == 5
    assert first.successes == second.successes


def test_validity_analysis_classifies_infeasible_workflow():
    """A workflow that marches into a wall fails as infeasible_step."""
    world = generate(0)
    goal = Goal(world.objects[0].color, world.objects[0].kind)
    bogus = (
        "Step 1: From the starting position, follow this route: "
        "go forward, go forward, go forward, go forward, go forward, go forward, "
        "go forward, go forward, go forward, go forward, go forward, pick up. "
        f"Step 2: {render_goal(goal)}."
    )
    pools = {0: [(render_goal(goal), bogus)]}
    report = validity_analysis(pools, {0: world}, "scripted:bfs-demo", n_samples=1)
    assert report.successes == 0
    assert report.failures[0].classification == "infeasible_step"


def test_validity_analysis_hallucinated_goal_is_infeasible():
    from echogrid.world import COLORS, KINDS

    world = generate(0)
    present = {(o.color, o.kind) for o in world.objects}
    color, kind = next(
        (c, k) for k in KINDS for c in COLORS if (c, k) not in present
    )
    absent = f"Pick up the {color} {kind}"
    report = validity_analysis(
        {0: [(absent, "Step 1: wander.")]}, {0: world}, "scripted:bfs-demo", n_samples=1
    )
    assert report.successes == 0
    assert report.failures[0].classification == "infeasible_step"


def test_default_failure_classifier():
    deviation = Trajectory(goal=Goal("grey", "key"), steps=[
        StepRecord("o", "t", 0, True, 0)
    ])
    infeasible = Trajectory(goal=Goal("grey", "key"), steps=[
        StepRecord("o", "t", 2, False, 0)
    ])
    assert default_failure_classifier(deviation) == "agent_deviation"
    assert default_failure_classifier(infeasible) == "infeasible_step"


def test_make_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("scripted:nonsense", generate(0))


def test_render_gain_svg_deterministic():
    curves = {"echo": [0.0, 0.25, 0.5], "awm": [0.0, 0.0, 0.1]}
    first = render_gain_svg(curves)
    assert first == render_gain_svg(curves)
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert "polyline" in first


def test_mean_cumulative_average():
    record = _record("echo", {0: [1, 1], 1: [0, 1]}, goal_seed=0, episodes_per_env=2)
    assert mean_cumulative_average(record) == [0.5, 0.75]
