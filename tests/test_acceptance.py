"""Acceptance suite: one test per exit criterion, with its stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every check here is offline; the live backend is exercised by
no test in this package.
"""

import json
import time

from echogrid.harness import (
    RunConfig,
    cumulative_average,
    gain_over_baseline,
    load_validity_pools,
    read_run_dir,
    run_stream,
    validity_analysis,
)
from echogrid.lm import ParseError, parse_choice, parse_json_payload
from echogrid.oracle import bfs_plan
from echogrid.rng import SplitMix64
from echogrid.strategies import STRATEGIES, ReplayBuffer, update_rule
from echogrid.world import Goal, generate

from conftest import CannedBackend

PAPER_SCALE_SEEDS = tuple(range(10))


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_solvability_at_paper_scale():
    started = time.perf_counter()
    for seed in PAPER_SCALE_SEEDS:
        world = generate(seed)
        for obj in world.objects:
            plan = bfs_plan(world, Goal(obj.color, obj.kind))
            assert len(plan) <= 64, f"seed {seed}: {obj.color} {obj.kind} needs {len(plan)}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"solvability sweep took {elapsed:.2f}s"
    _ok(1, f"40 goals over 10 envs all solvable within 64 actions ({elapsed:.2f}s)")


def test_criterion_2_metric_exactness():
    started = time.perf_counter()
    rng = SplitMix64(42)
    worst = 0.0
    for _ in range(1000):
        series = [rng.randbelow(2) for _ in range(1 + rng.randbelow(64))]
        fast = cumulative_average(series)
        brute = [sum(series[: tau + 1]) / (tau + 1) for tau in range(len(series))]
        worst = max(worst, max(abs(a - b) for a, b in zip(fast, brute)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0, f"metric sweep took {elapsed:.2f}s"
    _ok(2, f"cumulative average matches brute force on 1000 series (max err {worst:.1e})")


def test_criterion_3_update_rule_fidelity():
    started = time.perf_counter()
    rng = SplitMix64(7)
    buffer = ReplayBuffer()
    lengths: dict[str, int] = {}
    for _ in range(10_000):
        goal = f"goal-{rng.randbelow(40)}"
        workflow = "w" * rng.randbelow(30)
        before = buffer.entries.get(goal)
        update_rule(buffer, goal, workflow)
        after = buffer.entries.get(goal)
        if before is not None:
            assert len(after) <= len(before), "stored length may never grow"
            if workflow and len(workflow) == len(before):
                assert after == before, "equal-length candidates never replace"
        if after is not None:
            if goal in lengths:
                assert len(after) <= lengths[goal]
            lengths[goal] = len(after)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"update-rule sweep took {elapsed:.2f}s"
    _ok(3, f"10,000 update-rule cases keep per-goal length non-increasing ({elapsed:.2f}s)")


def test_criterion_4_framework_call_counts():
    from echogrid.episode import StepRecord, Trajectory

    trajectory = Trajectory(
        goal=Goal("grey", "key"),
        steps=[StepRecord("obs", "think", 2, True, 0)],
    )

    backend = CannedBackend([json.dumps({"reflection": "note"})])
    STRATEGIES["reflexion"].after_episode(backend, trajectory, [])
    assert backend.calls == 1

    backend = CannedBackend([json.dumps({"goal": "g", "workflow": "w"})])
    STRATEGIES["awm"].after_episode(backend, trajectory, [])
    assert backend.calls == 1

    for n_goals in (0, 2, 5):
        script = [
            json.dumps({"0": "summary"}),
            json.dumps({"possible_goals": [f"Pick up the goal{i}" for i in range(n_goals)]}),
        ] + [
            json.dumps({"goal": f"Pick up the goal{i}", "workflow": f"w{i}"})
            for i in range(n_goals)
        ]
        backend = CannedBackend(script)
        STRATEGIES["echo"].after_episode(backend, trajectory, ReplayBuffer())
        assert backend.calls == 2 + n_goals, f"echo must spend 2 + {n_goals} calls"
    _ok(4, "call counts: reflexion 1, awm 1, echo 2 + |goals|")


def _paper_scale_config(strategy: str, backend: str) -> RunConfig:
    return RunConfig(
        env_seeds=PAPER_SCALE_SEEDS,
        episodes_per_env=16,
        horizon=64,
        strategy=strategy,
        backend=backend,
        goal_seed=0,
    )


def test_criterion_5_sample_efficiency_demonstration(tmp_path):
    started = time.perf_counter()
    echo = run_stream(
        _paper_scale_config("echo", "scripted:bfs-demo"), out_dir=tmp_path / "echo"
    )
    react = run_stream(
        _paper_scale_config("react", "scripted:bfs-demo"), out_dir=tmp_path / "react"
    )
    gain = gain_over_baseline(echo, react)
    elapsed = time.perf_counter() - started
    assert all(g > 0 for g in gain[3:]), f"gain series not positive from episode 3: {gain}"
    assert elapsed < 60.0, f"demonstration took {elapsed:.2f}s"
    _ok(
        5,
        "echo cumulative average strictly above react from episode 3 onward "
        f"(final mean gain {gain[-1]:.3f}, {elapsed:.1f}s, no network)",
    )


def test_criterion_6_validity_harness(tmp_path):
    config = _paper_scale_config("echo", "scripted:bfs-demo")
    run_stream(config, out_dir=tmp_path / "run")
    pools = load_validity_pools(read_run_dir(tmp_path / "run"))
    assert sum(len(p) for p in pools.values()) == 40, "4 workflows per env over 10 envs"
    worlds = {seed: generate(seed) for seed in PAPER_SCALE_SEEDS}
    report = validity_analysis(pools, worlds, "scripted:bfs-demo", n_samples=40)
    assert (report.successes, report.total) == (40, 40)
    # The reference live-model figure (85%, 34/40) needs a frontier LM and is
    # documented in the README as out of scope for CI.
    _ok(6, "BFS-backed workflows validate 40/40 (100%)")


def test_criterion_7_determinism(tmp_path):
    config = _paper_scale_config("echo", "scripted:bfs-demo")
    run_stream(config, out_dir=tmp_path / "a")
    run_stream(config, out_dir=tmp_path / "b")
    for name in ("trajectories.jsonl", "metrics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _ok(7, "identical configs produce byte-identical trajectories.jsonl and metrics.csv")


def test_criterion_8_parser_totality_and_goldens():
    pieces = (
        "{", "}", "[", "]", '"', "'", ":", ",", " ", "\n", "\\", "`",
        "null", "true", "false", "12", "-3", "0.5", "1e300", "NaN",
        "thought", "choice", "goal", "workflow", "possible_goals",
        '{"thought":', '"choice": 2}', '{"a": [1, {"b": 2}]}', "```json", "π∆", "\x00",
    )
    rng = SplitMix64(13)
    for _ in range(10_000):
        text = "".join(pieces[rng.randbelow(len(pieces))] for _ in range(rng.randbelow(24)))
        for call in (
            lambda: parse_choice(text),
            lambda: parse_json_payload(text, {"goal": str, "workflow": str}),
        ):
            try:
                call()
            except ParseError:
                pass  # the one permitted failure mode

    assert parse_choice('{"thought": "go to door", "choice": 2}') == ("go to door", 2)
    awm_failure = parse_json_payload(
        '{\n  "goal": "Pick up grey key.",\n  "workflow": ""\n}',
        {"goal": str, "workflow": str},
    )
    assert awm_failure == {"goal": "Pick up grey key.", "workflow": ""}
    workflow = parse_json_payload(
        '{\n  "goal": "Pick up the grey star",\n  "workflow": "Step 1: Navigate north '
        "from the starting location. Step 2: Move towards the grey star located to the "
        'northeast. Step 3: Pick up the grey star."\n}',
        {"goal": str, "workflow": str},
    )
    assert workflow["goal"] == "Pick up the grey star"
    assert workflow["workflow"].endswith("Pick up the grey star.")
    _ok(8, "10,000 fuzzed texts never crash; all three golden payloads parse")


def test_criterion_9_live_mode_exists_but_is_not_a_target(monkeypatch):
    """Headline live-model numbers are reference points, not gates."""
    from echogrid.harness import make_backend
    from echogrid.lm import ENV_API_KEY, ENV_BASE_URL, ENV_MODEL, BackendError, LiveBackend

    try:
        make_backend("live", generate(0))
    except BackendError as exc:
        assert "requires" in str(exc), "live mode exists and asks for configuration"
    for name, value in ((ENV_BASE_URL, "http://127.0.0.1:9"), (ENV_API_KEY, "k"), (ENV_MODEL, "m")):
        monkeypatch.setenv(name, value)
    assert isinstance(make_backend("live", generate(0)), LiveBackend), "built without a request"
    _ok(9, "live mode present and optional; no test depends on it")
