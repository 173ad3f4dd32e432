"""Episode loop contracts and trajectory serialization."""

import json
from dataclasses import astuple

import pytest

from echogrid.episode import (
    PolicyError,
    StepRecord,
    Trajectory,
    deserialize,
    format_trajectory,
    read_trajectories,
    run_episode,
    serialize,
)
from echogrid.oracle import OracleBackend, bfs_plan
from echogrid.policy import ReactPolicy
from echogrid.rng import SplitMix64
from echogrid.world import COLORS, KINDS, Goal, canonical_json, copy_world, reset

from conftest import CannedBackend


class TurnLeftPolicy:
    def begin_episode(self, goal_text):
        pass

    def decide(self, observation):
        return "spinning", 0


class FailingPolicy:
    def begin_episode(self, goal_text):
        pass

    def decide(self, observation):
        raise PolicyError("backend unreachable")


def _goal(world, index=0) -> Goal:
    obj = world.objects[index]
    return Goal(obj.color, obj.kind)


def test_oracle_policy_succeeds_within_horizon(bench_worlds):
    for world in bench_worlds:
        goal = _goal(world, 1)
        traj = run_episode(reset(copy_world(world)), goal, ReactPolicy(OracleBackend(world)))
        assert traj.success
        assert traj.reward == 1
        assert len(traj.steps) <= 64


def test_steps_match_bfs_plan_length(world7):
    for index in range(4):
        goal = _goal(world7, index)
        plan = bfs_plan(world7, goal)
        traj = run_episode(reset(copy_world(world7)), goal, ReactPolicy(OracleBackend(world7)))
        assert len(traj.steps) == len(plan), "early termination right at the pick up"


def test_turn_left_policy_exhausts_horizon(world7):
    traj = run_episode(reset(copy_world(world7)), _goal(world7), TurnLeftPolicy())
    assert not traj.success
    assert traj.reward == 0
    assert len(traj.steps) == 64


def test_no_steps_after_success(world7):
    goal = _goal(world7)
    traj = run_episode(reset(copy_world(world7)), goal, ReactPolicy(OracleBackend(world7)))
    assert traj.steps[-1].step_reward == 1
    assert all(s.step_reward == 0 for s in traj.steps[:-1])
    assert traj.reward == max(s.step_reward for s in traj.steps)


def test_policy_failure_aborts_episode_as_failure(world7):
    traj = run_episode(reset(copy_world(world7)), _goal(world7), FailingPolicy())
    assert not traj.success
    assert traj.steps == []
    assert "backend unreachable" in traj.note


def test_horizon_validation(world7):
    with pytest.raises(ValueError):
        run_episode(copy_world(world7), _goal(world7), TurnLeftPolicy(), horizon=0)


def test_absent_goal_raises_before_the_policy_is_asked(world7):
    asked = []

    class RecordingPolicy:
        def begin_episode(self, goal_text):
            asked.append(goal_text)

        def decide(self, observation):
            asked.append(observation)
            return "spinning", 0

    present = {(o.color, o.kind) for o in world7.objects}
    absent = next(
        Goal(color, kind) for kind in KINDS for color in COLORS if (color, kind) not in present
    )
    with pytest.raises(ValueError, match="goal names an absent object"):
        run_episode(reset(copy_world(world7)), absent, RecordingPolicy())
    assert asked == []


def test_oracle_trajectory_deterministic(world7):
    goal = _goal(world7, 2)
    world = copy_world(world7)
    first = run_episode(reset(world), goal, ReactPolicy(OracleBackend(world7)))
    second = run_episode(reset(world), goal, ReactPolicy(OracleBackend(world7)))
    assert serialize(first) == serialize(second)


def _random_trajectory(rng: SplitMix64) -> Trajectory:
    colors = ("red", "green", "blue", "purple", "yellow", "grey")
    kinds = ("key", "ball", "box", "star", "hexagon", "square")
    n_steps = rng.randbelow(6)
    success = rng.randbelow(2) == 1 and n_steps > 0
    steps = [
        StepRecord(
            observation_text=f"obs {rng.randbelow(1000)}",
            thought=f"thought {rng.randbelow(1000)}",
            action_index=rng.randbelow(6),
            was_valid=rng.randbelow(2) == 1,
            step_reward=0,
        )
        for _ in range(n_steps)
    ]
    if success:
        steps[-1].step_reward = 1
    return Trajectory(
        goal=Goal(colors[rng.randbelow(6)], kinds[rng.randbelow(6)]),
        steps=steps,
        success=success,
        reward=1 if success else 0,
        env_seed=rng.randbelow(100),
        episode_index=rng.randbelow(16),
        note="" if rng.randbelow(2) else "diagnostic",
    )


def _fuzzed_corpus(seed: int) -> list[Trajectory]:
    rng = SplitMix64(seed)
    return [_random_trajectory(rng) for _ in range(100)]


def test_serialize_roundtrip_fuzzed():
    for traj in _fuzzed_corpus(2024):
        assert deserialize(serialize(traj)) == traj


def _edge_trajectories() -> list[Trajectory]:
    """Records whose text could be mistaken for the "steps":[] key, and step lists
    that are empty, one step repeated, steps shared between trajectories, or
    steps that differ in one field."""
    tricky = 'a "steps":[] key, a "quote", a back\\slash \\" and \u00e9\u6f22\U0001f600 \\'
    goal = Goal("red", "key")
    odd = StepRecord(tricky, tricky, 2, False, 0)
    shared = [StepRecord("obs a", "left", 0, True, 0), StepRecord("obs b", "up", 2, False, 0)]
    return [
        Trajectory(goal=goal, steps=[odd], note=tricky),
        Trajectory(goal=goal, note='"steps":[]'),
        Trajectory(goal=goal, steps=[StepRecord("obs c", "spin", 0, True, 0)] * 64, note="x"),
        Trajectory(
            goal=goal, steps=[*shared, StepRecord("obs d", "pick", 3, True, 1)],
            success=True, reward=1, env_seed=5, episode_index=1,
        ),
        Trajectory(goal=goal, steps=[shared[1], odd, shared[0]], env_seed=5, episode_index=2),
        Trajectory(  # steps that differ in one field each
            goal=goal,
            steps=[
                StepRecord(*fields)
                for fields in (
                    ("obs e", "t", 0, True, 0), ("obs f", "t", 0, True, 0),
                    ("obs e", "u", 0, True, 0), ("obs e", "t", 1, True, 0),
                    ("obs e", "t", 0, False, 0), ("obs e", "t", 0, True, 1),
                )
            ],
        ),
    ]


def test_serialize_with_a_shared_step_dict_changes_no_byte():
    """serialize's steps spliced from a step_json dict shared by every record give
    the line one canonical_json call gives for the whole record, and so does
    serialize with no dict; the dict keeps one text per distinct step."""
    corpus = _fuzzed_corpus(2024) + _edge_trajectories()
    step_json = {}
    for traj in corpus:
        oracle = canonical_json({"version": 1, **vars(traj)})
        assert serialize(traj, step_json) == oracle
        assert serialize(traj) == oracle
    distinct = {astuple(rec) for traj in corpus for rec in traj.steps}
    assert len(step_json) == len(distinct)


def test_serialization_byte_stable():
    corpus = _fuzzed_corpus(99)
    first = [serialize(t) for t in corpus]
    second = [serialize(deserialize(line)) for line in first]
    assert first == second


def test_empty_steps_trajectory_serializes():
    traj = Trajectory(goal=Goal("grey", "key"))
    assert deserialize(serialize(traj)) == traj


def test_malformed_lines_report_line_numbers(tmp_path):
    path = tmp_path / "trajectories.jsonl"
    good = serialize(Trajectory(goal=Goal("grey", "key")))
    path.write_text(good + "\n{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"trajectories\.jsonl:2"):
        list(read_trajectories(path))


_RECORD = serialize(
    Trajectory(
        goal=Goal("grey", "key"),
        steps=[StepRecord("obs", "thought", 3, True, 1)],
        success=True,
        reward=1,
        env_seed=5,
        episode_index=2,
        note="n",
    )
)


def _edited(edit) -> str:
    doc = json.loads(_RECORD)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit, note",
    [
        pytest.param(lambda d: d.pop("note"), "", id="no_note"),
        pytest.param(lambda d: d.update(extra=1), "n", id="unknown_top_key"),
        pytest.param(lambda d: d["steps"][0].update(extra=1), "n", id="unknown_step_key"),
        pytest.param(lambda d: d["goal"].update(extra=1), "n", id="unknown_goal_key"),
    ],
)
def test_deserialize_accepts(edit, note):
    """A record without note reads as ""; unknown keys are ignored at every level."""
    traj = deserialize(_edited(edit))
    assert traj.note == note
    traj.note = "n"
    assert traj == deserialize(_RECORD)


_TRAJECTORY_KEYS = ("goal", "steps", "success", "reward", "env_seed", "episode_index")
_STEP_KEYS = ("observation_text", "thought", "action_index", "was_valid", "step_reward")


@pytest.mark.parametrize(
    "edit",
    [
        *[pytest.param(lambda d, k=k: d.pop(k), id=f"no_{k}") for k in _TRAJECTORY_KEYS],
        *[
            pytest.param(lambda d, k=k: d["steps"][0].pop(k), id=f"step_no_{k}")
            for k in _STEP_KEYS
        ],
        pytest.param(lambda d: d["goal"].pop("color"), id="goal_no_color"),
        pytest.param(lambda d: d["steps"].append(3), id="step_int"),
        pytest.param(lambda d: d["steps"].append("step"), id="step_str"),
        *[
            pytest.param(lambda d, k=k, v=v: d["steps"][0].update({k: v}), id=name)
            for name, k, v in (
                ("step_action_9", "action_index", 9),
                ("step_action_negative", "action_index", -1),
                ("step_action_bool", "action_index", True),
                ("step_action_str", "action_index", "3"),
                ("step_action_float", "action_index", 3.0),
                ("step_was_valid_int", "was_valid", 1),
                ("step_reward_bool", "step_reward", True),
                ("step_reward_str", "step_reward", "1"),
                ("step_observation_int", "observation_text", 3),
                ("step_thought_null", "thought", None),
            )
        ],
        *[
            pytest.param(lambda d, k=k, v=v: d.update({k: v}), id=name)
            for name, k, v in (
                ("success_int", "success", 1),
                ("reward_bool", "reward", True),
                ("env_seed_str", "env_seed", "5"),
                ("env_seed_float", "env_seed", 5.0),
                ("episode_index_null", "episode_index", None),
                ("note_int", "note", 5),
                ("goal_int", "goal", 3),
                ("goal_list", "goal", ["grey", "key"]),
                ("steps_object", "steps", {}),
            )
        ],
        pytest.param(lambda d: d["goal"].update(color=5), id="goal_color_int"),
        pytest.param(lambda d: d["goal"].update(kind=None), id="goal_kind_null"),
    ],
)
def test_deserialize_rejects(tmp_path, capsys, edit):
    """Each malformed record raises ValueError, and replay exits 1 naming file:line."""
    from echogrid.cli import main

    record = _edited(edit)
    with pytest.raises(ValueError, match="malformed trajectory record"):
        deserialize(record)
    path = tmp_path / "trajectories.jsonl"
    path.write_text(f"{_RECORD}\n{record}\n", encoding="utf-8")
    assert main(["replay", "--trajectory", str(path)]) == 1
    assert f"{path}:2: malformed trajectory record" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, detail",
    [
        pytest.param(
            lambda d: d["steps"][0].update(action_index=9),
            "record.steps[0].action_index must be 0..5, got 9",
            id="action_9",
        ),
        pytest.param(
            lambda d: d["steps"][0].update(was_valid=1),
            "record.steps[0].was_valid must be bool, got int",
            id="was_valid_int",
        ),
        pytest.param(
            lambda d: d["steps"].append("step"),
            "record.steps[1] must be object, got str",
            id="step_str",
        ),
        pytest.param(
            lambda d: d["steps"][0].pop("thought"),
            "record.steps[0].thought is missing",
            id="no_thought",
        ),
        pytest.param(
            lambda d: d.update(env_seed=True),
            "record.env_seed must be int, got bool",
            id="env_seed_bool",
        ),
        pytest.param(
            lambda d: d["goal"].update(kind=5),
            "record.goal.kind must be str, got int",
            id="goal_kind_int",
        ),
    ],
)
def test_deserialize_names_the_field_at_fault(edit, detail):
    with pytest.raises(ValueError) as excinfo:
        deserialize(_edited(edit))
    assert str(excinfo.value) == f"malformed trajectory record: {detail}"


def test_deserialize_rejects_bad_version():
    with pytest.raises(ValueError, match="version"):
        deserialize('{"version": 999}')
    with pytest.raises(ValueError):
        deserialize("")


def test_policy_retry_with_reminder_attributes_calls(world7):
    """A garbled first reply costs one extra call on that same step."""
    from echogrid.policy import ReactPolicy
    from echogrid.prompts import PARSE_REMINDER

    backend = CannedBackend(
        ["not parseable at all", '{"thought": "ok now", "choice": 0}']
    )
    policy = ReactPolicy(backend, horizon=4)
    policy.begin_episode("Pick up the grey key")
    from echogrid.textview import render

    thought, choice = policy.decide(render(world7))
    assert (thought, choice) == ("ok now", 0)
    assert policy.calls_per_step == [2], "both calls attribute to one step"
    assert backend.requests[1].messages[-1]["content"] == PARSE_REMINDER


def test_policy_aborts_after_second_parse_failure(world7):
    from echogrid.policy import ReactPolicy
    from echogrid.textview import render

    backend = CannedBackend(["garbage one", "garbage two"])
    policy = ReactPolicy(backend, horizon=4)
    policy.begin_episode("Pick up the grey key")
    with pytest.raises(PolicyError, match="unparseable"):
        policy.decide(render(world7))


def test_format_trajectory_transcript(world7):
    goal = _goal(world7)
    traj = run_episode(reset(copy_world(world7)), goal, ReactPolicy(OracleBackend(world7)))
    transcript = format_trajectory(traj)
    assert transcript.startswith(f"Goal: Pick up the {goal.color} {goal.kind}")
    assert "Outcome: SUCCESS" in transcript
    assert transcript.count("Observation: ") == len(traj.steps)
    failed = run_episode(reset(copy_world(world7)), goal, TurnLeftPolicy())
    assert "Outcome: FAILURE" in format_trajectory(failed)
