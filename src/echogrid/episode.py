"""Episode execution loop, trajectory records, and JSONL (de)serialization.

Cross-episode information may only flow through a strategy's memory; within
an episode the policy sees the full history of observations, thoughts, and
actions so far. Episodes terminate immediately on success and never exceed
the horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Optional, Protocol

from .textview import Observation, render, render_goal
from .world import (
    ACTION_NAMES, Goal, GridWorld, canonical_json, check_goal, decode, goal_satisfied, step,
)

TRAJECTORY_SCHEMA_VERSION = 1


class PolicyError(Exception):
    """The policy could not produce an action (after any retries)."""


class Policy(Protocol):
    def begin_episode(self, goal_text: str) -> None: ...

    def decide(self, observation: Observation) -> tuple[str, int]: ...


@dataclass
class StepRecord:
    observation_text: str
    thought: str
    action_index: int
    was_valid: bool
    step_reward: int


@dataclass
class Trajectory:
    goal: Goal
    steps: list[StepRecord] = field(default_factory=list)
    success: bool = False
    reward: int = 0
    env_seed: int = 0
    episode_index: int = 0
    note: str = ""


def run_episode(
    world: GridWorld,
    goal: Goal,
    policy: Policy,
    horizon: int = 64,
    env_seed: int = 0,
    episode_index: int = 0,
) -> Trajectory:
    """Loop render -> decide -> step until the goal is held or the horizon ends.

    Policy failures abort the episode as a failure with a diagnostic note;
    they never raise out of this function. A goal naming no object of the
    world raises ValueError before the policy is asked. The caller resets
    the world.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_goal(world, goal)
    traj = Trajectory(goal=goal, env_seed=env_seed, episode_index=episode_index)
    policy.begin_episode(render_goal(goal))
    for _ in range(horizon):
        observation = render(world)
        try:
            thought, action = policy.decide(observation)
        except PolicyError as exc:
            traj.note = f"policy failure: {exc}"
            break
        world, valid = step(world, action)
        reward = 1 if goal_satisfied(world, goal) else 0
        traj.steps.append(
            StepRecord(
                observation_text=observation.text,
                thought=thought,
                action_index=action,
                was_valid=valid,
                step_reward=reward,
            )
        )
        if reward:
            traj.success = True
            traj.reward = 1
            break
    return traj


def format_trajectory(traj: Trajectory) -> str:
    """Plain-text transcript shown to offline reasoning calls."""
    lines = [f"Goal: {render_goal(traj.goal)}"]
    for i, rec in enumerate(traj.steps, start=1):
        lines.append(f"Step {i}")
        lines.append(f"Observation: {rec.observation_text}")
        lines.append(f"Thought: {rec.thought}")
        validity = "valid" if rec.was_valid else "invalid"
        lines.append(f"Action: {rec.action_index} ({ACTION_NAMES[rec.action_index]}) [{validity}]")
    if traj.success:
        lines.append(
            f"Outcome: SUCCESS. The goal was achieved at step {len(traj.steps)}. Final reward: 1."
        )
    else:
        lines.append(
            f"Outcome: FAILURE. The goal was not achieved within {len(traj.steps)} steps. "
            "Final reward: 0."
        )
    return "\n".join(lines)


def serialize(traj: Trajectory, step_json: Optional[dict[tuple, str]] = None) -> str:
    """One canonical JSONL record (no trailing newline) keyed by field name.

    Every byte comes from canonical_json: the record is encoded with no steps,
    and the steps' texts, joined, go in at its "steps":[] key, which is the
    only place that text can occur, since a JSON string holds no unescaped
    quote. step_json maps each step's field values to its canonical_json text;
    a caller that keeps it across the trajectories of one env stream encodes
    each distinct step of the stream once.
    """
    if step_json is None:
        step_json = {}
    texts = []
    for rec in traj.steps:
        key = (rec.observation_text, rec.thought, rec.action_index, rec.was_valid, rec.step_reward)
        text = step_json.get(key)
        if text is None:
            text = step_json[key] = canonical_json(rec)
        texts.append(text)
    head = canonical_json({"version": TRAJECTORY_SCHEMA_VERSION, **vars(traj), "steps": []})
    return head.replace('"steps":[]', '"steps":[' + ",".join(texts) + "]", 1)


def deserialize(record: str) -> Trajectory:
    """Trajectory of one record; unknown keys are ignored at every level."""
    try:
        doc = json.loads(record)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed trajectory record: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != TRAJECTORY_SCHEMA_VERSION:
        raise ValueError("unsupported or missing trajectory schema version")
    doc.setdefault("note", "")  # the one field a record may leave out
    try:
        traj = decode(Trajectory, doc, "record")
        for index, rec in enumerate(traj.steps):
            if not 0 <= rec.action_index < len(ACTION_NAMES):
                raise ValueError(
                    f"record.steps[{index}].action_index must be 0..{len(ACTION_NAMES) - 1}, "
                    f"got {rec.action_index}"
                )
    except ValueError as exc:
        raise ValueError(f"malformed trajectory record: {exc}") from None
    return traj


def read_trajectories(path) -> Iterator[Trajectory]:
    """Parse a JSONL log, reporting malformed lines with their line numbers."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield deserialize(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
