"""Memory strategies: one (hindsight rule, memory kind) row per strategy.

A hindsight rule turns a finished trajectory into memory candidates; the
memory kind fixes the update rule that merges them and how the memory is
rendered into the acting agent's system prompt. after_episode is the only
cross-episode information channel.

  react      no hindsight rule, no memory
  reflexion  one reflect call; appends the note to a semantic list
  awm        one call; appends (goal, workflow) to a workflow log only when
             the model judges the episode successful (duplicates allowed)
  awmpp      awm's hindsight rule with the goal-keyed replay buffer
  echo       three offline calls (summarize, identify_goals, then one
             infer_traj per proposed goal) into the replay buffer, which
             keeps the shorter workflow on collision
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import prompts
from .episode import Trajectory, format_trajectory
from .lm import LMBackend, LMRequest, ParseError, parse_json_payload, parse_summary
from .textview import canonical_goal
from .world import decode

logger = logging.getLogger(__name__)

MAX_GOALS_PER_EPISODE = 8  # cost bound on one hindsight pass


@dataclass
class ReplayBuffer:
    """Goal-keyed workflow store; per goal, stored length never increases."""

    entries: dict[str, str] = field(default_factory=dict)  # insertion-ordered

    def __len__(self) -> int:
        return len(self.entries)


def update_rule(buffer: ReplayBuffer, goal: str, new_workflow: str) -> ReplayBuffer:
    """Insert if absent; replace only when strictly shorter (character count).

    Empty workflows are rejected as no-ops, so the buffer never stores one.
    """
    if not new_workflow:
        return buffer
    goal = canonical_goal(goal)
    old = buffer.entries.get(goal)
    if old is None or len(new_workflow) < len(old):
        buffer.entries[goal] = new_workflow
    return buffer


def _ask(
    backend: LMBackend, stage: str, system_prompt: str, user_text: str, keys: Optional[dict] = None
):
    """One offline call, parsed for keys (or as a summary when keys is None).

    A reply that does not parse is logged and yields None.
    """
    reply = backend.complete(
        LMRequest(system_prompt=system_prompt, messages=[{"role": "user", "content": user_text}])
    )
    try:
        return parse_summary(reply) if keys is None else parse_json_payload(reply, keys)
    except ParseError as exc:
        logger.warning("%s parse failure: %s", stage, exc)
        return None


def echo_hindsight(backend: LMBackend, trajectory: Trajectory) -> Iterator[tuple[str, str]]:
    """Hindsight pass over any finished episode, success or failure.

    summarize -> identify_goals -> infer_traj per goal. An empty goal list is
    an abstention. A parse failure skips that stage's products.
    """
    summary = _ask(backend, "echo summarize", prompts.ECHO_SUMMARIZE, format_trajectory(trajectory))
    if summary is None:
        return
    proposed = _ask(
        backend, "echo identify_goals", prompts.ECHO_IDENTIFY_GOALS,
        f"Trajectory summary:\n{summary}", {"possible_goals": list},
    )
    if proposed is None:
        return
    for goal_text in proposed["possible_goals"][:MAX_GOALS_PER_EPISODE]:
        payload = _ask(
            backend, f"echo infer_traj for {goal_text!r}", prompts.ECHO_INFER_TRAJ,
            f"Goal: {goal_text}\n\nTrajectory summary:\n{summary}", {"goal": str, "workflow": str},
        )
        if payload is not None and payload["workflow"]:
            yield payload["goal"], payload["workflow"]


def reflexion_hindsight(backend: LMBackend, trajectory: Trajectory) -> Iterator[str]:
    """One reflect call; one note per parsed reply."""
    payload = _ask(
        backend, "reflexion", prompts.REFLEXION, format_trajectory(trajectory), {"reflection": str}
    )
    if payload is not None:
        yield payload["reflection"]


def awm_hindsight(backend: LMBackend, trajectory: Trajectory) -> Iterator[tuple[str, str]]:
    """One call; an empty workflow means the model judged the episode unsuccessful."""
    payload = _ask(
        backend, "awm", prompts.AWM, format_trajectory(trajectory), {"goal": str, "workflow": str}
    )
    if payload is not None and payload["workflow"]:
        yield canonical_goal(payload["goal"]), payload["workflow"]


def render_workflows(pairs) -> str:
    lines = ["Known workflows:"]
    lines.extend(f"{goal}: {workflow}" for goal, workflow in pairs)
    return "\n".join(lines)


@dataclass(frozen=True)
class Strategy:
    """A hindsight rule plus the kind of memory its candidates merge into.

    memory is "none", "semantic" (list of notes), "workflow_log" (list of
    (goal, workflow) pairs) or "replay_buffer" (ReplayBuffer, merged with
    update_rule).
    """

    name: str
    hindsight: Optional[Callable[[LMBackend, Trajectory], Iterator]]
    memory: str

    def new_memory(self):
        if self.memory == "none":
            return None
        return ReplayBuffer() if self.memory == "replay_buffer" else []

    def after_episode(self, backend: LMBackend, trajectory: Trajectory, memory):
        """Merge each candidate as the hindsight rule yields it, so a
        BackendError part way through keeps the updates made before it."""
        if self.hindsight is None:
            return memory
        for candidate in self.hindsight(backend, trajectory):
            if self.memory == "replay_buffer":
                update_rule(memory, *candidate)
            else:
                memory.append(candidate)
        return memory

    def workflows(self, memory) -> list[tuple[str, str]]:
        """The (goal, workflow) pairs memory holds; notes and no memory hold none."""
        if self.memory in ("none", "semantic"):
            return []
        return list(memory.entries.items() if self.memory == "replay_buffer" else memory)

    def render_memory(self, memory) -> str:
        if not memory:
            return ""
        if self.memory == "semantic":
            return "\n".join(["Notes from previous episodes:"] + memory)
        return render_workflows(self.workflows(memory))

    def memory_snapshot(self, memory) -> dict:
        if self.memory == "none":
            return {"kind": "none"}
        if self.memory == "semantic":
            return {"kind": "semantic", "reflections": list(memory)}
        return {"kind": self.memory, "entries": [[g, w] for g, w in self.workflows(memory)]}

    def load_snapshot(self, doc: dict):
        """Memory of a snapshot document; ValueError unless memory_snapshot
        of this strategy's memory kind could have written it."""
        if (kind := doc.get("kind")) != self.memory:
            raise ValueError(f"memory kind {kind!r} is not {self.name}'s {self.memory!r}")
        if self.memory == "none":
            return None
        if self.memory == "semantic":
            return decode(list[str], doc.get("reflections"), "memory.reflections")
        pairs = decode(list[tuple[str, str]], doc.get("entries"), "memory.entries")
        return ReplayBuffer(entries=dict(pairs)) if self.memory == "replay_buffer" else pairs


STRATEGIES: dict[str, Strategy] = {
    s.name: s
    for s in (
        Strategy("react", None, "none"),
        Strategy("reflexion", reflexion_hindsight, "semantic"),
        Strategy("awm", awm_hindsight, "workflow_log"),
        Strategy("awmpp", awm_hindsight, "replay_buffer"),
        Strategy("echo", echo_hindsight, "replay_buffer"),
    )
}


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(STRATEGIES)}"
        ) from None
