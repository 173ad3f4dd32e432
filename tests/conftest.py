"""Shared fixtures: generated worlds, a builder for hand-crafted layouts, and
a backend fake with canned replies."""

from __future__ import annotations

import pytest

from echogrid.world import DOOR, FLOOR, WALL, AgentPose, Door, GridWorld, WorldObject, generate

DEFAULT_SEEDS = tuple(range(10))


def world_from_ascii(
    diagram: str,
    facing: str = "north",
    legend: dict[str, tuple[str, str]] | None = None,
    door_specs: list[tuple[str, str]] | None = None,
) -> GridWorld:
    """Build a synthetic world from a picture.

    '#' walls, '.' floor, '+' door slots (described by door_specs in reading
    order), '@' the agent, any legend character an object. Synthetic worlds
    skip the four-room invariants; they exist to pin down exact geometry.
    """
    legend = legend or {}
    door_specs = door_specs or []
    rows = [line for line in diagram.strip("\n").splitlines()]
    width = len(rows[0])
    assert all(len(r) == width for r in rows), "diagram rows must be equal length"
    cells = []
    doors = []
    objects = []
    agent_pos = None
    for y, row in enumerate(rows):
        clean = []
        for x, char in enumerate(row):
            if char == WALL:
                clean.append(WALL)
            elif char == DOOR:
                color, state = door_specs[len(doors)]
                doors.append(
                    Door(color=color, position=(x, y), state=state, home_state=state)
                )
                clean.append(DOOR)
            elif char == "@":
                agent_pos = (x, y)
                clean.append(FLOOR)
            elif char in legend:
                color, kind = legend[char]
                objects.append(
                    WorldObject(kind=kind, color=color, position=(x, y), home_position=(x, y))
                )
                clean.append(FLOOR)
            else:
                assert char == FLOOR, f"unknown diagram char {char!r}"
                clean.append(FLOOR)
        cells.append("".join(clean))
    assert agent_pos is not None, "diagram needs an @ agent"
    assert len(doors) == len(door_specs), "door_specs count must match '+' cells"
    return GridWorld(
        width=width,
        height=len(rows),
        cells=cells,
        doors=doors,
        objects=objects,
        agent=AgentPose(agent_pos, facing, None, agent_pos, facing),
        seed=0,
        room_layout=(),
    )


class CannedBackend:
    """Backend fake that answers the n-th request with the n-th canned reply
    and records every request, as the scripted backends do."""

    def __init__(self, replies: list[str]):
        self.replies = list(replies)
        self.requests = []

    @property
    def calls(self) -> int:
        return len(self.requests)

    def complete(self, request) -> str:
        self.requests.append(request)
        return self.replies[len(self.requests) - 1]


@pytest.fixture
def world7():
    return generate(7)


@pytest.fixture
def bench_worlds():
    return [generate(seed) for seed in DEFAULT_SEEDS]
