"""Procedural four-room gridworld with deterministic generation and reset.

The grid is a 2x2 arrangement of rooms separated by one-cell walls, with one
door per shared wall (so the room graph is a connected cycle). Each room
holds exactly one portable object. Worlds are generated from a 64-bit seed
and can always be reset to their exact starting configuration, which is what
makes cross-episode memory the only learnable advantage.

The movement and sight rules (can_enter, free_floor, blocks_sight,
action_validity) live here alone; step, the text renderer and the BFS
planner read them.
GridWorld.views memoizes textview.render per state. The key holds every field
step can change: the agent's pose and carried object, the open doors and the
object positions. Nothing else changes after generate, so the key is sound.
The memo gains at most one entry per render call on a world and its copies:
64 steps x 16 episodes = 1,024 per env stream at the defaults.

Coordinates are (x, y) with x growing east and y growing south; north is -y.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from itertools import repeat
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .rng import stage_stream

WALL = "#"
FLOOR = "."
DOOR = "+"

KINDS = ("key", "ball", "box", "star", "hexagon", "square")
COLORS = ("red", "green", "blue", "purple", "yellow", "grey")
FACINGS = ("north", "east", "south", "west")

# Unit vectors per facing, and the rightward lateral vector for each.
FACING_VECTORS = {
    "north": (0, -1),
    "east": (1, 0),
    "south": (0, 1),
    "west": (-1, 0),
}
RIGHT_VECTORS = {
    "north": (1, 0),
    "east": (0, 1),
    "south": (-1, 0),
    "west": (0, -1),
}

# Facing after a left turn and after a right turn, per facing.
LEFT_OF = {f: FACINGS[(i - 1) % 4] for i, f in enumerate(FACINGS)}
RIGHT_OF = {f: FACINGS[(i + 1) % 4] for i, f in enumerate(FACINGS)}

# Global action indexing, constant across all steps and episodes.
TURN_LEFT = 0
TURN_RIGHT = 1
GO_FORWARD = 2
PICK_UP = 3
PUT_DOWN = 4
TOGGLE_DOOR = 5
ACTION_NAMES = ("turn left", "turn right", "go forward", "pick up", "put down", "toggle door")

SNAPSHOT_VERSION = 1
WIDTH = HEIGHT = 13  # every world: walls around 2x2 rooms of 5x5 floor cells


@dataclass(frozen=True)
class Goal:
    """A pick-up goal naming one (color, kind) object."""

    color: str
    kind: str


@dataclass
class WorldObject:
    kind: str
    color: str
    position: Optional[tuple[int, int]]
    home_position: tuple[int, int]


@dataclass
class Door:
    color: str
    position: tuple[int, int]
    state: str  # "open" | "closed"
    home_state: str


@dataclass
class AgentPose:
    position: tuple[int, int]
    facing: str
    carrying: Optional[int]  # index into GridWorld.objects
    home_position: tuple[int, int]
    home_facing: str


@dataclass
class GridWorld:
    """World state. Its field names, and those of Door, WorldObject and
    AgentPose, are the snapshot's JSON keys (to_json): renaming one changes
    the format."""

    width: int
    height: int
    cells: list[str]  # row strings of WALL/FLOOR/DOOR characters
    doors: list[Door]
    objects: list[WorldObject]
    agent: AgentPose
    seed: int
    room_layout: tuple[tuple[int, int, int, int], ...]  # interior (x0, y0, x1, y1) per room
    # Render memo, filled by textview.render and shared by copy_world copies:
    # mutable state -> Observation. Never serialized.
    views: dict = field(default_factory=dict, compare=False, repr=False)

    def cell(self, pos: tuple[int, int]) -> str:
        x, y = pos
        if not (0 <= x < self.width and 0 <= y < self.height):
            return WALL
        return self.cells[y][x]

    def door_at(self, pos: tuple[int, int]) -> Optional[Door]:
        for door in self.doors:
            if door.position == pos:
                return door
        return None

    def object_at(self, pos: tuple[int, int]) -> Optional[WorldObject]:
        for obj in self.objects:
            if obj.position == pos:
                return obj
        return None

    @property
    def carried_object(self) -> Optional[WorldObject]:
        if self.agent.carrying is None:
            return None
        return self.objects[self.agent.carrying]


def _layout(w: int, h: int):
    """Static wall layout for the 2x2 partition of an odd-sided w x h grid."""
    mid_x, mid_y = w // 2, h // 2
    rows = []
    for y in range(h):
        row = "".join(
            WALL if x in (0, w - 1, mid_x) or y in (0, h - 1, mid_y) else FLOOR
            for x in range(w)
        )
        rows.append(row)
    rooms = (
        (1, 1, mid_x - 1, mid_y - 1),
        (mid_x + 1, 1, w - 2, mid_y - 1),
        (1, mid_y + 1, mid_x - 1, h - 2),
        (mid_x + 1, mid_y + 1, w - 2, h - 2),
    )
    # Shared walls in fixed order: rooms (0,1), (0,2), (1,3), (2,3).
    walls = [
        [(mid_x, y) for y in range(1, mid_y)],
        [(x, mid_y) for x in range(1, mid_x)],
        [(x, mid_y) for x in range(mid_x + 1, w - 1)],
        [(mid_x, y) for y in range(mid_y + 1, h - 1)],
    ]
    return rows, rooms, walls


def _set_cell(rows: list[str], pos: tuple[int, int], char: str) -> None:
    x, y = pos
    rows[y] = rows[y][:x] + char + rows[y][x + 1 :]


def generate(seed: int) -> GridWorld:
    """Build a WIDTH x HEIGHT world fully determined by seed.

    Stage streams: "doors" places one door per shared wall and colors them,
    "objects" picks four distinct (kind, color) pairs and one floor cell per
    room, "agent" spawns the agent. Object cells adjacent to a door slot are
    excluded so no doorway can ever be blocked at reset, which is what keeps
    every goal solvable within the episode horizon. Each room's 5x5 interior
    loses at most two cells to door adjacency and one to its object, so both
    object and agent always find a cell.
    """
    rows, rooms, walls = _layout(WIDTH, HEIGHT)

    door_rng = stage_stream(seed, "doors")
    doors: list[Door] = []
    door_colors = door_rng.sample(COLORS, len(walls))
    for wall_cells, color in zip(walls, door_colors):
        pos = door_rng.choice(wall_cells)
        _set_cell(rows, pos, DOOR)
        doors.append(Door(color=color, position=pos, state="closed", home_state="closed"))

    door_adjacent = set()
    for door in doors:
        x, y = door.position
        door_adjacent.update({(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)})

    obj_rng = stage_stream(seed, "objects")
    combos = [(color, kind) for kind in KINDS for color in COLORS]
    chosen = obj_rng.sample(combos, len(rooms))
    objects: list[WorldObject] = []
    for room, (color, kind) in zip(rooms, chosen):
        candidates = [
            c
            for c in [(x, y) for y in range(room[1], room[3] + 1) for x in range(room[0], room[2] + 1)]
            if c not in door_adjacent
        ]
        pos = obj_rng.choice(candidates)
        objects.append(WorldObject(kind=kind, color=color, position=pos, home_position=pos))

    agent_rng = stage_stream(seed, "agent")
    room = rooms[agent_rng.randbelow(len(rooms))]
    occupied = {obj.position for obj in objects}
    spawn_candidates = [
        (x, y)
        for y in range(room[1], room[3] + 1)
        for x in range(room[0], room[2] + 1)
        if (x, y) not in occupied
    ]
    position = agent_rng.choice(spawn_candidates)
    facing = FACINGS[agent_rng.randbelow(4)]

    return GridWorld(
        width=WIDTH,
        height=HEIGHT,
        cells=rows,
        doors=doors,
        objects=objects,
        agent=AgentPose(
            position=position,
            facing=facing,
            carrying=None,
            home_position=position,
            home_facing=facing,
        ),
        seed=seed,
        room_layout=rooms,
    )


def reset(world: GridWorld) -> GridWorld:
    """Restore the generated starting configuration in place (idempotent)."""
    for obj in world.objects:
        obj.position = obj.home_position
    for door in world.doors:
        door.state = door.home_state
    agent = world.agent
    agent.position = agent.home_position
    agent.facing = agent.home_facing
    agent.carrying = None
    return world


def facing_cell(world: GridWorld) -> tuple[int, int]:
    dx, dy = FACING_VECTORS[world.agent.facing]
    x, y = world.agent.position
    return (x + dx, y + dy)


def open_doors(world: GridWorld) -> frozenset[tuple[int, int]]:
    """Positions of the doors that are open now."""
    return frozenset([d.position for d in world.doors if d.state == "open"])


def can_enter(world: GridWorld, pos: tuple[int, int], opened: frozenset) -> bool:
    """Movement rule: object-free floor, or a door whose position is in opened."""
    cell = world.cell(pos)
    if cell == DOOR:
        return pos in opened
    return cell == FLOOR and world.object_at(pos) is None


def free_floor(world: GridWorld) -> set[tuple[int, int]]:
    """Cells can_enter admits whatever the door states: object-free floor.

    can_enter(world, pos, opened) is pos in free_floor(world) or pos in opened,
    for as long as no object moves.
    """
    occupied = {o.position for o in world.objects}
    return {
        (x, y)
        for y, row in enumerate(world.cells)
        for x, cell in enumerate(row)
        if cell == FLOOR and (x, y) not in occupied
    }


def blocks_sight(world: GridWorld, pos: tuple[int, int], opened: frozenset) -> bool:
    """Sight rule: walls and doors not in opened block sight; objects never do."""
    cell = world.cell(pos)
    return cell == WALL or (cell == DOOR and pos not in opened)


def turned(facing: str, action: int) -> str:
    """Facing after TURN_LEFT or TURN_RIGHT."""
    return (LEFT_OF if action == TURN_LEFT else RIGHT_OF)[facing]


def action_validity(world: GridWorld) -> tuple[bool, ...]:
    """Whether each of the six actions, by index, is valid in the current state."""
    ahead = facing_cell(world)
    obj_ahead = world.object_at(ahead)
    carrying = world.agent.carrying is not None
    return (
        True,
        True,
        can_enter(world, ahead, open_doors(world)),
        not carrying and obj_ahead is not None,
        carrying and can_enter(world, ahead, frozenset()),  # object-free floor
        world.door_at(ahead) is not None,
    )


def step(world: GridWorld, action: int) -> tuple[GridWorld, bool]:
    """Apply one action and report whether it was valid; invalid actions
    leave the world unchanged. The world object is mutated and returned."""
    if not 0 <= action <= 5:
        return world, False
    if action in (TURN_LEFT, TURN_RIGHT):
        world.agent.facing = turned(world.agent.facing, action)
        return world, True
    if not action_validity(world)[action]:
        return world, False
    ahead = facing_cell(world)
    if action == GO_FORWARD:
        world.agent.position = ahead
    elif action == PICK_UP:
        obj = world.object_at(ahead)
        world.agent.carrying = world.objects.index(obj)
        obj.position = None
    elif action == PUT_DOWN:
        world.carried_object.position = ahead
        world.agent.carrying = None
    else:  # TOGGLE_DOOR
        door = world.door_at(ahead)
        door.state = "open" if door.state == "closed" else "closed"
    return world, True


def partition_actions(validity: tuple[bool, ...]) -> tuple[dict[int, str], dict[int, str]]:
    """Split all six actions into (valid, invalid) maps at fixed indices, by
    their validity flags."""
    valid = {i: ACTION_NAMES[i] for i in range(6) if validity[i]}
    invalid = {i: ACTION_NAMES[i] for i in range(6) if not validity[i]}
    return valid, invalid


def check_goal(world: GridWorld, goal: Goal) -> None:
    """Raise ValueError unless some object of the world is the goal's.

    Objects never leave world.objects, so this holds for a whole episode
    once it holds at its start.
    """
    if not any(o.color == goal.color and o.kind == goal.kind for o in world.objects):
        raise ValueError(f"goal names an absent object: {goal.color} {goal.kind}")


def goal_satisfied(world: GridWorld, goal: Goal) -> bool:
    """Whether the agent carries the goal's object; check_goal says it exists."""
    carried = world.carried_object
    return carried is not None and carried.color == goal.color and carried.kind == goal.kind


# Every document canonical_json writes is a tree the program builds, so the
# encoder skips the cycle check.
_canonical_encode = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=vars, check_circular=False
).encode


def canonical_json(doc) -> str:
    """Canonical JSON: sorted keys, compact separators, each dataclass as its
    fields. World snapshots, index.json, trajectories, run configs and memory
    snapshots are all written through it, and read back through decode."""
    return _canonical_encode(doc)


class _Mismatch(Exception):
    """args: (problem, path keys innermost first); path text is built only on failure."""


def decode(kind, value, where: str):
    """kind built from value, a parsed JSON document, by kind's annotations:
    str, int and bool exactly (a bool is not an int), dict from any object,
    list[X], tuple[X, ...] and tuple[X, Y] from arrays, Optional[X] also from
    null, and a dataclass from an object holding every field, unknown keys
    ignored. A mismatch raises ValueError naming its path from where, e.g.
    "record.steps[0].was_valid must be bool, got int"."""
    try:
        return _read_all([(0, _reader(kind))], [value])[0]
    except _Mismatch as exc:
        keys = reversed(exc.args[1][:-1])  # the last key is the 0 above
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)
        raise ValueError(f"{where}{path} {exc.args[0]}") from None


@cache  # one reader per annotation, compiled on first use, never at import
def _reader(kind) -> tuple:
    """(JSON types kind takes, their name, build): build makes kind from a
    value of those types, or is None where the value is kept as it is."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]
        types, name, build = _reader(args[0])
        some = build and (lambda value: None if value is None else build(value))
        return (*types, type(None)), f"{name} or null", some
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        spec = [(f.name, _reader(hints[f.name])) for f in fields(kind)]
        return (dict,), "object", lambda doc: kind(*_read_all(spec, doc))
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis  # tuple[X, Y]
        readers = [_reader(arg) for arg in (args if fixed else args[:1])]

        def build_array(items):
            if fixed and len(items) != len(readers):
                raise _Mismatch(f"must be list of {len(readers)}, got list of {len(items)}", [])
            spec = enumerate(readers if fixed else repeat(readers[0], len(items)))
            return origin(_read_all(spec, items))

        return (list,), f"list of {len(args)}" if fixed else "list", build_array
    return (kind,), "object" if kind is dict else kind.__name__, None


def _read_all(spec, doc) -> list:
    """doc[key] read by reader for each (key, reader) of spec, or a mismatch at key."""
    values = []
    try:
        for key, (types, name, build) in spec:
            value = doc[key]
            if type(value) not in types:
                got = f"list of {len(value)}" if type(value) is list else type(value).__name__
                raise _Mismatch(f"must be {name}, got {got}", [])
            values.append(value if build is None else build(value))
    except KeyError:
        raise _Mismatch("is missing", [key]) from None
    except _Mismatch as exc:
        exc.args[1].append(key)
        raise
    return values


def to_json(world: GridWorld) -> str:
    """One-line snapshot whose keys are the dataclass field names, views left out."""
    doc = {"version": SNAPSHOT_VERSION, **vars(world)}
    del doc["views"]
    return canonical_json(doc)


def copy_world(world: GridWorld) -> GridWorld:
    """Copy whose doors, objects and agent change independently of world's.

    The layout (cells, room_layout) never changes after generation, so the
    copy shares it, and with it the render memo.
    """
    agent = world.agent
    return GridWorld(
        width=world.width,
        height=world.height,
        cells=world.cells,
        doors=[Door(d.color, d.position, d.state, d.home_state) for d in world.doors],
        objects=[
            WorldObject(o.kind, o.color, o.position, o.home_position) for o in world.objects
        ],
        agent=AgentPose(
            agent.position, agent.facing, agent.carrying, agent.home_position, agent.home_facing
        ),
        seed=world.seed,
        room_layout=world.room_layout,
        views=world.views,
    )


_AGENT_GLYPHS = {"north": "^", "east": ">", "south": "v", "west": "<"}


def ascii_map(world: GridWorld) -> str:
    """Human debug map; never shown to the LM policy."""
    rows = [list(row) for row in world.cells]
    for door in world.doors:
        x, y = door.position
        rows[y][x] = "/" if door.state == "open" else "+"
    for obj in world.objects:
        if obj.position is not None:
            x, y = obj.position
            rows[y][x] = obj.kind[0].upper()
    ax, ay = world.agent.position
    rows[ay][ax] = _AGENT_GLYPHS[world.agent.facing]
    return "\n".join("".join(r) for r in rows)
