"""Egocentric text observations: the only view of the world the agent gets.

Rendering is a pure function of world state; identical states produce
byte-identical text. The agent sees a 7x7 window extending 6 cells ahead
and 3 to each side. A cell is visible when the straight segment between
the agent's cell center and the target cell center crosses the interior of
no wall or closed-door cell (corner grazing does not block). Which offsets
the window holds, and which cells each segment crosses, are built once at
import (WINDOWS, LINES). The full sentence grammar is documented in
docs/observation-format.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

from .world import (
    COLORS,
    FACING_VECTORS,
    KINDS,
    RIGHT_VECTORS,
    Goal,
    GridWorld,
    action_validity,
    blocks_sight,
    open_doors,
    partition_actions,
)

WINDOW_AHEAD = 6  # cells visible straight ahead
WINDOW_SIDE = 3  # cells visible to each side

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five",
    "six", "seven", "eight", "nine", "ten",
)

# Frozen sentence templates; tests assert rendered bytes against these.
WALL_TEMPLATE = "You are {distance} from a wall."
OBJECT_TEMPLATE = "You see a {color} {kind} {offset}."
DOOR_TEMPLATE = "You see {article} {state} {color} door {offset}."
CARRY_TEMPLATE = "You are carrying a {color} {kind}."


@dataclass(frozen=True)
class VisibleEntity:
    entity: str  # "object" | "door"
    color: str
    kind: str  # object kind, or "door"
    door_state: Optional[str]
    ahead: int
    lateral: int  # negative = left, positive = right


@dataclass(frozen=True)  # frozen: render hands one Observation to equal states
class Observation:
    text: str
    visible_entities: tuple[VisibleEntity, ...]
    menu_text: str  # menu_line of the state's action validity flags


def number_word(n: int) -> str:
    """Zero through ten as words, larger values as digits."""
    if 0 <= n <= 10:
        return _NUMBER_WORDS[n]
    return str(n)


def steps_phrase(n: int) -> str:
    return f"{number_word(n)} step" + ("" if n == 1 else "s")


def _line(dx: int, dy: int) -> tuple[tuple[int, int], ...]:
    """Offsets of the cells strictly between (0, 0) and (dx, dy) whose interior
    the segment between their centers crosses, in march order.

    An exact integer march in doubled coordinates, where cell centers are odd
    lattice points and cell boundaries even lines: from the cell at (x, y),
    the segment meets the next vertical boundary after 2|x| + 1 half-cells of
    x travel and the next horizontal one after 2|y| + 1 of y travel, compared
    cross-multiplied, never in floating point. A crossing that lands exactly
    on a lattice corner steps diagonally, skipping both corner-adjacent cells.
    """
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    x = y = 0
    cells = []
    while True:
        if dx == 0:
            y += sy
        elif dy == 0:
            x += sx
        else:
            to_x = (2 * abs(x) + 1) * abs(dy)
            to_y = (2 * abs(y) + 1) * abs(dx)
            if to_x <= to_y:
                x += sx
            if to_x >= to_y:
                y += sy
        if (x, y) == (dx, dy):
            return tuple(cells)
        cells.append((x, y))


def _window(facing: str) -> dict[tuple[int, int], tuple[int, int]]:
    """(ahead, lateral) of each (dx, dy) in the window of the facing."""
    (fx, fy), (rx, ry) = FACING_VECTORS[facing], RIGHT_VECTORS[facing]
    return {
        (ahead * fx + lateral * rx, ahead * fy + lateral * ry): (ahead, lateral)
        for ahead in range(WINDOW_AHEAD + 1)
        for lateral in range(-WINDOW_SIDE, WINDOW_SIDE + 1)
        if (ahead, lateral) != (0, 0)
    }


# Sight geometry, fixed for the whole process: whether a pose sees a cell
# depends on the offset alone, given which cells on the line block.
# WINDOWS[facing] maps each (dx, dy) of the window to its (ahead, lateral), 48
# per facing; LINES maps each of the 132 offsets of the four windows to the
# cells its segment crosses, at most 8.
WINDOWS = {facing: _window(facing) for facing in FACING_VECTORS}
LINES = {offset: _line(*offset) for window in WINDOWS.values() for offset in window}


def sees(
    world: GridWorld,
    origin: tuple[int, int],
    facing: str,
    target: tuple[int, int],
    opened: frozenset,
) -> bool:
    """Whether target is in the window of the pose (origin, facing) with a clear
    line, given the open doors."""
    x, y = origin
    offset = (target[0] - x, target[1] - y)
    if offset not in WINDOWS[facing]:
        return False
    for cx, cy in LINES[offset]:
        if blocks_sight(world, (x + cx, y + cy), opened):
            return False
    return True


def forward_wall_steps(world: GridWorld, opened: frozenset) -> int:
    """Free forward steps before a wall or a door not in opened stops the
    agent's line."""
    fx, fy = FACING_VECTORS[world.agent.facing]
    x, y = world.agent.position
    k = 1
    while not blocks_sight(world, (x + k * fx, y + k * fy), opened):
        k += 1
    return k - 1


def offset_phrase(ahead: int, lateral: int) -> str:
    parts = []
    if ahead > 0:
        parts.append(f"{steps_phrase(ahead)} ahead")
    elif ahead < 0:
        parts.append(f"{steps_phrase(-ahead)} behind")
    if lateral < 0:
        parts.append(f"{steps_phrase(-lateral)} to the left")
    elif lateral > 0:
        parts.append(f"{steps_phrase(lateral)} to the right")
    return " and ".join(parts)


def visible_entities(world: GridWorld, opened: frozenset) -> tuple[VisibleEntity, ...]:
    """Entities in the unoccluded window, given the open doors, nearest first.

    Order: L1 distance, then left before right, then color name, then kind.
    """
    pos, facing = world.agent.position, world.agent.facing
    window = WINDOWS[facing]
    found = []
    for obj in world.objects:
        if obj.position is not None and sees(world, pos, facing, obj.position, opened):
            ahead, lateral = window[obj.position[0] - pos[0], obj.position[1] - pos[1]]
            found.append(VisibleEntity("object", obj.color, obj.kind, None, ahead, lateral))
    for door in world.doors:
        if sees(world, pos, facing, door.position, opened):
            ahead, lateral = window[door.position[0] - pos[0], door.position[1] - pos[1]]
            found.append(VisibleEntity("door", door.color, "door", door.state, ahead, lateral))
    found.sort(key=lambda e: (e.ahead + abs(e.lateral), e.lateral, e.color, e.kind))
    return tuple(found)


def entity_sentence(entity: VisibleEntity) -> str:
    offset = offset_phrase(entity.ahead, entity.lateral)
    if entity.entity == "door":
        article = "an" if entity.door_state == "open" else "a"
        return DOOR_TEMPLATE.format(
            article=article, state=entity.door_state, color=entity.color, offset=offset
        )
    return OBJECT_TEMPLATE.format(color=entity.color, kind=entity.kind, offset=offset)


def format_menus(valid: dict[int, str], invalid: dict[int, str]) -> str:
    def fmt(menu: dict[int, str]) -> str:
        inner = ", ".join(f'{i}: "{name}"' for i, name in sorted(menu.items()))
        return "{" + inner + "}"

    return f"valid_actions={fmt(valid)}, invalid_actions={fmt(invalid)}"


@cache  # both turns are always valid, so at most 16 flag sets occur
def menu_line(validity: tuple[bool, ...]) -> str:
    """The action menu line of a state with these six validity flags."""
    return format_menus(*partition_actions(validity))


def render(world: GridWorld) -> Observation:
    """Full observation: wall distance, visible entities, carried object,
    and the action menu line.

    Memoized in world.views under every field step can change, so equal
    states share one Observation.
    """
    agent = world.agent
    opened = open_doors(world)
    positions = tuple(o.position for o in world.objects)
    key = (agent.position, agent.facing, agent.carrying, opened, positions)
    observation = world.views.get(key)
    if observation is None:
        entities = visible_entities(world, opened)
        sentences = [WALL_TEMPLATE.format(distance=steps_phrase(forward_wall_steps(world, opened)))]
        sentences.extend(entity_sentence(e) for e in entities)
        carried = world.carried_object
        if carried is not None:
            sentences.append(CARRY_TEMPLATE.format(color=carried.color, kind=carried.kind))
        observation = world.views[key] = Observation(
            text=" ".join(sentences),
            visible_entities=entities,
            menu_text=menu_line(action_validity(world)),
        )
    return observation


def render_goal(goal: Goal) -> str:
    return f"Pick up the {goal.color} {goal.kind}"


def canonical_goal(text: str) -> str:
    """Canonical replay-buffer key: case-folded, no trailing period, with "the".

    Agent-facing models emit variants like "Pick up grey key." so keys are
    normalized before any buffer lookup.
    """
    s = text.strip().casefold()
    while s.endswith("."):
        s = s[:-1].rstrip()
    if s.startswith("pick up ") and not s.startswith("pick up the "):
        s = "pick up the " + s[len("pick up ") :]
    return s


def parse_goal(text: str) -> Goal:
    """Inverse of render_goal for canonicalized goal strings."""
    s = canonical_goal(text)
    prefix = "pick up the "
    if not s.startswith(prefix):
        raise ValueError(f"not a pick-up goal: {text!r}")
    words = s[len(prefix) :].split()
    if len(words) != 2 or words[0] not in COLORS or words[1] not in KINDS:
        raise ValueError(f"unknown goal object in {text!r}")
    return Goal(color=words[0], kind=words[1])
