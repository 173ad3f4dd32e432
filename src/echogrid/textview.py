"""Egocentric text observations: the only view of the world the agent gets.

Rendering is a pure function of world state; identical states produce
byte-identical text. The agent sees a 7x7 window extending 6 cells ahead
and 3 to each side. A cell is visible when the straight segment between
the agent's cell center and the target cell center crosses the interior of
no wall or closed-door cell (corner grazing does not block). The full
sentence grammar is documented in docs/observation-format.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from .world import (
    COLORS,
    FACING_VECTORS,
    KINDS,
    RIGHT_VECTORS,
    Goal,
    GridWorld,
    action_validity,
    open_doors,
    partition_actions,
    sight_blocker,
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


def segment_clear(
    src: tuple[int, int], dst: tuple[int, int], blocked: Callable[[tuple[int, int]], bool]
) -> bool:
    """Exact integer march over the cells whose interior the segment crosses.

    Works in doubled coordinates so cell centers are odd lattice points and
    cell boundaries are even lines; comparisons are cross-multiplied, never
    floating point. A crossing that lands exactly on a lattice corner steps
    diagonally, skipping both corner-adjacent cells.
    """
    px, py = 2 * src[0] + 1, 2 * src[1] + 1
    qx, qy = 2 * dst[0] + 1, 2 * dst[1] + 1
    dx, dy = qx - px, qy - py
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    cx, cy = src
    while (cx, cy) != dst:
        if dx == 0:
            cy += sy
        elif dy == 0:
            cx += sx
        else:
            bx = 2 * cx + (2 if sx > 0 else 0)
            by = 2 * cy + (2 if sy > 0 else 0)
            tx_num = abs(bx - px)
            ty_num = abs(by - py)
            a = tx_num * abs(dy)
            b = ty_num * abs(dx)
            if a < b:
                cx += sx
            elif a > b:
                cy += sy
            else:
                cx += sx
                cy += sy
        if (cx, cy) == dst:
            break
        if blocked((cx, cy)):
            return False
    return True


def offset_from(
    origin: tuple[int, int], facing: str, target: tuple[int, int]
) -> tuple[int, int]:
    """(ahead, lateral) of target seen from an arbitrary pose; right is positive."""
    fx, fy = FACING_VECTORS[facing]
    rx, ry = RIGHT_VECTORS[facing]
    dx, dy = target[0] - origin[0], target[1] - origin[1]
    return (dx * fx + dy * fy, dx * rx + dy * ry)


def relative_offset(world: GridWorld, pos: tuple[int, int]) -> tuple[int, int]:
    """(ahead, lateral) of pos relative to the agent; positive lateral is right."""
    return offset_from(world.agent.position, world.agent.facing, pos)


def in_window(ahead: int, lateral: int) -> bool:
    return 0 <= ahead <= WINDOW_AHEAD and abs(lateral) <= WINDOW_SIDE and (ahead, lateral) != (0, 0)


def sees(
    world: GridWorld,
    origin: tuple[int, int],
    facing: str,
    target: tuple[int, int],
    opened: frozenset,
) -> bool:
    """Whether target is in the window of the pose (origin, facing) with a clear
    line, given the open doors."""
    return in_window(*offset_from(origin, facing, target)) and segment_clear(
        origin, target, sight_blocker(world, opened)
    )


def forward_wall_steps(world: GridWorld) -> int:
    """Free forward steps before a wall or closed door stops the agent's line."""
    blocked = sight_blocker(world, open_doors(world))
    fx, fy = FACING_VECTORS[world.agent.facing]
    x, y = world.agent.position
    k = 1
    while not blocked((x + k * fx, y + k * fy)):
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


def visible_entities(world: GridWorld) -> tuple[VisibleEntity, ...]:
    """Entities in the unoccluded window, nearest first.

    Order: L1 distance, then left before right, then color name, then kind.
    """
    opened = open_doors(world)
    pos, facing = world.agent.position, world.agent.facing
    found = []
    for obj in world.objects:
        if obj.position is not None and sees(world, pos, facing, obj.position, opened):
            ahead, lateral = relative_offset(world, obj.position)
            found.append(VisibleEntity("object", obj.color, obj.kind, None, ahead, lateral))
    for door in world.doors:
        if sees(world, pos, facing, door.position, opened):
            ahead, lateral = relative_offset(world, door.position)
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
    positions = tuple(o.position for o in world.objects)
    key = (agent.position, agent.facing, agent.carrying, open_doors(world), positions)
    observation = world.views.get(key)
    if observation is None:
        entities = visible_entities(world)
        sentences = [WALL_TEMPLATE.format(distance=steps_phrase(forward_wall_steps(world)))]
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
