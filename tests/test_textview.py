"""Observation rendering against an independent geometric oracle.

The renderer walks a sight segment's cells from a table the integer march
built; the oracle here instead tests the segment against each candidate
blocker with exact rational slab intersection. Both implement the same rule
(a cell blocks sight when the open segment between cell centers crosses its
open interior), so any disagreement is a bug in one of them.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echogrid import world as world_module
from echogrid.textview import (
    LINES,
    WINDOWS,
    canonical_goal,
    format_menus,
    forward_wall_steps,
    menu_line,
    number_word,
    parse_goal,
    render,
    render_goal,
    steps_phrase,
)
from echogrid.world import (
    DOOR,
    FLOOR,
    TURN_LEFT,
    TURN_RIGHT,
    WALL,
    Goal,
    action_validity,
    copy_world,
    generate,
    open_doors,
    partition_actions,
    step,
)

from conftest import world_from_ascii


def segment_hits_open_square(p, q, cell):
    """Exact slab test: does segment p-q cross the open unit square of cell?

    All coordinates are doubled so centers are odd integers and square
    boundaries even integers; Fractions keep every comparison exact.
    """
    x0, y0 = 2 * cell[0], 2 * cell[1]
    bounds = ((p[0], q[0], x0, x0 + 2), (p[1], q[1], y0, y0 + 2))
    t_lo, t_hi = Fraction(0), Fraction(1)
    for a, b, lo, hi in bounds:
        d = b - a
        if d == 0:
            if not lo < a < hi:
                return False
        else:
            t1, t2 = Fraction(lo - a, d), Fraction(hi - a, d)
            if t1 > t2:
                t1, t2 = t2, t1
            t_lo, t_hi = max(t_lo, t1), min(t_hi, t2)
    return t_lo < t_hi


# Unit vector ahead per facing; the rightward lateral vector of (fx, fy) is (-fy, fx).
AHEAD = {"north": (0, -1), "east": (1, 0), "south": (0, 1), "west": (-1, 0)}


def offset_seen_facing(facing, dx, dy):
    """(ahead, lateral) of the offset (dx, dy) for a pose with this facing."""
    fx, fy = AHEAD[facing]
    return (dx * fx + dy * fy, dy * fx - dx * fy)


def relative_offset(world, pos):
    """(ahead, lateral) of pos relative to the agent; positive lateral is right."""
    (x, y), facing = world.agent.position, world.agent.facing
    return offset_seen_facing(facing, pos[0] - x, pos[1] - y)


def in_window(ahead, lateral):
    return 0 <= ahead <= 6 and abs(lateral) <= 3 and (ahead, lateral) != (0, 0)


def oracle_visible(world, target):
    """Straight-line visibility recomputed from scratch."""
    src = world.agent.position
    p = (2 * src[0] + 1, 2 * src[1] + 1)
    q = (2 * target[0] + 1, 2 * target[1] + 1)
    for y in range(world.height):
        for x in range(world.width):
            cell = (x, y)
            if cell in (src, target):
                continue
            blocking = world.cell(cell) == WALL or (
                world.cell(cell) == DOOR and world.door_at(cell).state == "closed"
            )
            if blocking and segment_hits_open_square(p, q, cell):
                return False
    return True


def test_wall_distance_two_steps_with_door_right():
    world = world_from_ascii(
        """
#######
#..#..#
#..#..#
#@.+..#
#######
""",
        facing="north",
        door_specs=[("red", "closed")],
    )
    obs = render(world)
    assert "two steps from a wall" in obs.text
    assert "red door two steps to the right" in obs.text


def test_wall_distance_zero_degenerate():
    world = world_from_ascii("###\n#@#\n###", facing="north")
    obs = render(world)
    assert obs.text == "You are zero steps from a wall."
    assert obs.visible_entities == ()


def test_closed_door_limits_wall_distance():
    world = world_from_ascii(
        "#####\n#@+.#\n#####", facing="east", door_specs=[("red", "closed")]
    )
    assert forward_wall_steps(world, open_doors(world)) == 0
    from echogrid.world import TOGGLE_DOOR

    step(world, TOGGLE_DOOR)
    assert forward_wall_steps(world, open_doors(world)) == 2, "open door lets the gaze continue"


def test_exact_rendered_sentence_from_oracle():
    """Byte-exact render, with visibility confirmed by the independent oracle."""
    world = world_from_ascii(
        """
#######
#.K...#
#.....#
#..@..#
#######
""",
        facing="north",
        legend={"K": ("grey", "key")},
    )
    key_pos = world.objects[0].position
    assert relative_offset(world, key_pos) == (2, -1)
    assert oracle_visible(world, key_pos)
    expected = (
        "You are two steps from a wall. "
        "You see a grey key two steps ahead and one step to the left."
    )
    assert render(world).text == expected


def test_carried_object_sentence():
    from echogrid.world import PICK_UP

    world = world_from_ascii(
        "#####\n#@K.#\n#####", facing="east", legend={"K": ("grey", "key")}
    )
    step(world, PICK_UP)
    assert render(world).text.endswith("You are carrying a grey key.")


def test_open_and_closed_door_sentences():
    from echogrid.world import TOGGLE_DOOR

    world = world_from_ascii(
        "#####\n#@+.#\n#####", facing="east", door_specs=[("green", "closed")]
    )
    assert "You see a closed green door one step ahead." in render(world).text
    step(world, TOGGLE_DOOR)
    assert "You see an open green door one step ahead." in render(world).text


def test_occlusion_by_closed_door():
    world = world_from_ascii(
        "######\n#@+K.#\n######",
        facing="east",
        legend={"K": ("grey", "key")},
        door_specs=[("red", "closed")],
    )
    text = render(world).text
    assert "grey key" not in text, "closed door hides the key"
    from echogrid.world import TOGGLE_DOOR

    step(world, TOGGLE_DOOR)
    assert "grey key" in render(world).text


def test_entities_ordered_nearest_first():
    world = world_from_ascii(
        """
#########
#.......#
#.B.....#
#K..@...#
#########
""",
        facing="north",
        legend={"K": ("grey", "key"), "B": ("red", "ball")},
    )
    obs = render(world)
    labels = [(e.color, e.kind, e.ahead, e.lateral) for e in obs.visible_entities]
    # equal L1 distance: the more-left entity sorts first
    assert labels == [("grey", "key", 0, -3), ("red", "ball", 1, -2)]


def test_number_words_convention():
    assert number_word(0) == "zero"
    assert number_word(2) == "two"
    assert number_word(10) == "ten"
    assert number_word(11) == "11"
    assert steps_phrase(1) == "one step"
    assert steps_phrase(4) == "four steps"


def test_render_is_pure(world7):
    assert render(world7).text == render(world7).text


def test_render_goal_paper_forms():
    assert render_goal(Goal("grey", "star")) == "Pick up the grey star"
    assert render_goal(Goal("grey", "key")) == "Pick up the grey key"


def test_goal_canonicalization():
    assert canonical_goal("Pick up grey key.") == "pick up the grey key"
    assert canonical_goal("Pick up the grey star") == "pick up the grey star"
    assert canonical_goal("  PICK UP THE RED BALL.  ") == "pick up the red ball"


def test_goal_roundtrip():
    for color, kind in (("grey", "star"), ("red", "ball"), ("purple", "hexagon")):
        goal = Goal(color, kind)
        assert parse_goal(render_goal(goal)) == goal
    with pytest.raises(ValueError):
        parse_goal("Open the red door")
    with pytest.raises(ValueError):
        parse_goal("Pick up the mauve key")


def test_sight_tables_match_the_exact_reference():
    """WINDOWS[f] holds exactly the 48 cells of the 7x7 forward window, and
    LINES lists, in march order, exactly the cells whose open interior the
    segment to each offset crosses by the rational slab test."""
    for facing in AHEAD:
        expected = {}
        for dx in range(-6, 7):
            for dy in range(-6, 7):
                ahead, lateral = offset_seen_facing(facing, dx, dy)
                if in_window(ahead, lateral):
                    expected[dx, dy] = (ahead, lateral)
        assert len(expected) == 48
        assert WINDOWS[facing] == expected
    assert set(LINES) == {offset for window in WINDOWS.values() for offset in window}
    assert len(LINES) == 132
    for (dx, dy), cells in LINES.items():
        target = (2 * dx + 1, 2 * dy + 1)
        crossed = {
            (x, y)
            for x in range(min(0, dx), max(0, dx) + 1)
            for y in range(min(0, dy), max(0, dy) + 1)
            if (x, y) not in ((0, 0), (dx, dy))
            and segment_hits_open_square((1, 1), target, (x, y))
        }
        assert sorted(cells) == sorted(crossed), (dx, dy)
        distances = [abs(x) + abs(y) for x, y in cells]
        assert distances == sorted(set(distances)), f"{(dx, dy)}: not in march order"


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    spot=st.integers(min_value=0, max_value=10_000),
    facing_index=st.integers(min_value=0, max_value=3),
    door_bits=st.integers(min_value=0, max_value=15),
)
def test_window_completeness_against_oracle(seed, spot, facing_index, door_bits):
    """Everything visible in the window appears exactly once; nothing else does."""
    from echogrid.world import FACINGS

    world = generate(seed)
    for i, door in enumerate(world.doors):
        if door_bits & (1 << i):
            door.state = "open"
    floors = [
        (x, y)
        for y in range(world.height)
        for x in range(world.width)
        if world.cells[y][x] == FLOOR and world.object_at((x, y)) is None
    ]
    world.agent.position = floors[spot % len(floors)]
    world.agent.facing = FACINGS[facing_index]

    obs = render(world)
    rendered = {(e.color, e.kind, e.ahead, e.lateral) for e in obs.visible_entities}
    assert len(rendered) == len(obs.visible_entities), "no duplicates"

    expected = set()
    for obj in world.objects:
        ahead, lateral = relative_offset(world, obj.position)
        if in_window(ahead, lateral) and oracle_visible(world, obj.position):
            expected.add((obj.color, obj.kind, ahead, lateral))
    for door in world.doors:
        ahead, lateral = relative_offset(world, door.position)
        if in_window(ahead, lateral) and oracle_visible(world, door.position):
            expected.add((door.color, "door", ahead, lateral))
    assert rendered == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=120),
)
def test_render_with_filled_memo_matches_fresh_world(seed, picks):
    """The sight memo never changes a render: at every state of a walk over
    valid actions (moves, toggles, pick-ups, put-downs), the walked world,
    whose memo the walk fills, renders like a copy whose memo is empty."""
    world = copy_world(generate(seed))
    for pick in [*picks, None]:
        assert render(world) == render(replace(world, views={}))
        if pick is not None:
            valid = sorted(partition_actions(action_validity(world))[0])
            step(world, valid[pick % len(valid)])


def test_equal_states_share_one_observation():
    """A walk that comes back to a state gets the Observation it got there
    before, and so does a copy standing in that state."""
    world = generate(3)
    first = render(world)
    step(world, TURN_LEFT)
    assert render(world) is not first
    step(world, TURN_RIGHT)
    assert render(world) is first
    assert render(copy_world(world)) is first


def test_observations_are_immutable():
    world = world_from_ascii("#####\n#@.a#\n#####", facing="east", legend={"a": ("red", "ball")})
    obs = render(world)
    entity = obs.visible_entities[0]
    with pytest.raises(AttributeError):
        obs.text = "changed"
    with pytest.raises(AttributeError):
        entity.color = "blue"
    assert obs.menu_text == (
        'valid_actions={0: "turn left", 1: "turn right", 2: "go forward"}, '
        'invalid_actions={3: "pick up", 4: "put down", 5: "toggle door"}'
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=120),
)
def test_render_memo_holds_one_entry_per_visited_state(seed, picks):
    world = generate(seed)
    visited = set()
    for pick in [*picks, None]:
        render(world)
        agent = world.agent
        visited.add(
            (agent.position, agent.facing, agent.carrying, open_doors(world),
             tuple(o.position for o in world.objects))
        )
        if pick is not None:
            valid = sorted(partition_actions(action_validity(world))[0])
            step(world, valid[pick % len(valid)])
    assert len(world.views) <= len(visited)


def test_menu_line_is_the_menus_of_its_flags():
    """For each of the 16 flag sets with both turns valid, menu_line gives
    the line format_menus makes of the valid and invalid menus of those
    flags, and the valid menu names exactly the actions flagged valid."""
    for flags in itertools.product((False, True), repeat=4):
        validity = (True, True, *flags)
        assert menu_line(validity) == format_menus(*partition_actions(validity))
        listed = menu_line(validity).split(", invalid_actions=")[0]
        assert [f'"{name}"' in listed for name in world_module.ACTION_NAMES] == list(validity)


def test_menu_line_cache_holds_one_line_per_flag_set():
    """An echo run over ten envs renders hundreds of new states, and menu_line
    keeps at most one line for each of the 16 flag sets that can occur."""
    from echogrid.harness import RunConfig, run_stream

    before = menu_line.cache_info()
    run_stream(
        RunConfig(env_seeds=tuple(range(10)), strategy="echo", backend="scripted:bfs-demo"),
        workers=1,
    )
    after = menu_line.cache_info()
    assert after.hits + after.misses - before.hits - before.misses > 400
    assert after.currsize <= 16
