"""World generation, reset, and step semantics."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from echogrid.world import (
    DOOR,
    FLOOR,
    GO_FORWARD,
    PICK_UP,
    PUT_DOWN,
    TOGGLE_DOOR,
    TURN_LEFT,
    TURN_RIGHT,
    Goal,
    action_validity,
    can_enter,
    copy_world,
    free_floor,
    generate,
    goal_satisfied,
    open_doors,
    partition_actions,
    reset,
    step,
    to_json,
)

from echogrid.rng import SplitMix64

from conftest import world_from_ascii


def test_generate_counts_and_uniqueness(bench_worlds):
    for world in bench_worlds:
        assert len(world.room_layout) == 4
        assert len(world.objects) == 4
        assert len(world.doors) == 4
        pairs = {(o.kind, o.color) for o in world.objects}
        assert len(pairs) == 4, "object (kind, color) pairs must be unique"


def test_generate_objects_on_room_floor(bench_worlds):
    for world in bench_worlds:
        room_cells = [
            {(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)}
            for x0, y0, x1, y1 in world.room_layout
        ]
        for obj in world.objects:
            assert world.cell(obj.position) == FLOOR
            rooms_holding = [i for i, cells in enumerate(room_cells) if obj.position in cells]
            assert len(rooms_holding) == 1
        # one object per room
        homes = {obj.position for obj in world.objects}
        assert sum(1 for cells in room_cells if cells & homes) == 4


def test_generate_agent_on_free_floor(bench_worlds):
    for world in bench_worlds:
        assert world.cell(world.agent.position) == FLOOR
        assert world.object_at(world.agent.position) is None
        assert world.agent.carrying is None


def test_generate_doors_connect_all_room_pairs(bench_worlds):
    for world in bench_worlds:
        assert all(world.cell(d.position) == DOOR for d in world.doors)
        assert all(d.state == "closed" for d in world.doors)
        # each door sits between exactly two distinct rooms
        linked = set()
        for door in world.doors:
            x, y = door.position
            neighbours = [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
            rooms = {
                i
                for i, (x0, y0, x1, y1) in enumerate(world.room_layout)
                for nx, ny in neighbours
                if x0 <= nx <= x1 and y0 <= ny <= y1
            }
            assert len(rooms) == 2
            linked.add(frozenset(rooms))
        assert len(linked) == 4, "four distinct adjacent room pairs, one door each"


def test_generate_deterministic():
    assert generate(7) == generate(7)
    assert to_json(generate(7)) == to_json(generate(7))


def test_generate_seeds_differ():
    a, b = generate(7), generate(8)
    assert a != b
    assert any(
        oa.position != ob.position or (oa.kind, oa.color) != (ob.kind, ob.color)
        for oa, ob in zip(a.objects, b.objects)
    )


def _scripted_walk(world, rng_seed=123):
    # deterministic arbitrary action mix, long enough to cross rooms
    actions = [TURN_LEFT, GO_FORWARD, TURN_RIGHT, GO_FORWARD, TOGGLE_DOOR, GO_FORWARD] * 5
    for action in actions:
        step(world, action)
    return world


def test_reset_restores_generated_world(world7):
    walked = _scripted_walk(copy_world(world7))
    assert reset(walked) == world7


def test_reset_idempotent(world7):
    world = _scripted_walk(copy_world(world7))
    once = copy_world(reset(world))
    assert reset(world) == once


def test_reset_restores_carried_object(world7):
    from echogrid.oracle import bfs_plan

    world = copy_world(world7)
    target = world.objects[0]
    for action in bfs_plan(world, Goal(target.color, target.kind)):
        step(world, action)
    assert world.carried_object is target
    assert target.position is None
    reset(world)
    assert world.agent.carrying is None
    assert target.position == target.home_position


def test_step_forward_blocked_by_wall():
    world = world_from_ascii("#####\n#.@.#\n#####", facing="north")
    world, valid = step(world, GO_FORWARD)
    assert not valid
    assert world.agent.position == (2, 1)


def test_step_toggle_door():
    world = world_from_ascii(
        "#####\n#@+.#\n#####", facing="east", door_specs=[("red", "closed")]
    )
    world, valid = step(world, TOGGLE_DOOR)
    assert valid
    assert world.doors[0].state == "open"
    world, valid = step(world, TOGGLE_DOOR)
    assert world.doors[0].state == "closed"


def test_step_forward_through_door_states():
    world = world_from_ascii(
        "#####\n#@+.#\n#####", facing="east", door_specs=[("red", "closed")]
    )
    world, valid = step(world, GO_FORWARD)
    assert not valid, "closed door blocks movement"
    step(world, TOGGLE_DOOR)
    world, valid = step(world, GO_FORWARD)
    assert valid
    assert world.agent.position == (2, 1)


def test_step_pick_up_and_put_down():
    world = world_from_ascii(
        "#####\n#@K.#\n#####", facing="east", legend={"K": ("grey", "key")}
    )
    world, valid = step(world, PICK_UP)
    assert valid
    carried = world.carried_object
    assert (carried.color, carried.kind) == ("grey", "key")
    assert world.object_at((2, 1)) is None
    world, valid = step(world, PICK_UP)
    assert not valid, "hands already full"
    world, valid = step(world, PUT_DOWN)
    assert valid
    assert world.carried_object is None
    assert world.object_at((2, 1)) is carried


def test_step_put_down_needs_empty_floor():
    world = world_from_ascii(
        "######\n#@KB.#\n######",
        facing="east",
        legend={"K": ("grey", "key"), "B": ("red", "ball")},
    )
    step(world, PICK_UP)
    step(world, GO_FORWARD)  # now facing the ball's cell
    world, valid = step(world, PUT_DOWN)
    assert not valid, "occupied cell rejects put down"


def test_turns_cycle_facings():
    world = world_from_ascii("###\n#@#\n###", facing="north")
    seen = [world.agent.facing]
    for _ in range(4):
        step(world, TURN_RIGHT)
        seen.append(world.agent.facing)
    assert seen == ["north", "east", "south", "west", "north"]
    step(world, TURN_LEFT)
    assert world.agent.facing == "west"


def test_action_menus_facing_wall():
    world = world_from_ascii("#####\n#.@.#\n#####", facing="north")
    valid, invalid = partition_actions(action_validity(world))
    assert invalid[GO_FORWARD] == "go forward"
    assert GO_FORWARD not in valid


def test_action_menus_facing_object():
    world = world_from_ascii(
        "#####\n#@K.#\n#####", facing="east", legend={"K": ("grey", "key")}
    )
    valid, invalid = partition_actions(action_validity(world))
    assert valid[PICK_UP] == "pick up"
    assert GO_FORWARD in invalid, "objects block movement"


def test_action_menus_mid_room():
    world = world_from_ascii("#####\n#...#\n#.@.#\n#...#\n#####", facing="north")
    valid, invalid = partition_actions(action_validity(world))
    assert valid == {TURN_LEFT: "turn left", TURN_RIGHT: "turn right", GO_FORWARD: "go forward"}
    assert invalid == {PICK_UP: "pick up", PUT_DOWN: "put down", TOGGLE_DOOR: "toggle door"}


def test_goal_satisfied():
    world = world_from_ascii(
        "#####\n#@K.#\n#####", facing="east", legend={"K": ("grey", "key")}
    )
    goal = Goal("grey", "key")
    assert not goal_satisfied(world, goal)
    step(world, PICK_UP)
    assert goal_satisfied(world, goal)


def test_goal_satisfied_wrong_object(world7):
    from echogrid.oracle import bfs_plan

    world = copy_world(world7)
    star_like, other = world.objects[0], world.objects[1]
    for action in bfs_plan(world, Goal(star_like.color, star_like.kind)):
        step(world, action)
    assert not goal_satisfied(world, Goal(other.color, other.kind))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_conservation_and_noop_safety(seed, actions):
    """Objects are never created or destroyed; invalid actions change nothing."""
    world = generate(seed)
    expected = sorted((o.kind, o.color) for o in world.objects)
    for action in actions:
        before = to_json(world)
        world, valid = step(world, action)
        if not valid:
            assert to_json(world) == before
        assert sorted((o.kind, o.color) for o in world.objects) == expected
        carried = 1 if world.agent.carrying is not None else 0
        placed = sum(1 for o in world.objects if o.position is not None)
        assert carried + placed == len(world.objects)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_step_validity_matches_action_menus(seed, actions):
    """From every state of a random walk, step's valid flag agrees with the menus."""
    world = generate(seed)
    for action in [*actions, None]:
        valid_menu = partition_actions(action_validity(world))[0]
        for a in range(6):
            _, valid = step(copy_world(world), a)
            assert valid == (a in valid_menu), (a, to_json(world))
        if action is not None:
            step(world, action)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_free_floor_matches_can_enter(seed, actions):
    """The planner's passable set agrees with can_enter in every state of a walk,
    for any open-door set, on every cell and one ring outside the grid."""
    world = generate(seed)
    all_doors = frozenset(d.position for d in world.doors)
    for action in [*actions, None]:
        floor = free_floor(world)
        for opened in (frozenset(), open_doors(world), all_doors):
            for y in range(-1, world.height + 1):
                for x in range(-1, world.width + 1):
                    expected = can_enter(world, (x, y), opened)
                    assert ((x, y) in floor or (x, y) in opened) == expected
        if action is not None:
            step(world, action)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    actions=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_reset_roundtrip_property(seed, actions):
    world = generate(seed)
    pristine = copy_world(world)
    for action in actions:
        step(world, action)
    assert reset(world) == pristine


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=60),
)
def test_stepping_a_copy_leaves_the_original(seed, picks):
    """copy_world shares only the fixed layout and the render memo."""
    original = generate(seed)
    before = to_json(original)
    copy = copy_world(original)
    assert to_json(copy) == before
    for pick in picks:
        valid = sorted(partition_actions(action_validity(copy))[0])
        step(copy, valid[pick % len(valid)])
        assert to_json(original) == before


# sha256 over the snapshots below, computed before the snapshot writer was
# derived from the dataclass fields. run --envs compares every world_<seed>.json
# with to_json, so a drift here would reject every existing envs dir.
SNAPSHOTS_SHA256 = "e0c4033a61f38d03cec80c1741e8504ed54dbed5c1e401731c03627ca5533ed3"


def test_snapshots_match_pinned_digest():
    """to_json of seeds 0-99 as generated and after a 40-step walk over valid
    actions; the walks toggle doors, pick objects up and put them down."""
    digest = hashlib.sha256()
    toggled = carrying = put_down = 0
    for seed in range(100):
        world = generate(seed)
        digest.update((to_json(world) + "\n").encode())
        rng = SplitMix64(seed)
        for _ in range(40):
            valid = sorted(partition_actions(action_validity(world))[0])
            step(world, valid[rng.randbelow(len(valid))])
        digest.update((to_json(world) + "\n").encode())
        toggled += any(d.state != d.home_state for d in world.doors)
        carrying += world.agent.carrying is not None
        put_down += any(o.position not in (None, o.home_position) for o in world.objects)
    assert min(toggled, carrying, put_down) > 0, "the walks must cover every field state"
    assert digest.hexdigest() == SNAPSHOTS_SHA256
