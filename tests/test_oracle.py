"""Planner optimality and scripted-backend format fidelity."""

import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echogrid.episode import format_trajectory, run_episode
from echogrid.lm import LMRequest, parse_choice, parse_json_payload
from echogrid.oracle import (
    DemoBackend,
    OracleBackend,
    PlanningError,
    ScriptExhaustedError,
    TurnLeftBackend,
    _goal_line,
    _search,
    _steps_taken,
    bfs_plan,
    extract_mentions,
    parse_route,
    plan_table,
    route_text,
    sighting_tour,
)
from echogrid.policy import ReactPolicy
from echogrid.prompts import (
    AWM,
    ECHO_IDENTIFY_GOALS,
    ECHO_INFER_TRAJ,
    ECHO_SUMMARIZE,
    PARSE_REMINDER,
    REFLEXION,
    agent_system_prompt,
    classify_request,
)
from echogrid.textview import render_goal
from echogrid.world import (
    FACING_VECTORS,
    PICK_UP,
    TOGGLE_DOOR,
    Goal,
    action_validity,
    copy_world,
    generate,
    goal_satisfied,
    open_doors,
    partition_actions,
    reset,
    step,
)

from conftest import world_from_ascii


def _agent_request(goal_text, steps_taken=0, memory_text=""):
    messages = []
    for _ in range(steps_taken):
        messages.append({"role": "user", "content": f"Goal: {goal_text}\nobs"})
        messages.append({"role": "assistant", "content": "{}"})
    messages.append({"role": "user", "content": f"Goal: {goal_text}\nobs"})
    return LMRequest(
        system_prompt=agent_system_prompt(64, memory_text), messages=messages
    )


def test_bfs_adjacent_object_single_action():
    world = world_from_ascii(
        "#####\n#@K.#\n#####", facing="east", legend={"K": ("grey", "key")}
    )
    assert bfs_plan(world, Goal("grey", "key")) == [PICK_UP]


def test_bfs_two_room_plan_contains_one_toggle():
    world = world_from_ascii(
        "######\n#@+K.#\n######",
        facing="east",
        legend={"K": ("grey", "key")},
        door_specs=[("red", "closed")],
    )
    plan = bfs_plan(world, Goal("grey", "key"))
    assert plan.count(5) == 1, "exactly one toggle"
    assert plan == [5, 2, 3]  # toggle, forward, pick up


def _brute_force_min_length(world, goal, max_len):
    """Exhaustive search over all action sequences through the real engine."""
    for length in range(1, max_len + 1):
        for sequence in itertools.product(range(6), repeat=length):
            scratch = reset(copy_world(world))
            for action in sequence:
                step(scratch, action)
            if goal_satisfied(scratch, goal):
                return length
    return None


def test_bfs_optimal_vs_exhaustive_search():
    world = world_from_ascii(
        "######\n#@+K.#\n######",
        facing="east",
        legend={"K": ("grey", "key")},
        door_specs=[("red", "closed")],
    )
    goal = Goal("grey", "key")
    plan = bfs_plan(world, goal)
    assert len(plan) == _brute_force_min_length(world, goal, 6)


def test_bfs_optimal_vs_exhaustive_with_turns():
    world = world_from_ascii(
        "#####\n#.K.#\n#.@.#\n#####",
        facing="south",
        legend={"K": ("grey", "key")},
    )
    goal = Goal("grey", "key")
    plan = bfs_plan(world, goal)
    assert len(plan) == _brute_force_min_length(world, goal, 4) == 3


def test_bfs_unreachable_goal_is_explicit():
    world = world_from_ascii(
        "#######\n#@.#K.#\n#######",
        facing="east",
        legend={"K": ("grey", "key")},
    )
    with pytest.raises(PlanningError):
        bfs_plan(world, Goal("grey", "key"))
    with pytest.raises(ValueError, match="absent"):
        bfs_plan(world, Goal("red", "ball"))


def test_bfs_solvability_at_paper_scale(bench_worlds):
    """Every object in every benchmark world is reachable within the horizon."""
    for world in bench_worlds:
        for obj in world.objects:
            plan = bfs_plan(world, Goal(obj.color, obj.kind))
            assert 1 <= len(plan) <= 64


def test_bfs_plans_execute_successfully(bench_worlds):
    for world in bench_worlds[:3]:
        for obj in world.objects:
            goal = Goal(obj.color, obj.kind)
            scratch = reset(copy_world(world))
            for action in bfs_plan(world, goal):
                _, valid = step(scratch, action)
                assert valid, "BFS plans never contain invalid actions"
            assert goal_satisfied(scratch, goal)


def _plan_alone(world, target):
    """A search for one object alone: the first shallowest state facing it."""

    def facing_target(pos, facing, opened):
        fx, fy = FACING_VECTORS[facing]
        return 0 if (pos[0] + fx, pos[1] + fy) == target else None

    try:
        return _search(world, facing_target)[1] + [PICK_UP]
    except PlanningError:
        return None


def test_one_search_plans_every_object_as_its_own_search_would():
    """plan_table's one search gives each object the plan of a search for that
    object alone, on the reset worlds of seeds 0..99 and after a walk that
    opens a door (the longest plan but its pick up, then 20 valid steps,
    which may toggle doors and pick up or put down objects)."""
    from echogrid.rng import SplitMix64

    walks_with_open_doors = 0
    for seed in range(100):
        world = generate(seed)
        walked = copy_world(world)
        longest = max(plan_table(world).values(), key=len)
        assert TOGGLE_DOOR in longest
        rng = SplitMix64(seed)
        for action in longest[:-1]:
            step(walked, action)
        for _ in range(20):
            valid = sorted(partition_actions(action_validity(walked))[0])
            step(walked, valid[rng.randbelow(len(valid))])
        walks_with_open_doors += bool(open_doors(walked))
        for w in (world, walked):
            expected = {Goal(o.color, o.kind): _plan_alone(w, o.position) for o in w.objects}
            assert plan_table(w) == expected
            for goal, plan in expected.items():
                if plan is None:  # the walk picked it up
                    with pytest.raises(PlanningError):
                        bfs_plan(w, goal)
                else:
                    assert bfs_plan(w, goal) == plan
    assert walks_with_open_doors == 100


def test_plan_for_raises_value_error_for_an_absent_goal(world7):
    """An absent goal raises ValueError, so DemoBackend answers an infer_traj
    request for it with an empty workflow."""
    backend = DemoBackend(world7)
    present = {(o.color, o.kind) for o in world7.objects}
    pairs = itertools.product(("red", "grey"), ("key", "ball"))
    absent = next(Goal(c, k) for c, k in pairs if (c, k) not in present)
    with pytest.raises(ValueError, match="absent"):
        backend.plan_for(absent)
    reply = backend.complete(
        LMRequest(
            system_prompt=ECHO_INFER_TRAJ,
            messages=[{"role": "user", "content": f"Goal: {render_goal(absent)}\n\nsummary"}],
        )
    )
    assert json.loads(reply) == {"goal": render_goal(absent), "workflow": ""}
    present_goal = Goal(world7.objects[0].color, world7.objects[0].kind)
    assert backend.plan_for(present_goal) == bfs_plan(world7, present_goal)


def test_plan_for_raises_planning_error_for_a_walled_off_object():
    world = world_from_ascii(
        "#######\n#@.#K.#\n#######",
        facing="east",
        legend={"K": ("grey", "key")},
    )
    with pytest.raises(PlanningError):
        OracleBackend(world).plan_for(Goal("grey", "key"))


def test_oracle_policy_outputs_parse(world7):
    backend = OracleBackend(world7)
    goal = Goal(world7.objects[0].color, world7.objects[0].kind)
    reply = backend.complete(_agent_request(render_goal(goal)))
    thought, choice = parse_choice(reply)
    assert isinstance(thought, str) and 0 <= choice <= 5


def test_oracle_policy_episode_matches_plan(world7):
    goal = Goal(world7.objects[3].color, world7.objects[3].kind)
    policy = ReactPolicy(OracleBackend(world7))
    traj = run_episode(reset(copy_world(world7)), goal, policy)
    assert traj.success
    assert len(traj.steps) == len(bfs_plan(world7, goal))
    assert all(s.was_valid for s in traj.steps)


@pytest.mark.parametrize(
    "make",
    [lambda w: TurnLeftBackend(), OracleBackend, DemoBackend],
    ids=["turn-left", "oracle", "bfs-demo"],
)
def test_scripted_backends_freed_without_gc(world7, make):
    """No reference cycle keeps a rule backend or its world copy alive."""
    import gc
    import weakref

    gc.disable()
    try:
        backend = make(world7)
        goal = Goal(world7.objects[0].color, world7.objects[0].kind)
        run_episode(reset(copy_world(world7)), goal, ReactPolicy(backend), horizon=4)
        refs = [weakref.ref(backend)]
        if hasattr(backend, "world"):
            refs.append(weakref.ref(backend.world))
        del backend
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_classify_request_routes_by_system_prompt():
    agent = _agent_request("Pick up the grey key")
    assert classify_request(agent) == "agent"
    summarize = LMRequest(system_prompt=ECHO_SUMMARIZE, messages=[])
    assert classify_request(summarize) == "summarize"
    identify = LMRequest(system_prompt=ECHO_IDENTIFY_GOALS, messages=[])
    assert classify_request(identify) == "identify_goals"
    with_memory = _agent_request("Pick up the grey key", memory_text="Known workflows:\nx: y")
    assert classify_request(with_memory) == "agent"
    assert classify_request(_agent_request("x", memory_text="")) == "agent"
    for prompt, role in ((ECHO_INFER_TRAJ, "infer_traj"), (REFLEXION, "reflect"), (AWM, "awm")):
        assert classify_request(LMRequest(system_prompt=prompt, messages=[])) == role
    poet = LMRequest(system_prompt="You are a poet.", messages=[])
    assert classify_request(poet) == "unknown"
    with pytest.raises(ScriptExhaustedError, match="'unknown'"):
        TurnLeftBackend().complete(poet)  # a scripted backend has no handler for it


def test_sighting_tour_sees_every_object(bench_worlds):
    from echogrid.textview import render

    for world in bench_worlds:
        tour = sighting_tour(world)
        assert len(tour) < 64, "tour must fit in one episode"
        scratch = reset(copy_world(world))
        seen = set()
        for action in tour + [0]:
            for entity in render(scratch).visible_entities:
                if entity.entity == "object":
                    seen.add((entity.color, entity.kind))
            step(scratch, action)
        assert seen == {(o.color, o.kind) for o in world.objects}
        assert scratch.agent.carrying is None, "the tour never picks anything up"


# sha256 of [[seed, sighting_tour, [bfs_plan per object]] for seeds 0..99],
# JSON without spaces; pins every plan the scripted backends can emit.
PLANS_DIGEST = "5cc3d16d660818c54dc655c3af29cc83520ca12bf1fc8d942500fb4575e1e186"


def test_tours_and_plans_match_pinned_digest():
    import hashlib

    from echogrid.world import generate

    rows = []
    for seed in range(100):
        world = generate(seed)
        plans = [bfs_plan(world, Goal(o.color, o.kind)) for o in world.objects]
        rows.append([seed, sighting_tour(world), plans])
    encoded = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(encoded).hexdigest() == PLANS_DIGEST


# sha256 of the agent's step message at each of the 41 states of a 40-step
# walk over valid actions on seeds 0..99, then of every distinct reply the
# turn-left and bfs-demo backends give the agent, sorted; a line each.
STEP_MESSAGES_DIGEST = "c3aab6c6119ea42fc13a8597f5a11f27386595e86536e8026510e3e4e76609af"


def test_agent_step_messages_and_replies_match_pinned_digest():
    """The bytes the agent sends at each step and the scripted replies it reads.

    Messages are read back from the policy, so the pin covers the path from
    render to the request. The bfs-demo replies cover its sighting tour and
    a known workflow naming every action, each run one step past its end.
    """
    import hashlib

    from echogrid.rng import SplitMix64
    from echogrid.strategies import render_workflows
    from echogrid.textview import canonical_goal, render
    from echogrid.world import ACTION_NAMES, generate

    digest = hashlib.sha256()
    replies = set()
    for seed in range(100):
        world = generate(seed)
        target = world.objects[seed % len(world.objects)]
        goal = Goal(target.color, target.kind)
        goal_text = render_goal(goal)
        policy = ReactPolicy(TurnLeftBackend())
        rng = SplitMix64(seed)
        for i in range(41):
            policy.begin_episode(goal_text)
            policy.decide(render(world))
            digest.update((policy.messages[0]["content"] + "\n").encode())
            replies.add(policy.messages[1]["content"])
            if i < 40:
                valid = sorted(partition_actions(action_validity(world))[0])
                step(world, valid[rng.randbelow(len(valid))])
        demo = DemoBackend(generate(seed))
        every_action = route_text(list(range(len(ACTION_NAMES))), goal)
        memory = render_workflows([(canonical_goal(goal_text), every_action)])
        for memory_text, steps in (("", len(demo.tour) + 1), (memory, len(ACTION_NAMES) + 1)):
            policy = ReactPolicy(demo, memory_text=memory_text)
            policy.begin_episode(goal_text)
            observation = render(demo.world)
            for _ in range(steps):
                policy.decide(observation)
            replies.update(m["content"] for m in policy.messages if m["role"] == "assistant")
    for reply in sorted(replies):
        digest.update((reply + "\n").encode())
    # Circling; tour moves (turns, forward, toggle) and tour complete; six
    # workflow actions and workflow exhausted.
    assert len(replies) == 13
    assert digest.hexdigest() == STEP_MESSAGES_DIGEST


def test_sighting_tour_unseeable_object_is_explicit():
    """An object no pose can see fails the tour, after the seeable ones."""
    world = world_from_ascii(
        "########\n#@.K.#B#\n########",
        facing="west",
        legend={"K": ("grey", "key"), "B": ("red", "ball")},
    )
    with pytest.raises(PlanningError):
        sighting_tour(world)


def test_route_text_roundtrip(world7):
    goal = Goal(world7.objects[0].color, world7.objects[0].kind)
    plan = bfs_plan(world7, goal)
    workflow = route_text(plan, goal)
    assert parse_route(workflow) == plan
    assert parse_route("Step 1: wander aimlessly.") is None
    assert parse_route("Step 1: follow this route: fly, teleport.") is None


def test_demo_backend_summary_lists_seen_entities(world7):
    backend = DemoBackend(world7)
    goal = Goal(world7.objects[0].color, world7.objects[0].kind)
    policy = ReactPolicy(backend, horizon=64)
    traj = run_episode(reset(copy_world(world7)), goal, policy)
    assert not traj.success, "tour never picks up, so the episode fails"

    transcript = format_trajectory(traj)
    summary_reply = backend.complete(
        LMRequest(system_prompt=ECHO_SUMMARIZE, messages=[{"role": "user", "content": transcript}])
    )
    summary = json.loads(summary_reply)
    assert summary["0"].startswith("Agent spawned in")
    mentioned = extract_mentions(summary_reply)
    for obj in world7.objects:
        assert (obj.color, obj.kind) in mentioned

    goals_reply = backend.complete(
        LMRequest(
            system_prompt=ECHO_IDENTIFY_GOALS,
            messages=[{"role": "user", "content": f"Trajectory summary:\n{summary_reply}"}],
        )
    )
    goals = parse_json_payload(goals_reply, {"possible_goals": list})["possible_goals"]
    assert render_goal(goal) in goals
    assert all("door" not in g for g in goals), "doors are not portable"


def test_demo_backend_abstains_when_nothing_seen():
    backend = TurnLeftBackend()
    reply = backend.complete(
        LMRequest(
            system_prompt=ECHO_IDENTIFY_GOALS,
            messages=[{"role": "user", "content": "Trajectory summary: nothing"}],
        )
    )
    assert parse_json_payload(reply, {"possible_goals": list})["possible_goals"] == []


def test_demo_backend_workflows_execute(world7):
    """BFS-backed workflows from infer_traj are valid by construction."""
    backend = DemoBackend(world7)
    for obj in world7.objects:
        goal = Goal(obj.color, obj.kind)
        reply = backend.complete(
            LMRequest(
                system_prompt=ECHO_INFER_TRAJ,
                messages=[{"role": "user", "content": f"Goal: {render_goal(goal)}\n\nsummary"}],
            )
        )
        payload = parse_json_payload(reply, {"goal": str, "workflow": str})
        route = parse_route(payload["workflow"])
        scratch = reset(copy_world(world7))
        for action in route:
            step(scratch, action)
        assert goal_satisfied(scratch, goal)


def test_demo_backend_follows_injected_workflow(world7):
    backend = DemoBackend(world7)
    obj = world7.objects[1]
    goal = Goal(obj.color, obj.kind)
    plan = bfs_plan(world7, goal)
    memory_text = f"Known workflows:\n{render_goal(goal).casefold()}: {route_text(plan, goal)}"
    policy = ReactPolicy(backend, horizon=64, memory_text=memory_text)
    traj = run_episode(reset(copy_world(world7)), goal, policy)
    assert traj.success
    assert len(traj.steps) == len(plan)


def test_turn_left_backend_spins():
    backend = TurnLeftBackend()
    reply = backend.complete(_agent_request("Pick up the grey key"))
    assert parse_choice(reply)[1] == 0


def test_every_scripted_output_passes_the_parsers(world7):
    """Scripted replies must stay in lockstep with the prompt formats."""
    from echogrid import prompts
    from echogrid.lm import parse_summary

    transcript = (
        "Goal: Pick up the grey key\nStep 1\nObservation: You see a grey key "
        "one step ahead.\nThought: t\nAction: 2 (go forward) [valid]\n"
        "Outcome: SUCCESS. The goal was achieved at step 1. Final reward: 1."
    )
    offline = [
        (prompts.ECHO_SUMMARIZE, lambda r: parse_summary(r)),
        (prompts.ECHO_IDENTIFY_GOALS, lambda r: parse_json_payload(r, {"possible_goals": list})),
        (prompts.ECHO_INFER_TRAJ, lambda r: parse_json_payload(r, {"goal": str, "workflow": str})),
        (prompts.REFLEXION, lambda r: parse_json_payload(r, {"reflection": str})),
        (prompts.AWM, lambda r: parse_json_payload(r, {"goal": str, "workflow": str})),
    ]
    present_goal = render_goal(Goal(world7.objects[0].color, world7.objects[0].kind))
    for backend in (TurnLeftBackend(), OracleBackend(world7), DemoBackend(world7)):
        reply = backend.complete(_agent_request(present_goal))
        parse_choice(reply)
        for system_prompt, parser in offline:
            reply = backend.complete(
                LMRequest(
                    system_prompt=system_prompt,
                    messages=[{"role": "user", "content": transcript}],
                )
            )
            parser(reply)


# ---------------------------------------------------------------------------
# Scripted replies against the whole-text scans they replace
# ---------------------------------------------------------------------------

_REFERENCE_ENTITY_RE = re.compile(
    r"\b(red|green|blue|purple|yellow|grey) (key|ball|box|star|hexagon|square|door)\b"
)


def _mentions_reference(text):
    """One regex pass over the whole text, deduplicated with a list scan."""
    out = []
    for match in _REFERENCE_ENTITY_RE.finditer(text):
        pair = (match.group(1), match.group(2))
        if pair not in out:
            out.append(pair)
    return out


def _goal_line_reference(text):
    for line in text.splitlines():
        if line.startswith("Goal: "):
            return line[len("Goal: ") :]
    return ""


_COLORS = ["red", "green", "blue", "purple", "yellow", "grey"]
_ENTITY_KINDS = ["key", "ball", "box", "star", "hexagon", "square", "door"]
_MENTION_TEXT = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.sampled_from(_COLORS), st.sampled_from(_ENTITY_KINDS + ["keys"]))
            .map(" ".join),
            st.sampled_from(_COLORS + _ENTITY_KINDS + ["_", "0", "7", "é", ".", ":"]),
        ),
        st.sampled_from([" ", " ", ", ", "\n", "\r", "\r\n", "\n\n", "", "_", "é", "0"]),
    ).map("".join),
    max_size=30,
).map("".join)
_GOAL_TEXT = st.tuples(
    st.sampled_from(["", "Goal: "]),
    st.lists(
        st.sampled_from(
            ["Goal: ", "Goal:", "goal: ", "\nGoal: ", "Pick up the red key", "x", "é", " ",
             "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
        ),
        max_size=12,
    ).map("".join),
).map("".join)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(texts=st.lists(_MENTION_TEXT, min_size=1, max_size=6))
def test_mentions_match_a_whole_text_scan(world7, texts):
    """extract_mentions and DemoBackend's summarize and identify_goals replies
    list what one scan of the whole text finds, in order, first occurrence
    winning; a backend that answered other texts first answers as a fresh one,
    also on texts made of lines it has read before."""
    shared = DemoBackend(world7)
    for text in texts + ["\n".join(texts), "\r\n".join(reversed(texts))]:
        expected = _mentions_reference(text)
        assert extract_mentions(text) == expected
        for system_prompt in (ECHO_SUMMARIZE, ECHO_IDENTIFY_GOALS):
            request = LMRequest(
                system_prompt=system_prompt, messages=[{"role": "user", "content": text}]
            )
            reply = shared.complete(request)
            assert reply == DemoBackend(world7).complete(request)
            if system_prompt == ECHO_SUMMARIZE:
                listed = ", ".join(f"{c} {k}" for c, k in expected)
                observed = (
                    f"Agent explored the rooms and observed: {listed}."
                    if expected
                    else "Agent explored but observed nothing of note."
                )
                assert json.loads(reply)["1"] == observed
            else:
                assert json.loads(reply)["possible_goals"] == [
                    f"Pick up the {c} {k}" for c, k in expected if k != "door"
                ]


@settings(max_examples=400, deadline=None)
@given(text=_GOAL_TEXT)
def test_goal_line_matches_a_splitlines_scan(text):
    assert _goal_line(text) == _goal_line_reference(text)


def test_steps_taken_counts_assistant_messages():
    """The step index is the number of assistant messages, whatever their order."""
    u = {"role": "user", "content": "Goal: Pick up the red key\nobs"}
    a = {"role": "assistant", "content": '{"thought": "t", "choice": 0}'}
    bad = {"role": "assistant", "content": "no json"}
    reminder = {"role": "user", "content": PARSE_REMINDER}
    for messages, expected in (
        ([u, a, u, bad, reminder], 2),
        ([u, a, u, bad, reminder, a, u], 3),
        ([a, a, u, a, u, u], 3),
        ([u, u, u], 0),
        ([], 0),
    ):
        assert _steps_taken(LMRequest(system_prompt="", messages=messages)) == expected


# sha256 of every summarize and identify_goals reply of a DemoBackend through
# echo runs of 16 episodes on env seeds 0..19 (one backend per env, as in a
# run), a line each in call order.
OFFLINE_REPLIES_DIGEST = "a477638704d7247179600c9661177813afbed32f3b9537dda8a57c7ea06f614e"


def test_summarize_and_identify_goals_replies_match_pinned_digest(monkeypatch):
    import hashlib

    from echogrid import harness

    digest = hashlib.sha256()
    calls = []

    def recording_make_backend(spec, world, mirror_path=None):
        backend = real_make_backend(spec, world, mirror_path)
        complete = backend.complete

        def recorded(request):
            reply = complete(request)
            if classify_request(request) in ("summarize", "identify_goals"):
                calls.append(reply)
            return reply

        backend.complete = recorded
        return backend

    real_make_backend = harness.make_backend
    monkeypatch.setattr(harness, "make_backend", recording_make_backend)
    config = harness.RunConfig(
        env_seeds=tuple(range(20)), strategy="echo", backend="scripted:bfs-demo"
    )
    for seed in config.env_seeds:
        harness.run_env_stream(config, seed)
    for reply in calls:
        digest.update((reply + "\n").encode())
    assert len(calls) == 2 * 20 * 16
    assert digest.hexdigest() == OFFLINE_REPLIES_DIGEST
