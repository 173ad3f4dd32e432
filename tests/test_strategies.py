"""Hindsight/update rule fidelity for every memory strategy."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echogrid.episode import StepRecord, Trajectory
from echogrid.lm import BackendError
from echogrid.strategies import (
    STRATEGIES,
    ReplayBuffer,
    get_strategy,
    render_workflows,
    update_rule,
)
from echogrid.world import Goal

from conftest import CannedBackend


def _trajectory(success=False) -> Trajectory:
    return Trajectory(
        goal=Goal("grey", "key"),
        steps=[
            StepRecord(
                observation_text="You see a grey star one step ahead.",
                thought="approach",
                action_index=2,
                was_valid=True,
                step_reward=1 if success else 0,
            )
        ],
        success=success,
        reward=1 if success else 0,
    )


def test_update_rule_strict_shortening():
    buf = ReplayBuffer(entries={"g": "abcdef"})
    update_rule(buf, "g", "abc")
    assert buf.entries == {"g": "abc"}


def test_update_rule_equal_length_keeps_old():
    buf = ReplayBuffer(entries={"g": "abc"})
    update_rule(buf, "g", "abz")
    assert buf.entries == {"g": "abc"}


def test_update_rule_inserts_absent_goal():
    buf = ReplayBuffer()
    update_rule(buf, "g", "xyz")
    assert buf.entries == {"g": "xyz"}


def test_update_rule_rejects_empty_workflow():
    buf = ReplayBuffer(entries={"g": "abc"})
    update_rule(buf, "g", "")
    update_rule(buf, "other", "")
    assert buf.entries == {"g": "abc"}


def test_update_rule_canonicalizes_goal_keys():
    buf = ReplayBuffer()
    update_rule(buf, "Pick up grey key.", "route a")
    update_rule(buf, "Pick up the grey key", "route")
    assert buf.entries == {"pick up the grey key": "route"}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.text(min_size=0, max_size=12)),
        max_size=30,
    )
)
def test_buffer_monotonicity_property(stream):
    """Per goal, stored workflow length never increases."""
    buf = ReplayBuffer()
    lengths = {}
    for goal, workflow in stream:
        update_rule(buf, goal, workflow)
        for key, value in buf.entries.items():
            assert value, "no empty workflow is ever stored"
            if key in lengths:
                assert len(value) <= lengths[key]
            lengths[key] = len(value)


def _echo_script(goals_with_workflows, summary_text="Agent explored."):
    script = [json.dumps({"0": summary_text})]
    script.append(json.dumps({"possible_goals": [g for g, _ in goals_with_workflows]}))
    for goal, workflow in goals_with_workflows:
        script.append(json.dumps({"goal": goal, "workflow": workflow}))
    return CannedBackend(script)


def test_echo_inserts_and_replaces_on_collision():
    buffer = ReplayBuffer(entries={"pick up the grey star": "W" * 50})
    backend = _echo_script(
        [("Pick up the grey star", "short route"), ("Pick up the red ball", "fresh route")]
    )
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert buffer.entries["pick up the grey star"] == "short route"
    assert buffer.entries["pick up the red ball"] == "fresh route"
    # oracle: brute-force application of the documented rule
    assert backend.calls == 2 + 2


def test_echo_abstention_leaves_buffer_unchanged():
    backend = _echo_script([])
    buffer = ReplayBuffer(entries={"g": "w"})
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert buffer.entries == {"g": "w"}
    assert backend.calls == 2, "abstention still costs summarize + identify_goals"


def test_echo_longer_candidate_never_replaces():
    buffer = ReplayBuffer(entries={"pick up the grey star": "ab"})
    backend = _echo_script([("Pick up the grey star", "much longer workflow")])
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert buffer.entries == {"pick up the grey star": "ab"}


def test_echo_summarize_parse_failure_skips_episode():
    backend = CannedBackend(["no json at all"])
    buffer = ReplayBuffer(entries={"g": "w"})
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert buffer.entries == {"g": "w"}
    assert backend.calls == 1


def test_echo_infer_parse_failure_skips_only_that_goal():
    script = [
        json.dumps({"0": "summary"}),
        json.dumps({"possible_goals": ["Pick up the grey star", "Pick up the red ball"]}),
        "garbage reply",
        json.dumps({"goal": "Pick up the red ball", "workflow": "valid route"}),
    ]
    buffer = ReplayBuffer()
    STRATEGIES["echo"].after_episode(CannedBackend(script), _trajectory(), buffer)
    assert buffer.entries == {"pick up the red ball": "valid route"}


def test_echo_backend_error_keeps_earlier_updates():
    """Candidates merge as they arrive, so a failing later call keeps earlier ones."""

    class FailsOnFourthCall(CannedBackend):
        def complete(self, request):
            if self.calls == 3:
                raise BackendError("connection reset")
            return super().complete(request)

    script = _echo_script(
        [("Pick up the grey star", "route one"), ("Pick up the red ball", "route two")]
    ).replies
    buffer = ReplayBuffer()
    with pytest.raises(BackendError):
        STRATEGIES["echo"].after_episode(FailsOnFourthCall(script), _trajectory(), buffer)
    assert buffer.entries == {"pick up the grey star": "route one"}


def test_echo_caps_goals_per_episode():
    goals = [(f"Pick up the goal{i}", f"w{i}") for i in range(12)]
    backend = _echo_script(goals)
    buffer = ReplayBuffer()
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert len(buffer.entries) == 8
    assert backend.calls == 2 + 8


def test_echo_empty_workflow_not_stored():
    backend = _echo_script([("Pick up the grey star", "")])
    buffer = ReplayBuffer()
    STRATEGIES["echo"].after_episode(backend, _trajectory(), buffer)
    assert buffer.entries == {}


def test_reflexion_appends_one_reflection_per_episode():
    reflection = (
        "I need to ensure that I correctly execute the 'pick up' action when I am "
        "adjacent to the target item."
    )
    backend = CannedBackend([json.dumps({"reflection": reflection})] * 2)
    memory = []
    STRATEGIES["reflexion"].after_episode(backend, _trajectory(), memory)
    assert memory == [reflection]
    STRATEGIES["reflexion"].after_episode(backend, _trajectory(), memory)
    assert len(memory) == 2
    assert backend.calls == 2


def test_reflexion_malformed_output_appends_nothing():
    backend = CannedBackend(["not json"])
    memory = []
    STRATEGIES["reflexion"].after_episode(backend, _trajectory(), memory)
    assert memory == []


def test_awm_failure_payload_is_noop():
    backend = CannedBackend(
        [json.dumps({"goal": "Pick up grey key.", "workflow": ""})]
    )
    log = []
    STRATEGIES["awm"].after_episode(backend, _trajectory(success=False), log)
    assert log == []
    assert backend.calls == 1


def test_awm_appends_success_and_allows_duplicates():
    reply = json.dumps({"goal": "Pick up the grey key", "workflow": "go north"})
    backend = CannedBackend([reply, reply])
    log = []
    STRATEGIES["awm"].after_episode(backend, _trajectory(success=True), log)
    STRATEGIES["awm"].after_episode(backend, _trajectory(success=True), log)
    assert log == [
        ("pick up the grey key", "go north"),
        ("pick up the grey key", "go north"),
    ]


def test_awmpp_keyed_differs_from_awm_append():
    """Same scripted replies: awm appends duplicates, awmpp keeps one keyed entry."""
    replies = [
        json.dumps({"goal": "Pick up the grey key", "workflow": "longer route text"}),
        json.dumps({"goal": "Pick up the grey key", "workflow": "short"}),
        json.dumps({"goal": "Pick up grey key.", "workflow": "mid route"}),
    ]
    log = []
    buffer = ReplayBuffer()
    for reply in replies:
        STRATEGIES["awm"].after_episode(CannedBackend([reply]), _trajectory(True), log)
        STRATEGIES["awmpp"].after_episode(CannedBackend([reply]), _trajectory(True), buffer)
    assert len(log) == 3
    assert buffer.entries == {"pick up the grey key": "short"}


def test_awmpp_failure_unchanged():
    backend = CannedBackend([json.dumps({"goal": "Pick up grey key.", "workflow": ""})])
    buffer = ReplayBuffer(entries={"pick up the grey key": "w"})
    STRATEGIES["awmpp"].after_episode(backend, _trajectory(False), buffer)
    assert buffer.entries == {"pick up the grey key": "w"}


def test_call_count_fidelity():
    """Exact LM-call budget per after_episode invocation."""
    reflexion = CannedBackend([json.dumps({"reflection": "note"})])
    STRATEGIES["reflexion"].after_episode(reflexion, _trajectory(), [])
    assert reflexion.calls == 1

    awm = CannedBackend([json.dumps({"goal": "g", "workflow": "w"})])
    STRATEGIES["awm"].after_episode(awm, _trajectory(True), [])
    assert awm.calls == 1

    for n_goals in (0, 1, 3):
        backend = _echo_script([(f"Pick up the goal{i}", f"w{i}") for i in range(n_goals)])
        STRATEGIES["echo"].after_episode(backend, _trajectory(), ReplayBuffer())
        assert backend.calls == 2 + n_goals


def test_render_memory_formats():
    echo = get_strategy("echo")
    buffer = ReplayBuffer()
    assert echo.render_memory(buffer) == ""
    update_rule(buffer, "pick up the grey star", "Step 1: go north.")
    assert echo.render_memory(buffer) == (
        "Known workflows:\npick up the grey star: Step 1: go north."
    )

    reflexion = get_strategy("reflexion")
    memory = ["be faster"]
    assert reflexion.render_memory(memory) == "Notes from previous episodes:\nbe faster"
    assert reflexion.render_memory([]) == ""

    assert get_strategy("react").render_memory(None) == ""


def test_render_memory_golden_three_entries():
    buffer = ReplayBuffer()
    update_rule(buffer, "pick up the grey star", "Step 1: north. Step 2: grab it.")
    update_rule(buffer, "pick up the red ball", "Step 1: east through the red door.")
    update_rule(buffer, "pick up the blue box", "Step 1: south. Step 2: west.")
    golden = (
        "Known workflows:\n"
        "pick up the grey star: Step 1: north. Step 2: grab it.\n"
        "pick up the red ball: Step 1: east through the red door.\n"
        "pick up the blue box: Step 1: south. Step 2: west."
    )
    assert get_strategy("echo").render_memory(buffer) == golden
    assert render_workflows(buffer.entries.items()) == golden


def test_abstention_everywhere_degrades_to_react():
    """All-abstaining backends leave every strategy's memory empty."""
    for name, replies in (
        ("echo", [json.dumps({"0": "s"}), json.dumps({"possible_goals": []})]),
        ("awm", [json.dumps({"goal": "g", "workflow": ""})]),
        ("awmpp", [json.dumps({"goal": "g", "workflow": ""})]),
    ):
        strategy = get_strategy(name)
        memory = strategy.new_memory()
        memory = strategy.after_episode(CannedBackend(replies), _trajectory(), memory)
        assert strategy.render_memory(memory) == ""


def test_strategy_isolation_under_interleaving():
    """Interleaved and sequential streams produce identical memories."""

    def run(order):
        echo = get_strategy("echo")
        awm = get_strategy("awm")
        echo_mem, awm_mem = echo.new_memory(), awm.new_memory()
        events = {
            "e1": lambda: echo.after_episode(
                _echo_script([("Pick up the grey star", "route one")]), _trajectory(), echo_mem
            ),
            "e2": lambda: echo.after_episode(
                _echo_script([("Pick up the grey star", "r2")]), _trajectory(), echo_mem
            ),
            "a1": lambda: awm.after_episode(
                CannedBackend([json.dumps({"goal": "g", "workflow": "w1"})]),
                _trajectory(True),
                awm_mem,
            ),
            "a2": lambda: awm.after_episode(
                CannedBackend([json.dumps({"goal": "g", "workflow": "w2"})]),
                _trajectory(True),
                awm_mem,
            ),
        }
        for key in order:
            events[key]()
        return echo_mem.entries, list(awm_mem)

    assert run(["e1", "e2", "a1", "a2"]) == run(["e1", "a1", "e2", "a2"])


def test_snapshot_roundtrip_all_strategies():
    cases = [
        ("echo", ReplayBuffer(entries={"g": "w"})),
        ("awm", [("g", "w"), ("g", "w")]),
        ("reflexion", ["a", "b"]),
        ("react", None),
    ]
    for name, memory in cases:
        strategy = get_strategy(name)
        doc = json.loads(json.dumps(strategy.memory_snapshot(memory)))
        restored = strategy.load_snapshot(doc)
        assert strategy.render_memory(restored) == strategy.render_memory(memory)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        get_strategy("zen")
