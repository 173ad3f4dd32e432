"""Ground-truth planning and scripted backends for fully offline testing.

bfs_plan searches the exact (position, facing, door-states) space, so its
plans are shortest by construction. The scripted backends emit replies in
the same output formats the live model is prompted for; every scripted
reply must parse through the lm module's parsers, which keeps the formats
honest. No test in this package ever needs a network.
"""

from __future__ import annotations

import json
import re
from functools import cache
from typing import Callable, Optional

from .lm import LMRequest
from .prompts import classify_request
from .textview import canonical_goal, parse_goal, render_goal, sees
from .world import (
    ACTION_NAMES,
    FACING_VECTORS,
    GO_FORWARD,
    KINDS,
    LEFT_OF,
    PICK_UP,
    RIGHT_OF,
    TOGGLE_DOOR,
    TURN_LEFT,
    TURN_RIGHT,
    Goal,
    GridWorld,
    copy_world,
    free_floor,
    open_doors,
    reset,
    step,
)


class PlanningError(Exception):
    """No action sequence reaches the goal; on generated worlds this is a bug."""


class ScriptExhaustedError(Exception):
    """A scripted backend ran out of canned responses."""


def _search(
    world: GridWorld,
    goal_rank: Callable[[tuple[int, int], str, frozenset], Optional[int]],
) -> tuple[int, list[int]]:
    """Level-order breadth-first search over (position, facing, open doors) states.

    goal_rank ranks a goal state (0 is best) or returns None for any other
    state. Returns the lowest rank reached at the shallowest goal depth and
    the actions to the first state reaching it in search order. Objects are
    static during a search, so the enterable cells are the object-free floor
    plus the doors in a state's open set.
    """
    doors = {d.position for d in world.doors}
    floor = free_floor(world)
    start = (world.agent.position, world.agent.facing, open_doors(world))
    rank = goal_rank(*start)
    if rank is not None:
        return rank, []
    parent: dict = {start: None}  # state -> (previous state, action)
    level = [start]
    while level:
        best = best_state = None
        frontier = []
        for state in level:
            pos, facing, opened = state
            fx, fy = FACING_VECTORS[facing]
            ahead = (pos[0] + fx, pos[1] + fy)
            successors = [
                (TURN_LEFT, (pos, LEFT_OF[facing], opened)),
                (TURN_RIGHT, (pos, RIGHT_OF[facing], opened)),
            ]
            if ahead in floor or ahead in opened:
                successors.append((GO_FORWARD, (ahead, facing, opened)))
            if ahead in doors:
                successors.append((TOGGLE_DOOR, (pos, facing, opened ^ {ahead})))
            for action, succ in successors:
                if succ in parent:
                    continue
                parent[succ] = (state, action)
                rank = goal_rank(*succ)
                if rank is not None and (best is None or rank < best):
                    if rank == 0:  # nothing ranks lower: stop here
                        return 0, _path_to(parent, succ)
                    best, best_state = rank, succ
                frontier.append(succ)
        if best is not None:
            return best, _path_to(parent, best_state)
        level = frontier
    raise PlanningError("goal state is unreachable")


def _path_to(parent: dict, state) -> list[int]:
    path = []
    while parent[state] is not None:
        state, action = parent[state]
        path.append(action)
    path.reverse()
    return path


def bfs_plan(world: GridWorld, goal: Goal) -> list[int]:
    """Shortest action sequence ending with a successful pick up of the goal."""
    target = None
    for obj in world.objects:
        if obj.color == goal.color and obj.kind == goal.kind:
            target = obj.position
            break
    if target is None:
        raise ValueError(f"goal names an absent object: {goal.color} {goal.kind}")

    def facing_target(pos, facing, opened):
        fx, fy = FACING_VECTORS[facing]
        return 0 if (pos[0] + fx, pos[1] + fy) == target else None

    try:
        _, path = _search(world, facing_target)
    except PlanningError:
        raise PlanningError(
            f"no route reaches the {goal.color} {goal.kind}; "
            "generated worlds must never produce this"
        ) from None
    return path + [PICK_UP]


def sighting_tour(world: GridWorld) -> list[int]:
    """Action sequence after which every object has been in view at least once.

    Greedy: repeatedly plan the shortest route that brings a still-unseen
    object into the visibility window, the lowest-indexed one among the
    nearest, crediting everything sighted along the way. One search per leg
    tests every unseen object at each state. The tour never picks anything up.
    """
    scratch = reset(copy_world(world))
    actions: list[int] = []
    seen: set[int] = set()

    def note_sightings():
        pos, facing, opened = scratch.agent.position, scratch.agent.facing, open_doors(scratch)
        for i, obj in enumerate(scratch.objects):
            if i not in seen and sees(scratch, pos, facing, obj.position, opened):
                seen.add(i)

    note_sightings()
    while len(seen) < len(scratch.objects):
        unseen = [i for i in range(len(scratch.objects)) if i not in seen]
        targets = [scratch.objects[i].position for i in unseen]

        def first_in_view(pos, facing, opened):
            for rank, target in enumerate(targets):
                if sees(scratch, pos, facing, target, opened):
                    return rank
            return None

        rank, leg = _search(scratch, first_in_view)
        for action in leg:
            step(scratch, action)
            actions.append(action)
            note_sightings()
        seen.add(unseen[rank])
    return actions


# ---------------------------------------------------------------------------
# Scripted backends
# ---------------------------------------------------------------------------

_ENTITY_RE = re.compile(
    r"\b(red|green|blue|purple|yellow|grey) (key|ball|box|star|hexagon|square|door)\b"
)
_ROUTE_RE = re.compile(r"follow this route: ([a-z ,]+)\.")
_ACTION_LINE_RE = re.compile(r"^Action: \d+ \(([a-z ]+)\) \[", re.MULTILINE)


def extract_mentions(text: str) -> list[tuple[str, str]]:
    """Ordered, deduplicated (color, kind-or-door) mentions in rendered text."""
    out = []
    for match in _ENTITY_RE.finditer(text):
        pair = (match.group(1), match.group(2))
        if pair not in out:
            out.append(pair)
    return out


def route_text(plan: list[int], goal: Goal) -> str:
    names = ", ".join(ACTION_NAMES[a] for a in plan)
    return (
        f"Step 1: From the starting position, follow this route: {names}. "
        f"Step 2: Pick up the {goal.color} {goal.kind}."
    )


def parse_route(workflow: str) -> Optional[list[int]]:
    match = _ROUTE_RE.search(workflow)
    if match is None:
        return None
    actions = []
    for name in match.group(1).split(", "):
        if name not in ACTION_NAMES:
            return None
        actions.append(ACTION_NAMES.index(name))
    return actions


def _last_user_content(request: LMRequest) -> str:
    for message in reversed(request.messages):
        if message["role"] == "user":
            return message["content"]
    return ""


def _goal_line(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("Goal: "):
            return line[len("Goal: ") :]
    return ""


def _known_workflows(system_prompt: str) -> dict[str, str]:
    lines = system_prompt.splitlines()
    try:
        start = lines.index("Known workflows:") + 1
    except ValueError:
        return {}
    out = {}
    for line in lines[start:]:
        if ": " not in line:
            break
        goal, workflow = line.split(": ", 1)
        out[canonical_goal(goal)] = workflow
    return out


def _steps_taken(request: LMRequest) -> int:
    return sum(1 for m in request.messages if m["role"] == "assistant")


@cache  # seven thoughts, at most six actions each
def _choice(thought: str, action: int) -> str:
    return json.dumps({"thought": thought, "choice": action})


class ScriptedBackend:
    """Deterministic backend that answers with a canned list of replies.

    Every request is recorded so tests can assert exact call counts. An
    exhausted script raises. Subclasses answer by overriding _respond.
    """

    def __init__(self, script: list[str]):
        self.script = list(script)
        self.requests: list[LMRequest] = []

    @property
    def calls(self) -> int:
        return len(self.requests)

    def complete(self, request: LMRequest) -> str:
        self.requests.append(request)
        return self._respond(request)

    def _respond(self, request: LMRequest) -> str:
        index = len(self.requests) - 1
        if index >= len(self.script):
            raise ScriptExhaustedError(f"script exhausted after {len(self.script)} responses")
        return self.script[index]


class _RuleBackend(ScriptedBackend):
    """Scripted backend with per-call-type handler methods."""

    def __init__(self):
        super().__init__([])

    def _respond(self, request: LMRequest) -> str:
        kind = classify_request(request)
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ScriptExhaustedError(f"no scripted handler for {kind!r} request")
        return handler(request)

    # Abstaining defaults; subclasses override what they need.
    def _on_summarize(self, request: LMRequest) -> str:
        return json.dumps({"0": "Agent spawned in the grid and took no useful action."})

    def _on_identify_goals(self, request: LMRequest) -> str:
        return json.dumps({"possible_goals": []})

    def _on_infer_traj(self, request: LMRequest) -> str:
        return json.dumps({"goal": _goal_line(_last_user_content(request)), "workflow": ""})

    def _on_reflect(self, request: LMRequest) -> str:
        return json.dumps({"reflection": "Plan routes before moving instead of acting blindly."})

    def _on_awm(self, request: LMRequest) -> str:
        transcript = _last_user_content(request)
        goal = _goal_line(transcript)
        if "Outcome: SUCCESS" not in transcript:
            return json.dumps({"goal": goal, "workflow": ""})
        names = _ACTION_LINE_RE.findall(transcript)
        route = ", ".join(names)
        workflow = (
            f"Step 1: From the starting position, follow this route: {route}. "
            f"Step 2: {goal}."
        )
        return json.dumps({"goal": goal, "workflow": workflow})


class TurnLeftBackend(_RuleBackend):
    """Agent that circles in place forever; offline calls abstain."""

    def _on_agent(self, request: LMRequest) -> str:
        return _choice("Circling in place.", TURN_LEFT)


class OracleBackend(_RuleBackend):
    """Perfect agent: replays the BFS-shortest plan for the episode goal."""

    def __init__(self, world: GridWorld):
        super().__init__()
        self.world = reset(copy_world(world))
        self._plans: dict[str, list[int]] = {}

    def plan_for(self, goal: Goal) -> list[int]:
        key = canonical_goal(render_goal(goal))
        if key not in self._plans:
            self._plans[key] = bfs_plan(self.world, goal)
        return self._plans[key]

    def _on_agent(self, request: LMRequest) -> str:
        goal = parse_goal(_goal_line(_last_user_content(request)))
        plan = self.plan_for(goal)
        index = _steps_taken(request)
        if index < len(plan):
            return _choice("Executing the planned route.", plan[index])
        return _choice("Plan exhausted; holding position.", TURN_LEFT)


class DemoBackend(OracleBackend):
    """World-aware scripted stack for offline end-to-end demonstrations.

    Acting: follows a workflow from the "Known workflows:" section of the
    system prompt when one matches the episode goal; otherwise walks a
    sighting tour that views every object but never picks anything up, so
    episodes without applicable memory always fail. Offline reasoning:
    summaries report the entities actually mentioned in the transcript,
    goal proposals cover exactly the portable ones, and workflows come from
    BFS plans on the reset world.
    """

    def __init__(self, world: GridWorld):
        super().__init__(world)
        self._tour: Optional[list[int]] = None
        # (system prompt, goal line) of the last agent request, and its route.
        self._route_key: Optional[tuple[str, str]] = None
        self._route: Optional[list[int]] = None

    @property
    def tour(self) -> list[int]:
        """The sighting tour, planned when an episode first needs it."""
        if self._tour is None:
            self._tour = sighting_tour(self.world)
        return self._tour

    def _known_route(self, system_prompt: str, goal_text: str) -> Optional[list[int]]:
        """Parsed route of the known workflow for the goal, if any; every step
        of an episode asks again with the same prompt and goal."""
        key = (system_prompt, goal_text)
        if key != self._route_key:
            workflow = _known_workflows(system_prompt).get(canonical_goal(goal_text))
            self._route = parse_route(workflow) if workflow is not None else None
            self._route_key = key
        return self._route

    def _on_agent(self, request: LMRequest) -> str:
        index = _steps_taken(request)
        goal_text = _goal_line(_last_user_content(request))
        route = self._known_route(request.system_prompt, goal_text)
        if route is not None:
            if index < len(route):
                return _choice("Following the known workflow for this goal.", route[index])
            return _choice("Workflow exhausted; holding position.", TURN_LEFT)
        if index < len(self.tour):
            return _choice("Exploring the rooms to map out the objects.", self.tour[index])
        return _choice("Tour complete; circling.", TURN_LEFT)

    def _on_summarize(self, request: LMRequest) -> str:
        transcript = _last_user_content(request)
        mentions = extract_mentions(transcript)
        summary = {"0": "Agent spawned in its starting room and began exploring."}
        if mentions:
            listed = ", ".join(f"{color} {kind}" for color, kind in mentions)
            summary["1"] = f"Agent explored the rooms and observed: {listed}."
        else:
            summary["1"] = "Agent explored but observed nothing of note."
        outcome = (
            "Agent achieved its goal."
            if "Outcome: SUCCESS" in transcript
            else "Agent did not achieve its goal."
        )
        summary["2"] = outcome
        return json.dumps(summary)

    def _on_identify_goals(self, request: LMRequest) -> str:
        mentions = extract_mentions(_last_user_content(request))
        goals = [
            f"Pick up the {color} {kind}" for color, kind in mentions if kind in KINDS
        ]
        return json.dumps({"possible_goals": goals})

    def _on_infer_traj(self, request: LMRequest) -> str:
        goal_text = _goal_line(_last_user_content(request))
        try:
            goal = parse_goal(goal_text)
            plan = self.plan_for(goal)
        except (ValueError, PlanningError):
            return json.dumps({"goal": goal_text, "workflow": ""})
        return json.dumps({"goal": goal_text, "workflow": route_text(plan, goal)})

