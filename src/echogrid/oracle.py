"""Ground-truth planning and scripted backends for fully offline testing.

The planner searches the exact (position, facing, door-states) space, so its
plans are shortest by construction, and one search plans every object. The
scripted backends emit replies in the same output formats the live model is
prompted for; every scripted reply must parse through the lm module's
parsers, which keeps the formats honest. No test in this package ever needs
a network.
"""

from __future__ import annotations

import json
import re
from functools import cache
from operator import countOf, itemgetter
from typing import Callable, Optional

from .lm import LMRequest
from .prompts import classify_request
from .textview import canonical_goal, parse_goal, sees
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
    check_goal,
    copy_world,
    free_floor,
    open_doors,
    reset,
    step,
)


class PlanningError(Exception):
    """No action sequence reaches the goal; on generated worlds this is a bug."""


class ScriptExhaustedError(Exception):
    """A scripted backend has no reply for a kind of request."""


def _level_order(world: GridWorld, parent: dict):
    """Yield (depth, state) for every (position, facing, open doors) state
    reachable from the world's, each once, in search order: level by level,
    and within a level in order of discovery.

    Fills parent with state -> (previous state, action), None for the start,
    before a state is yielded. The successors of a state are, in order: turn
    left, turn right, go forward if the cell ahead can be entered, toggle if
    it is a door. Objects are static during a search, so the enterable cells
    are the object-free floor plus the doors in a state's open set.
    """
    doors = {d.position for d in world.doors}
    floor = free_floor(world)
    start = (world.agent.position, world.agent.facing, open_doors(world))
    parent[start] = None
    yield 0, start
    level = [start]
    depth = 0
    while level:
        depth += 1
        frontier = []
        for state in level:
            pos, facing, opened = state
            fx, fy = FACING_VECTORS[facing]
            ahead = (pos[0] + fx, pos[1] + fy)
            succ = (pos, LEFT_OF[facing], opened)
            if succ not in parent:
                parent[succ] = (state, TURN_LEFT)
                frontier.append(succ)
                yield depth, succ
            succ = (pos, RIGHT_OF[facing], opened)
            if succ not in parent:
                parent[succ] = (state, TURN_RIGHT)
                frontier.append(succ)
                yield depth, succ
            if ahead in floor or ahead in opened:
                succ = (ahead, facing, opened)
                if succ not in parent:
                    parent[succ] = (state, GO_FORWARD)
                    frontier.append(succ)
                    yield depth, succ
            if ahead in doors:
                succ = (pos, facing, opened ^ {ahead})
                if succ not in parent:
                    parent[succ] = (state, TOGGLE_DOOR)
                    frontier.append(succ)
                    yield depth, succ
        level = frontier


def _search(
    world: GridWorld,
    goal_rank: Callable[[tuple[int, int], str, frozenset], Optional[int]],
) -> tuple[int, list[int]]:
    """Breadth-first search for the best-ranked goal state at the shallowest depth.

    goal_rank ranks a goal state (0 is best) or returns None for any other
    state. Returns the lowest rank reached at the shallowest goal depth and
    the actions to the first state reaching it in search order.
    """
    parent: dict = {}
    best = best_state = best_depth = None
    for depth, state in _level_order(world, parent):
        if best is not None and depth > best_depth:
            break
        rank = goal_rank(*state)
        if rank is not None and (best is None or rank < best):
            best, best_state, best_depth = rank, state, depth
            if rank == 0:  # nothing ranks lower: stop here
                break
    if best is None:
        raise PlanningError("goal state is unreachable")
    return best, _path_to(parent, best_state)


def _path_to(parent: dict, state) -> list[int]:
    path = []
    while parent[state] is not None:
        state, action = parent[state]
        path.append(action)
    path.reverse()
    return path


def plan_table(world: GridWorld) -> dict[Goal, Optional[list[int]]]:
    """Shortest plan per goal of the world's objects, from one search.

    An object's plan is the actions to the first state in search order at
    the shallowest depth that faces it, then pick up: the plan a search for
    that object alone returns. The search stops once every object is faced.
    A goal whose object no state faces (one being carried, or walled off)
    maps to None; of two objects of one goal, the first in world.objects
    counts.
    """
    targets = {o.position: i for i, o in enumerate(world.objects) if o.position is not None}
    faced: dict[int, tuple] = {}
    parent: dict = {}
    for _, state in _level_order(world, parent):
        (x, y), facing, _ = state
        fx, fy = FACING_VECTORS[facing]
        index = targets.get((x + fx, y + fy))
        if index is not None and index not in faced:
            faced[index] = state
            if len(faced) == len(targets):
                break
    table: dict[Goal, Optional[list[int]]] = {}
    for i, obj in enumerate(world.objects):
        plan = _path_to(parent, faced[i]) + [PICK_UP] if i in faced else None
        table.setdefault(Goal(obj.color, obj.kind), plan)
    return table


def _table_plan(world: GridWorld, table: dict, goal: Goal) -> list[int]:
    """The goal's plan in table; ValueError if no object is the goal's,
    PlanningError if the search faced none."""
    plan = table.get(goal)
    if plan is None:
        check_goal(world, goal)
        raise PlanningError(
            f"no route reaches the {goal.color} {goal.kind}; "
            "generated worlds must never produce this"
        )
    return plan


def bfs_plan(world: GridWorld, goal: Goal) -> list[int]:
    """Shortest action sequence ending with a successful pick up of the goal."""
    return _table_plan(world, plan_table(world), goal)


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


def extract_mentions(
    text: str, line_mentions: Optional[dict[str, list]] = None
) -> list[tuple[str, str]]:
    """Ordered, deduplicated (color, kind-or-door) mentions in rendered text.

    The text is matched line by line (split at "\\n"), which finds what one
    pass over the whole text finds: no mention spans a line break, and a
    line break is a word boundary. line_mentions maps each line matched so
    far to its mentions; a caller that keeps it across texts matches each
    distinct line once.
    """
    if line_mentions is None:
        line_mentions = {}
    found: dict[tuple[str, str], None] = {}
    for line in text.split("\n"):
        mentions = line_mentions.get(line)
        if mentions is None:
            mentions = line_mentions[line] = _ENTITY_RE.findall(line)
        for pair in mentions:
            found[pair] = None
    return list(found)


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
    """The text after "Goal: " on the first line that starts with it."""
    # An agent step message starts with its goal line; a printable line holds
    # none of the separators splitlines() breaks at.
    head = text.partition("\n")[0]
    if head.startswith("Goal: ") and head.isprintable():
        return head[len("Goal: ") :]
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
    """The number of assistant messages: the agent's step index while no
    reply has needed a retry."""
    return countOf(map(itemgetter("role"), request.messages), "assistant")


@cache  # seven thoughts, at most six actions each
def _choice(thought: str, action: int) -> str:
    return json.dumps({"thought": thought, "choice": action})


class ScriptedBackend:
    """Deterministic backend that answers each request with the handler
    method of its kind (classify_request), _on_<kind>.

    Every request is recorded so tests can assert exact call counts. A kind
    with no handler raises.
    """

    def __init__(self):
        self.requests: list[LMRequest] = []

    @property
    def calls(self) -> int:
        return len(self.requests)

    def complete(self, request: LMRequest) -> str:
        self.requests.append(request)
        kind = classify_request(request)
        handler = getattr(self, f"_on_{kind}", None)
        if handler is None:
            raise ScriptExhaustedError(f"no scripted handler for {kind!r} request")
        return handler(request)

    def close(self) -> None:
        """Nothing to release; the harness closes every backend it builds."""

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


class TurnLeftBackend(ScriptedBackend):
    """Agent that circles in place forever; offline calls abstain."""

    def _on_agent(self, request: LMRequest) -> str:
        return _choice("Circling in place.", TURN_LEFT)


class OracleBackend(ScriptedBackend):
    """Perfect agent: replays the BFS-shortest plan for the episode goal."""

    def __init__(self, world: GridWorld):
        super().__init__()
        self.world = reset(copy_world(world))
        self._plans: Optional[dict[Goal, Optional[list[int]]]] = None

    def plan_for(self, goal: Goal) -> list[int]:
        """The goal's plan from the reset world; the first call plans every object."""
        if self._plans is None:
            self._plans = plan_table(self.world)
        return _table_plan(self.world, self._plans, goal)

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
        # Transcript line -> its mentions, for every line this backend has read.
        self._line_mentions: dict[str, list] = {}

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
        mentions = extract_mentions(transcript, self._line_mentions)
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
        mentions = extract_mentions(_last_user_content(request), self._line_mentions)
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

