"""System prompts for the acting agent and the offline reasoning calls.

These strings are frozen: prompt-snapshot tests assert their bytes, and
classify_request names a request's role from them, which the scripted
backends route on. #HORIZON# in the agent prompt is replaced with the
configured step budget at episode start.
"""

from .lm import LMRequest
from .textview import Observation

HORIZON_PLACEHOLDER = "#HORIZON#"

REACT_AGENT = """You are an agent in a 2D gridworld. At each step you will receive a list of valid and invalid actions. Choose a valid action by its index. Complete the goal in #HORIZON# steps.

You will be prompted at each turn to first reason about your plan and then choose actions.

Reply concisely with following JSON format:
{"thought": X, "choice": Y} where X is your reasoning and Y is the index of the desired choice. Ensure Y is a parseable integer!"""

REFLEXION = """You are an agent in a 2D text-based environment. Reflect on your performance in the following episode and write some concise notes on how you can improve your performance in the next episodes. Reply with the following JSON format: {"reflection": X} where X is your reflection. Ensure X is a parsable string!"""

AWM = """You are an agent in a 2D text-based environment. If the agent succeeds at accomplishing the given goal in the episode, convert the actions done in the following episode into abstract summary workflow. Discuss in high-level terms the steps a future agent should take to reach the goal. Include potential obstacles and landmarks in your workflow explanation.

Reply with the following JSON format: {"goal": "X", "workflow": Y} where X is the achieved goal and Y is your summary workflow. Ensure X and Y are parsable strings!

If the agent did not achieve the goal, then make Y an empty string."""

ECHO_SUMMARIZE = """You are an expert at analyzing agent behavior in 2D text-based environments. Create a concise, high-level summary of the agent's trajectory.

## Instructions:

**What to Include:**
- Group low-level actions into high-level behaviors (e.g., "explored northern corridor" not individual moves)
- **All** objects discovered
- Completed objectives

**What to Exclude:**
- Individual movement steps, redundant actions, minor environmental details

**Format:** Chronological entries representing distinct phases or achievements

## Output Format:
{
  "0": "Agent spawned in [location] and observed [key objects/features]",
  "1": "Agent navigated to [destination] and discovered [important findings]",
  "2": "Agent interacted with [object/entity] resulting in [outcome]",
  ...
}"""

ECHO_IDENTIFY_GOALS = """You are an expert at analyzing 2D text-based environments to identify potential agent objectives. Given a trajectory summary, extract all possible goals an agent could pursue. The agent's goal will always be to pick up a specific object.

## Task:
Identify all objects that could serve as pickup targets based on the environmental context shown in the summary.

## Requirements:
- **Extract specific objects** mentioned in the trajectory
- Avoid locations or non-portable objects

## Output Format:
{
  "possible_goals": [
    "Pick up the [object1]",
    "Pick up the [object2]",
    ...
  ]
}"""

ECHO_INFER_TRAJ = """You are an expert at creating action plans for agents in 2D text-based environments. Given a specific goal and a summary of a previous agent's actions, create a high-level workflow to achieve the goal.

## Task:
Design an abstract workflow for accomplishing the given goal using the environmental features from the trajectory summary.

## Requirements:

- **Environment-specific actions only**: reference actual locations, objects, or features from the summary

- Use high-level abstractions (e.g., "navigate to the blue door")

- **Avoid generic phrases** like "move toward goal" or "find the object"

- Start from the agent's known starting location

- Focus on strategic phases, not individual actions

## Output Format:
{
  "goal": "[provided goal]",
  "workflow": "Step 1: [specific environment action]. Step 2: [specific environment action]. Step 3: [etc.]"
}"""

PARSE_REMINDER = (
    'Your previous reply could not be parsed. Reply exactly in the JSON format '
    '{"thought": X, "choice": Y} where Y is the index of the desired choice. '
    "Ensure Y is a parseable integer!"
)


_AGENT_OPENING = REACT_AGENT[: REACT_AGENT.index(HORIZON_PLACEHOLDER)]
_OFFLINE_ROLES = {
    ECHO_SUMMARIZE: "summarize",
    ECHO_IDENTIFY_GOALS: "identify_goals",
    ECHO_INFER_TRAJ: "infer_traj",
    REFLEXION: "reflect",
    AWM: "awm",
}


def classify_request(request: LMRequest) -> str:
    """Which call a request represents, judged from its system prompt."""
    if request.system_prompt.startswith(_AGENT_OPENING):
        return "agent"
    return _OFFLINE_ROLES.get(request.system_prompt, "unknown")


def agent_system_prompt(horizon: int, memory_text: str = "") -> str:
    """Base acting prompt with the horizon filled in and memory appended."""
    base = REACT_AGENT.replace(HORIZON_PLACEHOLDER, str(horizon))
    if memory_text:
        return base + "\n\n" + memory_text
    return base


def agent_step_message(goal_text: str, observation: Observation) -> str:
    return f"Goal: {goal_text}\n{observation.text}\n{observation.menu_text}"
