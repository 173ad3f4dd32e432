"""Stateful four-room gridworld benchmark with hindsight-memory agent strategies."""

from .episode import Trajectory, run_episode
from .harness import RunConfig, cumulative_average, gain_over_baseline, run_stream, sample_goals
from .strategies import get_strategy
from .textview import render, render_goal
from .world import Goal, GridWorld, generate, reset, step

__all__ = [
    "Goal",
    "GridWorld",
    "RunConfig",
    "Trajectory",
    "cumulative_average",
    "gain_over_baseline",
    "generate",
    "get_strategy",
    "render",
    "render_goal",
    "reset",
    "run_episode",
    "run_stream",
    "sample_goals",
    "step",
]
__version__ = "0.1.0"
