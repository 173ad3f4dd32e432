"""The acting agent: a reason-then-act loop over a chat-completion backend.

The policy keeps the full within-episode history of observations, thoughts,
and actions in its message list. Cross-episode knowledge arrives only via
the memory text appended to the system prompt. A malformed reply gets one
retry with a reminder message; a second failure aborts the episode.
"""

from __future__ import annotations

from . import prompts
from .episode import PolicyError
from .lm import BackendError, LMBackend, LMRequest, ParseError, parse_choice
from .textview import Observation


class ReactPolicy:
    def __init__(self, backend: LMBackend, horizon: int = 64, memory_text: str = ""):
        self.backend = backend
        self.system_prompt = prompts.agent_system_prompt(horizon, memory_text)
        self.goal_text = ""
        self.messages: list[dict[str, str]] = []
        self.calls_per_step: list[int] = []

    def begin_episode(self, goal_text: str) -> None:
        self.goal_text = goal_text
        self.messages = []
        self.calls_per_step = []

    def _complete(self) -> str:
        request = LMRequest(system_prompt=self.system_prompt, messages=list(self.messages))
        self.calls_per_step[-1] += 1
        return self.backend.complete(request)

    def decide(self, observation: Observation) -> tuple[str, int]:
        self.messages.append(
            {"role": "user", "content": prompts.agent_step_message(self.goal_text, observation)}
        )
        self.calls_per_step.append(0)
        try:
            reply = self._complete()
        except BackendError as exc:
            raise PolicyError(f"backend error: {exc}") from exc
        try:
            thought, choice = parse_choice(reply)
        except ParseError:
            self.messages.append({"role": "assistant", "content": reply})
            self.messages.append({"role": "user", "content": prompts.PARSE_REMINDER})
            try:
                reply = self._complete()
                thought, choice = parse_choice(reply)
            except BackendError as exc:
                raise PolicyError(f"backend error: {exc}") from exc
            except ParseError as exc:
                raise PolicyError(f"unparseable reply after retry: {exc}") from exc
        self.messages.append({"role": "assistant", "content": reply})
        return thought, choice
