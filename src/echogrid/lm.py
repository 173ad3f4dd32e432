"""Chat-completion backends and tolerant structured-output parsing.

The live backend POSTs the OpenAI-compatible /chat/completions wire format
through urllib, one connection per call; this module alone reads its LM_*
variables. Tests reach it only through a loopback stub. Parsing is total: any
input text yields either a value or a ParseError, never another exception.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Protocol, runtime_checkable

from .world import ACTION_NAMES

logger = logging.getLogger(__name__)

ENV_API_KEY = "LM_API_KEY"
ENV_BASE_URL = "LM_BASE_URL"
ENV_MODEL = "LM_MODEL"
ENV_RPM = "LM_RPM"


class ParseError(Exception):
    """Structured parse failure; carries the reason and any missing key."""

    def __init__(self, reason: str, missing_key: Optional[str] = None):
        super().__init__(reason)
        self.reason = reason
        self.missing_key = missing_key


class BackendError(Exception):
    """Live-backend failure after exhausting retries."""

    def __init__(self, message: str, status: Optional[int] = None, body: str = ""):
        super().__init__(message)
        self.status = status
        self.body = body[:500]


@dataclass
class LMRequest:
    system_prompt: str
    messages: list[dict[str, str]]  # ordered {"role", "content"} entries


@runtime_checkable
class LMBackend(Protocol):
    def complete(self, request: LMRequest) -> str: ...


class TokenBucket:
    """Requests-per-minute limiter shared by concurrent episode runners."""

    def __init__(self, requests_per_minute: int):
        self.capacity = requests_per_minute
        self.tokens = float(requests_per_minute)
        self.rate = requests_per_minute / 60.0
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1:
                    self.tokens -= 1
                    return
                wait = (1 - self.tokens) / self.rate
            time.sleep(wait)


@lru_cache(maxsize=None)
def _rate_limiter(requests_per_minute: int) -> TokenBucket:
    """One bucket per process, so LM_RPM limits the whole run, not each env stream."""
    return TokenBucket(requests_per_minute)


def _post(request: urllib.request.Request, timeout: float) -> tuple[int, bytes]:
    """Status and body of one POST on its own connection, error statuses included."""
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


class LiveBackend:
    """OpenAI-compatible chat-completion client with bounded retries; building one does no I/O."""

    MAX_ATTEMPTS = 3
    RETRY_STATUSES = {429, 500, 502, 503, 504}
    TIMEOUT = 60.0  # seconds to connect, and for each read, per attempt
    RETRY_DELAY = 1.0  # seconds before the first retry; doubled for each later one
    # Sampling settings, the same for agent and offline calls.
    TEMPERATURE = 0.0
    MAX_TOKENS = 4000

    def __init__(self, mirror_path: Optional[str] = None):
        missing = [v for v in (ENV_BASE_URL, ENV_API_KEY, ENV_MODEL) if not os.environ.get(v)]
        if missing:
            raise BackendError(f"live backend requires env vars: {', '.join(missing)}")
        self.base_url = os.environ[ENV_BASE_URL].rstrip("/")
        self.api_key = os.environ[ENV_API_KEY]
        self.model = os.environ[ENV_MODEL]
        if urllib.parse.urlsplit(self.base_url).scheme not in ("http", "https"):
            raise BackendError(f"{ENV_BASE_URL} must be an http(s) URL, got {self.base_url!r}")
        rpm = os.environ.get(ENV_RPM, "")
        if rpm and not (rpm.isdecimal() and int(rpm) > 0):
            raise BackendError(f"{ENV_RPM} must be a positive integer, got {rpm!r}")
        self.rate_limiter = _rate_limiter(int(rpm)) if rpm else None
        self.mirror_path = mirror_path
        self.calls = 0  # completions returned
        self._lock = threading.Lock()

    def _mirror(self, payload: dict, response_text: str) -> None:
        if not self.mirror_path:
            return
        record = json.dumps({"request": payload, "response": response_text}, sort_keys=True)
        with self._lock:
            with open(self.mirror_path, "a", encoding="utf-8") as fh:
                fh.write(record + "\n")

    def complete(self, request: LMRequest) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "system", "content": request.system_prompt}, *request.messages],
            "temperature": self.TEMPERATURE,
            "max_tokens": self.MAX_TOKENS,
        }
        http_request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"},
        )
        last_status, last_body = None, ""
        for attempt in range(self.MAX_ATTEMPTS):
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            if attempt:
                time.sleep(self.RETRY_DELAY * (2 ** (attempt - 1)))
                logger.info("retrying chat completion (attempt %d)", attempt + 1)
            try:
                status, raw = _post(http_request, self.TIMEOUT)
            except (OSError, http.client.HTTPException) as exc:
                last_status, last_body = None, str(exc)
                continue
            text = raw.decode("utf-8", errors="replace")
            if status in self.RETRY_STATUSES:
                last_status, last_body = status, text
                continue
            if status != 200:
                raise BackendError(f"chat completion failed with HTTP {status}", status, text)
            try:
                doc = json.loads(raw)
                content = doc["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError, RecursionError):
                raise BackendError(
                    "malformed chat completion response", status=200, body=text
                ) from None
            if content is None:
                raise BackendError("empty completion content", status=200, body=text)
            if not isinstance(content, str):
                raise BackendError("malformed chat completion response", status=200, body=text)
            with self._lock:
                self.calls += 1
            self._mirror(payload, content)
            return content
        raise BackendError(
            f"chat completion failed after {self.MAX_ATTEMPTS} attempts", last_status, last_body
        )


_DECODER = json.JSONDecoder()  # stateless, so shared like json.loads's own


def _first_json_object(text: str):
    """First parseable JSON object in the text (code fences and prose tolerated)."""
    if not isinstance(text, str):
        raise ParseError("input is not text")
    idx = text.find("{")
    while idx != -1:
        try:
            value, _ = _DECODER.raw_decode(text, idx)
        except ValueError:
            idx = text.find("{", idx + 1)
            continue
        if isinstance(value, dict):
            return value
        idx = text.find("{", idx + 1)
    raise ParseError("no JSON object found in reply")


def _coerce_int(value) -> int:
    if isinstance(value, bool):
        raise ParseError("choice must be an integer, not a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise ParseError(f"choice is not a parseable integer: {value!r}") from None
    raise ParseError(f"choice is not a parseable integer: {value!r}")


def _coerce_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float, bool)):
        return str(value)
    raise ParseError(f"expected a string value, got {type(value).__name__}")


# Distinct reply texts whose parse is kept. Scripted and loopback replies
# repeat (oracle._choice has at most 22), a live model's rarely do.
PARSE_CACHE_SIZE = 64


def parse_choice(text: str) -> tuple[str, int]:
    """Extract ("thought", "choice") from an agent reply; choice is an action index."""
    if not isinstance(text, str):
        raise ParseError("input is not text")
    return _parse_choice(text)


@lru_cache(maxsize=PARSE_CACHE_SIZE)  # a ParseError is raised, never cached
def _parse_choice(text: str) -> tuple[str, int]:
    obj = _first_json_object(text)
    if "thought" not in obj:
        raise ParseError("reply is missing key 'thought'", missing_key="thought")
    if "choice" not in obj:
        raise ParseError("reply is missing key 'choice'", missing_key="choice")
    choice = _coerce_int(obj["choice"])
    if not 0 <= choice < len(ACTION_NAMES):
        raise ParseError(f"choice {choice} is not an action index 0..{len(ACTION_NAMES) - 1}")
    return _coerce_text(obj["thought"]), choice


def parse_json_payload(text: str, required_keys: dict[str, type]) -> dict:
    """Extract declared keys from the first JSON object in the text.

    required_keys maps each key to str (text value) or list (list of text).
    """
    obj = _first_json_object(text)
    out = {}
    for key, kind in required_keys.items():
        if key not in obj:
            raise ParseError(f"reply is missing key {key!r}", missing_key=key)
        value = obj[key]
        if kind is list:
            if not isinstance(value, list):
                raise ParseError(f"key {key!r} must be a list")
            out[key] = [_coerce_text(v) for v in value]
        else:
            out[key] = _coerce_text(value)
    return out


def parse_summary(text: str) -> str:
    """Normalize a summarize reply to canonical JSON text of its object."""
    obj = _first_json_object(text)
    flat = {str(k): _coerce_text(v) for k, v in obj.items()}
    return json.dumps(flat, sort_keys=True, indent=2)
