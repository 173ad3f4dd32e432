"""Chat-completion backends and tolerant structured-output parsing.

The live backend POSTs the OpenAI-compatible /chat/completions wire format
through http.client, on one kept-alive connection per backend (one backend
per env stream), with the *_proxy variables resolved as urllib does; where
socket has TCP_CORK, a request's headers and body leave as one segment. Each
backend appends its calls to the lm_calls.jsonl mirror through one handle of
its own. This module alone reads its LM_* variables. Tests reach it only
through a loopback stub. Parsing is total: any input text yields either a
value or a ParseError, never another exception.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import socket
import threading
import time
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


class CredentialsError(Exception):
    """The endpoint refused the run's credentials (HTTP 401 or 403).

    Not a BackendError: no policy or strategy call can succeed after it, so
    neither absorbs it as an episode failure, and the run ends.
    """

    def __init__(self, status: int):
        super().__init__(
            f"chat completion refused with HTTP {status}; check {ENV_API_KEY} and {ENV_BASE_URL}"
        )
        self.status = status


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


def _proxy_for(target: urllib.request.Request) -> Optional[tuple[str, dict[str, str]]]:
    """The proxy host[:port] urllib would send target through, chosen by the
    *_proxy variables, and its Proxy-Authorization header if the proxy URL
    holds credentials; None if target is reached directly."""
    proxy = urllib.request.getproxies().get(target.type)
    if not proxy or urllib.request.proxy_bypass(target.host):
        return None
    url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers = {}
    if url.username and url.password:
        credentials = f"{urllib.parse.unquote(url.username)}:{urllib.parse.unquote(url.password)}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
    return url.netloc.rpartition("@")[2], headers


# Servers that write a reply's headers and body separately with Nagle's
# algorithm on (Python's http.server among them) hold the body until the
# client ACKs the headers. On a kept connection a delayed ACK stalls every
# call ~40 ms, so each request re-arms TCP_QUICKACK; where the option does
# not exist (it is Linux's), no connection is kept past its response.
_KEEP_ALIVE = hasattr(socket, "TCP_QUICKACK")
# http.client sends a request's headers and its body with two send() calls.
# Corked from before the first until after the second, they leave together
# as one segment (where the request fits one) instead of two.
_CORK = hasattr(socket, "TCP_CORK")


class LiveBackend:
    """OpenAI-compatible chat-completion client with bounded retries; building one does no I/O.

    One backend serves one env stream, so its calls never overlap. It keeps
    one HTTP connection alive across its calls, and the JSON text of the
    previous request's messages: a request that starts with equal messages
    encodes only the rest. Given a mirror_path, it opens that file for
    append on its first completed call and writes each call's record with
    one write(). close() closes the connection and the mirror.
    """

    MAX_ATTEMPTS = 3
    RETRY_STATUSES = {429, 500, 502, 503, 504}
    REFUSED_STATUSES = {401, 403}  # raise CredentialsError, which ends the run
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
        target = urllib.request.Request(f"{self.base_url}/chat/completions")
        self._https = target.type == "https"
        self._host, self._selector, self._tunnel = target.host, target.selector, None
        self._headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
            "User-Agent": f"Python-urllib/{urllib.request.__version__}",
        }
        proxy = _proxy_for(target)
        if proxy is not None:
            self._host, proxy_headers = proxy
            if self._https:
                self._tunnel = (target.host, proxy_headers)
            else:  # an http proxy is sent the absolute URI
                self._selector = target.full_url
                self._headers.update(proxy_headers)
        self._conn: Optional[http.client.HTTPConnection] = None
        self._mirror = None  # unbuffered binary append handle on mirror_path
        # The previous request's messages (system message first), each as
        # its items, its wire text and its sort_keys text for the mirror.
        self._items: list[tuple] = []
        self._wire: list[str] = []
        self._sorted: list[str] = []
        dumps = json.dumps
        self._wire_head = '{"model": %s, "messages": [' % dumps(self.model)
        self._wire_tail = '], "temperature": %s, "max_tokens": %s}' % (
            dumps(self.TEMPERATURE), dumps(self.MAX_TOKENS)
        )
        self._mirror_head = '{"request": {"max_tokens": %s, "messages": [' % dumps(self.MAX_TOKENS)
        self._mirror_tail = '], "model": %s, "temperature": %s}, "response": ' % (
            dumps(self.model), dumps(self.TEMPERATURE)
        )

    def close(self) -> None:
        self._drop()
        if self._mirror is not None:
            self._mirror.close()
            self._mirror = None

    def _drop(self) -> None:
        """Close the connection; the next request opens a new one."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _encode(self, messages: list[dict]) -> tuple[bytes, str]:
        """The wire body, and the mirror record up to its response text.

        Equal to json.dumps(payload).encode() and the start of
        json.dumps({"request": payload, "response": ...}, sort_keys=True).
        Messages equal, key order included, to the previous request's first
        ones reuse their texts; the rest are encoded here.
        """
        keep = 0
        for message, items in zip(messages, self._items):
            if tuple(message.items()) != items:
                break
            keep += 1
        del self._items[keep:], self._wire[keep:], self._sorted[keep:]
        for message in messages[keep:]:
            self._items.append(tuple(message.items()))
            self._wire.append(json.dumps(message))
            self._sorted.append(json.dumps(message, sort_keys=True))
        body = self._wire_head + ", ".join(self._wire) + self._wire_tail
        return body.encode("utf-8"), self._mirror_head + ", ".join(self._sorted) + self._mirror_tail

    def _send(self, body: bytes) -> http.client.HTTPResponse:
        if self._conn is None:
            connection = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
            self._conn = connection(self._host, timeout=self.TIMEOUT)
            if self._tunnel is not None:
                host, headers = self._tunnel
                self._conn.set_tunnel(host, headers=headers)
            self._conn.connect()
        sock = self._conn.sock
        if _CORK:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 1)
        self._conn.request("POST", self._selector, body, self._headers)
        if _CORK:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_CORK, 0)
        if _KEEP_ALIVE:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return self._conn.getresponse()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and whole body of one POST, error statuses included.

        A kept connection the server closed while idle fails before a status
        line arrives; the request then goes out once more on a new one.
        """
        reused = self._conn is not None
        try:
            try:
                response = self._send(body)
            except ConnectionError:
                if not reused:
                    raise
                self._drop()
                response = self._send(body)
            with response:
                raw = response.read()
        except BaseException:
            self._drop()
            raise
        if response.will_close or not _KEEP_ALIVE:
            self._drop()
        return response.status, raw

    def complete(self, request: LMRequest) -> str:
        body, mirror_head = self._encode(
            [{"role": "system", "content": request.system_prompt}, *request.messages]
        )
        last_status, last_body = None, ""
        for attempt in range(self.MAX_ATTEMPTS):
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            if attempt:
                time.sleep(self.RETRY_DELAY * (2 ** (attempt - 1)))
                logger.info("retrying chat completion (attempt %d)", attempt + 1)
            try:
                status, raw = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_status, last_body = None, str(exc)
                continue
            text = raw.decode("utf-8", errors="replace")
            if status in self.RETRY_STATUSES:
                last_status, last_body = status, text
                continue
            if status in self.REFUSED_STATUSES:
                raise CredentialsError(status)
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
            self.calls += 1
            if self.mirror_path:
                if self._mirror is None:
                    self._mirror = open(self.mirror_path, "ab", buffering=0)
                self._mirror.write(f"{mirror_head}{json.dumps(content)}}}\n".encode("utf-8"))
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
        except (ValueError, RecursionError):  # nested past the decoder's limit
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
