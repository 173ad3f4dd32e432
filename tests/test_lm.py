"""Backend retry behaviour (against a local stub server) and parser totality."""

import base64
import hashlib
import http.client
import json
import socket
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echogrid import lm
from echogrid.lm import (
    BackendError,
    CredentialsError,
    LiveBackend,
    LMRequest,
    ParseError,
    parse_choice,
    parse_json_payload,
    parse_summary,
)
from echogrid.rng import SplitMix64


class _StubHandler(BaseHTTPRequestHandler):
    # (status, body) responses consumed in order; the last repeats forever
    plan: list[tuple[int, str]] = []
    served: list[dict] = []
    raw: list[tuple[bytes, str, str]] = []  # (body, Content-Type, Authorization)
    seen: list[tuple[str, str, Optional[str]]] = []  # (method, target, Proxy-Authorization)
    short_by = 0  # declare this many more body bytes than are sent, then close

    def do_POST(self):
        self.seen.append((self.command, self.path, self.headers["Proxy-Authorization"]))
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.raw.append((body, self.headers["Content-Type"], self.headers["Authorization"]))
        self.served.append(json.loads(body))
        status, reply = self.plan[min(len(self.served) - 1, len(self.plan) - 1)]
        payload = reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload) + self.short_by))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        """Refuse every tunnel, after noting whom it was for."""
        self.seen.append((self.command, self.path, self.headers["Proxy-Authorization"]))
        self.send_response(502)
        self.end_headers()

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_StubHandler):
    """Keeps each connection open between requests, as HTTP/1.1 lets it."""

    protocol_version = "HTTP/1.1"
    connections = 0  # connections accepted
    on_connection: list[int] = []  # the connection each request arrived on
    close_each = False  # close after each reply without saying so

    def setup(self):
        super().setup()
        type(self).connections += 1
        self.number = self.connections

    def do_POST(self):
        self.on_connection.append(self.number)
        super().do_POST()
        if self.close_each:
            self.close_connection = True


def _completion_body(text: str) -> str:
    return json.dumps(
        {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 5},
        }
    )


def _serve(handler):
    handler.plan, handler.served, handler.raw, handler.seen = [], [], [], []
    handler.short_by = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", handler
    server.shutdown()
    thread.join()
    server.server_close()


@pytest.fixture
def stub_server():
    yield from _serve(_StubHandler)


@pytest.fixture
def keepalive_server():
    _KeepAliveHandler.connections = 0
    _KeepAliveHandler.on_connection = []
    _KeepAliveHandler.close_each = False
    yield from _serve(_KeepAliveHandler)


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy")


def _live_env(monkeypatch, url: str) -> None:
    """Point make_backend("live", ...) at url, with no rate limit and no proxy."""
    monkeypatch.setenv("LM_BASE_URL", url)
    monkeypatch.setenv("LM_API_KEY", "test-key")
    monkeypatch.setenv("LM_MODEL", "test-model")
    monkeypatch.delenv("LM_RPM", raising=False)
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def _backend(monkeypatch, url: str, mirror_path=None) -> LiveBackend:
    _live_env(monkeypatch, url)
    monkeypatch.setattr(LiveBackend, "RETRY_DELAY", 0.0)
    monkeypatch.setattr(LiveBackend, "TIMEOUT", 5.0)
    return LiveBackend(mirror_path)


def _request() -> LMRequest:
    return LMRequest(system_prompt="system", messages=[{"role": "user", "content": "hi"}])


def test_live_backend_extracts_content(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(200, _completion_body("hello there"))]
    backend = _backend(monkeypatch, url)
    assert backend.complete(_request()) == "hello there"
    assert len(handler.served) == 1
    assert backend.calls == 1
    sent = handler.served[0]
    assert sent["model"] == "test-model"
    assert sent["messages"][0] == {"role": "system", "content": "system"}


def test_live_backend_retries_429_then_succeeds(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(429, "slow down"), (200, _completion_body("ok"))]
    backend = _backend(monkeypatch, url)
    assert backend.complete(_request()) == "ok"
    assert len(handler.served) == 2
    assert backend.calls == 1


def test_live_backend_fails_after_three_attempts(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(500, "boom")]
    backend = _backend(monkeypatch, url)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(_request())
    assert excinfo.value.status == 500
    assert len(handler.served) == 3


def test_live_backend_rejects_empty_content(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(200, json.dumps({"choices": [{"message": {"content": None}}]}))]
    with pytest.raises(BackendError, match="empty completion"):
        _backend(monkeypatch, url).complete(_request())


def test_live_backend_rejects_a_body_that_is_not_json(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(200, "<html>not json</html>")]
    with pytest.raises(BackendError, match="malformed chat completion response") as excinfo:
        _backend(monkeypatch, url).complete(_request())
    assert excinfo.value.status == 200
    assert excinfo.value.body == "<html>not json</html>"
    assert len(handler.served) == 1


def test_live_backend_does_not_retry_a_client_error(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(400, "bad request: \u00e9")]
    with pytest.raises(BackendError, match="HTTP 400") as excinfo:
        _backend(monkeypatch, url).complete(_request())
    assert excinfo.value.status == 400
    assert excinfo.value.body == "bad request: \u00e9"
    assert len(handler.served) == 1


def test_live_backend_retries_a_truncated_reply(stub_server, monkeypatch):
    """A reply cut short of its Content-Length is retried like a dropped connection."""
    url, handler = stub_server
    handler.plan = [(200, _completion_body("cut short"))]
    handler.short_by = 100
    backend = _backend(monkeypatch, url)
    with pytest.raises(BackendError, match="after 3 attempts") as excinfo:
        backend.complete(_request())
    assert excinfo.value.status is None
    assert len(handler.served) == 3
    assert backend.calls == 0


def test_live_backend_closes_every_response(stub_server, monkeypatch):
    """Each response is read to its end before complete returns, an error
    status's too.

    An unread response raises no ResourceWarning, so this is checked on the
    response objects themselves.
    """
    url, handler = stub_server
    handler.plan = [(429, "slow down"), (200, _completion_body("ok"))]
    opened = []
    real_getresponse = http.client.HTTPConnection.getresponse

    def recording_getresponse(self):
        opened.append(real_getresponse(self))
        return opened[-1]

    monkeypatch.setattr(http.client.HTTPConnection, "getresponse", recording_getresponse)
    assert _backend(monkeypatch, url).complete(_request()) == "ok"
    assert [resp.status for resp in opened] == [429, 200]
    assert all(resp.isclosed() for resp in opened)


def test_live_backend_gives_up_on_a_closed_port(monkeypatch):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    connects = []
    real_connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        connects.append(self)
        return real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    backend = _backend(monkeypatch, f"http://127.0.0.1:{port}")
    with pytest.raises(BackendError, match="after 3 attempts") as excinfo:
        backend.complete(_request())
    assert excinfo.value.status is None
    assert len(connects) == LiveBackend.MAX_ATTEMPTS
    assert backend.calls == 0


_TEXT = st.text(
    st.sampled_from('a "\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=8
)
_MESSAGES = st.lists(st.tuples(_TEXT, _TEXT), max_size=3)
_STEP = st.one_of(
    st.tuples(st.just("extend"), _MESSAGES),
    st.tuples(st.just("restart"), _MESSAGES),
    st.tuples(st.just("mutate"), st.integers(0, 20), _TEXT),
    st.tuples(st.just("reorder"), st.integers(0, 20)),
    st.tuples(st.just("system"), _TEXT),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(system=_TEXT, steps=st.lists(_STEP, min_size=1, max_size=6), reply=_TEXT)
def test_live_backend_encodes_each_request_as_json_dumps(
    keepalive_server, monkeypatch, tmp_path, system, steps, reply
):
    """Whatever a stream's requests share with the one before, each body is
    json.dumps(payload) and each mirror line json.dumps(record, sort_keys=True),
    byte for byte: messages appended, restarted, edited in place, rebuilt
    with their keys in another order, or under a new system prompt."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body(reply))]
    handler.raw.clear()
    mirror = tmp_path / "lm_calls.jsonl"
    mirror.unlink(missing_ok=True)
    backend = _backend(monkeypatch, url, str(mirror))
    messages, bodies, records = [], [], []
    try:
        for kind, *args in steps:
            if kind in ("extend", "restart"):
                if kind == "restart":
                    messages = []
                messages.extend({"role": role, "content": content} for role, content in args[0])
            elif kind == "system":
                system = args[0]
            elif messages and kind == "mutate":
                messages[args[0] % len(messages)]["content"] = args[1]
            elif messages:
                index = args[0] % len(messages)
                messages[index] = dict(reversed(messages[index].items()))
            assert backend.complete(LMRequest(system, list(messages))) == reply
            payload = {
                "model": "test-model",
                "messages": [{"role": "system", "content": system}, *messages],
                "temperature": 0.0,
                "max_tokens": 4000,
            }
            bodies.append(json.dumps(payload).encode())
            records.append(json.dumps({"request": payload, "response": reply}, sort_keys=True))
    finally:
        backend.close()
    assert [body for body, _, _ in handler.raw] == bodies
    assert mirror.read_text(encoding="utf-8").split("\n") == [*records, ""]


_KEPT = pytest.mark.skipif(
    not lm._KEEP_ALIVE, reason="a connection is kept only where socket.TCP_QUICKACK exists"
)


@_KEPT
def test_live_backend_keeps_one_connection(keepalive_server, monkeypatch):
    """Twenty calls go out on one connection, with no delayed-ACK stall
    (~40 ms a call) while the server writes headers and body apart."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body("ok"))]
    backend = _backend(monkeypatch, url)
    start = time.perf_counter()
    try:
        for _ in range(20):
            assert backend.complete(_request()) == "ok"
    finally:
        backend.close()
    assert time.perf_counter() - start < 0.4
    assert len(handler.served) == 20
    assert handler.connections == 1


@_KEPT
def test_live_backend_retries_on_the_same_connection(keepalive_server, monkeypatch):
    url, handler = keepalive_server
    handler.plan = [(429, "slow down"), (200, _completion_body("ok"))]
    backend = _backend(monkeypatch, url)
    try:
        assert backend.complete(_request()) == "ok"
    finally:
        backend.close()
    assert handler.on_connection == [1, 1]


def test_live_backend_resends_once_when_the_server_dropped_the_connection(
    keepalive_server, monkeypatch
):
    """A server that closes each connection after its reply, without saying
    so, still gets every call, once, and the client never backs off."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body("ok"))]
    handler.close_each = True
    sleeps = []
    monkeypatch.setattr(lm, "time", types.SimpleNamespace(sleep=sleeps.append))
    backend = _backend(monkeypatch, url)
    try:
        for _ in range(5):
            assert backend.complete(_request()) == "ok"
    finally:
        backend.close()
    assert handler.on_connection == [1, 2, 3, 4, 5]
    assert backend.calls == 5
    assert sleeps == []


def test_live_backend_without_quickack_closes_each_connection(keepalive_server, monkeypatch):
    """Where socket has no TCP_QUICKACK, each call has its own connection."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body("ok"))]
    monkeypatch.setattr(lm, "_KEEP_ALIVE", False)
    backend = _backend(monkeypatch, url)
    for _ in range(3):
        assert backend.complete(_request()) == "ok"
        assert backend._conn is None
    assert handler.on_connection == [1, 2, 3]


@_KEPT
@pytest.mark.skipif(not hasattr(socket, "TCP_CORK"), reason="socket has no TCP_CORK here")
def test_live_backend_releases_the_cork_after_each_request(keepalive_server, monkeypatch):
    """A request is corked only while http.client writes it: a cork left on
    would hold the next request's last segment for up to 200 ms."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body("ok"))]
    backend = _backend(monkeypatch, url)
    try:
        for _ in range(3):
            assert backend.complete(_request()) == "ok"
            assert backend._conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_CORK) == 0
    finally:
        backend.close()
    assert handler.connections == 1


def test_live_backend_opens_its_mirror_once(keepalive_server, monkeypatch, tmp_path):
    """A backend's calls share one mirror handle, also where every response
    drops its connection, and close() leaves it closed."""
    url, handler = keepalive_server
    handler.plan = [(200, _completion_body("ok"))]
    monkeypatch.setattr(lm, "_KEEP_ALIVE", False)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(lm, "open", recording_open, raising=False)
    mirror = tmp_path / "lm_calls.jsonl"
    backend = _backend(monkeypatch, url, str(mirror))
    try:
        for _ in range(3):
            assert backend.complete(_request()) == "ok"
        assert len(opened) == 1 and not opened[0].closed
    finally:
        backend.close()
    assert handler.on_connection == [1, 2, 3]
    assert opened[0].closed
    assert len(mirror.read_text(encoding="utf-8").splitlines()) == 3


def test_live_run_whose_calls_all_fail_writes_no_mirror(stub_server, monkeypatch, tmp_path):
    """The mirror is opened by the first completed call, so a run with none
    leaves no lm_calls.jsonl."""
    from echogrid.harness import RunConfig, run_stream

    url, handler = stub_server
    handler.plan = [(400, "bad request")]
    _live_env(monkeypatch, url)
    config = RunConfig(
        env_seeds=(0, 1), episodes_per_env=2, horizon=3, strategy="reflexion", backend="live"
    )
    out = tmp_path / "run"
    run_stream(config, out_dir=out)
    assert len(handler.served) == 2 * 2 * 2  # one agent and one reflect call per episode
    assert (out / "trajectories.jsonl").is_file()
    assert not (out / "lm_calls.jsonl").exists()


@pytest.mark.parametrize("status", [401, 403])
def test_live_backend_raises_refused_credentials_apart(stub_server, monkeypatch, status):
    """A refused key is not a BackendError, so no policy or strategy absorbs it."""
    url, handler = stub_server
    handler.plan = [(status, '{"error": "invalid api key"}')]
    backend = _backend(monkeypatch, url)
    try:
        with pytest.raises(CredentialsError, match=f"HTTP {status}") as excinfo:
            backend.complete(_request())
    finally:
        backend.close()
    assert not isinstance(excinfo.value, BackendError)
    assert excinfo.value.status == status
    assert len(handler.served) == 1


def _cli_run(envs: Path, out: Path, *flags: str) -> int:
    from echogrid.cli import main

    return main(
        [
            "run", "--envs", str(envs), "--backend", "live", "--strategy", "reflexion",
            "--episodes", "2", "--horizon", "3", "--out", str(out), *flags,
        ]
    )


def _error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_live_run_ends_on_refused_credentials(stub_server, monkeypatch, tmp_path, capsys):
    """A 2-env, 2-worker run whose calls are all refused with HTTP 401 exits 1
    with one error line and writes none of the run dir's files."""
    from echogrid.cli import main

    url, handler = stub_server
    handler.plan = [(401, '{"error": "invalid api key"}')]
    _live_env(monkeypatch, url)
    envs, out = tmp_path / "envs", tmp_path / "run"
    assert main(["gen", "--count", "2", "--out", str(envs)]) == 0
    capsys.readouterr()
    assert _cli_run(envs, out, "--workers", "2") == 1
    errors = _error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and "HTTP 401" in errors[0]
    # At most the first call of each stream: a stream not yet started when
    # the other raised is cancelled.
    assert 1 <= len(handler.served) <= 2
    for name in ("config.json", "trajectories.jsonl", "metrics.csv", "lm_calls.jsonl"):
        assert not (out / name).exists()


def test_live_validate_ends_on_refused_credentials(stub_server, monkeypatch, tmp_path, capsys):
    """validate --backend live on a scripted run dir stops at the first refused call."""
    from echogrid.cli import main

    url, handler = stub_server
    handler.plan = [(401, '{"error": "invalid api key"}')]
    _live_env(monkeypatch, url)
    envs, out = tmp_path / "envs", tmp_path / "run"
    assert main(["gen", "--count", "2", "--out", str(envs)]) == 0
    code = main(
        [
            "run", "--envs", str(envs), "--backend", "scripted:bfs-demo", "--strategy", "echo",
            "--episodes", "4", "--out", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["validate", "--run", str(out), "--backend", "live"]) == 1
    captured = capsys.readouterr()
    errors = _error_lines(captured.err)
    assert len(errors) == 1 and "HTTP 401" in errors[0]
    assert captured.out == ""
    assert len(handler.served) == 1


def test_live_run_fails_only_the_episode_on_http_400(stub_server, monkeypatch, tmp_path, capsys):
    """An HTTP 400 can come from one over-long prompt: it fails that episode by
    policy, and the run exits 0 with a whole run dir."""
    from echogrid.cli import main
    from echogrid.harness import read_run_dir

    url, handler = stub_server
    handler.plan = [(400, "context length exceeded")]
    _live_env(monkeypatch, url)
    envs, out = tmp_path / "envs", tmp_path / "run"
    assert main(["gen", "--count", "2", "--out", str(envs)]) == 0
    assert _cli_run(envs, out, "--workers", "2") == 0
    assert _error_lines(capsys.readouterr().err) == []
    notes = [
        json.loads(line)["note"]
        for line in (out / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert notes == ["policy failure: backend error: chat completion failed with HTTP 400"] * 4
    assert [stream.rewards for stream in read_run_dir(out).streams] == [[0, 0], [0, 0]]


def test_live_mirror_holds_whole_records_with_two_workers(keepalive_server, monkeypatch, tmp_path):
    """Two env streams on two workers append through a handle each, with no
    lock: every line is one whole record, and the lines are those of the
    same run on one worker. Their order across streams is arrival order."""
    from echogrid.harness import RunConfig, run_stream

    url, handler = keepalive_server
    handler.plan = [(200, _completion_body('{"thought":"t","choice":0,"reflection":"r"}'))]
    _live_env(monkeypatch, url)
    config = RunConfig(
        env_seeds=(0, 1), episodes_per_env=2, horizon=5, strategy="reflexion", backend="live"
    )
    lines = {}
    for workers in (1, 2):
        out = tmp_path / f"workers-{workers}"
        run_stream(config, out_dir=out, workers=workers)
        lines[workers] = (out / "lm_calls.jsonl").read_text(encoding="utf-8").split("\n")
        assert lines[workers].pop() == ""
    assert len(lines[2]) == 2 * 2 * (5 + 1)
    for line in lines[2]:
        assert set(json.loads(line)) == {"request", "response"}
    assert sorted(lines[2]) == sorted(lines[1])


def test_live_run_closes_every_connection(keepalive_server, monkeypatch):
    """Each env stream keeps one connection and closes it when it ends."""
    from echogrid.harness import RunConfig, run_stream

    url, handler = keepalive_server
    handler.plan = [(200, _completion_body('{"thought":"t","choice":0,"reflection":"r"}'))]
    _live_env(monkeypatch, url)
    opened = []
    real_connect = http.client.HTTPConnection.connect

    def recording_connect(self):
        opened.append(self)
        return real_connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", recording_connect)
    config = RunConfig(
        env_seeds=(0, 1), episodes_per_env=2, horizon=3, strategy="reflexion",
        backend="live",
    )
    run_stream(config, workers=2)
    assert len(handler.served) == 2 * (2 * 3 + 2)
    assert len(opened) == handler.connections == (2 if lm._KEEP_ALIVE else len(handler.served))
    assert all(conn.sock is None for conn in opened)


def test_live_backend_sends_the_absolute_uri_to_an_http_proxy(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(200, _completion_body("ok"))]
    _live_env(monkeypatch, "http://llm.invalid/v1")
    monkeypatch.setenv("http_proxy", url.replace("http://", "http://user:p%40ss@"))
    assert LiveBackend().complete(_request()) == "ok"
    credentials = "Basic " + base64.b64encode(b"user:p@ss").decode()
    assert handler.seen == [("POST", "http://llm.invalid/v1/chat/completions", credentials)]


def test_live_backend_bypasses_the_proxy_for_no_proxy_hosts(stub_server, monkeypatch):
    url, handler = stub_server
    handler.plan = [(200, _completion_body("ok"))]
    _live_env(monkeypatch, f"{url}/v1")
    monkeypatch.setenv("http_proxy", url)
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert LiveBackend().complete(_request()) == "ok"
    assert handler.seen == [("POST", "/v1/chat/completions", None)]


def test_live_backend_tunnels_https_through_the_proxy(stub_server, monkeypatch):
    """An https endpoint behind https_proxy is reached through CONNECT; this
    proxy refuses the tunnel, so every attempt fails before TLS starts."""
    url, handler = stub_server
    _live_env(monkeypatch, "https://llm.invalid/v1")
    monkeypatch.setenv("https_proxy", url)
    monkeypatch.setattr(LiveBackend, "RETRY_DELAY", 0.0)
    with pytest.raises(BackendError, match="after 3 attempts"):
        LiveBackend().complete(_request())
    assert handler.seen == [("CONNECT", "llm.invalid:443", None)] * LiveBackend.MAX_ATTEMPTS


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_MESSAGE = _JSON | st.fixed_dictionaries({"content": _JSON})
_CHOICES = _JSON | st.lists(_JSON | st.fixed_dictionaries({"message": _MESSAGE}), max_size=2)
_COMPLETION = _JSON | st.fixed_dictionaries(
    {}, optional={"choices": _CHOICES, "usage": _JSON}
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=_COMPLETION)
def test_live_backend_is_total_on_any_json_reply(stub_server, monkeypatch, doc):
    """Any JSON document served as a 200 body yields a str or a BackendError:
    choices, message, content and usage each of every JSON type."""
    url, handler = stub_server
    handler.plan = [(200, json.dumps(doc))]
    try:
        content = doc["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        content = None
    try:
        reply = _backend(monkeypatch, url).complete(_request())
    except BackendError as exc:
        assert exc.status == 200
        assert not isinstance(content, str)
    else:
        assert isinstance(content, str) and reply == content


def test_live_backend_rejects_a_reply_nested_too_deep(stub_server, monkeypatch):
    """A JSON document deeper than the decoder's recursion limit is malformed."""
    url, handler = stub_server
    handler.plan = [(200, "[" * 100_000 + "]" * 100_000)]
    with pytest.raises(BackendError, match="malformed chat completion response"):
        _backend(monkeypatch, url).complete(_request())


def test_live_run_ignores_a_malformed_usage(stub_server, monkeypatch, tmp_path):
    """usage is never read: a reply whose usage is a string runs to completion."""
    from echogrid.cli import main

    url, handler = stub_server
    reply = {"content": '{"thought":"t","choice":0,"reflection":"r"}'}
    handler.plan = [(200, json.dumps({"choices": [{"message": reply}], "usage": "n/a"}))]
    _live_env(monkeypatch, url)
    envs, out = tmp_path / "envs", tmp_path / "run"
    assert main(["gen", "--count", "1", "--out", str(envs)]) == 0
    code = main(
        [
            "run", "--envs", str(envs), "--backend", "live", "--strategy", "reflexion",
            "--episodes", "2", "--horizon", "3", "--out", str(out),
        ]
    )
    assert code == 0
    assert len((out / "trajectories.jsonl").read_text().splitlines()) == 2
    assert len(handler.served) == 2 * 3 + 2


def test_live_run_counts_strategy_calls(stub_server, monkeypatch):
    """strategy_calls counts the live backend's reflect completions (one per failed episode)."""
    from echogrid.harness import RunConfig, run_stream

    url, handler = stub_server
    handler.plan = [(200, _completion_body('{"thought":"t","choice":0,"reflection":"r"}'))]
    _live_env(monkeypatch, url)
    config = RunConfig(
        env_seeds=(0,), episodes_per_env=2, horizon=4, strategy="reflexion", backend="live"
    )
    record = run_stream(config)
    assert record.strategy_calls == 2


def test_live_run_sends_fixed_sampling_settings(stub_server, monkeypatch):
    """Agent and offline calls alike go out at temperature 0 with max_tokens 4000."""
    from echogrid.harness import RunConfig, run_stream
    from echogrid.prompts import REFLEXION, agent_system_prompt

    url, handler = stub_server
    handler.plan = [(200, _completion_body('{"thought":"t","choice":0,"reflection":"r"}'))]
    _live_env(monkeypatch, url)
    config = RunConfig(
        env_seeds=(0,), episodes_per_env=1, horizon=3, strategy="reflexion", backend="live"
    )
    run_stream(config)
    systems = [payload["messages"][0]["content"] for payload in handler.served]
    assert systems == [agent_system_prompt(3)] * 3 + [REFLEXION]
    for payload in handler.served:
        assert payload["temperature"] == 0.0
        assert payload["max_tokens"] == 4000


# sha256 of a 2-env, 1-worker, horizon-5 reflexion run's request bodies (in
# arrival order, NUL-separated), of its lm_calls.jsonl, and of its whole run
# dir (relative path and bytes of each file, sorted by path).
_LIVE_BODIES_SHA256 = "4919af3dc59f4fab72f80a2bc01bce7beaf3e3eb8c729dcee7cd9b45c459f732"
_LIVE_MIRROR_SHA256 = "8f378e4ec5dfe94373ce011a66c855847ddb6f5f131685b01b730525e4f7448b"
_LIVE_RUN_DIR_SHA256 = "ad5e76a6941234b4578e30939efafefad3b698f0707cdc43b30737d719aa3547"


def test_live_wire_format_matches_pinned_digest(stub_server, monkeypatch, tmp_path):
    """The bytes a live run sends and mirrors are pinned, headers included."""
    from echogrid.harness import RunConfig, run_stream

    url, handler = stub_server
    handler.plan = [(200, _completion_body('{"thought":"t","choice":0,"reflection":"r"}'))]
    _live_env(monkeypatch, url)
    config = RunConfig(
        env_seeds=(0, 1), episodes_per_env=2, horizon=5, strategy="reflexion",
        backend="live",
    )
    out = tmp_path / "run"
    run_stream(config, out_dir=out, workers=1)
    assert len(handler.raw) == 24
    for _, content_type, authorization in handler.raw:
        assert content_type == "application/json"
        assert authorization == "Bearer test-key"
    bodies = b"\0".join(body for body, _, _ in handler.raw)
    run_dir = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        run_dir.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    assert hashlib.sha256(bodies).hexdigest() == _LIVE_BODIES_SHA256
    assert hashlib.sha256((out / "lm_calls.jsonl").read_bytes()).hexdigest() == _LIVE_MIRROR_SHA256
    assert run_dir.hexdigest() == _LIVE_RUN_DIR_SHA256


def test_live_backends_share_one_rate_limiter(monkeypatch):
    """LM_RPM limits the whole run: every live backend draws from one token bucket."""
    from echogrid.harness import make_backend

    _live_env(monkeypatch, "http://127.0.0.1:9")
    monkeypatch.setenv("LM_RPM", "60")
    first, second = make_backend("live", None), make_backend("live", None)
    assert first.rate_limiter is not None
    assert first.rate_limiter is second.rate_limiter
    monkeypatch.delenv("LM_RPM")
    assert make_backend("live", None).rate_limiter is None


def test_live_backend_requires_configuration(monkeypatch):
    for var in ("LM_API_KEY", "LM_BASE_URL", "LM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    with pytest.raises(BackendError, match="requires"):
        LiveBackend()


@pytest.mark.parametrize("rpm", ["0", "+5", "\u00b2"])
def test_live_backend_rejects_a_bad_rate_limit(monkeypatch, rpm):
    """LM_RPM is checked where it is read; a superscript digit passes isdigit but not int."""
    _live_env(monkeypatch, "http://127.0.0.1:9")
    monkeypatch.setenv("LM_RPM", rpm)
    with pytest.raises(BackendError, match="LM_RPM must be a positive integer"):
        LiveBackend()


@pytest.mark.parametrize("url", ["api.example.com/v1", "localhost:8000/v1", "ftp://127.0.0.1/v1"])
def test_live_backend_requires_an_http_url(monkeypatch, url):
    """A base URL urllib would refuse, or serve without HTTP, fails before any call."""
    _live_env(monkeypatch, url)
    with pytest.raises(BackendError, match="LM_BASE_URL must be an http"):
        LiveBackend()


def test_package_imports_only_the_standard_library():
    """echogrid has no runtime dependency: importing its CLI loads no third-party module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; before = set(sys.modules); sys.path.insert(0, {src!r}); import echogrid.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['echogrid']"


def test_parse_choice_plain():
    assert parse_choice('{"thought": "go to door", "choice": 2}') == ("go to door", 2)


def test_parse_choice_fenced_and_prefixed():
    fenced = '```json\n{"thought": "go to door", "choice": 2}\n```'
    assert parse_choice(fenced) == ("go to door", 2)
    chatty = 'Sure! Here is my reply: {"thought": "onward", "choice": "3"} hope that helps'
    assert parse_choice(chatty) == ("onward", 3)


def test_parse_choice_rejects_non_integer():
    with pytest.raises(ParseError):
        parse_choice('{"thought": "hm", "choice": "two"}')
    with pytest.raises(ParseError):
        parse_choice('{"thought": "hm", "choice": true}')
    with pytest.raises(ParseError):
        parse_choice('{"thought": "hm"}')
    with pytest.raises(ParseError):
        parse_choice("no json here at all")


def test_parse_choice_rejects_out_of_range():
    for choice in ("9", "-1", "6", '"9"'):
        with pytest.raises(ParseError, match="action index"):
            parse_choice('{"thought": "hm", "choice": %s}' % choice)
    assert parse_choice('{"thought": "hm", "choice": 5}') == ("hm", 5)


def test_parse_choice_caches_parsed_replies_only():
    """Each distinct reply text is parsed once; a reply that is not text, or
    does not parse, raises ParseError and leaves nothing in the cache."""
    lm._parse_choice.cache_clear()
    for reply in ([1], {"thought": "t"}, None, 5, b'{"thought": "t", "choice": 1}', "{"):
        with pytest.raises(ParseError):
            parse_choice(reply)
    assert lm._parse_choice.cache_info().currsize == 0
    reply = '{"thought": "Circling in place.", "choice": 0}'
    assert parse_choice(reply) is parse_choice(reply)
    info = lm._parse_choice.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert info.maxsize == lm.PARSE_CACHE_SIZE >= 22, "holds every scripted agent reply"


def test_parse_payload_awm_failure_golden():
    text = '{\n  "goal": "Pick up grey key.",\n  "workflow": ""\n}'
    payload = parse_json_payload(text, {"goal": str, "workflow": str})
    assert payload == {"goal": "Pick up grey key.", "workflow": ""}


def test_parse_payload_goal_list_golden():
    text = '{"possible_goals": ["Pick up the grey star"]}'
    payload = parse_json_payload(text, {"possible_goals": list})
    assert payload["possible_goals"] == ["Pick up the grey star"]


def test_parse_payload_workflow_golden():
    text = (
        '{\n  "goal": "Pick up the grey star",\n  "workflow": "Step 1: Navigate north '
        'from the starting location. Step 2: Move towards the grey star located to the '
        'northeast. Step 3: Pick up the grey star."\n}'
    )
    payload = parse_json_payload(text, {"goal": str, "workflow": str})
    assert payload["goal"] == "Pick up the grey star"
    assert payload["workflow"].startswith("Step 1: Navigate north")


def test_parse_payload_missing_key_named():
    with pytest.raises(ParseError) as excinfo:
        parse_json_payload('{"goal": "x"}', {"goal": str, "workflow": str})
    assert excinfo.value.missing_key == "workflow"
    with pytest.raises(ParseError):
        parse_json_payload("text with no braces", {"goal": str})


def test_parse_summary_normalizes():
    text = 'prose first {"1": "later", "0": "Agent spawned in a room"} trailing'
    out = parse_summary(text)
    assert json.loads(out) == {"0": "Agent spawned in a room", "1": "later"}


def _nested_reply(depth: int) -> str:
    """An agent reply whose object holds a list nested depth deep."""
    return '{"thought": "x", "choice": 1, "k": ' + "[" * depth + "]" * depth + "}"


# Past the JSON decoder's nesting limit on every Python: up to 3.11 that limit
# is the recursion limit (1,000 deep is past it), from 3.12 a C limit of
# thousands.
_TOO_DEEP = 100_000


@pytest.mark.parametrize("depth", [1_000, _TOO_DEEP])
def test_parsers_reject_a_reply_nested_too_deep(depth):
    """A reply whose only object nests past the decoder's limit is a
    ParseError from each parser, never a RecursionError."""
    text = _nested_reply(depth)
    try:
        json.loads(text)
    except RecursionError:
        pass
    else:
        pytest.skip(f"this Python decodes {depth}-deep nesting")
    for parse in (
        parse_choice,
        lambda t: parse_json_payload(t, {"thought": str}),
        parse_summary,
    ):
        with pytest.raises(ParseError, match="no JSON object"):
            parse(text)


def test_parsers_scan_past_an_object_nested_too_deep():
    text = _nested_reply(_TOO_DEEP) + ' then {"thought": "t", "choice": 2}'
    assert parse_choice(text) == ("t", 2)
    assert parse_json_payload(text, {"thought": str}) == {"thought": "t"}


def test_live_run_survives_replies_nested_too_deep(stub_server, monkeypatch, tmp_path):
    """A model that answers every call with a reply nested past the decoder's
    limit fails each episode by policy, and the run still exits 0 and writes
    a run dir that reads back."""
    from echogrid.cli import main
    from echogrid.harness import read_run_dir

    url, handler = stub_server
    handler.plan = [(200, _completion_body(_nested_reply(_TOO_DEEP)))]
    _live_env(monkeypatch, url)
    envs, out = tmp_path / "envs", tmp_path / "run"
    assert main(["gen", "--count", "2", "--out", str(envs)]) == 0
    code = main(
        [
            "run", "--envs", str(envs), "--backend", "live", "--strategy", "reflexion",
            "--episodes", "2", "--horizon", "3", "--out", str(out),
        ]
    )
    assert code == 0
    notes = [
        json.loads(line)["note"]
        for line in (out / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(notes) == 2 * 2
    assert all(note.startswith("policy failure:") for note in notes)
    record = read_run_dir(out)
    assert [stream.rewards for stream in record.streams] == [[0, 0], [0, 0]]


def _garbage(rng: SplitMix64) -> str:
    pieces = (
        "{", "}", "[", "]", '"', ":", ",", "null", "true", "2", "-7", "1e9",
        '{"thought"', '"choice"', "\\", "\n", " ", "π", "assistant", "choice",
        '{"a": {"b": 1}}', "```", "0x1f", '{"thought": "t", "choice": 9}',
        '{"thought": "t", "choice": -1}', '{"k": ' + "[" * _TOO_DEEP,
    )
    return "".join(pieces[rng.randbelow(len(pieces))] for _ in range(rng.randbelow(30)))


def test_parser_totality_fuzz():
    """Random texts either parse or raise ParseError, never anything else."""
    rng = SplitMix64(7)
    for _ in range(2000):
        text = _garbage(rng)
        try:
            assert 0 <= parse_choice(text)[1] <= 5, "a parsed choice is an action index"
        except ParseError:
            pass
        for call in (
            lambda: parse_json_payload(text, {"goal": str, "workflow": str}),
            lambda: parse_summary(text),
        ):
            try:
                call()
            except ParseError:
                pass
