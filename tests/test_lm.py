"""Backend retry behaviour (against a local stub server) and parser totality."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from echogrid.lm import (
    BackendError,
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

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.served.append(json.loads(self.rfile.read(length)))
        status, body = self.plan[min(len(self.served) - 1, len(self.plan) - 1)]
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _completion_body(text: str) -> str:
    return json.dumps(
        {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 5},
        }
    )


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.plan = []
    _StubHandler.served = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    thread.join()


def _backend(url: str) -> LiveBackend:
    return LiveBackend(
        base_url=url, api_key="test-key", model="test-model", retry_delay=0.0, timeout=5.0
    )


def _request() -> LMRequest:
    return LMRequest(system_prompt="system", messages=[{"role": "user", "content": "hi"}])


def test_live_backend_extracts_content(stub_server):
    url, handler = stub_server
    handler.plan = [(200, _completion_body("hello there"))]
    backend = _backend(url)
    assert backend.complete(_request()) == "hello there"
    assert backend.stats.calls == 1
    assert backend.stats.prompt_tokens == 12
    assert backend.stats.completion_tokens == 5
    sent = handler.served[0]
    assert sent["model"] == "test-model"
    assert sent["messages"][0] == {"role": "system", "content": "system"}


def test_live_backend_retries_429_then_succeeds(stub_server):
    url, handler = stub_server
    handler.plan = [(429, "slow down"), (200, _completion_body("ok"))]
    backend = _backend(url)
    assert backend.complete(_request()) == "ok"
    assert backend.stats.retries == 1
    assert len(handler.served) == 2


def test_live_backend_fails_after_three_attempts(stub_server):
    url, handler = stub_server
    handler.plan = [(500, "boom")]
    backend = _backend(url)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(_request())
    assert excinfo.value.status == 500
    assert len(handler.served) == 3


def test_live_backend_rejects_empty_content(stub_server):
    url, handler = stub_server
    handler.plan = [(200, json.dumps({"choices": [{"message": {"content": None}}]}))]
    with pytest.raises(BackendError, match="empty completion"):
        _backend(url).complete(_request())


def _live_env(monkeypatch, url: str) -> None:
    """Point make_backend("live", ...) at url, with no rate limit."""
    monkeypatch.setenv("LM_BASE_URL", url)
    monkeypatch.setenv("LM_API_KEY", "test-key")
    monkeypatch.setenv("LM_MODEL", "test-model")
    monkeypatch.delenv("LM_RPM", raising=False)


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
    assert record.agent_calls == 8
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


def _garbage(rng: SplitMix64) -> str:
    pieces = (
        "{", "}", "[", "]", '"', ":", ",", "null", "true", "2", "-7", "1e9",
        '{"thought"', '"choice"', "\\", "\n", " ", "π", "assistant", "choice",
        '{"a": {"b": 1}}', "```", "0x1f", '{"thought": "t", "choice": 9}',
        '{"thought": "t", "choice": -1}',
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
