"""Loopback chat-completions endpoint for the live-loopback workload.

Runs in its own process and speaks HTTP/1.1 with Content-Length, so a
client that keeps connections alive is visible in the connection count.
Every answered request gets the reply `echogrid.oracle.TurnLeftBackend`
would give, after a fixed delay of 3 ms. A request is refused with 429
when a hash of its body falls in a 1-in-N slice; each body is refused at
most once per counting window, so the retry goes through. Which requests
are refused therefore depends on their content, never on arrival order.

Control endpoints (not counted): GET /stats returns the counters of the
current counting window. POST /reset with {"refuse_one_in": N} opens a new
one: it clears the counters and the set of refused bodies, and sets N
(0 refuses nothing, which is also the state at start).

    python3 perfbench/stub.py --src src

prints `port <n>` on stdout once it listens on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.003  # before each answer, standing in for a model's latency

# Roles by system-prompt opening; kept here rather than imported so the
# stub's counts do not depend on the client's own classification code.
_ROLE_MARKERS = (
    ("agent", "You are an agent in a 2D gridworld."),
    ("reflect", "You are an agent in a 2D text-based environment. Reflect"),
    ("awm", "You are an agent in a 2D text-based environment. If the agent succeeds"),
    ("summarize", "You are an expert at analyzing agent behavior"),
    ("identify_goals", "You are an expert at analyzing 2D text-based environments"),
    ("infer_traj", "You are an expert at creating action plans"),
)


def classify(system_prompt: str) -> str:
    for role, marker in _ROLE_MARKERS:
        if system_prompt.startswith(marker):
            return role
    return "unknown"


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset(0)

    def reset(self, refuse_one_in: int):
        self.refuse_one_in = refuse_one_in
        self.requests = {}  # role -> chat requests received (refused ones too)
        self.answered = {}  # role -> chat requests answered 200
        self.refused = 0
        self.connections = 0  # connections that carried at least one chat request
        self.body_bytes = 0
        self.prompt_chars = 0  # answered requests only: what a provider bills
        self.handle_s = 0.0  # from reading a request to having its reply ready
        self.refused_bodies = set()

    def snapshot(self) -> dict:
        return {
            "requests": dict(self.requests),
            "answered": dict(self.answered),
            "refused": self.refused,
            "connections": self.connections,
            "body_bytes": self.body_bytes,
            "prompt_chars": self.prompt_chars,
            "handle_s": self.handle_s,
        }


def make_handler(counters: Counters, backend, request_cls):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.carried_chat = False

        def _send(self, status: int, payload: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            self.wfile.flush()

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            with counters.lock:
                doc = counters.snapshot()
            self._send(200, json.dumps(doc).encode("utf-8"))

        def do_POST(self):
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                refuse_one_in = int(json.loads(body)["refuse_one_in"])
                with counters.lock:
                    counters.reset(refuse_one_in)
                self._send(200, b"{}")
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, b"{}")
                return
            payload = json.loads(body)
            messages = payload["messages"]
            role = classify(messages[0]["content"])
            digest = hashlib.sha256(body).digest()
            with counters.lock:
                if not self.carried_chat:
                    counters.connections += 1
                counters.requests[role] = counters.requests.get(role, 0) + 1
                counters.body_bytes += len(body)
                refuse = (
                    counters.refuse_one_in > 0
                    and int.from_bytes(digest[:8], "big") % counters.refuse_one_in == 0
                    and digest not in counters.refused_bodies
                )
                if refuse:
                    counters.refused_bodies.add(digest)
                    counters.refused += 1
            self.carried_chat = True
            if refuse:
                status, response = 429, b'{"error": "rate limited"}'
            else:
                request = request_cls(
                    system_prompt=messages[0]["content"], messages=messages[1:]
                )
                reply = {
                    "choices": [
                        {"message": {"role": "assistant", "content": backend.complete(request)}}
                    ],
                    "usage": {"prompt_tokens": 0, "completion_tokens": 0},
                }
                status, response = 200, json.dumps(reply).encode("utf-8")
                time.sleep(DELAY_S)
            # Count before replying: once the client has its reply, a /stats
            # read must already see this request.
            with counters.lock:
                if not refuse:
                    counters.answered[role] = counters.answered.get(role, 0) + 1
                    counters.prompt_chars += sum(len(m["content"]) for m in messages)
                counters.handle_s += time.perf_counter() - start
            self._send(status, response)

        def log_message(self, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the echogrid package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from echogrid.lm import LMRequest
    from echogrid.oracle import TurnLeftBackend

    # TurnLeftBackend records every request it answers; the stub needs only
    # the replies, so each request gets a fresh instance to keep memory flat.
    class FreshTurnLeft:
        def complete(self, request):
            return TurnLeftBackend().complete(request)

    counters = Counters()
    handler = make_handler(counters, FreshTurnLeft(), LMRequest)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
