"""Fake chat-completions backend for the eval-chat workload.

Run as a child process: ``python3 fake_backend.py PLANS.json BASE_MS PER_CHAR_MS``.
It prints the port it listens on (127.0.0.1) as its first stdout line.

Each question follows the plan the input generator wrote for it. Turn t is
chosen by the number of evidence blocks in the prompt, and every completion
carries text past its complete branch, as a model that does not stop would.
Latency is BASE_MS per request plus PER_CHAR_MS per completion character, so
wasted completion text costs wall time. Injected 503 and 429 answers are keyed
by (question, turn, attempt), where the attempt counts identical requests
since the last reset; outputs therefore do not depend on thread timing.

``GET /stats`` returns request, connection, error and character counters;
``POST /reset`` zeroes them and the attempt counts, and with ``{"latency": false}``
answers at once until the next reset (for runs that only check outputs).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Backend(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, plans: dict, base_s: float, per_char_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.plans = plans
        self.base_s = base_s
        self.per_char_s = per_char_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self, latency: bool = True) -> None:
        with self.lock:
            self.latency = latency
            self.attempts: dict[tuple[str, int], int] = {}
            self.stats = {
                "requests": 0,
                "connections": 0,
                "prompt_chars": 0,
                "completion_chars": 0,
                "errors": {},
            }

    def complete(self, payload: dict, new_connection: bool) -> tuple[int, dict, float]:
        """Status, body and latency for one chat request."""
        messages = payload["messages"]
        user = messages[-1]["content"]
        lines = user.split("\n")
        question = lines[0].removeprefix("Question: ")
        turn = sum(1 for line in lines if line.startswith("Query: "))
        with self.lock:
            attempt = self.attempts.get((question, turn), 0) + 1
            self.attempts[(question, turn)] = attempt
            self.stats["requests"] += 1
            self.stats["connections"] += new_connection
            self.stats["prompt_chars"] += sum(len(m["content"]) for m in messages)
        plan = self.plans[question]
        fault = plan["faults"].get(f"{turn}:{attempt}")
        if fault:
            with self.lock:
                errors = self.stats["errors"]
                errors[str(fault)] = errors.get(str(fault), 0) + 1
            return fault, {"error": {"message": "injected", "code": fault}}, self.base_s * self.latency
        t = min(turn, len(plan["turns"]) - 1)
        content = plan["turns"][t] + plan["junk"][t]
        finish = "stop"
        for stop in payload.get("stop") or []:
            cut = content.find(stop)
            if cut >= 0:
                content = content[:cut]
        words = content.split(" ")
        max_tokens = payload.get("max_tokens")
        if max_tokens is not None and len(words) > max_tokens:
            content = " ".join(words[:max_tokens])
            finish = "length"
        with self.lock:
            self.stats["completion_chars"] += len(content)
        body = {
            "choices": [
                {"index": 0, "message": {"role": "assistant", "content": content},
                 "finish_reason": finish}
            ]
        }
        return 200, body, (self.base_s + self.per_char_s * len(content)) * self.latency


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so connection reuse would show

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {})
            return
        with self.server.lock:
            self._send(200, self.server.stats)

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/reset":
            self.server.reset(payload.get("latency", True))
            self._send(200, {})
            return
        # a connection counts once it carries a chat request (not /stats or /reset)
        new_connection = not getattr(self, "carried_chat", False)
        self.carried_chat = True
        status, body, latency = self.server.complete(payload, new_connection)
        time.sleep(latency)
        self._send(status, body)


def main(argv: list[str]) -> None:
    plans_path, base_ms, per_char_ms = argv
    with open(plans_path, encoding="utf-8") as fh:
        plans = json.load(fh)
    server = Backend(plans, float(base_ms) / 1000, float(per_char_ms) / 1000)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
