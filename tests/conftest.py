import hashlib
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class ScriptedHandler(BaseHTTPRequestHandler):
    """Replies from the server's programmable script; one entry per request."""

    def setup(self):
        super().setup()
        self.server.count("connections", 1)

    def finish(self):
        try:
            super().finish()
        finally:
            self.server.count("connections", -1)

    def do_POST(self):
        server = self.server
        server.count("in_flight", 1)
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            server.requests.append({
                "path": self.path,
                "body": body,
                "auth": self.headers.get("Authorization"),
            })
            if server.script:
                status, payload = server.script.pop(0)
            else:
                status, payload = server.answer(self.path, body)
            raw = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        finally:
            server.count("in_flight", -1)

    def log_message(self, *args):
        pass


class ProbeServer(ThreadingHTTPServer):
    """Loopback probe server that records every request, the most requests
    and connections it ever had open at once, and how many it ever opened."""

    def __init__(self, handler=ScriptedHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.requests = []
        self.script = []
        self._lock = threading.Lock()
        self.open = {"connections": 0, "in_flight": 0}
        self.peak = dict(self.open)
        self.total = dict(self.open)

    def count(self, name, step):
        with self._lock:
            self.open[name] += step
            self.peak[name] = max(self.peak[name], self.open[name])
            self.total[name] += max(step, 0)

    def answer(self, path, body):
        return 200, self.default_payload(path, body)

    @staticmethod
    def default_payload(path, body):
        if path == "/v1/logprobs":
            return {"token_logprobs": [-0.5, -0.25]}
        if path == "/v1/token_max_probs":
            return {"max_probs": [0.9, 0.8]}
        return {}

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


class KeepAliveHandler(ScriptedHandler):
    protocol_version = "HTTP/1.1"  # pooled connections stay open between requests
    timeout = 10
    # one send per reply: head and body written apart stall each reply on
    # Nagle's algorithm and the client's delayed ACK
    wbufsize = -1


class IdleClosingHandler(KeepAliveHandler):
    timeout = 0.2  # closes a keep-alive connection idle this long


def request_digest(context, target):
    return hashlib.sha256(json.dumps([context, target]).encode("utf-8")).digest()


class SlowKeyedServer(ProbeServer):
    """Answers /v1/logprobs from the request content after `delay` seconds.

    Like a model server whose answers and failures depend on what is asked,
    not on arrival order: the first attempt of about one request in
    `fail_one_in` gets a 503, and a request whose context or target is in
    `reject` always gets a 404. `delays` maps a target to its own delay.
    """

    def __init__(self, delay=0.0):
        super().__init__(KeepAliveHandler)
        self.delay = delay
        self.delays = {}
        self.fail_one_in = 0
        self.reject = set()
        self.failures = 0
        self._failed = set()

    @staticmethod
    def logprobs(context, target):
        """One log-probability per token of target, a pure function of the request."""
        digest = request_digest(context, target)
        return [math.log(0.02 + 0.96 * digest[pos] / 255) for pos in range(len(target.split()))]

    def answer(self, path, body):
        context, target = body["context"], body["target"]
        time.sleep(self.delays.get(target, self.delay))
        if self.reject & {context, target}:
            return 404, {}
        digest = request_digest(context, target)
        if self.fail_one_in and digest[-1] % self.fail_one_in == 0:
            with self._lock:
                if digest not in self._failed:
                    self._failed.add(digest)
                    self.failures += 1
                    return 503, {}
        return 200, {"token_logprobs": self.logprobs(context, target)}


def serve(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture()
def probe_server():
    yield from serve(ProbeServer())


@pytest.fixture()
def slow_server():
    yield from serve(SlowKeyedServer(delay=0.005))


@pytest.fixture()
def idle_closing_server():
    yield from serve(ProbeServer(IdleClosingHandler))
