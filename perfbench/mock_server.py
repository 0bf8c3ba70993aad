"""Loopback model server for the delift_http workload.

Serves POST /v1/logprobs the way HttpProvider expects. Each answer is a
pure function of the request content: the token log-probabilities come
from the sha256 of the canonical request body, and so does the failure
schedule, which answers the first attempt of about one request in
`fail_one_in` with a 503 and every retry of it with 200. Because the
schedule keys on content, not arrival order, it holds under any
concurrency.

The server runs as its own process with a fixed pool of handler threads
and HTTP/1.1 keep-alive. It prints {"port": N} once it listens, and when
its stdin closes it stops and prints its counters as one JSON line.

    python3 perfbench/mock_server.py --delay-ms 4 --fail-one-in 50
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import queue
import struct
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

WORKERS = 2  # handler threads
STOP_TIMEOUT_S = 30.0


def request_digest(context: str, target: str) -> bytes:
    canonical = json.dumps({"context": context, "target": target}, sort_keys=True,
                           separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).digest()


def token_logprobs(context: str, target: str) -> list[float]:
    """One log-probability per whitespace token of target, in log([0.02, 0.98])."""
    digest = request_digest(context, target)
    values = []
    for pos in range(max(1, len(target.split()))):
        word = hashlib.sha256(digest + struct.pack("<I", pos)).digest()
        values.append(math.log(0.02 + 0.96 * int.from_bytes(word[:8], "big") / 2.0**64))
    return values


def fails_first_attempt(digest: bytes, fail_one_in: int) -> bool:
    return fail_one_in > 0 and int.from_bytes(digest[-8:], "big") % fail_one_in == 0


class Counters:
    """What the server saw; shared by the handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.failures = 0
        self.in_flight = 0
        self.in_flight_max = 0
        self._failed_once: set[bytes] = set()

    def enter(self) -> None:
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def should_fail(self, digest: bytes, fail_one_in: int) -> bool:
        if not fails_first_attempt(digest, fail_one_in):
            return False
        with self._lock:
            if digest in self._failed_once:
                return False
            self._failed_once.add(digest)
            self.failures += 1
            return True

    def as_dict(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "failures": self.failures,
                    "in_flight_max": self.in_flight_max}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 60

    def do_POST(self):
        server = self.server
        server.counters.enter()
        try:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            time.sleep(server.delay_s)
            self._reply(*server.answer(self.path, body))
        finally:
            server.counters.leave()

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        # One send for head and body: written apart, Nagle's algorithm and
        # the client's delayed ACK stall every response by tens of ms.
        self.wfile.write(head.encode("ascii") + body)

    def log_message(self, format, *args):
        pass


class MockModelServer(HTTPServer):
    """HTTPServer whose connections are served by a fixed set of threads."""

    def __init__(self, delay_ms: float, fail_one_in: int):
        super().__init__(("127.0.0.1", 0), Handler)
        self.delay_s = delay_ms / 1000.0
        self.fail_one_in = fail_one_in
        self.counters = Counters()
        self._connections: queue.Queue = queue.Queue()
        # Daemon threads, so an idle keep-alive connection cannot hold up exit.
        for _ in range(WORKERS):
            threading.Thread(target=self._serve_connections, daemon=True).start()

    def answer(self, path: str, body: bytes) -> tuple[int, dict]:
        if path != "/v1/logprobs":
            return 404, {"error": f"no endpoint {path}"}
        try:
            doc = json.loads(body)
            context, target = str(doc["context"]), str(doc["target"])
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        if self.counters.should_fail(request_digest(context, target), self.fail_one_in):
            return 503, {"error": "busy"}
        return 200, {"token_logprobs": token_logprobs(context, target)}

    def process_request(self, request, client_address):
        self._connections.put((request, client_address))

    def _serve_connections(self):
        while True:
            request, client_address = self._connections.get()
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)


class ServerProcess:
    """Runs the server as a child process; a context manager.

    `stats` holds the server's counters once the block exits.
    """

    def __init__(self, delay_ms: float, fail_one_in: int):
        self.argv = [sys.executable, __file__, "--delay-ms", str(delay_ms),
                     "--fail-one-in", str(fail_one_in)]
        self.port: int | None = None
        self.stats: dict | None = None
        self._proc: subprocess.Popen | None = None

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def __enter__(self) -> "ServerProcess":
        self._proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        line = self._proc.stdout.readline()
        if not line:
            self._stop()
            raise RuntimeError("mock server exited before listening")
        self.port = int(json.loads(line)["port"])
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        proc = self._proc
        try:
            out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("mock server did not stop in time")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"mock server failed with exit code {proc.returncode}")
        self.stats = json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=4.0, help="service time per request")
    parser.add_argument("--fail-one-in", type=int, default=50,
                        help="share of requests whose first attempt gets a 503 (0: none)")
    args = parser.parse_args(argv)
    server = MockModelServer(args.delay_ms, args.fail_one_in)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()
    server.shutdown()
    serving.join()
    server.server_close()
    print(json.dumps(server.counters.as_dict()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
