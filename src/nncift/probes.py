"""Pluggable model-signal providers and the call-count ledger.

A provider answers two kinds of probe: per-token log-probabilities of a
target continuation and per-step maximum next-token probabilities. Every
answered probe increments the shared ledger, which is the ground truth
for all cost claims downstream.

Providers:

* synthetic: pure function of (seed, request); responses are hashed into
  valid ranges.
* file: replays responses stored in a JSON-lines record file, keyed by
  the caller-supplied record key. Never touches the network.
* http: JSON-over-HTTP client with retries and per-attempt cost
  accounting, on a pool of keep-alive HTTP/1.1 connections written on
  `socket`: a request goes out in one send and its reply is read by hand.

`probe_batch` is the one way a list of probes is sent: it answers
requests of either kind in request order. Over an http provider it runs
`max_in_flight` lanes, each one connection that keeps the next request
written behind the one being served (HTTP/1.1 pipelining); a request is
charged when the server starts serving it, and a retry backs off in a
queue rather than on its lane.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import numbers
import os
import re
import select
import socket
import threading
import time
import weakref
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence
from urllib.parse import SplitResult, urlsplit

from .datasets import is_number, jsonl_records
from .errors import (
    ConfigError,
    DataValidationError,
    FileFormatError,
    NnciftError,
    ProbeError,
    ProtocolError,
    RecordNotFoundError,
)

KIND_LOGPROBS = "target_logprobs"
KIND_MAX_PROBS = "token_max_probs"
PROBE_KINDS = (KIND_LOGPROBS, KIND_MAX_PROBS)

TOKEN_ENV_VAR = "NNCIFT_HTTP_TOKEN"


def _check_probe(kind: str, target: str) -> None:
    """ValueError for a probe no provider answers: an unknown kind or an empty target."""
    if kind not in PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r}")
    if not target:
        raise ValueError(f"{kind} requires a non-empty target")


def _check_range(kind: str, values: list[float], where: str) -> None:
    """The value rule every provider's answers obey: log-probabilities
    are <= 0 and maximum probabilities lie in (0, 1]."""
    if kind == KIND_LOGPROBS and any(v > 0 for v in values):
        raise DataValidationError(f"{where}: log-probabilities must be <= 0")
    if kind == KIND_MAX_PROBS and any(not 0 < v <= 1 for v in values):
        raise DataValidationError(f"{where}: probabilities must lie in (0, 1]")


_COUNTERS = ("forward_calls", "backward_calls", "estimator_forwards", "failed_forwards")


@dataclass
class CostLedger:
    """Monotone counters for probe calls plus per-phase wall time.

    forward_calls and backward_calls meter the expensive valuation model
    (abstract F and B units); estimator_forwards meters the tiny trained
    network and is deliberately a separate counter. failed_forwards counts
    the forward attempts, already in forward_calls, that got no answer, so
    forward_calls - failed_forwards is the number of answered forwards.
    """

    forward_calls: int = 0
    backward_calls: int = 0
    estimator_forwards: int = 0
    failed_forwards: int = 0
    wall_ms: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def _add(self, counter: str, n: int) -> None:
        if n < 0:
            raise ValueError("counters are monotone; n must be >= 0")
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def add_forward(self, n: int = 1) -> None:
        self._add("forward_calls", n)

    def add_backward(self, n: int = 1) -> None:
        self._add("backward_calls", n)

    def add_estimator_forwards(self, n: int = 1) -> None:
        self._add("estimator_forwards", n)

    def add_failed_forward(self, n: int = 1) -> None:
        self._add("failed_forwards", n)

    @contextmanager
    def time_phase(self, phase: str) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            elapsed_ms = (time.monotonic() - start) * 1000.0
            with self._lock:
                self.wall_ms[phase] = self.wall_ms.get(phase, 0.0) + elapsed_ms

    def as_dict(self) -> dict:
        with self._lock:
            return {**{name: getattr(self, name) for name in _COUNTERS},
                    "wall_ms": dict(self.wall_ms)}

    @classmethod
    def from_dict(cls, doc: dict) -> "CostLedger":
        """Resume a ledger serialized by as_dict; counters keep accumulating.
        ValueError for a document as_dict could not have written."""
        if not isinstance(doc, dict) or not isinstance(wall_ms := doc.get("wall_ms", {}), dict):
            raise ValueError("expected a ledger object whose wall_ms is an object")
        counters = {name: doc.get(name, 0) for name in _COUNTERS}
        for name, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not all(map(is_number, wall_ms.values())):
            raise ValueError("wall_ms values must be numbers")
        return cls(**counters, wall_ms={str(k): float(v) for k, v in wall_ms.items()})


class _Provider:
    """Both probe kinds, each answered by the subclass's one `_probe`."""

    def target_logprobs(self, context: str, target: str, ledger: CostLedger, key: str | None = None) -> list[float]:
        return self._probe(KIND_LOGPROBS, context, target, ledger, key)

    def token_max_probs(self, context: str, target: str, ledger: CostLedger, key: str | None = None) -> list[float]:
        return self._probe(KIND_MAX_PROBS, context, target, ledger, key)


class SyntheticProvider(_Provider):
    """Deterministic provider: every response is a pure function of
    (seed, request), so repeated runs are byte-identical."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def _unit(self, kind: str, context: str, target: str, pos: int) -> float:
        payload = json.dumps(
            [self.seed, kind, context, target, pos], ensure_ascii=False
        ).encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def _probe(self, kind: str, context: str, target: str, ledger: CostLedger, key: str | None = None) -> list[float]:
        _check_probe(kind, target)
        ledger.add_forward(1)
        probs = [0.02 + 0.96 * self._unit(kind, context, target, pos)
                 for pos in range(max(1, len(target.split())))]
        return [math.log(p) for p in probs] if kind == KIND_LOGPROBS else probs


class FileProvider(_Provider):
    """Replays probe responses from a record file.

    Record file: JSON lines, each {"key": "i" or "i:j", "kind": str,
    "values": [real]}; (kind, key) pairs unique. Lookup requires the
    caller to pass the record key. Every record's values are held in one
    float64 array; record r's are _values[_ends[r]:_ends[r + 1]], and each
    kind maps its keys to their record numbers.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._values, self._ends = array("d"), array("q", [0])
        self._index: dict[str, dict[str, int]] = {kind: {} for kind in PROBE_KINDS}
        self._load()

    def _load(self) -> None:
        for where, obj in jsonl_records(self.path):
            if not isinstance(obj, dict) or not {"key", "kind", "values"} <= obj.keys():
                raise FileFormatError(f"{where}: expected key/kind/values object")
            kind, key = obj["kind"], obj["key"]
            if kind not in PROBE_KINDS:
                raise FileFormatError(f"{where}: unknown kind {kind!r}")
            if not isinstance(key, str) or not key:
                raise FileFormatError(f"{where}: key must be a non-empty string")
            values = obj["values"]
            if not isinstance(values, list) or not values:
                raise FileFormatError(f"{where}: values must be a non-empty list")
            if not all(map(is_number, values)):
                raise DataValidationError(f"{where}: values must be finite numbers")
            if key in self._index[kind]:
                raise FileFormatError(f"{where}: duplicate record ({kind!r}, {key!r})")
            _check_range(kind, values, where)
            self._index[kind][key] = len(self._ends) - 1
            self._values.extend(values)
            self._ends.append(len(self._values))

    @property
    def _records(self) -> dict[tuple[str, str], list[float]]:
        """Every record's values by (kind, key), built on each read; the
        benchmark's input tests (perfbench/tests) read records through it."""
        return {(kind, key): self._values[self._ends[r]:self._ends[r + 1]].tolist()
                for kind, index in self._index.items() for key, r in index.items()}

    def _probe(self, kind: str, context: str, target: str, ledger: CostLedger, key: str | None = None) -> list[float]:
        _check_probe(kind, target)
        if key is None:
            raise ValueError("file provider lookups require a record key")
        record = self._index[kind].get(key)
        if record is None:
            raise RecordNotFoundError(f"{self.path}: no {kind!r} record for key {key!r}")
        ledger.add_forward(1)
        return self._values[self._ends[record]:self._ends[record + 1]].tolist()


_HTTP_ENDPOINTS = {KIND_LOGPROBS: ("/v1/logprobs", "token_logprobs"),
                   KIND_MAX_PROBS: ("/v1/token_max_probs", "max_probs")}


def _split_base_url(url) -> SplitResult:
    """The parts of an http(s) URL with a host; ValueError for any other
    URL, which no attempt could reach, and for one with user info, a query
    or a fragment, which no request sends but every error would print."""
    parts, usable = None, False
    try:
        parts = urlsplit(url) if isinstance(url, str) else None
        usable = bool(parts and parts.scheme in ("http", "https") and parts.hostname and parts.port != 0)
    except ValueError:  # a port that is not a number in 0-65535, or an unclosed "["
        pass
    # these may hold a password or a key (anywhere, if the URL did not split): not echoed
    if isinstance(url, str) and ("@" in (parts.netloc if parts else url) or "?" in url or "#" in url):
        raise ValueError("base_url must not carry user info (user:password@), a query (?) or "
                         "a fragment (#): no request sends them")
    if not usable:
        raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {url!r}")
    return parts


def _check_header_values(base_url: str, token: object) -> None:
    """Raise ConfigError for a base_url or token that the request line or a
    header cannot carry as it is; a CR or LF in either would inject headers."""
    if not (base_url.isascii() and base_url.isprintable()) or " " in base_url:
        raise ConfigError(f"probe.base_url must be printable ASCII without spaces, got {base_url!r}")
    # the value is a secret: the message does not echo it
    if token is not None and not (isinstance(token, str) and token.isascii() and token.isprintable()):
        raise ConfigError(f"probe.token (or {TOKEN_ENV_VAR}) must be a string of printable ASCII")


_MAX_HEAD = 65536  # bytes in one reply's status line and headers, or one chunk-size line
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_WRITE_AHEAD = 2  # requests written on one connection: the one being served and one behind it


class _TransportError(OSError):
    """A reply the client cannot read; charged and retried like a lost connection."""


class _Connection:
    """One keep-alive HTTP/1.1 connection. A request goes out in one send;
    each reply's head is read by hand and its body framed by chunked
    transfer coding, Content-Length or the end of the connection. Replies
    come back in the order their requests were sent. The socket opens on
    the first request and again after close(); it is `proven` once a reply
    on it has kept it open."""

    def __init__(self, address: tuple[str, int], timeout: float, tls):
        self._address = address
        self._timeout = timeout
        self._tls = tls  # an ssl.SSLContext for https, else None
        self.sock = None
        self._reader = None
        self.proven = False

    def _open(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self.sock, self._reader = sock, sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self._reader.close()
            self.sock.close()
            self.sock = self._reader = None
            self.proven = False

    def close_if_peer_closed(self) -> None:
        """With no request unanswered: an idle keep-alive socket that reads
        as ready was closed by the peer, so the next request reconnects
        rather than spend an attempt on it."""
        if self.sock is not None and select.select([self.sock], [], [], 0)[0]:
            self.close()

    def send(self, request: bytes) -> None:
        """Write one whole request."""
        if self.sock is None:
            self._open()
        self.sock.sendall(request)

    def read_reply(self) -> tuple[int, bytes]:
        """The oldest unanswered request's final reply: its status and body.
        A reply that ends the connection closes it."""
        version, status, headers = self._read_head()
        while status < 200:  # 1xx replies carry no body
            version, status, headers = self._read_head()
        tokens = {t.strip() for t in headers.get(b"connection", b"").lower().split(b",")}
        keep_alive = b"close" not in tokens and (version != b"HTTP/1.0" or b"keep-alive" in tokens)
        if status in (204, 304):
            body = b""
        elif headers.get(b"transfer-encoding", b"").lower().rstrip().endswith(b"chunked"):
            body = self._read_chunked()
        elif b"content-length" in headers:
            length = headers[b"content-length"]
            if not length.isdigit():
                raise _TransportError(f"bad Content-Length {length[:40]!r}")
            body = self._read_exactly(int(length))
        else:
            body, keep_alive = self._reader.read(), False
        if keep_alive:
            self.proven = True
        else:
            self.close()
        return status, body

    def _readline(self, limit: int) -> bytes:
        line = self._reader.readline(limit + 1)
        if len(line) > limit:
            raise _TransportError(f"reply head or chunk line over {_MAX_HEAD} bytes")
        if not line.endswith(b"\n"):
            raise _TransportError("connection closed before the reply ended")
        return line

    def _read_exactly(self, size: int) -> bytes:
        data = self._reader.read(size)
        if len(data) < size:
            raise _TransportError("connection closed before the reply ended")
        return data

    def _read_head(self) -> tuple[bytes, int, dict[bytes, bytes]]:
        """One reply's HTTP version, status and headers (names lower-cased,
        repeated headers joined with commas)."""
        budget = _MAX_HEAD
        line = self._readline(budget)
        budget -= len(line)
        version, _, rest = line.rstrip().partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit() and rest[3:4] in (b"", b" ")
                and int(code) >= 100):
            raise _TransportError(f"malformed status line {line[:80]!r}")
        headers: dict[bytes, bytes] = {}
        while True:
            line = self._readline(budget)
            budget -= len(line)
            if line in (b"\r\n", b"\n"):
                return version, int(code), headers
            name, colon, value = line.partition(b":")
            if not colon:
                raise _TransportError(f"malformed header line {line[:80]!r}")
            name, value = name.strip().lower(), value.strip()
            headers[name] = headers[name] + b", " + value if name in headers else value

    def _read_chunked(self) -> bytes:
        chunks = []
        while True:
            size = self._readline(_MAX_HEAD).split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise _TransportError(f"bad chunk size {size[:40]!r}")
            if int(size, 16) == 0:
                break
            chunk = self._read_exactly(int(size, 16) + 2)
            if not chunk.endswith(b"\r\n"):
                raise _TransportError("chunk not followed by CRLF")
            chunks.append(chunk[:-2])
        while self._readline(_MAX_HEAD) not in (b"\r\n", b"\n"):  # trailer fields
            pass
        return b"".join(chunks)


def _close_all(connections: list[_Connection]) -> None:
    for conn in connections:
        conn.close()


class _Batch:
    """One batch of HTTP probes of one kind, each request already built,
    shared by the lanes that answer it.

    New requests are handed out in index order. A retry, or a request to
    send again, waits in a heap of due times, so a lane whose request is
    backing off goes on with other work. Once a request has failed for
    good, no new request, and no retry or resend of a later one, is sent.
    """

    def __init__(self, provider: "HttpProvider", kind: str, requests: list[bytes], ledger: CostLedger):
        self.provider = provider
        self.kind = kind
        self.requests = requests
        self.ledger = ledger
        self.answers: list[list[float] | None] = [None] * len(requests)
        self.failure: tuple[int, NnciftError] | None = None  # the lowest-index request failed for good
        self.fault: BaseException | None = None  # an error of no request's, which ends the batch
        self._next = 0
        self._limit = len(requests)  # no request from this index on is sent, anew or again
        self._due: list[tuple[float, int, int]] = []  # heap of (due time, index, attempt)
        self._cond = threading.Condition()

    def take(self, wait: bool) -> tuple[int, int] | None:
        """The (index, attempt) to send next: a due retry or resend first,
        then the next new request. None if there is nothing to send now;
        with `wait`, None only once nothing is left to send."""
        with self._cond:
            while True:
                now = time.monotonic()
                if self._due and self._due[0][0] <= now:
                    _, index, attempt = heapq.heappop(self._due)
                    return index, attempt
                if self._next < self._limit:
                    self._next += 1
                    return self._next - 1, 0
                if not (wait and self._due):
                    return None
                self._cond.wait(self._due[0][0] - now)

    def queue(self, due: float, index: int, attempt: int) -> None:
        """Send (index, attempt) once time.monotonic() reaches `due`."""
        with self._cond:
            if index < self._limit:
                heapq.heappush(self._due, (due, index, attempt))
                self._cond.notify_all()

    def settle(self, item: tuple[int, int], reply: tuple[int, bytes] | OSError) -> None:
        """Record one charged attempt's reply, or the OSError that took its place."""
        index, attempt = item
        try:
            outcome = self.provider._outcome(self.kind, attempt, reply)
        except NnciftError as exc:
            self.fail(index, exc)
            return
        if isinstance(outcome, list):
            self.answers[index] = outcome
            return
        self.ledger.add_failed_forward(1)
        if attempt + 1 < self.provider.retries:
            # 2.0**1024 raises OverflowError; a product past the largest float is inf
            delay = min(self.provider.backoff * 2.0**min(attempt, 1023), threading.TIMEOUT_MAX)
            self.queue(time.monotonic() + delay, index, attempt + 1)
        else:
            self.fail(index, outcome)

    def _cut(self, limit: int) -> None:
        self._limit = min(self._limit, limit)
        self._due = [entry for entry in self._due if entry[1] < self._limit]
        heapq.heapify(self._due)
        self._cond.notify_all()

    def fail(self, index: int, error: NnciftError) -> None:
        with self._cond:
            if self.failure is None or index < self.failure[0]:
                self.failure = (index, error)
                self._cut(index)

    def stop(self, fault: BaseException) -> None:
        """End the batch for an error of no request's: nothing more is sent."""
        with self._cond:
            self.fault = self.fault or fault
            self._cut(0)


class HttpProvider(_Provider):
    """JSON-over-HTTP probe client on a pool of keep-alive HTTP/1.1 connections.

    Endpoints: POST /v1/logprobs {"context","target"} -> {"token_logprobs"};
    POST /v1/token_max_probs {"context","target"} -> {"max_probs"}.

    Transport failures and 5xx responses are retried with exponential
    backoff; every attempt charges one forward call because the serving
    cost was paid whether or not the answer arrived, and an attempt that
    got no answer also counts as a failed forward. Other HTTP errors and
    bodies that are not a JSON object fail immediately. A reply the client
    cannot read (a malformed status line or header, a head over 64 KiB, a
    connection closed mid-reply) is a transport error.

    The provider answers one batch at a time, over lanes that each hold
    one of a pool of max_in_flight keep-alive connections (default 8),
    which caps the requests being served and the connections; a batch
    from another thread waits for the one being answered. Every request of
    a batch is built before any is sent, so a batch holding a probe no
    server could answer (an empty target) raises its ValueError with
    nothing sent or charged. A single probe is a batch of one on one lane;
    `probe_batch` answers a batch over max_in_flight lanes. A
    lane whose connection has kept a reply open writes the next request
    behind the one being served (HTTP/1.1 pipelining), so at most one more
    request per connection waits at the server. A request is charged when
    it becomes the oldest unanswered one on its connection, the point at
    which an in-order server starts serving it; one written behind a reply
    or failure that ends the connection is sent again uncharged. A retry
    waits out its backoff in a queue while its lane goes on with other
    requests. Proxy environment variables are not read; the URL carries
    no user info, query or fragment (ValueError otherwise), and it and the
    token, from the argument or NNCIFT_HTTP_TOKEN, must be printable
    ASCII (ConfigError otherwise), both before any attempt.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.25,
        max_in_flight: int = 8,
    ):
        _check_http_options({"timeout": timeout, "retries": retries, "backoff": backoff,
                             "max_in_flight": max_in_flight})
        self.base_url = base_url.rstrip("/")
        self.token = token if token is not None else os.environ.get(TOKEN_ENV_VAR)
        self.retries = retries
        self.backoff = backoff
        self.max_in_flight = max_in_flight
        parts = _split_base_url(self.base_url)
        _check_header_values(self.base_url, self.token)
        self._path = parts.path
        # every request's headers but Content-Length, which each request adds
        self._headers = f"Host: {parts.netloc}\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n"
        if self.token:
            self._headers += f"Authorization: Bearer {self.token}\r\n"
        tls = None
        if parts.scheme == "https":
            import ssl  # only an https origin pays for loading it

            tls = ssl.create_default_context()
        address = (parts.hostname, parts.port or (443 if tls else 80))
        self._connections = [_Connection(address, timeout, tls) for _ in range(max_in_flight)]
        self._lock = threading.Lock()  # held by the batch whose lanes use the connections
        # callers drop providers unclosed: close the sockets when the provider is collected
        weakref.finalize(self, _close_all, self._connections)

    # kept for perfbench/tests/test_bench_server.py:74, which closes a provider through it
    _session = property(lambda self: self)

    def close(self) -> None:
        """Close every connection once the batch being answered is done; a later probe reconnects."""
        with self._lock:
            _close_all(self._connections)

    def _request(self, kind: str, context: str, target: str) -> bytes:
        """The whole HTTP request for one probe."""
        _check_probe(kind, target)
        raw = json.dumps({"context": context, "target": target}).encode("utf-8")
        return (f"POST {self._path}{_HTTP_ENDPOINTS[kind][0]} HTTP/1.1\r\n{self._headers}"
                f"Content-Length: {len(raw)}\r\n\r\n").encode("ascii") + raw

    def _outcome(self, kind: str, attempt: int, reply: tuple[int, bytes] | OSError) -> list[float] | ProbeError:
        """What one attempt came to, given its (status, body) or the OSError
        that ended it: the values a 200 reply carries or, for a transport
        error or a 5xx, the ProbeError to raise once no retry is left. Any
        other reply raises at once."""
        endpoint, field_name = _HTTP_ENDPOINTS[kind]
        url = f"{self.base_url}{endpoint}"
        if isinstance(reply, OSError):
            return ProbeError(f"{url}: attempt {attempt + 1} failed: {reply}")
        status, data = reply
        if status >= 500:
            return ProbeError(f"{url}: attempt {attempt + 1} got status {status}")
        if status != 200:
            raise ProbeError(f"{url}: status {status}")
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"{url}: response is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(f"{url}: response is not a JSON object")
        values = payload.get(field_name)
        if not isinstance(values, list) or not values:
            raise ProtocolError(f"{url}: missing or empty {field_name!r}")
        if not all(map(is_number, values)):
            raise ProtocolError(f"{url}: {field_name!r} must be finite numbers")
        values = [float(v) for v in values]
        _check_range(kind, values, url)
        return values

    def _lane(self, batch: _Batch, conn: _Connection) -> None:
        """Answer batch requests on one connection until none is left."""
        pending: deque[tuple[int, int]] = deque()  # (index, attempt) written on conn, oldest first
        try:
            while True:
                error = None
                # write ahead only on a connection a reply has kept open
                while error is None and len(pending) < (_WRITE_AHEAD if conn.proven else 1):
                    item = batch.take(wait=not pending)
                    if item is None:
                        break
                    if not pending:
                        conn.close_if_peer_closed()
                        batch.ledger.add_forward(1)  # nothing ahead of it: served from now on
                    pending.append(item)
                    try:
                        conn.send(batch.requests[item[0]])
                    except OSError as exc:
                        error = exc
                if not pending:
                    return
                item = pending.popleft()
                try:
                    reply = conn.read_reply() if error is None else error
                except OSError as exc:
                    reply = exc
                if isinstance(reply, OSError):
                    conn.close()  # its state is unknown: the next request reconnects
                if conn.sock is None:
                    # the server reads nothing more written on it: send the rest again, uncharged
                    while pending:
                        batch.queue(0.0, *pending.popleft())
                elif pending:
                    batch.ledger.add_forward(1)  # the request behind is served from now on
                batch.settle(item, reply)
        except BaseException as exc:
            conn.close()  # requests may be left unanswered on it
            batch.stop(exc)

    def _answer(self, kind: str, probes: Sequence[tuple[str, str]],
                ledger: CostLedger) -> tuple[list, tuple[int, NnciftError] | None]:
        """Answer (context, target) probes of one kind over the first
        min(max_in_flight, len(probes)) pooled connections, holding the
        provider's lock until every lane that started has returned. Returns the
        answers in request order and the (index, error) of the lowest-index
        request that failed, if any."""
        batch = _Batch(self, kind, [self._request(kind, context, target) for context, target in probes],
                       ledger)
        with self._lock:
            first, *others = self._connections[:max(1, min(self.max_in_flight, len(probes)))]
            threads = []
            try:
                for conn in others:
                    thread = threading.Thread(target=self._lane, args=(batch, conn), daemon=True)
                    thread.start()
                    threads.append(thread)
            except BaseException as exc:  # the lanes already started stop and are joined
                batch.stop(exc)
            else:
                self._lane(batch, first)  # lane 0 runs on the calling thread
            for thread in threads:
                thread.join()
        if batch.fault is not None:
            raise batch.fault
        return batch.answers, batch.failure

    def _probe(self, kind: str, context: str, target: str, ledger: CostLedger, key: str | None = None) -> list[float]:
        answers, failure = self._answer(kind, [(context, target)], ledger)
        if failure is not None:
            raise failure[1]
        return answers[0]


Provider = SyntheticProvider | FileProvider | HttpProvider


def probe_batch(
    probe: Provider, kind: str, requests: Sequence[tuple[str, str, str, str]], ledger: CostLedger
) -> list[list[float]]:
    """Answer `(where, context, target, key)` requests of one probe kind, in
    request order.

    An HttpProvider builds every request first, then answers them over
    max_in_flight lanes, one pooled connection each, one batch at a time.
    Lane 0 runs on the calling thread, so a cap of 1 starts no thread.
    Once a reply has kept its connection open, a lane keeps the next
    request written behind the one being served, so the server finds it
    waiting; a request is charged when it becomes the oldest unanswered
    one on its connection. A retry waits out its backoff in a queue while
    its lane serves other requests. Every other provider answers the
    requests one after another through its `kind` method.

    Either way, a failure raises the NnciftError of the lowest-index failing
    request, the one a sequential loop would stop at, prefixed "at <where>".
    Requests not yet sent by then are never sent nor charged; those in
    flight finish and are charged.
    """
    if isinstance(probe, HttpProvider):
        probes = [(context, target) for _, context, target, _ in requests]
        answers, failure = probe._answer(kind, probes, ledger)
    else:
        answer = getattr(probe, kind)
        answers, failure = [], None
        for k, (_, context, target, key) in enumerate(requests):
            try:
                answers.append(answer(context, target, ledger, key=key))
            except NnciftError as exc:
                failure = (k, exc)
                break
    if failure is not None:
        k, exc = failure
        raise type(exc)(f"at {requests[k][0]}: {exc}") from exc
    return answers


_PROVIDER_KINDS = ("synthetic", "file", "http")
_HTTP_OPTIONS = ("timeout", "retries", "backoff", "max_in_flight")
MAX_IN_FLIGHT = 256  # a provider opens this many connections at most, a batch this many lanes
# every key some provider reads; a misspelt option must not fall back to its default
_PROBE_KEYS = frozenset({"provider", "seed", "records", "base_url", "token", *_HTTP_OPTIONS})


def _check_http_options(options: dict) -> None:
    """ValueError for HTTP options the client cannot honour: a zero
    in-flight cap would block the first probe forever, a larger one than
    MAX_IN_FLIGHT builds that many connections and threads, a zero timeout
    would fail every attempt unsent, a socket refuses a timeout above
    threading.TIMEOUT_MAX, and a longer backoff is a wait that never ends."""
    for name, value in options.items():
        if name in ("retries", "max_in_flight"):
            top = MAX_IN_FLIGHT if name == "max_in_flight" else math.inf
            ok = not isinstance(value, bool) and isinstance(value, numbers.Integral) and 1 <= value <= top
            rule = "an integer >= 1" if top == math.inf else f"an integer >= 1 and <= {top}"
        else:
            ok = is_number(value) and 0 <= value <= threading.TIMEOUT_MAX and (value > 0 or name != "timeout")
            rule = f"a number {'>' if name == 'timeout' else '>='} 0 and <= {threading.TIMEOUT_MAX}"
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_probe_spec(spec) -> None:
    """Raise ConfigError for a spec `build_provider` would reject, without
    building a provider or reading its files."""
    if not isinstance(spec, dict) or "provider" not in spec:
        raise ConfigError("probe spec must be a mapping with a 'provider' field")
    # not checked per kind: a scale's probe is merged over the run's, so a
    # file scale under the default synthetic probe carries its seed
    unknown = sorted(set(spec) - _PROBE_KEYS)
    if unknown:
        raise ConfigError(f"unknown probe options: {', '.join('probe.' + key for key in unknown)}")
    kind = spec["provider"]
    if kind not in _PROVIDER_KINDS:
        raise ConfigError(f"probe provider must be one of {', '.join(_PROVIDER_KINDS)}, got {kind!r}")
    if kind == "file" and "records" not in spec:
        raise ConfigError("file provider requires a 'records' path")
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"probe.seed must be an integer >= 0, got {seed!r}")
    if not isinstance(spec.get("records", ""), str):
        raise ConfigError(f"probe.records must be a path string, got {spec['records']!r}")
    if kind == "http":
        if "base_url" not in spec:
            raise ConfigError("http provider requires a 'base_url'")
        token = spec.get("token")
        try:
            _split_base_url(spec["base_url"])
            _check_header_values(spec["base_url"], os.environ.get(TOKEN_ENV_VAR) if token is None else token)
            _check_http_options({name: spec[name] for name in _HTTP_OPTIONS if name in spec})
        except ValueError as exc:
            raise ConfigError(f"probe.{exc}") from None


def build_provider(spec: dict) -> Provider:
    """Construct a provider from a configuration mapping; selection is
    explicit, never sniffed."""
    check_probe_spec(spec)
    kind = spec["provider"]
    if kind == "synthetic":
        return SyntheticProvider(seed=spec.get("seed", 0))
    if kind == "file":
        try:
            return FileProvider(spec["records"])
        except OSError as exc:
            raise ConfigError(f"probe.records: cannot read {spec['records']}: {exc.strerror}") from exc
    options = {name: spec[name] for name in _HTTP_OPTIONS if name in spec}
    return HttpProvider(base_url=spec["base_url"], token=spec.get("token"), **options)
