import datetime
import hashlib
import ipaddress
import json
import math
import select
import socket
import socketserver
import ssl
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
            if self.rbufsize == 0 and select.select([self.connection], [], [], 0)[0]:
                server.count_ahead()
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


class PeekingHandler(ScriptedHandler):
    """Reads requests unbuffered, so a request the client wrote behind the
    one being served waits in the socket, where the handler sees it before
    it replies and counts it in the server's `ahead`."""

    rbufsize = 0


class ProbeServer(ThreadingHTTPServer):
    """Loopback probe server that records every request, the most requests
    and connections it ever had open at once, how many it ever opened and,
    with a PeekingHandler, how many replies it wrote with the next request
    already waiting (`ahead`)."""

    def __init__(self, handler=ScriptedHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.requests = []
        self.script = []
        self._lock = threading.Lock()
        self.open = {"connections": 0, "in_flight": 0}
        self.peak = dict(self.open)
        self.total = dict(self.open)
        self.ahead = 0

    def count(self, name, step):
        with self._lock:
            self.open[name] += step
            self.peak[name] = max(self.peak[name], self.open[name])
            self.total[name] += max(step, 0)

    def count_ahead(self):
        with self._lock:
            self.ahead += 1

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


class PeekingKeepAliveHandler(KeepAliveHandler):
    rbufsize = 0  # see PeekingHandler


class IdleClosingHandler(KeepAliveHandler):
    timeout = 0.2  # closes a keep-alive connection idle this long


class RawReplyHandler(socketserver.StreamRequestHandler):
    """Reads HTTP/1.1 requests off one connection and answers each with the
    server's next scripted reply, written byte for byte as scripted."""

    def setup(self):
        super().setup()
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.count("connections", 1)

    def handle(self):
        while True:
            head = [self.rfile.readline(65537)]
            while head[-1] not in (b"\r\n", b"\n", b""):
                head.append(self.rfile.readline(65537))
            if not head[-1]:
                return  # the client closed the connection
            length = next((int(line.split(b":", 1)[1]) for line in head
                           if line.lower().startswith(b"content-length:")), 0)
            self.server.requests.append({"head": b"".join(head), "body": self.rfile.read(length)})
            raw, after = self.server.next_reply()
            step = 1 if self.server.dribble else max(len(raw), 1)
            try:
                for start in range(0, len(raw), step):
                    self.wfile.write(raw[start:start + step])
                    if self.server.dribble:
                        time.sleep(0.0005)
            except OSError:
                return  # the client gave up on the reply
            if after == "eof":  # the end of the connection ends the body
                self.request.shutdown(socket.SHUT_WR)
            if after != "keep":
                # answer nothing more; keep what the client writes until it closes
                self.server.unread.append(self.rfile.read())
                return


class RawReplyServer(socketserver.ThreadingTCPServer):
    """Loopback server whose replies are raw bytes: `script` holds
    (reply, after) pairs, one per request, where `after` is "keep" (keep
    the connection), "eof" (close the sending side: the end of the body) or
    "ignore" (answer nothing more on it). An empty script answers with
    `raw_reply()`. With `dribble` set, replies go out one byte at a time.
    `unread` holds, per connection ended early, what the client wrote on
    it after the last request answered."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), RawReplyHandler)
        self.requests = []
        self.script = []
        self.dribble = False
        self.unread = []
        self._lock = threading.Lock()
        self.total = {"connections": 0}

    def count(self, name, step):
        with self._lock:
            self.total[name] += step

    def wait_unread(self, count, timeout=5.0):
        """`unread` once it holds `count` entries; a handler adds its entry
        only after the client has closed the connection."""
        deadline = time.monotonic() + timeout
        while len(self.unread) < count and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.unread

    def next_reply(self):
        with self._lock:
            return self.script.pop(0) if self.script else (raw_reply(), "keep")

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"


def raw_reply(payload=None, status=b"200 OK", headers=b""):
    """An HTTP/1.1 reply framed by Content-Length, with extra header lines."""
    body = json.dumps(payload or {"token_logprobs": [-0.5, -0.25]}).encode()
    return (b"HTTP/1.1 " + status + b"\r\nContent-Type: application/json\r\n" + headers
            + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)


def request_digest(context, target):
    return hashlib.sha256(json.dumps([context, target]).encode("utf-8")).digest()


class SlowKeyedServer(ProbeServer):
    """Answers both endpoints from the request content after `delay` seconds.

    Like a model server whose answers and failures depend on what is asked,
    not on arrival order: the first attempt of about one request in
    `fail_one_in`, and of a request whose target is in `fail_once`, gets a
    503, and a request whose context or target is in `reject` always gets
    a 404. `delays` maps a target to its own delay.
    """

    def __init__(self, delay=0.0, handler=KeepAliveHandler):
        super().__init__(handler)
        self.delay = delay
        self.delays = {}
        self.fail_one_in = 0
        self.fail_once = set()
        self.reject = set()
        self.failures = 0
        self._failed = set()

    @staticmethod
    def logprobs(context, target):
        """One log-probability per token of target, a pure function of the request."""
        digest = request_digest(context, target)
        return [math.log(0.02 + 0.96 * digest[pos] / 255) for pos in range(len(target.split()))]

    @classmethod
    def max_probs(cls, context, target):
        return [math.exp(lp) for lp in cls.logprobs(context, target)]

    def answer(self, path, body):
        context, target = body["context"], body["target"]
        time.sleep(self.delays.get(target, self.delay))
        if self.reject & {context, target}:
            return 404, {}
        digest = request_digest(context, target)
        if target in self.fail_once or self.fail_one_in and digest[-1] % self.fail_one_in == 0:
            with self._lock:
                if digest not in self._failed:
                    self._failed.add(digest)
                    self.failures += 1
                    return 503, {}
        if path.endswith("/token_max_probs"):
            return 200, {"max_probs": self.max_probs(context, target)}
        return 200, {"token_logprobs": self.logprobs(context, target)}


def serve(server):
    # shutdown() waits for the loop's next poll: at the default 0.5 s every
    # test's teardown would wait up to that long
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
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
def peeking_server():
    yield from serve(SlowKeyedServer(delay=0.005, handler=PeekingKeepAliveHandler))


@pytest.fixture()
def peeking_http_1_0_server():
    yield from serve(ProbeServer(PeekingHandler))


@pytest.fixture()
def idle_closing_server():
    yield from serve(ProbeServer(IdleClosingHandler))


@pytest.fixture()
def raw_server():
    yield from serve(RawReplyServer())


def self_signed_certificate(directory):
    """A certificate and key for 127.0.0.1, written as PEM files."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(x509.oid.NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder().subject_name(name).issuer_name(name)
            .public_key(key.public_key()).serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(minutes=5))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.SubjectAlternativeName(
                [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), critical=False)
            .sign(key, hashes.SHA256()))
    cert_path, key_path = directory / "cert.pem", directory / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM,
                                           serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    return cert_path, key_path


class TlsProbeServer(ProbeServer):
    """ProbeServer with keep-alive, over TLS with the given certificate."""

    def __init__(self, cert_path, key_path):
        super().__init__(KeepAliveHandler)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert_path, key_path)
        self.socket = context.wrap_socket(self.socket, server_side=True)

    @property
    def url(self):
        return f"https://127.0.0.1:{self.server_address[1]}"


@pytest.fixture()
def tls_server(tmp_path, monkeypatch):
    """An https probe server whose self-signed certificate the default
    verifying context trusts through SSL_CERT_FILE."""
    cert_path, key_path = self_signed_certificate(tmp_path)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
    yield from serve(TlsProbeServer(cert_path, key_path))
