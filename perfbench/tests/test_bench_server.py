import sys
import threading
from pathlib import Path

import requests

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from mock_server import (  # noqa: E402
    ServerProcess,
    fails_first_attempt,
    request_digest,
    token_logprobs,
)
from nncift.probes import CostLedger, HttpProvider  # noqa: E402

def _post(session, url, context, target):
    return session.post(f"{url}/v1/logprobs", json={"context": context, "target": target},
                        timeout=10)


def test_failure_schedule_keys_on_content_and_counts_requests():
    bodies = [(f"context {k}", f"alpha beta {k}") for k in range(40)]
    doomed = [b for b in bodies if fails_first_attempt(request_digest(*b), 3)]
    assert 0 < len(doomed) < len(bodies)
    for _ in range(2):  # a fresh server has a fresh schedule
        with ServerProcess(delay_ms=0, fail_one_in=3) as server:
            with requests.Session() as session:
                session.trust_env = False
                for body in bodies:
                    first = _post(session, server.base_url, *body)
                    assert first.status_code == (503 if body in doomed else 200)
                    if body in doomed:
                        retry = _post(session, server.base_url, *body)
                        assert retry.status_code == 200
                        first = retry
                    assert first.json()["token_logprobs"] == token_logprobs(*body)
        assert server.stats == {"requests": len(bodies) + len(doomed),
                                "failures": len(doomed), "in_flight_max": 1}


def test_in_flight_peak_sees_concurrent_clients():
    with ServerProcess(delay_ms=200, fail_one_in=0) as server:
        barrier = threading.Barrier(2)
        statuses = []

        def client(k):
            with requests.Session() as session:
                session.trust_env = False
                barrier.wait(timeout=10)
                statuses.append(_post(session, server.base_url, "c", f"t {k}").status_code)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200, 200]
    assert server.stats["in_flight_max"] == 2


def test_http_provider_ledger_matches_server_requests(monkeypatch):
    for key in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    ledger = CostLedger()
    with ServerProcess(delay_ms=0, fail_one_in=4) as server:
        provider = HttpProvider(server.base_url, backoff=0.001, max_in_flight=2)
        for k in range(30):
            values = provider.target_logprobs(f"ctx {k}", "gamma delta", ledger)
            assert values == token_logprobs(f"ctx {k}", "gamma delta")
        provider._session.close()
    assert server.stats["failures"] > 0
    assert ledger.forward_calls == server.stats["requests"] == 30 + server.stats["failures"]
    assert server.stats["in_flight_max"] == 1
