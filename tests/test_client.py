"""Tests for :mod:`repro.client` -- the retrying ``vxserve`` client.

Most tests run against :class:`ScriptedServer`, a stub unix-socket server
that plays back a scripted sequence of behaviours (respond / drop the
connection / stay silent), so retry, backoff, reconnect and timeout paths
are exercised deterministically with an injected rng and sleep recorder.
A final end-to-end test drives a real :class:`BatchService`.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time

import pytest

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.client import (
    VxServeClient,
    VxServeConnectionError,
    VxServeError,
    VxServeTimeout,
    main as vxquery_main,
)
from repro.parallel.service import BatchService
from repro.workloads import synthetic_log_bytes

DROP = "drop"      # close the connection without responding
SILENT = "silent"  # swallow the request, never respond (client times out)


class ScriptedServer:
    """A unix-socket stub that replays one scripted action per request.

    Script entries:
        * a dict -- merged into ``{"id": <request id>}`` and sent back;
        * a list of dicts -- each sent back in order (stale ids included,
          for exercising the client's skip-mismatched-id path);
        * ``DROP`` -- the connection is closed without a response;
        * ``SILENT`` -- the request is swallowed; nothing is ever sent.

    When the script is exhausted every further request gets a generic
    ``{"ok": true}`` echo.  All received requests are recorded.
    """

    def __init__(self, path: str, script: list):
        self.path = str(path)
        self.script = list(script)
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _next_action(self, request: dict):
        with self._lock:
            self.requests.append(request)
            if self.script:
                return self.script.pop(0)
        return {"ok": True, "result": {"echo": request.get("op")}}

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with connection:
                reader = connection.makefile("r", encoding="utf-8")
                for line in reader:
                    request = json.loads(line)
                    action = self._next_action(request)
                    if action == DROP:
                        # Send FIN so the client sees EOF, not a hang (the
                        # makefile reference would otherwise keep the fd up).
                        try:
                            connection.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        break
                    if action == SILENT:
                        continue
                    responses = action if isinstance(action, list) else [action]
                    for response in responses:
                        payload = dict(response)
                        payload.setdefault("id", request.get("id"))
                        try:
                            connection.sendall(
                                (json.dumps(payload) + "\n").encode())
                        except OSError:
                            break

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5)
        if os.path.exists(self.path):
            os.unlink(self.path)


@pytest.fixture()
def make_server(tmp_path):
    servers = []

    def factory(script: list) -> ScriptedServer:
        server = ScriptedServer(tmp_path / f"stub{len(servers)}.sock", script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def make_client(server: ScriptedServer, **overrides) -> VxServeClient:
    options = dict(retries=3, timeout=5.0, base_delay=0.001, max_delay=0.002,
                   rng=random.Random(7), sleep=lambda _: None)
    options.update(overrides)
    return VxServeClient(server.path, **options)


# -- happy path and request framing -------------------------------------------


def test_single_request_round_trip(make_server):
    server = make_server([{"ok": True, "result": {"pong": True}}])
    with make_client(server) as client:
        assert client.ping() == {"pong": True}
    assert server.requests[0]["op"] == "ping"
    assert client.reconnects == 0


def test_client_id_rides_every_request(make_server):
    server = make_server([])
    with make_client(server, client_id="ci") as client:
        client.ping()
        client.check("/tmp/a.zip", jobs=2)
    for request in server.requests:
        assert request["client"] == "ci"
    assert server.requests[1]["jobs"] == 2
    assert "members" not in server.requests[1]  # None fields are omitted


def test_stale_response_lines_are_skipped(make_server):
    server = make_server([[
        {"id": 999, "ok": True, "result": {"stale": True}},
        {"ok": True, "result": {"fresh": True}},
    ]])
    with make_client(server) as client:
        assert client.ping() == {"fresh": True}


# -- retry policy ---------------------------------------------------------------


def test_retry_honors_server_hint_as_floor(make_server):
    server = make_server([
        {"ok": False, "error": "try later", "error_code": "overloaded",
         "retry_after_seconds": 0.35},
        {"ok": True, "result": {"pong": True}},
    ])
    sleeps: list[float] = []
    with make_client(server, sleep=sleeps.append) as client:
        assert client.ping() == {"pong": True}
    # Jitter ceiling is base_delay=0.001, so the hint must be the floor.
    assert sleeps == [pytest.approx(0.35)]
    assert len(server.requests) == 2


def test_full_jitter_backoff_without_hint(make_server):
    server = make_server([
        {"ok": False, "error": "busy", "error_code": "overloaded"},
        {"ok": False, "error": "busy", "error_code": "overloaded"},
        {"ok": True, "result": {}},
    ])
    sleeps: list[float] = []
    with make_client(server, base_delay=0.1, max_delay=0.15,
                     sleep=sleeps.append) as client:
        client.ping()
    assert len(sleeps) == 2
    assert 0.0 <= sleeps[0] <= 0.1          # uniform(0, base * 2**0)
    assert 0.0 <= sleeps[1] <= 0.15         # uniform(0, min(max, base * 2))


def test_non_retryable_code_raises_immediately(make_server):
    server = make_server([
        {"ok": False, "error": "draining", "error_code": "draining"},
    ])
    sleeps: list[float] = []
    with make_client(server, sleep=sleeps.append) as client:
        with pytest.raises(VxServeError) as caught:
            client.ping()
    assert caught.value.code == "draining"
    assert caught.value.attempts == 1
    assert sleeps == []                     # no backoff for final failures
    assert len(server.requests) == 1


def test_retries_exhausted_surface_last_rejection(make_server):
    rejection = {"ok": False, "error": "full", "error_code": "overloaded",
                 "retry_after_seconds": 0.01}
    server = make_server([dict(rejection) for _ in range(4)])
    with make_client(server, retries=3) as client:
        with pytest.raises(VxServeError) as caught:
            client.ping()
    assert caught.value.code == "overloaded"
    assert caught.value.attempts == 4       # 1 initial + 3 retries
    assert caught.value.retry_after_seconds == 0.01
    assert caught.value.response["error"] == "full"


# -- transport failures ---------------------------------------------------------


def test_reconnects_after_dropped_connection(make_server):
    server = make_server([DROP, {"ok": True, "result": {"pong": True}}])
    with make_client(server) as client:
        assert client.ping() == {"pong": True}
        assert client.reconnects == 1


def test_timeout_abandons_connection_and_retries(make_server):
    server = make_server([SILENT, {"ok": True, "result": {"pong": True}}])
    with make_client(server, timeout=0.2) as client:
        assert client.ping() == {"pong": True}
    assert len(server.requests) == 2


def test_all_attempts_time_out(make_server):
    server = make_server([SILENT, SILENT])
    with make_client(server, retries=1, timeout=0.1) as client:
        with pytest.raises(VxServeTimeout) as caught:
            client.ping()
    assert caught.value.attempts == 2


def test_unreachable_server_raises_connection_error(tmp_path):
    client = VxServeClient(str(tmp_path / "nowhere.sock"), retries=1,
                           base_delay=0.001, sleep=lambda _: None)
    with pytest.raises(VxServeConnectionError) as caught:
        client.ping()
    assert caught.value.attempts == 2


def test_invalid_configuration_rejected(tmp_path):
    with pytest.raises(ValueError):
        VxServeClient(str(tmp_path / "s.sock"), retries=-1)
    with pytest.raises(ValueError):
        VxServeClient(str(tmp_path / "s.sock"), base_delay=-0.1)


# -- end to end against the real service ---------------------------------------


@pytest.fixture()
def live_service(tmp_path_factory):
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    socket_path = str(tmp_path_factory.mktemp("client-e2e") / "vxserve.sock")
    server = threading.Thread(target=service.serve_socket, args=(socket_path,),
                              daemon=True)
    server.start()
    deadline = time.monotonic() + 10
    while not os.path.exists(socket_path):
        if time.monotonic() > deadline:
            raise AssertionError("socket never appeared")
        time.sleep(0.02)
    yield service, socket_path
    if not service.stopping:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as kick:
            kick.connect(socket_path)
            kick.sendall(b'{"op": "shutdown"}\n')
    server.join(timeout=10)
    service.close()


def test_end_to_end_extract_and_health(tmp_path, live_service):
    service, socket_path = live_service
    payloads = {f"doc{index}.txt": synthetic_log_bytes(700 + index * 70,
                                                       seed=index)
                for index in range(3)}
    archive = tmp_path / "e2e.zip"
    with vxa.create(archive) as builder:
        for name, data in payloads.items():
            builder.add(name, data, codec="vxz")

    dest = tmp_path / "out"
    with VxServeClient(socket_path, client_id="e2e", timeout=60) as client:
        listed = client.list(str(archive))
        assert {member["name"] for member in listed["members"]} \
            == set(payloads)
        result = client.extract(str(archive), str(dest), jobs=2, mode="vxa")
        assert {record["name"] for record in result["records"]} \
            == set(payloads)
        health = client.health()   # raises unless the response is ok
        assert health["draining"] is False
        stats = client.stats()
        assert stats["counters"]["requests_total"] >= 3
    for name, data in payloads.items():
        assert (dest / name).read_bytes() == data


def test_vxquery_cli_round_trip(capsys, live_service):
    _, socket_path = live_service
    assert vxquery_main(["--socket", socket_path, "ping"]) == 0
    output = json.loads(capsys.readouterr().out)
    assert output["pong"] is True


def test_vxquery_cli_reports_structured_failure(capsys, tmp_path):
    code = vxquery_main(["--socket", str(tmp_path / "missing.sock"),
                         "--retries", "0", "--timeout", "1", "ping"])
    assert code == 1
    detail = json.loads(capsys.readouterr().err)
    assert "error" in detail


def test_archive_damaged_is_final_not_retried(make_server):
    """Media damage is deterministic; the client must not burn retries on it."""
    from repro.client import RETRYABLE_CODES

    assert "archive_damaged" not in RETRYABLE_CODES
    server = make_server([
        {"ok": False, "error": "central directory does not match the "
                               "archive commit record",
         "error_type": "ZipFormatError", "error_code": "archive_damaged"},
    ])
    sleeps: list[float] = []
    with make_client(server, sleep=sleeps.append) as client:
        with pytest.raises(VxServeError) as caught:
            client.extract("/tmp/damaged.vxa", "/tmp/out")
    assert caught.value.code == "archive_damaged"
    assert caught.value.attempts == 1       # exactly one round trip
    assert sleeps == []                     # and no backoff
    assert len(server.requests) == 1
