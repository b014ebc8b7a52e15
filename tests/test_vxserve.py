"""Tests for the ``vxserve`` batch service (:mod:`repro.parallel.service`).

Covers the request dispatcher in-process, the JSON-lines stream transport,
the unix-socket transport (with concurrent clients multiplexing onto the
shared pool), and a full subprocess round trip through ``python -m
repro.parallel.service`` -- the exact deployment shape.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.core.policy import VmReusePolicy
from repro.parallel.service import _OPTION_FIELDS, BatchService
from repro.workloads import synthetic_log_bytes

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def members() -> dict[str, bytes]:
    return {
        f"file{index}.txt": synthetic_log_bytes(800 + 90 * index, seed=index)
        for index in range(5)
    }


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, members) -> pathlib.Path:
    path = tmp_path_factory.mktemp("vxserve") / "served.zip"
    with vxa.create(path) as builder:
        for name, data in members.items():
            builder.add(name, data, codec="vxz")
    return path


@pytest.fixture()
def service() -> BatchService:
    instance = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    yield instance
    instance.close()


# -- dispatcher ----------------------------------------------------------------


def test_ping_echoes_id(service):
    response = service.handle({"id": 41, "op": "ping"})
    assert response == {"id": 41, "ok": True, "result": response["result"]}
    assert response["result"]["pong"] is True


def test_list_members(service, archive_path, members):
    response = service.handle({"op": "list", "archive": str(archive_path)})
    assert response["ok"]
    listed = {member["name"]: member for member in response["result"]["members"]}
    assert set(listed) == set(members)
    assert all(member["has_decoder"] for member in listed.values())


def test_extract_request(tmp_path, service, archive_path, members):
    dest = tmp_path / "served-out"
    response = service.handle({
        "id": 1, "op": "extract", "archive": str(archive_path),
        "dest": str(dest), "mode": "vxa", "jobs": 2,
    })
    assert response["ok"], response
    result = response["result"]
    assert {record["name"] for record in result["records"]} == set(members)
    for name, data in members.items():
        assert (dest / name).read_bytes() == data
    assert result["stats"]["decodes"] == len(members)
    assert result["elapsed_seconds"] >= 0


def test_extract_subset_and_member_validation(tmp_path, service, archive_path):
    dest = tmp_path / "subset"
    response = service.handle({
        "op": "extract", "archive": str(archive_path), "dest": str(dest),
        "members": ["file0.txt"], "mode": "vxa",
    })
    assert response["ok"]
    assert [record["name"] for record in response["result"]["records"]] \
        == ["file0.txt"]
    escape = service.handle({
        "op": "extract", "archive": str(archive_path), "dest": str(dest),
        "members": ["../evil.txt"],
    })
    assert not escape["ok"]
    assert escape["error_type"] == "PathTraversalError"
    # An explicit empty selection extracts nothing (it is not "everything").
    empty = service.handle({
        "op": "extract", "archive": str(archive_path), "dest": str(dest),
        "members": [],
    })
    assert empty["ok"] and empty["result"]["records"] == []


def test_check_request(service, archive_path, members):
    response = service.handle({
        "op": "check", "archive": str(archive_path), "jobs": 2,
        "reuse": VmReusePolicy.REUSE_SAME_ATTRIBUTES.value,
        "priority": "urgent",   # no longer a field: ignored like any other
    })
    assert response["ok"], response
    result = response["result"]
    assert result["ok"] is True
    assert result["checked"] == result["passed"] == len(members)
    assert result["failures"] == []


def test_stats_accumulate_across_requests(tmp_path, service, archive_path):
    service.handle({"op": "check", "archive": str(archive_path)})
    service.handle({"op": "extract", "archive": str(archive_path),
                    "dest": str(tmp_path / "o"), "mode": "vxa"})
    response = service.handle({"op": "stats"})
    assert response["ok"]
    counters = response["result"]["counters"]
    assert counters["requests_total"] == 3
    health = service.handle({"op": "health"})["result"]
    assert health["pool"]["executor"] == EXECUTOR_THREAD
    assert counters["session_decodes_total"] >= 10  # check + extract decoded


def test_health_reports_pool_admission_and_breakers(service, archive_path):
    service.handle({"op": "check", "archive": str(archive_path)})
    response = service.handle({"id": 9, "op": "health"})
    assert response["ok"] is True and response["id"] == 9
    result = response["result"]
    assert "ok" not in result  # the response's own ``ok`` says it
    assert result["draining"] is False and result["stopping"] is False
    assert result["open_requests"] == 0
    assert result["admission"]["queued_now"] == 0
    assert result["uptime_seconds"] >= 0
    assert result["admission"]["inflight"] == 0
    counters = service.handle({"op": "stats"})["result"]["counters"]
    assert counters["completed_total"] == 1
    assert result["pool"]["jobs"] == 2
    assert result["pool"]["executor"] == EXECUTOR_THREAD
    # A breaker with no history is not kept: the archive served is not listed.
    assert str(archive_path) not in result["breakers"]


def test_stats_counters_are_monotonic(tmp_path, service, archive_path):
    """The ``counters`` block must only ever increase -- it is scraped as
    Prometheus-style counter series."""
    def scrape() -> dict:
        return service.handle({"op": "stats"})["result"]["counters"]

    before = scrape()
    service.handle({"op": "check", "archive": str(archive_path)})
    service.handle({"op": "extract", "archive": str(archive_path),
                    "dest": str(tmp_path / "mono"), "mode": "vxa"})
    after = scrape()
    assert set(before) == set(after)
    for name, value in after.items():
        assert value >= before[name], name
    assert after["requests_total"] >= before["requests_total"] + 2
    assert after["admitted_total"] == before["admitted_total"] + 2
    assert after["completed_total"] == before["completed_total"] + 2
    assert after["session_decodes_total"] > before["session_decodes_total"]


def test_wire_shape_of_health_and_stats(tmp_path, archive_path, members):
    """Every key ``health`` and ``stats`` put on the wire, pinned after one
    extract, one check, one quota refusal and one breaker trip."""
    # Every member read sleeps 0.2 s, so a check holds its quota slot long
    # enough to be refused a second one.
    slow_reads = vxa.FaultPlan([vxa.FaultSpec(name, "delay-io", delay=0.2)
                                for name in members])
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD, client_quota=1,
                           breaker_threshold=1, options=vxa.ReadOptions(
                               reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES,
                               fault_plan=slow_reads))
    try:
        def health() -> dict:
            return service.handle({"op": "health"})["result"]

        assert service.handle({
            "op": "extract", "archive": str(archive_path), "mode": "vxa",
            "dest": str(tmp_path / "shape")})["ok"]
        assert service.handle({"op": "check",
                               "archive": str(archive_path)})["ok"]
        # The quota refusal: "greedy" holds its one slot with a slow check.
        slow = {"op": "check", "archive": str(archive_path), "client": "greedy"}
        holder = threading.Thread(target=service.handle, args=(slow,))
        holder.start()
        deadline = time.monotonic() + 30
        while health()["quotas"]["open_by_client"] != {"greedy": 1}:
            assert time.monotonic() < deadline, "slow check never registered"
            time.sleep(0.005)
        refused = service.handle({"op": "check", "archive": str(archive_path),
                                  "client": "greedy"})
        assert refused["error_code"] == "quota_exceeded"
        holder.join(timeout=60)
        assert not holder.is_alive()
        # The breaker trip: one failure opens it (threshold 1), the next
        # request for that archive is refused.
        missing = str(tmp_path / "missing.zip")
        failed = service.handle({"op": "check", "archive": missing})
        assert failed["ok"] is False and "error_code" not in failed
        tripped = service.handle({"op": "check", "archive": missing})
        assert tripped["error_code"] == "circuit_open"
        scrape = health()
        stats = service.handle({"op": "stats"})["result"]
    finally:
        service.close()

    assert set(scrape) == {
        "draining", "stopping", "uptime_seconds", "open_requests",
        "oldest_request_seconds", "admission", "quotas", "breakers", "pool"}
    assert set(scrape["pool"]) == {"jobs", "executor", "workers_alive"}
    assert set(scrape["admission"]) == {
        "max_inflight", "queue_depth", "queue_timeout", "inflight",
        "queued_now", "mean_request_seconds", "peak_inflight", "peak_queue"}
    assert scrape["quotas"] == {"per_client": 1, "open_by_client": {}}
    assert scrape["open_requests"] == 0
    assert scrape["oldest_request_seconds"] == 0.0
    assert set(scrape["breakers"]) == {missing}     # the served one has no history
    opened = scrape["breakers"][missing]
    assert set(opened) == {"state", "failures", "trips_total",
                           "rejections_total", "retry_after_seconds"}
    assert (opened["state"], opened["failures"], opened["trips_total"],
            opened["rejections_total"]) == ("open", 1, 1, 1)
    assert opened["retry_after_seconds"] > 0
    assert set(stats) == {"counters"}
    counters = stats["counters"]
    assert set(counters) == {
        "requests_total", "admitted_total", "completed_total",
        "queued_total", "shed_overloaded_total", "quota_rejections_total",
        "rejected_draining_total", "oversized_requests_total",
        "watchdog_overruns_total", "pool_respawns_total",
        "breaker_trips_total", "breaker_rejections_total"} | {
        f"session_{name}_total" for name in vxa.SessionStats().as_dict()}
    # The circuit_open refusal passed the gate, so it counts as admitted and
    # completed; the quota refusal never reached the gate.
    assert counters["admitted_total"] == counters["completed_total"] == 5
    assert (counters["quota_rejections_total"],
            counters["breaker_trips_total"],
            counters["breaker_rejections_total"]) == (1, 1, 1)


def test_uptime_uses_monotonic_clock(service, monkeypatch):
    """A wall-clock step (NTP, DST) must not corrupt uptime."""
    import time as time_module
    first = service.handle({"op": "ping"})["result"]["uptime_seconds"]
    monkeypatch.setattr(time_module, "time", lambda: 0.0)  # wall clock rewinds
    second = service.handle({"op": "ping"})["result"]["uptime_seconds"]
    assert second >= first >= 0


def test_rewritten_archive_is_not_served_stale(tmp_path, service):
    """Replacing an archive at the same path must invalidate worker caches."""
    path = tmp_path / "mutable.zip"
    for round_index in range(2):
        payloads = {f"part{part}.txt": f"round {round_index} part {part} ".encode() * 90
                    for part in range(2)}   # two members -> real worker shards
        with vxa.create(path) as builder:
            for name, payload in payloads.items():
                builder.add(name, payload, codec="vxz")
        response = service.handle({
            "op": "extract", "archive": str(path), "jobs": 2,
            "dest": str(tmp_path / f"round{round_index}"), "mode": "vxa",
        })
        assert response["ok"], response
        for name, payload in payloads.items():
            extracted = (tmp_path / f"round{round_index}" / name).read_bytes()
            assert extracted == payload, "worker served a stale cached archive"


def test_no_archive_handle_outlives_its_request(tmp_path, members):
    """Workers keep no archive open between shards, so once a request has
    been answered nothing in the process holds its archive."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    path = tmp_path / "held.zip"
    with vxa.create(path) as builder:
        for name, data in members.items():
            builder.add(name, data, codec="vxz")
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    try:
        assert service.handle({
            "op": "extract", "archive": str(path), "jobs": 2, "mode": "vxa",
            "dest": str(tmp_path / "out")})["ok"]
        assert service.handle({"op": "check", "archive": str(path)})["ok"]
        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target == os.path.realpath(path):
                held.append(fd)
        assert held == []
    finally:
        service.close()


def test_a_fault_plan_on_the_wire_is_refused(tmp_path, service, archive_path,
                                             members):
    kill = {"specs": [{"member": name, "kind": "kill-worker"}
                      for name in members]}
    for op in ("extract", "check"):
        response = service.handle({
            "op": op, "archive": str(archive_path), "fault_plan": kill,
            "dest": str(tmp_path / "refused")})
        assert response["ok"] is False
        assert response["error_code"] == "fault_plan_refused"
        assert response["error_type"] == "FaultPlanRefusedError"
        assert "retry_after_seconds" not in response
    assert not (tmp_path / "refused").exists()
    counters = service.handle({"op": "stats"})["result"]["counters"]
    assert counters["admitted_total"] == 0
    assert counters["session_decodes_total"] == 0
    # A refusal is not an archive failure: the breaker did not count it.
    assert service.handle({"op": "health"})["result"]["breakers"] == {}


def test_errors_are_responses_not_crashes(service):
    missing = service.handle({"op": "extract", "archive": "/nonexistent.zip",
                              "dest": "/tmp/x"})
    assert not missing["ok"] and missing["error_type"]
    unknown = service.handle({"op": "frobnicate"})
    assert not unknown["ok"] and "unknown op" in unknown["error"]
    not_object = service.handle(["not", "a", "dict"])
    assert not not_object["ok"]


def test_shutdown_sets_stopping(service):
    assert not service.stopping
    response = service.handle({"op": "shutdown"})
    assert response["ok"] and response["result"]["stopping"]
    assert service.stopping


def test_default_options_are_reusing():
    service = BatchService(jobs=1, executor=EXECUTOR_THREAD)
    try:
        assert service.options.reuse is VmReusePolicy.REUSE_SAME_ATTRIBUTES
    finally:
        service.close()


def test_protocol_document_lists_exactly_the_fields_a_request_may_set():
    text = (pathlib.Path(__file__).resolve().parent.parent
            / "docs" / "vxserve-protocol.md").read_text(encoding="utf-8")
    section = text.split("### Per-request options", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)`", section, flags=re.M))
    assert documented == set(_OPTION_FIELDS) | {"jobs", "reuse", "members"}


# -- stream transport ----------------------------------------------------------


def test_serve_stream_json_lines(service, archive_path):
    requests = "\n".join([
        json.dumps({"id": 1, "op": "ping"}),
        "this is not json",
        json.dumps({"id": 2, "op": "list", "archive": str(archive_path)}),
        json.dumps({"id": 3, "op": "shutdown"}),
        json.dumps({"id": 4, "op": "ping"}),   # after shutdown: never served
    ]) + "\n"
    out = io.StringIO()
    service.serve_stream(io.StringIO(requests), out)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [response.get("id") for response in responses] == [1, None, 2, 3]
    assert responses[0]["ok"] and not responses[1]["ok"]
    assert responses[1]["error_type"] == "JSONDecodeError"
    assert responses[3]["result"]["stopping"] is True


# -- unix socket transport -----------------------------------------------------


def _socket_request(path: str, request: dict) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.connect(path)
        client.sendall((json.dumps(request) + "\n").encode())
        client.shutdown(socket.SHUT_WR)
        data = b""
        while not data.endswith(b"\n"):
            chunk = client.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


def test_unix_socket_serves_concurrent_clients(tmp_path, service, archive_path,
                                               members):
    socket_path = str(tmp_path / "vxserve.sock")
    server = threading.Thread(target=service.serve_socket, args=(socket_path,),
                              daemon=True)
    server.start()
    deadline = 100
    while not os.path.exists(socket_path) and deadline:
        deadline -= 1
        threading.Event().wait(0.05)
    assert os.path.exists(socket_path), "socket never appeared"

    results: dict[int, dict] = {}

    def client(index: int) -> None:
        results[index] = _socket_request(socket_path, {
            "id": index, "op": "extract", "archive": str(archive_path),
            "dest": str(tmp_path / f"client{index}"), "mode": "vxa", "jobs": 2,
        })

    clients = [threading.Thread(target=client, args=(index,))
               for index in range(3)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join(timeout=60)
    assert set(results) == {0, 1, 2}
    for index, response in results.items():
        assert response["ok"], response
        for name, data in members.items():
            assert (tmp_path / f"client{index}" / name).read_bytes() == data

    _socket_request(socket_path, {"op": "shutdown"})
    server.join(timeout=10)
    assert not server.is_alive()


def test_socket_path_appears_only_once_listening(tmp_path, service,
                                               monkeypatch):
    # A slow listen() widens the window between bind() and listen(): a
    # client that connects as soon as the path exists must still be served.
    import socketserver

    listen = socketserver.UnixStreamServer.server_activate

    def slow_listen(self):
        time.sleep(0.3)
        listen(self)

    monkeypatch.setattr(socketserver.UnixStreamServer, "server_activate",
                        slow_listen)
    socket_path = str(tmp_path / "vxserve.sock")
    server = threading.Thread(target=service.serve_socket, args=(socket_path,),
                              daemon=True)
    server.start()
    deadline = time.monotonic() + 10
    while not os.path.exists(socket_path):
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.001)
    assert _socket_request(socket_path, {"op": "ping"})["result"]["pong"]
    _socket_request(socket_path, {"op": "shutdown"})
    server.join(timeout=10)
    assert not server.is_alive()
    assert os.listdir(tmp_path) == []


def test_shutdown_from_a_peer_that_hangs_up_unread_stops_the_server(tmp_path, service):
    # The peer closes before the reply to its shutdown is written, so writing
    # it fails; the server stops all the same.
    socket_path = str(tmp_path / "vxserve.sock")
    server = threading.Thread(target=service.serve_socket, args=(socket_path,),
                              daemon=True)
    server.start()
    deadline = 100
    while not os.path.exists(socket_path) and deadline:
        deadline -= 1
        threading.Event().wait(0.05)
    assert os.path.exists(socket_path), "socket never appeared"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.connect(socket_path)
        client.sendall(b'{"op": "shutdown"}\n')
    server.join(timeout=2)
    assert not server.is_alive()


def test_a_peer_that_hangs_up_before_its_reply_leaves_no_traceback(
        tmp_path, archive_path, members, capfd):
    # Every member read sleeps 0.1 s, so the peer is long gone when the
    # reply to its check is written: the write fails, and that is the end of
    # the connection, not a traceback on the server's stderr.
    slow_reads = vxa.FaultPlan([vxa.FaultSpec(name, "delay-io", delay=0.1)
                                for name in members])
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD,
                           options=vxa.ReadOptions(fault_plan=slow_reads))
    socket_path = str(tmp_path / "vxserve.sock")
    server = threading.Thread(target=service.serve_socket, args=(socket_path,),
                              daemon=True)

    def handlers() -> list:
        return [thread for thread in threading.enumerate()
                if "process_request" in thread.name]

    try:
        server.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "socket never appeared"
            time.sleep(0.01)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(socket_path)
            client.sendall(json.dumps({"op": "check",
                                       "archive": str(archive_path)}).encode() + b"\n")
        deadline = time.monotonic() + 30
        while service.handle({"op": "stats"})["result"]["counters"]["completed_total"] < 1:
            assert time.monotonic() < deadline, "the check never completed"
            time.sleep(0.01)
        while handlers():
            assert time.monotonic() < deadline, "the connection never ended"
            time.sleep(0.01)
        assert _socket_request(socket_path, {"op": "shutdown"})["ok"]
        server.join(timeout=10)
        assert not server.is_alive()
    finally:
        service.close()
    assert "Traceback" not in capfd.readouterr().err


# -- subprocess round trip -----------------------------------------------------


def test_subprocess_stdio_round_trip(tmp_path, archive_path, members):
    requests = "\n".join([
        json.dumps({"id": 1, "op": "ping"}),
        json.dumps({"id": 2, "op": "extract", "archive": str(archive_path),
                    "dest": str(tmp_path / "sub"), "mode": "vxa", "jobs": 2}),
        json.dumps({"id": 3, "op": "stats"}),
        json.dumps({"id": 4, "op": "shutdown"}),
    ]) + "\n"
    environment = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.parallel.service",
         "--jobs", "2", "--executor", "thread"],
        input=requests, capture_output=True, text=True, timeout=120,
        env=environment,
    )
    assert completed.returncode == 0, completed.stderr
    responses = [json.loads(line) for line in completed.stdout.splitlines()]
    assert [response["id"] for response in responses] == [1, 2, 3, 4]
    assert all(response["ok"] for response in responses), responses
    for name, data in members.items():
        assert (tmp_path / "sub" / name).read_bytes() == data
    assert responses[2]["result"]["counters"]["requests_total"] == 3
