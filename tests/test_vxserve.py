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
    result = response["result"]
    assert result["requests"] == 3
    assert result["executor"] == EXECUTOR_THREAD
    assert result["session"]["decodes"] >= 10  # check + extract both decoded


def test_health_reports_pool_admission_and_breakers(service, archive_path):
    service.handle({"op": "check", "archive": str(archive_path)})
    response = service.handle({"id": 9, "op": "health"})
    assert response["ok"]
    result = response["result"]
    assert result["ok"] is True
    assert result["accepting"] is True and result["draining"] is False
    assert result["inflight"] == 0 and result["queue_depth"] == 0
    assert result["uptime_seconds"] >= 0
    assert result["admission"]["completed_total"] == 1
    assert result["pool"]["jobs"] == 2
    assert result["pool"]["executor"] == EXECUTOR_THREAD
    breaker = result["breakers"][str(archive_path)]
    assert breaker["state"] == "closed" and breaker["failures"] == 0


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
    assert documented == set(_OPTION_FIELDS) | {"jobs", "reuse", "members",
                                                "fault_plan"}


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
    assert responses[2]["result"]["requests"] == 3
