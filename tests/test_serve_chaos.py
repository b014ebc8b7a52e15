"""Service-level chaos tests for overload-safe ``vxserve``.

The acceptance drills for the admission layer: exact load shedding under a
full gate, retrying clients riding out the overload, kill-worker/delay-io
faults firing while concurrent clients hammer the service, circuit breakers
opening for a poisoned archive and half-open probes closing them again,
drain/shutdown races, and the bounded request-line buffer.  Everything runs
over the real unix-socket transport against a real :class:`BatchService`
(thread executor: CI-safe, and the fault hooks simulate worker death
in-process).  The wire refuses fault plans, so each drill installs its plan
on the service's default ``ReadOptions``, one service per plan.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import socket
import threading
import time

import pytest

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.client import VxServeClient
from repro.core.policy import VmReusePolicy
from repro.parallel.service import BatchService
from repro.workloads import synthetic_log_bytes


def wait_until(predicate, timeout: float = 20.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


def delays(members, delay: float) -> list[vxa.FaultSpec]:
    """Fault specs sleeping ``delay`` before each member is read."""
    return [vxa.FaultSpec(name, "delay-io", delay=delay) for name in members]


def faulty(specs) -> vxa.ReadOptions:
    """The service's default ReadOptions with ``specs`` installed."""
    return vxa.ReadOptions(reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES,
                           fault_plan=vxa.FaultPlan(specs))


class RawConnection:
    """One persistent JSON-lines connection, no retries, no sugar."""

    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(60)
        self._sock.connect(path)
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def request(self, payload: dict) -> dict:
        self.send_bytes((json.dumps(payload) + "\n").encode())
        return self.read_response()

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(data)

    def read_response(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise AssertionError("server dropped the connection")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def one_shot(path: str, payload: dict) -> dict:
    with RawConnection(path) as connection:
        return connection.request(payload)


@pytest.fixture(scope="module")
def members() -> dict[str, bytes]:
    return {
        f"chaos{index}.txt": synthetic_log_bytes(700 + 80 * index, seed=index)
        for index in range(5)
    }


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, members) -> pathlib.Path:
    path = tmp_path_factory.mktemp("chaos") / "load.zip"
    with vxa.create(path) as builder:
        for name, data in members.items():
            builder.add(name, data, codec="vxz")
    return path


@pytest.fixture()
def serve(tmp_path):
    """Factory: start a BatchService on a unix socket, tear it down after."""
    started: list[tuple[BatchService, threading.Thread]] = []

    def factory(**service_kwargs) -> tuple[BatchService, str]:
        service_kwargs.setdefault("jobs", 2)
        service_kwargs.setdefault("executor", EXECUTOR_THREAD)
        service = BatchService(**service_kwargs)
        socket_path = str(tmp_path / f"chaos{len(started)}.sock")
        thread = threading.Thread(target=service.serve_socket,
                                  args=(socket_path,), daemon=True)
        thread.start()
        wait_until(lambda: os.path.exists(socket_path), timeout=10)
        started.append((service, thread))
        return service, socket_path

    yield factory
    for service, thread in started:
        service._stopping.set()
        thread.join(timeout=1)  # serve_forever poll notices stopping via...
        service.close()


def _assert_extracted(dest: pathlib.Path, members: dict[str, bytes]) -> None:
    for name, data in members.items():
        assert (dest / name).read_bytes() == data, name


# -- overload exactness ---------------------------------------------------------


def test_overload_sheds_exactly_k_and_admits_n(tmp_path, serve, archive_path,
                                               members):
    """With ``max_inflight=N`` and no queue, N+K concurrent extracts yield
    exactly K structured ``overloaded`` rejections, zero dropped
    connections, and the N admitted extractions stay byte-identical."""
    capacity, extra = 2, 3
    service, socket_path = serve(max_inflight=capacity, queue_depth=0,
                                 options=faulty(delays(members, 0.5)))

    holder_responses: dict[int, dict] = {}

    def holder(index: int) -> None:
        holder_responses[index] = one_shot(socket_path, {
            "id": index, "op": "extract", "archive": str(archive_path),
            "dest": str(tmp_path / f"holder{index}"), "mode": "vxa",
        })

    holders = [threading.Thread(target=holder, args=(index,))
               for index in range(capacity)]
    for thread in holders:
        thread.start()
    wait_until(
        lambda: one_shot(socket_path,
                         {"op": "health"})["result"]["admission"]["inflight"]
        == capacity)

    # The gate is full: every further archive op is shed, structurally.
    rejections = [one_shot(socket_path, {
        "id": 100 + index, "op": "extract", "archive": str(archive_path),
        "dest": str(tmp_path / f"shed{index}"),
    }) for index in range(extra)]
    for response in rejections:
        assert response["ok"] is False
        assert response["error_code"] == "overloaded"
        assert response["error_type"] == "OverloadedError"
        assert response["retry_after_seconds"] > 0

    for thread in holders:
        thread.join(timeout=60)
    for index, response in holder_responses.items():
        assert response["ok"], response
        _assert_extracted(tmp_path / f"holder{index}", members)

    stats = one_shot(socket_path, {"op": "stats"})["result"]
    assert stats["counters"]["shed_overloaded_total"] == extra
    assert stats["counters"]["admitted_total"] == capacity
    assert stats["counters"]["completed_total"] == capacity

    # Phase two: the retrying client rides out the same overload, on a
    # service with shorter delays -- all N+K extracts complete even though
    # the gate still holds 2 slots.
    _, socket_path = serve(max_inflight=capacity, queue_depth=0,
                           options=faulty(delays(members, 0.05)))
    outcomes: dict[int, dict] = {}

    def retrying(index: int) -> None:
        with VxServeClient(socket_path, client_id=f"retry{index}",
                           retries=20, base_delay=0.02, max_delay=0.2,
                           timeout=60) as client:
            outcomes[index] = client.extract(
                str(archive_path), str(tmp_path / f"retry{index}"),
                mode="vxa")

    swarm = [threading.Thread(target=retrying, args=(index,))
             for index in range(capacity + extra)]
    for thread in swarm:
        thread.start()
    for thread in swarm:
        thread.join(timeout=120)
    assert set(outcomes) == set(range(capacity + extra))
    for index in outcomes:
        _assert_extracted(tmp_path / f"retry{index}", members)


def test_quota_sheds_per_client_over_socket(tmp_path, serve, archive_path,
                                            members):
    service, socket_path = serve(client_quota=1, max_inflight=8,
                                 options=faulty(delays(members, 0.4)))
    with RawConnection(socket_path) as holder:
        holder.send_bytes((json.dumps({
            "id": 1, "op": "extract", "archive": str(archive_path),
            "dest": str(tmp_path / "greedy1"), "client": "greedy",
        }) + "\n").encode())
        wait_until(lambda: one_shot(
            socket_path, {"op": "health"})["result"]["open_requests"] >= 1)
        over = one_shot(socket_path, {
            "op": "check", "archive": str(archive_path), "client": "greedy"})
        assert over["ok"] is False
        assert over["error_code"] == "quota_exceeded"
        assert over["retry_after_seconds"] > 0
        # A different client is not starved by greedy's quota.
        other = one_shot(socket_path, {
            "op": "check", "archive": str(archive_path), "client": "polite"})
        assert other["ok"], other
        first = holder.read_response()
        assert first["ok"], first
    _assert_extracted(tmp_path / "greedy1", members)


# -- chaos under load -----------------------------------------------------------


def test_chaos_under_load_breaker_opens_and_recovers(tmp_path, serve,
                                                     archive_path, members):
    """kill-worker + delay-io while 4 clients hammer: the service stays
    responsive, the poisoned archive's breaker opens, and a half-open probe
    closes it once the archive is healed (rewritten without the member that
    kills its worker)."""
    poison_member = "poison.txt"
    poison_path = tmp_path / "poison.zip"
    with vxa.create(poison_path) as builder:
        for name, data in {**members, poison_member: b"lethal\n" * 90}.items():
            builder.add(name, data, codec="vxz")
    service, socket_path = serve(
        max_inflight=8, breaker_threshold=2, breaker_reset=0.5,
        options=faulty([*delays(list(members)[:2], 0.05),
                        vxa.FaultSpec(poison_member, "kill-worker")]))

    stop = threading.Event()
    load_errors: list[str] = []
    load_ok = [0] * 4

    def hammer(index: int) -> None:
        with VxServeClient(socket_path, client_id=f"load{index}",
                           retries=20, base_delay=0.02, max_delay=0.2,
                           timeout=60) as client:
            while not stop.is_set():
                try:
                    result = client.check(str(archive_path))
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    load_errors.append(f"load{index}: {error!r}")
                    return
                if not result["ok"]:
                    load_errors.append(f"load{index}: check failed {result}")
                    return
                load_ok[index] += 1

    load = [threading.Thread(target=hammer, args=(index,)) for index in range(4)]
    for thread in load:
        thread.start()
    try:
        wait_until(lambda: sum(load_ok) >= 2)

        # Two poisoned extracts (worker killed mid-member) trip the breaker.
        for attempt in range(2):
            response = one_shot(socket_path, {
                "op": "extract", "archive": str(poison_path),
                "dest": str(tmp_path / f"poison{attempt}"),
            })
            assert response["ok"] is False
            assert "error_code" not in response  # a real failure, not a shed

        tripped = one_shot(socket_path, {
            "op": "extract", "archive": str(poison_path),
            "dest": str(tmp_path / "poison-tripped"),
        })
        assert tripped["ok"] is False
        assert tripped["error_code"] == "circuit_open"
        assert tripped["retry_after_seconds"] > 0

        # Under all of that, control ops still answer promptly.
        started = time.monotonic()
        response = one_shot(socket_path, {"op": "health"})
        assert time.monotonic() - started < 10
        health = response["result"]
        assert response["ok"] is True and health["draining"] is False
        assert health["breakers"][str(poison_path)]["state"] == "open"

        # Heal: rewrite the archive without its poisonous member; after the
        # cool-down a request is let through as the half-open probe,
        # succeeds, and closes the breaker.
        shutil.copyfile(archive_path, poison_path)
        time.sleep(0.7)
        probe = one_shot(socket_path, {
            "op": "extract", "archive": str(poison_path),
            "dest": str(tmp_path / "healed"),
        })
        assert probe["ok"], probe
        healed = one_shot(socket_path, {"op": "health"})["result"]
        assert healed["breakers"][str(poison_path)]["state"] == "closed"
    finally:
        stop.set()
        for thread in load:
            thread.join(timeout=60)

    assert load_errors == []
    assert all(count > 0 for count in load_ok), load_ok
    _assert_extracted(tmp_path / "healed", members)
    counters = one_shot(socket_path, {"op": "stats"})["result"]["counters"]
    assert counters["breaker_trips_total"] >= 1
    assert counters["breaker_rejections_total"] >= 1


# -- drain / shutdown races -----------------------------------------------------


def test_concurrent_drain_inflight_and_new_submissions(tmp_path, archive_path,
                                                       members):
    """Drain racing an in-flight extract and fresh submissions: the extract
    finishes intact, both drains complete (idempotent), and every late
    submission gets a structured ``draining`` rejection -- zero responses
    lost, zero crashes."""
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD,
                           options=faulty(delays(members, 0.3)))
    try:
        responses: dict[str, dict] = {}

        def inflight_extract() -> None:
            responses["extract"] = service.handle({
                "op": "extract", "archive": str(archive_path),
                "dest": str(tmp_path / "inflight"), "mode": "vxa",
            })

        def drainer(tag: str) -> None:
            responses[tag] = service.handle({"op": "drain"})

        extract = threading.Thread(target=inflight_extract)
        extract.start()
        wait_until(
            lambda: service.handle({"op": "health"})["result"]["open_requests"]
            >= 1)

        drains = [threading.Thread(target=drainer, args=(f"drain{index}",))
                  for index in range(2)]
        for thread in drains:
            thread.start()
        wait_until(
            lambda: service.handle({"op": "health"})["result"]["draining"])

        submissions = [service.handle({
            "id": index, "op": "check", "archive": str(archive_path),
        }) for index in range(3)]

        extract.join(timeout=60)
        for thread in drains:
            thread.join(timeout=60)

        assert responses["extract"]["ok"], responses["extract"]
        _assert_extracted(tmp_path / "inflight", members)
        for tag in ("drain0", "drain1"):
            assert responses[tag]["ok"]
            assert responses[tag]["result"]["draining"] is True
            assert responses[tag]["result"]["drained"] is True
            assert responses[tag]["result"]["open_requests"] == 0
        for response in submissions:
            assert response["ok"] is False
            assert response["error_code"] == "draining"
            assert response["error_type"] == "DrainingError"

        # Drain after drain is a cheap no-op, and control ops still serve.
        again = service.handle({"op": "drain"})
        assert again["ok"] and again["result"]["drained"] is True
        assert service.handle({"op": "ping"})["ok"]
        stats = service.handle({"op": "stats"})["result"]
        assert stats["counters"]["rejected_draining_total"] == 3
    finally:
        service.close()


def test_drain_waits_for_queued_but_unadmitted_work(tmp_path, serve,
                                                    archive_path, members):
    """A request waiting in the admission queue is in-flight for drain
    purposes: drain must wait for it, not strand it."""
    service, socket_path = serve(max_inflight=1, queue_depth=2,
                                 queue_timeout=30.0,
                                 options=faulty(delays(members, 0.3)))
    responses: dict[str, dict] = {}

    def submit(tag: str) -> None:
        responses[tag] = one_shot(socket_path, {
            "op": "extract", "archive": str(archive_path),
            "dest": str(tmp_path / tag), "mode": "vxa",
        })

    first = threading.Thread(target=submit, args=("first",))
    first.start()
    wait_until(lambda: one_shot(
        socket_path, {"op": "health"})["result"]["admission"]["inflight"] == 1)
    queued = threading.Thread(target=submit, args=("queued",))
    queued.start()
    wait_until(lambda: one_shot(
        socket_path, {"op": "health"})["result"]["admission"]["queued_now"] == 1)

    drained = one_shot(socket_path, {"op": "drain"})
    first.join(timeout=60)
    queued.join(timeout=60)
    assert drained["ok"] and drained["result"]["drained"] is True
    assert responses["first"]["ok"], responses["first"]
    assert responses["queued"]["ok"], responses["queued"]
    _assert_extracted(tmp_path / "first", members)
    _assert_extracted(tmp_path / "queued", members)


# -- bounded request lines ------------------------------------------------------


def test_oversized_request_line_is_rejected_not_buffered(serve, archive_path):
    service, socket_path = serve(max_request_bytes=1024)
    with RawConnection(socket_path) as connection:
        padding = "x" * 4096
        connection.send_bytes((json.dumps(
            {"id": 7, "op": "ping", "padding": padding}) + "\n").encode())
        response = connection.read_response()
        assert response["ok"] is False
        assert response["error_code"] == "request_too_large"
        assert response["error_type"] == "RequestTooLargeError"
        # The connection survives and the stream stays in sync.
        follow_up = connection.request({"id": 8, "op": "ping"})
        assert follow_up["ok"] and follow_up["id"] == 8
        assert follow_up["result"]["pong"] is True
    stats = one_shot(socket_path, {"op": "stats"})["result"]
    assert stats["counters"]["oversized_requests_total"] == 1


def test_oversized_line_without_newline_then_eof(serve):
    """A peer that sends a giant line and hangs up mid-line must not wedge
    the reader thread or crash the service."""
    service, socket_path = serve(max_request_bytes=512)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as abuser:
        abuser.connect(socket_path)
        abuser.sendall(b"y" * 2048)     # no newline, then EOF
        abuser.shutdown(socket.SHUT_WR)
        data = abuser.recv(65536)
    response = json.loads(data)
    assert response["ok"] is False
    assert response["error_code"] == "request_too_large"
    # The service is still fully alive for the next client.
    assert one_shot(socket_path, {"op": "ping"})["ok"]


# -- media damage over the socket -------------------------------------------------


def test_damaged_archive_yields_structured_failures_not_crashes(
        tmp_path, serve, archive_path, members):
    """A damaged archive never kills a worker or wedges the service.

    Salvage mode returns per-member structured failures with the healthy
    members extracted; reject mode returns ``error_code="archive_damaged"``
    (which the client treats as final, not retryable).  Either way the
    service keeps answering afterwards.
    """
    from repro.faults.media import flip_bytes
    from repro.zipformat.reader import ZipReader

    data = archive_path.read_bytes()
    reader = ZipReader(data)
    victim = next(entry for entry in reader.entries
                  if entry.name == "chaos2.txt")
    start, size = reader.member_extent(victim)
    damaged = tmp_path / "damaged.zip"
    damaged.write_bytes(flip_bytes(data, start + size - 16, 8, seed=5))

    service, socket_path = serve(jobs=2)
    dest = tmp_path / "salvage-out"
    response = one_shot(socket_path, {
        "id": 1, "op": "extract", "archive": str(damaged),
        "dest": str(dest), "on_damage": "salvage",
    })
    assert response["ok"], response
    assert [f["name"] for f in response["result"]["failures"]] == ["chaos2.txt"]
    survivors = {r["name"] for r in response["result"]["records"]}
    assert survivors == set(members) - {"chaos2.txt"}
    for name in survivors:
        assert (dest / name).read_bytes() == members[name]
    assert response["result"]["stats"]["members_salvaged"] >= 1

    rejected = one_shot(socket_path, {
        "id": 2, "op": "extract", "archive": str(damaged),
        "dest": str(tmp_path / "reject-out"),
    })
    assert not rejected["ok"]
    assert rejected["error_code"] == "archive_damaged"

    # The worker pool survived both; a clean archive still extracts.
    after = one_shot(socket_path, {
        "id": 3, "op": "extract", "archive": str(archive_path),
        "dest": str(tmp_path / "after-out"),
    })
    assert after["ok"], after
    assert not after["result"]["failures"]
    _assert_extracted(tmp_path / "after-out", members)


def test_torn_archive_rejected_with_archive_damaged_code(tmp_path, serve,
                                                         archive_path):
    from repro.faults.media import truncate_tail

    torn = tmp_path / "torn.zip"
    torn.write_bytes(truncate_tail(archive_path.read_bytes(), 200))
    service, socket_path = serve(jobs=2)
    response = one_shot(socket_path, {
        "id": 1, "op": "extract", "archive": str(torn),
        "dest": str(tmp_path / "out"),
    })
    assert not response["ok"]
    assert response["error_code"] == "archive_damaged"
    assert one_shot(socket_path, {"id": 2, "op": "ping"})["ok"]
