"""Tests for admission control: the gate, the breaker and the service's table.

The gate and one breaker's state machine are exercised in isolation (the
breaker against an injected fake clock, the gate against real-but-short
waits).  Quotas and the per-archive breakers live in
:class:`~repro.parallel.service.BatchService`, beside its request table, so
they are driven through a real service whose archive work is a stub, and read back
through ``health`` and ``stats``; ``tests/test_serve_chaos.py`` drives the
same machinery end-to-end through the ``vxserve`` socket under load.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api.options import EXECUTOR_THREAD
from repro.client import RETRYABLE_CODES
from repro.parallel.admission import (
    AdmissionGate,
    CircuitBreaker,
    CircuitOpenError,
    OverloadedError,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    ServiceRejection,
)
from repro.parallel.service import BatchService


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- AdmissionGate -------------------------------------------------------------


def test_unbounded_gate_counts_but_never_sheds():
    gate = AdmissionGate(None)
    for _ in range(100):
        gate.admit()
    assert gate.snapshot()["inflight"] == 100
    assert gate.admitted == 100
    for _ in range(100):
        gate.release(0.01)
    assert gate.snapshot()["inflight"] == 0
    assert gate.completed == 100


def test_gate_sheds_beyond_cap_with_retry_hint():
    gate = AdmissionGate(2, queue_depth=0)
    gate.admit()
    gate.admit()
    with pytest.raises(OverloadedError) as caught:
        gate.admit()
    assert caught.value.code == "overloaded"
    assert caught.value.retryable is True
    assert caught.value.retry_after_seconds > 0
    assert gate.shed_total == 1
    gate.release()
    gate.admit()  # freed slot is usable again
    assert gate.admitted == 3


def test_gate_rejects_bad_configuration():
    with pytest.raises(ValueError):
        AdmissionGate(0)
    with pytest.raises(ValueError):
        AdmissionGate(1, queue_depth=-1)


def test_queued_request_is_granted_on_release():
    gate = AdmissionGate(1, queue_depth=1, queue_timeout=5.0)
    gate.admit()
    admitted = []

    def waiter():
        gate.admit()
        admitted.append(True)

    thread = threading.Thread(target=waiter)
    thread.start()
    wait_until(lambda: gate.snapshot()["queued_now"] == 1)
    assert not admitted
    gate.release(0.01)
    thread.join(timeout=5)
    assert admitted == [True]
    assert gate.queued == 1
    assert gate.shed_total == 0
    gate.release()


def test_queue_wait_times_out_as_overloaded():
    gate = AdmissionGate(1, queue_depth=1, queue_timeout=0.05)
    gate.admit()
    started = time.monotonic()
    with pytest.raises(OverloadedError):
        gate.admit()
    assert time.monotonic() - started >= 0.05
    assert gate.shed_total == 1
    assert gate.snapshot()["queued_now"] == 0  # the shed waiter left


def test_waiters_are_granted_in_arrival_order():
    gate = AdmissionGate(1, queue_depth=4, queue_timeout=5.0)
    gate.admit()
    order: list[str] = []

    def waiter(tag: str):
        gate.admit()
        order.append(tag)

    threads = []
    for count, tag in enumerate(("first", "second"), start=1):
        threads.append(threading.Thread(target=waiter, args=(tag,)))
        threads[-1].start()
        wait_until(lambda: gate.snapshot()["queued_now"] == count)
    gate.release()   # one slot: the earlier arrival must win it
    wait_until(lambda: order == ["first"])
    gate.release()   # now the later one gets its turn
    wait_until(lambda: order == ["first", "second"])
    for thread in threads:
        thread.join(timeout=5)
    gate.release()


def test_released_slot_goes_to_the_waiter_not_a_newcomer():
    """A slot freed while a request waits is handed over under the lock,
    so a request arriving after the release queues behind it."""
    gate = AdmissionGate(1, queue_depth=1, queue_timeout=0.5)
    gate.admit()
    admitted = []
    thread = threading.Thread(target=lambda: admitted.append(gate.admit()))
    thread.start()
    wait_until(lambda: gate.snapshot()["queued_now"] == 1)
    gate.release()
    snapshot = gate.snapshot()
    assert (snapshot["inflight"], snapshot["queued_now"]) == (1, 0)
    with pytest.raises(OverloadedError, match="no execution slot freed"):
        gate.admit()   # the newcomer queued, and nothing freed in time
    thread.join(timeout=5)
    assert admitted == [None]
    gate.release()
    assert gate.counters()["admitted_total"] == 2


def test_snapshot_reports_monotonic_counters_and_gauges():
    gate = AdmissionGate(2, queue_depth=3, queue_timeout=0.01)
    gate.admit()
    snapshot = gate.snapshot()
    assert snapshot["max_inflight"] == 2
    assert snapshot["inflight"] == 1
    assert gate.counters()["admitted_total"] == 1
    assert snapshot["peak_inflight"] == 1
    gate.release(0.2)
    assert gate.counters()["completed_total"] == 1
    assert gate.snapshot()["mean_request_seconds"] > 0


# -- CircuitBreaker ------------------------------------------------------------


def test_breaker_opens_after_threshold_and_reports_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=3, reset_timeout=10.0, clock=clock)
    for _ in range(2):
        breaker.check()
        breaker.record_failure()
    assert breaker.state == STATE_CLOSED
    breaker.check()
    breaker.record_failure()   # third consecutive failure trips it
    assert breaker.state == STATE_OPEN
    assert breaker.trips == 1
    clock.advance(4.0)
    with pytest.raises(CircuitOpenError) as caught:
        breaker.check()
    assert caught.value.code == "circuit_open"
    assert caught.value.retry_after_seconds == pytest.approx(6.0, abs=0.01)


def test_breaker_success_resets_consecutive_failures():
    breaker = CircuitBreaker(threshold=3, clock=FakeClock())
    for _ in range(2):
        breaker.check()
        breaker.record_failure()
    breaker.check()
    breaker.record_success()
    assert breaker.failures == 0
    for _ in range(2):
        breaker.check()
        breaker.record_failure()
    assert breaker.state == STATE_CLOSED  # the run restarted from zero


def test_breaker_half_open_probe_single_flight_and_close():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, reset_timeout=5.0, clock=clock)
    breaker.check()
    breaker.record_failure()
    assert breaker.state == STATE_OPEN
    clock.advance(5.0)
    breaker.check()            # cool-down over: this claims the probe slot
    assert breaker.state == STATE_HALF_OPEN
    with pytest.raises(CircuitOpenError):
        breaker.check()        # a second request mid-probe is refused
    breaker.record_success()   # probe healthy: breaker closes
    assert breaker.state == STATE_CLOSED
    breaker.check()            # and traffic flows again


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, reset_timeout=5.0, clock=clock)
    breaker.check()
    breaker.record_failure()
    clock.advance(5.0)
    breaker.check()
    breaker.record_failure()   # probe failed: back to open, cool-down restarts
    assert breaker.state == STATE_OPEN
    assert breaker.trips == 2
    with pytest.raises(CircuitOpenError):
        breaker.check()
    clock.advance(5.0)
    breaker.check()
    breaker.record_success()
    assert breaker.state == STATE_CLOSED




# -- The service's request table: quotas and per-archive breakers -------------


@pytest.fixture()
def make_service(monkeypatch):
    """Build thread-pool services whose ``check`` is a stub.

    The stub stands in for archive work: it waits on the request's ``hold``
    event when there is one, then raises if the request says ``fail``.
    """
    services: list[BatchService] = []

    def stub_check(request: dict) -> dict:
        if "hold" in request:
            assert request["hold"].wait(10), "held request never released"
        if request.get("fail"):
            raise RuntimeError("archive work failed")
        return {"checked": True}

    def make(**kwargs) -> BatchService:
        service = BatchService(jobs=1, executor=EXECUTOR_THREAD, **kwargs)
        services.append(service)
        monkeypatch.setattr(service, "_op_check", stub_check)
        return service

    yield make
    for service in services:
        service.close()


def health(service: BatchService) -> dict:
    return service.handle({"op": "health"})["result"]


def counters(service: BatchService) -> dict:
    return service.handle({"op": "stats"})["result"]["counters"]


def by_client(service: BatchService) -> dict:
    return health(service)["quotas"]["open_by_client"]


class Held:
    """One ``check`` request held in flight on its own thread."""

    def __init__(self, service: BatchService, client: str):
        self.release = threading.Event()
        self.response: dict | None = None
        request = {"op": "check", "archive": "held.zip", "client": client,
                   "hold": self.release}
        self.thread = threading.Thread(target=self._run,
                                       args=(service, request))
        self.thread.start()

    def _run(self, service: BatchService, request: dict) -> None:
        self.response = service.handle(request)

    def finish(self) -> dict:
        self.release.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        return self.response


def test_quota_caps_one_client_but_not_others(make_service):
    service = make_service(client_quota=2)
    alice = [Held(service, "alice") for _ in range(2)]
    wait_until(lambda: by_client(service) == {"alice": 2})
    refused = service.handle({"op": "check", "archive": "a.zip",
                              "client": "alice"})
    assert refused["error_code"] == "quota_exceeded"
    bob = Held(service, "bob")  # other clients unaffected
    wait_until(lambda: by_client(service) == {"alice": 2, "bob": 1})
    assert alice.pop(0).finish()["ok"]
    alice.append(Held(service, "alice"))  # freed capacity is reusable
    wait_until(lambda: by_client(service) == {"alice": 2, "bob": 1})
    assert counters(service)["quota_rejections_total"] == 1
    for held in alice + [bob]:
        assert held.finish()["ok"]
    assert by_client(service) == {}


def test_quota_disabled_still_tracks_gauges(make_service):
    service = make_service(client_quota=None)
    greedy = [Held(service, "greedy") for _ in range(10)]
    wait_until(lambda: by_client(service) == {"greedy": 10})
    for held in greedy:
        assert held.finish()["ok"]
    assert health(service)["quotas"] == {
        "per_client": None, "open_by_client": {}}
    assert counters(service)["quota_rejections_total"] == 0


def test_quota_and_table_stay_consistent_under_concurrent_clients(
        make_service, monkeypatch):
    """16 threads, 4 clients, quota 2: no client ever runs more than its
    quota, and every counter adds up once the table is empty again."""
    service = make_service(client_quota=2, max_inflight=4, queue_depth=64,
                           queue_timeout=10.0)
    running: dict[str, int] = {}
    peak: dict[str, int] = {}
    lock = threading.Lock()

    def counting_check(request: dict) -> dict:
        client = request["client"]
        with lock:
            running[client] = running.get(client, 0) + 1
            peak[client] = max(peak.get(client, 0), running[client])
        time.sleep(0.0005)
        with lock:
            running[client] -= 1
        return {"checked": True}

    monkeypatch.setattr(service, "_op_check", counting_check)
    codes: list[str] = []

    def client_loop(client: str) -> None:
        for _ in range(25):
            response = service.handle({"op": "check", "archive": "a.zip",
                                       "client": client})
            with lock:
                codes.append("ok" if response["ok"]
                             else response["error_code"])

    threads = [threading.Thread(target=client_loop, args=(f"c{index % 4}",))
               for index in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(codes) == 16 * 25
    assert set(codes) <= {"ok", "quota_exceeded"}
    assert max(peak.values()) <= 2
    after = counters(service)
    assert after["admitted_total"] == after["completed_total"] \
        == codes.count("ok")
    assert after["quota_rejections_total"] == codes.count("quota_exceeded")
    scrape = health(service)
    assert scrape["admission"]["peak_inflight"] <= 4
    assert scrape["open_requests"] == 0 and scrape["admission"]["inflight"] == 0
    assert scrape["quotas"]["open_by_client"] == {}


def test_board_keys_breakers_by_archive_and_sums_totals(make_service):
    """One breaker per archive path with a history, and ``stats`` sums them."""
    service = make_service(breaker_threshold=1, breaker_reset=9.0)
    poisoned = {"op": "check", "archive": "/tmp/poisoned.zip", "fail": True}
    failed = service.handle(poisoned)
    assert failed["ok"] is False and "error_code" not in failed
    refused = service.handle(poisoned)
    assert refused["error_code"] == "circuit_open"
    # Other archives unaffected.
    assert service.handle({"op": "check", "archive": "/tmp/healthy.zip"})["ok"]
    breakers = health(service)["breakers"]
    assert breakers["/tmp/poisoned.zip"]["state"] == STATE_OPEN
    assert 0 < breakers["/tmp/poisoned.zip"]["retry_after_seconds"] <= 9.0
    assert "/tmp/healthy.zip" not in breakers   # closed and failure-free
    totals = counters(service)
    assert totals["breaker_trips_total"] == 1
    assert totals["breaker_rejections_total"] == 1


def test_no_counter_falls_when_a_breaker_closes(make_service):
    """``stats`` counters are monotonic: an archive's breaker opening and
    then closing after its half-open probe lowers none of them."""
    service = make_service(breaker_threshold=1, breaker_reset=0.05)
    flaky = {"op": "check", "archive": "/tmp/flaky.zip"}
    assert service.handle({**flaky, "fail": True})["ok"] is False
    assert health(service)["breakers"]["/tmp/flaky.zip"]["state"] == STATE_OPEN
    before = counters(service)
    time.sleep(0.1)             # past the cool-down: the next request probes
    assert service.handle(flaky)["ok"]
    assert health(service)["breakers"]["/tmp/flaky.zip"]["state"] \
        == STATE_CLOSED
    after = counters(service)
    assert set(after) == set(before)
    assert {name: (before[name], after[name]) for name in before
            if after[name] < before[name]} == {}


def test_breakers_without_a_history_are_not_kept(make_service):
    """Requests that succeed, each naming an archive of its own, leave no
    breaker behind: the dict holds only archives that failed, tripped or
    were refused."""
    service = make_service(breaker_threshold=2)
    for index in range(20):
        assert service.handle({"op": "check", "archive": f"/tmp/a{index}.zip"})["ok"]
    assert health(service)["breakers"] == {}
    assert service.handle({"op": "check", "archive": "/tmp/a0.zip", "fail": True})["ok"] is False
    assert service.handle({"op": "check", "archive": "/tmp/a0.zip"})["ok"]
    assert health(service)["breakers"] == {}    # the success reset the only failure
    assert counters(service)["breaker_trips_total"] == 0


def test_board_disabled_passes_everything(make_service):
    service = make_service(breaker_threshold=0)
    for _ in range(3):
        failed = service.handle({"op": "check", "archive": "/tmp/any.zip",
                                 "fail": True})
        assert failed["ok"] is False and "error_code" not in failed
    assert health(service)["breakers"] == {}


def test_board_check_without_archive_is_a_no_op(make_service):
    service = make_service(breaker_threshold=1)
    for _ in range(2):
        failed = service.handle({"op": "check", "fail": True})
        assert failed["ok"] is False and "error_code" not in failed
    assert health(service)["breakers"] == {}


# -- Arguments and the two retryability declarations --------------------------


@pytest.mark.parametrize("arguments", [
    {"request_timeout": 0}, {"request_timeout": -1.0},
    {"max_request_bytes": 0}, {"max_request_bytes": -1},
    {"max_request_bytes": -5}, {"client_quota": 0},
], ids=lambda arguments: "=".join(map(str, *arguments.items())))
def test_service_refuses_arguments_that_would_break_it(arguments):
    """A zero timeout failed every extract (and tripped breakers); a
    request-line cap below 1 answered nothing, refused everything or
    silently lifted the cap."""
    with pytest.raises(ValueError):
        BatchService(jobs=1, executor=EXECUTOR_THREAD, **arguments)


def test_client_retries_exactly_the_refusals_the_server_marks_retryable():
    """``repro.client`` imports no server code, so it declares its own set."""
    def refusals(cls):
        for subclass in cls.__subclasses__():
            yield subclass
            yield from refusals(subclass)

    assert RETRYABLE_CODES == {refusal.code
                               for refusal in refusals(ServiceRejection)
                               if refusal.retryable}
