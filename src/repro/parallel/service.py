"""``vxserve`` -- a long-running batch extraction/verification service.

The ROADMAP's "archive server" workload: one resident process that accepts
extract/check requests against many archives and multiplexes them onto a
single shared :class:`~repro.parallel.pool.WorkerPool`.  Because the pool
(and therefore each worker's :mod:`~repro.parallel.worker` state) outlives
any one request, a worker that has already served an archive keeps its
:class:`~repro.api.session.DecoderSession` for the next request, and every
decoder image's analysis report and translated code are kept once per process
by image digest (:mod:`repro.vm.images`): warm for every worker thread, every
archive carrying that decoder and every fresh ``check`` session, under every
reuse policy.  No knob is needed to keep that state bounded over an unbounded
request stream: the registry bounds the images it remembers, and no request
field reaches a translator switch, so an image has at most two fragment
tables (guards elided or kept), each bounded by ``max_fragments``.

The service is overload-safe (see :mod:`repro.parallel.admission`): a
bounded admission gate (``--max-inflight``/``--queue-depth``) queues
briefly under pressure and then *sheds* load with a structured
``overloaded`` error carrying a ``retry_after_seconds`` hint; per-client
quotas (``--client-quota``) and two request priorities
(``interactive``/``batch``) keep any one client or bulk job from starving
the rest; and a per-archive circuit breaker (``--breaker-threshold``/
``--breaker-reset``) refuses requests for an archive that keeps failing
until a half-open probe proves it healthy again.  Rejections are always
structured responses, never dropped connections, and shed requests run no
guest work -- admitted extractions stay byte-identical to a serial run.

Protocol: JSON lines (full specification: ``docs/vxserve-protocol.md``).
One request object per line on stdin (or a unix socket connection with
``--socket``), one response object per line out::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "list",    "archive": "backup.zip"}
    {"id": 3, "op": "extract", "archive": "backup.zip", "dest": "out",
     "members": ["a.txt"], "mode": "vxa", "jobs": 4,
     "client": "ci-bot", "priority": "batch"}
    {"id": 4, "op": "check",   "archive": "backup.zip",
     "reuse": "reuse-same-attributes"}
    {"id": 5, "op": "health"}
    {"id": 6, "op": "stats"}
    {"id": 7, "op": "shutdown"}

Responses echo the ``id``: ``{"id": 3, "ok": true, "result": {...}}`` on
success, ``{"id": 3, "ok": false, "error": "...", "error_type": "..."}`` on
failure; structured refusals additionally carry ``error_code`` (one of
``overloaded``/``quota_exceeded``/``circuit_open``/``draining``/
``request_too_large``/``bad_json``/``archive_damaged``) and, where retrying
makes sense, a
``retry_after_seconds`` hint that :class:`repro.client.VxServeClient`
honours.  A malformed line yields an error response rather than killing the
service.  Entry point: the ``vxserve`` console script (or ``python -m
repro.parallel.service``); the matching retrying client is the ``vxquery``
console script (:mod:`repro.client`).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import signal
import sys
import threading
import time
from dataclasses import dataclass

import repro.api as vxa
from repro.api.options import EXECUTOR_AUTO
from repro.core.policy import VmReusePolicy
from repro.core.types import SessionStats
from repro.errors import (
    ArchiveDamagedError,
    CodecError,
    IntegrityError,
    ZipFormatError,
)
from repro.faults import FaultPlan
from repro.parallel.admission import (
    ANONYMOUS_CLIENT,
    AdmissionGate,
    CircuitBreakerBoard,
    ClientQuotas,
    DrainingError,
    PRIORITIES,
    PRIORITY_INTERACTIVE,
    RequestTooLargeError,
    ServiceRejection,
)
from repro.parallel.engine import parallel_check, parallel_extract_into
from repro.parallel.pool import WorkerPool, thread_safe_start_method

#: Admission defaults: a brief queue in front of the gate, a breaker that
#: trips after a run of consecutive failures and probes half a minute later.
DEFAULT_QUEUE_DEPTH = 16
DEFAULT_QUEUE_TIMEOUT = 0.25
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_RESET = 30.0

#: Hard cap on one JSON request line; a hostile peer cannot buffer an
#: arbitrarily long line into service memory.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: ReadOptions fields a request may override per call.
_OPTION_FIELDS = ("mode", "force_decode", "engine", "chunk_size",
                  "verify_images", "analysis_elision", "on_error", "retries",
                  "member_deadline", "on_damage", "durable_output")

#: Ops that are bookkeeping, not archive work: always allowed, even while
#: the service is draining, never counted as in-flight work, and never
#: subject to admission control -- ``ping``/``health`` must answer even
#: (especially) when the service is melting.
_CONTROL_OPS = frozenset({"ping", "health", "stats", "drain", "shutdown"})

#: Ops whose failures charge the target archive's circuit breaker.
_BREAKER_OPS = frozenset({"extract", "check"})


@dataclass
class _Admission:
    """Everything :meth:`BatchService.handle` must undo after one request."""

    token: int
    client: str
    priority: str
    breaker_key: str | None
    started: float


class BatchService:
    """Dispatches JSON requests onto one shared worker pool.

    Args:
        jobs: worker count for the shared pool (default: the machine's CPU
            count) and the default per-request shard fan-out.
        executor: pool flavour (``auto``/``process``/``thread``).
        options: service-wide default :class:`~repro.api.ReadOptions`;
            per-request fields override a copy.  The service default enables
            ``REUSE_SAME_ATTRIBUTES`` (§2.4-safe reuse of VM state).
        max_inflight: concurrent archive-work requests before the admission
            gate queues and then sheds (``None`` = unbounded, the historic
            behaviour; the ``vxserve`` CLI defaults to ``4 * jobs``).
        queue_depth / queue_timeout: how many requests may briefly wait for
            a slot, and for how long, before being shed as ``overloaded``.
        client_quota: per-client in-flight cap (``None`` disables).
        breaker_threshold: consecutive ``extract``/``check`` failures that
            open an archive's circuit breaker (``0`` disables breakers).
        breaker_reset: seconds an open breaker waits before its half-open
            probe.
        max_request_bytes: cap on one JSON request line (transport layer).
    """

    def __init__(self, *, jobs: int | None = None,
                 executor: str = EXECUTOR_AUTO,
                 options: vxa.ReadOptions | None = None,
                 request_timeout: float | None = None,
                 max_inflight: int | None = None,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
                 client_quota: int | None = None,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_reset: float = DEFAULT_BREAKER_RESET,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES):
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.options = options or vxa.ReadOptions(
            reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES)
        #: Wall-clock budget for one request's guest work.  It is enforced
        #: where a hang can actually happen -- every member decode gets a
        #: ``member_deadline`` capped to this value, which the VM engines
        #: check inside their fuel accounting -- and audited by the
        #: watchdog thread, which flags requests running past it.
        self.request_timeout = request_timeout
        # Never fork here: socket-mode requests submit from handler threads,
        # and those threads do not exist yet when the pool is created, so
        # the thread-state-based default would wrongly pick fork; vxserve's
        # __main__ is importable, so the re-importing start methods are
        # safe (see WorkerPool).
        self.pool = WorkerPool(self.jobs, executor,
                               start_method=thread_safe_start_method())
        self.gate = AdmissionGate(max_inflight, queue_depth, queue_timeout)
        self.quotas = ClientQuotas(client_quota)
        self.breakers = CircuitBreakerBoard(breaker_threshold, breaker_reset)
        self.max_request_bytes = max_request_bytes
        self.stats = SessionStats()
        self.requests = 0
        self.rejected_draining = 0
        self.oversized_requests = 0
        self.watchdog_overruns = 0
        # Monotonic clock: NTP steps must not corrupt uptime or rate math.
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight: dict[int, tuple[str, float]] = {}
        self._next_token = 0
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._watchdog: threading.Thread | None = None
        if request_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watch_requests, name="vxserve-watchdog",
                daemon=True)
            self._watchdog.start()

    # -- request handling ------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Process one request object; always returns a response object."""
        response: dict = {}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        with self._lock:
            self.requests += 1
        admission: _Admission | None = None
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if op is None or handler is None:
                raise ValueError(f"unknown op {op!r}")
            if op not in _CONTROL_OPS:
                admission = self._admit(request, op)
            response["ok"] = True
            response["result"] = handler(request)
            if admission is not None:
                self.breakers.record(admission.breaker_key, ok=True)
        except (KeyboardInterrupt, SystemExit):
            raise
        except ServiceRejection as error:
            response.pop("result", None)
            response["ok"] = False
            response["error"] = str(error)
            response["error_type"] = type(error).__name__
            response["error_code"] = error.code
            if error.retry_after_seconds is not None:
                response["retry_after_seconds"] = error.retry_after_seconds
        except Exception as error:
            if admission is not None:
                self.breakers.record(admission.breaker_key, ok=False)
            response.pop("result", None)
            response["ok"] = False
            response["error"] = str(error)
            response["error_type"] = type(error).__name__
            if isinstance(error, (ArchiveDamagedError, CodecError,
                                  IntegrityError, ZipFormatError)):
                # Media damage is deterministic: the bytes on disk will not
                # get better by retrying, so clients must not treat this
                # like a transient refusal.
                response["error_code"] = "archive_damaged"
        finally:
            if admission is not None:
                self._retire(admission)
        return response

    def _admit(self, request: dict, op: str) -> _Admission:
        """Run one unit of archive work through quota, gate and breaker.

        Returns the :class:`_Admission` ticket the ``finally`` arm of
        :meth:`handle` retires, or raises a structured
        :class:`~repro.parallel.admission.ServiceRejection` -- in which
        case every partially-acquired resource has been released.
        """
        client = str(request.get("client") or ANONYMOUS_CLIENT)
        priority = request.get("priority") or PRIORITY_INTERACTIVE
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r} (expected one of "
                f"{', '.join(PRIORITIES)})")
        with self._idle:
            if self._draining.is_set():
                self.rejected_draining += 1
                raise DrainingError(
                    "service is draining and no longer accepts work")
            token = self._next_token
            self._next_token += 1
            # Registered before the gate so a concurrent drain waits for
            # queued-but-not-yet-admitted work instead of racing past it.
            self._inflight[token] = (op, time.monotonic())
        quota_held = gate_held = False
        try:
            self.quotas.acquire(client)
            quota_held = True
            self.gate.admit(priority)
            gate_held = True
            breaker_key = None
            if op in _BREAKER_OPS:
                breaker_key = self.breakers.check(request.get("archive"))
        except BaseException:
            if gate_held:
                self.gate.release()
            if quota_held:
                self.quotas.release(client)
            self._retire_token(token)
            raise
        return _Admission(token=token, client=client, priority=priority,
                          breaker_key=breaker_key, started=time.monotonic())

    def _retire(self, admission: _Admission) -> None:
        self.gate.release(time.monotonic() - admission.started)
        self.quotas.release(admission.client)
        self._retire_token(admission.token)

    def _retire_token(self, token: int) -> None:
        with self._idle:
            self._inflight.pop(token, None)
            if not self._inflight:
                self._idle.notify_all()

    def _watch_requests(self) -> None:
        """Flag in-flight requests that outlive the request timeout.

        Termination of a wedged *guest* is the member deadline's job (the
        engines check it inside their fuel accounting); the watchdog is the
        audit trail on top -- it counts and reports requests that run past
        the timeout, so an operator can see a misbehaving workload even
        when each individual member stays within its deadline.
        """
        flagged: set[int] = set()
        while not self._stopping.wait(min(1.0, self.request_timeout / 4)):
            now = time.monotonic()
            with self._lock:
                live = set(self._inflight)
                flagged &= live
                for token, (op, started) in self._inflight.items():
                    if token in flagged:
                        continue
                    if now - started > self.request_timeout:
                        flagged.add(token)
                        self.watchdog_overruns += 1
                        print(f"vxserve watchdog: {op!r} request has run "
                              f"{now - started:.1f}s "
                              f"(timeout {self.request_timeout}s)",
                              file=sys.stderr, flush=True)

    def _request_options(self, request: dict) -> vxa.ReadOptions:
        changes = {field: request[field] for field in _OPTION_FIELDS
                   if field in request}
        if "reuse" in request and request["reuse"] is not None:
            changes["reuse"] = VmReusePolicy(request["reuse"])
        if request.get("fault_plan") is not None:
            changes["fault_plan"] = FaultPlan.from_dict(request["fault_plan"])
        if self.request_timeout is not None:
            # The watchdog's enforcement arm: every member decode of this
            # request gets a wall-clock deadline no laxer than the
            # service-wide request timeout.
            deadline = changes.get("member_deadline",
                                   self.options.member_deadline)
            changes["member_deadline"] = (self.request_timeout
                                          if deadline is None
                                          else min(deadline,
                                                   self.request_timeout))
        options = self.options
        return options.with_changes(**changes) if changes else options

    def _request_jobs(self, request: dict) -> int:
        jobs = int(request.get("jobs", self.jobs))
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        return jobs

    def _absorb(self, session_stats: SessionStats) -> None:
        with self._lock:
            self.stats.merge(session_stats)

    # -- operations ------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "pid": os.getpid(),
                "uptime_seconds": time.monotonic() - self.started}

    def _op_health(self, request: dict) -> dict:
        """Liveness + load in one scrape: pool, gate, quotas, breakers.

        A control op on purpose -- it must answer within its timeout even
        when every execution slot is busy, because "is the service melting
        or merely loaded?" is exactly the question asked under overload.
        """
        now = time.monotonic()
        admission = self.gate.snapshot()
        with self._lock:
            inflight = dict(self._inflight)
        oldest = min((started for _, started in inflight.values()),
                     default=None)
        return {
            "ok": True,
            "accepting": not self._draining.is_set(),
            "draining": self._draining.is_set(),
            "stopping": self._stopping.is_set(),
            "uptime_seconds": now - self.started,
            "inflight": len(inflight),
            "oldest_request_seconds": (round(now - oldest, 4)
                                       if oldest is not None else 0.0),
            "queue_depth": admission["queued_now"],
            "admission": admission,
            "quotas": self.quotas.snapshot(),
            "breakers": self.breakers.snapshot(),
            "pool": {
                "jobs": self.jobs,
                "executor": self.pool.kind,
                "respawns": self.pool.respawns,
                "workers_alive": self.pool.alive_workers(),
            },
        }

    def _op_list(self, request: dict) -> dict:
        with vxa.open(request["archive"], self.options) as archive:
            members = []
            for name in archive.names():
                info = archive.info(name)
                members.append({
                    "name": info.name,
                    "stored_size": info.stored_size,
                    "original_size": info.original_size,
                    "codec": info.codec_name,
                    "precompressed": info.precompressed,
                    "has_decoder": info.has_decoder,
                })
        return {"archive": request["archive"], "members": members}

    def _op_extract(self, request: dict) -> dict:
        options = self._request_options(request)
        jobs = self._request_jobs(request)
        directory = pathlib.Path(request["dest"])
        start = time.perf_counter()
        with vxa.open(request["archive"], options) as archive:
            members = request.get("members")
            wanted = members if members is not None else archive.names()
            # Validate every target before any worker touches the disk, as
            # the serial facade does (zip-slip protection, single abort).
            directory.mkdir(parents=True, exist_ok=True)
            for name in wanted:
                vxa.safe_extract_path(directory, name)
            report = parallel_extract_into(
                archive, directory, wanted, jobs, pool=self.pool)
            stats = archive.session.stats
            self._absorb(stats)
            return {
                "archive": request["archive"],
                "records": [
                    {"name": record.name, "path": str(record.path),
                     "size": record.size, "decoded": record.decoded,
                     "used_vxa_decoder": record.used_vxa_decoder,
                     "codec": record.codec_name}
                    for record in report
                ],
                "failures": [failure.as_dict()
                             for failure in report.failures],
                "quarantined": report.quarantined,
                "stats": stats.as_dict(),
                "elapsed_seconds": time.perf_counter() - start,
            }

    def _op_check(self, request: dict) -> dict:
        options = self._request_options(request)
        jobs = self._request_jobs(request)
        reuse = request.get("reuse")
        start = time.perf_counter()
        with vxa.open(request["archive"], options) as archive:
            report = parallel_check(
                archive, jobs,
                reuse=VmReusePolicy(reuse) if reuse is not None else None,
                names=request.get("members"), pool=self.pool)
        self._absorb(report)
        return {
            "archive": request["archive"],
            "ok": report.ok,
            "checked": report.checked,
            "passed": report.passed,
            "failures": list(report.failures),
            **report.counters(),
            "elapsed_seconds": time.perf_counter() - start,
        }

    def _op_stats(self, request: dict) -> dict:
        """Point-in-time gauges plus monotonic ``counters`` for scraping.

        Everything under ``counters`` only ever increases for the life of
        the process, so an external scraper can treat the dict as a set of
        Prometheus-style counter series and derive rates by differencing.
        """
        admission = self.gate.snapshot()
        quotas = self.quotas.snapshot()
        breaker_totals = self.breakers.totals()
        with self._lock:
            requests = self.requests
            inflight = len(self._inflight)
            rejected_draining = self.rejected_draining
            oversized = self.oversized_requests
            overruns = self.watchdog_overruns
            session = self.stats.as_dict()
        counters = {
            "requests_total": requests,
            "admitted_total": admission["admitted_total"],
            "completed_total": admission["completed_total"],
            "queued_total": admission["queued_total"],
            "shed_overloaded_total": admission["shed_total"],
            "batch_evictions_total": admission["batch_evictions_total"],
            "quota_rejections_total": quotas["rejections_total"],
            "rejected_draining_total": rejected_draining,
            "oversized_requests_total": oversized,
            "watchdog_overruns_total": overruns,
            "pool_respawns_total": self.pool.respawns,
            **breaker_totals,
            **{f"session_{name}_total": value
               for name, value in session.items()},
        }
        return {
            "requests": requests,
            "jobs": self.jobs,
            "executor": self.pool.kind,
            "uptime_seconds": time.monotonic() - self.started,
            "inflight": inflight,
            "draining": self._draining.is_set(),
            "rejected_draining": rejected_draining,
            "watchdog_overruns": overruns,
            "pool_respawns": self.pool.respawns,
            "admission": admission,
            "quotas": quotas,
            "counters": counters,
            "session": session,
        }

    def _op_drain(self, request: dict) -> dict:
        """Stop accepting work, wait for in-flight requests, flush stats."""
        stats = self.drain(timeout=request.get("timeout"))
        return {"draining": True, **stats}

    def _op_shutdown(self, request: dict) -> dict:
        stats = self.drain(timeout=request.get("timeout"))
        self._stopping.set()
        return {"stopping": True, **stats}

    # -- lifecycle -------------------------------------------------------------

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def drain(self, timeout: float | None = None) -> dict:
        """Refuse new archive work and wait for in-flight work to finish.

        Control ops (``ping``/``health``/``stats``/``drain``/``shutdown``)
        keep being served.  New archive work is refused with a structured
        ``draining`` error, never a dropped connection.  Returns the final
        stats snapshot -- the flush the caller observes before tearing
        anything down.  Idempotent; concurrent callers all wait on the same
        condition.
        """
        self._draining.set()
        with self._idle:
            self._idle.wait_for(lambda: not self._inflight, timeout=timeout)
            pending = len(self._inflight)
        snapshot = self._op_stats({})
        snapshot["drained"] = pending == 0
        return snapshot

    def close(self) -> None:
        """Graceful teardown: drain in-flight work, then stop the pool.

        The drain is bounded (a wedged in-flight request must not make
        shutdown hang forever); member deadlines terminate wedged guests
        well before the backstop when a request timeout is configured.
        """
        self.drain(timeout=60.0)
        self._stopping.set()
        self.pool.close()

    def serve_stream(self, instream, outstream) -> None:
        """Serve JSON-lines until EOF or a ``shutdown`` request.

        One request line may carry at most ``max_request_bytes``; a longer
        line is discarded in bounded chunks and answered with a structured
        ``request_too_large`` error, so a hostile peer cannot buffer a
        giant line into service memory.
        """
        readline = instream.readline
        limit = self.max_request_bytes
        while True:
            line = readline(limit + 1)
            if not line:
                break
            if isinstance(line, bytes):
                line = line.decode("utf-8", "replace")
            if len(line) > limit and not line.endswith("\n"):
                self._discard_line_tail(readline)
                with self._lock:
                    self.oversized_requests += 1
                error = RequestTooLargeError(
                    f"request line exceeds {limit} bytes")
                response = {"ok": False, "error": str(error),
                            "error_type": type(error).__name__,
                            "error_code": error.code}
            else:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as decode_error:
                    response = {"ok": False,
                                "error": f"bad JSON: {decode_error}",
                                "error_type": "JSONDecodeError",
                                "error_code": "bad_json"}
                else:
                    response = self.handle(request)
            outstream.write(json.dumps(response) + "\n")
            outstream.flush()
            if self.stopping:
                break

    def _discard_line_tail(self, readline) -> None:
        """Swallow the rest of an oversized line in bounded chunks."""
        while True:
            chunk = readline(self.max_request_bytes)
            if not chunk:
                return
            if isinstance(chunk, bytes):
                if chunk.endswith(b"\n"):
                    return
            elif chunk.endswith("\n"):
                return

    def serve_socket(self, socket_path) -> None:
        """Serve connections on a unix socket, one JSON-lines peer each.

        Connections are handled on daemon threads, so several clients can
        shard work onto the one shared pool concurrently -- the batch-server
        multiplexing the ROADMAP asks for.
        """
        import socketserver

        service = self
        socket_path = str(socket_path)
        if os.path.exists(socket_path):
            os.unlink(socket_path)

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                writer = io.TextIOWrapper(self.wfile, encoding="utf-8",
                                          write_through=True)
                service.serve_stream(self.rfile, writer)
                if service.stopping:
                    threading.Thread(target=self.server.shutdown,
                                     daemon=True).start()

        class Server(socketserver.ThreadingMixIn,
                     socketserver.UnixStreamServer):
            daemon_threads = True
            allow_reuse_address = True

        with Server(socket_path, Handler) as server:
            try:
                server.serve_forever(poll_interval=0.1)
            finally:
                if os.path.exists(socket_path):
                    os.unlink(socket_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vxserve",
        description="vxZIP batch extraction/verification service (JSON lines)",
    )
    parser.add_argument("--socket", help="serve on a unix socket path "
                                         "(default: stdin/stdout)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size (default: CPU count)")
    parser.add_argument("--executor", default=EXECUTOR_AUTO,
                        choices=("auto", "process", "thread"),
                        help="worker pool flavour")
    parser.add_argument("--reuse", default=VmReusePolicy.REUSE_SAME_ATTRIBUTES.value,
                        choices=[policy.value for policy in VmReusePolicy],
                        help="default VM reuse policy (requests may override)")
    parser.add_argument("--request-timeout", type=float, default=None,
                        help="wall-clock seconds of guest work one request "
                             "may use; enforced per member decode via the "
                             "VM deadline and audited by a watchdog thread")
    parser.add_argument("--on-error", default=None,
                        choices=("abort", "skip", "quarantine"),
                        help="default per-member failure policy for "
                             "extract requests (requests may override)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="concurrent archive-work requests before the "
                             "admission gate queues and sheds (default: "
                             "4 x jobs; 0 removes the bound)")
    parser.add_argument("--queue-depth", type=int,
                        default=DEFAULT_QUEUE_DEPTH,
                        help="requests that may briefly wait for a slot "
                             "before load is shed as 'overloaded'")
    parser.add_argument("--queue-timeout", type=float,
                        default=DEFAULT_QUEUE_TIMEOUT,
                        help="longest a queued request waits for a slot "
                             "before being shed (seconds)")
    parser.add_argument("--client-quota", type=int, default=None,
                        help="per-client in-flight request cap, keyed by "
                             "the request's 'client' id (default: none)")
    parser.add_argument("--breaker-threshold", type=int,
                        default=DEFAULT_BREAKER_THRESHOLD,
                        help="consecutive extract/check failures that open "
                             "an archive's circuit breaker (0 disables)")
    parser.add_argument("--breaker-reset", type=float,
                        default=DEFAULT_BREAKER_RESET,
                        help="seconds an open breaker waits before its "
                             "half-open probe")
    parser.add_argument("--max-request-bytes", type=int,
                        default=DEFAULT_MAX_REQUEST_BYTES,
                        help="cap on one JSON request line; longer lines "
                             "get a structured request_too_large error")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = vxa.ReadOptions(reuse=VmReusePolicy(args.reuse))
    if args.on_error is not None:
        options = options.with_changes(on_error=args.on_error)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if args.max_inflight is None:
        max_inflight: int | None = 4 * jobs
    elif args.max_inflight <= 0:
        max_inflight = None
    else:
        max_inflight = args.max_inflight
    client_quota = (args.client_quota
                    if args.client_quota and args.client_quota > 0 else None)
    service = BatchService(jobs=jobs, executor=args.executor,
                           options=options,
                           request_timeout=args.request_timeout,
                           max_inflight=max_inflight,
                           queue_depth=args.queue_depth,
                           queue_timeout=args.queue_timeout,
                           client_quota=client_quota,
                           breaker_threshold=args.breaker_threshold,
                           breaker_reset=args.breaker_reset,
                           max_request_bytes=args.max_request_bytes)

    def _graceful_exit(signum, frame):
        # SIGTERM: refuse new work immediately; the SystemExit unwinds to
        # the finally below, whose close() finishes in-flight requests and
        # flushes the final stats before the pool goes down.
        service.drain(timeout=0)
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _graceful_exit)
    try:
        if args.socket:
            service.serve_socket(args.socket)
        else:
            service.serve_stream(sys.stdin, sys.stdout)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        snapshot = service.drain(timeout=60.0)
        print(json.dumps({"event": "drained", **snapshot}),
              file=sys.stderr, flush=True)
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
