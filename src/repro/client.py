"""``VxServeClient`` -- the retrying client for the ``vxserve`` service.

The server side (:mod:`repro.parallel.service`) sheds load with structured
``overloaded``/``quota_exceeded``/``circuit_open`` errors and
``retry_after_seconds`` hints; this module is the matching client-side
story the codebase previously left to every caller.  One class owns the
retry/timeout/backoff triple:

* **per-request timeouts** -- every round trip runs under a socket
  timeout; an expired timeout abandons the connection (the late response
  would desynchronise the JSON-lines stream) and retries on a fresh one;
* **bounded retries with exponential backoff and full jitter** -- attempt
  ``n`` sleeps ``uniform(0, min(max_delay, base_delay * 2**n))``, the
  AWS-style full-jitter schedule that decorrelates a thundering herd of
  clients all shed at the same instant;
* **``retry_after_seconds`` honoured** -- when the server sends a hint it
  becomes the *floor* of the computed delay, so clients never probe an
  open circuit breaker or a saturated gate earlier than asked;
* **reconnect on dropped socket** -- a peer reset, EOF mid-response, or a
  server restart turns into a transparent reconnect on the next attempt,
  not an exception in the caller.

Only refusals the server marks retryable (see ``docs/vxserve-protocol.md``)
are retried; real failures (``bad_json``, ``request_too_large``, archive
errors, ``draining``) surface immediately as :class:`VxServeError`.
Retried operations are safe to repeat: every ``vxserve`` op is idempotent
(extract re-writes the same bytes, check re-reads).

The ``vxquery`` console script wraps the client for shells and cron jobs::

    vxquery --socket /run/vxserve.sock ping
    vxquery --socket /run/vxserve.sock extract backup.zip out/ --jobs 4
    vxquery --socket /run/vxserve.sock --client ci check backup.zip

This module deliberately imports no server code -- the wire protocol
(JSON lines + ``error_code`` strings) is the only contract.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import socket
import sys
import time

from repro.errors import VxaError

#: Wire codes the server marks as worth retrying against the same endpoint.
#: ``archive_damaged`` is deliberately absent: media damage is a property of
#: the bytes on disk, so re-sending the request can only burn the server's
#: admission budget without ever succeeding.
RETRYABLE_CODES = frozenset({"overloaded", "quota_exceeded", "circuit_open"})

DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 4
DEFAULT_BASE_DELAY = 0.05
DEFAULT_MAX_DELAY = 2.0


class VxServeError(VxaError):
    """A ``vxserve`` request failed and was not (or could not be) retried.

    Attributes:
        code: the structured ``error_code`` when the server sent one
            (``overloaded``, ``circuit_open``, ...), else ``None``.
        error_type: the server-side exception class name, when reported.
        retry_after_seconds: the server's backoff hint, when sent.
        attempts: round trips performed before giving up.
        response: the final raw response object, for callers that need
            fields this class does not lift out.
    """

    def __init__(self, message: str, *, code: str | None = None,
                 error_type: str | None = None,
                 retry_after_seconds: float | None = None,
                 attempts: int = 1, response: dict | None = None):
        super().__init__(message)
        self.code = code
        self.error_type = error_type
        self.retry_after_seconds = retry_after_seconds
        self.attempts = attempts
        self.response = response


class VxServeTimeout(VxServeError):
    """No response arrived within the per-request timeout (after retries)."""


class VxServeConnectionError(VxServeError):
    """The server could not be reached or kept dropping the connection."""


class VxServeClient:
    """A retrying JSON-lines client for one ``vxserve`` unix socket.

    Args:
        socket_path: the server's ``--socket`` path.
        client_id: value for each request's ``client`` field (per-client
            quotas and stats key off it).
        timeout: per-request wall-clock budget, connection setup included.
        retries: additional attempts after the first (``0`` = single shot).
        base_delay / max_delay: full-jitter backoff schedule bounds.
        rng / sleep: injectable randomness and clock for deterministic
            tests.

    One instance owns one connection, used strictly request-by-request
    (the server answers a connection's requests in order).  The class is a
    context manager; it is *not* thread-safe -- give each thread its own
    client, the server multiplexes.
    """

    def __init__(self, socket_path: str, *, client_id: str | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 base_delay: float = DEFAULT_BASE_DELAY,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 rng: random.Random | None = None, sleep=time.sleep):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        self.socket_path = str(socket_path)
        self.client_id = client_id
        self.timeout = timeout
        self.retries = retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = rng or random.Random()
        self._sleep = sleep
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None
        self._reader = None
        self.reconnects = 0

    # -- connection management ---------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")

    def close(self) -> None:
        reader, sock = self._reader, self._sock
        self._reader = self._sock = None
        if reader is not None:
            try:
                reader.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "VxServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one round trip -----------------------------------------------------

    def _roundtrip(self, request: dict, timeout: float) -> dict:
        """Send one request and read its response line; no retrying here.

        Any socket-level failure (refused, reset, EOF, timeout) closes the
        connection -- after a timeout the stream position is ambiguous, so
        the connection is never reused -- and propagates to the retry loop.
        """
        self.connect()
        try:
            self._sock.settimeout(timeout)
            payload = (json.dumps(request) + "\n").encode("utf-8")
            self._sock.sendall(payload)
            while True:
                line = self._reader.readline()
                if not line:
                    raise ConnectionResetError(
                        "server closed the connection mid-request")
                try:
                    response = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ConnectionResetError(
                        f"undecodable response line: {error}") from error
                if response.get("id") == request["id"]:
                    return response
                # A response for a request this connection never made
                # (possible only after a desynchronised reconnect): skip.
        except BaseException:
            self.close()
            raise

    # -- the retry loop -----------------------------------------------------

    def request(self, op: str, *, timeout: float | None = None,
                **fields) -> dict:
        """Issue ``op`` and return its ``result`` object.

        Retries transport failures and server refusals whose
        ``error_code`` is retryable, waiting the larger of the full-jitter
        backoff and the server's ``retry_after_seconds`` hint between
        attempts.  Raises :class:`VxServeError` (or a transport-flavoured
        subclass) when attempts are exhausted or the failure is final.
        """
        timeout = self.timeout if timeout is None else timeout
        request = {"id": next(self._ids), "op": op}
        if self.client_id is not None:
            request.setdefault("client", self.client_id)
        for name, value in fields.items():
            if value is not None:
                request[name] = value
        budget = self.retries + 1
        performed = 0
        last_error: BaseException | None = None
        last_response: dict | None = None
        for attempt in range(budget):
            if attempt:
                self._backoff(attempt - 1, last_response)
            performed = attempt + 1
            try:
                response = self._roundtrip(request, timeout)
            except socket.timeout as error:
                last_error, last_response = error, None
                continue
            except OSError as error:
                last_error, last_response = error, None
                self.reconnects += 1
                continue
            if response.get("ok"):
                return response.get("result", {})
            last_error, last_response = None, response
            if response.get("error_code") not in RETRYABLE_CODES:
                break
        if last_response is not None:
            raise VxServeError(
                f"{op} failed: {last_response.get('error', 'unknown error')}",
                code=last_response.get("error_code"),
                error_type=last_response.get("error_type"),
                retry_after_seconds=last_response.get("retry_after_seconds"),
                attempts=performed, response=last_response)
        if isinstance(last_error, socket.timeout):
            raise VxServeTimeout(
                f"{op} timed out after {performed} attempt(s) of {timeout}s",
                attempts=performed) from last_error
        raise VxServeConnectionError(
            f"{op} failed after {performed} attempt(s): {last_error}",
            attempts=performed) from last_error

    def _backoff(self, retry_index: int, response: dict | None) -> None:
        """Sleep before a retry: full jitter, floored by the server hint."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** retry_index))
        delay = self._rng.uniform(0.0, ceiling)
        if response is not None:
            hint = response.get("retry_after_seconds")
            if hint:
                delay = max(delay, float(hint))
        if delay > 0:
            self._sleep(delay)

    # -- convenience ops ----------------------------------------------------

    def ping(self, **fields) -> dict:
        return self.request("ping", **fields)

    def health(self, **fields) -> dict:
        return self.request("health", **fields)

    def stats(self, **fields) -> dict:
        return self.request("stats", **fields)

    def list(self, archive: str, **fields) -> dict:
        return self.request("list", archive=str(archive), **fields)

    def extract(self, archive: str, dest: str, *,
                members: list[str] | None = None, jobs: int | None = None,
                **fields) -> dict:
        return self.request("extract", archive=str(archive), dest=str(dest),
                            members=members, jobs=jobs, **fields)

    def check(self, archive: str, *, members: list[str] | None = None,
              jobs: int | None = None, **fields) -> dict:
        return self.request("check", archive=str(archive), members=members,
                            jobs=jobs, **fields)

    def drain(self, **fields) -> dict:
        return self.request("drain", **fields)

    def shutdown(self, **fields) -> dict:
        return self.request("shutdown", **fields)


# --------------------------------------------------------------------------
# vxquery CLI
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vxquery",
        description="query a running vxserve instance (retrying client)",
    )
    parser.add_argument("--socket", required=True,
                        help="unix socket path the server listens on")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="per-request timeout in seconds")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        help="retry attempts after the first (0 = one shot)")
    parser.add_argument("--client", default=None,
                        help="client id for quotas and per-client stats")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("ping", help="liveness round trip")
    commands.add_parser("health",
                        help="configuration and gauges: pool, gate, breakers")
    commands.add_parser("stats", help="monotonic counters")
    commands.add_parser("drain", help="refuse new work, wait for in-flight")
    commands.add_parser("shutdown", help="drain, then stop the service")

    list_parser = commands.add_parser("list", help="list archive members")
    list_parser.add_argument("archive")

    extract_parser = commands.add_parser("extract", help="extract members")
    extract_parser.add_argument("archive")
    extract_parser.add_argument("dest")
    extract_parser.add_argument("--members", default=None,
                                help="comma-separated member names "
                                     "(default: all)")
    extract_parser.add_argument("--jobs", type=int, default=None)
    extract_parser.add_argument("--mode", default=None,
                                choices=("auto", "native", "vxa"))

    check_parser = commands.add_parser("check", help="verify archive")
    check_parser.add_argument("archive")
    check_parser.add_argument("--members", default=None,
                              help="comma-separated member names")
    check_parser.add_argument("--jobs", type=int, default=None)

    raw_parser = commands.add_parser(
        "raw", help="send one raw JSON request object")
    raw_parser.add_argument("json", help="request object, e.g. "
                                         "'{\"op\": \"ping\"}'")
    return parser


def _split_members(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [name for name in value.split(",") if name]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    client = VxServeClient(args.socket, client_id=args.client,
                           timeout=args.timeout, retries=args.retries)
    try:
        with client:
            if args.command == "list":
                result = client.list(args.archive)
            elif args.command == "extract":
                result = client.extract(
                    args.archive, args.dest,
                    members=_split_members(args.members),
                    jobs=args.jobs, mode=args.mode)
            elif args.command == "check":
                result = client.check(args.archive,
                                      members=_split_members(args.members),
                                      jobs=args.jobs)
            elif args.command == "raw":
                request = json.loads(args.json)
                if not isinstance(request, dict) or "op" not in request:
                    raise VxServeError(
                        "raw request must be a JSON object with an 'op'")
                op = request.pop("op")
                request.pop("id", None)
                result = client.request(op, **request)
            else:
                result = client.request(args.command)
    except VxServeError as error:
        detail = {"error": str(error), "error_code": error.code,
                  "error_type": error.error_type,
                  "attempts": error.attempts}
        if error.retry_after_seconds is not None:
            detail["retry_after_seconds"] = error.retry_after_seconds
        print(json.dumps(detail), file=sys.stderr)
        return 1
    except OSError as error:
        print(json.dumps({"error": str(error)}), file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
