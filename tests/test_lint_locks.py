"""The AST lock-linter: the repo is clean, and violations are detected.

``tools/lint_locks.py`` guards five concurrency invariants (CodeCache state
mutations under ``self.lock``; ``_CODE_MEMO`` accesses under
``_CODE_MEMO_LOCK``; the image registry's table and record slots under
``_LOCK``, with nothing slow called while it is held; ``vxserve``'s request
table and breakers under its one lock; the admission gate's slot count and
waiter queue under its condition).  These tests pin both
directions: the shipped sources pass, and deliberately broken synthetic
sources fail with pointed messages.
"""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_locks  # noqa: E402


def test_repository_is_clean():
    assert lint_locks.run() == []


def _cache_violations(tmp_path, body: str):
    path = tmp_path / "code_cache.py"
    path.write_text(body)
    return lint_locks.check_code_cache(path)


def test_detects_unlocked_insertion(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def __init__(self):
        self.fragments = {}

    def store(self, entry, fragment):
        self.fragments[entry] = fragment
""")
    assert len(violations) == 1
    assert "CodeCache.store mutates self.fragments" in violations[0][2]


def test_detects_unlocked_counter_increment(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def count(self, entry):
        self.fragments[entry] += 1
""")
    assert len(violations) == 1
    assert "self.fragments" in violations[0][2]


def test_detects_unlocked_mutation_through_alias(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def store(self, entry, fragment):
        fragments = self.fragments
        fragments[entry] = fragment
""")
    assert len(violations) == 1
    assert "self.fragments" in violations[0][2]


def test_detects_unlocked_mutating_method_call(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def wipe(self):
        self.instructions.clear()
""")
    assert len(violations) == 1
    assert "self.instructions.clear()" in violations[0][2]


def test_locked_mutations_pass(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def store(self, entry, fragment):
        with self.lock:
            fragments = self.fragments
            del fragments[next(iter(fragments))]
            self.fragments[entry] = fragment
            self.instructions.pop(entry, None)
""")
    assert violations == []


def test_init_is_exempt_and_reads_are_free(tmp_path):
    violations = _cache_violations(tmp_path, """
class CodeCache:
    def __init__(self):
        self.fragments = {}
        self.instructions = {}

    def lookup(self, entry):
        return self.fragments.get(entry)
""")
    assert violations == []


@pytest.mark.parametrize("snippet,expect_clean", [
    ("_CODE_MEMO = {}\n", True),                      # definition site
    ("with _CODE_MEMO_LOCK:\n    _CODE_MEMO['k'] = 1\n", True),
    ("_CODE_MEMO['k'] = 1\n", False),
    ("value = _CODE_MEMO.get('k')\n", False),
])
def test_code_memo_access_rules(tmp_path, snippet, expect_clean):
    path = tmp_path / "translator.py"
    path.write_text(snippet)
    violations = lint_locks.check_code_memo(path)
    assert (violations == []) is expect_clean


_REGISTRY = """
_RECORDS = {{}}

class ImageRecord:
    def __init__(self, digest):
        self._report = None
        self._caches = {{}}

    def analysis(self):
        {publish}

    def code_cache(self, key):
        with _LOCK:
            cache = self._caches[key] = object()
        return cache

def image_record(data):
    {lookup}
    record = ImageRecord(parse_executable(data))
    with _LOCK:
        {insert}
    return record
"""

_CLEAN = dict(
    publish="report = _verify_parsed(self)\n        with _LOCK:\n"
            "            self._report = report",
    lookup="with _LOCK:\n        record = _RECORDS.get(data)",
    insert="record = _RECORDS.setdefault(data, record)")


@pytest.mark.parametrize("change,message", [
    ({}, None),
    ({"lookup": "record = _RECORDS.get(data)"}, "_RECORDS accessed outside"),
    ({"publish": "self._report = _verify_parsed(self)"},
     "ImageRecord.analysis writes self._report outside"),
    ({"publish": "self._caches.clear()"}, "self._caches.clear() outside"),
    ({"publish": "del self._caches[0]"}, "mutates self._caches outside"),
    ({"insert": "_RECORDS[data] = record; record.analysis()"},
     "analysis() called while holding _LOCK"),
    ({"insert": "_RECORDS[data] = ImageRecord(parse_executable(data))"},
     "parse_executable() called while holding _LOCK"),
    # The per-user store (repro.vm.store): no file I/O, no marshal, under it.
    ({"insert": "record = _RECORDS.setdefault(data, store.read(data))"},
     "read() called while holding _LOCK"),
    ({"insert": "_RECORDS[data] = record; store.write(data, record)"},
     "write() called while holding _LOCK"),
    ({"insert": "_RECORDS.clear(); store.empty()"},
     "empty() called while holding _LOCK"),
    ({"insert": "_RECORDS[data] = record; record.save()"},
     "save() called while holding _LOCK"),
    ({"insert": "_RECORDS[data] = marshal.loads(data)"},
     "loads() called while holding _LOCK"),
    ({"publish": "self._unsaved = True"},
     "ImageRecord.analysis writes self._unsaved outside"),
], ids=["clean", "unlocked-table-read", "unlocked-slot-write",
        "unlocked-slot-method", "unlocked-slot-delete", "analysis-under-lock",
        "parse-under-lock", "store-read-under-lock", "store-write-under-lock",
        "store-empty-under-lock", "record-save-under-lock",
        "unmarshal-under-lock", "unlocked-unsaved-write"])
def test_image_registry_rules(tmp_path, change, message):
    path = tmp_path / "images.py"
    path.write_text(_REGISTRY.format(**{**_CLEAN, **change}))
    violations = lint_locks.check_image_registry(path)
    if message is None:
        assert violations == []
    else:
        assert len(violations) == 1 and message in violations[0][2]


_SERVICE = """
class BatchService:
    def __init__(self):
        self._requests = []
        self._breakers = {{}}

    def _register(self, row):
        {register}

    def drain(self):
        with self._idle:
            self._idle.wait_for(lambda: not self._requests)

    def _health(self):
        {health}
"""

_SERVICE_CLEAN = dict(
    register="with self._lock:\n            self._requests.append(row)",
    health="with self._lock:\n            return dict(self._breakers)")


@pytest.mark.parametrize("change,message", [
    ({}, None),
    ({"register": "self._requests.append(row)"},
     "BatchService._register accesses self._requests outside"),
    ({"health": "return dict(self._breakers)"},
     "BatchService._health accesses self._breakers outside"),
    ({"health": "with self.gate:\n            return len(self._requests)"},
     "BatchService._health accesses self._requests outside"),
], ids=["clean", "unlocked-table-write", "unlocked-breaker-read",
        "wrong-lock"])
def test_service_table_rules(tmp_path, change, message):
    path = tmp_path / "service.py"
    path.write_text(_SERVICE.format(**{**_SERVICE_CLEAN, **change}))
    violations = lint_locks.check_service(path)
    if message is None:
        assert violations == []
    else:
        assert len(violations) == 1 and message in violations[0][2]


_GATE = """
class AdmissionGate:
    def __init__(self):
        self._inflight = 0
        self._waiters = deque()

    def release(self):
        {release}

    def snapshot(self):
        {snapshot}


class CircuitBreaker:
    def _inflight_probe(self):
        return self._inflight
"""

_GATE_CLEAN = dict(
    release="with self._condition:\n            self._inflight -= 1",
    snapshot="with self._condition:\n            return len(self._waiters)")


@pytest.mark.parametrize("change,message", [
    ({}, None),
    ({"release": "self._inflight -= 1"},
     "AdmissionGate.release accesses self._inflight outside"),
    ({"snapshot": "return len(self._waiters)"},
     "AdmissionGate.snapshot accesses self._waiters outside"),
    ({"release": "with self._lock:\n            self._waiters.popleft()"},
     "AdmissionGate.release accesses self._waiters outside"),
], ids=["clean", "unlocked-slot-write", "unlocked-queue-read", "wrong-lock"])
def test_admission_gate_rules(tmp_path, change, message):
    path = tmp_path / "admission.py"
    path.write_text(_GATE.format(**{**_GATE_CLEAN, **change}))
    violations = lint_locks.check_gate(path)
    if message is None:
        assert violations == []
    else:
        assert len(violations) == 1 and message in violations[0][2]
