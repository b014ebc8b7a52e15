"""Chaos suite: deterministic fault injection against the containment layer.

Every test here provokes a failure *on purpose* through
:class:`repro.faults.FaultPlan` and asserts the salvage invariants the
robustness work promises: exactly the injected members fail, every
survivor's bytes are identical to a clean run, worker crashes are recovered
by rescheduling with per-member retry budgets, and wedged guests die at
their wall-clock deadline on both engines and both executors.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import shutil

import pytest

import repro.api as vxa
import repro.faults  # noqa: F401  -- registers FaultPlanError for the walk
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    InvalidInstructionError,
    MemoryFault,
    ResourceLimitExceeded,
    VxaError,
    VxcSyntaxError,
    WorkerCrashed,
)
from repro.faults import (
    DEFAULT_FUEL,
    FaultPlan,
    FaultSpec,
    KIND_CORRUPT_PAYLOAD,
    KIND_DELAY_IO,
    KIND_EXHAUST_FUEL,
    KIND_KILL_WORKER,
    KIND_SYSCALL_ERROR,
)
from repro.workloads.text import synthetic_source_tree_bytes

MEMBERS = 6


def _archive_bytes(members: int = MEMBERS) -> bytes:
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        for index in range(members):
            builder.add(f"file{index}.txt",
                        (f"payload {index} " * 120).encode())
    return buffer.getvalue()


@pytest.fixture(scope="module")
def archive_bytes() -> bytes:
    return _archive_bytes()


@pytest.fixture(scope="module")
def clean_outputs(archive_bytes, tmp_path_factory) -> dict[str, bytes]:
    out = tmp_path_factory.mktemp("clean")
    with vxa.open(io.BytesIO(archive_bytes),
                  vxa.ReadOptions(mode=vxa.MODE_VXA)) as archive:
        archive.extract_into(out)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _assert_survivors_identical(report, out_dir, clean_outputs):
    extracted = {record.name for record in report}
    for name in extracted:
        assert (out_dir / name).read_bytes() == clean_outputs[name]
    # No partial files may survive a contained failure.
    assert not list(out_dir.glob("*.vxa-partial"))


# -- FaultPlan unit behaviour ------------------------------------------------------


def test_plan_serialisation_round_trip():
    """A plan reaches process workers pickled inside ``ReadOptions``."""
    plan = FaultPlan(specs=(
        FaultSpec(member="a", kind=KIND_KILL_WORKER, times=2),
        FaultSpec(member="b", kind=KIND_SYSCALL_ERROR, at=3),
        FaultSpec(member="c", kind=KIND_DELAY_IO, delay=0.5),
    ), seed=7, ledger="/tmp/ledger")
    assert pickle.loads(pickle.dumps(plan)) == plan
    options = vxa.ReadOptions(fault_plan=plan)
    assert pickle.loads(pickle.dumps(options)).fault_plan == plan


def test_plan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultSpec(member="a", kind="set-on-fire")


def test_corrupt_is_deterministic_and_changes_payload():
    plan = FaultPlan(specs=(FaultSpec(member="m", kind=KIND_CORRUPT_PAYLOAD),),
                     seed=42)
    payload = bytes(range(256)) * 4
    first = plan.corrupt("m", payload)
    assert first != payload
    assert first == plan.corrupt("m", payload)
    assert plan.corrupt("other", payload) == payload
    # A different seed flips a different position or value.
    other = FaultPlan(specs=(FaultSpec(member="m", kind=KIND_CORRUPT_PAYLOAD),),
                      seed=43)
    assert other.corrupt("m", payload) != first


def test_corrupt_vxbwt_member_is_contained_in_auto_mode(tmp_path):
    # A flipped payload byte of a natively decoded vxbwt member -- most often
    # one that sends its LF walk back to the primary row early -- fails that
    # member with a CodecError; under on_error="skip" its sibling extracts.
    text = synthetic_source_tree_bytes(3000, seed=1)[:3000]
    path = tmp_path / "a.zip"
    with vxa.create(path) as builder:
        builder.add("a.txt", text, codec="vxbwt")
        builder.add("b.txt", text, codec="vxz")
    messages = []
    for seed in range(6):
        plan = FaultPlan(specs=(FaultSpec("a.txt", KIND_CORRUPT_PAYLOAD),), seed=seed)
        out = tmp_path / f"out{seed}"
        with vxa.open(path, vxa.ReadOptions(on_error="skip", fault_plan=plan)) as archive:
            report = archive.extract_into(out)
        assert [(failure.name, failure.error_type) for failure in report.failures] == [
            ("a.txt", "CodecError")]
        messages.append(report.failures[0].message)
        assert [record.name for record in report] == ["b.txt"]
        assert sorted(item.name for item in out.iterdir()) == ["b.txt"]
        assert (out / "b.txt").read_bytes() == text
    assert "BWT walk returns to the primary row early" in messages


def test_fuel_and_syscall_defaults():
    plan = FaultPlan(specs=(
        FaultSpec(member="f", kind=KIND_EXHAUST_FUEL),
        FaultSpec(member="s", kind=KIND_SYSCALL_ERROR),
    ))
    assert plan.fuel_limit("f") == DEFAULT_FUEL
    assert plan.syscall_fault_at("s") == 1
    assert plan.fuel_limit("s") is None
    assert plan.syscall_fault_at("f") is None


def test_bounded_claims_with_ledger_survive_plan_copies(tmp_path):
    spec = FaultSpec(member="m", kind=KIND_KILL_WORKER, times=2)
    plan = FaultPlan(specs=(spec,), ledger=str(tmp_path / "ledger"))
    # A pickled copy (as a process worker would hold) shares the ledger.
    twin = pickle.loads(pickle.dumps(plan))
    assert plan._claim(spec) is True
    assert twin._claim(spec) is True
    assert plan._claim(spec) is False
    assert twin._claim(spec) is False


def test_unbounded_specs_always_fire():
    plan = FaultPlan(specs=(FaultSpec(member="m", kind=KIND_EXHAUST_FUEL),))
    for _ in range(5):
        assert plan.fuel_limit("m") == DEFAULT_FUEL


# -- every exception survives the worker pickle boundary ---------------------------

_SAMPLES = {
    MemoryFault: lambda cls: cls(0xdeadbeef, 4, "write"),
    InvalidInstructionError: lambda cls: cls(
        "bad opcode", offset=0x40, reason="opcode"),
    VxcSyntaxError: lambda cls: cls("unexpected token", line=3, column=9),
    DeadlineExceeded: lambda cls: cls(
        "too slow", deadline=1.5, instructions=123456),
    WorkerCrashed: lambda cls: cls("boom", member="m.txt", worker=2),
}


def _all_error_classes():
    seen = []
    stack = [VxaError]
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(set(seen), key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _all_error_classes(),
                         ids=lambda cls: cls.__name__)
def test_every_error_pickles_round_trip(cls):
    build = _SAMPLES.get(cls, lambda c: c("synthetic failure"))
    original = build(cls)
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert str(clone) == str(original)
    assert clone.args == original.args
    assert clone.__dict__ == original.__dict__


def test_error_walk_is_exhaustive():
    names = {cls.__name__ for cls in _all_error_classes()}
    # Spot-check that the walk spans every module contributing errors.
    assert {"VxaError", "MemoryFault", "DeadlineExceeded", "WorkerCrashed",
            "FaultPlanError", "IntegrityError"} <= names


# -- serial salvage ----------------------------------------------------------------

_INJECTED = {
    "file1.txt": KIND_CORRUPT_PAYLOAD,
    "file3.txt": KIND_EXHAUST_FUEL,
    "file4.txt": KIND_SYSCALL_ERROR,
}

_EXPECTED_ERRORS = {
    "file1.txt": "IntegrityError",
    "file3.txt": "ResourceLimitExceeded",
    "file4.txt": "InjectedFault",
}


def _fault_plan(**kwargs) -> FaultPlan:
    return FaultPlan(specs=tuple(
        FaultSpec(member=member, kind=kind)
        for member, kind in _INJECTED.items()), **kwargs)


@pytest.mark.parametrize("engine", ["translator", "interpreter"])
def test_serial_salvage_quarantines_exactly_injected_members(
        archive_bytes, clean_outputs, tmp_path, engine):
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, engine=engine,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              fault_plan=_fault_plan())
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path)
    assert {failure.name for failure in report.failures} == set(_INJECTED)
    assert sorted(report.quarantined) == sorted(_INJECTED)
    for failure in report.failures:
        assert failure.error_type == _EXPECTED_ERRORS[failure.name]
        assert failure.offset is not None
    assert {record.name for record in report} == (
        {f"file{i}.txt" for i in range(MEMBERS)} - set(_INJECTED))
    _assert_survivors_identical(report, tmp_path, clean_outputs)


def test_serial_abort_raises_first_failure(archive_bytes, tmp_path):
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, fault_plan=_fault_plan())
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        with pytest.raises(VxaError):
            archive.extract_into(tmp_path)


def test_serial_skip_records_without_quarantine(archive_bytes, tmp_path):
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, on_error=vxa.ON_ERROR_SKIP,
                              fault_plan=_fault_plan())
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path)
    assert {failure.name for failure in report.failures} == set(_INJECTED)
    assert report.quarantined == []


def test_serial_kill_worker_is_contained(archive_bytes, clean_outputs,
                                         tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER),))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path)
    assert report.quarantined == ["file2.txt"]
    assert report.failures[0].error_type == "WorkerCrashed"
    _assert_survivors_identical(report, tmp_path, clean_outputs)


# -- parallel salvage: the jobs x executor x engine matrix -------------------------


@pytest.mark.parametrize("engine", ["translator", "interpreter"])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_thread_salvage_matrix(archive_bytes, clean_outputs, tmp_path,
                               jobs, engine):
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, engine=engine,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              jobs=jobs, executor="thread",
                              fault_plan=_fault_plan())
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path)
    assert {failure.name for failure in report.failures} == set(_INJECTED)
    assert sorted(report.quarantined) == sorted(_INJECTED)
    _assert_survivors_identical(report, tmp_path, clean_outputs)


@pytest.mark.parametrize("engine,jobs", [("translator", 2),
                                         ("interpreter", 4)])
def test_process_salvage(archive_bytes, clean_outputs, tmp_path, engine,
                         jobs):
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, engine=engine,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              jobs=jobs, executor="process",
                              fault_plan=_fault_plan(
                                  ledger=str(tmp_path / "ledger")))
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path / "out")
    assert {failure.name for failure in report.failures} == set(_INJECTED)
    _assert_survivors_identical(report, tmp_path / "out", clean_outputs)


def test_the_process_pool_boundary_is_transparent(archive_bytes, tmp_path):
    """A process-pool extraction hands back what the serial one builds: every
    field of every record, every field of every failure but the shard worker
    id, the decode count, and the check's verdicts."""
    runs, workers = [], []
    out = tmp_path / "out"
    for jobs, executor in ((1, "thread"), (2, "process")):
        options = vxa.ReadOptions(mode=vxa.MODE_VXA,
                                  on_error=vxa.ON_ERROR_QUARANTINE,
                                  jobs=jobs, executor=executor,
                                  fault_plan=_fault_plan())
        with vxa.open(io.BytesIO(archive_bytes), options) as archive:
            report = archive.extract_into(out)
            decodes = archive.session.stats.decodes
            check = archive.check()
        shutil.rmtree(out)
        workers.append({failure.worker for failure in report.failures})
        runs.append((list(report),
                     [dataclasses.replace(failure, worker=None)
                      for failure in report.failures],
                     decodes,
                     (check.checked, check.passed, check.failures)))
    serial, pooled = runs
    assert workers[0] == {None} and None not in workers[1]   # it did shard
    assert len(serial[0]) == MEMBERS - len(_INJECTED)
    assert len(serial[1]) == len(_INJECTED)
    assert pooled == serial


# -- worker crash recovery ---------------------------------------------------------


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_single_kill_is_retried_and_recovered(archive_bytes, clean_outputs,
                                              tmp_path, executor):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER, times=1),),
        ledger=str(tmp_path / "ledger"))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              jobs=2, executor=executor, fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path / "out")
    assert report.failures == []
    assert {record.name for record in report} == {
        f"file{i}.txt" for i in range(MEMBERS)}
    _assert_survivors_identical(report, tmp_path / "out", clean_outputs)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_repeat_killer_is_quarantined(archive_bytes, clean_outputs,
                                      tmp_path, executor):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER, times=3),),
        ledger=str(tmp_path / "ledger"))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA,
                              on_error=vxa.ON_ERROR_QUARANTINE,
                              jobs=2, executor=executor, fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.extract_into(tmp_path / "out")
    assert report.quarantined == ["file2.txt"]
    [failure] = report.failures
    assert failure.error_type == "WorkerCrashed"
    assert failure.attempts == 2  # shard attempt + one lone retry
    assert {record.name for record in report} == (
        {f"file{i}.txt" for i in range(MEMBERS)} - {"file2.txt"})
    _assert_survivors_identical(report, tmp_path / "out", clean_outputs)


def test_check_recovers_from_worker_crash(archive_bytes, tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER, times=1),),
        ledger=str(tmp_path / "ledger"))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=2, executor="thread",
                              fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.check()
    assert report.checked == MEMBERS
    assert report.passed == MEMBERS
    assert report.failures == []


def test_check_closes_its_session_when_a_worker_crashes(
        archive_bytes, tmp_path, monkeypatch):
    # A thread shard's check re-raises the injected crash to its pool; the
    # dedicated session it built must still be closed (VMs reset, store
    # saved), like every other session the check and its workers build.
    from repro.api.session import DecoderSession

    built, closed = [], []
    real_init, real_close = DecoderSession.__init__, DecoderSession.close

    def spy_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def spy_close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(DecoderSession, "__init__", spy_init)
    monkeypatch.setattr(DecoderSession, "close", spy_close)
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER, times=1),),
        ledger=str(tmp_path / "ledger"))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=2, executor="thread",
                              fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.check()
    assert report.ok and report.checked == MEMBERS
    assert built
    assert [session for session in built if session not in closed] == []


def test_check_quarantines_repeat_killer(archive_bytes, tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER, times=5),),
        ledger=str(tmp_path / "ledger"))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=2, executor="thread",
                              fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        report = archive.check()
    assert report.checked == MEMBERS
    assert report.passed == MEMBERS - 1
    assert len(report.failures) == 1
    assert report.failures[0].startswith("file2.txt:")


def test_abort_mode_propagates_crash(archive_bytes, tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file2.txt", kind=KIND_KILL_WORKER),))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=2, executor="thread",
                              fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        with pytest.raises(WorkerCrashed):
            archive.extract_into(tmp_path)


def test_injected_syscall_fault_names_the_call(archive_bytes, tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file0.txt", kind=KIND_SYSCALL_ERROR, at=2),))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        with pytest.raises(InjectedFault, match="system call #2"):
            archive.extract("file0.txt")


def test_exhaust_fuel_fires_resource_limit(archive_bytes, tmp_path):
    plan = FaultPlan(specs=(
        FaultSpec(member="file0.txt", kind=KIND_EXHAUST_FUEL, at=50),))
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, fault_plan=plan)
    with vxa.open(io.BytesIO(archive_bytes), options) as archive:
        with pytest.raises(ResourceLimitExceeded):
            archive.extract("file0.txt")
