"""One analysis and one translation per decoder image per process.

``repro.vm.images`` keeps, by the SHA-256 of the image bytes loaded, the
parsed image, its analysis report and one ``CodeCache`` per translator
configuration.  These tests count *calls* -- ``_verify_parsed`` and
``Translator.translate`` wrapped -- never clocks: the second and every later
session over an image the process has seen performs none of either, for
``extract_into``, ``check`` and vxserve alike and under every reuse policy,
two configurations that would translate differently never meet in one cache,
and no sequence of facade or wire options gives an image more than two.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import threading

import pytest

import repro.analysis.verify as verify
import repro.api as vxa
import repro.vm.images as images
from repro.api.options import EXECUTOR_THREAD
from repro.codecs.registry import CodecRegistry
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.errors import MemoryFault
from repro.parallel.service import _OPTION_FIELDS, BatchService
from repro.vm.code_cache import CodeCache
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import VirtualMachine
from repro.vm.memory import CHECK_WRITE_ONLY
from repro.vm import translator
from repro.vm.translator import Translator
from repro.workloads import synthetic_log_bytes

from tests.conftest import SELF_PATCHING_DECODER, build_asm

SHARED = vxa.ReadOptions(mode=vxa.MODE_VXA,
                         reuse=VmReusePolicy.REUSE_SAME_ATTRIBUTES)


@pytest.fixture(autouse=True)
def cold_process():
    """Start cold, then leave the table alone: what a warm process shares is
    the subject here (overrides the per-open emptying in ``conftest.py``)."""
    images.forget_images()


@pytest.fixture()
def work(monkeypatch):
    """Counts of the two computations the registry exists to spare."""
    counts = {"analyses": 0, "translations": 0}
    analyse, translate = verify._verify_parsed, Translator.translate

    def counted_analysis(image, digest):
        counts["analyses"] += 1
        return analyse(image, digest)

    def counted_translation(self, entry):
        counts["translations"] += 1
        return translate(self, entry)

    monkeypatch.setattr(verify, "_verify_parsed", counted_analysis)
    monkeypatch.setattr(Translator, "translate", counted_translation)
    return counts


@pytest.fixture(scope="module")
def members() -> dict:
    """Two decoders, protection domains that alternate (so sandboxes are
    re-initialised mid-session), and a raw member that needs no VM."""
    contents = {}
    for index in range(4):
        contents[f"z{index}.txt"] = (
            synthetic_log_bytes(800 + 50 * index, seed=index), "vxz",
            SecurityAttributes(owner=index % 2))
    for index in range(3):
        contents[f"b{index}.txt"] = (
            synthetic_log_bytes(700 + 40 * index, seed=30 + index), "vxbwt",
            SecurityAttributes(owner=index))
    contents["raw.bin"] = (bytes(range(256)), None, SecurityAttributes())
    return contents


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, members):
    path = tmp_path_factory.mktemp("registry") / "mixed.zip"
    with vxa.create(path) as builder:
        for name, (data, codec, attributes) in members.items():
            if codec is None:
                builder.add(name, data, store_raw=True, attributes=attributes)
            else:
                builder.add(name, data, codec=codec, attributes=attributes)
    return path


def archive_image(archive_path, member: str = "z0.txt") -> bytes:
    with vxa.open(archive_path) as archive:
        return archive.decoder_image_for(member)


def _extract(archive_path, out, options=SHARED,
             names=None) -> tuple[dict, vxa.SessionStats]:
    with vxa.open(archive_path, options) as archive:
        archive.extract_into(out, names)
        stats = archive.session.stats
    return ({path.name: path.read_bytes() for path in out.iterdir()},
            dataclasses.replace(stats))


# -- the second session does none of the work ------------------------------------


def test_second_open_analyses_and_translates_nothing(archive_path, members,
                                                     tmp_path, work):
    first, cold = _extract(archive_path, tmp_path / "first")
    assert work["analyses"] == 2 and work["translations"] > 0
    assert cold.fragments_translated == work["translations"]
    spent = dict(work)
    second, warm = _extract(archive_path, tmp_path / "second")
    assert work == spent
    assert second == first == {name: data for name, (data, _, _) in members.items()}
    # The counters are the work *this* session performed: none, all hits.
    assert (warm.fragments_translated, warm.retranslations,
            warm.guards_elided) == (0, 0, 0)
    assert warm.cache_hits > 0 and warm.chained_branches > 0
    assert warm.images_verified == cold.images_verified == 2
    assert warm.vm_initialisations == cold.vm_initialisations > 2


def test_check_after_an_extract_analyses_and_translates_nothing(
        archive_path, tmp_path, work):
    with vxa.open(archive_path, SHARED) as archive:
        archive.extract_into(tmp_path / "out")
        spent = dict(work)
        report = archive.check()
    assert report.ok and report.checked == 7
    assert work == spent
    assert report.fragments_translated == 0 and report.cache_hits > 0
    assert report.images_verified == 2


def test_vxserve_extract_and_check_reuse_what_the_process_has(
        archive_path, members, tmp_path, work):
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    try:
        def request(op, **fields):
            response = service.handle({"op": op, "archive": str(archive_path),
                                       "mode": vxa.MODE_VXA, **fields})
            assert response["ok"], response
            return response["result"]

        # The process has seen the images under the service's configuration.
        # One serial read: two workers meeting on a new image may each
        # analyse it, see ``repro.vm.images``.
        _extract(archive_path, tmp_path / "seen",
                 service.options.with_changes(mode=vxa.MODE_VXA))
        spent = dict(work)
        assert spent["analyses"] == 2 and spent["translations"] > 0
        request("extract", dest=str(tmp_path / "again"))
        checked = request("check")
    finally:
        service.close()
    assert work == spent
    assert checked["passed"] == 7 and checked["fragments_translated"] == 0
    assert checked["cache_hits"] > 0
    for name, (data, _, _) in members.items():
        assert (tmp_path / "again" / name).read_bytes() == data


def test_every_reuse_policy_translates_each_image_once(archive_path, members,
                                                       tmp_path, work):
    """The policy decides when a sandbox is re-initialised, never whether
    code is kept: a cold pass translates the same under ``ALWAYS_FRESH`` as
    under ``REUSE_SAME_ATTRIBUTES``, a second pass nothing under any."""
    expected = {name: data for name, (data, _, _) in members.items()}
    decoded = sum(codec is not None for _, codec, _ in members.values())
    cold = {}
    for policy in VmReusePolicy:
        options = SHARED.with_changes(reuse=policy)
        images.forget_images()
        work.update(analyses=0, translations=0)
        tree, cold[policy] = _extract(archive_path, tmp_path / f"cold-{policy.value}",
                                      options)
        assert tree == expected
        assert cold[policy].fragments_translated == work["translations"] > 0
        tree, warm = _extract(archive_path, tmp_path / f"warm-{policy.value}",
                              options)
        assert tree == expected
        assert (warm.fragments_translated, warm.retranslations) == (0, 0)
        assert cold[policy].retranslations == 0
        assert work["translations"] == cold[policy].fragments_translated
    assert len({stats.fragments_translated for stats in cold.values()}) == 1
    fresh, shared = cold[VmReusePolicy.ALWAYS_FRESH], cold[VmReusePolicy.ALWAYS_REUSE]
    assert (fresh.vm_initialisations, fresh.vm_reuses) == (decoded, 0)
    assert (shared.vm_initialisations, shared.vm_reuses) == (2, decoded - 2)


# -- what may share a cache, and what may not ---------------------------------------


def _session_cache(image: bytes, options: vxa.ReadOptions) -> CodeCache:
    """The cache a session under ``options`` hands its VM for ``image``."""
    session = vxa.DecoderSession(lambda offset: image, options, ExecutionLimits())
    session.decode(0, b"")
    (vm,) = session._vms.values()
    return vm.code_cache


@pytest.mark.parametrize("field,value", [
    ("superblock_limit", 1),
    ("check_policy", CHECK_WRITE_ONLY),
    ("analysis_elision", False),      # proved guards dropped, or kept
])
def test_every_translator_input_is_part_of_the_cache_key(
        echo_decoder_image, field, value):
    base = _session_cache(echo_decoder_image, SHARED)
    assert _session_cache(echo_decoder_image, SHARED) is base
    # A VirtualMachine keyword, not a session option: set where it lives.
    assert field not in vxa.ReadOptions.__dataclass_fields__
    vm = VirtualMachine(echo_decoder_image, **{field: value})
    vm.share_code_cache()
    assert vm.code_cache is not base


def test_elision_is_keyed_on_whether_it_applies_not_on_the_request():
    """An image the analysis calls unsafe keeps every guard whatever
    ``analysis_elision`` says, so both settings translate alike and share."""
    hostile = build_asm("_start:\n    movi r1, 0x7ffffff0\n    st32 [r1], r1\n"
                        "    halt\n")
    assert not verify.verify_image(hostile).ok
    session = vxa.DecoderSession(lambda offset: hostile, SHARED, ExecutionLimits())
    with pytest.raises(MemoryFault):
        session.decode(0, b"")
    kept = VirtualMachine(hostile, analysis_elision=False)
    kept.share_code_cache()
    with pytest.raises(MemoryFault):
        kept.decode(b"")
    assert session._vms[0].code_cache is kept.code_cache


def test_every_policy_shares_the_image_cache_and_a_bare_vm_keeps_its_own(
        echo_decoder_image):
    caches = [_session_cache(echo_decoder_image, SHARED.with_changes(reuse=policy))
              for policy in VmReusePolicy]
    assert caches[0] is caches[1] is caches[2]
    (record_cache,) = images.image_record(echo_decoder_image)._caches.values()
    assert caches[0] is record_cache
    bare = VirtualMachine(echo_decoder_image)
    assert bare.code_cache is not record_cache and len(bare.code_cache) == 0
    assert len(images.image_record(echo_decoder_image)._caches) == 1


@pytest.mark.parametrize("engine", ["translator", "interpreter"])
def test_always_fresh_sessions_share_code_and_run_what_was_archived(engine):
    """What the sharing rests on, at the session: under the default policy
    every member, and a second session over the image, runs the archived
    instruction -- not the one an earlier member stored over it."""
    image = build_asm(SELF_PATCHING_DECODER)
    options = vxa.ReadOptions(engine=engine)
    assert options.reuse is VmReusePolicy.ALWAYS_FRESH
    outputs, caches = [], []
    for _ in range(2):
        session = vxa.DecoderSession(lambda offset: image, options,
                                     ExecutionLimits())
        for encoded in (struct.pack("<II", 1, 0xDEADBEEF), bytes(8)):
            outputs.append(session.decode(0, encoded).output.hex())
        assert (session.stats.vm_initialisations, session.stats.vm_reuses) == (2, 0)
        caches.append(session._vms[0].code_cache)
    assert outputs == ["11111111"] * 4
    (record_cache,) = images.image_record(image)._caches.values()
    assert caches[0] is caches[1] is record_cache


def test_an_explicit_code_cache_is_used_as_given(echo_decoder_image, work):
    given = CodeCache()
    vm = VirtualMachine(echo_decoder_image, code_cache=given)
    assert vm.code_cache is given
    assert vm.decode(b"abc").output == b"abc"
    assert len(given) == work["translations"] > 0
    # Its translations are its own; the report is still the image's.
    assert vm.analysis_report is verify.verify_image(echo_decoder_image)
    assert work["analyses"] == 1


#: Values swept per request field: every field vxserve reads into
#: ``ReadOptions``, the reuse policy, and five names it used to read and now
#: ignores like any unknown field.
_WIRE_SWEEP = {
    "mode": ["auto", "native", "vxa"],
    "force_decode": [True, False],
    "engine": ["interpreter", "translator"],
    "chunk_size": [512, 1 << 16],
    "verify_images": ["off", "warn", "reject"],
    "analysis_elision": [False, True],
    "on_error": ["abort", "skip", "quarantine"],
    "retries": [0, 3],
    "member_deadline": [30.0, None],
    "on_damage": ["salvage", "reject"],
    "durable_output": [False, True],
    "reuse": [policy.value for policy in VmReusePolicy],
    "code_cache_limit": [1, 7, 64, 4096],
    "superblock_limit": [1, 2, 5, 40],
    "chain_fragments": [False, True],
}
_IGNORED_ON_THE_WIRE = {"code_cache_limit", "superblock_limit", "chain_fragments",
                        "chunk_size", "analysis_elision"}


def test_no_request_sequence_gives_an_image_more_than_two_caches(tmp_path):
    assert set(_WIRE_SWEEP) == set(_OPTION_FIELDS) | {"reuse"} | _IGNORED_ON_THE_WIRE
    assert not _IGNORED_ON_THE_WIRE & set(vxa.ReadOptions.__dataclass_fields__)
    data = synthetic_log_bytes(600, seed=5)
    path = tmp_path / "one.zip"
    with vxa.create(path) as builder:
        builder.add("one.txt", data, codec="vxz")
    # One field at a time over the archived decoder, then everything that
    # decides whether guards are elided against everything ignored, crossed.
    requests = [{field: value} for field, values in _WIRE_SWEEP.items()
                for value in values]
    requests += [{"engine": engine, "verify_images": verify_images,
                  "analysis_elision": elision, "code_cache_limit": cap,
                  "superblock_limit": cap, "chain_fragments": elision}
                 for engine in _WIRE_SWEEP["engine"]
                 for verify_images in ("off", "reject")
                 for elision in (False, True)
                 for cap in (3, 9)]
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    try:
        for number, fields in enumerate(requests):
            dest = tmp_path / f"out-{number}"
            response = service.handle({"op": "extract", "archive": str(path),
                                       "dest": str(dest),
                                       "mode": vxa.MODE_VXA, **fields})
            assert response["ok"], (fields, response)
            assert (dest / "one.txt").read_bytes() == data, fields
    finally:
        service.close()
    (record,) = images._RECORDS.values()
    assert 1 <= len(record._caches) <= 2
    assert {config[:2] for config in record._caches} == {("full", None)}


def test_compile_memo_serves_runtime_code_shared_across_images(monkeypatch):
    """What ``_CODE_MEMO`` is kept for: *different* bundled decoders emit
    identical source for the runtime code they link at equal addresses, so
    the second one compiles fewer sources than it translates fragments."""
    from repro.codecs.registry import default_registry

    compiled = []
    monkeypatch.setattr(translator, "compile",
                        lambda *args: compiled.append(args[1]) or compile(*args),
                        raising=False)
    monkeypatch.setattr(translator, "_CODE_MEMO", {})     # cold, for this test
    data = synthetic_log_bytes(600, seed=6)
    counts = {}
    for name in ("vxz", "vxbwt"):
        codec = default_registry().get(name)
        before = len(compiled)
        result = VirtualMachine(codec.guest_decoder_image()).decode(codec.encode(data))
        assert result.output == data
        counts[name] = (result.stats.fragments_translated, len(compiled) - before)
    assert counts["vxz"][1] == counts["vxz"][0] > 0       # nothing to share yet
    assert 0 < counts["vxbwt"][1] < counts["vxbwt"][0]


# -- records ----------------------------------------------------------------------


def test_an_image_differing_in_one_byte_gets_its_own_record(echo_decoder_image):
    twin = bytearray(echo_decoder_image)
    twin[-1] ^= 1                      # last byte of the 4096-byte data buffer
    twin = bytes(twin)
    first = images.image_record(echo_decoder_image)
    other = images.image_record(twin)
    assert first is images.image_record(bytes(echo_decoder_image))
    assert other is not first and other.digest != first.digest
    assert other.analysis() is not first.analysis()
    assert _session_cache(twin, SHARED) is not _session_cache(echo_decoder_image,
                                                              SHARED)


def test_the_key_is_computed_from_the_bytes_loaded(echo_decoder_image):
    import hashlib

    record = images.image_record(echo_decoder_image)
    assert record.digest == hashlib.sha256(echo_decoder_image).hexdigest()
    assert record.analysis().image_sha256 == record.digest
    assert record.image.text[2] is record.image.text[2]      # built once
    assert isinstance(record.image.text[2], bytes)


def test_least_recently_used_record_is_forgotten_and_its_vm_keeps_decoding(
        monkeypatch, work):
    monkeypatch.setattr(images, "IMAGE_LIMIT", 3)

    def image(tag: int) -> bytes:
        return build_asm(f"_start:\n    movi r1, {tag}\n    movi r0, 0\n    vxcall\n")

    session = vxa.DecoderSession(lambda offset: image(offset), SHARED,
                                 ExecutionLimits())
    assert session.decode(0, b"").exit_code == 0
    oldest = images.image_record(image(0))
    images.image_record(image(1))
    images.image_record(image(0))          # touched: 1 is now the oldest
    images.image_record(image(2))
    images.image_record(image(3))          # over the bound: 1 goes
    assert len(images._RECORDS) == 3
    assert images.image_record(image(0)) is oldest
    images.image_record(image(4))          # 2 goes
    images.image_record(image(5))          # 3 goes
    images.image_record(image(6))          # 0 goes
    assert images.image_record(image(0)) is not oldest
    # The session's VM still holds the forgotten record and its cache.
    translated = work["translations"]
    assert session.decode(0, b"").exit_code == 0
    assert work["translations"] == translated


def test_an_image_too_large_to_pin_gets_a_private_record(work):
    """The table outlives archives and sessions, so it takes small images
    only; a large one is parsed and analysed per VM, as before the table."""
    large = build_asm("_start:\n    movi r0, 0\n    movi r1, 0\n    vxcall\n"
                      f".data\nfiller:\n    .space {images.IMAGE_BYTES_LIMIT}\n")
    first, second = images.image_record(large), images.image_record(large)
    assert first is not second and not images._RECORDS
    for _ in range(2):
        assert VirtualMachine(large).decode(b"").exit_code == 0
    assert work["analyses"] == 2


# -- threads ----------------------------------------------------------------------


def test_thread_workers_share_one_cache_and_match_serial(
        archive_path, members, tmp_path, work):
    # One decoder, two workers: the scheduler splits the group, so both
    # threads run the same image at once.
    names = [name for name in members if name.startswith("z")]
    serial_bytes, serial = _extract(archive_path, tmp_path / "serial", names=names)
    images.forget_images()
    work.update(analyses=0, translations=0)
    parallel_bytes, parallel = _extract(
        archive_path, tmp_path / "parallel", names=names,
        options=SHARED.with_changes(jobs=2, executor=EXECUTOR_THREAD))
    assert parallel_bytes == serial_bytes
    assert (parallel.decodes, parallel.vm_initialisations + parallel.vm_reuses) \
        == (serial.decodes, serial.vm_initialisations + serial.vm_reuses) == (4, 4)
    assert parallel.images_verified == 2           # one VM per worker ...
    (record,) = images._RECORDS.values()
    (cache,) = record._caches.values()             # ... on one cache,
    assert work["analyses"] in (1, 2)   # (meeting on a new image may waste one)
    assert record.analysis() is verify.verify_image(archive_image(archive_path))
    # and the merged counters are the work done: no translation went
    # uncounted or was counted twice (two threads meeting on an entry may
    # both translate it, and both say so).
    assert parallel.fragments_translated == work["translations"] >= len(cache) > 0
    assert parallel.retranslations == 0
    assert parallel.cache_hits > 0 and parallel.chained_branches > 0


def test_thread_workers_meeting_on_an_unloaded_codec_match_serial(
        archive_path, members, tmp_path):
    # Native mode, a registry that has imported nothing yet: the scheduler
    # splits the one-codec group, so both threads resolve ``vxz`` at once.
    # Either may instantiate it (no lock: idempotent, last write wins); the
    # bytes are the serial ones and only the codec that was met got loaded.
    names = [name for name in members if name.startswith("z")]
    registry = CodecRegistry()
    assert registry.names[0] == "vxz" and set(registry._codecs.values()) == {None}
    native = vxa.ReadOptions(mode=vxa.MODE_NATIVE, registry=registry)
    serial_bytes, _ = _extract(archive_path, tmp_path / "serial", names=names,
                               options=native.with_changes(registry=CodecRegistry()))
    parallel_bytes, parallel = _extract(
        archive_path, tmp_path / "parallel", names=names,
        options=native.with_changes(jobs=2, executor=EXECUTOR_THREAD))
    assert parallel_bytes == serial_bytes \
        == {name: members[name][0] for name in names}
    assert parallel.decodes == 0 and not images._RECORDS      # no VM was involved
    assert [name for name, codec in registry._codecs.items()
            if codec is not None] == ["vxz"]


def test_many_threads_on_one_shared_cache_lose_no_update(echo_decoder_image):
    """More threads than cores, a short switch interval, one shared cache:
    every output is right, every run executed the same guest instructions and
    accounts for each block it ran as a hit or a translation (a lost entry or
    a wrong back-patched link would show)."""
    threads, rounds = 6, 25
    payload = bytes(range(256)) * 40
    results: list = []
    barrier = threading.Barrier(threads)

    def worker():
        session = vxa.DecoderSession(lambda offset: echo_decoder_image, SHARED,
                                     ExecutionLimits())
        barrier.wait(timeout=30)
        for _ in range(rounds):
            results.append(session.decode(0, payload))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == threads * rounds
    assert all(result.output == payload for result in results)
    (cache,) = images.image_record(echo_decoder_image)._caches.values()
    stats = [result.stats for result in results]
    # Each thread translates an entry at most once (a racy miss), the table
    # lost none of them, and every block a run executed was a hit or a miss.
    translated = sum(run.fragments_translated for run in stats)
    assert 0 < len(cache) <= translated <= threads * len(cache)
    assert all(run.cache_hits + run.fragments_translated
               == run.blocks_executed for run in stats)
    assert len({run.instructions for run in stats}) == 1
