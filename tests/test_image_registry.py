"""One analysis and one translation per decoder image per process.

``repro.vm.images`` keeps, by the SHA-256 of the image bytes loaded, the
parsed image, its analysis report and one ``CodeCache`` per translator
configuration.  These tests count *calls* -- ``_verify_parsed`` and
``Translator.translate`` wrapped -- never clocks: the second and every later
session over an image the process has seen performs none of either, for
``extract_into``, ``check`` and vxserve alike, and two configurations that
would translate differently never meet in one cache.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

import repro.analysis.verify as verify
import repro.api as vxa
import repro.vm.images as images
from repro.api.options import EXECUTOR_THREAD
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.errors import MemoryFault
from repro.parallel.service import BatchService
from repro.vm.code_cache import CodeCache
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import VirtualMachine
from repro.vm.memory import CHECK_WRITE_ONLY
from repro.vm.translator import Translator
from repro.workloads import synthetic_log_bytes

from tests.conftest import build_asm

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

        # The process has seen the images under the service's configuration
        # (its caches are capped).  One serial read: two workers meeting on a
        # new image may each analyse it, see ``repro.vm.images``.
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


# -- what may share a cache, and what may not ---------------------------------------


def _session_cache(image: bytes, options: vxa.ReadOptions, **vm_fields) -> CodeCache:
    """The cache a session under ``options`` hands its VM for ``image``."""
    session = vxa.DecoderSession(lambda offset: image, options, ExecutionLimits())
    session.decode(0, b"")
    (vm,) = session._vms.values()
    for name, value in vm_fields.items():       # knobs ReadOptions does not carry
        setattr(vm, name, value)
        vm.share_code_cache(options.code_cache_limit)
    return vm.code_cache


@pytest.mark.parametrize("field,value", [
    ("superblock_limit", 1),
    ("chain_fragments", False),
    ("analysis_elision", False),      # proved guards dropped, or kept
    ("code_cache_limit", 7),
])
def test_every_translator_input_is_part_of_the_cache_key(
        echo_decoder_image, field, value):
    base = _session_cache(echo_decoder_image, SHARED)
    assert _session_cache(echo_decoder_image, SHARED) is base
    assert getattr(SHARED, field) != value
    other = _session_cache(echo_decoder_image,
                           SHARED.with_changes(**{field: value}))
    assert other is not base and other.shared


def test_check_policy_and_fragment_cache_use_are_part_of_the_cache_key(
        echo_decoder_image):
    base = _session_cache(echo_decoder_image, SHARED)
    assert _session_cache(echo_decoder_image, SHARED,
                          _check_policy=CHECK_WRITE_ONLY) is not base
    assert _session_cache(echo_decoder_image, SHARED,
                          use_fragment_cache=False) is not base


def test_elision_is_keyed_on_whether_it_applies_not_on_the_request():
    """An image the analysis calls unsafe keeps every guard whatever
    ``analysis_elision`` says, so both settings translate alike and share."""
    hostile = build_asm("_start:\n    movi r1, 0x7ffffff0\n    st32 [r1], r1\n"
                        "    halt\n")
    assert not verify.verify_image(hostile).ok
    kept = SHARED.with_changes(analysis_elision=False)
    session = vxa.DecoderSession(lambda offset: hostile, SHARED, ExecutionLimits())
    with pytest.raises(MemoryFault):
        session.decode(0, b"")
    other = vxa.DecoderSession(lambda offset: hostile, kept, ExecutionLimits())
    with pytest.raises(MemoryFault):
        other.decode(0, b"")
    assert session._vms[0].code_cache is other._vms[0].code_cache


def test_always_fresh_and_bare_vms_keep_private_caches(echo_decoder_image):
    shared = _session_cache(echo_decoder_image, SHARED)
    fresh = _session_cache(echo_decoder_image,
                           SHARED.with_changes(reuse=VmReusePolicy.ALWAYS_FRESH))
    bare = VirtualMachine(echo_decoder_image).code_cache
    assert not fresh.shared and not bare.shared
    assert len({id(shared), id(fresh), id(bare)}) == 3


def test_an_explicit_code_cache_is_used_as_given(echo_decoder_image, work):
    given = CodeCache(shared=True, limit=5)
    vm = VirtualMachine(echo_decoder_image, code_cache=given)
    assert vm.code_cache is given
    assert vm.decode(b"abc").output == b"abc"
    assert given.misses == work["translations"] > 0
    # Its translations are its own; the report is still the image's.
    assert vm.analysis_report is verify.verify_image(echo_decoder_image)
    assert work["analyses"] == 1


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
    # and the merged counters are that cache's totals: nothing translated
    # or executed went uncounted, nothing was counted twice.
    assert parallel.fragments_translated == cache.misses == work["translations"]
    assert parallel.cache_hits == cache.hits
    assert parallel.chained_branches == cache.chained_branches
    assert parallel.retranslations == cache.retranslations


def test_many_threads_on_one_shared_cache_lose_no_update(echo_decoder_image):
    """More threads than cores, a short switch interval, one shared cache:
    every output is right and the cache's totals are exactly the sum of the
    runs' (a lost counter merge or a wrong back-patched link would show)."""
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
    assert cache.misses == sum(run.fragments_translated for run in stats)
    assert cache.hits == sum(run.fragment_cache_hits for run in stats)
    assert cache.chained_branches == sum(run.chained_branches for run in stats)
    assert cache.hits + cache.misses == sum(run.blocks_executed for run in stats)
    assert len({run.instructions for run in stats}) == 1
