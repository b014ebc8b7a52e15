"""The per-user image store: restored is translated, hostile is absent.

``repro.vm.store`` keeps what ``repro.vm.images`` derived from a decoder image
-- the analysis report and every fragment table -- under the image's SHA-256,
so the next *process* restores it.  Three things are pinned here:

* a store that is damaged, foreign, misowned, mis-moded or simply not there
  behaves exactly as no store: same bytes out, everything translated again,
  nothing restored, no exception -- and, where it can be written, a valid
  file afterwards;
* what is restored is what was translated: field for field, across fresh
  interpreters, for the bundled decoders and the archived images, through the
  differential suite's programs, after the table grew, and at the fault
  backstop;
* an edit to any fingerprinted source orphans every file.

The suite's store is a directory of its own (``conftest.py`` at the root);
``forget_images()`` empties it.  "Another process" is, in-process, the table
emptied with the files left in place: :func:`_new_process`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import shutil

import pytest

import repro.analysis.verify as verify
import repro.api as vxa
import repro.vm.images as images
from repro.api.session import DecoderSession
from repro.cli import unzip_main
from repro.errors import MemoryFault
from repro.vm import store
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.workloads import synthetic_log_bytes

from tests.conftest import build_asm
from tests.test_analysis import _hostile_archive, hostile_images  # noqa: F401
from tests.test_import_graph import (  # noqa: F401
    ANALYSIS_ENGINES,
    SRC,
    _fresh_outcome,
    six_decoders,
)
from tests.test_vm_differential import (
    _FAULT_PROGRAMS,
    _FORWARDING_PROGRAMS,
    _HOSTILE_POINTERS,
    _forwarding_image,
    _random_program,
)

DATA = pathlib.Path(__file__).parent / "data"
VXA_MODE = vxa.ReadOptions(mode=vxa.MODE_VXA)

#: Archived images and an input each decodes (the anecdote is a byte filter).
ARCHIVED = {
    "vxz-vxc-0.1": (DATA / "vxz-vxc-0.1.elf", DATA / "vxz-vxc-0.1.payload.vxz"),
    "vxz-vxc-0.2": (DATA / "vxz-vxc-0.2.elf", DATA / "vxz-vxc-0.1.payload.vxz"),
    "anecdote-calls-vxc-0.2": (DATA / "anecdote-calls-vxc-0.2.elf",
                               DATA / "vxz-vxc-0.1.elf"),
}


@pytest.fixture(autouse=True)
def cold_process():
    """Start on an empty table and an empty store, then leave both alone:
    what outlives the table is the subject here (overrides the per-open
    emptying in ``conftest.py``)."""
    images.forget_images()
    yield
    store._own_fingerprint.cache_clear()


def _store_dir() -> pathlib.Path:
    return pathlib.Path(os.environ["XDG_CACHE_HOME"]) / "vxa"


def _files() -> list[pathlib.Path]:
    return sorted(_store_dir().iterdir()) if _store_dir().is_dir() else []


def _new_process() -> None:
    """Forget what this process derived; the files stay."""
    with images._LOCK:
        images._RECORDS.clear()


def _extract(archive, out: pathlib.Path):
    """One ``--vxa`` extract: ``(bytes by name, the session's counters)``."""
    with vxa.open(archive, VXA_MODE) as opened:
        opened.extract_into(out)
        stats = opened.session.stats
    extracted = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    return extracted, stats


def _decode(image: bytes, encoded: bytes, **options):
    """One session over one image, closed: ``(result, counters)``."""
    session = DecoderSession(lambda offset: image, vxa.ReadOptions(**options),
                             ExecutionLimits())
    with session:
        result = session.decode(0, encoded)
    return result, session.stats


# -- a hostile or damaged store is an absent store ------------------------------------


def _chmod_directory(mode):
    return lambda monkeypatch, tmp_path: _store_dir().chmod(mode)


def _chmod_files(mode):
    def damage(monkeypatch, tmp_path):
        for path in _files():
            path.chmod(mode)
    return damage


def _symlinks(monkeypatch, tmp_path):
    for path in _files():
        copy = tmp_path / path.name
        path.rename(copy)
        path.symlink_to(copy)


def _truncate(length):
    def damage(monkeypatch, tmp_path):
        for path in _files():
            blob = path.read_bytes()
            path.write_bytes(blob[:length if length >= 0 else len(blob) + length])
    return damage


def _flip(offset):
    """One bit, ``offset`` bytes in (from the end when negative): the header
    is 42 bytes, the report comes first in the payload, code objects last."""
    def damage(monkeypatch, tmp_path):
        for path in _files():
            blob = bytearray(path.read_bytes())
            blob[offset] ^= 0x10
            path.write_bytes(bytes(blob))
    return damage


def _renamed_to(fingerprint):
    """Valid files, as a process running other code wrote them, moved to the
    names this code reads: the checksum covers the name."""
    def damage(monkeypatch, tmp_path):
        for path in _files():
            digest = path.name.split("-")[0]
            path.rename(path.with_name(f"{digest}-{fingerprint}"))
    return damage


def _cache_home_is_a_file(monkeypatch, tmp_path):
    (tmp_path / "plain-file").write_bytes(b"not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "plain-file"))


#: ``name -> (damage, is the store writable afterwards)``.
HOSTILE = {
    "directory-0755": (_chmod_directory(0o755), False),
    "directory-0777": (_chmod_directory(0o777), False),
    "directory-read-only": (_chmod_directory(0o500), False),
    "cache-home-is-a-file": (_cache_home_is_a_file, False),
    "file-0666": (_chmod_files(0o666), True),
    "file-group-writable": (_chmod_files(0o620), True),
    "symlink-to-a-valid-copy": (_symlinks, True),
    "truncated-to-nothing": (_truncate(0), True),
    "truncated-in-header": (_truncate(20), True),
    "truncated-in-payload": (_truncate(-1000), True),
    "flip-in-magic": (_flip(3), True),
    "flip-in-checksum": (_flip(30), True),
    "flip-in-report": (_flip(42 + 200), True),
    "flip-in-code-object": (_flip(-300), True),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_a_hostile_or_damaged_store_is_an_absent_store(
        case, six_decoders, tmp_path, monkeypatch):  # noqa: F811
    archive, _ = six_decoders
    damage, writable = HOSTILE[case]
    reference, first = _extract(archive, tmp_path / "reference")
    assert len(reference) == 6 and len(_files()) == 6
    assert first.fragments_translated > 0 and first.fragments_restored == 0
    try:
        damage(monkeypatch, tmp_path)
        _new_process()
        extracted, stats = _extract(archive, tmp_path / "hostile")
        assert extracted == reference
        assert stats.fragments_translated == first.fragments_translated
        assert stats.fragments_restored == 0
        _new_process()
        extracted, stats = _extract(archive, tmp_path / "after")
        assert extracted == reference
        if writable:        # the run that found damage left valid files behind
            assert stats.fragments_translated == 0
            assert stats.fragments_restored == first.fragments_translated
            assert len(_files()) == 6 and not any(p.is_symlink() for p in _files())
        else:
            assert stats.fragments_restored == 0
    finally:
        if _store_dir().is_dir():
            _store_dir().chmod(0o700)


@pytest.mark.parametrize("other", ["fingerprint", "magic-number"])
def test_files_written_by_other_code_are_never_read(
        other, six_decoders, tmp_path, monkeypatch):  # noqa: F811
    """Another translator, or another interpreter's ``marshal``: its files
    have other names, and moved to ours they fail the checksum."""
    archive, _ = six_decoders
    ours = store._own_fingerprint()
    with monkeypatch.context() as patch:
        if other == "fingerprint":
            patch.setattr(store, "_own_fingerprint", lambda: "0" * 64)
        else:
            patch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\r\n")
            store._own_fingerprint.cache_clear()
        reference, first = _extract(archive, tmp_path / "theirs")
        assert not any(path.name.endswith(ours) for path in _files())
    store._own_fingerprint.cache_clear()
    assert store._own_fingerprint() == ours
    for damage in (None, _renamed_to(ours)):
        if damage is not None:
            damage(monkeypatch, tmp_path)
        _new_process()
        extracted, stats = _extract(archive, tmp_path / "ours")
        assert extracted == reference
        assert stats.fragments_translated == first.fragments_translated
        assert stats.fragments_restored == 0
        for path in _files():       # ours now sit beside theirs; drop ours
            if path.name.endswith(ours):
                path.unlink()


def test_an_edit_to_any_fingerprinted_source_orphans_every_file(
        six_decoders, tmp_path, monkeypatch):  # noqa: F811
    """Not a version constant someone must remember to bump: the fingerprint
    is taken over the sources, so a copy agrees and an edited copy does not."""
    package = pathlib.Path(SRC) / "repro"
    copy = tmp_path / "repro"
    for name in store.FINGERPRINTED:
        shutil.copytree(package / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert sum(1 for _ in copy.rglob("*.py")) == 26
    assert store.fingerprint(copy) == store._own_fingerprint()
    edited = {}
    for source in ("vm/translator.py", "analysis/absint.py", "isa/encoding.py",
                   "elf/reader.py", "vm/store.py"):
        original = (copy / source).read_bytes()
        (copy / source).write_bytes(original + b"# one line\n")
        edited[source] = store.fingerprint(copy)
        (copy / source).write_bytes(original)
    assert len({store._own_fingerprint(), *edited.values()}) == 6
    (copy / "vm" / "renamed.py").write_bytes((copy / "vm" / "limits.py").read_bytes())
    (copy / "vm" / "limits.py").unlink()
    assert store.fingerprint(copy) != store._own_fingerprint()
    with pytest.raises(FileNotFoundError):      # not a source tree: store off
        store.fingerprint(tmp_path / "nowhere")

    archive, _ = six_decoders
    reference, first = _extract(archive, tmp_path / "before")
    _new_process()
    monkeypatch.setattr(store, "_own_fingerprint",
                        lambda: edited["vm/translator.py"])
    extracted, stats = _extract(archive, tmp_path / "after")
    assert extracted == reference
    assert stats.fragments_translated == first.fragments_translated
    assert stats.fragments_restored == 0


def test_the_store_is_bounded_and_keeps_the_newest(monkeypatch):
    monkeypatch.setattr(store, "FILE_LIMIT", 3)
    digests = [hashlib.sha256(bytes([index])).hexdigest() for index in range(5)]
    for age, digest in enumerate(digests):
        store.write(digest, (None, {}))
        written = _store_dir() / f"{digest}-{store._own_fingerprint()}"
        os.utime(written, (1_000_000 + age, 1_000_000 + age))
    store.write(digests[0], (None, {}))          # rewritten: the newest again
    assert [store.read(digest) is not None for digest in digests] \
        == [True, False, False, True, True]
    assert len(_files()) == 3


def test_what_is_never_persisted(echo_decoder_image, monkeypatch):
    """Private records -- a parsed image, an image over the size limit -- a
    bare VM's own table, and an analysis that raised."""
    from repro.elf.reader import parse_executable

    digest = hashlib.sha256(echo_decoder_image).hexdigest()
    for image in (parse_executable(echo_decoder_image), echo_decoder_image):
        vm = VirtualMachine(image)
        assert vm.decode(b"bare").output == b"bare"
        assert vm.stats.fragments_translated == len(vm.code_cache) > 0
        vm._record.save()
    # The report the second VM asked for belongs to the image's record; the
    # fragments of a bare VM are in a table of its own, in no record.
    assert store.read(digest) == (images.image_record(
        echo_decoder_image).analysis().as_dict(), {})
    images.forget_images()
    with monkeypatch.context() as patch:
        patch.setattr(images, "IMAGE_BYTES_LIMIT", 64)
        result, stats = _decode(echo_decoder_image, b"oversize")
    assert result.output == b"oversize" and stats.fragments_translated > 0
    assert _files() == []

    def refuses(image, digest):
        raise RuntimeError("analysis bug")

    _new_process()
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_verify_parsed", refuses)
        result, stats = _decode(echo_decoder_image, b"unanalysed")
    assert result.output == b"unanalysed" and stats.images_verified == 0
    report, tables = store.read(digest)
    assert report is None and len(tables) == 1      # translations, no verdict
    _new_process()
    result, stats = _decode(echo_decoder_image, b"analysed now")
    assert stats.images_verified == 1
    # The guards the report elides make another configuration, so another
    # table: nothing to restore for it, and both are in the file afterwards.
    assert stats.fragments_restored == 0 and stats.fragments_translated > 0
    report, tables = store.read(digest)
    assert report["verdict"] == "safe" and len(tables) == 2


# -- restored is translated ----------------------------------------------------------

#: Extracts the archive (if one is named) and runs each ``image:input`` pair
#: through a session of its own; prints counters, output digests and modules.
CHILD = """
import hashlib, json, pathlib, sys
import repro.api as vxa
from repro.api.session import DecoderSession
from repro.vm.limits import ExecutionLimits

archive, out, *pairs = sys.argv[1:]
outputs, stats = {}, vxa.SessionStats()
if archive:
    with vxa.open(archive, vxa.ReadOptions(mode=vxa.MODE_VXA)) as opened:
        opened.extract_into(out)
        stats.merge(opened.session.stats)
    for path in sorted(pathlib.Path(out).iterdir()):
        outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
for pair in pairs:
    image, encoded = (pathlib.Path(name).read_bytes() for name in pair.split(":"))
    with DecoderSession(lambda offset: image, vxa.ReadOptions(),
                        ExecutionLimits()) as session:
        result = session.decode(0, encoded)
    assert result.exit_code == 0, pair
    outputs[pair] = hashlib.sha256(result.output).hexdigest()
    stats.merge(session.stats)
print(json.dumps({"code": 0, "stats": stats.as_dict(), "outputs": outputs,
                  "modules": sorted(sys.modules)}))
"""


def test_a_second_interpreter_translates_and_analyses_nothing(
        six_decoders, tmp_path):  # noqa: F811
    archive, _ = six_decoders
    pairs = [f"{image}:{encoded}" for image, encoded in ARCHIVED.values()]
    first = _fresh_outcome(CHILD, archive, tmp_path / "first", *pairs)
    second = _fresh_outcome(CHILD, archive, tmp_path / "second", *pairs)
    assert len(first["outputs"]) == 9 and len(_files()) == 9
    assert second["outputs"] == first["outputs"]
    assert first["stats"]["fragments_restored"] == 0
    assert first["stats"]["fragments_translated"] > 500
    assert second["stats"]["fragments_translated"] == 0
    assert second["stats"]["retranslations"] == 0
    assert (second["stats"]["fragments_restored"]
            >= first["stats"]["fragments_translated"])
    assert second["stats"]["images_verified"] == 9      # reports were consulted
    for key in ("decodes", "guards_elided"):
        assert first["stats"][key] > 0
    assert second["stats"]["guards_elided"] == 0        # counted where translated
    assert set(ANALYSIS_ENGINES) <= set(first["modules"])
    assert not set(ANALYSIS_ENGINES) & set(second["modules"])
    # And with the store unusable the same bytes come out, the parent's way.
    _store_dir().chmod(0o755)
    try:
        third = _fresh_outcome(CHILD, archive, tmp_path / "third", *pairs)
    finally:
        _store_dir().chmod(0o700)
    assert third["outputs"] == first["outputs"]
    assert third["stats"] == first["stats"]


@pytest.fixture
def hostile_archive(hostile_images, tmp_path):  # noqa: F811
    """``test_analysis``'s archive whose decoder stores outside every sandbox."""
    path = tmp_path / "hostile.zip"
    path.write_bytes(_hostile_archive(hostile_images))
    return path, None


def _analyze(archive, capsys) -> tuple[int, str]:
    code = unzip_main(["analyze", str(archive)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fixture,decoders", [("six_decoders", 6),
                                              ("hostile_archive", 1)])
def test_analyze_prints_the_same_from_a_restored_report(
        request, capsys, monkeypatch, fixture, decoders):
    """A report keeps the tally, the unsafe sites, the proved sets and the
    stack bound -- all that ``vxunzip analyze`` prints -- so the text is the
    same whether this process computed the report or the store restored it."""
    archive, _ = request.getfixturevalue(fixture)
    computed = _analyze(archive, capsys)
    unzip_main(["check", str(archive)])       # a session's close writes
    capsys.readouterr()
    assert len(_files()) == decoders
    _new_process()

    def analysed_again(*args):
        raise AssertionError("the report was computed, not restored")

    monkeypatch.setattr(verify, "_verify_parsed", analysed_again)
    assert _analyze(archive, capsys) == computed
    assert computed[0] == (0 if decoders == 6 else 1)


def _tables(image: bytes) -> dict:
    record = images.image_record(image)
    with images._LOCK:
        return {config: dict(cache.fragments)
                for config, cache in record._caches.items()}


def _assert_restores_field_for_field(image: bytes) -> int:
    """Write happened at a session's close; restore and compare everything."""
    translated = _tables(image)
    report = images.image_record(image).analysis().as_dict()
    _new_process()
    restored = _tables(image)
    assert images.image_record(image).analysis().as_dict() == report
    assert restored.keys() == translated.keys()
    for config, fragments in translated.items():
        assert restored[config].keys() == fragments.keys()
        for entry, fragment in fragments.items():
            twin = restored[config][entry]
            assert twin is not fragment and twin.func is not fragment.func
            assert (twin.entry, twin.source, twin.instruction_count,
                    twin.exit_targets, twin.code, twin.code.co_filename) == (
                fragment.entry, fragment.source, fragment.instruction_count,
                fragment.exit_targets, fragment.code, fragment.code.co_filename)
            assert twin.code.co_filename.startswith("<vxa-fragment-0x")
    return sum(map(len, restored.values()))


@pytest.mark.parametrize("name", ARCHIVED)
def test_a_restored_table_equals_the_translated_one_and_grows(name):
    """(ii) translate, write, restore: equal field for field.  (iii) restore,
    decode something that needs new entries, write, restore: the grown table
    round-trips -- a restored fragment carries its code object."""
    from repro.codecs.registry import default_registry

    image, encoded = (path.read_bytes() for path in ARCHIVED[name])
    little = (b"" if name.startswith("anecdote")
              else default_registry().get("vxz").encode(b"abc"))
    first, stats = _decode(image, little)
    assert first.exit_code == 0 and stats.fragments_restored == 0
    held = _assert_restores_field_for_field(image)
    assert held == stats.fragments_translated > 0

    second, stats = _decode(image, encoded)     # on the restored table
    assert second.exit_code == 0 and stats.fragments_restored == held
    grown = _assert_restores_field_for_field(image)
    assert grown == held + stats.fragments_translated > held

    again, stats = _decode(image, encoded)      # restored, grown, restored
    assert (again.exit_code, again.output) == (second.exit_code, second.output)
    assert (stats.fragments_translated, stats.fragments_restored) == (0, grown)


def _run_shared(image: bytes, **vm_kwargs):
    """One run on the image's shared table (as a session's VM runs):
    everything observable, ``MemoryFault`` address included."""
    limits = ExecutionLimits(max_instructions=2_000_000)
    vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR, limits=limits,
                        **vm_kwargs)
    vm.share_code_cache()
    try:
        result = vm.decode(b"", limits=limits)
        outcome = (result.exit_code, result.output, result.stderr,
                   result.stats.instructions)
    except MemoryFault as fault:
        outcome = ("MemoryFault", fault.address)
    except Exception as error:
        outcome = type(error).__name__
    vm._record.save()
    return (outcome, list(vm.regs), tuple(vm.cc), bytes(vm.memory.buffer)), vm


def _assert_restored_agrees(image: bytes, tag, **vm_kwargs) -> None:
    translated, vm = _run_shared(image, **vm_kwargs)
    assert vm.stats.fragments_translated > 0 and vm.code_cache.restored == 0
    _new_process()
    restored, vm = _run_shared(image, **vm_kwargs)
    assert vm.code_cache.restored > 0, tag
    assert (vm.stats.fragments_translated, vm.stats.retranslations) == (0, 0), tag
    assert restored == translated, tag
    if not isinstance(translated[0], tuple) or translated[0][0] == "MemoryFault":
        return      # at a fault the engines agree on type and memory (below)
    oracle = VirtualMachine(image, engine=ENGINE_INTERPRETER,
                            limits=ExecutionLimits(max_instructions=2_000_000),
                            **{key: value for key, value in vm_kwargs.items()
                               if key == "check_policy"})
    result = oracle.decode(b"")
    assert restored == ((result.exit_code, result.output, result.stderr,
                         result.stats.instructions), list(oracle.regs),
                        tuple(oracle.cc), bytes(oracle.memory.buffer)), tag


@pytest.mark.parametrize("seed", range(64))
def test_random_programs_agree_from_a_restored_table(seed):
    image = build_asm(_random_program(seed))
    _assert_restored_agrees(image, seed)
    _assert_restored_agrees(image, seed, analysis_elision=False)


@pytest.mark.parametrize("name", _FORWARDING_PROGRAMS)
def test_forwarding_programs_agree_from_a_restored_table(name):
    _assert_restored_agrees(_forwarding_image(name), name)


@pytest.mark.parametrize("policy", ["full", "write-only", "none"])
@pytest.mark.parametrize("name", _HOSTILE_POINTERS)
def test_hostile_pointers_agree_from_a_restored_table(name, policy):
    """Where an entry guard bailed, the table holds the fragment that took
    the entry over: the restored run does not bail again."""
    body, _, faults = _HOSTILE_POINTERS[name]
    image = build_asm("_start:\n    movi r5, use\n" + body
                      + "    halt\n.data\nbuffer:\n    .space 64\n")
    sandbox = {"check_policy": policy}
    _assert_restored_agrees(image, (name, policy), **sandbox)
    if faults:      # memory at the fault is exact: stores happen in order
        oracle = VirtualMachine(image, engine=ENGINE_INTERPRETER, **sandbox)
        with pytest.raises(MemoryFault):
            oracle.decode(b"")
        assert _run_shared(image, **sandbox)[0][3] == bytes(oracle.memory.buffer)


@pytest.mark.parametrize("name,body,expected",
                         _FAULT_PROGRAMS, ids=[p[0] for p in _FAULT_PROGRAMS])
@pytest.mark.parametrize("policy", ["full", "none"])
def test_faults_agree_from_a_restored_table(name, body, expected, policy):
    """(iv) under ``none`` a wild access is caught by the backstop, which
    knows a fragment by its ``co_filename``: that must survive the file."""
    image = build_asm("_start:\n" + body)
    for restored in (False, True):
        vm = VirtualMachine(image, check_policy=policy)
        vm.share_code_cache()
        assert (vm.code_cache.restored > 0) == restored
        with pytest.raises(expected):
            vm.decode(b"")
        assert (vm.stats.fragments_translated == 0) == restored
        vm._record.save()
        _new_process()


def test_process_workers_closing_at_once_leave_one_valid_file(tmp_path):
    """(v) two worker processes, one decoder: both write the whole file to a
    name of their own and rename it into place; whichever lands, it is valid."""
    path = tmp_path / "one-decoder.zip"
    with vxa.create(path) as builder:
        for index in range(8):
            builder.add(f"m{index}.txt", synthetic_log_bytes(900, seed=index),
                        codec="vxz")
    options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=2, executor="process")
    with vxa.open(path, options) as archive:
        assert archive.check().ok
        report = archive.extract_into(tmp_path / "out")
    assert len(report) == 8 and not report.failures
    assert [path.name.startswith(".") for path in _files()] == [False]
    _new_process()
    with vxa.open(path, VXA_MODE) as archive:
        assert archive.extract("m0.txt").data == synthetic_log_bytes(900, seed=0)
        stats = archive.session.stats
    assert stats.fragments_restored > 0 and stats.fragments_translated == 0
