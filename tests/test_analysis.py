"""The static verifier: bundled decoders prove safe, hostile images don't.

Covers the acceptance criteria of the ``repro.analysis`` subsystem:

* every bundled guest decoder image verifies ``safe`` with zero unsafe
  sites and a non-trivial set of proved (guard-elidable) accesses;
* ``disassemble_for_reassembly`` round-trips every bundled image through
  the assembler byte-exactly (the CFG walker reads what really runs);
* hand-assembled hostile images (out-of-bounds store, jump into an
  instruction's interior, forbidden syscall number) are classified unsafe
  and refused by ``verify_images="reject"`` -- at the VM layer and for a
  whole archive carrying the hostile decoder;
* reports serialise (``as_dict``/``from_dict``, JSON-stable);
* the translator actually elides guards and decodes identically with and
  without elision.
"""

import dataclasses
import io
import json
import pathlib
import warnings

import pytest

from repro.analysis import VERDICT_UNSAFE, AnalysisReport, absint, verify_image
from repro.analysis.cfg import recover_cfg
from repro.api import Archive, ArchiveBuilder, MODE_VXA, ReadOptions, WriteOptions
from repro.codecs.registry import CodecRegistry
from repro.codecs.vxz import VxzCodec
from repro.elf.structures import ElfImage
from repro.errors import ImageVerificationError
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_for_reassembly
from repro.vm.loader import admit_image
from repro.vm.machine import VirtualMachine
from repro.vxc.compiler import compile_source
from repro.workloads.text import synthetic_source_tree_bytes
from tests.conftest import build_asm
from tests.test_vxc_differential import _PREAMBLE, _SHAPES, _Generator

VXC_0_1_IMAGE = pathlib.Path(__file__).parent / "data" / "vxz-vxc-0.1.elf"


def _bundled_codecs():
    from repro.codecs.registry import default_registry

    return list(default_registry())


@pytest.fixture(scope="module")
def bundled_reports():
    return {codec.info.name: verify_image(codec.guest_decoder_image())
            for codec in _bundled_codecs()}


# -- the six bundled decoders prove safe ------------------------------------------


def test_all_bundled_decoders_verify_safe(bundled_reports):
    assert set(bundled_reports) == {"vxz", "vxbwt", "vximg", "vxjp2",
                                    "vxflac", "vxsnd"}
    for name, report in bundled_reports.items():
        assert report.ok, (name, report.unsafe_sites)
        assert report.unsafe_sites == []
        assert report.stack_bounded, name
        assert 0 < report.total_down < report.min_size


def test_bundled_decoders_have_elidable_guards(bundled_reports):
    for name, report in bundled_reports.items():
        counts = report.counts
        assert counts["proved"] > 100, (name, counts)
        assert len(report.proved_reads) > 50, name
        assert len(report.proved_writes) > 50, name
        # Not everything is provable: indirect branches at least stay dynamic.
        assert counts["guard"] > 0, name


def test_admission_accepts_bundled_decoders():
    for codec in _bundled_codecs():
        report = admit_image(codec.guest_decoder_image(), "reject")
        assert report is not None and report.ok


# -- disassemble -> reassemble round-trip -----------------------------------------


@pytest.mark.parametrize("name", ["vxz", "vxbwt", "vximg", "vxjp2",
                                  "vxflac", "vxsnd"])
def test_disassembly_round_trips_bundled_decoder(name):
    from repro.codecs.registry import default_registry
    from repro.elf.reader import parse_executable

    image = parse_executable(default_registry().get(name).guest_decoder_image())
    for segment in image.segments:
        if not segment.executable:
            continue
        source, scan_result = disassemble_for_reassembly(
            segment.data, base=segment.vaddr)
        assert scan_result.ok, scan_result.errors[:3]
        program = assemble(source, text_base=segment.vaddr)
        assert program.text == segment.data


# -- hostile images ----------------------------------------------------------------


@pytest.fixture(scope="module")
def hostile_images():
    return {
        "oob_store": build_asm("""
            _start:
                movi r1, 0x7fffff00
                st32 [r1+0], r0
                movi r0, 0
                vxcall
        """),
        "mid_insn_jump": build_asm("""
            _start:
                cmpi r0, 0
                je 0x100d
                movi r1, 0x11223344
                halt
        """),
        "bad_syscall": build_asm("""
            _start:
                movi r0, 99
                vxcall
                halt
        """),
    }


@pytest.mark.parametrize("fixture,kind", [
    ("oob_store", "write"),
    ("mid_insn_jump", "code"),
    ("bad_syscall", "syscall"),
])
def test_hostile_image_is_classified_unsafe(hostile_images, fixture, kind):
    report = verify_image(hostile_images[fixture])
    assert not report.ok
    assert any(site.kind == kind for site in report.unsafe_sites), \
        report.unsafe_sites


def test_reject_mode_refuses_hostile_images(hostile_images):
    for image in hostile_images.values():
        with pytest.raises(ImageVerificationError):
            admit_image(image, "reject")
        with pytest.raises(ImageVerificationError):
            VirtualMachine(image, verify_images="reject")


def test_warn_mode_warns_but_constructs(hostile_images):
    with pytest.warns(UserWarning, match="failed static verification"):
        vm = VirtualMachine(hostile_images["bad_syscall"], verify_images="warn")
    assert vm.analysis_report is not None
    assert not vm.analysis_report.ok


def test_off_mode_never_raises_on_hostile_images(hostile_images):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vm = VirtualMachine(hostile_images["oob_store"])
    # Opportunistic analysis may attach a report, but elision never uses a
    # failed one (report.ok gates it in run_translator).
    if vm.analysis_report is not None:
        assert not vm.analysis_report.ok


def test_invalid_mode_rejected(hostile_images):
    with pytest.raises(ValueError):
        admit_image(hostile_images["oob_store"], "paranoid")
    with pytest.raises(ValueError):
        ReadOptions(verify_images="paranoid")


# -- a hostile archive is refused end to end --------------------------------------


class _HostileVxz(VxzCodec):
    """vxz with its guest decoder swapped for a hostile image."""

    hostile_image: bytes = b""

    def guest_decoder_image(self) -> bytes:
        return type(self).hostile_image


def _hostile_archive(hostile_images) -> bytes:
    _HostileVxz.hostile_image = hostile_images["oob_store"]
    registry = CodecRegistry([_HostileVxz()], default="vxz")
    buffer = io.BytesIO()
    with ArchiveBuilder(buffer, WriteOptions(registry=registry)) as builder:
        builder.add("evil.txt", synthetic_source_tree_bytes(4000, seed=11))
        builder.finish()
    return buffer.getvalue()


def test_reject_mode_refuses_hostile_archive(hostile_images):
    payload = _hostile_archive(hostile_images)
    options = ReadOptions(mode=MODE_VXA, verify_images="reject")
    with Archive(io.BytesIO(payload), options) as archive:
        with pytest.raises(ImageVerificationError):
            archive.extract("evil.txt")


def test_check_records_hostile_decoder_as_failure(hostile_images):
    payload = _hostile_archive(hostile_images)
    options = ReadOptions(mode=MODE_VXA, verify_images="reject")
    with Archive(io.BytesIO(payload), options) as archive:
        report = archive.check()
    assert not report.ok
    assert report.failures
    assert "static verification" in report.failures[0]


# -- report serialisation -----------------------------------------------------------


def test_report_round_trips_through_dict(bundled_reports):
    report = bundled_reports["vxz"]
    payload = json.loads(json.dumps(report.as_dict()))
    restored = AnalysisReport.from_dict(payload)
    assert restored == report


def test_unsafe_report_serialises_errors(hostile_images):
    report = verify_image(hostile_images["mid_insn_jump"])
    restored = AnalysisReport.from_dict(report.as_dict())
    assert restored == report
    assert not restored.ok
    assert all(site.verdict == VERDICT_UNSAFE for site in restored.unsafe_sites)
    assert len(restored.unsafe_sites) == restored.counts[VERDICT_UNSAFE] > 0


# -- guard elision ------------------------------------------------------------------


def test_translator_elides_guards_and_output_matches():
    codec = VxzCodec()
    image = codec.guest_decoder_image()
    payload = codec.encode(synthetic_source_tree_bytes(12000, seed=12))

    vm_on = VirtualMachine(image)
    result_on = vm_on.decode(payload)
    vm_off = VirtualMachine(image, analysis_elision=False)
    result_off = vm_off.decode(payload)

    assert result_on.ok and result_off.ok
    assert result_on.output == result_off.output
    assert result_on.stats.guards_elided > 0
    assert result_off.stats.guards_elided == 0


def test_session_surfaces_analysis_counters():
    codec = VxzCodec()
    data = synthetic_source_tree_bytes(6000, seed=13)
    buffer = io.BytesIO()
    with ArchiveBuilder(buffer) as builder:
        builder.add("a.txt", data)
        builder.finish()
    options = ReadOptions(mode=MODE_VXA, verify_images="reject")
    with Archive(io.BytesIO(buffer.getvalue()), options) as archive:
        assert archive.extract("a.txt").data == data
        stats = archive.session.stats
    assert stats.images_verified == 1
    assert stats.guards_elided > 0


def test_elision_disabled_by_option():
    codec = VxzCodec()
    data = synthetic_source_tree_bytes(6000, seed=14)
    vm = VirtualMachine(codec.guest_decoder_image(), analysis_elision=False)
    result = vm.decode(codec.encode(data))
    assert result.ok and result.output == data
    assert result.stats.guards_elided == 0


def test_pop_into_sp_is_analysed_the_way_the_engines_run_it():
    """``pop sp`` ends at sp + 4 -- the loaded word is discarded (the stack
    rule in ``repro.isa.opcodes``) -- so what follows are stack accesses the
    verifier proves, about the very r7 the translator then runs unguarded."""
    image = build_asm("""
        _start:
            movi r3, 0x7fffff00
            push r3
            pop  r7
            movi r2, 7
            st32 [r7-8], r2
            ld32 r1, [r7-8]
            movi r0, 0
            vxcall
    """)
    report = verify_image(image)
    assert report.ok
    assert (len(report.proved_reads), len(report.proved_writes)) == (2, 2)
    for engine in ("interpreter", "translator"):
        vm = VirtualMachine(image, engine=engine)
        stack_top = vm.regs[7]
        assert vm.decode(b"").exit_code == 7
        assert vm.regs[7] == stack_top and vm.regs[3] == 0x7FFFFF00


# -- CLI ----------------------------------------------------------------------------


def test_cli_analyze_safe_archive(tmp_path, capsys):
    from repro.cli import unzip_main

    import repro.api as vxa

    data = synthetic_source_tree_bytes(5000, seed=15)
    archive_path = tmp_path / "t.zip"
    with vxa.create(str(archive_path)) as builder:
        builder.add("a.txt", data)
        builder.finish()
    assert unzip_main(["analyze", str(archive_path)]) == 0
    output = capsys.readouterr().out
    assert "SAFE" in output
    assert "proved" in output
    # Each image is listed with the compiler that built it.
    assert "decoder vxz @" in output and "[vxc-0.3]" in output


def test_cli_analyze_hostile_archive(tmp_path, capsys, hostile_images):
    from repro.cli import unzip_main

    archive_path = tmp_path / "evil.zip"
    archive_path.write_bytes(_hostile_archive(hostile_images))
    assert unzip_main(["analyze", str(archive_path)]) == 1
    output = capsys.readouterr().out
    assert "UNSAFE" in output


def test_cli_extract_verify_images_reject(tmp_path, capsys, hostile_images):
    from repro.cli import unzip_main

    archive_path = tmp_path / "evil.zip"
    archive_path.write_bytes(_hostile_archive(hostile_images))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = unzip_main(["extract", str(archive_path), "-o", str(out_dir),
                       "--vxa", "--verify-images", "reject"])
    assert code == 2
    assert "static verification" in capsys.readouterr().err


def test_verify_report_is_pure_function_of_image():
    codec = VxzCodec()
    image = codec.guest_decoder_image()
    assert verify_image(image) is verify_image(image)  # memoised by digest


def test_min_size_matches_loader_geometry(bundled_reports):
    from repro.elf.reader import parse_executable
    from repro.vm.loader import DEFAULT_STACK_SIZE, HEAP_HEADROOM

    for codec in _bundled_codecs():
        image: ElfImage = parse_executable(codec.guest_decoder_image())
        report = bundled_reports[codec.info.name]
        assert report.min_size == (image.load_size + HEAP_HEADROOM
                                   + DEFAULT_STACK_SIZE)


# -- evaluation order: one fixpoint per function, the same report ------------------

#: ``ok / proved_reads / proved_writes / min_size`` of the bundled images.  A
#: change here changes ``vm.guards_elided.*`` and every generated fragment.
#: These are the images vxc 0.3 builds (re-derive them whenever
#: ``repro.vxc.compiler.TOOLCHAIN`` is bumped); 0.2's had 152/136, 233/191,
#: 333/325, 409/398, 219/256, 189/218 -- 0.3 drops the unreachable functions'
#: sites and adds those of the copies it expands.  ``min_size`` did not move.
#: The library's table-driven Huffman and multi-bit reads (same compiler) took
#: them from 170/132, 242/180, 392/327, 427/374, 275/262 (vxsnd has no bit
#: reader): more code, copies of ``hd_decode`` and ``br_bits`` expanded in
#: place, every image still ``ok``; ``min_size`` grew by exactly the two new
#: tables, ``hd_fast`` and ``hd_next`` (4,160 bytes), in the four images that
#: link the Huffman decoder.  The sparse IDCT, the two-loop in-place lifting
#: and the pointer-walk inverse move-to-front (same compiler) took vxbwt,
#: vximg and vxjp2 from 315/215, 465/362, 500/409: new loops, new sites, every
#: image still ``ok``; vximg's ``min_size`` fell by 256 bytes: ``vi_zig`` and
#: ``vi_blk`` became one ``vi_coef``, and pass 2 writes pixels to the plane.
#: vxbwt's ``hd_fill``, gapped column and fused walk, and the BMP rows stored
#: through a cursor (same compiler), took vxbwt, vximg and vxjp2 from 322/221,
#: 489/375, 508/414: vxbwt gains hd_fill's and the walk's sites, the image
#: decoders lose a copy of ``out_byte`` per channel byte; every image still
#: ``ok``; vxbwt's ``min_size`` fell by 16 bytes, the four ``rle_*`` globals.
#: The symbol and sample loops with the reader in locals (vxz, vxflac, vxsnd,
#: ``hb_unpack``), the walk resumed past the primary table and the byte-wide
#: move-to-front (same compiler) took them from 297/191, 340/240, 482/367,
#: 505/409, 329/286, 201/212: new loops and word loads, vxflac's per-sample
#: calls gone, every image still ``ok``; ``min_size`` grew by the 16 bytes of
#: ``hd_resume`` where the Huffman decoder is linked and by vxflac's 256-byte
#: ``fl_ones``, and fell by 764 bytes in vxbwt (a 256-byte alphabet in place
#: of 256 words, with 4 scratch bytes) and by 8 in vxsnd (its two globals).
PINNED_PROOFS = {
    "vxz": (True, 310, 209, 347356),
    "vxbwt": (True, 366, 253, 348176),
    "vximg": (True, 516, 383, 352272),
    "vxjp2": (True, 539, 425, 351004),
    "vxflac": (True, 311, 274, 340396),
    "vxsnd": (True, 190, 205, 340420),
}


def test_bundled_proof_counts_are_pinned(bundled_reports):
    assert {name: (report.ok, len(report.proved_reads),
                   len(report.proved_writes), report.min_size)
            for name, report in bundled_reports.items()} == PINNED_PROOFS


def _whole_program_analyze(cfg):
    """The evaluation order ``absint.analyze`` had before it walked the call
    graph: every function, over and over, until a whole pass changes nothing.
    Kept as the reference the component walk must agree with."""
    summaries = {fn: absint.FunctionSummary() for fn in cfg.functions}
    observations = {}
    changed = True
    while changed:
        changed = False
        for fn in cfg.functions:
            states = absint._function_fixpoint(cfg, fn, summaries)
            obs = observations[fn] = absint._collect(cfg, fn, states, summaries)
            updated = absint.FunctionSummary(
                obs.ret_sp_ok, obs.ret_fp_ok, obs.writes_above, obs.writes_unknown,
                min(obs.local_down, absint.UNBOUNDED), obs.calls_unknown)
            changed |= updated != summaries[fn]
            summaries[fn] = updated
    total_down = absint._total_down(cfg, observations)
    return absint.AnalysisResult(
        summaries, [a for obs in observations.values() for a in obs.accesses],
        [s for obs in observations.values() for s in obs.syscalls],
        total_down < absint.UNBOUNDED, total_down)


#: Call graphs the bundled decoders lack.  ``down`` ends between the optimistic
#: start and the bottom (it writes through a pointer and still restores sp and
#: fp); ``even``/``odd`` drag each other to the bottom over several rounds (a
#: clobbered fp, a store above the frame); every callee sits *after* its caller
#: in address order, so the old loop first met it with a summary not yet final.
_CALL_GRAPHS = {
    "self-recursion": """
        _start:
            movi r1, 3
            push r1
            call down
            addi r7, 4
            movi r0, 0
            vxcall
        down:
            push r6
            mov  r6, r7
            ld32 r1, [r6+8]
            cmpi r1, 0
            je   down_out
            movi r2, cell
            st32 [r2], r1
            subi r1, 1
            push r1
            call down
            addi r7, 4
        down_out:
            mov  r7, r6
            pop  r6
            ret
        .data
        cell:
            .space 4
    """,
    "mutual-recursion": """
        _start:
            movi r1, 4
            push r1
            call even
            addi r7, 4
            st32 [r7-4], r0
            movi r0, 0
            vxcall
        even:
            push r6
            mov  r6, r7
            ld32 r1, [r6+8]
            cmpi r1, 0
            je   even_out
            subi r1, 1
            push r1
            call odd
            addi r7, 4
            ld32 r2, [r6+8]
        even_out:
            mov  r7, r6
            pop  r6
            ret
        odd:
            ld32 r1, [r7+4]
            cmpi r1, 0
            je   odd_out
            subi r1, 1
            push r1
            call even
            addi r7, 4
            movi r6, 0
        odd_out:
            st32 [r7+8], r1
            ret
    """,
    "callr-site": """
        _start:
            push r6
            call through
            pop  r6
            call plain
            movi r0, 0
            vxcall
        through:
            movi r3, plain
            st32 [r7-4], r3
            callr r3
            ld32 r1, [r7-4]
            ret
        plain:
            push r6
            mov  r6, r7
            st32 [r6-4], r1
            pop  r6
            ret
    """,
}


def _analysed_images(hostile_images):
    yield from ((codec.info.name, codec.guest_decoder_image())
                for codec in _bundled_codecs())
    yield "vxc-0.1", VXC_0_1_IMAGE.read_bytes()
    yield from hostile_images.items()
    yield from ((name, build_asm(source)) for name, source in _CALL_GRAPHS.items())
    programs = {f"seed-{seed}": _Generator(seed).program()
                for seed in range(1600, 1660)}
    programs.update((shape, _PREAMBLE + source) for shape, source in _SHAPES.items())
    for name, source in programs.items():
        yield name, compile_source(source, codec_name="differential",
                                   include_runtime=False).elf


def test_component_walk_agrees_with_whole_program_fixpoint(hostile_images):
    recursive = 0
    for name, image in _analysed_images(hostile_images):
        cfg = recover_cfg(image)
        expected, result = _whole_program_analyze(cfg), absint.analyze(cfg)
        for field in dataclasses.fields(absint.AnalysisResult):
            assert (getattr(result, field.name)
                    == getattr(expected, field.name)), (name, field.name)
        recursive += not result.stack_bounded
    # The comparison met cycles, not only trees of calls.
    assert recursive >= len(_CALL_GRAPHS)


def test_call_graph_fixtures_have_the_shapes_they_claim():
    shapes = {}
    for name, source in _CALL_GRAPHS.items():
        cfg = recover_cfg(build_asm(source))
        components = absint._call_graph_components(cfg.call_graph)
        assert sorted(fn for component in components for fn in component) \
            == sorted(cfg.functions)
        # Callees first: nothing calls into a component that comes later.
        seen = set()
        for component in components:
            seen.update(component)
            assert all(cfg.call_graph[fn] <= seen for fn in component), name
        result = absint.analyze(cfg)
        shapes[name] = (sorted(len(component) for component in components),
                        any(summary.calls_unknown
                            for summary in result.summaries.values()))
    assert shapes == {
        "self-recursion": ([1, 1], False),
        "mutual-recursion": ([1, 2], False),
        "callr-site": ([1, 1, 1], True),
    }


def test_one_function_fixpoint_per_function_outside_cycles(monkeypatch):
    """A count, not a clock: no bundled decoder recurses, so each of its
    functions is analysed exactly once."""
    visits = []
    fixpoint = absint._function_fixpoint

    def counted(cfg, fn, summaries):
        visits.append(fn)
        return fixpoint(cfg, fn, summaries)

    monkeypatch.setattr(absint, "_function_fixpoint", counted)
    images = {codec.info.name: codec.guest_decoder_image()
              for codec in _bundled_codecs()}
    images["vxc-0.1"] = VXC_0_1_IMAGE.read_bytes()
    for name, image in images.items():
        cfg = recover_cfg(image)
        visits.clear()
        absint.analyze(cfg)
        assert sorted(visits) == sorted(cfg.functions), name


# -- the proved stack bound against a run (ROADMAP 3(b), first slice) ---------------


@pytest.fixture(scope="module")
def stack_probe_cases():
    """``name -> (image, encoded member)``: the bundled decoders over the
    members ``tools/fragment_mix.py`` measures (vxabench's seed-7 mixed
    archive, the first member of each decoder) and both archived images."""
    from tests.test_fragment_mix import fragment_mix     # it puts tools/ on the path

    data = pathlib.Path(__file__).parent / "data"
    members = fragment_mix.members()[0]
    cases = {codec.info.name: (codec.guest_decoder_image(),
                               codec.encode(members[codec.info.name]))
             for codec in _bundled_codecs()}
    payload = (data / "vxz-vxc-0.1.payload.vxz").read_bytes()
    cases["vxz-vxc-0.1"] = (VXC_0_1_IMAGE.read_bytes(), payload)
    cases["vxz-vxc-0.2"] = ((data / "vxz-vxc-0.2.elf").read_bytes(), payload)
    return cases


@pytest.mark.parametrize("name", ["vxz", "vxbwt", "vximg", "vxjp2", "vxflac", "vxsnd",
                                  "vxz-vxc-0.1", "vxz-vxc-0.2"])
def test_the_stack_a_decode_leaves_behind_is_within_the_proved_bound(name, stack_probe_cases):
    """``total_down`` bounds every byte the image writes below its entry
    ``sp``; after a decode under the interpreter (every check on, nothing
    elided) the lowest non-zero word of the stack region must lie above it.

    A necessary condition only: a push of zero, or a slot reserved and never
    written, leaves nothing to see, so this can miss an excess but never
    report one that is not there.
    """
    from repro.vm.loader import DEFAULT_STACK_SIZE
    from repro.vm.machine import ENGINE_INTERPRETER

    image, encoded = stack_probe_cases[name]
    report = verify_image(image)
    assert report.ok and report.stack_bounded
    vm = VirtualMachine(image, engine=ENGINE_INTERPRETER)
    entry_sp = vm.regs[7]
    assert vm.decode(encoded).exit_code == 0
    stack = vm.memory.read_bytes(entry_sp - DEFAULT_STACK_SIZE, DEFAULT_STACK_SIZE)
    untouched = len(stack) - len(stack.lstrip(b"\x00"))
    deepest = DEFAULT_STACK_SIZE - (untouched & ~3)
    assert 0 < deepest <= report.total_down, (name, deepest, report.total_down)
