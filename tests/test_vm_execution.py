"""Integration tests for the VM execution engines (interpreter and translator).

Every behavioural test runs under both engines: the translator must be
observationally identical to the reference interpreter.
"""

import pytest

from repro.errors import (
    DivisionFault,
    GuestFault,
    IllegalInstructionFault,
    MemoryFault,
    ResourceLimitExceeded,
)
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine

from tests.conftest import build_asm

ENGINES = [ENGINE_TRANSLATOR, ENGINE_INTERPRETER]


def run_asm(source: str, engine: str, stdin: bytes = b"", **vm_kwargs):
    """Assemble, load and run a guest program; return (exit_code, result)."""
    vm = VirtualMachine(build_asm(source), engine=engine, **vm_kwargs)
    result = vm.decode(stdin)
    return result


ARITH_PROGRAM = """
; compute ((7 * 6) + 58 - 4) / 2 = 48 and write the single byte '0' (0x30)
_start:
    movi r1, 7
    movi r2, 6
    mul  r1, r2
    addi r1, 58
    subi r1, 4
    movi r2, 2
    divu r1, r2
    movi r2, buffer
    st8  [r2], r1
    movi r0, 2        ; WRITE
    movi r1, 1
    movi r3, 1
    vxcall
    movi r0, 0        ; EXIT
    movi r1, 0
    vxcall
.data
buffer:
    .byte 0
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_arithmetic_and_write(engine):
    result = run_asm(ARITH_PROGRAM, engine)
    assert result.exit_code == 0
    assert result.output == b"0"


@pytest.mark.parametrize("engine", ENGINES)
def test_echo_decoder_copies_stdin_to_stdout(engine, echo_decoder_image):
    vm = VirtualMachine(echo_decoder_image, engine=engine)
    payload = bytes(range(256)) * 40
    result = vm.decode(payload)
    assert result.exit_code == 0
    assert result.output == payload
    assert result.stats.bytes_read == len(payload)
    assert result.stats.bytes_written == len(payload)


@pytest.mark.parametrize("engine", ENGINES)
def test_loop_and_conditionals(engine):
    # Sum 1..100 = 5050 = 0x13BA; store and exit with code 0 if correct.
    source = """
    _start:
        movi r1, 0        ; sum
        movi r2, 1        ; i
    loop:
        add  r1, r2
        addi r2, 1
        cmpi r2, 100
        jleu loop
        cmpi r1, 5050
        je   ok
        movi r1, 1
        jmp  out
    ok:
        movi r1, 0
    out:
        movi r0, 0
        vxcall
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_signed_comparisons_and_division(engine):
    # (-7) / 2 == -3 (C truncation); compare signed -3 < 1.
    source = """
    _start:
        movi r1, 0xfffffff9   ; -7
        movi r2, 2
        divs r1, r2
        cmpi r1, 0xfffffffd   ; -3
        jne  bad
        movi r3, 0xffffffff   ; -1
        cmpi r3, 1
        jlts good
    bad:
        movi r1, 1
        jmp  out
    good:
        movi r1, 0
    out:
        movi r0, 0
        vxcall
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_call_ret_and_stack(engine):
    source = """
    _start:
        movi r1, 5
        call double
        call double
        cmpi r1, 20
        je   ok
        movi r1, 1
        jmp  out
    ok:
        movi r1, 0
    out:
        movi r0, 0
        vxcall
    double:
        push r2
        movi r2, 2
        mul  r1, r2
        pop  r2
        ret
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_indirect_call_through_register(engine):
    source = """
    _start:
        movi r4, target
        callr r4
        cmpi r1, 99
        je   ok
        movi r1, 1
        jmp  out
    ok:
        movi r1, 0
    out:
        movi r0, 0
        vxcall
    target:
        movi r1, 99
        ret
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_byte_and_halfword_memory_ops(engine):
    source = """
    _start:
        movi r1, buffer
        movi r2, 0x1234
        st16 [r1], r2
        ld8u r3, [r1]
        cmpi r3, 0x34
        jne  bad
        ld8u r3, [r1+1]
        cmpi r3, 0x12
        jne  bad
        movi r2, 0xff
        st8  [r1+2], r2
        ld8s r3, [r1+2]
        cmpi r3, 0xffffffff
        jne  bad
        movi r1, 0
        jmp  out
    bad:
        movi r1, 1
    out:
        movi r0, 0
        vxcall
    .data
    buffer:
        .space 16
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_shift_semantics(engine):
    source = """
    _start:
        movi r1, 0x80000000
        shrsi r1, 31
        cmpi r1, 0xffffffff   ; arithmetic shift keeps the sign
        jne  bad
        movi r1, 0x80000000
        shrui r1, 31
        cmpi r1, 1
        jne  bad
        movi r1, 1
        shli r1, 31
        cmpi r1, 0x80000000
        jne  bad
        movi r1, 0
        jmp  out
    bad:
        movi r1, 1
    out:
        movi r0, 0
        vxcall
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_exit_code_propagates(engine):
    source = """
    _start:
        movi r0, 0
        movi r1, 42
        vxcall
    """
    result = run_asm(source, engine)
    assert result.exit_code == 42


@pytest.mark.parametrize("engine", ENGINES)
def test_halt_is_a_clean_stop(engine):
    result = run_asm("_start:\n halt\n", engine)
    assert result.exit_code == 0


# -- fault isolation ----------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_wild_store_faults_but_host_survives(engine):
    source = """
    _start:
        movi r1, 0x40000000   ; 1 GB, far outside the sandbox
        movi r2, 0xdead
        st32 [r1], r2
        halt
    """
    with pytest.raises(MemoryFault):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_wild_read_faults(engine):
    source = """
    _start:
        movi r1, 0x3fffffff
        ld32 r2, [r1]
        halt
    """
    with pytest.raises(MemoryFault):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_division_by_zero_faults(engine):
    source = """
    _start:
        movi r1, 10
        movi r2, 0
        divu r1, r2
        halt
    """
    with pytest.raises(DivisionFault):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_jump_outside_code_segment_faults(engine):
    source = """
    _start:
        movi r1, 0x300000
        jmpr r1
    """
    with pytest.raises((IllegalInstructionFault, GuestFault)):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_jump_into_data_segment_faults(engine):
    source = """
    _start:
        movi r1, blob
        jmpr r1
    .data
    blob:
        .word 0xffffffff
    """
    with pytest.raises(GuestFault):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_per_run_limits_are_enforced_by_the_engines(engine, echo_decoder_image):
    """Regression: limits passed to decode() (e.g. input-scaled budgets) must
    bound the run, not just the syscall layer."""
    vm = VirtualMachine(echo_decoder_image, engine=engine)
    with pytest.raises(ResourceLimitExceeded):
        vm.decode(b"x" * 4096, limits=ExecutionLimits(max_instructions=10))


def test_scaled_limits_never_exceed_configured_ceilings():
    limits = ExecutionLimits(max_instructions=10_000, max_output_bytes=2048)
    scaled = limits.scaled_for_input(1 << 20)
    assert scaled.max_instructions == 10_000
    assert scaled.max_output_bytes == 2048
    # With default (huge) ceilings the input-proportional floor applies.
    default_scaled = ExecutionLimits().scaled_for_input(0)
    assert default_scaled.max_instructions == 200_000_000


def test_reset_reuses_sandbox_buffer_in_place(echo_decoder_image):
    """Back-to-back fresh decodes zero the same sandbox instead of paying a
    reallocation -- and engine-held buffer bindings therefore stay live."""
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    buffer = vm.memory.buffer
    first = vm.decode(b"abc")
    second = vm.decode(b"xyz")
    assert (first.output, second.output) == (b"abc", b"xyz")
    assert vm.memory.buffer is buffer


@pytest.mark.parametrize("engine", ENGINES)
def test_infinite_loop_hits_instruction_budget(engine):
    source = """
    _start:
    spin:
        jmp spin
    """
    limits = ExecutionLimits(max_instructions=10_000)
    with pytest.raises(ResourceLimitExceeded):
        run_asm(source, engine, limits=limits)


@pytest.mark.parametrize("engine", ENGINES)
def test_output_budget_enforced(engine, echo_decoder_image):
    vm = VirtualMachine(
        echo_decoder_image,
        engine=engine,
        limits=ExecutionLimits(max_output_bytes=1024),
    )
    with pytest.raises(ResourceLimitExceeded):
        vm.decode(b"x" * 8192, limits=ExecutionLimits(max_output_bytes=1024))


@pytest.mark.parametrize("engine", ENGINES)
def test_vm_usable_after_guest_fault(engine, echo_decoder_image):
    bad = """
    _start:
        movi r1, 0x20000000
        ld32 r2, [r1]
        halt
    """
    vm = VirtualMachine(build_asm(bad), engine=engine)
    with pytest.raises(MemoryFault):
        vm.decode(b"")
    # The same VM object can be reset and used again.
    vm.reset()
    with pytest.raises(MemoryFault):
        vm.decode(b"")


# -- syscall surface -----------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_unknown_fd_returns_ebadf_not_host_access(engine):
    source = """
    _start:
        movi r0, 2         ; WRITE
        movi r1, 7         ; not one of the three virtual handles
        movi r2, buffer
        movi r3, 4
        vxcall
        cmpi r0, 0xfffffff7   ; EBADF (-9)
        je   ok
        movi r1, 1
        jmp  out
    ok:
        movi r1, 0
    out:
        movi r0, 0
        vxcall
    .data
    buffer:
        .ascii "data"
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_invalid_syscall_number_faults(engine):
    source = """
    _start:
        movi r0, 99
        vxcall
        halt
    """
    with pytest.raises(GuestFault):
        run_asm(source, engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_stderr_is_captured_separately(engine):
    source = """
    _start:
        movi r0, 2
        movi r1, 2          ; stderr
        movi r2, message
        movi r3, 5
        vxcall
        movi r0, 0
        movi r1, 0
        vxcall
    .data
    message:
        .ascii "oops!"
    """
    result = run_asm(source, engine)
    assert result.stderr == b"oops!"
    assert result.output == b""


@pytest.mark.parametrize("engine", ENGINES)
def test_setperm_grows_heap(engine):
    source = """
    _start:
        movi r0, 3            ; SETPERM
        movi r1, 0x600000     ; 6 MB
        vxcall
        cmpi r0, 0x600000
        jne  bad
        movi r1, 0x5ffffc     ; store at the very top of the new region
        movi r2, 0x1234
        st32 [r1], r2
        movi r1, 0
        jmp  out
    bad:
        movi r1, 1
    out:
        movi r0, 0
        vxcall
    """
    result = run_asm(source, engine)
    assert result.exit_code == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_done_protocol_decodes_multiple_streams(engine):
    # A decoder that upper-cases ASCII letters and uses done() between streams.
    source = """
    _start:
    stream_loop:
    read_loop:
        movi r0, 1
        movi r1, 0
        movi r2, buffer
        movi r3, 256
        vxcall
        cmpi r0, 0
        jles stream_done
        mov  r5, r0            ; n
        movi r4, 0             ; i
    transform:
        cmp  r4, r5
        jgeu flush
        movi r2, buffer
        add  r2, r4
        ld8u r1, [r2]
        cmpi r1, 'a'
        jltu keep
        cmpi r1, 'z'
        jgtu keep
        subi r1, 32
        st8  [r2], r1
    keep:
        addi r4, 1
        jmp  transform
    flush:
        movi r0, 2
        movi r1, 1
        movi r2, buffer
        mov  r3, r5
        vxcall
        jmp  read_loop
    stream_done:
        movi r0, 4             ; DONE
        vxcall
        cmpi r0, 0
        je   stream_loop       ; another stream is ready
        movi r0, 0
        movi r1, 0
        vxcall
    .data
    buffer:
        .space 256
    """
    vm = VirtualMachine(build_asm(source), engine=engine)
    results = vm.decode_many([b"hello", b"world", b"MiXeD 123"])
    assert [result.output for result in results] == [b"HELLO", b"WORLD", b"MIXED 123"]


# -- engine equivalence property -------------------------------------------------


def test_translator_and_interpreter_agree_on_echo(echo_decoder_image):
    payload = bytes((i * 7 + 3) % 256 for i in range(10_000))
    outputs = []
    for engine in ENGINES:
        vm = VirtualMachine(echo_decoder_image, engine=engine)
        outputs.append(vm.decode(payload).output)
    assert outputs[0] == outputs[1] == payload


def test_translator_reports_cache_statistics(echo_decoder_image):
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    result = vm.decode(b"a" * 64 * 1024)
    stats = result.stats
    assert stats.fragments_translated > 0
    assert stats.cache_hits > stats.fragments_translated
    assert stats.instructions > 0


# -- superblocks, chaining and the code cache ------------------------------------


def test_translator_chains_direct_branches(echo_decoder_image):
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    result = vm.decode(b"a" * 64 * 1024)
    stats = result.stats
    # Most block transitions must ride a back-patched direct edge, so the
    # dispatcher's hash lookups are confined to indirect branches.
    assert stats.chained_branches > 0
    assert stats.chained_branches > stats.fragments_translated
    assert stats.retranslations == 0


def test_superblock_limit_is_honoured(echo_decoder_image):
    limited = VirtualMachine(
        echo_decoder_image, engine=ENGINE_TRANSLATOR, superblock_limit=1
    )
    unlimited = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    payload = bytes(range(256)) * 16
    assert limited.decode(payload).output == unlimited.decode(payload).output
    single = max(f.instruction_count
                 for f in limited.code_cache.fragments.values())
    assert single == 1
    assert max(f.instruction_count
               for f in unlimited.code_cache.fragments.values()) > 1


def test_bare_vm_keeps_its_translations_across_a_reset(echo_decoder_image):
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    own = vm.code_cache
    first = vm.decode(b"x" * 1024)
    assert first.stats.fragments_translated == len(own) > 0
    vm.memory.buffer[-64:] = b"\xaa" * 64          # state a stream left behind
    second = vm.decode(b"x" * 1024)                # fresh=True resets the VM
    # The sandbox is pristine again; the code, which no stream can reach, stays.
    assert second.output == first.output
    assert not any(vm.memory.buffer[-64:])
    assert vm.code_cache is own
    assert (second.stats.fragments_translated, second.stats.retranslations) == (0, 0)


def test_shared_code_cache_survives_reset(echo_decoder_image):
    from repro.vm.code_cache import CodeCache

    cache = CodeCache()
    vm = VirtualMachine(
        echo_decoder_image, engine=ENGINE_TRANSLATOR, code_cache=cache
    )
    first = vm.decode(b"x" * 1024)
    assert first.stats.fragments_translated > 0
    second = vm.decode(b"x" * 1024)
    assert second.output == first.output
    assert second.stats.fragments_translated == 0  # translations carried over
    assert second.stats.retranslations == 0
    assert len(cache) == first.stats.fragments_translated


def test_shared_code_cache_across_vm_instances(echo_decoder_image):
    from repro.vm.code_cache import CodeCache

    cache = CodeCache()
    one = VirtualMachine(echo_decoder_image, code_cache=cache)
    payload = b"hello vxa"
    assert one.decode(payload).output == payload
    two = VirtualMachine(echo_decoder_image, code_cache=cache)
    result = two.decode(payload)
    assert result.output == payload
    assert result.stats.fragments_translated == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_fresh_decode_runs_the_archived_code_not_the_previous_members(engine):
    """Both engines fetch code from the image, so a shared cache cannot carry
    one member's self-modification into the next member's decode."""
    import struct

    from repro.vm.code_cache import CodeCache

    from tests.conftest import SELF_PATCHING_DECODER

    vm = VirtualMachine(build_asm(SELF_PATCHING_DECODER), engine=engine,
                        code_cache=CodeCache())
    first = vm.decode(struct.pack("<II", 1, 0xDEADBEEF), fresh=True)
    second = vm.decode(bytes(8), fresh=True)
    assert (first.output.hex(), second.output.hex()) == ("11111111", "11111111")


def test_reset_replaces_a_sandbox_the_guest_grew():
    """In-place zeroing is for the sandbox the VM allocated; one the guest
    grew is dropped, never handed (larger) to the next member."""
    from repro.vm.memory import DEFAULT_MEMORY_SIZE

    vm = VirtualMachine(build_asm("""
    _start:
        movi r0, 3            ; SETPERM
        movi r1, 0x600000
        vxcall
        movi r0, 0
        movi r1, 0
        vxcall
    """))
    initial = vm.memory
    vm.reset()
    assert vm.memory is initial                       # same geometry: reused
    assert vm.decode(b"", fresh=False).exit_code == 0
    assert vm.memory is initial and initial.size == 0x600000
    vm.reset()
    assert vm.memory is not initial
    assert vm.memory.size == len(vm.memory.buffer) == DEFAULT_MEMORY_SIZE


#: Grows the sandbox, then -- in the next fragment, ``vxcall`` ends a trace --
#: pushes, reads a global and touches the top of the new region, all through
#: whatever word view the fragment finds at entry.
_GROW_THEN_USE_WORDS = """
_start:
    movi r0, 3            ; SETPERM
    movi r1, 0x600000
    vxcall
    movi r2, 0x1234
    push r2
    movi r4, cell
    st32 [r4], r2
    ld32 r3, [r4]
    movi r1, 0x5ffffc     ; the last word of the grown sandbox
    st32 [r1], r3
    ld32 r5, [r1]
    pop  r2
    halt
.data
cell:
    .space 4
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_a_fragment_after_setperm_sees_the_new_word_view(engine):
    vm = VirtualMachine(build_asm(_GROW_THEN_USE_WORDS), engine=engine)
    before = vm.memory.words
    assert vm.decode(b"").exit_code == 0
    assert vm.regs[2] == vm.regs[3] == vm.regs[5] == 0x1234
    assert vm.memory.size == 0x600000 and len(vm.memory.words) == 0x600000 >> 2
    assert vm.memory.words is not before and vm.memory.load32(0x5ffffc) == 0x1234
    # The grown sandbox is replaced on re-initialisation; the same VM (and
    # its fragments, translated once) then meets a third view.
    grown = vm.memory.words
    assert vm.decode(b"").exit_code == 0
    assert vm.memory.words is not grown and vm.regs[5] == 0x1234


def test_decode_many_keeps_decoding_across_a_growth():
    """The ``done`` protocol reuses one sandbox: a stream decoded after the
    guest grew it runs the same fragments over the new view."""
    source = """
    _start:
    stream:
        movi r0, 3            ; SETPERM: a no-op from the second stream on
        movi r1, 0x500000
        vxcall
        movi r0, 1            ; READ one word
        movi r1, 0
        movi r2, cell
        movi r3, 4
        vxcall
        movi r4, cell
        ld32 r1, [r4]
        push r1
        movi r5, 0x4ffffc
        st32 [r5], r1         ; only inside the grown sandbox
        ld32 r1, [r5]
        st32 [r4], r1
        pop  r1
        movi r0, 2            ; WRITE it back
        movi r1, 1
        movi r2, cell
        movi r3, 4
        vxcall
        movi r0, 4            ; DONE
        vxcall
        cmpi r0, 0
        je   stream
        movi r0, 0
        movi r1, 0
        vxcall
    .data
    cell:
        .space 4
    """
    for engine in ENGINES:
        vm = VirtualMachine(build_asm(source), engine=engine)
        results = vm.decode_many([b"abcd", b"efgh", b"ijkl"])
        assert [result.output for result in results] == [b"abcd", b"efgh", b"ijkl"]
        assert len(vm.memory.words) == 0x500000 >> 2


def test_only_index_and_struct_errors_of_a_fragment_are_guest_faults(monkeypatch):
    """The backstop maps what an out-of-range access raises -- ``IndexError``
    from the buffer or the word view, ``struct.error`` from the packers.  A
    ``ValueError`` (a released view, a value that does not fit a word) means
    the host broke an invariant and must surface as itself."""
    image = build_asm(_GROW_THEN_USE_WORDS)
    vm = VirtualMachine(image)
    vm.reset()
    vm.memory.words.release()                 # what nothing in the VM ever does
    from repro.vm.syscalls import StreamSet
    vm.attach_streams(StreamSet.from_bytes(b""))
    monkeypatch.setattr(type(vm.memory), "grow", lambda self, size: size)
    with pytest.raises(ValueError, match="released"):
        vm.run()


def test_interpreter_uses_code_cache_instruction_store(echo_decoder_image):
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_INTERPRETER)
    vm.decode(b"abc")
    assert len(vm.code_cache.instructions) > 0


def test_loop_side_exit_spills_registers_written_later_in_the_body():
    """Regression: a looping fragment's early side exit must write back
    registers that only *later* loop-body instructions modify -- those
    instructions ran on every previous iteration."""
    source = """
    _start:
    head:
        addi r1, 1
        cmpi r1, 3
        je   out          ; exit positioned before the r2 update
        addi r2, 10
        jmp  head
    out:
        cmpi r2, 20       ; two completed iterations -> r2 == 20
        je   good
        movi r1, 1
        jmp  done
    good:
        movi r1, 0
    done:
        movi r0, 0
        vxcall
    """
    for engine in ENGINES:
        result = run_asm(source, engine)
        assert result.exit_code == 0, engine


def test_push_after_load_keeps_its_own_stack_guard():
    """Regression: a read guard on the pre-decrement stack pointer must not
    subsume the write guard on the post-decrement one."""
    source = """
    _start:
        movi r7, 2        ; park sp just above address zero
        ld32 r1, [r7]     ; in bounds: emits (and caches) a guard on r7
        push r2           ; sp wraps to 0xfffffffe -> must fault precisely
        halt
    """
    with pytest.raises(MemoryFault) as caught:
        run_asm(source, ENGINE_TRANSLATOR)
    assert caught.value.kind == "write"
    assert caught.value.size == 4


def test_host_errors_in_syscall_layer_are_not_masked_as_guest_faults(
        echo_decoder_image):
    """An IndexError out of the host syscall layer must propagate, not be
    rewritten into a guest MemoryFault by the dispatcher's backstop."""
    vm = VirtualMachine(echo_decoder_image, engine=ENGINE_TRANSLATOR)
    vm.reset()
    payload = b"data"
    from repro.vm.syscalls import StreamSet
    vm.attach_streams(StreamSet.from_bytes(payload))

    original = vm.syscall_handler.dispatch

    def broken_dispatch(*args):
        raise IndexError("host bug, not a guest fault")

    vm.syscall_handler.dispatch = broken_dispatch
    with pytest.raises(IndexError):
        vm.run()
    vm.syscall_handler.dispatch = original
