"""Shared fixtures and helpers for the VXA reproduction test suite."""

from __future__ import annotations

import pytest

from repro.api import Archive
from repro.elf.builder import build_executable
from repro.isa.assembler import assemble
from repro.vm.images import forget_images


def build_asm(source: str, *, note: dict | None = None) -> bytes:
    """Assemble ``source`` and wrap it in a VXA ELF executable."""
    return build_executable(assemble(source), note=note)


def inlined_ifs(source: str) -> int:
    """How many ``if`` blocks of a fragment's source are inlined if-arms.

    A side exit's block ends in ``return`` or ``continue`` (and a system
    call's exit test in ``vm.halted = True``); an arm's ends in what the arm
    computed, its join assignments, its instruction delta or ``pass``.
    """
    lines = source.split("\n")

    def depth(line: str) -> int:
        return len(line) - len(line.lstrip())

    arms = 0
    for number, line in enumerate(lines):
        if line.lstrip().startswith("if ") and line.endswith(":"):
            inner = depth(line) + 4
            last = None
            for following in lines[number + 1:]:
                if depth(following) < inner:
                    break
                if depth(following) == inner:
                    last = following.strip()
            arms += not last.startswith(("return ", "continue", "vm.halted"))
    return arms


@pytest.fixture(autouse=True)
def cold_process(monkeypatch):
    """Every test, and every archive opened in it, meets a cold process.

    Analysis reports and translated fragments are kept once per process by
    image digest (:mod:`repro.vm.images`), so what a session reports as *its*
    work -- ``fragments_translated``, ``retranslations``, ``guards_elided`` --
    would otherwise depend on which tests ran earlier, and on an archive
    opened earlier in the same test.  Emptying the table here keeps every
    assertion written for one archive read in a fresh process true as written.
    ``tests/test_image_registry.py`` overrides this fixture: what a warm
    process shares is its subject.
    """
    forget_images()
    open_archive = Archive.__init__

    def open_cold(self, *args, **kwargs):
        forget_images()
        open_archive(self, *args, **kwargs)

    monkeypatch.setattr(Archive, "__init__", open_cold)


@pytest.fixture(scope="session")
def echo_decoder_image() -> bytes:
    """A minimal guest "decoder" that copies stdin to stdout (the identity codec).

    Written directly in assembly so the VM layers can be tested without the
    vxc compiler.
    """
    return build_asm(
        """
        ; identity filter: while ((n = read(0, buf, 4096)) > 0) write(1, buf, n); exit(0)
        _start:
        read_loop:
            movi r0, 1            ; READ
            movi r1, 0            ; stdin
            movi r2, buffer
            movi r3, 4096
            vxcall
            cmpi r0, 0
            jles finished         ; n <= 0 -> stop
            mov  r3, r0           ; count = n
            movi r0, 2            ; WRITE
            movi r1, 1            ; stdout
            movi r2, buffer
            vxcall
            jmp  read_loop
        finished:
            movi r0, 0            ; EXIT
            movi r1, 0
            vxcall
        .data
        buffer:
            .space 4096
        """
    )


#: ``(word 0, word 1)`` on stdin.  When word 0 is not zero the decoder stores
#: word 1 over the immediate of ``patch: movi r2, 0x11111111`` -- an
#: instruction it has not executed yet and only reaches through ``jmpr`` --
#: then runs it and writes r2.  The code that runs must be the code that was
#: archived: the answer is ``11111111`` for every member, in particular for
#: the member decoded *after* one that stored something else (section 2.4:
#: re-initialising the sandbox must leave nothing of the previous member).
SELF_PATCHING_DECODER = """
_start:
    movi r0, 1              ; READ
    movi r1, 0
    movi r2, words
    movi r3, 8
    vxcall
    movi r4, words
    ld32 r1, [r4]
    cmpi r1, 0
    je   run
    ld32 r1, [r4+4]
    movi r4, patch
    st32 [r4+2], r1         ; a legal store; the target happens to be text
run:
    movi r5, patch
    jmpr r5
patch:
    movi r2, 0x11111111
    movi r4, words
    st32 [r4], r2
    movi r0, 2              ; WRITE
    movi r1, 1
    movi r2, words
    movi r3, 4
    vxcall
    movi r0, 0              ; EXIT
    movi r1, 0
    vxcall
.data
words:
    .space 8
"""
