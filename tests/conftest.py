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
