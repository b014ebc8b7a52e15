"""Decoder VM lifecycle management for one archive read session.

Paper section 2.4: reusing VM state across files that share a decoder
"may improve performance, especially on archives containing many small
files", at the cost of potential cross-file information leakage; the
recommended mitigation is to re-initialise whenever the security attributes
of the files being processed change.  :class:`DecoderSession` is the single
place that owns decoder VMs, applies the :class:`~repro.core.policy.VmReusePolicy`
against each file's :class:`~repro.core.policy.SecurityAttributes`, and
counts how often state was reused versus re-initialised (the ablation
benchmark reports these counters).

What a session does *not* own is translated code.  Both engines fetch
instructions from the decoder image's immutable text, never from the sandbox,
so translations and static-analysis proofs are functions of the image digest
(and the translator configuration) alone and live in the process-wide
:mod:`repro.vm.images`; the session points each VM at the registry's cache
for its image under every policy.  The policy decides when *state* is thrown
away: a re-initialised sandbox is zeroed and reloaded from the image and
keeps nothing of the previous member, while the translations -- which no
member can reach -- survive the re-initialisation, the session itself and
thread boundaries.  What ``ALWAYS_FRESH`` costs is therefore the sandbox
reload per member, not a retranslation.  They survive the process as well:
:meth:`DecoderSession.save` hands what this session's decodes added to the
per-user store behind the registry (``docs/image-store.md``).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

from repro.api.options import ReadOptions
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.core.types import SessionStats
from repro.vm.limits import ExecutionLimits, ExecutionStats
from repro.vm.machine import DecodeResult, VirtualMachine

#: Per-run :class:`ExecutionStats` counter -> the :class:`SessionStats`
#: counter each decode folds it into: the one rename, plus every name the
#: two declare in common.
_RUN_COUNTERS = {"fragment_cache_hits": "cache_hits"} | {
    field.name: field.name for field in fields(ExecutionStats)
    if field.name in SessionStats.__dataclass_fields__
}


class DecoderSession:
    """Owns one VM per decoder image and decides reuse vs re-initialise.

    Args:
        load_image: callable mapping a decoder pseudo-file offset to the raw
            decoder ELF bytes (typically ``Archive._load_decoder``).
        options: the read session's frozen :class:`ReadOptions`; the reuse
            policy and every engine knob are read from it where a VM is built.
        limits: the session-wide resource ceilings the archive resolved from
            ``options`` (scaled per input on every decode).
    """

    def __init__(self, load_image: Callable[[int], bytes],
                 options: ReadOptions, limits: ExecutionLimits):
        self._load_image = load_image
        self.options = options
        self._limits = limits
        self._vms: dict[int, VirtualMachine] = {}
        self._last_attributes: dict[int, SecurityAttributes] = {}
        self.stats = SessionStats()

    # -- policy ----------------------------------------------------------------

    def _needs_fresh(self, decoder_offset: int,
                     attributes: SecurityAttributes) -> bool:
        """Must the VM be re-initialised before decoding this file?"""
        if self.options.reuse is VmReusePolicy.ALWAYS_FRESH:
            return True
        if self.options.reuse is VmReusePolicy.ALWAYS_REUSE:
            return False
        previous = self._last_attributes.get(decoder_offset)
        return previous is not None and not previous.same_domain(attributes)

    # -- decoding --------------------------------------------------------------

    def decode(
        self,
        decoder_offset: int,
        encoded: bytes,
        *,
        attributes: SecurityAttributes | None = None,
        limits: ExecutionLimits | None = None,
        fault_syscall: int | None = None,
    ) -> DecodeResult:
        """Run the archived decoder at ``decoder_offset`` over ``encoded``.

        ``attributes`` are the security attributes of the file being decoded;
        under ``REUSE_SAME_ATTRIBUTES`` a change of protection domain forces
        re-initialisation.  ``fault_syscall`` is the fault-injection hook: fail
        the run at the guest's Nth virtual system call (``None`` in production).
        """
        attributes = attributes or SecurityAttributes()
        vm = self._vms.get(decoder_offset)
        if vm is None:
            options = self.options
            vm = VirtualMachine(
                self._load_image(decoder_offset),
                engine=options.engine,
                limits=self._limits,
                verify_images=options.verify_images,
                analysis_elision=options.analysis_elision,
            )
            vm.share_code_cache()
            self.stats.fragments_restored += vm.code_cache.restored
            self._vms[decoder_offset] = vm
            if vm.analysis_report is not None:
                self.stats.images_verified += 1
            # Constructing the VM loads a pristine image, so the first decode
            # never needs another reset regardless of policy.
            fresh = False
            self.stats.vm_initialisations += 1
        else:
            fresh = self._needs_fresh(decoder_offset, attributes)
            if fresh:
                self.stats.vm_initialisations += 1
            else:
                self.stats.vm_reuses += 1
        self._last_attributes[decoder_offset] = attributes
        self.stats.decodes += 1
        run_limits = limits or self._limits.scaled_for_input(len(encoded))
        result = vm.decode(encoded, limits=run_limits, fresh=fresh,
                           fault_syscall=fault_syscall)
        for run, session in _RUN_COUNTERS.items():
            setattr(self.stats, session,
                    getattr(self.stats, session) + getattr(result.stats, run))
        return result

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Drop all VM state (a pristine image is loaded on next use)."""
        self._vms.clear()
        self._last_attributes.clear()

    def save(self) -> None:
        """Write back the report and the translations of every image this
        session ran, where its decodes added any (an integer test per VM
        where they did not).  A session that outlives its requests -- a pool
        worker's -- calls this when a shard ends."""
        for vm in self._vms.values():
            vm._record.save()

    def close(self) -> None:
        self.save()
        self.reset()

    def __enter__(self) -> "DecoderSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
