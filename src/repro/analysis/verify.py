"""Static verifier for VXA-32 decoder images.

Combines CFG recovery (:mod:`repro.analysis.cfg`) with abstract
interpretation (:mod:`repro.analysis.absint`) to classify every memory
access, branch and virtual system call as

* ``proved``  -- safe in every sandbox of at least ``min_size`` bytes,
* ``guard``   -- not statically resolvable; the dynamic bounds guard stays,
* ``unsafe``  -- statically guaranteed to fault or structurally ill-formed.

The resulting :class:`AnalysisReport` is serialisable (``as_dict`` /
``from_dict``) so parallel extraction workers and the vxserve batch service
can ship it alongside the image, and it is kept in the image's process-wide
record (:mod:`repro.vm.images`, keyed by SHA-256).  A proof speaks about
``ElfImage.text``, the very bytes both engines execute.

The PROVED_SAFE contract consumed by ``vm/translator.py``: for an access pc
in ``proved_reads``/``proved_writes``, *every* concrete execution of that
instruction in a sandbox with ``memory.size >= min_size`` stays inside the
sandbox, so the translator may omit its bounds guard.  Python-level index
checks on the sandbox buffer still backstop every access, so even a verifier
bug can only degrade the fault *address precision* of a hostile image, never
host isolation (see the package README).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.elf.structures import ElfImage
from repro.isa.opcodes import Op
from repro.vm.images import image_record
from repro.vm.loader import DEFAULT_STACK_SIZE, HEAP_HEADROOM
from repro.vm.memory import GUEST_ADDRESS_SPACE_LIMIT

if TYPE_CHECKING:       # the engines are imported where an analysis runs
    from repro.analysis.absint import AnalysisResult
    from repro.analysis.cfg import ControlFlowGraph

VERDICT_PROVED = "proved"
VERDICT_GUARD = "guard"
VERDICT_UNSAFE = "unsafe"

#: Bytes a proved stack access may reach above the function-entry sp.  The
#: root function starts at ``stack_top = (size - 16) & ~0xF``, so 16 bytes
#: of slack always exist above it; every callee starts at least 4 bytes
#: lower (the pushed return address), buying 4 more.
_ROOT_SLACK = 16
_NESTED_SLACK = 20

#: Safety margin between the proven maximum stack depth and the bottom of
#: the reserved stack area.
_STACK_MARGIN = 4096


@dataclass(frozen=True)
class SiteVerdict:
    """Classification of one instruction site."""

    pc: int
    kind: str        # "read" | "write" | "branch" | "syscall" | "code"
    verdict: str     # "proved" | "guard" | "unsafe"
    detail: str = ""


@dataclass
class AnalysisReport:
    """Serialisable outcome of statically verifying one decoder image."""

    image_sha256: str
    verdict: str                   # "safe" | "unsafe"
    min_size: int                  # smallest sandbox the proofs hold for
    stack_bounded: bool
    total_down: int                # proven max stack depth (bytes)
    text_start: int
    text_end: int
    proved_reads: frozenset[int] = frozenset()
    proved_writes: frozenset[int] = frozenset()
    sites: list[SiteVerdict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "safe"

    @property
    def unsafe_sites(self) -> list[SiteVerdict]:
        return [s for s in self.sites if s.verdict == VERDICT_UNSAFE]

    def counts(self) -> dict[str, int]:
        tally = {VERDICT_PROVED: 0, VERDICT_GUARD: 0, VERDICT_UNSAFE: 0}
        for site in self.sites:
            tally[site.verdict] += 1
        return tally

    def as_dict(self) -> dict:
        return {
            "image_sha256": self.image_sha256,
            "verdict": self.verdict,
            "min_size": self.min_size,
            "stack_bounded": self.stack_bounded,
            "total_down": self.total_down,
            "text_start": self.text_start,
            "text_end": self.text_end,
            "proved_reads": sorted(self.proved_reads),
            "proved_writes": sorted(self.proved_writes),
            "sites": [
                {"pc": s.pc, "kind": s.kind, "verdict": s.verdict,
                 "detail": s.detail}
                for s in self.sites
            ],
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisReport":
        return cls(
            image_sha256=payload["image_sha256"],
            verdict=payload["verdict"],
            min_size=payload["min_size"],
            stack_bounded=payload["stack_bounded"],
            total_down=payload["total_down"],
            text_start=payload["text_start"],
            text_end=payload["text_end"],
            proved_reads=frozenset(payload["proved_reads"]),
            proved_writes=frozenset(payload["proved_writes"]),
            sites=[SiteVerdict(s["pc"], s["kind"], s["verdict"],
                               s.get("detail", ""))
                   for s in payload["sites"]],
            errors=list(payload["errors"]),
        )


def verify_image(image: ElfImage | bytes) -> AnalysisReport:
    """Statically verify ``image``; raw bytes are analysed once per process
    (the report lives in the image's :mod:`repro.vm.images` record)."""
    if isinstance(image, (bytes, bytearray)):
        record = image_record(bytes(image))
        report = record.analysis()
        if report is not None:
            return report
        image = record.image        # the analysis raised: raise it here too
    return _verify_parsed(image, "")


def _verify_parsed(image: ElfImage, digest: str) -> AnalysisReport:
    # Imported here, not at the top: a process whose reports all come from the
    # store (repro.vm.store) builds AnalysisReports and never runs an engine.
    from repro.analysis.absint import analyze
    from repro.analysis.cfg import SEVERITY_ERROR, recover_cfg

    cfg = recover_cfg(image)
    result = analyze(cfg)
    min_size = image.load_size + HEAP_HEADROOM + DEFAULT_STACK_SIZE

    stack_ok = (result.stack_bounded
                and result.total_down <= min_size - _STACK_MARGIN)

    sites = _classify_sites(cfg, result, min_size, stack_ok)
    errors = [
        {"pc": e.pc, "reason": e.reason, "message": e.message,
         "severity": e.severity}
        for e in cfg.errors
    ]
    for e in cfg.errors:
        if e.severity == SEVERITY_ERROR:
            sites.append(SiteVerdict(e.pc, "code", VERDICT_UNSAFE, e.reason))

    proved_reads = frozenset(
        s.pc for s in sites if s.kind == "read" and s.verdict == VERDICT_PROVED)
    proved_writes = frozenset(
        s.pc for s in sites if s.kind == "write" and s.verdict == VERDICT_PROVED)
    verdict = "safe" if not any(s.verdict == VERDICT_UNSAFE for s in sites) \
        else "unsafe"
    sites.sort(key=lambda s: (s.pc, s.kind))
    return AnalysisReport(
        image_sha256=digest,
        verdict=verdict,
        min_size=min_size,
        stack_bounded=stack_ok,
        total_down=result.total_down,
        text_start=cfg.text_start,
        text_end=cfg.text_end,
        proved_reads=proved_reads,
        proved_writes=proved_writes,
        sites=sites,
        errors=errors,
    )


def _classify_sites(
    cfg: ControlFlowGraph,
    result: AnalysisResult,
    min_size: int,
    stack_ok: bool,
) -> list[SiteVerdict]:
    from repro.analysis.domains import ZONE_ABS

    # Memory accesses: an instruction may be observed in several calling
    # contexts; it is proved only if proved in all of them, unsafe if any
    # context makes it definitely fault.
    merged: dict[tuple[int, str], tuple[str, int, str]] = {}
    for access in result.accesses:
        verdict, detail = _classify_access(access, min_size, stack_ok)
        key = (access.pc, access.kind)
        known = merged.get(key)
        if known is None:
            merged[key] = (verdict, access.width, detail)
        else:
            merged[key] = (_worst(known[0], verdict), known[1],
                           detail if verdict != VERDICT_PROVED else known[2])
    sites = [SiteVerdict(pc, kind, verdict, detail)
             for (pc, kind), (verdict, _w, detail) in merged.items()]

    # Syscall sites: the only legal numbers are 0..4; an interval disjoint
    # from that range always raises SyscallFault.
    syscall_best: dict[int, str] = {}
    for site in result.syscalls:
        number = site.number
        if number.zone == ZONE_ABS and number.hi <= 4:
            verdict = VERDICT_PROVED
        elif number.zone == ZONE_ABS and number.lo > 4:
            verdict = VERDICT_UNSAFE
        else:
            verdict = VERDICT_GUARD
        known = syscall_best.get(site.pc)
        syscall_best[site.pc] = _worst(known, verdict) if known else verdict
    sites.extend(SiteVerdict(pc, "syscall", verdict,
                             "" if verdict == VERDICT_PROVED
                             else "syscall number not statically 0..4")
                 for pc, verdict in syscall_best.items())

    # Branch sites: direct targets were validated during CFG recovery
    # (violations are CfgErrors); indirect control flow stays dynamic.
    for block in cfg.blocks.values():
        terminator = block.terminator
        if terminator is None:
            continue
        pc = block.instructions[-1][0]
        if terminator.op in (Op.JMPR, Op.CALLR):
            sites.append(SiteVerdict(pc, "branch", VERDICT_GUARD,
                                     "indirect target resolved dynamically"))
        elif terminator.op is Op.RET:
            sites.append(SiteVerdict(pc, "branch", VERDICT_GUARD,
                                     "return target resolved dynamically"))
        elif terminator.op in (Op.JMP, Op.CALL) or \
                terminator.info.is_branch and terminator.info.fmt.value == "rel":
            sites.append(SiteVerdict(pc, "branch", VERDICT_PROVED))
    return sites


def _classify_access(access, min_size: int, stack_ok: bool) -> tuple[str, str]:
    from repro.analysis.domains import DELTA_LIMIT, ZONE_ABS, ZONE_SP

    address = access.address
    width = access.width
    if address.zone == ZONE_ABS:
        if address.hi + width <= min_size:
            return VERDICT_PROVED, ""
        if address.lo + width > GUEST_ADDRESS_SPACE_LIMIT:
            return (VERDICT_UNSAFE,
                    f"address >= 0x{address.lo:x} exceeds the guest address "
                    f"space in every sandbox")
        return VERDICT_GUARD, "address range not bounded by min_size"
    if address.zone == ZONE_SP and stack_ok:
        slack = _ROOT_SLACK if access.root else _NESTED_SLACK
        if address.hi + width <= slack and address.lo >= -DELTA_LIMIT:
            return VERDICT_PROVED, ""
        return VERDICT_GUARD, "stack delta not bounded"
    return VERDICT_GUARD, "address not statically resolvable"


def _worst(a: str, b: str) -> str:
    order = {VERDICT_PROVED: 0, VERDICT_GUARD: 1, VERDICT_UNSAFE: 2}
    return a if order[a] >= order[b] else b
