"""Static verifier for VXA-32 decoder images.

Combines CFG recovery (:mod:`repro.analysis.cfg`) with abstract
interpretation (:mod:`repro.analysis.absint`) to classify every memory
access, branch and virtual system call as

* ``proved``  -- safe in every sandbox of at least ``min_size`` bytes,
* ``guard``   -- not statically resolvable; the dynamic bounds guard stays,
* ``unsafe``  -- statically guaranteed to fault or structurally ill-formed.

The resulting :class:`AnalysisReport` keeps what its readers read: the proved
sets and ``min_size`` (the translator), the tally of sites per verdict and
the unsafe sites (``vxunzip analyze``, admission).  It is serialisable
(``as_dict`` / ``from_dict``) and kept in the image's process-wide record
(:mod:`repro.vm.images`, keyed by SHA-256), which the per-user store
restores.  A proof speaks about ``ElfImage.text``, the very bytes both
engines execute.

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
    """Serialisable outcome of statically verifying one decoder image: the
    facts the translator reads, the per-verdict tally of every site, and the
    sites that are unsafe."""

    image_sha256: str
    verdict: str                   # "safe" | "unsafe"
    min_size: int                  # smallest sandbox the proofs hold for
    stack_bounded: bool
    total_down: int                # proven max stack depth (bytes)
    proved_reads: frozenset[int] = frozenset()
    proved_writes: frozenset[int] = frozenset()
    counts: dict[str, int] = field(default_factory=dict)   # sites per verdict
    unsafe_sites: list[SiteVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.verdict == "safe"

    def as_dict(self) -> dict:
        return {
            "image_sha256": self.image_sha256,
            "verdict": self.verdict,
            "min_size": self.min_size,
            "stack_bounded": self.stack_bounded,
            "total_down": self.total_down,
            "proved_reads": sorted(self.proved_reads),
            "proved_writes": sorted(self.proved_writes),
            "counts": dict(self.counts),
            "unsafe_sites": [
                {"pc": s.pc, "kind": s.kind, "detail": s.detail}
                for s in self.unsafe_sites
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisReport":
        return cls(
            image_sha256=payload["image_sha256"],
            verdict=payload["verdict"],
            min_size=payload["min_size"],
            stack_bounded=payload["stack_bounded"],
            total_down=payload["total_down"],
            proved_reads=frozenset(payload["proved_reads"]),
            proved_writes=frozenset(payload["proved_writes"]),
            counts=dict(payload["counts"]),
            unsafe_sites=[SiteVerdict(s["pc"], s["kind"], VERDICT_UNSAFE,
                                      s["detail"])
                          for s in payload["unsafe_sites"]],
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
    from repro.analysis.cfg import recover_cfg

    cfg = recover_cfg(image)
    result = analyze(cfg)
    min_size = image.load_size + HEAP_HEADROOM + DEFAULT_STACK_SIZE

    stack_ok = (result.stack_bounded
                and result.total_down <= min_size - _STACK_MARGIN)

    sites = _classify_sites(cfg, result, min_size, stack_ok)
    sites.extend(SiteVerdict(e.pc, "code", VERDICT_UNSAFE, e.reason)
                 for e in cfg.errors)
    sites.sort(key=lambda s: (s.pc, s.kind))
    counts = {VERDICT_PROVED: 0, VERDICT_GUARD: 0, VERDICT_UNSAFE: 0}
    for site in sites:
        counts[site.verdict] += 1
    unsafe = [s for s in sites if s.verdict == VERDICT_UNSAFE]
    return AnalysisReport(
        image_sha256=digest,
        verdict="unsafe" if unsafe else "safe",
        min_size=min_size,
        stack_bounded=stack_ok,
        total_down=result.total_down,
        proved_reads=frozenset(
            s.pc for s in sites
            if s.kind == "read" and s.verdict == VERDICT_PROVED),
        proved_writes=frozenset(
            s.pc for s in sites
            if s.kind == "write" and s.verdict == VERDICT_PROVED),
        counts=counts,
        unsafe_sites=unsafe,
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
