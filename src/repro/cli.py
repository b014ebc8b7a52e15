"""Command-line interface: the ``vxzip`` / ``vxunzip`` tools.

The paper's prototype is a pair of command-line utilities that extend
ZIP/UnZIP.  This module provides the equivalent front end over the
:mod:`repro.api` facade:

* ``vxzip create ARCHIVE FILES...`` -- build an archive, auto-selecting codecs
  and embedding decoders (``--lossy`` permits lossy media codecs),
* ``vxzip list ARCHIVE`` -- list members with their codecs and decoders,
* ``vxzip extract ARCHIVE [-o DIR]`` -- extract members (streaming, with
  zip-slip protection), optionally forcing the archived VXA decoders
  (``--vxa``) or decoding pre-compressed members all the way to their
  uncompressed form (``--force-decode``),
* ``vxzip check ARCHIVE`` -- the integrity check that always runs the
  archived decoders (``--reuse`` picks the section 2.4 VM-reuse policy).

``vxunzip`` exposes the reading half (list/extract/check) under the name
the paper uses for the extraction tool.  Usable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import repro.api as vxa
from repro.core.policy import VmReusePolicy
from repro.core.types import format_counters
from repro.errors import ArchiveDamagedError, VxaError


def _read_options(args) -> vxa.ReadOptions:
    mode = vxa.MODE_VXA if getattr(args, "vxa", False) else vxa.MODE_AUTO
    reuse = VmReusePolicy(getattr(args, "reuse", VmReusePolicy.ALWAYS_FRESH.value))
    on_error = getattr(args, "on_error", None) or vxa.ON_ERROR_ABORT
    if getattr(args, "keep_going", False) and on_error == vxa.ON_ERROR_ABORT:
        # --keep-going is the ergonomic alias; --on-error picks the flavour.
        on_error = vxa.ON_ERROR_QUARANTINE
    return vxa.ReadOptions(
        mode=mode,
        force_decode=getattr(args, "force_decode", False),
        reuse=reuse,
        jobs=max(1, getattr(args, "jobs", 1) or 1),
        verify_images=getattr(args, "verify_images", "off"),
        on_error=on_error,
        retries=getattr(args, "retries", 1),
        member_deadline=getattr(args, "member_deadline", None),
        on_damage=(vxa.ON_DAMAGE_SALVAGE if getattr(args, "salvage", False)
                   else vxa.ON_DAMAGE_REJECT),
    )


def _cmd_create(args) -> int:
    root = pathlib.Path(args.root) if args.root else None
    with vxa.create(args.archive, vxa.WriteOptions(allow_lossy=args.lossy)) as builder:
        for file_name in args.files:
            path = pathlib.Path(file_name)
            member = str(path.relative_to(root)) if root else path.name
            info = builder.add_path(path, member, store_raw=args.store)
            print(f"  adding {member}  ({info.original_size} -> {info.stored_size} bytes, "
                  f"codec={info.codec or 'none'})")
        manifest = builder.finish()
    print(f"wrote {args.archive}: {manifest.archive_size} bytes, "
          f"{len(manifest.files)} member(s), {len(manifest.decoders)} embedded decoder(s), "
          f"decoder overhead {manifest.decoder_overhead_fraction * 100:.1f}%")
    return 0


def _cmd_list(args) -> int:
    with vxa.open(args.archive) as archive:
        print(f"{'member':40s} {'stored':>10s} {'original':>10s} {'codec':>8s}  decoder")
        for entry in archive.entries():
            extension = archive.extension_for(entry.name)
            codec = extension.codec_name if extension else "-"
            decoder = (f"pseudo-file @0x{extension.decoder_offset:x}"
                       if extension else "(none)")
            flags = " [pre-compressed]" if extension and extension.precompressed else ""
            print(f"{entry.name:40s} {entry.compressed_size:10d} "
                  f"{entry.uncompressed_size:10d} {codec:>8s}  {decoder}{flags}")
    return 0


#: ``--reuse``: what it decides, and what the safe default costs.
_REUSE_HELP = ("when VM state is re-initialised between files sharing a "
               "decoder; always-fresh (default) reloads the sandbox for every "
               "file, translated code is kept under every policy")

_STATS_LINES = (
    ("code cache", ("fragments_translated", "fragments_restored",
                    "chained_branches", "cache_hits", "retranslations")),
    ("static analysis", ("images_verified", "guards_elided")),
    ("durability", ("members_salvaged", "directory_reconstructed",
                    "commit_record_verified")),
)


def _cmd_extract(args) -> int:
    with vxa.open(args.archive, _read_options(args)) as archive:
        report = archive.extract_into(
            pathlib.Path(args.output),
            names=args.members or None,
        )
        for record in report:
            how = "archived VXA decoder" if record.used_vxa_decoder else (
                "native decoder" if record.decoded else "stored form (still compressed)")
            print(f"  {record.name}: {record.size} bytes via {how}")
        for failure in report.failures:
            status = "quarantined" if failure.quarantined else "skipped"
            retried = (f", {failure.attempts} attempt(s)"
                       if failure.attempts > 1 else "")
            print(f"  {failure.name}: {status} -- {failure.error_type}: "
                  f"{failure.message}{retried}", file=sys.stderr)
        if report.failures:
            print(f"{len(report)} member(s) extracted, "
                  f"{len(report.failures)} failed "
                  f"({len(report.quarantined)} quarantined)", file=sys.stderr)
        if getattr(args, "stats", False):
            # With --jobs > 1 these counters are the merged totals of every
            # worker's DecoderSession, so the line reads the same either way.
            print("\n".join(format_counters(archive.session.stats,
                                            _STATS_LINES)))
    return 1 if report.failures else 0


def _cmd_analyze(args) -> int:
    from repro.analysis.verify import verify_image
    from repro.elf.reader import read_note

    failed = 0
    with vxa.open(args.archive) as archive:
        decoders: dict[int, tuple[str, list[str]]] = {}
        for entry in archive.entries():
            extension = archive.extension_for(entry.name)
            if extension is None:
                continue
            codec, members = decoders.setdefault(
                extension.decoder_offset, (extension.codec_name, []))
            members.append(entry.name)
        if not decoders:
            print("no archived decoders to analyse")
            return 0
        for offset, (codec, members) in sorted(decoders.items()):
            image = archive.decoder_image_for(members[0])
            report = verify_image(image)
            counts = report.counts
            status = "SAFE" if report.ok else "UNSAFE"
            # Images outlive the compiler that built them; say which one did.
            toolchain = read_note(image).get("toolchain", "unknown toolchain")
            print(f"decoder {codec} @0x{offset:x} [{toolchain}] "
                  f"({len(members)} member(s)): {status}")
            print(f"  sites: {counts['proved']} proved, "
                  f"{counts['guard']} guarded, {counts['unsafe']} unsafe; "
                  f"{len(report.proved_reads)} read / "
                  f"{len(report.proved_writes)} write guard(s) elidable")
            stack = (f"stack bounded at {report.total_down} byte(s)"
                     if report.stack_bounded
                     else "stack depth not statically bounded")
            print(f"  {stack}; proofs valid for sandboxes >= "
                  f"{report.min_size} bytes")
            for site in report.unsafe_sites[:8]:
                detail = f" ({site.detail})" if site.detail else ""
                print(f"  unsafe @0x{site.pc:x}: {site.kind}{detail}")
            if not report.ok:
                failed += 1
    return 1 if failed else 0


def _cmd_check(args) -> int:
    if getattr(args, "deep", False):
        # Media-level verdict: operates on the raw bytes (no decoder runs),
        # so it works even on archives too damaged to open normally.
        # Exit codes: 0 clean / 1 salvageable / 2 unrecoverable.
        from repro.core.integrity import assess_media, format_assessment

        assessment = assess_media(args.archive)
        print(format_assessment(assessment))
        return assessment.exit_code()
    from repro.core.integrity import format_report

    with vxa.open(args.archive, _read_options(args)) as archive:
        report = archive.check()
        print(format_report(report))
    return 0 if report.ok else 1


def _cmd_repair(args) -> int:
    """Rebuild a clean archive from a damaged one's salvageable members."""
    import json

    from repro.repair import repair_archive

    try:
        result = repair_archive(args.archive, args.output)
    except ArchiveDamagedError as error:
        print(f"unrecoverable: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(f"classification  : {result.classification}")
        for region in result.regions:
            affected = (f" (affects {', '.join(region.members)})"
                        if region.members else "")
            print(f"  damaged bytes {region.start}..{region.end}: "
                  f"{region.description}{affected}")
        for action in result.actions:
            reason = f" -- {action.reason}" if action.reason else ""
            print(f"  {action.name}: {action.action}{reason}")
        if result.rebuilt:
            print(f"rebuilt {result.output_path}: "
                  f"{len(result.copied)} member(s) salvaged, "
                  f"{len(result.dropped)} dropped")
        elif args.output is None:
            print("dry run (no --output): nothing written")
    return result.exit_code


def _add_decoder_flags(parser) -> None:
    """How ``extract`` and ``check`` run the archived decoders."""
    parser.add_argument("--reuse", default=VmReusePolicy.ALWAYS_FRESH.value,
                        choices=[policy.value for policy in VmReusePolicy],
                        help=_REUSE_HELP)
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="run N parallel workers, sharding members by "
                             "decoder image (default: 1, serial)")
    parser.add_argument("--verify-images", default="off",
                        choices=["off", "warn", "reject"],
                        help="statically verify archived decoder images "
                             "before running them")


def _add_containment_flags(parser) -> None:
    """Fault-containment knobs shared by ``extract`` and ``check``."""
    parser.add_argument("-k", "--keep-going", action="store_true",
                        help="do not abort on a failing member: quarantine "
                             "it and extract everything else")
    parser.add_argument("--on-error", default=None,
                        choices=[vxa.ON_ERROR_ABORT, vxa.ON_ERROR_SKIP,
                                 vxa.ON_ERROR_QUARANTINE],
                        help="per-member failure policy (overrides "
                             "--keep-going's default of 'quarantine')")
    parser.add_argument("--retries", type=int, default=1,
                        help="times a member may kill its worker before it "
                             "is quarantined (default: 1)")
    parser.add_argument("--member-deadline", type=float, default=None,
                        help="wall-clock seconds one member's decoder may "
                             "run before it is aborted (default: no limit)")
    parser.add_argument("--salvage", action="store_true",
                        help="tolerate media damage: reconstruct a lost "
                             "directory, extract healthy members and report "
                             "damaged ones instead of aborting")


def _add_reading_commands(commands) -> None:
    listing = commands.add_parser("list", help="list archive members and decoders")
    listing.add_argument("archive")
    listing.set_defaults(handler=_cmd_list)

    extract = commands.add_parser("extract", help="extract members")
    extract.add_argument("archive")
    extract.add_argument("members", nargs="*", help="members to extract (default: all)")
    extract.add_argument("-o", "--output", default=".", help="output directory")
    extract.add_argument("--vxa", action="store_true",
                         help="always use the archived VXA decoders")
    extract.add_argument("--force-decode", action="store_true",
                         help="decode pre-compressed members to their uncompressed form")
    extract.add_argument("--stats", action="store_true",
                         help="print translation code-cache counters after extraction")
    _add_decoder_flags(extract)
    _add_containment_flags(extract)
    extract.set_defaults(handler=_cmd_extract)

    check = commands.add_parser("check", help="verify the archive with its own decoders")
    check.add_argument("archive")
    check.add_argument("--deep", action="store_true",
                       help="media-level verdict instead of decoder runs: "
                            "classify the bytes clean (exit 0) / salvageable "
                            "(exit 1) / unrecoverable (exit 2)")
    _add_decoder_flags(check)
    _add_containment_flags(check)
    check.set_defaults(handler=_cmd_check)

    analyze = commands.add_parser(
        "analyze",
        help="statically verify the archived decoder images without running them")
    analyze.add_argument("archive")
    analyze.set_defaults(handler=_cmd_analyze)

    repair = commands.add_parser(
        "repair",
        help="rebuild a clean archive from a damaged one's salvageable members")
    repair.add_argument("archive")
    repair.add_argument("-o", "--output", default=None,
                        help="path for the repaired archive (omit for a "
                             "dry-run damage report)")
    repair.add_argument("--json", action="store_true",
                        help="emit the structured damage report as JSON")
    repair.set_defaults(handler=_cmd_repair)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vxzip",
        description="VXA-enhanced ZIP archiver (vxZIP/vxUnZIP reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    create = commands.add_parser("create", help="create an archive from files")
    create.add_argument("archive")
    create.add_argument("files", nargs="+")
    create.add_argument("--lossy", action="store_true",
                        help="permit lossy codecs for media files")
    create.add_argument("--store", action="store_true",
                        help="store files raw with no compression or decoder")
    create.add_argument("--root", help="directory member names are relative to")
    create.set_defaults(handler=_cmd_create)

    _add_reading_commands(commands)
    return parser


def build_unzip_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vxunzip",
        description="VXA-aware ZIP extractor (vxUnZIP reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_reading_commands(commands)
    return parser


def _run(parser: argparse.ArgumentParser, argv: list[str] | None) -> int:
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (VxaError, OSError) as error:
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser(), argv)


def unzip_main(argv: list[str] | None = None) -> int:
    return _run(build_unzip_parser(), argv)


if __name__ == "__main__":
    raise SystemExit(main())
