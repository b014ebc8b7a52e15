#!/usr/bin/env python3
"""Regenerate the corrupted-archive corpus for the media-chaos CI job.

No corrupted binaries are committed to the repository: this tool rebuilds
the whole corpus deterministically from synthetic seed archives, so the
fixtures can never rot out of sync with the writer.  Each corpus case is a
seed archive plus one media fault from :mod:`repro.faults.media`
(``truncate-tail``, ``flip-bytes`` at structurally interesting offsets,
``torn-finalize``), paired with the classification ``vxunzip check --deep``
must assign it.

``--verify`` additionally runs the acceptance drill over the generated
corpus: every salvageable case must repair into a clean archive whose
surviving members re-extract byte-identically to the seed's.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.core.integrity import assess_media
from repro.faults.media import TornFinalize, flip_bytes, truncate_tail
from repro.repair import repair_archive
from repro.workloads import synthetic_log_bytes
from repro.zipformat.reader import ZipReader


def seed_members() -> dict[str, bytes]:
    members = {f"log{index}.txt": synthetic_log_bytes(1200 + 90 * index,
                                                      seed=index)
               for index in range(4)}
    members["raw.bin"] = bytes(range(256)) * 16
    return members


def build_seed(path: pathlib.Path, members: dict[str, bytes]) -> bytes:
    with vxa.create(path) as builder:
        for name, data in members.items():
            if name.endswith(".bin"):
                builder.add(name, data, store_raw=True)
            else:
                builder.add(name, data, codec="vxz")
    return path.read_bytes()


def generate(corpus: pathlib.Path) -> list[dict]:
    """Write every corpus case under ``corpus``; returns the manifest."""
    corpus.mkdir(parents=True, exist_ok=True)
    members = seed_members()
    seed_path = corpus / "seed.vxa"
    seed = build_seed(seed_path, members)
    reader = ZipReader(seed)
    victim = next(entry for entry in reader.entries
                  if entry.name == "log1.txt")
    victim_start, victim_size = reader.member_extent(victim)
    decoder_offset = min(row.offset for row in reader.digest_table.extents
                         if not row.name)

    cases = [
        {"name": "clean", "expect": "clean", "lost": [],
         "data": seed},
        {"name": "truncate-tail-directory", "expect": "salvageable",
         "lost": [],
         "data": truncate_tail(
             seed, len(seed) - (reader.directory_offset
                                + reader.directory_size // 2))},
        {"name": "flip-payload", "expect": "salvageable",
         "lost": ["log1.txt"],
         "data": flip_bytes(seed, victim_start + victim_size - 24, 8,
                            seed=101)},
        {"name": "flip-central-directory", "expect": "salvageable",
         "lost": [],
         "data": flip_bytes(seed, reader.directory_offset + 16, 6, seed=102)},
        {"name": "flip-decoder-extent", "expect": "salvageable",
         "lost": [name for name in members if name != "raw.bin"],
         "data": flip_bytes(seed, decoder_offset + 48, 4, seed=103)},
    ]

    torn_target = corpus / "never-finalized.vxa"
    try:
        with vxa.create(torn_target,
                        vxa.WriteOptions(finalize_fault="mid-directory")
                        ) as builder:
            for name, data in members.items():
                builder.add(name, data, codec=None if name.endswith(".bin")
                            else "vxz", store_raw=name.endswith(".bin"))
    except TornFinalize:
        pass
    [torn_temp] = list(corpus.glob("never-finalized.vxa.vxa-tmp.*"))
    cases.append({"name": "torn-finalize", "expect": "salvageable",
                  "lost": [], "data": torn_temp.read_bytes()})
    torn_temp.unlink()

    manifest = []
    for case in cases:
        path = corpus / f"{case['name']}.vxa"
        path.write_bytes(case["data"])
        manifest.append({"name": case["name"], "path": str(path),
                         "expect": case["expect"], "lost": case["lost"]})
    (corpus / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def verify(corpus: pathlib.Path, manifest: list[dict], jobs: int) -> int:
    """The acceptance drill: classification, repair, byte-identity."""
    members = seed_members()
    failures = 0
    for case in manifest:
        path = pathlib.Path(case["path"])
        assessment = assess_media(path)
        got = assessment.classification()
        if got != case["expect"]:
            print(f"FAIL {case['name']}: classified {got}, "
                  f"expected {case['expect']}")
            failures += 1
            continue
        if got == "unrecoverable":
            continue
        repaired = path.with_suffix(".repaired.vxa")
        result = repair_archive(path, repaired)
        if set(result.dropped) != set(case["lost"]):
            print(f"FAIL {case['name']}: dropped {sorted(result.dropped)}, "
                  f"expected {sorted(case['lost'])}")
            failures += 1
            continue
        if assess_media(repaired).classification() != "clean":
            print(f"FAIL {case['name']}: repaired archive is not clean")
            failures += 1
            continue
        out = path.with_suffix(".out")
        options = vxa.ReadOptions(mode=vxa.MODE_VXA, jobs=jobs,
                                  executor=EXECUTOR_THREAD)
        with vxa.open(repaired, options) as archive:
            report = archive.extract_into(out)
        if report.failures:
            print(f"FAIL {case['name']}: repaired members failed to extract")
            failures += 1
            continue
        survivors = set(members) - set(case["lost"])
        mismatched = [name for name in survivors
                      if (out / name).read_bytes() != members[name]]
        if mismatched:
            print(f"FAIL {case['name']}: bytes differ for {mismatched}")
            failures += 1
            continue
        print(f"ok {case['name']}: {got}, {len(survivors)} member(s) "
              f"recovered byte-identically (jobs={jobs})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="media-corpus",
                        help="corpus directory (default: ./media-corpus)")
    parser.add_argument("--verify", action="store_true",
                        help="run the repair acceptance drill on the corpus")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker count for the verification extracts")
    args = parser.parse_args(argv)
    corpus = pathlib.Path(args.output)
    manifest = generate(corpus)
    print(f"generated {len(manifest)} corpus case(s) under {corpus}")
    if not args.verify:
        return 0
    failures = verify(corpus, manifest, args.jobs)
    if failures:
        print(f"{failures} corpus case(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
