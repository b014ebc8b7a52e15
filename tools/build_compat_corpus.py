#!/usr/bin/env python3
"""Build one archive of the compatibility corpus from a past commit.

The corpus holds archives that earlier trees of this repository wrote, with
the decoders those trees compiled, so that today's reader is checked against
them (``tests/test_compat_corpus.py``).  The corpus is derived, never
hand-edited: this tool exports COMMIT with ``git archive`` into a temporary
directory, runs the writer below with *that* tree's ``repro`` on
``PYTHONPATH``, and writes two files to ``tests/data/compat/``:

* ``<commit>.zip``: one tiny member for each of the six codecs, one stored
  member and one deflate member;
* ``<commit>.json``: the full commit id, the command that made the archive,
  and every member's SHA-256 as the exporting tree extracted it.  The writer
  extracts each member with the archived decoder and natively and requires
  both to agree before recording it.

    python tools/build_compat_corpus.py [COMMIT]      # default HEAD
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

_REPO = pathlib.Path(__file__).resolve().parents[1]
CORPUS = _REPO / "tests" / "data" / "compat"
#: The ceiling on one archive of the corpus.
MAX_ARCHIVE_BYTES = 64 * 1024

#: Runs inside the exported tree: argv[1] is the archive to write; prints the
#: members' SHA-256 as JSON.
_WRITER = r"""
import hashlib, json, sys
import repro.api as vxa
from repro.formats import write_ppm, write_wav
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_source_file

text = synthetic_source_file(1200, seed=28).encode()
photo = write_ppm(synthetic_photo(12, 10, seed=28))
clip = write_wav(synthetic_music(seconds=0.03, sample_rate=8000, channels=1, seed=28))
coded = [("text.vxz.txt", text, "vxz"), ("text.bwt.txt", text, "vxbwt"),
         ("photo.img.ppm", photo, "vximg"), ("photo.jp2.ppm", photo, "vxjp2"),
         ("clip.flac.wav", clip, "vxflac"), ("clip.snd.wav", clip, "vxsnd")]
with vxa.create(sys.argv[1], vxa.WriteOptions(allow_lossy=True)) as builder:
    for name, data, codec in coded:
        builder.add(name, data, codec=codec)
    builder.add("stored.bin", bytes(range(256)) * 2, store_raw=True)
    # The builder writes no deflate member of its own; its ZIP writer does.
    builder._zip.add_deflate_member("deflated.txt", text[:600] * 3)
digests = {}
for mode in ("vxa", "native"):
    with vxa.open(sys.argv[1], vxa.ReadOptions(mode=mode)) as archive:
        seen = {name: hashlib.sha256(archive.extract(name).data).hexdigest()
                for name in archive.names()}
    assert digests in ({}, seen), mode
    digests = seen
print(json.dumps(digests))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=_REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


def build(commit: str, out: pathlib.Path = CORPUS) -> pathlib.Path:
    """Write ``<commit>.zip`` and ``<commit>.json`` under ``out``; return the
    archive's path."""
    full = _git("rev-parse", "--verify", f"{commit}^{{commit}}")
    out.mkdir(parents=True, exist_ok=True)
    archive = out / f"{full[:12]}.zip"
    with tempfile.TemporaryDirectory() as tree:
        exported = subprocess.run(["git", "archive", full], cwd=_REPO, check=True,
                                  capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=exported, check=True)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree) / "src"),
                   XDG_CACHE_HOME=str(pathlib.Path(tree) / ".cache"))
        written = subprocess.run([sys.executable, "-c", _WRITER, str(archive)],
                                 cwd=tree, env=env, check=True, capture_output=True,
                                 text=True).stdout
    size = archive.stat().st_size
    if size > MAX_ARCHIVE_BYTES:
        archive.unlink()
        raise SystemExit(f"{archive.name}: {size} bytes, over {MAX_ARCHIVE_BYTES}")
    record = {
        "commit": full,
        "command": f"python tools/build_compat_corpus.py {full}",
        "members": json.loads(written),
    }
    archive.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    return archive


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commit", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    archive = build(args.commit)
    print(f"{archive.relative_to(_REPO)}: {archive.stat().st_size} bytes")


if __name__ == "__main__":
    main()
