"""Archives written by this repository's own past trees still decode.

``tests/data/compat/`` holds one archive per recorded commit, each made by
``tools/build_compat_corpus.py`` from that commit's tree, with the decoders
that tree compiled, and a JSON record of the commit, the command and every
member's SHA-256.  Today's reader must extract every member to the recorded
digest on the interpreter and on the translator, with guard elision on and
off, must admit every archived image under ``verify_images="reject"``, and
``check`` must pass.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

import repro.api as vxa
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR

_CORPUS = pathlib.Path(__file__).parent / "data" / "compat"
_RECORDS = sorted(_CORPUS.glob("*.json"))

_READERS = {
    "interpreter": vxa.ReadOptions(mode="vxa", engine=ENGINE_INTERPRETER),
    "translator": vxa.ReadOptions(mode="vxa", engine=ENGINE_TRANSLATOR),
    "translator-no-elision": vxa.ReadOptions(mode="vxa", engine=ENGINE_TRANSLATOR,
                                             analysis_elision=False),
    "verified": vxa.ReadOptions(mode="vxa", verify_images="reject"),
}


def test_corpus_is_present_and_small():
    assert _RECORDS
    for record_path in _RECORDS:
        record = json.loads(record_path.read_text())
        archive = record_path.with_suffix(".zip")
        assert archive.stat().st_size <= 64 * 1024
        assert record_path.stem == record["commit"][:12]
        assert record["command"].startswith("python tools/build_compat_corpus.py ")
        assert len(record["members"]) == 8


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("record_path", _RECORDS, ids=lambda path: path.stem)
def test_every_member_extracts_to_its_recorded_digest(record_path, reader):
    expected = json.loads(record_path.read_text())["members"]
    with vxa.open(record_path.with_suffix(".zip"), _READERS[reader]) as archive:
        assert sorted(archive.names()) == sorted(expected)
        for name, digest in expected.items():
            assert hashlib.sha256(archive.extract(name).data).hexdigest() == digest, name
        report = archive.check()
    assert report.ok, report.failures
    assert report.checked == 6
