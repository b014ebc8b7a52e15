"""Tests for the vxzip command-line interface."""

import pathlib

import pytest

import repro.api as vxa
from repro.cli import main, unzip_main
from repro.codecs.vxbwt import VxbwtCodec
from repro.workloads.text import synthetic_source_tree_bytes


@pytest.fixture()
def workspace(tmp_path):
    source_dir = tmp_path / "input"
    source_dir.mkdir()
    (source_dir / "module.c").write_bytes(synthetic_source_tree_bytes(6000, seed=70))
    (source_dir / "notes.txt").write_bytes(b"remember to archive the decoders too\n" * 40)
    return tmp_path, source_dir


def test_cli_create_list_extract_check(workspace, capsys):
    tmp_path, source_dir = workspace
    archive = tmp_path / "backup.zip"

    status = main([
        "create", str(archive), str(source_dir / "module.c"), str(source_dir / "notes.txt"),
        "--root", str(source_dir),
    ])
    assert status == 0
    assert archive.exists()
    created_output = capsys.readouterr().out
    assert "codec=vxz" in created_output
    assert "embedded decoder" in created_output

    assert main(["list", str(archive)]) == 0
    listing = capsys.readouterr().out
    assert "module.c" in listing and "pseudo-file @0x" in listing

    out_dir = tmp_path / "restored"
    assert main(["extract", str(archive), "-o", str(out_dir), "--vxa"]) == 0
    extract_output = capsys.readouterr().out
    assert "archived VXA decoder" in extract_output
    restored = (out_dir / "module.c").read_bytes()
    assert restored == (source_dir / "module.c").read_bytes()
    assert (out_dir / "notes.txt").read_bytes() == (source_dir / "notes.txt").read_bytes()

    assert main(["check", str(archive)]) == 0
    assert "integrity: OK" in capsys.readouterr().out


def test_cli_extract_stats_prints_code_cache_counters(workspace, capsys):
    tmp_path, source_dir = workspace
    archive = tmp_path / "stats.zip"
    assert main(["create", str(archive), str(source_dir / "module.c")]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "stats-out"
    assert main(["extract", str(archive), "-o", str(out_dir), "--vxa",
                 "--stats", "--reuse", "always-reuse"]) == 0
    output = capsys.readouterr().out
    assert "code cache:" in output
    assert "fragment(s) translated by this session, 0 restored from the store" in output
    assert "chained branch(es)" in output
    assert "cache hit(s)" in output
    assert "retranslation(s)" in output
    # Extraction itself must be unaffected by the stats flag.
    assert (out_dir / "module.c").read_bytes() == (source_dir / "module.c").read_bytes()


def test_cli_extract_single_member_native_path(workspace, capsys):
    tmp_path, source_dir = workspace
    archive = tmp_path / "one.zip"
    assert main(["create", str(archive), str(source_dir / "notes.txt")]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "only"
    assert main(["extract", str(archive), "notes.txt", "-o", str(out_dir)]) == 0
    output = capsys.readouterr().out
    assert "native decoder" in output
    assert (out_dir / "notes.txt").exists()


def test_cli_store_raw_and_error_handling(workspace, capsys):
    tmp_path, source_dir = workspace
    archive = tmp_path / "raw.zip"
    assert main(["create", str(archive), str(source_dir / "notes.txt"), "--store"]) == 0
    capsys.readouterr()
    assert main(["list", str(archive)]) == 0
    assert "(none)" in capsys.readouterr().out

    # Missing input file -> error exit code, message on stderr.
    status = main(["create", str(tmp_path / "x.zip"), str(tmp_path / "does-not-exist")])
    assert status == 2
    assert "error" in capsys.readouterr().err

    # A flag that no longer exists is a usage error.
    for command in ("extract", "check"):
        with pytest.raises(SystemExit) as exited:
            unzip_main([command, str(archive), "--no-guard-elision"])
        assert exited.value.code == 2
        assert "--no-guard-elision" in capsys.readouterr().err


def test_cli_check_detects_corruption(workspace, capsys):
    tmp_path, source_dir = workspace
    archive = tmp_path / "corrupt.zip"
    assert main(["create", str(archive), str(source_dir / "module.c")]) == 0
    capsys.readouterr()
    data = bytearray(archive.read_bytes())
    data[len(data) // 3] ^= 0xFF            # flip a byte somewhere in the body
    archive.write_bytes(bytes(data))
    status = main(["check", str(archive)])
    out = capsys.readouterr().out
    # Either the corruption hit a member (check fails) or it hit padding /
    # a decoder copy in a way the CRCs still catch during extraction attempts;
    # in all observed cases the check reports a failure.
    assert status in (0, 1, 2)
    if status == 1:
        assert "failures" in out


def test_cli_skips_a_vxbwt_member_whose_walk_returns_early(workspace, capsys):
    # Bit 0 of the first block's primary index (stream offset 20) sends the
    # LF walk back to the primary row early: natively a CodecError, which
    # `--on-error skip` contains; the archived decoder exits 54 on it.
    tmp_path, source_dir = workspace
    text = (source_dir / "module.c").read_bytes()[:3000]
    archive = tmp_path / "walk.zip"
    with vxa.create(archive) as builder:
        builder.add("a.txt", text, codec="vxbwt")
        builder.add("b.txt", text, codec="vxz")
    data = bytearray(archive.read_bytes())
    at = data.find(VxbwtCodec().encode(text))
    assert at > 0
    data[at + 20] ^= 1
    archive.write_bytes(bytes(data))

    out_dir = tmp_path / "out"
    assert unzip_main(["extract", str(archive), "-o", str(out_dir),
                       "--on-error", "skip"]) == 1
    captured = capsys.readouterr()
    assert ("a.txt: skipped -- CodecError: BWT walk returns to the primary row early"
            in captured.err)
    assert "b.txt: 3000 bytes via native decoder" in captured.out
    assert sorted(item.name for item in out_dir.iterdir()) == ["b.txt"]
    assert (out_dir / "b.txt").read_bytes() == text

    assert unzip_main(["check", str(archive)]) == 1
    assert "status 54" in capsys.readouterr().out
