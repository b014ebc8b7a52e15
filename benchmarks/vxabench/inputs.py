"""Seeded inputs for the four workloads, and the bytes they must decode to.

Every member draws its content from its own generator seed (all derived
from ``--seed``), so the guest work of a whole archive varies by well under
1% from seed to seed while no two seeds share a byte of input.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

import repro.api as vxa
from repro.codecs.registry import default_registry
from repro.core.policy import SecurityAttributes
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.workloads import (
    synthetic_log_bytes,
    synthetic_music,
    synthetic_photo,
    synthetic_source_tree_bytes,
)
from repro.zipformat.reader import ZipReader


@dataclass(frozen=True)
class Member:
    name: str
    data: bytes
    codec: str | None       # None = store_raw
    owner: int = 0


@dataclass(frozen=True)
class Shape:
    """Sizes of everything the benchmark builds.

    ``bench`` keeps the ROADMAP's archive *shapes* (32 mixed members, one
    member per decoder, stored bulk beside text, five hot vxz members) but
    shrinks the members so that three passes of each configuration fit the
    92-run time cap; the measured pass costs are in the README.
    """

    text_bytes: int
    photo: tuple[int, int]
    music_seconds: float
    mixed_text: int          # text slices in the mixed archive (x2 codecs)
    mixed_media: int         # photos and clips in it (x2 codecs each)
    tiny_text_bytes: int
    tiny_photo: tuple[int, int]
    bulk_raw: int
    bulk_raw_bytes: int
    bulk_text: int
    bulk_text_bytes: int
    lite_raw: int            # the layer probes' smaller copy of the bulk archive
    lite_text: int
    hot_members: int
    hot_bytes: int


SHAPES = {
    "bench": Shape(text_bytes=3072, photo=(32, 24), music_seconds=0.1,
                   mixed_text=8, mixed_media=4,
                   tiny_text_bytes=1500, tiny_photo=(24, 16),
                   bulk_raw=6, bulk_raw_bytes=1 << 20,
                   bulk_text=6, bulk_text_bytes=12288, lite_raw=2, lite_text=2,
                   hot_members=5, hot_bytes=1500),
    "smoke": Shape(text_bytes=300, photo=(8, 8), music_seconds=0.02,
                   mixed_text=1, mixed_media=1,
                   tiny_text_bytes=200, tiny_photo=(8, 8),
                   bulk_raw=2, bulk_raw_bytes=1 << 14,
                   bulk_text=2, bulk_text_bytes=600, lite_raw=1, lite_text=2,
                   hot_members=2, hot_bytes=300),
}


def _text(rng: random.Random, size: int) -> bytes:
    return synthetic_source_tree_bytes(size, seed=rng.randrange(1 << 30))[:size]


def _photo(rng: random.Random, size: tuple[int, int]) -> bytes:
    return write_ppm(synthetic_photo(*size, seed=rng.randrange(1 << 30)))


def _clip(rng: random.Random, seconds: float) -> bytes:
    return write_wav(synthetic_music(seconds=seconds, sample_rate=8000,
                                     channels=1, seed=rng.randrange(1 << 30)))


def mixed_members(seed: int, shape: Shape) -> list[Member]:
    """The ROADMAP's standard mixed archive: 8 vxz, 8 vxbwt, 4 of each media
    decoder, protection domains alternating (shape of ``bench_parallel``)."""
    rng = random.Random(f"mixed-{seed}")
    members = []
    for index in range(shape.mixed_text):
        text = _text(rng, shape.text_bytes)
        members.append(Member(f"tree{index}.txt", text, "vxz", index % 2))
        members.append(Member(f"tree{index}.bwt.txt", text, "vxbwt", index % 2))
    for index in range(shape.mixed_media):
        photo = _photo(rng, shape.photo)
        clip = _clip(rng, shape.music_seconds)
        members.append(Member(f"photo{index}.ppm", photo, "vximg", index % 2))
        members.append(Member(f"photo{index}.jp2.ppm", photo, "vxjp2", index % 2))
        members.append(Member(f"clip{index}.wav", clip, "vxflac", index % 2))
        members.append(Member(f"clip{index}.snd.wav", clip, "vxsnd", index % 2))
    return members


def tiny_members(seed: int, shape: Shape) -> list[Member]:
    """One small member per decoder: guest work is small, start-up is not."""
    rng = random.Random(f"tiny-{seed}")
    text = _text(rng, shape.tiny_text_bytes)
    photo = _photo(rng, shape.tiny_photo)
    clip = _clip(rng, shape.music_seconds)
    return [Member("a.txt", text, "vxz"), Member("b.txt", text, "vxbwt"),
            Member("c.ppm", photo, "vximg"), Member("d.ppm", photo, "vxjp2"),
            Member("e.wav", clip, "vxflac"), Member("f.wav", clip, "vxsnd")]


def bulk_members(seed: int, shape: Shape, *, lite: bool = False) -> list[Member]:
    """Stored bulk beside natively-encoded text: no member needs the VM."""
    rng = random.Random(f"bulk-{seed}")
    raw, text = ((shape.lite_raw, shape.lite_text) if lite
                 else (shape.bulk_raw, shape.bulk_text))
    members = [Member(f"blob{index}.bin", rng.randbytes(shape.bulk_raw_bytes),
                      None) for index in range(raw)]
    for index in range(text):
        members.append(Member(f"doc{index}.txt",
                              _text(rng, shape.bulk_text_bytes),
                              "vxz" if index % 2 == 0 else "vxbwt"))
    return members


def hot_members(seed: int, shape: Shape) -> list[Member]:
    """The hot vxz archive of ``bench_serve``."""
    rng = random.Random(f"hot-{seed}")
    return [Member(f"serve{index}.txt",
                   synthetic_log_bytes(shape.hot_bytes + 37 * index,
                                       seed=rng.randrange(1 << 30)), "vxz")
            for index in range(shape.hot_members)]


def add_member(builder, member: Member) -> None:
    if member.codec is None:
        builder.add(member.name, member.data, store_raw=True)
    else:
        builder.add(member.name, member.data, codec=member.codec,
                    attributes=SecurityAttributes(owner=member.owner, group=0,
                                                  mode=0o644))


def build_archive(path, members: list[Member],
                  options: vxa.WriteOptions | None = None) -> None:
    with vxa.create(path, options) as builder:
        for member in members:
            add_member(builder, member)


def expected_outputs(archive_path, members: list[Member]) -> dict[str, bytes]:
    """What each member must extract to.

    Lossless and stored members must come back as their source bytes.  A
    lossy member must equal the *native* decode of its stored payload: the
    native codec is an implementation independent of the guest decoder.
    """
    registry = default_registry()
    expected = {}
    with open(archive_path, "rb") as file:
        reader = ZipReader(file)
        for member in members:
            if member.codec is None or not registry.get(member.codec).info.lossy:
                expected[member.name] = member.data
            else:
                payload = reader.read_stored_bytes(reader.find(member.name))
                expected[member.name] = registry.get(member.codec).decode(payload)
    return expected


def tree_mismatches(directory, expected: dict[str, bytes]) -> list[str]:
    """Names under ``directory`` that are missing, extra or wrong."""
    directory = pathlib.Path(directory)
    wrong = [name for name, data in expected.items()
             if not (directory / name).is_file()
             or (directory / name).read_bytes() != data]
    present = ({path.name for path in directory.iterdir()}
               if directory.is_dir() else set())
    wrong.extend(sorted(present - set(expected)))
    return wrong
