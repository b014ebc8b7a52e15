"""Measurement helpers shared by the benchmark suite.

Each benchmark in ``benchmarks/`` regenerates one table or figure from the
paper's evaluation section.  The helpers here prepare the standard workloads
(one per codec class), time native and virtualised decoding, and collect the
decoder-size statistics for Table 2, so the individual benchmark files stay
focused on reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.codecs.base import Codec
from repro.codecs.registry import default_registry
from repro.formats.wav import write_wav
from repro.formats.ppm import write_ppm
from repro.vm.limits import ExecutionStats
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR, VirtualMachine
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_source_tree_bytes

#: Workload sizes used by the figure benchmarks.  These are deliberately
#: small: the guest decoders run on a Python-hosted VM, so one decode is
#: seconds, not milliseconds (``benchmarks/vxabench/README.md`` gives the
#: measured cost of a pass).
TEXT_WORKLOAD_BYTES = 12 * 1024
IMAGE_WORKLOAD_SIZE = (56, 48)          # width, height
AUDIO_WORKLOAD_SECONDS = 0.25
AUDIO_WORKLOAD_RATE = 8000


@dataclass
class DecoderWorkload:
    """One codec plus the encoded stream the Figure 7 benchmark decodes."""

    codec: Codec
    encoded: bytes
    original_size: int
    description: str


@dataclass
class EngineTiming:
    """Decode timings for one decoder under the different execution modes,
    with what each engine counted."""

    decoder: str
    native_seconds: float
    translator_seconds: float
    translator_stats: ExecutionStats
    interpreter_seconds: float | None = None
    interpreter_stats: ExecutionStats | None = None

    @property
    def translator_slowdown(self) -> float:
        return self.translator_seconds / self.native_seconds if self.native_seconds else 0.0

    @property
    def interpreter_slowdown(self) -> float | None:
        if self.interpreter_seconds is None or not self.native_seconds:
            return None
        return self.interpreter_seconds / self.native_seconds


def standard_workloads(*, registry=None) -> dict[str, DecoderWorkload]:
    """Build the six Figure 7 workloads (text, image and audio material)."""
    registry = registry or default_registry()
    text = synthetic_source_tree_bytes(TEXT_WORKLOAD_BYTES, seed=77)
    width, height = IMAGE_WORKLOAD_SIZE
    photo = synthetic_photo(width, height, seed=78)
    music = synthetic_music(
        seconds=AUDIO_WORKLOAD_SECONDS,
        sample_rate=AUDIO_WORKLOAD_RATE,
        channels=1,
        seed=79,
    )
    wav = write_wav(music)
    ppm = write_ppm(photo)

    workloads = {
        "vxz": DecoderWorkload(
            registry.get("vxz"), registry.get("vxz").encode(text), len(text),
            "synthetic source tree (kernel-tree stand-in)",
        ),
        "vxbwt": DecoderWorkload(
            registry.get("vxbwt"), registry.get("vxbwt").encode(text), len(text),
            "synthetic source tree (kernel-tree stand-in)",
        ),
        "vximg": DecoderWorkload(
            registry.get("vximg"), registry.get("vximg").encode(ppm), len(ppm),
            "synthetic photograph",
        ),
        "vxjp2": DecoderWorkload(
            registry.get("vxjp2"), registry.get("vxjp2").encode(ppm), len(ppm),
            "synthetic photograph",
        ),
        "vxflac": DecoderWorkload(
            registry.get("vxflac"), registry.get("vxflac").encode(wav), len(wav),
            "synthetic music clip",
        ),
        "vxsnd": DecoderWorkload(
            registry.get("vxsnd"), registry.get("vxsnd").encode(wav), len(wav),
            "synthetic music clip",
        ),
    }
    return workloads


def time_callable(func, *, repeats: int = 1) -> float:
    """Best-of-N wall-clock timing of ``func()`` (CPU-bound, single process)."""
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_workload(
    workload: DecoderWorkload,
    *,
    include_interpreter: bool = False,
    native_repeats: int = 3,
) -> EngineTiming:
    """Measure native vs. virtualised decode time for one workload."""
    codec = workload.codec
    encoded = workload.encoded

    native_seconds = time_callable(lambda: codec.decode(encoded), repeats=native_repeats)

    image = codec.guest_decoder_image()
    vm = VirtualMachine(image, engine=ENGINE_TRANSLATOR)
    start = time.perf_counter()
    result = vm.decode(encoded)
    translator_seconds = time.perf_counter() - start
    if result.exit_code != 0:
        raise RuntimeError(f"guest decoder {codec.name} failed: {result.stderr!r}")

    timing = EngineTiming(
        decoder=codec.name,
        native_seconds=native_seconds,
        translator_seconds=translator_seconds,
        translator_stats=result.stats,
    )
    if include_interpreter:
        vm_interp = VirtualMachine(image, engine=ENGINE_INTERPRETER)
        start = time.perf_counter()
        interp_result = vm_interp.decode(encoded)
        timing.interpreter_seconds = time.perf_counter() - start
        if interp_result.output != result.output:
            raise RuntimeError(f"engines disagree for {codec.name}")
        timing.interpreter_stats = interp_result.stats
    return timing


def decoder_size_rows(*, registry=None) -> list[dict]:
    """Table 2 rows: code size of every virtualised decoder."""
    registry = registry or default_registry()
    rows = []
    for codec in registry:
        build = codec.build_guest_decoder()
        total = build.text_size + build.data_size
        decoder_bytes = build.category_sizes.get("decoder", 0)
        library_bytes = total - decoder_bytes
        rows.append(
            {
                "decoder": codec.name,
                "category": codec.info.category,
                "total_bytes": total,
                "decoder_bytes": decoder_bytes,
                "decoder_share": decoder_bytes / total if total else 0.0,
                "library_bytes": library_bytes,
                "library_share": library_bytes / total if total else 0.0,
                "image_bytes": build.image_size,
                "compressed_bytes": build.compressed_size,
            }
        )
    return rows
