"""The traced run: layer probes, timed from outside through public functions.

Nothing under ``src/`` is edited or patched.  Nesting is obtained by calling
each level of a request directly on the same input, one after the other --
``VxServeClient.extract`` > ``BatchService.handle`` > ``run_extract_shard``
> ``Archive.extract_into`` > ``VirtualMachine.decode`` -- alternating the
levels pass by pass; a layer's self time is its level minus the level
below (``table.py``), so the rows add up to the top figure by construction.

Each probe runs in a fresh child and returns

``{"samples": {row: [values]}, "attempted": n, "failed": n, "problems": []}``

for the rows it measures directly, plus ``level.*`` series that ``table.py``
subtracts from each other.  The inputs are the reduced copies of the four
workloads' archives described in the README, so that one traced run fills
every row within the same time cap as an untraced one.
"""

from __future__ import annotations

import io
import pathlib
import shutil
import subprocess
import sys
import threading

import repro.api as vxa
from repro.analysis.verify import verify_image
from repro.codecs.registry import default_registry
from repro.core.integrity import assess_media
from repro.elf.reader import parse_executable
from repro.parallel.admission import AdmissionGate
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import Scheduler
from repro.parallel.worker import run_extract_shard, shutdown_worker
from repro.vm.code_cache import CodeCache
from repro.vm.machine import VirtualMachine
from repro.zipformat.crc import crc32
from repro.zipformat.reader import ZipReader
from repro.zipformat.structures import METHOD_VXA
from repro.zipformat.writer import ZipWriter

import inputs
from common import (
    Clock,
    child_environment,
)
from workloads import Outcome, Served

VXA = vxa.ReadOptions(mode=vxa.MODE_VXA,
                      reuse=vxa.VmReusePolicy.REUSE_SAME_ATTRIBUTES)


def _passes(seconds: float) -> int:
    """Passes per timing: three at the declared run length, never fewer
    (one for the smoke shape, which times nothing in earnest)."""
    return 1 if seconds < 1 else max(3, round(3 * seconds / 20))


def _finish(spans: Clock, outcome: Outcome, samples: dict,
            scratch: pathlib.Path) -> dict:
    spans.dump(scratch.parent / "spans.jsonl")
    result = outcome.as_dict()
    result["samples"] = samples
    traced = [record for record in spans.records
              if record["name"] != "calibration"]
    result["span_count"] = len(traced)
    result["span_seconds"] = sum(record["end"] - record["start"]
                                 for record in traced)
    return result


def _payloads(archive_path, members) -> dict[str, tuple[bytes, bytes]]:
    """``{member name: (decoder image, stored payload)}``."""
    with vxa.open(archive_path) as archive, open(archive_path, "rb") as file:
        reader = ZipReader(file)
        return {member.name: (archive.decoder_image_for(member.name),
                              reader.read_stored_bytes(reader.find(member.name)))
                for member in members}


# -- cold start: fresh interpreter, nothing memoised -------------------------

def probe_cold(seed: int, seconds: float, shape, scratch: pathlib.Path) -> dict:
    """One sample of everything that happens once per process.

    The analysis memo and the compiled-fragment memo are process-wide, so an
    un-memoised ``verify_image`` and a truly cold decode exist only in a
    fresh child; the driver starts this probe several times.
    """
    spans = Clock("cold_cli")
    outcome = Outcome()
    samples: dict[str, list] = {}
    registry = default_registry()
    members = inputs.tiny_members(seed, shape)

    for member in members:
        spans.timed("codecs.image_build", op_id=0, call=(
            registry.get(member.codec).guest_decoder_image))
    samples["codecs.image_build_s"] = spans.totals_by_op("codecs.image_build")

    archive_path = scratch / "tiny.zip"
    inputs.build_archive(archive_path, members)
    expected = inputs.expected_outputs(archive_path, members)
    payloads = _payloads(archive_path, members)
    warm_repeats = 1 if seconds < 1 else 2

    for member in members:
        decoder = member.codec
        image, encoded = payloads[member.name]
        spans.timed("elf.parse_s", lambda: parse_executable(image))
        # Raw bytes in: this is the call that consults (and here fills) the
        # SHA-256-keyed memo the VM constructor below then hits.
        report = spans.timed(f"analysis.verify_s.{decoder}",
                             lambda: verify_image(image))
        samples[f"analysis.proved_sites.{decoder}"] = [
            len(report.proved_reads) + len(report.proved_writes)]
        machine = spans.timed(
            f"vm.init_s.{decoder}",
            lambda: VirtualMachine(image, code_cache=CodeCache(shared=True)))
        cold = spans.timed(f"vm.cold_decode_s.{decoder}",
                           lambda: machine.decode(encoded))
        outcome.check(f"cold {decoder} decode is wrong",
                      cold.exit_code == 0
                      and cold.output == expected[member.name])
        for _ in range(warm_repeats):
            warm = spans.timed(f"vm.warm_decode_s.{decoder}",
                               lambda: machine.decode(encoded))
            outcome.check(f"warm {decoder} decode diverged",
                          warm.output == cold.output)
        codec = registry.get(decoder)
        for _ in range(5):
            native = spans.timed(f"codecs.native_decode_s.{decoder}",
                                 lambda: codec.decode(encoded))
        outcome.check(f"native {decoder} decode is wrong",
                      native == expected[member.name])
        syscalls = sum(warm.stats.syscalls.values())
        samples.update({
            # Counts: these must repeat exactly from run to run.
            f"vm.guest_insns.{decoder}": [warm.stats.instructions],
            f"vm.fragments.{decoder}": [cold.stats.fragments_translated],
            f"vm.chained.{decoder}": [warm.stats.chained_branches],
            f"vm.guards_elided.{decoder}": [cold.stats.guards_elided],
            f"vm.syscalls.{decoder}": [syscalls],
            f"vm.syscalls_per_out_kb.{decoder}": [
                syscalls / (len(warm.output) / 1024)],
        })

    # The start of every CLI run, with nothing of ours imported.
    environment = child_environment()
    for _ in range(3):
        spans.timed("cli.interp_start_s", lambda: subprocess.run(
            [sys.executable, "-c", "pass"], env=environment, check=True))

    for name in {record["name"] for record in spans.records}:
        if name not in ("calibration", "codecs.image_build"):
            samples[name] = spans.durations(name)
    return _finish(spans, outcome, samples, scratch)


# -- extract: api > session > vm, zipformat, output, parallel ----------------

def _noop(payload: dict) -> dict:
    return payload


def probe_extract(seed: int, seconds: float, shape, scratch: pathlib.Path) -> dict:
    spans = Clock("extract_mixed")
    outcome = Outcome()
    samples: dict[str, list] = {}
    members = inputs.tiny_members(seed, shape)
    archive_path = scratch / "tiny.zip"
    inputs.build_archive(archive_path, members)
    expected = inputs.expected_outputs(archive_path, members)
    payloads = _payloads(archive_path, members)
    names = [member.name for member in members]
    passes = _passes(seconds)

    def open_reader():
        with open(archive_path, "rb") as file:
            return ZipReader(file)

    for _ in range(10):
        spans.timed("zipformat.open_s", open_reader)
        spans.timed("api.open_s", lambda: vxa.open(archive_path, VXA)).close()

    def extract_into(options, out) -> None:
        with vxa.open(archive_path, options) as archive:
            archive.extract_into(out)

    # Only a single-threaded parent gets a ``fork`` pool from ``WorkerPool``;
    # any other start method leaves forkserver/resource_tracker helpers.
    if threading.active_count() != 1:
        raise RuntimeError("process pools need a single-threaded parent here")
    for number in range(passes):
        # Level 0: what the user calls.  Durable, then not: the difference
        # is what fsync costs.
        for level, options in (("durable", VXA),
                               ("plain", VXA.with_changes(durable_output=False)),
                               ("jobs2", VXA.with_changes(
                                   jobs=2, executor=vxa.EXECUTOR_PROCESS))):
            out = scratch / f"out-{level}-{number}"
            spans.timed(f"level.extract_{level}", op_id=number,
                        call=lambda: extract_into(options, out))
            outcome.check_tree(f"extract {level} {number}", out, expected)
            shutil.rmtree(out)

        # Level 1: the same members into memory -- no output files.
        archive = spans.timed("level.extract_to", op_id=number,
                              call=lambda: vxa.open(archive_path, VXA))
        with archive:
            for name in names:
                sink = io.BytesIO()
                spans.timed("level.extract_to", op_id=number,
                            parent="level.extract_plain",
                            call=lambda: archive.extract_to(name, sink))
                outcome.check(f"extract_to {name} is wrong",
                              sink.getvalue() == expected[name])

        # Level 2: what a fresh session does per decoder -- build the VM,
        # decode the payload in the sandbox just loaded -- and what it reads
        # from the container.
        with open(archive_path, "rb") as file, vxa.open(archive_path) as archive:
            reader = ZipReader(file)
            for name in names:
                entry = reader.find(name)
                offset = archive.extension_for(name).decoder_offset
                spans.timed("level.zip_read", op_id=number,
                            parent="level.extract_to",
                            call=lambda: (reader.read_member_at(offset),
                                          reader.read_stored_bytes(entry)))
        for name in names:
            image, encoded = payloads[name]
            result = spans.timed(
                "level.vm_decode", op_id=number, parent="level.extract_to",
                call=lambda: VirtualMachine(
                    image, code_cache=CodeCache(shared=True)).decode(
                        encoded, fresh=False))
            outcome.check(f"VirtualMachine.decode {name} is wrong",
                          result.output == expected[name])

        with vxa.open(archive_path, VXA) as archive:
            report = spans.timed("integrity.check_s", archive.check)
        outcome.check(f"Archive.check failed: {report.failures}", report.ok)

    # The parallel layer: the plan, each shard run alone in this process
    # (its busy time without a pool), and an empty pool round trip.
    with vxa.open(archive_path, VXA) as archive:
        plan = archive.extraction_plan(names)
    for _ in range(20):
        shards = spans.timed("scheduler.plan_s", lambda: Scheduler(2).plan(plan))
    costs = [shard.cost for shard in shards]
    samples["scheduler.cost_imbalance"] = [max(costs) / (sum(costs) / len(costs))]
    for number in range(passes):
        out = scratch / f"out-shards-{number}"
        for shard in shards:
            payload = {"source": {"path": str(archive_path)}, "options": VXA,
                       "directory": str(out), "names": shard.names,
                       "mode": None, "force_decode": None,
                       "worker": shard.worker, "fresh": True}
            spans.timed(f"level.shard_alone.{shard.worker}", op_id=number,
                        parent="level.extract_jobs2",
                        call=lambda: run_extract_shard(payload))
        outcome.check_tree(f"shards alone {number}", out, expected)
        shutil.rmtree(out)
    shutdown_worker()

    def spawn() -> None:
        with WorkerPool(2, vxa.EXECUTOR_PROCESS) as pool:
            pool.run(_noop, [{}, {}])

    for _ in range(passes):
        spans.timed("pool.spawn_s", spawn)

    for name in ("zipformat.open_s", "api.open_s", "integrity.check_s",
                 "scheduler.plan_s", "pool.spawn_s"):
        samples[name] = spans.durations(name)
    for level in ("extract_durable", "extract_plain", "extract_jobs2",
                  "extract_to", "zip_read", "vm_decode"):
        samples[f"level.{level}"] = spans.totals_by_op(f"level.{level}")
    for shard in shards:
        samples[f"level.shard_alone.{shard.worker}"] = spans.durations(
            f"level.shard_alone.{shard.worker}")
    return _finish(spans, outcome, samples, scratch)


# -- archive I/O: builder > codecs, zipformat writer and reader, fsync -------

def probe_archive(seed: int, seconds: float, shape, scratch: pathlib.Path) -> dict:
    spans = Clock("archive_io")
    outcome = Outcome()
    samples: dict[str, list] = {}
    registry = default_registry()
    members = inputs.bulk_members(seed, shape, lite=True)
    expected = {member.name: member.data for member in members}
    for codec in {member.codec for member in members if member.codec}:
        registry.get(codec).guest_decoder_image()
    archive_path = scratch / "lite.zip"
    passes = _passes(seconds)

    def write(stored) -> None:
        writer = ZipWriter(io.BytesIO())
        for member, payload in stored:
            if member.codec is None:
                writer.add_member(member.name, payload)
            else:
                writer.add_member(member.name, payload, method=METHOD_VXA,
                                  uncompressed_size=len(member.data),
                                  crc=crc32(member.data))
        writer.finish(b"vxabench", commit=True)

    def create(options, number: int, level: str) -> None:
        builder = spans.timed(level, op_id=number,
                              call=lambda: vxa.create(archive_path, options))
        with builder:
            for member in members:
                spans.timed(f"{level}.add", op_id=number, parent=level,
                            call=lambda: inputs.add_member(builder, member))
            spans.timed(level, op_id=number, call=builder.close)

    def read_all() -> bool:
        """Every member's stored bytes; CRC-checked where the container can."""
        with open(archive_path, "rb") as file:
            reader = ZipReader(file)
            return all(
                len(reader.read_stored_bytes(entry) if entry.method == METHOD_VXA
                    else reader.read_member(entry)) == entry.compressed_size
                for entry in reader.entries)

    for number in range(passes):
        stored = []
        for member in members:
            if member.codec is None:
                stored.append((member, member.data))
            else:
                codec = registry.get(member.codec)
                stored.append((member, spans.timed(
                    "codecs.encode", op_id=number,
                    call=lambda: codec.encode(member.data))))
        spans.timed("zipformat.write_s", lambda: write(stored))
        create(vxa.WriteOptions(durable=False), number, "level.create_plain")
        create(vxa.WriteOptions(durable=True), number, "level.create_durable")
        outcome.check("ZipReader returned a member of the wrong size",
                      spans.timed("zipformat.read_s", read_all))
        verdict = spans.timed("integrity.assess_media_s",
                              lambda: assess_media(str(archive_path)))
        outcome.check(f"assess_media: {verdict.classification()}",
                      verdict.classification() == "clean")
        out = scratch / f"out-{number}"
        with vxa.open(archive_path) as archive:
            archive.extract_into(out)
        outcome.check_tree(f"extract {number}", out, expected)
        shutil.rmtree(out)

    for name in ("zipformat.write_s", "zipformat.read_s",
                 "integrity.assess_media_s"):
        samples[name] = spans.durations(name)
    samples["codecs.encode_s"] = spans.totals_by_op("codecs.encode")
    for level in ("level.create_plain", "level.create_durable"):
        samples[level] = spans.totals_by_op(level, f"{level}.add")
    samples["api.builder_add_s"] = spans.totals_by_op("level.create_plain.add")
    megabytes = archive_path.stat().st_size / 1e6
    samples["zipformat.read_mb_per_s"] = [
        megabytes / value for value in samples["zipformat.read_s"]]
    return _finish(spans, outcome, samples, scratch)


# -- vxserve: client > service > shard > vm ----------------------------------

def probe_serve(seed: int, seconds: float, shape, scratch: pathlib.Path) -> dict:
    spans = Clock("serve_roundtrip")
    outcome = Outcome()
    samples: dict[str, list] = {}
    members = inputs.hot_members(seed, shape)
    archive_path = scratch / "hot.zip"
    inputs.build_archive(archive_path, members)
    expected = inputs.expected_outputs(archive_path, members)
    payloads = _payloads(archive_path, members)
    names = [member.name for member in members]
    rounds = 2 if seconds < 1 else max(5, round(5 * seconds / 20))
    image = payloads[names[0]][0]
    machine = VirtualMachine(image, code_cache=CodeCache(shared=True))
    machine.decode(payloads[names[0]][1])             # translate once

    served = Served(scratch)
    try:
        service = served.service
        shard_options = service.options.with_changes(mode=vxa.MODE_VXA)
        with served.client("probe") as client:
            client.extract(archive_path, scratch / "warm", mode=vxa.MODE_VXA)
            for number in range(rounds):
                dest = scratch / f"dest-{number}"
                # The levels alternate round by round on the same request.
                spans.timed("level.serve_rtt", op_id=number, call=lambda: client.extract(
                    archive_path, dest / "rtt", mode=vxa.MODE_VXA))
                response = spans.timed(
                    "level.serve_handle", op_id=number, parent="level.serve_rtt",
                    call=lambda: service.handle({
                        "id": number, "op": "extract", "mode": vxa.MODE_VXA,
                        "archive": str(archive_path),
                        "dest": str(dest / "handle")}))
                outcome.check(f"handle: {response.get('error')}",
                              response.get("ok") is True)
                spans.timed("level.serve_shard", op_id=number, parent="level.serve_handle",
                            call=lambda: run_extract_shard({
                                "source": {"path": str(archive_path)},
                                "options": shard_options,
                                "directory": str(dest / "shard"),
                                "names": names, "mode": None,
                                "force_decode": None, "worker": 0}))
                for level in ("rtt", "handle", "shard"):
                    outcome.check_tree(f"{level} {number}", dest / level,
                                       expected)
                for name in names:
                    result = spans.timed(
                        "level.vm_decode", op_id=number, parent="level.serve_shard",
                        # The worker's cached session keeps one VM per
                        # decoder and, attributes being equal, reuses it.
                        call=lambda: machine.decode(payloads[name][1],
                                                    fresh=False))
                    outcome.check(f"VirtualMachine.decode {name} is wrong",
                                  result.output == expected[name])
            for _ in range(30):
                spans.timed("service.ping_rtt_s", client.ping)
            for _ in range(10):
                spans.timed("service.list_rtt_s",
                            lambda: client.list(archive_path))

            # Two clients (= nproc) firing together: the load the service
            # is sized for, with nowhere to put a calibration loop inside.
            with served.client("probe2") as second:
                for number in range(rounds):
                    pair = [threading.Thread(
                        target=peer.extract,
                        args=(archive_path, scratch / f"pair-{number}-{index}"),
                        kwargs={"mode": vxa.MODE_VXA})
                        for index, peer in enumerate((client, second))]

                    def fire() -> None:
                        for thread in pair:
                            thread.start()
                        for thread in pair:
                            thread.join()

                    spans.timed("level.serve_pair", fire)
                    for index in range(len(pair)):
                        outcome.check_tree(
                            f"pair {number}.{index}",
                            scratch / f"pair-{number}-{index}", expected)
        shutdown_worker()
    finally:
        served.close()

    gate = AdmissionGate(8, 16)
    pairs = 2000

    def admit_release() -> None:
        for _ in range(pairs):
            gate.admit()
            gate.release()

    for _ in range(5):
        spans.timed("admission.admit_release", admit_release)
    samples["admission.admit_release_us"] = [
        value / pairs * 1e6
        for value in spans.durations("admission.admit_release")]

    for name in ("service.ping_rtt_s", "service.list_rtt_s"):
        samples[name] = spans.durations(name)
    for level in ("rtt", "handle", "shard"):
        samples[f"level.serve_{level}"] = spans.durations(f"level.serve_{level}")
    samples["level.serve_vm_decode"] = spans.totals_by_op("level.vm_decode")
    samples["service.req_per_s_2clients"] = [
        2 / value for value in spans.durations("level.serve_pair")]
    return _finish(spans, outcome, samples, scratch)


PROBES = {
    "probe_cold": probe_cold,
    "probe_extract": probe_extract,
    "probe_archive": probe_archive,
    "probe_serve": probe_serve,
}
