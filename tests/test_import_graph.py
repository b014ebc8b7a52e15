"""The read path's import graph: a reader imports only what it runs.

VXA's claim is that an archive reader needs the VM and the archived decoder
and nothing else.  Here that is a dependency direction -- reading goes
``api`` -> {``zipformat``, ``elf``, ``isa``, ``vm``, ``analysis``} -- checked
where it can be observed: in a fresh interpreter's ``sys.modules`` after the
command has run.  Every case is a subprocess, because this process imported
the codecs to build the archive.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.api as vxa
from repro.formats.ppm import write_ppm
from repro.formats.wav import write_wav
from repro.workloads import (
    synthetic_music,
    synthetic_photo,
    synthetic_source_tree_bytes,
)

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: What a reader that runs only archived decoders must never import.
WRITE_PATH = ("numpy", "repro.vxc", "repro.codecs.vx", "repro.formats",
              "repro.elf.builder", "repro.isa.assembler")

#: Runs ``vxunzip`` with the arguments given, then reports what got imported.
VXUNZIP = """
import json, sys
from repro.cli import unzip_main
code = unzip_main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: Makes ``import numpy`` and ``import repro.vxc`` raise ImportError.
PLANT = 'import sys; sys.modules["numpy"] = sys.modules["repro.vxc"] = None\n'

#: Builds a default and a custom registry and reads their codec names.
REGISTRY_NAMES = """
import json, sys
from repro.codecs.base import Codec, CodecInfo
from repro.codecs.registry import CodecRegistry, default_registry

class Identity(Codec):
    info = CodecInfo("identity", "stores bytes as they are", "this script",
                     "raw data", "general", False)
    magic = b"IDNT"
    def encode(self, data, **options): return self.magic + data
    def decode(self, data): return data[4:]
    def can_encode(self, data): return True
    def guest_units(self): return []

custom = CodecRegistry([Identity()], default="identity")
names = [sorted(registry.names)
         for registry in (default_registry(), CodecRegistry(), custom)]
assert names[0] == names[1] != names[2], names
assert "vxsnd" in default_registry() and len(default_registry()) == 6
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}))
"""


def _fresh_outcome(script: str, *args) -> dict:
    """Run ``script`` in a new interpreter; the JSON object it printed last."""
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["code"] == 0, done.stdout + done.stderr
    return outcome


def _fresh_interpreter(script: str, *args) -> list[str]:
    """Run ``script`` in a new interpreter; the modules it ended up with."""
    return _fresh_outcome(script, *args)["modules"]


def _imported(modules: list[str], prefixes=WRITE_PATH) -> list[str]:
    return [name for name in modules if name.startswith(prefixes)]


@pytest.fixture(scope="module")
def six_decoders(tmp_path_factory):
    """One small member per bundled decoder; ``(archive path, lossless sources)``."""
    text = synthetic_source_tree_bytes(600, seed=3)[:600]
    photo = write_ppm(synthetic_photo(8, 8, seed=4))
    clip = write_wav(synthetic_music(seconds=0.02, sample_rate=8000,
                                     channels=1, seed=5))
    members = [("a.txt", text, "vxz"), ("b.txt", text, "vxbwt"),
               ("c.ppm", photo, "vximg"), ("d.ppm", photo, "vxjp2"),
               ("e.wav", clip, "vxflac"), ("f.wav", clip, "vxsnd")]
    path = tmp_path_factory.mktemp("import-graph") / "six.zip"
    with vxa.create(path) as builder:
        for name, data, codec in members:
            builder.add(name, data, codec=codec)
    return path, {"a.txt": text, "b.txt": text, "e.wav": clip}


@pytest.mark.parametrize("command", ["extract", "check", "list"])
def test_reading_with_archived_decoders_imports_no_write_path(
        six_decoders, tmp_path, command):
    archive, _ = six_decoders
    arguments = {"extract": ["extract", archive, "-o", tmp_path / "out", "--vxa"],
                 "check": ["check", archive],
                 "list": ["list", archive]}[command]
    assert _imported(_fresh_interpreter(VXUNZIP, *arguments)) == []
    if command == "extract":
        assert len(list((tmp_path / "out").iterdir())) == 6


#: What runs an analysis; a report restored from the store needs none of it.
ANALYSIS_ENGINES = ("repro.analysis.absint", "repro.analysis.cfg",
                    "repro.analysis.domains")


def test_a_second_extract_imports_no_analysis_engine(six_decoders, tmp_path):
    """The first process analyses and translates and leaves both in the
    per-user store (``repro.vm.store``; the suite's is its own, emptied before
    each test); the second finds six reports there and imports no engine --
    which is also the proof that it ran no analysis."""
    archive, _ = six_decoders
    runs = [_fresh_interpreter(VXUNZIP, "extract", archive, "-o",
                               tmp_path / f"out{index}", "--vxa")
            for index in range(2)]
    assert _imported(runs[0], ANALYSIS_ENGINES) == sorted(ANALYSIS_ENGINES)
    assert _imported(runs[1], ANALYSIS_ENGINES) == []
    assert "repro.analysis.verify" in runs[1]       # reports were still read
    assert _imported(runs[1]) == []
    assert ({path.name: path.read_bytes() for path in (tmp_path / "out0").iterdir()}
            == {path.name: path.read_bytes() for path in (tmp_path / "out1").iterdir()})


#: What a ``--vxa`` extract whose every fragment and report comes from a warm
#: store never calls: the code generator and the instruction decoder it reads
#: code with, the reference interpreter, the vxserve client and its socket, the
#: write path, fault injection and the integrity reporter.
WARM_STORE_LEAVES_OUT = (
    "repro.vm.translator", "repro.isa.encoding", "repro.vm.interpreter",
    "repro.client", "socket", "repro.api.builder", "repro.zipformat.writer",
    "repro.core.decoder_store", "repro.faults", "repro.core.integrity")


def test_a_warm_store_extract_loads_only_the_code_it_runs(six_decoders, tmp_path):
    """The first process translates, so it imports the code generator; the
    second restores every fragment from the store and imports none of
    :data:`WARM_STORE_LEAVES_OUT` -- to the same bytes."""
    archive, _ = six_decoders
    runs = [_fresh_interpreter(VXUNZIP, "extract", archive, "-o",
                               tmp_path / f"out{index}", "--vxa")
            for index in range(2)]
    assert "repro.vm.translator" in runs[0]
    assert [name for name in WARM_STORE_LEAVES_OUT if name in runs[1]] == []
    assert "repro.vm.dispatch" in runs[1]           # fragments still ran
    extracted = [{path.name: path.read_bytes() for path in (tmp_path / f"out{index}").iterdir()}
                 for index in range(2)]
    assert extracted[0] == extracted[1]
    assert len(extracted[0]) == 6


#: Imports the package, reads each lazy public name and what ``import *``
#: binds, and reports whether each is its defining module's own object.
LAZY_NAMES = """
import importlib, json, sys
import repro, repro.api
lazy = {"repro": ("ArchiveBuilder", "VxServeClient", "VxServeError"),
        "repro.api": ("ArchiveBuilder", "FaultPlan", "FaultSpec")}
homes = {"ArchiveBuilder": "repro.api.builder", "VxServeClient": "repro.client",
         "VxServeError": "repro.client", "FaultPlan": "repro.faults",
         "FaultSpec": "repro.faults"}
loaded_before = sorted(set(homes.values()) & set(sys.modules))
same = {}
for package, names in lazy.items():
    for name in names:
        value = getattr(sys.modules[package], name)
        same[f"{package}.{name}"] = value is getattr(importlib.import_module(homes[name]), name)
star = {}
exec("from repro import *", star)
same["import *"] = all(star[name] is getattr(repro, name) for name in repro.__all__)
try:
    repro.api.NoSuchName
    same["unknown name raises"] = False
except AttributeError:
    same["unknown name raises"] = True
print(json.dumps({"code": 0, "before": loaded_before, "same": same}))
"""


def test_lazy_public_names_are_their_modules_objects():
    outcome = _fresh_outcome(LAZY_NAMES)
    assert outcome["before"] == []
    assert outcome["same"] == {
        "repro.ArchiveBuilder": True, "repro.VxServeClient": True,
        "repro.VxServeError": True, "repro.api.ArchiveBuilder": True,
        "repro.api.FaultPlan": True, "repro.api.FaultSpec": True,
        "import *": True, "unknown name raises": True}


def test_extract_survives_without_numpy_and_compiler(six_decoders, tmp_path):
    """The durability claim: the archive decodes where its encoders cannot
    even be imported, to the bytes it decodes to where they can."""
    archive, sources = six_decoders
    _fresh_interpreter(VXUNZIP, "extract", archive, "-o", tmp_path / "with", "--vxa")
    _fresh_interpreter(PLANT + VXUNZIP,
                       "extract", archive, "-o", tmp_path / "without", "--vxa")
    extracted = {path.name: path.read_bytes()
                 for path in (tmp_path / "without").iterdir()}
    assert extracted == {path.name: path.read_bytes()
                         for path in (tmp_path / "with").iterdir()}
    assert len(extracted) == 6
    for name, data in sources.items():
        assert extracted[name] == data, name


def test_native_extract_imports_only_the_codec_it_met(six_decoders, tmp_path):
    archive, sources = six_decoders
    # Without --vxa a member whose codec the registry names decodes natively.
    modules = _fresh_interpreter(
        VXUNZIP, "extract", archive, "a.txt", "-o", tmp_path / "out")
    assert _imported(modules, ("repro.codecs.vx", "numpy")) == ["repro.codecs.vxz"]
    assert (tmp_path / "out" / "a.txt").read_bytes() == sources["a.txt"]


def test_registry_names_import_no_codec():
    modules = _fresh_interpreter(REGISTRY_NAMES)
    assert _imported(modules, ("repro.codecs.vx", "numpy")) == []
