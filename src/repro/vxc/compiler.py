"""The vxc compiler driver: source text -> VXA-32 ELF executable.

Pipeline: lex/parse each source unit, merge them, semantic analysis, code
generation, assembly, ELF packaging.  The driver tracks which functions came
from which *category* of source (``decoder``, ``library`` or ``runtime``) so
the resulting executable carries the same code-size provenance split the
paper reports in Table 2 -- by emitted function: library code generated in
place of a call is counted under the function it was generated into.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.elf.builder import build_executable
from repro.errors import VxcSemanticError
from repro.isa.assembler import Assembler
from repro.vxc import ast_nodes as ast
from repro.vxc.codegen import CodeGenerator
from repro.vxc.parser import parse
from repro.vxc.runtime import RUNTIME_SOURCE
from repro.vxc.semantics import analyze

CATEGORY_DECODER = "decoder"
CATEGORY_LIBRARY = "library"
CATEGORY_RUNTIME = "runtime"

#: Stamped into every image's provenance note.  Bump it whenever the same
#: source would compile to different code: archived images keep the version
#: that built them (0.1 kept every scalar in the frame; 0.2 is the register
#: convention described in :mod:`repro.vxc.codegen`; 0.3 generates calls
#: inside loops in place, emits only the functions still called and loads a
#: leaf left operand after its right operand instead of pushing it).
TOOLCHAIN = "vxc-0.3"


@dataclass
class SourceUnit:
    """One vxc translation unit with a provenance category."""

    name: str
    text: str
    category: str = CATEGORY_DECODER


@dataclass
class CompileResult:
    """Everything produced by one compilation."""

    elf: bytes
    assembly: str
    symbols: dict[str, int]
    text_size: int
    data_size: int
    bss_size: int
    function_sizes: dict[str, int] = field(default_factory=dict)
    category_sizes: dict[str, int] = field(default_factory=dict)
    note: dict = field(default_factory=dict)

    @property
    def image_size(self) -> int:
        return len(self.elf)

    @property
    def compressed_size(self) -> int:
        """Deflate-compressed image size, as stored inside a vxZIP archive."""
        return len(zlib.compress(self.elf, 9))


def compile_units(
    units: list[SourceUnit],
    *,
    codec_name: str | None = None,
    include_runtime: bool = True,
    extra_note: dict | None = None,
) -> CompileResult:
    """Compile and link several source units into one decoder executable.

    Args:
        units: decoder and library source units.
        codec_name: recorded in the ELF provenance note.
        include_runtime: prepend the vxc runtime library (almost always wanted).
        extra_note: extra key/value pairs merged into the provenance note.

    Raises:
        VxcError: on any lexical, syntactic or semantic error.
    """
    all_units = list(units)
    if include_runtime:
        all_units.insert(0, SourceUnit("runtime", RUNTIME_SOURCE, CATEGORY_RUNTIME))

    merged = ast.Program()
    function_category: dict[str, str] = {}
    for unit in all_units:
        tree = parse(unit.text)
        merged.globals.extend(tree.globals)
        for function in tree.functions:
            if function.name in function_category:
                raise VxcSemanticError(
                    f"function {function.name!r} defined in both "
                    f"{function_category[function.name]!r} and {unit.category!r} units"
                )
            function_category[function.name] = unit.category
        merged.functions.extend(tree.functions)

    info = analyze(merged)
    assembly = CodeGenerator(merged, info).generate()

    program = Assembler().assemble(assembly)
    function_sizes = _function_sizes(program)
    # Sizes are per emitted function: a library helper expanded at a call site
    # of a decoder function is decoder bytes, and a helper expanded everywhere
    # has no entry at all.
    category_sizes = {CATEGORY_DECODER: 0, CATEGORY_LIBRARY: 0, CATEGORY_RUNTIME: 0}
    for name, size in function_sizes.items():
        category = function_category.get(name, CATEGORY_RUNTIME)
        category_sizes[category] = category_sizes.get(category, 0) + size
    # _start and any residual text belongs to the runtime category.
    accounted = sum(function_sizes.values())
    category_sizes[CATEGORY_RUNTIME] += max(0, len(program.text) - accounted)

    note = {
        "codec": codec_name or "unknown",
        "toolchain": TOOLCHAIN,
        "text_bytes": len(program.text),
        "data_bytes": len(program.data),
        "bss_bytes": program.bss_size,
        "decoder_code_bytes": category_sizes[CATEGORY_DECODER],
        "library_code_bytes": (
            category_sizes[CATEGORY_LIBRARY] + category_sizes[CATEGORY_RUNTIME]
        ),
    }
    if extra_note:
        note.update(extra_note)

    elf = build_executable(program, note=note)
    return CompileResult(
        elf=elf,
        assembly=assembly,
        symbols=dict(program.symbols),
        text_size=len(program.text),
        data_size=len(program.data),
        bss_size=program.bss_size,
        function_sizes=function_sizes,
        category_sizes=category_sizes,
        note=note,
    )


def compile_source(
    source: str,
    *,
    codec_name: str | None = None,
    **kwargs,
) -> CompileResult:
    """Compile one decoder source string."""
    units = [SourceUnit(codec_name or "decoder", source, CATEGORY_DECODER)]
    return compile_units(units, codec_name=codec_name, **kwargs)


def _function_sizes(program) -> dict[str, int]:
    """Compute per-function text sizes from the ``fn_*`` and ``_start`` symbols."""
    text_end = program.text_base + len(program.text)
    starts = [
        (address, name)
        for name, address in program.symbols.items()
        if (name.startswith("fn_") and not name.endswith("__end")) or name == "_start"
    ]
    if not starts:
        return {}
    starts.sort()
    boundaries = [address for address, _ in starts] + [text_end]
    sizes: dict[str, int] = {}
    for index, (address, name) in enumerate(starts):
        clean = name[3:] if name.startswith("fn_") else name
        sizes[clean] = boundaries[index + 1] - address
    return sizes
