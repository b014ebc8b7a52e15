"""Two-pass assembler for VXA-32 assembly source.

The assembler is the lowest layer of the decoder toolchain: the vxc compiler
emits assembly text, this module turns it into machine code, and
:mod:`repro.elf.builder` wraps the result in an ELF executable.  It can also
be used directly to write small guest programs by hand (several tests and the
sandbox example do exactly that).

Syntax
------

* one statement per line; ``;`` or ``#`` starts a comment,
* labels are ``name:`` on their own line or before an instruction,
* instructions are ``mnemonic operand, operand`` with operands being
  registers (``r0``..``r5``, ``fp``, ``sp``), immediates (decimal, ``0x`` hex,
  ``'c'`` character constants), label references, or memory operands
  ``[reg+disp]`` / ``[reg-disp]`` / ``[reg]``,
* directives: ``.text``, ``.data``, ``.byte``, ``.word`` (32-bit),
  ``.ascii "..."``, ``.asciz "..."``, ``.space N``, ``.align N``,
  ``.global name`` (recorded in the symbol table).

Label references in ``movi`` produce absolute addresses; in branch
instructions they produce relative displacements from the end of the
instruction, as the hardware expects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.isa.encoding import encode, instruction_length
from repro.isa.opcodes import Fmt, MNEMONICS, REGISTER_ALIASES

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")

#: The data section starts on the first page boundary after the text.
_DATA_ALIGN = 0x1000


@dataclass
class Section:
    """One output section (``.text`` or ``.data``)."""

    name: str
    data: bytearray = field(default_factory=bytearray)
    base: int = 0

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class AssembledProgram:
    """Result of assembling a program.

    Attributes:
        text: machine code bytes.
        data: initialised data bytes.
        symbols: label name -> absolute address.
        text_base: load address of the text section.
        data_base: load address of the data section.
        bss_size: size of zero-initialised memory following data.
        entry: address of the entry point (symbol ``_start`` if present,
            otherwise the start of ``.text``).
        globals: names declared ``.global``.
    """

    text: bytes
    data: bytes
    symbols: dict[str, int]
    text_base: int
    data_base: int
    bss_size: int
    entry: int
    globals: tuple[str, ...] = ()


@dataclass
class _Statement:
    kind: str                 # "insn", "byte", "word", "ascii", "space", "align"
    line_no: int
    section: str
    mnemonic: str = ""
    operands: tuple[str, ...] = ()
    payload: bytes = b""
    size: int = 0
    offset: int = 0           # offset within its section, filled in pass 1


def _parse_int(token: str, line_no: int) -> int:
    token = token.strip()
    negative = token.startswith("-")
    if negative:
        token = token[1:]
    try:
        if token.startswith("'") and token.endswith("'") and len(token) >= 3:
            body = token[1:-1]
            unescaped = body.encode().decode("unicode_escape")
            if len(unescaped) != 1:
                raise ValueError(token)
            value = ord(unescaped)
        elif token.lower().startswith("0x"):
            value = int(token, 16)
        else:
            value = int(token, 10)
    except ValueError:
        raise AssemblerError(f"line {line_no}: bad integer literal {token!r}") from None
    return -value if negative else value


def _split_operands(rest: str) -> list[str]:
    operands: list[str] = []
    depth = 0
    current = []
    for char in rest:
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
            continue
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return [operand for operand in operands if operand]


_MEM_RE = re.compile(
    r"^\[\s*(?P<reg>[A-Za-z][A-Za-z0-9]*)\s*(?:(?P<sign>[+-])\s*(?P<disp>[^\]]+))?\s*\]$"
)


class Assembler:
    """Two-pass assembler producing an :class:`AssembledProgram`."""

    def __init__(self, text_base: int = 0x1000):
        self._text_base = text_base

    # -- public API --------------------------------------------------------

    def assemble(self, source: str) -> AssembledProgram:
        """Assemble ``source`` text into machine code and a symbol table."""
        statements, labels_by_stmt, global_names, bss_size = self._parse(source)
        symbols = self._layout(statements, labels_by_stmt)
        text, data = self._emit(statements, symbols)
        text_base = self._text_base
        data_base = self._data_base
        entry = symbols.get("_start", text_base if text else data_base)
        return AssembledProgram(
            text=bytes(text),
            data=bytes(data),
            symbols=symbols,
            text_base=text_base,
            data_base=data_base,
            bss_size=bss_size,
            entry=entry,
            globals=tuple(global_names),
        )

    # -- pass 0: parse -----------------------------------------------------

    def _parse(self, source: str):
        statements: list[_Statement] = []
        pending_labels: list[tuple[str, int]] = []
        labels_by_stmt: dict[int, list[str]] = {}
        global_names: list[str] = []
        section = ".text"
        bss_size = 0
        seen_labels: set[str] = set()

        def attach_labels():
            if pending_labels:
                labels_by_stmt.setdefault(len(statements), []).extend(
                    name for name, _ in pending_labels
                )
                pending_labels.clear()

        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split(";", 1)[0]
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            # Labels (possibly several, possibly followed by an instruction).
            while True:
                match = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$", line)
                if not match:
                    break
                label, line = match.group(1), match.group(2).strip()
                if label in seen_labels:
                    raise AssemblerError(f"line {line_no}: duplicate label {label!r}")
                seen_labels.add(label)
                pending_labels.append((label, line_no))
            if not line:
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if head.startswith("."):
                section, bss_size = self._parse_directive(
                    head, rest, line_no, section, bss_size, statements,
                    attach_labels, global_names,
                )
                continue
            info = MNEMONICS.get(head)
            if info is None:
                raise AssemblerError(f"line {line_no}: unknown mnemonic {head!r}")
            attach_labels()
            statements.append(
                _Statement(
                    kind="insn",
                    line_no=line_no,
                    section=section,
                    mnemonic=head,
                    operands=tuple(_split_operands(rest)),
                    size=instruction_length(info.op),
                )
            )
        # Trailing labels attach to a zero-size sentinel so they resolve to
        # the end of the current section.
        if pending_labels:
            attach_labels_index = len(statements)
            labels_by_stmt.setdefault(attach_labels_index, []).extend(
                name for name, _ in pending_labels
            )
            statements.append(
                _Statement(kind="space", line_no=pending_labels[-1][1],
                           section=section, size=0)
            )
            pending_labels.clear()
        return statements, labels_by_stmt, global_names, bss_size

    def _parse_directive(self, head, rest, line_no, section, bss_size,
                         statements, attach_labels, global_names):
        if head in (".text", ".data"):
            return head, bss_size
        if head == ".global":
            global_names.extend(name.strip() for name in rest.split(",") if name.strip())
            return section, bss_size
        if head == ".bss":
            # ".bss N" reserves N zeroed bytes after the data section.
            attach_labels()
            return section, bss_size + _parse_int(rest, line_no)
        attach_labels()
        if head == ".byte":
            payload = bytes(
                _parse_int(token, line_no) & 0xFF for token in rest.split(",")
            )
            statements.append(_Statement("byte", line_no, section,
                                         payload=payload, size=len(payload)))
        elif head == ".word":
            values = [_parse_int(token, line_no) & 0xFFFFFFFF for token in rest.split(",")]
            payload = b"".join(value.to_bytes(4, "little") for value in values)
            statements.append(_Statement("byte", line_no, section,
                                         payload=payload, size=len(payload)))
        elif head in (".ascii", ".asciz"):
            text = rest.strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise AssemblerError(f"line {line_no}: {head} expects a quoted string")
            payload = text[1:-1].encode().decode("unicode_escape").encode("latin-1")
            if head == ".asciz":
                payload += b"\x00"
            statements.append(_Statement("byte", line_no, section,
                                         payload=payload, size=len(payload)))
        elif head == ".space":
            count = _parse_int(rest, line_no)
            if count < 0:
                raise AssemblerError(f"line {line_no}: negative .space")
            statements.append(_Statement("byte", line_no, section,
                                         payload=b"\x00" * count, size=count))
        elif head == ".align":
            alignment = _parse_int(rest, line_no)
            if alignment <= 0 or alignment & (alignment - 1):
                raise AssemblerError(f"line {line_no}: .align expects a power of two")
            statements.append(_Statement("align", line_no, section, size=alignment))
        else:
            raise AssemblerError(f"line {line_no}: unknown directive {head!r}")
        return section, bss_size

    # -- pass 1: layout ----------------------------------------------------

    def _layout(self, statements, labels_by_stmt) -> dict[str, int]:
        offsets = {".text": 0, ".data": 0}
        for statement in statements:
            offset = offsets[statement.section]
            if statement.kind == "align":
                alignment = statement.size
                padded = (offset + alignment - 1) & ~(alignment - 1)
                statement.offset = offset
                statement.size = padded - offset
                offsets[statement.section] = padded
                continue
            statement.offset = offset
            offsets[statement.section] = offset + statement.size
        text_size = offsets[".text"]
        data_base = self._text_base + text_size
        data_base = (data_base + _DATA_ALIGN - 1) & ~(_DATA_ALIGN - 1)
        self._data_base = data_base

        bases = {".text": self._text_base, ".data": data_base}
        symbols: dict[str, int] = {}
        section_end = {
            ".text": self._text_base + offsets[".text"],
            ".data": data_base + offsets[".data"],
        }
        for index, labels in labels_by_stmt.items():
            if index < len(statements):
                statement = statements[index]
                address = bases[statement.section] + statement.offset
            else:  # labels at the very end of the program
                address = section_end[statements[-1].section] if statements else self._text_base
            for label in labels:
                symbols[label] = address
        return symbols

    # -- pass 2: emit ------------------------------------------------------

    def _emit(self, statements, symbols):
        sections = {".text": bytearray(), ".data": bytearray()}
        bases = {".text": self._text_base, ".data": self._data_base}
        for statement in statements:
            buffer = sections[statement.section]
            if len(buffer) != statement.offset:
                buffer.extend(b"\x00" * (statement.offset - len(buffer)))
            if statement.kind == "insn":
                buffer.extend(self._encode_statement(statement, symbols, bases))
            elif statement.kind in ("byte",):
                buffer.extend(statement.payload)
            elif statement.kind == "align":
                buffer.extend(b"\x00" * statement.size)
            elif statement.kind == "space":
                buffer.extend(b"\x00" * statement.size)
        return sections[".text"], sections[".data"]

    def _resolve_value(self, token: str, symbols, line_no: int) -> int:
        token = token.strip()
        # label+offset / label-offset arithmetic
        match = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*([+-])\s*(.+)$", token)
        if match and match.group(1) in symbols:
            base = symbols[match.group(1)]
            delta = _parse_int(match.group(3), line_no)
            return base + delta if match.group(2) == "+" else base - delta
        if _LABEL_RE.match(token) and token in symbols:
            return symbols[token]
        if _LABEL_RE.match(token) and token not in REGISTER_ALIASES:
            # Looks like a label but is not defined and not a register.
            if not token.lstrip("-").isdigit() and not token.lower().startswith("0x") \
                    and not token.startswith("'"):
                raise AssemblerError(f"line {line_no}: undefined symbol {token!r}")
        return _parse_int(token, line_no)

    def _parse_register(self, token: str, line_no: int) -> int:
        register = REGISTER_ALIASES.get(token.strip().lower())
        if register is None:
            raise AssemblerError(f"line {line_no}: expected register, got {token!r}")
        return register

    def _parse_mem(self, token: str, symbols, line_no: int) -> tuple[int, int]:
        match = _MEM_RE.match(token.strip())
        if not match:
            raise AssemblerError(f"line {line_no}: expected memory operand, got {token!r}")
        register = self._parse_register(match.group("reg"), line_no)
        displacement = 0
        if match.group("disp"):
            displacement = self._resolve_value(match.group("disp"), symbols, line_no)
            if match.group("sign") == "-":
                displacement = -displacement
        return register, displacement

    def _encode_statement(self, statement, symbols, bases) -> bytes:
        info = MNEMONICS[statement.mnemonic]
        operands = statement.operands
        line_no = statement.line_no
        address = bases[statement.section] + statement.offset

        def expect(count):
            if len(operands) != count:
                raise AssemblerError(
                    f"line {line_no}: {statement.mnemonic} expects {count} operand(s), "
                    f"got {len(operands)}"
                )

        fmt = info.fmt
        if fmt is Fmt.NONE:
            expect(0)
            return encode(info.op)
        if fmt is Fmt.REG:
            expect(1)
            return encode(info.op, rd=self._parse_register(operands[0], line_no))
        if fmt is Fmt.REG_REG:
            expect(2)
            return encode(
                info.op,
                rd=self._parse_register(operands[0], line_no),
                rs=self._parse_register(operands[1], line_no),
            )
        if fmt is Fmt.REG_IMM:
            expect(2)
            return encode(
                info.op,
                rd=self._parse_register(operands[0], line_no),
                imm=self._resolve_value(operands[1], symbols, line_no),
            )
        if fmt is Fmt.REL:
            expect(1)
            target = self._resolve_value(operands[0], symbols, line_no)
            relative = target - (address + statement.size)
            return encode(info.op, imm=relative)
        # REG_REG_IMM: loads are "ld rd, [rs+disp]", stores are "st [rd+disp], rs",
        # lea is "lea rd, [rs+disp]".
        expect(2)
        if statement.mnemonic.startswith("st"):
            register, displacement = self._parse_mem(operands[0], symbols, line_no)
            return encode(
                info.op,
                rd=register,
                rs=self._parse_register(operands[1], line_no),
                imm=displacement,
            )
        register, displacement = self._parse_mem(operands[1], symbols, line_no)
        return encode(
            info.op,
            rd=self._parse_register(operands[0], line_no),
            rs=register,
            imm=displacement,
        )


def assemble(source: str, text_base: int = 0x1000) -> AssembledProgram:
    """Convenience wrapper: assemble ``source`` with default settings."""
    return Assembler(text_base=text_base).assemble(source)
