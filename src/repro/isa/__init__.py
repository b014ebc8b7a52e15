"""VXA-32 instruction set architecture: opcodes, encoding, assembler, disassembler."""
