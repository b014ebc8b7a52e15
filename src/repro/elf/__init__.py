"""Minimal ELF32 container for VXA decoder executables."""
