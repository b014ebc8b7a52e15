"""Shared fixtures and reporting plumbing for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures and prints
the corresponding rows.  Reports bypass pytest's output capture (so they are
visible in ``pytest benchmarks/ --benchmark-only`` runs and in the tee'd
bench_output.txt) and are also written to ``benchmarks/reports/`` for later
inspection -- a git-ignored build-output directory, so running the suite
never dirties the checkout.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.bench.harness import standard_workloads
from repro.codecs.registry import default_registry

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def _emit_report(name: str, text: str) -> None:
    stream = sys.__stdout__ or sys.stdout
    stream.write("\n" + text + "\n")
    stream.flush()
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def emit_report():
    """``emit_report(name, text)``: print a benchmark report past pytest
    capture and persist it to disk.  A fixture, not an import: ``from
    conftest import ...`` names whichever ``conftest`` pytest loaded last --
    ``tests/``'s when ``tests`` follows ``benchmarks`` on the command line."""
    return _emit_report


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def workloads(registry):
    """The six Figure 7 decoder workloads (built once per session)."""
    return standard_workloads(registry=registry)
