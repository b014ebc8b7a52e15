"""Tests meet an empty image store, never the user's.

Analysis reports and translated fragments persist per user under
``$XDG_CACHE_HOME/vxa`` (:mod:`repro.vm.store`, ``docs/image-store.md``).  The
whole run -- ``tests/`` and ``benchmarks/``, and every child process either
starts -- is pointed at a directory of its own before anything is collected,
and the directory goes when the run ends.  ``forget_images()`` empties it, so
a test that asks for a cold process also gets a cold machine.
"""

from __future__ import annotations

import os
import shutil
import tempfile

_STORE_HOME = ""


def pytest_configure(config):
    global _STORE_HOME
    _STORE_HOME = tempfile.mkdtemp(prefix="vxa-test-cache-")
    os.environ["XDG_CACHE_HOME"] = _STORE_HOME


def pytest_unconfigure(config):
    shutil.rmtree(_STORE_HOME, ignore_errors=True)
