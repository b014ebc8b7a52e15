"""What :mod:`repro.vm.images` derived from a decoder image, kept per user.

The second level behind the process's image table: one file per image digest
in ``$XDG_CACHE_HOME/vxa`` (else ``~/.cache/vxa``) holding the analysis report
and every fragment table, so the next process restores what this one derived
(``docs/image-store.md``).  This module only moves built-in values between
memory and that directory; what they mean is :mod:`repro.vm.images`' business.

Trust.  A file holds code objects, so it is read exactly as a ``__pycache__``
file would be, and no more readily: only from a directory that is ``0700`` and
owned by the effective user, only a regular file of that user that nobody else
may write, opened without following a link -- and only if the SHA-256 in its
header matches its name and payload *before* ``marshal`` sees a byte
(``marshal`` is not robust to damage).  The name is the image's SHA-256,
computed by the caller over the bytes it loaded, plus :func:`fingerprint`: an
archive cannot name another image's file, and an edit to the translator, the
analysis or the interpreter version orphans every file written before it.

Anything else -- no such directory, wrong modes, a damaged or foreign file, a
platform without these calls -- is an absent store: :func:`read` returns
``None``, :func:`write` writes nothing, and nothing here raises.  There is
no switch: a store that cannot be used safely is off by itself.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import marshal
import os
import stat
import sys
import threading
from pathlib import Path

#: Files kept; at a write the oldest beyond it are removed (a file is about
#: 200 KB for a bundled decoder).
FILE_LIMIT = 256

#: Every package whose source decides what a report or a fragment contains.
FINGERPRINTED = ("analysis", "elf", "isa", "vm")

_MAGIC = b"VXA-STORE\n"
_HEADER = len(_MAGIC) + hashlib.sha256().digest_size
#: Never through a link, never inherited, never waiting on a planted FIFO.
_OPEN = (getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_CLOEXEC", 0)
         | getattr(os, "O_NONBLOCK", 0))


def fingerprint(package: Path) -> str:
    """SHA-256 over all that makes two processes derive the same values from
    one image: the sources of :data:`FINGERPRINTED` under ``package``, the
    bytecode format and the byte order the translator specialises on."""
    digest = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    digest.update(f"{sys.implementation.cache_tag} {sys.byteorder}".encode())
    for name in FINGERPRINTED:
        sources = sorted((package / name).rglob("*.py"))
        if not sources:                 # not a source tree: nothing to vouch
            raise FileNotFoundError(package / name)
        for source in sources:
            digest.update(source.relative_to(package).as_posix().encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()


@functools.cache
def _own_fingerprint() -> str:
    return fingerprint(Path(__file__).resolve().parent.parent)


def _locate(image_digest: str, create: bool) -> tuple[int, str] | None:
    """``(descriptor of the store directory, the image's file name)``;
    ``None`` when the store is off."""
    if os.name != "posix":
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):         # the XDG rule: unset, empty, relative
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "vxa")
    try:
        name = f"{image_digest}-{_own_fingerprint()}"
        if create:
            os.makedirs(path, mode=0o700, exist_ok=True)
        directory = os.open(path, os.O_RDONLY | os.O_DIRECTORY | _OPEN)
    except OSError:
        return None
    status = os.fstat(directory)
    if stat.S_IMODE(status.st_mode) != 0o700 or status.st_uid != os.geteuid():
        os.close(directory)
        return None
    return directory, name


def read(image_digest: str):
    """The value last written for this image by this code, or ``None``."""
    where = _locate(image_digest, create=False)
    if where is None:
        return None
    directory, name = where
    try:
        handle = os.open(name, os.O_RDONLY | _OPEN, dir_fd=directory)
    except OSError:
        return None
    finally:
        os.close(directory)
    status = os.fstat(handle)
    if not (stat.S_ISREG(status.st_mode) and not status.st_mode & 0o022
            and status.st_uid == os.geteuid()):
        os.close(handle)
        return None
    with os.fdopen(handle, "rb") as file:
        blob = file.read()
    payload = memoryview(blob)[_HEADER:]
    if blob[:_HEADER] != _MAGIC + _checksum(name, payload):
        return None
    return marshal.loads(payload)


def write(image_digest: str, value) -> None:
    """Replace this image's file with ``value`` (built-in types and code
    objects only), if the store is on and the disk takes it."""
    where = _locate(image_digest, create=True)
    if where is None:
        return
    directory, name = where
    payload = marshal.dumps(value)
    scratch = f".{name}.{os.getpid()}.{threading.get_ident()}"
    try:
        handle = os.open(scratch, os.O_WRONLY | os.O_CREAT | os.O_EXCL | _OPEN,
                         0o600, dir_fd=directory)
        with os.fdopen(handle, "wb") as file:
            file.write(_MAGIC + _checksum(name, payload))
            file.write(payload)
        os.replace(scratch, name, src_dir_fd=directory, dst_dir_fd=directory)
        _remove(directory, keep=FILE_LIMIT)
    except OSError:
        with contextlib.suppress(OSError):      # gone if the rename happened
            os.unlink(scratch, dir_fd=directory)
    finally:
        os.close(directory)


def empty() -> None:
    """Remove every file (tests that assert on a cold machine)."""
    where = _locate("", create=False)
    if where is not None:
        with contextlib.suppress(OSError):
            _remove(where[0], keep=0)
        os.close(where[0])


def _checksum(name: str, payload) -> bytes:
    digest = hashlib.sha256(name.encode())
    digest.update(payload)
    return digest.digest()


def _remove(directory: int, keep: int) -> None:
    """Unlink all but the ``keep`` most recently written files."""
    names = os.listdir(directory)
    if len(names) <= keep:
        return

    def written(name: str) -> float:
        return os.stat(name, dir_fd=directory, follow_symlinks=False).st_mtime

    for name in sorted(names, key=written)[:len(names) - keep]:
        os.unlink(name, dir_fd=directory)
