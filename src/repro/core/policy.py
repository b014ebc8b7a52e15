"""Virtual-machine reuse policy and file security attributes.

Paper section 2.4: reusing VM state across files sharing a decoder improves
performance on archives with many small files, but risks leaking data from
one file to another through a buggy or malicious decoder.  The recommended
mitigation is to re-initialise whenever the security attributes of the files
being processed change; the policies below encode the three useful points on
that spectrum.  They govern VM *state* only.  Translated code is a function
of the decoder image, which no file and no guest store can reach, so it is
kept under every policy (:mod:`repro.vm.images`): re-initialising costs a
zeroed sandbox and a reloaded image per file, not a retranslation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class SecurityAttributes:
    """Ownership and permissions of an archived file (Unix-style)."""

    owner: int = 0
    group: int = 0
    mode: int = 0o644

    @property
    def world_readable(self) -> bool:
        return bool(self.mode & 0o004)

    def same_domain(self, other: "SecurityAttributes") -> bool:
        """Files in the same protection domain may safely share VM state."""
        return (
            self.owner == other.owner
            and self.group == other.group
            and self.world_readable == other.world_readable
        )


class VmReusePolicy(enum.Enum):
    """How the archive reader manages decoder VM instances across files."""

    #: Re-initialise the VM with a pristine decoder image for every file
    #: (the paper's safest option; the reader's default).
    ALWAYS_FRESH = "always-fresh"

    #: Reuse the VM for consecutive files that share a decoder *and* have the
    #: same security attributes; re-initialise when attributes change.
    REUSE_SAME_ATTRIBUTES = "reuse-same-attributes"

    #: Reuse the VM for every file sharing a decoder regardless of attributes
    #: (fastest; only appropriate when all archive contents are equally trusted).
    ALWAYS_REUSE = "always-reuse"


def reuse_groups(files, policy: VmReusePolicy):
    """Split ``files`` (ordered ``(name, attributes)`` pairs) into reuse groups.

    Files inside one group may be decoded by a single VM instance without
    re-initialisation under ``policy``; a new group means the reader must
    reset the VM first.
    """
    groups: list[list[str]] = []
    current: list[str] = []
    current_attributes: SecurityAttributes | None = None
    for name, attributes in files:
        if policy is VmReusePolicy.ALWAYS_FRESH:
            groups.append([name])
            continue
        if policy is VmReusePolicy.ALWAYS_REUSE:
            current.append(name)
            continue
        if current_attributes is None or attributes.same_domain(current_attributes):
            current.append(name)
            current_attributes = attributes if current_attributes is None else current_attributes
        else:
            groups.append(current)
            current = [name]
            current_attributes = attributes
    if current:
        groups.append(current)
    return groups
