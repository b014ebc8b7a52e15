"""``repro.repair`` -- salvage and rebuild damaged vxZIP archives.

The durability counterpart to :mod:`repro.faults`: where the fault modules
*inject* media damage, this package recovers from it.  Two entry points:

* :func:`repair_archive` -- rebuild a clean archive from the salvageable
  set, with a structured damage report (``vxunzip repair``);
* :func:`minimal_diagnosis` -- the FastDiag-style smallest set of damaged
  regions explaining every lost member.

The media-level verdict both start from (``vxunzip check --deep``) is
:func:`repro.core.integrity.assess_media`.
"""

from __future__ import annotations

from repro.core.integrity import MediaAssessment, format_assessment
from repro.repair.diagnosis import DamageRegion, minimal_diagnosis
from repro.repair.rebuild import (
    ACTION_COPIED,
    ACTION_COPIED_WITHOUT_DECODER,
    ACTION_DROPPED,
    MemberAction,
    RepairResult,
    repair_archive,
)

__all__ = [
    "ACTION_COPIED",
    "ACTION_COPIED_WITHOUT_DECODER",
    "ACTION_DROPPED",
    "DamageRegion",
    "MediaAssessment",
    "MemberAction",
    "RepairResult",
    "format_assessment",
    "minimal_diagnosis",
    "repair_archive",
]
