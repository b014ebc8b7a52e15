"""Static analysis of VXA-32 decoder images.

Public surface:

* :func:`repro.analysis.verify.verify_image` -- one-call static verification
  returning an :class:`~repro.analysis.verify.AnalysisReport`;
* :func:`repro.analysis.cfg.recover_cfg` -- CFG recovery on its own;
* :func:`repro.analysis.absint.analyze` -- the abstract interpreter.

See ``README.md`` in this package for the abstract domains and the
PROVED_SAFE contract the translator's guard elision relies on.

Only the report types and ``verify_image`` are re-exported: a process that
finds an image's report in the store (:mod:`repro.vm.store`) runs no analysis
and imports neither engine, so ``cfg`` and ``absint`` are imported from their
own modules, where an analysis actually runs.
"""

from repro.analysis.verify import (
    VERDICT_GUARD,
    VERDICT_PROVED,
    VERDICT_UNSAFE,
    AnalysisReport,
    SiteVerdict,
    verify_image,
)

__all__ = [
    "AnalysisReport",
    "SiteVerdict",
    "VERDICT_GUARD",
    "VERDICT_PROVED",
    "VERDICT_UNSAFE",
    "verify_image",
]
