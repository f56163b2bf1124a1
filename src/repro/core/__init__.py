"""The paper's primary contribution: call-by-copy-restore for object graphs.

Contents:

* :mod:`repro.core.markers` — the marker types that select calling
  semantics per class, mirroring ``java.io.Serializable`` /
  ``java.rmi.Restorable`` / ``java.rmi.Remote``;
* :mod:`repro.core.semantics` — per-parameter passing-mode resolution;
* :mod:`repro.core.copy_restore` — steps 5-6 (in-place overwrite of the
  originals from the states a reply decoded into the caller's heap; the
  reply's slot numbers are step 4's match);
* :mod:`repro.core.restore_protocol` — the four restore policies on the
  wire: full map (NRMI), delta (the paper's future-work optimization),
  DCE-RPC partial restore, and none (plain call-by-copy);
* :mod:`repro.core.local` — local-execution baselines.
"""

from repro.core.markers import Remote, Restorable, Serializable, is_restorable
from repro.core.semantics import PassingMode, resolve_mode
from repro.core.copy_restore import RestoreEngine
from repro.core.restore_protocol import (
    RestorePolicy,
    NoRestorePolicy,
    FullRestorePolicy,
    DeltaRestorePolicy,
    DceRestorePolicy,
    policy_by_name,
)

__all__ = [
    "Remote",
    "Restorable",
    "Serializable",
    "is_restorable",
    "PassingMode",
    "resolve_mode",
    "RestoreEngine",
    "RestorePolicy",
    "NoRestorePolicy",
    "FullRestorePolicy",
    "DeltaRestorePolicy",
    "DceRestorePolicy",
    "policy_by_name",
]
