"""Small cross-version and optional-dependency compatibility shims.

``SLOTS`` is splatted into ``@dataclass(...)`` decorators of hot-path record
types so they are allocated without a per-instance ``__dict__`` on modern
interpreters.  Slotted frozen dataclasses only pickle correctly from Python
3.11 onward (needed by the campaign process-pool backend), so the flag is
gated on 3.11 rather than 3.10 where the keyword first appeared.

``HAVE_NUMBA`` mirrors the numpy-optional pattern used throughout the
engines: a one-time import probe that downstream modules (and tests, via
monkeypatching) consult instead of importing numba themselves.  The
``REPRO_DISABLE_JIT`` environment variable is a kill-switch read *per call*
by :func:`jit_disabled`, so an operator can turn the compiled path off for
a single process without reinstalling anything.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from typing import Any, Dict

SLOTS: Dict[str, Any] = {"slots": True} if sys.version_info >= (3, 11) else {}

#: True when numba is importable.  A cheap find_spec probe rather than a
#: real import: importing numba costs seconds, which every process would
#: pay even when the compiled path is never used.  The jitpath module
#: imports numba lazily, only once a kernel is actually requested.
try:
    HAVE_NUMBA: bool = importlib.util.find_spec("numba") is not None
except (ImportError, ValueError):  # pragma: no cover - broken interpreter paths
    HAVE_NUMBA = False


def jit_disabled() -> bool:
    """True when the ``REPRO_DISABLE_JIT`` kill-switch is set.

    Read from the environment on every call (not cached at import) so
    toggling the variable mid-process — e.g. from a test — takes effect
    immediately.  Any non-empty value other than ``0`` disables the
    compiled path.
    """
    value = os.environ.get("REPRO_DISABLE_JIT", "")
    return value not in ("", "0")
