"""The fork start method, where the platform offers one.

Both process pools in the repo fork: the flow service's workers (which
inherit the event queue and runtime-registered scenarios) and the global
router's maze solvers (which inherit the flow stack).  This module is a
leaf so the router can ask without importing the service.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Optional


def fork_context() -> Optional[Any]:
    """The fork multiprocessing context, or None where unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - defensive
        return None
