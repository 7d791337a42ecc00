"""Environment knobs: one-shot-warning parsing and the check selector.

Every ``REPRO_*`` tuning knob follows the same contract (established in
PR 7 for the store/model-worker knobs): a malformed value is never
silently ignored and never fatal — it emits exactly one
``RuntimeWarning`` naming the variable and the fallback, then behaves
as if the variable were unset.  This module centralizes that contract
so new knobs (the service layer adds several) cannot drift from it.
:func:`check_requested` lives here because the compiler and the metrics
plane read the same ``REPRO_CHECK`` switch.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

#: Cross-check mode.  With ``REPRO_CHECK=1`` every fast tier re-derives
#: what it is about to serve from the tier below and fails loudly on a
#: difference: a synthesized trace is also recorded and diffed
#: (``TraceMismatch``), and a cached MetricsPlan hit is rebuilt from
#: the live metrics plane (``MetricsPlanMismatch``).
CHECK_ENV = "REPRO_CHECK"

#: (env var, malformed text) pairs already warned about: a bad value is
#: reported exactly once per process instead of once per consultation.
_warned_env_values: set = set()


def check_requested() -> bool:
    """Whether ``REPRO_CHECK=1`` asks the two check sites to verify."""
    return os.environ.get(CHECK_ENV, "") == "1"


def warn_once_malformed_env(var: str, text: str, fallback,
                            stacklevel: int = 4) -> None:
    """Warn (once per distinct value) that ``var`` holds garbage."""
    key = (var, text)
    if key in _warned_env_values:
        return
    _warned_env_values.add(key)
    warnings.warn(
        f"ignoring malformed {var}={text!r}; falling back to "
        f"{fallback!r}", RuntimeWarning, stacklevel=stacklevel,
    )


def env_int(var: str, default: Optional[int],
            minimum: Optional[int] = None) -> Optional[int]:
    """``int(os.environ[var])`` with the one-shot-warning fallback."""
    text = os.environ.get(var, "").strip()
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        warn_once_malformed_env(var, text, default)
        return default
    if minimum is not None and value < minimum:
        return minimum
    return value


def env_float(var: str, default: Optional[float],
              minimum: Optional[float] = None) -> Optional[float]:
    """``float(os.environ[var])`` with the one-shot-warning fallback."""
    text = os.environ.get(var, "").strip()
    if not text:
        return default
    try:
        value = float(text)
    except ValueError:
        warn_once_malformed_env(var, text, default)
        return default
    if minimum is not None and value < minimum:
        return minimum
    return value
