"""The global observability switch.

Everything in :mod:`repro.obs` is gated on one module-level flag so a
disabled deployment pays a single attribute load and branch per
instrumentation site — no timer reads, no dict traffic, no allocation
(the end-to-end benchmark's ``obs.enabled_cost_ratio`` measures what the
enabled layer costs against ``REPRO_OBS=0``).  The flag is
process-local; worker processes forked by :mod:`repro.runtime` inherit
the coordinator's setting at spawn time.

The initial state honours the ``REPRO_OBS`` environment variable
(``0``/``false``/``off`` start disabled; anything else — including
unset — starts enabled), so operators can strip instrumentation from a
whole fleet without code changes.
"""

from __future__ import annotations

import os

_OFF_VALUES = frozenset({"0", "false", "off", "no"})

#: The live switch.  Read directly (``state.ENABLED``) on hot paths;
#: mutate only through :func:`enable` / :func:`disable`.
ENABLED: bool = os.environ.get("REPRO_OBS", "1").strip().lower() not in _OFF_VALUES


def enable() -> None:
    """Turn instrumentation on (spans recorded, instruments mutate)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn instrumentation off (every obs primitive becomes a no-op)."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    """Is instrumentation currently on?"""
    return ENABLED
