"""Server lifecycle: a monotone state machine and the POSIX signal wiring.

The states are strictly ordered (``starting -> serving -> draining ->
stopped``) and a transition never goes back, so a second SIGTERM during
a drain is a no-op:

>>> life = Lifecycle()
>>> life.advance("draining")
>>> life.advance("serving")
>>> life.state, life.draining, life.stopped
('draining', True, False)

:func:`install_signal_handlers` routes SIGTERM/SIGINT to a drain
callback and points :func:`signal.set_wakeup_fd` at the serving loop's
wakeup socket, so a signal wakes a loop blocked in ``select``.
"""

from __future__ import annotations

import signal
from typing import Callable, Iterable

__all__ = ["Lifecycle", "install_signal_handlers"]


class Lifecycle:
    """Monotone server state: ``starting -> serving -> draining ->
    stopped``; a repeated transition (a second SIGTERM) is a no-op."""

    __slots__ = ("state",)
    ORDER = ("starting", "serving", "draining", "stopped")

    def __init__(self) -> None:
        self.state = "starting"

    def advance(self, target: str) -> None:
        """Move forward to ``target``; never back."""
        self.state = max(self.state, target, key=self.ORDER.index)

    @property
    def draining(self) -> bool:
        return self.state in ("draining", "stopped")

    @property
    def stopped(self) -> bool:
        return self.state == "stopped"


def install_signal_handlers(
    wakeup_fd: int,
    drain: Callable[[], object],
    signals: Iterable[signal.Signals] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Route ``signals`` to ``drain`` and wake the loop on ``wakeup_fd``;
    returns the call that puts the previous wakeup fd and handlers back.

    Off the main thread Python delivers no signal, so nothing is
    installed and the returned call does nothing.
    """
    try:
        previous_fd = signal.set_wakeup_fd(wakeup_fd)
    except ValueError:
        return lambda: None
    previous = {sig: signal.signal(sig, lambda *_: drain()) for sig in signals}

    def restore() -> None:
        signal.set_wakeup_fd(previous_fd)
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    return restore
