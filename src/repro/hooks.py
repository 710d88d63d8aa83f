"""Multi-subscriber hook registries (the obs subsystem's wiring layer).

PR 1 added two single-slot hook attributes that the fault injector
claimed for itself.  The obs tracer needs the same attachment points,
and a single slot means the second subscriber silently clobbers the
first.  :class:`HookRegistry` is the replacement: an ordered list of
callables invoked in subscription order.  The single-slot aliases were
deprecated in PR 3 and are now gone; ``Machine.run_hooks`` and
``Runtime.call_hooks`` are the only hook API (DESIGN.md §5).

Two dispatch styles cover both hook points:

* *notify* (default): every subscriber runs; return values are ignored.
  Exceptions propagate — the fault injector raises ``Trap`` from inside
  ``run_hooks`` on purpose.
* *first-result* (``first_result=True``): subscribers run in order until
  one returns a non-``None`` value, which becomes the call's result —
  the short-circuit contract runtime-call injection relies on.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["HookRegistry"]


class HookRegistry:
    """An ordered, multi-subscriber hook point.

    ``subscribed`` says whether anyone is: a plain attribute, so a hot
    path (the runtime springboard, every slice) asks without a call."""

    __slots__ = ("_subscribers", "first_result", "subscribed")

    def __init__(self, first_result: bool = False):
        self._subscribers: List[Callable] = []
        self.first_result = first_result
        self.subscribed = False

    def add(self, fn: Callable) -> Callable:
        """Subscribe ``fn`` (idempotent); returns ``fn`` for decorator use."""
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        self.subscribed = True
        return fn

    def remove(self, fn: Callable) -> None:
        """Unsubscribe ``fn``; missing subscribers are ignored."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass
        self.subscribed = bool(self._subscribers)

    def clear(self) -> None:
        self._subscribers.clear()
        self.subscribed = False

    def __contains__(self, fn: Callable) -> bool:
        return fn in self._subscribers

    def __len__(self) -> int:
        return len(self._subscribers)

    def __call__(self, *args: Any) -> Optional[Any]:
        """Invoke subscribers in order.

        With ``first_result=True`` the first non-``None`` return value
        short-circuits the remaining subscribers and is returned.
        """
        for fn in list(self._subscribers):
            result = fn(*args)
            if self.first_result and result is not None:
                return result
        return None
