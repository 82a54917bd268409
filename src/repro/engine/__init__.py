"""Event-driven simulation engine (Akita analog).

The engine is the substrate every other subsystem builds on.  It provides:

* :class:`~repro.engine.events.Event` — a unit of future work bound to a
  virtual time and a handler.
* :class:`~repro.engine.engine.Engine` — the event kernel: a priority queue
  of events, a virtual clock, and a run loop.
* :class:`~repro.engine.hooks.Hook` — observation points for monitoring and
  tracing (the AkitaRTM / Daisen analog).
"""

from repro.engine.engine import Engine
from repro.engine.events import CallbackEvent, Event, EventHandler
from repro.engine.hooks import Hook, HookCtx, Hookable
from repro.engine.monitor import Monitor, ProgressRecord

__all__ = [
    "CallbackEvent",
    "Engine",
    "Event",
    "EventHandler",
    "Hook",
    "HookCtx",
    "Hookable",
    "Monitor",
    "ProgressRecord",
]
