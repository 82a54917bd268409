"""The event-driven simulation kernel.

The :class:`Engine` owns the virtual clock and the event queue.  Handlers
react to events and schedule more events; the engine repeatedly pops the
earliest event and dispatches it until the queue drains (or a limit is hit).

This mirrors the Akita Simulator Engine used by the original TrioSim: the
event-driven style lets the simulator "fast-forward unnecessary details" —
an operator that takes 3 ms is one event, not three million cycles.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.events import CallbackEvent, Event
from repro.engine.hooks import HookCtx, Hookable

#: Hook positions emitted by the engine.
HOOK_BEFORE_EVENT = "before_event"
HOOK_AFTER_EVENT = "after_event"


class SimulationLimitError(RuntimeError):
    """Raised when the engine exceeds its configured event budget."""


#: Compaction floor: cancelled entries must both dominate the queue AND
#: number at least this many before the heap is rebuilt.  Without the
#: floor, small queues churn — two live events and three cancelled ones
#: would trigger a (pointless) rebuild, and tight cancel/reschedule loops
#: on near-empty queues would re-heapify on almost every cancellation.
COMPACT_FLOOR = 64


class Engine(Hookable):
    """Event kernel: virtual clock + priority queue + run loop.

    Parameters
    ----------
    max_events:
        Safety valve; :meth:`run` raises :class:`SimulationLimitError` after
        dispatching this many events.  Guards against accidental infinite
        event loops in user extensions.
    """

    def __init__(self, max_events: int = 200_000_000):
        super().__init__()
        self._queue: List[Tuple[float, int, Event]] = []
        self._now = 0.0
        self._seq = 0
        self._dispatched = 0
        self._cancelled = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._max_events = max_events
        self._paused = False
        self._dispatch_observer: Optional[
            Callable[[float, int, Event], None]] = None
        self._heartbeat: Optional[Callable[["Engine"], None]] = None
        self._heartbeat_every = 4096
        self._profile: Optional[Dict[str, float]] = None
        # (id(event), orphaned seq) records for entries superseded by
        # mark_requeued.  Distinguishes legitimately-requeued stale
        # entries (skipped silently) from entries pushed around
        # Engine.schedule (dispatched, so the race detector can flag the
        # stamped-seq disagreement).
        self._requeue_stale: set = set()

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def dispatched_events(self) -> int:
        """Number of events dispatched so far (for performance reporting)."""
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently queued."""
        return len(self._queue) - self._cancelled

    @property
    def total_cancelled(self) -> int:
        """Cumulative count of queued events that were cancelled.

        Unlike the internal compaction counter this never resets during a
        run — it is the churn metric the network fast path is measured
        against (see ``benchmarks/bench_to_json.py``).
        """
        return self._cancelled_total

    @property
    def compactions(self) -> int:
        """Number of heap rebuilds triggered by cancellation pressure."""
        return self._compactions

    def schedule(self, event: Event) -> Event:
        """Queue *event*; its time must not precede the current time."""
        if event.time < self._now:
            raise ValueError(
                f"cannot schedule event at {event.time} before now={self._now}"
            )
        if event.cancelled:
            raise ValueError("cannot schedule a cancelled event")
        event._seq = self._seq
        event._engine = self
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event._seq, event))
        return event

    def schedule_bulk(self, events: List[Event]) -> None:
        """Queue many events in one call (validated like :meth:`schedule`).

        Sequence numbers are assigned in list order, so the dispatch
        order is bit-identical to calling :meth:`schedule` on each event
        in turn — ``(time, seq)`` is a total order and the heap's
        internal shape never affects pop order.  When the batch is large
        relative to the queue the events are appended and the heap
        rebuilt once (O(n + k) instead of O(k log n)) — the fast path
        for reschedule waves (collective flow reallocation) and bulk
        iteration instancing.
        """
        if not events:
            return
        now = self._now
        seq = self._seq
        entries = []
        for event in events:
            if event.time < now:
                raise ValueError(
                    f"cannot schedule event at {event.time} before now={now}"
                )
            if event.cancelled:
                raise ValueError("cannot schedule a cancelled event")
            event._seq = seq
            event._engine = self
            entries.append((event.time, seq, event))
            seq += 1
        self._seq = seq
        queue = self._queue
        if len(entries) > 8 and len(entries) * 4 >= len(queue):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            for entry in entries:
                heapq.heappush(queue, entry)

    def mark_requeued(self, event: Event) -> None:
        """Account for re-submitting a still-queued *event* at a new time.

        The cheap reschedule path for in-flight timers (network delivery
        events whose bandwidth share changed): instead of cancelling the
        event and allocating a replacement, the caller re-submits the
        *same* object through :meth:`schedule` / :meth:`schedule_bulk`,
        which stamps a fresh sequence number.  The old heap entry still
        carries the previous sequence number, so the run loop recognises
        it as stale (``entry seq != event._seq``) and discards it before
        the dispatch observer fires — the ``(time, seq)`` dispatch
        stream is bit-identical to the cancel-and-replace path, with no
        throwaway event object and no cancelled-flag churn.

        Call this *before* re-submitting.  The orphaned entry counts
        toward compaction pressure exactly like a cancellation.
        """
        if event._engine is self:
            self._requeue_stale.add((id(event), event._seq))
            self._note_cancelled()

    def reschedule(self, event: Event, time: float) -> Event:
        """Move a queued *event* to absolute *time* (see :meth:`mark_requeued`)."""
        self.mark_requeued(event)
        event.time = time
        return self.schedule(event)

    def _discard_stale(self, event: Event, seq: int) -> bool:
        """Consume the requeue record for a seq-mismatched heap entry.

        Returns True when the entry was orphaned by :meth:`mark_requeued`
        (skip it silently).  False means the entry's stamped sequence
        number disagrees for some *other* reason — an entry pushed
        around :meth:`schedule` — which must dispatch as it always has,
        so the race detector can flag it.
        """
        key = (id(event), seq)
        if key in self._requeue_stale:
            self._requeue_stale.discard(key)
            return True
        return False

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact once they dominate.

        Cancelled entries stay in the heap (cancellation is O(1)), but
        once they both exceed half the queue and reach the
        :data:`COMPACT_FLOOR` the heap is rebuilt without them —
        amortized O(1) per cancellation, long-running sweeps no longer
        accumulate dead entries, and small queues never churn through
        pointless rebuilds.
        """
        self._cancelled += 1
        self._cancelled_total += 1
        if (self._cancelled >= COMPACT_FLOOR
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        # One comprehension pass (C-speed) + one heapify, in place so the
        # run loop can keep a local binding of the queue list.  An entry
        # survives only if its event is live and was not orphaned by
        # :meth:`mark_requeued`.  The orphan check must be by record, not
        # by seq mismatch: between mark_requeued and the re-submit the
        # event still carries the orphaned entry's sequence number, and
        # keeping that entry while clearing its record would dispatch
        # the event twice once the re-submit lands.  Stale _engine
        # backrefs on dropped cancelled entries are harmless:
        # Event.cancel() early-returns on cancelled events.
        queue = self._queue
        stale = self._requeue_stale
        if stale:
            queue[:] = [entry for entry in queue
                        if not entry[2].cancelled
                        and (id(entry[2]), entry[1]) not in stale]
            stale.clear()
        else:
            queue[:] = [entry for entry in queue
                        if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0
        self._compactions += 1

    def call_at(self, time: float, callback: Callable[[Event], None], payload=None) -> Event:
        """Schedule *callback* to run at absolute virtual *time*."""
        return self.schedule(CallbackEvent(time, callback, payload))

    def call_after(self, delay: float, callback: Callable[[Event], None], payload=None) -> Event:
        """Schedule *callback* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, callback, payload)

    def defer_pending(self, delay: float, exclude: Tuple[Event, ...] = ()) -> int:
        """Push every queued live event *delay* seconds into the future.

        This is the primitive behind global stalls (checkpoint pauses,
        failure rollback-and-replay): the relative order of all pending
        work is preserved exactly — each live entry moves from ``time`` to
        ``time + delay`` with its sequence number intact — so the deferred
        schedule replays identically, just later.  Events in *exclude*
        (e.g. the fault injector's own absolute-time injections) keep
        their original times.

        Returns the number of events deferred.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        if delay == 0 or not self._queue:
            return 0
        skip = set(map(id, exclude))
        stale = self._requeue_stale
        deferred = 0
        shifted = []
        for time, seq, event in self._queue:
            # Requeue-stale entries are dead weight: the event's live
            # entry is shifted exactly once, under its current seq.
            if (not event.cancelled
                    and (event._seq == seq or (id(event), seq) not in stale)
                    and id(event) not in skip):
                time += delay
                event.time = time
                deferred += 1
            shifted.append((time, seq, event))
        self._queue[:] = shifted
        # A uniform shift preserves heap order, but exclusions may not.
        if skip:
            heapq.heapify(self._queue)
        return deferred

    def set_dispatch_observer(
            self, observer: Optional[Callable[[float, int, Event], None]]
    ) -> None:
        """Install a ``(time, seq, event)`` callback fired per dispatch.

        The observer sees each event's heap position (its timestamp and
        tie-breaking sequence number) *before* the event is handled —
        the instrumentation point of the determinism race detectors
        (:mod:`repro.analysis.verifier.races`).  At most one observer;
        ``None`` uninstalls.  Like the hook list, the observer is bound
        once at the top of :meth:`run`: install it before running.
        Costs nothing when unset (one bound-local check per loop setup).
        """
        self._dispatch_observer = observer

    def set_heartbeat(self, heartbeat: Optional[Callable[["Engine"], None]],
                      every: int = 4096) -> None:
        """Install a callback fired every *every* dispatched events.

        The heartbeat is the wall-clock escape hatch for otherwise
        uninterruptible runs: the sweep service's soft per-point deadline
        checks elapsed wall time from it and raises to stop the run
        cooperatively, keeping partial progress (``engine.now``,
        :attr:`dispatched_events`) attributable.  Exceptions raised by the
        heartbeat propagate out of :meth:`run`.  At most one heartbeat;
        ``None`` uninstalls.  Costs one predictable branch per dispatch
        when unset.
        """
        if every < 1:
            raise ValueError("heartbeat interval must be >= 1 event")
        self._heartbeat = heartbeat
        self._heartbeat_every = every

    def set_profile(self, sink: Optional[Dict[str, float]]) -> None:
        """Accumulate run-loop timing into *sink*; ``None`` disables.

        When a sink is installed :meth:`run` uses an instrumented loop
        that buckets wall time into ``queue_ops`` (heap peek/pop and
        bookkeeping), ``handler`` (event handler bodies, where the
        simulation actually runs) and ``hook_overhead`` (engine-level
        hook dispatch).  The buckets are *added* to the sink's existing
        values so repeated runs aggregate.  Instrumentation costs two
        clock reads per event — only install it for profiling runs.
        """
        self._profile = sink

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events in time order.

        Runs until the queue drains, or — when *until* is given — until the
        next event would fire after *until* (the clock is then advanced to
        *until*).  Returns the final virtual time.
        """
        self._paused = False
        if (self._profile is not None or self._heartbeat is not None
                or self._dispatch_observer is not None):
            return self._run_instrumented(until)
        heappop = heapq.heappop
        queue = self._queue
        # self._hooks is mutated in place by accept/remove, so binding the
        # list keeps the emptiness check live while skipping two HookCtx
        # allocations per event on the (common) unobserved path.
        hooks = self._hooks
        max_events = self._max_events
        callback_lane = CallbackEvent
        while queue and not self._paused:
            entry = queue[0]
            time = entry[0]
            if until is not None and time > until:
                self._now = until
                return until
            # Drain every entry sharing this timestamp in one inner pass:
            # the heap already yields them in sequence order, and events a
            # handler schedules *at* this timestamp carry higher sequence
            # numbers, so they surface here in the correct total order.
            while True:
                heappop(queue)
                event = entry[2]
                if not event.cancelled and (
                        event._seq == entry[1]
                        or not self._discard_stale(event, entry[1])):
                    self._now = time
                    event._engine = None  # dequeued; cancel() needs no note
                    self._dispatched += 1
                    if self._dispatched > max_events:
                        raise SimulationLimitError(
                            f"exceeded max_events={max_events}; "
                            "possible runaway event loop"
                        )
                    if hooks:
                        self.invoke_hooks(
                            HookCtx(HOOK_BEFORE_EVENT, time, event))
                        event.handler.handle(event)
                        self.invoke_hooks(
                            HookCtx(HOOK_AFTER_EVENT, time, event))
                    elif type(event) is callback_lane:
                        # Inlined fast lane: a CallbackEvent is its own
                        # handler, so skip the handler.handle indirection.
                        event._callback(event)
                    else:
                        event.handler.handle(event)
                    if self._paused:
                        break
                else:
                    # Cancelled, or a stale entry left behind by a
                    # requeue (seq mismatch) — never dispatched, never
                    # observed.
                    if event.cancelled and event._seq != entry[1]:
                        self._discard_stale(event, entry[1])
                    self._cancelled -= 1
                if not queue:
                    break
                entry = queue[0]
                if entry[0] != time:
                    break
        if until is not None and not queue:
            self._now = max(self._now, until)
        return self._now

    def _run_instrumented(self, until: Optional[float]) -> float:
        """Run loop for observed, heartbeat and profiled runs.

        Dispatch order is identical to :meth:`run`'s fast loop; this
        loop adds the per-event heartbeat and dispatch-observer call
        sites and, when :meth:`set_profile` installed a sink, buckets
        wall time into it: ``handler`` and ``hook_overhead`` are timed
        around each dispatch, and ``queue_ops`` is the rest of the loop
        (heap work, bookkeeping, heartbeat and observer).  Without a
        sink it never reads the clock.
        """
        profile = self._profile
        timed = profile is not None
        heappop = heapq.heappop
        queue = self._queue
        hooks = self._hooks
        observer = self._dispatch_observer
        heartbeat = self._heartbeat
        beat_countdown = self._heartbeat_every
        callback_lane = CallbackEvent
        handler_s = hook_s = 0.0
        if timed:
            loop_start = perf_counter()
        try:
            while queue and not self._paused:
                time, seq, event = queue[0]
                if until is not None and time > until:
                    self._now = until
                    return until
                heappop(queue)
                if event.cancelled:
                    if event._seq != seq:
                        self._discard_stale(event, seq)
                    self._cancelled -= 1
                    continue
                if event._seq != seq and self._discard_stale(event, seq):
                    # Skipped before the observer: requeue-stale entries
                    # are invisible to the dispatch stream.
                    self._cancelled -= 1
                    continue
                event._engine = None
                self._now = time
                self._dispatched += 1
                if self._dispatched > self._max_events:
                    raise SimulationLimitError(
                        f"exceeded max_events={self._max_events}; "
                        "possible runaway event loop"
                    )
                if heartbeat is not None:
                    beat_countdown -= 1
                    if beat_countdown <= 0:
                        beat_countdown = self._heartbeat_every
                        heartbeat(self)
                if observer is not None:
                    observer(time, seq, event)
                if timed:
                    t0 = perf_counter()
                if hooks:
                    self.invoke_hooks(HookCtx(HOOK_BEFORE_EVENT, time, event))
                    if timed:
                        t1 = perf_counter()
                    event.handler.handle(event)
                    if timed:
                        t2 = perf_counter()
                    self.invoke_hooks(HookCtx(HOOK_AFTER_EVENT, time, event))
                    if timed:
                        t3 = perf_counter()
                        hook_s += (t1 - t0) + (t3 - t2)
                        handler_s += t2 - t1
                elif type(event) is callback_lane:
                    event._callback(event)
                    if timed:
                        handler_s += perf_counter() - t0
                else:
                    event.handler.handle(event)
                    if timed:
                        handler_s += perf_counter() - t0
        finally:
            if timed:
                loop_s = perf_counter() - loop_start
                profile["queue_ops"] = (profile.get("queue_ops", 0.0)
                                        + loop_s - handler_s - hook_s)
                profile["handler"] = profile.get("handler", 0.0) + handler_s
                profile["hook_overhead"] = (profile.get("hook_overhead", 0.0)
                                            + hook_s)
        if until is not None and not queue:
            self._now = max(self._now, until)
        return self._now

    def pause(self) -> None:
        """Stop the run loop after the current event completes."""
        self._paused = True

    def reset(self) -> None:
        """Clear the queue and rewind the clock (for test reuse)."""
        for _, _, event in self._queue:
            event._engine = None
        self._queue.clear()
        self._requeue_stale.clear()
        self._now = 0.0
        self._seq = 0
        self._dispatched = 0
        self._cancelled = 0
        self._cancelled_total = 0
        self._compactions = 0
        self._paused = False
