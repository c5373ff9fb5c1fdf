"""Synchronisation primitives for simulated threads.

Two queue flavours are provided:

* :class:`BlockingQueue` -- an idealised FIFO used where queueing cost
  is not the object of study (e.g. packet hand-off inside the network
  fabric).
* :class:`WaitNotifyQueue` -- a Java-monitor-style queue whose ``put``
  charges the producer a monitor-enter/notify cost, and whose blocked
  consumer resumes only after a scheduling wakeup delay.  This is the
  mechanism behind the *oldPut* numbers of Table 1: "most of the
  overheads between 1~5ms are due to the queue's wait-notify delay".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.kernel import Event, SimulationError, Simulator
from repro.sim.distributions import Constant, Distribution


class QueueClosed(Exception):
    """Raised to consumers when a closed queue drains empty."""


class Signal:
    """A re-armable level event, the kernel analogue of
    ``Selector.wakeup()``: waiting on a signalled Signal returns
    immediately and clears it; signalling with no waiter latches."""

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._latched = False
        self._waiters: List[Event] = []

    @property
    def latched(self) -> bool:
        return self._latched

    def set(self) -> None:
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
        else:
            self._latched = True

    def wait(self) -> Event:
        event = self.sim.event("wait:%s" % self.name)
        if self._latched:
            self._latched = False
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def clear(self) -> None:
        self._latched = False


class BlockingQueue:
    """Unbounded FIFO with event-based blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        if self._closed:
            raise SimulationError("put on closed queue %s" % self.name)
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def get(self) -> Event:
        event = self.sim.event("get:%s" % self.name)
        if self._items:
            event.succeed(self._items.popleft())
        elif self._closed:
            event.fail(QueueClosed(self.name))
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        self._closed = True
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.fail(QueueClosed(self.name))


class WaitNotifyQueue:
    """FIFO with Java ``synchronized``/``wait``/``notify`` cost model.

    ``put`` returns an event that triggers once the producer has paid
    the enqueue cost; when a consumer is parked in ``wait()`` the
    producer additionally pays ``notify_cost`` and the consumer resumes
    after ``wakeup_delay`` (thread re-scheduling latency).  ``last_put_cost``
    exposes the producer-side cost of the most recent put so benchmarks
    can histogram it the way Table 1 does.
    """

    def __init__(self, sim: Simulator,
                 append_cost: Optional[Distribution] = None,
                 notify_cost: Optional[Distribution] = None,
                 wakeup_delay: Optional[Distribution] = None,
                 name: str = "monitor-queue"):
        self.sim = sim
        self.name = name
        self.append_cost = append_cost or Constant(0.0)
        self.notify_cost = notify_cost or Constant(0.0)
        self.wakeup_delay = wakeup_delay or Constant(0.0)
        self._items: Deque[Any] = deque()
        self._waiter: Optional[Event] = None
        self._closed = False
        self.last_put_cost = 0.0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> Event:
        """Enqueue; the returned event triggers when the producer may
        continue (i.e. after its enqueue + notify cost)."""
        if self._closed:
            raise SimulationError("put on closed queue %s" % self.name)
        cost = self.append_cost.sample()
        self._items.append(item)
        if self._waiter is not None:
            cost += self.notify_cost.sample()
            waiter, self._waiter = self._waiter, None
            delay = self.wakeup_delay.sample()
            wake = self.sim.timeout(delay)
            wake.callbacks.append(
                lambda _evt, w=waiter: None if w.triggered else w.succeed())
        self.last_put_cost = cost
        return self.sim.timeout(cost)

    def try_get(self) -> Optional[Any]:
        if self._items:
            return self._items.popleft()
        return None

    def wait(self) -> Event:
        """Park the (single) consumer until a producer notifies."""
        if self._waiter is not None:
            raise SimulationError(
                "queue %s already has a parked consumer" % self.name)
        event = self.sim.event("wait:%s" % self.name)
        if self._items:
            event.succeed()
        elif self._closed:
            event.fail(QueueClosed(self.name))
        else:
            self._waiter = event
        return event

    def close(self) -> None:
        self._closed = True
        if self._waiter is not None and not self._waiter.triggered:
            self._waiter.fail(QueueClosed(self.name))
            self._waiter = None


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    def __init__(self, sim: Simulator, value: int = 1, name: str = "sem"):
        if value < 0:
            raise SimulationError("semaphore value must be >= 0")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        event = self.sim.event("acquire:%s" % self.name)
        if self._value > 0:
            self._value -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return
        self._value += 1
