"""Workload traces: record/replay app network activity.

Evaluating a relay needs repeatable workloads.  A
:class:`WorkloadTrace` is a timestamped list of app-level network
events (requests, bulk transfers, DNS lookups) that can be saved as
JSON, loaded, generated synthetically, and replayed against any device
-- with or without MopEye running -- so two configurations can be
compared on identical traffic.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.phone.apps import App
from repro.sim.kernel import Event, Simulator

ACTIONS = ("request", "download", "upload", "resolve")


@dataclass(frozen=True)
class TraceEvent:
    at_ms: float
    app: str                      # package name
    action: str                   # one of ACTIONS
    target: str                   # ip (request/download/upload) or domain
    port: int = 80
    size: int = 0                 # bytes for download/upload
    payload: str = "GET / HTTP/1.1\r\n\r\n"

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError("unknown trace action %r" % self.action)
        if self.at_ms < 0:
            raise ValueError("negative timestamp")


class WorkloadTrace:
    def __init__(self, events: Optional[List[TraceEvent]] = None):
        self.events = sorted(events or [], key=lambda e: e.at_ms)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration_ms(self) -> float:
        return self.events[-1].at_ms if self.events else 0.0

    def apps(self) -> List[str]:
        return sorted({event.app for event in self.events})

    # -- persistence ------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([asdict(event) for event in self.events],
                          indent=1)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        return cls([TraceEvent(**item) for item in json.loads(text)])

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- synthesis -----------------------------------------------------------
    @classmethod
    def generate(cls, endpoints: List[tuple], duration_ms: float,
                 events_per_minute: float = 30.0,
                 seed: int = 0) -> "WorkloadTrace":
        """Poisson-ish synthetic trace over ``endpoints`` entries of
        (package, ip_or_domain, port)."""
        rng = random.Random(seed)
        events = []
        t = 0.0
        mean_gap = 60_000.0 / events_per_minute
        while t < duration_ms:
            t += rng.expovariate(1.0 / mean_gap)
            if t >= duration_ms:
                break
            package, target, port = rng.choice(endpoints)
            roll = rng.random()
            if roll < 0.7:
                events.append(TraceEvent(t, package, "request",
                                         target, port))
            elif roll < 0.9:
                events.append(TraceEvent(
                    t, package, "download", target, port,
                    size=rng.choice([20_000, 100_000, 400_000])))
            else:
                events.append(TraceEvent(
                    t, package, "upload", target, port,
                    size=rng.choice([10_000, 50_000])))
        return cls(events)


class TraceReplayer:
    """Replays a trace on a device; one process per event app-side."""

    def __init__(self, device):
        self.device = device
        self.sim: Simulator = device.sim
        self._apps: Dict[str, App] = {}
        self.completed = 0
        self.failed = 0

    def app_for(self, package: str) -> App:
        if package not in self._apps:
            self._apps[package] = App(self.device, package)
        return self._apps[package]

    def replay(self, trace: WorkloadTrace) -> Event:
        """Returns the process event that triggers when every trace
        event has been issued and completed."""
        return self.sim.process(self._run(trace), name="trace-replay")

    def _run(self, trace: WorkloadTrace):
        start = self.sim.now
        pending = []
        for event in trace.events:
            delay = start + event.at_ms - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            pending.append(self.sim.process(
                self._issue(event), name="trace-event"))
        if pending:
            yield self.sim.all_of(pending)
        return self.completed

    def _issue(self, event: TraceEvent):
        app = self.app_for(event.app)
        try:
            if event.action == "resolve":
                yield self.device.resolve_process(event.target)
            elif event.action == "request":
                yield from app.request(event.target, event.port,
                                       event.payload.encode())
            elif event.action == "download":
                socket = yield from app.timed_connect(event.target,
                                                      event.port)
                if socket is None:
                    self.failed += 1
                    return
                socket.send(b"DOWNLOAD %d\n" % event.size)
                yield from socket.recv_exactly(event.size)
                socket.close()
            elif event.action == "upload":
                socket = yield from app.timed_connect(event.target,
                                                      event.port)
                if socket is None:
                    self.failed += 1
                    return
                socket.send(b"UPLOAD %d\n" % event.size)
                socket.send(b"u" * event.size)
                yield socket.recv()
                socket.close()
            self.completed += 1
        except Exception:
            self.failed += 1
