"""Shared infrastructure for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures: it
runs the experiment, prints the paper-format output, persists it under
``benchmarks/results/``, and hands a representative kernel to
pytest-benchmark for timing.
"""

from __future__ import annotations

import os
import random
import zlib
from typing import Optional

from repro.network import (
    AppServer,
    DnsServer,
    DnsZone,
    Internet,
    wifi_profile,
)
from repro.phone import AndroidDevice
from repro.sim import Constant, Simulator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def save_result(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")
    print()
    print(text)


class BenchWorld:
    """Simulator + internet + one device + a DNS server."""

    def __init__(self, sdk: int = 23, seed: int = 7,
                 wifi_rtt_ms: float = 14.0,
                 bandwidth_mbps: float = 25.0):
        self.sim = Simulator()
        self.internet = Internet(self.sim)
        self.rng = random.Random(seed)
        self.link = wifi_profile(self.sim, rng=self.rng,
                                 median_rtt_ms=wifi_rtt_ms,
                                 bandwidth_mbps=bandwidth_mbps)
        self.device = AndroidDevice(self.sim, self.internet, self.link,
                                    sdk=sdk,
                                    rng=random.Random(seed + 1))
        self.zone = DnsZone()
        self.dns = DnsServer(self.sim, "8.8.8.8", self.zone,
                             processing_delay=Constant(0.5))
        self.internet.add_server(self.dns)

    def add_server(self, ip: str, name: str = "server", domains=(),
                   path_oneway=None, **kwargs) -> AppServer:
        server = AppServer(self.sim, [ip], name=name,
                           path_oneway=path_oneway,
                           rng=random.Random(
                               zlib.crc32(ip.encode()) & 0xFFFF),
                           **kwargs)
        self.internet.add_server(server)
        for domain in domains:
            self.zone.add(domain, ip)
        return server

    def run_process(self, generator, until: float = 600000.0,
                    drain: float = 2000.0):
        process = self.sim.process(generator)
        self.sim.run(until=self.sim.now + until, stop_event=process)
        assert process.triggered, "bench process did not finish"
        self.sim.run(until=self.sim.now + drain)
        return process.value

    def run(self, until: float) -> None:
        self.sim.run(until=self.sim.now + until)


def delay_histogram(samples, bounds=((0, 1), (1, 2), (2, 5), (5, 10))):
    """Table 1-style histogram: counts per delay band plus '>last'."""
    rows = []
    for low, high in bounds:
        count = sum(1 for s in samples if low <= s < high)
        rows.append(("%g~%gms" % (low, high), count))
    last = bounds[-1][1]
    rows.append((">%gms" % last, sum(1 for s in samples if s >= last)))
    return rows
