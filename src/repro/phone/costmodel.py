"""Per-device operation cost model.

Every timing assumption in the reproduction lives here, with the source
of each default noted.  All values are milliseconds of virtual time.
Defaults describe a Nexus-6-class phone, the device the paper used for
its microbenchmarks.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sim.distributions import (
    Constant,
    LogNormal,
    Mixture,
    Uniform,
)


class DeviceCostModel:
    """Sampled costs for syscalls and framework operations.

    Parameters default to values that reproduce the paper's measured
    distributions; every experiment that depends on one names it
    explicitly in EXPERIMENTS.md.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        rng = rng or random.Random(2017)
        self.rng = rng

        # -- TUN device (sections 3.1, 3.5.1) --------------------------------
        # A read()/write() syscall on the tun fd: ~0.1 ms level ("tunnel
        # writing (at the 0.1ms level)", section 3.5.1).
        self.tun_read_syscall = LogNormal(0.14, 0.4).bind(rng)
        self.tun_write_syscall = LogNormal(0.13, 0.5).bind(rng)
        # Extra cost when several threads contend for the single tun fd
        # (the directWrite failure mode of Table 1: 42/1244 samples
        # above 1 ms, two above 20 ms).
        self.tun_write_contended = Mixture([
            (0.962, LogNormal(0.25, 0.5)),
            (0.030, Uniform(1.0, 5.0)),
            (0.008, Uniform(5.0, 25.0)),
        ]).bind(rng)

        # -- queue hand-off (section 3.5.1) --------------------------------
        # Plain enqueue is "at the microsecond level".
        self.enqueue = LogNormal(0.004, 0.4).bind(rng)
        # Monitor notify when the consumer is parked in wait(): the
        # oldPut tail (47/810 samples > 1 ms).
        self.monitor_notify = Mixture([
            (0.80, LogNormal(0.02, 0.5)),
            (0.17, Uniform(1.0, 5.0)),
            (0.03, Uniform(5.0, 10.0)),
        ]).bind(rng)
        # Thread re-scheduling after notify() before wait() returns.
        self.monitor_wakeup_delay = Mixture([
            (0.90, LogNormal(0.05, 0.5)),
            (0.10, Uniform(0.5, 2.0)),
        ]).bind(rng)

        # -- packet processing -------------------------------------------------
        self.packet_parse = LogNormal(0.008, 0.3).bind(rng)
        self.packet_build = LogNormal(0.05, 0.3).bind(rng)

        # -- packet-to-app mapping (section 3.3) -----------------------------
        # Parsing /proc/net/tcp6|tcp for one SYN, Figure 5(a): >75 % of
        # samples above 5 ms, >10 % above 15 ms on a Nexus 6.
        self.proc_parse = LogNormal(7.8, 0.62).bind(rng)
        # PackageManager UID -> name lookup (cached after first call).
        self.uid_lookup = LogNormal(0.4, 0.4).bind(rng)

        # -- NIO (sections 2.4, 3.4) -----------------------------------------
        # register() on a selector "can sometimes be very expensive".
        self.selector_register = Mixture([
            (0.9, LogNormal(0.05, 0.5)),
            (0.1, Uniform(1.0, 4.0)),
        ]).bind(rng)
        self.selector_select = LogNormal(0.02, 0.3).bind(rng)
        # Spawning a temporary socket-connect thread.
        self.thread_spawn = LogNormal(2.3, 0.3).bind(rng)
        # socket()/connect() issue cost (not the network RTT).
        self.socket_create = LogNormal(0.4, 0.4).bind(rng)
        self.connect_issue = LogNormal(0.15, 0.4).bind(rng)
        self.socket_read = LogNormal(0.04, 0.4).bind(rng)
        self.socket_write = LogNormal(0.06, 0.4).bind(rng)

        # -- VpnService (section 3.5.2) ----------------------------------------
        # protect(socket): "a delay overhead which could be up to
        # several milliseconds".
        self.vpn_protect = Mixture([
            (0.55, LogNormal(0.35, 0.5)),
            (0.35, Uniform(0.8, 3.0)),
            (0.10, Uniform(3.0, 8.0)),
        ]).bind(rng)
        # addDisallowedApplication(): one-time, during initialisation.
        self.vpn_add_disallowed = Constant(1.0)

        # -- DNS processing (section 2.4) ----------------------------------------
        self.dns_parse = LogNormal(0.15, 0.4).bind(rng)
        self.dns_socket_init = LogNormal(0.3, 0.4).bind(rng)

        # -- timestamping ----------------------------------------------------------
        # MopEye uses System.nanoTime (sub-microsecond); MobiPerf used a
        # millisecond-granularity method (section 4.1.1).
        self.nano_clock_granularity = 1e-6
        self.milli_clock_granularity = 1.0

    def quantize_nano(self, t_ms: float) -> float:
        g = self.nano_clock_granularity
        return int(t_ms / g) * g

    def quantize_milli(self, t_ms: float) -> float:
        g = self.milli_clock_granularity
        return int(t_ms / g) * g
