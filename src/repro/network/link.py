"""Access-link model: propagation latency, serialisation, loss.

A link has two independent directions.  Each direction serialises
packets at its configured bandwidth (a transmission takes
``bytes * 8 / bandwidth`` milliseconds and the channel is busy for that
long), adds a sampled one-way propagation delay, and drops packets with
a configurable probability.  Queueing ahead of the serialiser is what
produces the throughput ceilings of Table 3.

Two fault hooks exist beyond the steady-state model (driven by
:mod:`repro.faults.injector`):

*  a Gilbert-Elliott burst-loss mode (:meth:`LinkDirection.set_burst_loss`)
   -- a two-state Markov chain stepped per packet, so losses cluster the
   way flaky cellular links lose whole flights of segments;
*  a latency-spike modulator (:attr:`LinkDirection.latency_extra_ms`)
   adding a constant extra one-way delay while a spike fault is active.

Drop counters live in the catalog-enforced metrics registry
(``link.packets_dropped`` / ``link.burst_drops``), one scope per
direction: read them with ``direction.obs.value(name)``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.distributions import Constant, Distribution


class NetworkType:
    """Network technology tags used across the dataset (Figure 10)."""

    WIFI = "WIFI"
    LTE = "LTE"          # 4G
    UMTS = "UMTS"        # 3G (UMTS/HSPA(+))
    GPRS = "GPRS"        # 2G (GPRS/EDGE)

    CELLULAR = (LTE, UMTS, GPRS)
    ALL = (WIFI, LTE, UMTS, GPRS)


class LinkDirection:
    """One direction of an access link (uplink or downlink)."""

    # Packets within one burst see the same path latency (jitter comes
    # from conditions that change between bursts, not per packet --
    # otherwise the FIFO ordering constraint would ratchet a long
    # transfer's latency up to the distribution's running maximum).
    LATENCY_COHERENCE_MS = 5.0

    def __init__(self, sim: Simulator, latency: Distribution,
                 bandwidth_mbps: float = 0.0, loss_rate: float = 0.0,
                 rng: Optional[random.Random] = None, name: str = "dir",
                 obs: Optional[Observability] = None):
        # 1.0 is a legal blackhole (route withdrawn, radio gone); only
        # probabilities outside [0, 1] are nonsense.
        if loss_rate < 0 or loss_rate > 1:
            raise ValueError("loss_rate must be in [0, 1]")
        self.sim = sim
        self.latency = latency
        self.bandwidth_mbps = bandwidth_mbps
        self.loss_rate = loss_rate
        self.rng = rng or random.Random(0)
        self.name = name
        # Per-direction scope by default: two directions (or two links)
        # in one process must not share drop counters.
        self.obs = obs or Observability(sim=sim)
        self._channel_free_at = 0.0
        self._last_arrival = 0.0
        self._current_latency: Optional[float] = None
        self._last_send_at = float("-inf")
        self.packets_sent = 0
        self.bytes_sent = 0
        #: Extra one-way delay injected by an active latency-spike
        #: fault; 0 in steady state.
        self.latency_extra_ms = 0.0
        self._burst: Optional[tuple] = None
        self._burst_bad = False
        self._burst_rng: Optional[random.Random] = None

    # -- fault hooks ---------------------------------------------------

    def set_burst_loss(self, p_enter: float, p_exit: float,
                       loss_good: float = 0.0, loss_bad: float = 1.0,
                       rng: Optional[random.Random] = None) -> None:
        """Enable Gilbert-Elliott burst loss: a two-state chain stepped
        once per packet.  In the *good* state packets drop with
        ``loss_good``, in the *bad* state with ``loss_bad``; the chain
        enters bad with ``p_enter`` and leaves with ``p_exit``."""
        for label, p in (("p_enter", p_enter), ("p_exit", p_exit),
                         ("loss_good", loss_good),
                         ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError("%s must be in [0, 1]" % label)
        self._burst = (p_enter, p_exit, loss_good, loss_bad)
        self._burst_bad = False
        self._burst_rng = rng or random.Random(0)

    def clear_burst_loss(self) -> None:
        self._burst = None
        self._burst_bad = False
        self._burst_rng = None

    def set_latency_spike(self, extra_ms: float) -> None:
        self.latency_extra_ms = max(0.0, extra_ms)
        self.obs.set_gauge("link.latency_extra_ms",
                           self.latency_extra_ms)

    def clear_latency_spike(self) -> None:
        self.set_latency_spike(0.0)

    # -- transmission --------------------------------------------------

    def transmission_ms(self, size_bytes: int) -> float:
        if self.bandwidth_mbps <= 0:
            return 0.0
        return (size_bytes * 8) / (self.bandwidth_mbps * 1000.0)

    def _lost(self) -> bool:
        if self._burst is not None:
            p_enter, p_exit, loss_good, loss_bad = self._burst
            r = self._burst_rng
            if self._burst_bad:
                if r.random() < p_exit:
                    self._burst_bad = False
            elif r.random() < p_enter:
                self._burst_bad = True
            loss = loss_bad if self._burst_bad else loss_good
            if loss and r.random() < loss:
                self.obs.inc("link.burst_drops")
                return True
        if self.loss_rate and self.rng.random() < self.loss_rate:
            return True
        return False

    def send(self, payload: object, size_bytes: int,
             deliver: Callable[[object], None]) -> None:
        """Queue ``payload`` for transmission; ``deliver`` is called at
        the (virtual) arrival instant unless the packet is lost."""
        self.packets_sent += 1
        if self._lost():
            self.obs.inc("link.packets_dropped")
            return
        start = max(self.sim.now, self._channel_free_at)
        tx = self.transmission_ms(size_bytes)
        self._channel_free_at = start + tx
        self.bytes_sent += size_bytes
        if self._current_latency is None or \
                self.sim.now - self._last_send_at \
                > self.LATENCY_COHERENCE_MS:
            self._current_latency = self.latency.sample()
        self._last_send_at = self.sim.now
        arrival = start + tx + self._current_latency \
            + self.latency_extra_ms
        # The path is FIFO: jitter never reorders packets in flight.
        arrival = max(arrival, self._last_arrival)
        self._last_arrival = arrival
        event = self.sim.timeout(arrival - self.sim.now)
        event.callbacks.append(lambda _evt: deliver(payload))


class AccessLink:
    """A device's attachment to the network: an uplink + a downlink,
    tagged with technology type and operator for the dataset."""

    def __init__(self, sim: Simulator,
                 up_latency: Optional[Distribution] = None,
                 down_latency: Optional[Distribution] = None,
                 up_bandwidth_mbps: float = 0.0,
                 down_bandwidth_mbps: float = 0.0,
                 loss_rate: float = 0.0,
                 network_type: str = NetworkType.WIFI,
                 operator: str = "unknown",
                 rng: Optional[random.Random] = None):
        rng = rng or random.Random(0)
        self.sim = sim
        self.network_type = network_type
        self.operator = operator
        self.up = LinkDirection(sim, up_latency or Constant(1.0),
                                up_bandwidth_mbps, loss_rate, rng, "up")
        self.down = LinkDirection(sim, down_latency or Constant(1.0),
                                  down_bandwidth_mbps, loss_rate, rng,
                                  "down")

    # -- fault hooks (applied to both directions) ----------------------

    def set_burst_loss(self, p_enter: float, p_exit: float,
                       loss_good: float = 0.0, loss_bad: float = 1.0,
                       up_rng: Optional[random.Random] = None,
                       down_rng: Optional[random.Random] = None) -> None:
        self.up.set_burst_loss(p_enter, p_exit, loss_good, loss_bad,
                               rng=up_rng)
        self.down.set_burst_loss(p_enter, p_exit, loss_good, loss_bad,
                                 rng=down_rng)

    def clear_burst_loss(self) -> None:
        self.up.clear_burst_loss()
        self.down.clear_burst_loss()

    def set_latency_spike(self, extra_ms: float) -> None:
        """Adds ``extra_ms`` one-way delay to *each* direction (an RTT
        gains twice this)."""
        self.up.set_latency_spike(extra_ms)
        self.down.set_latency_spike(extra_ms)

    def clear_latency_spike(self) -> None:
        self.up.clear_latency_spike()
        self.down.clear_latency_spike()

    def __repr__(self) -> str:
        return "<AccessLink %s %s up=%.1fMbps down=%.1fMbps>" % (
            self.network_type, self.operator,
            self.up.bandwidth_mbps, self.down.bandwidth_mbps)
