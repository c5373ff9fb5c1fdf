"""Cellular RRC (Radio Resource Control) state machine.

The paper's related work ([41] Qian et al., [28] Huang et al., [44]
Rosen et al.) establishes that a large share of cellular RTT variance
comes from RRC state dynamics: a radio idling in a low-power state must
be *promoted* to a dedicated/connected state before the first packet
can flow, adding hundreds of milliseconds; after a burst the radio
lingers in a high-power *tail* before demoting.

This module models the machine for 3G-style (IDLE / FACH / DCH) and
LTE-style (RRC_IDLE / RRC_CONNECTED with DRX) radios.  An
:class:`RrcAwareLink` wraps an :class:`~repro.network.link.AccessLink`
so that packets sent after an idle period pay the promotion delay --
which is exactly the first-packet latency inflation MopEye's SYN-based
RTTs observe in the wild, and one reason cellular medians sit above
WiFi's in Figure 9(a).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.network.link import AccessLink
from repro.sim.distributions import Distribution, Normal
from repro.sim.kernel import Simulator


class RrcState:
    IDLE = "IDLE"            # no radio resources; promotion needed
    LOW = "LOW"              # FACH (3G) / connected-DRX (LTE)
    HIGH = "HIGH"            # DCH (3G) / RRC_CONNECTED active (LTE)


@dataclass
class RrcProfile:
    """Promotion delays and inactivity (tail) timers, milliseconds."""

    name: str
    idle_to_high_ms: Distribution    # full promotion
    low_to_high_ms: Distribution     # partial promotion
    high_tail_ms: float              # HIGH -> LOW inactivity timer
    low_tail_ms: float               # LOW -> IDLE inactivity timer

    @classmethod
    def lte(cls, rng: Optional[random.Random] = None) -> "RrcProfile":
        """LTE: fast promotions (~260 ms idle->connected per Huang et
        al.), ~10 s + ~1 s tail timers."""
        rng = rng or random.Random(0)
        return cls(
            name="LTE",
            idle_to_high_ms=Normal(260.0, 40.0, floor=80.0).bind(rng),
            low_to_high_ms=Normal(40.0, 15.0, floor=5.0).bind(rng),
            high_tail_ms=10_000.0,
            low_tail_ms=1_000.0)

    @classmethod
    def umts(cls, rng: Optional[random.Random] = None) -> "RrcProfile":
        """3G UMTS: ~2 s IDLE->DCH, ~1.5 s FACH->DCH promotions, 5 s /
        12 s inactivity timers (Qian et al.)."""
        rng = rng or random.Random(0)
        return cls(
            name="UMTS",
            idle_to_high_ms=Normal(2000.0, 300.0,
                                   floor=800.0).bind(rng),
            low_to_high_ms=Normal(1500.0, 250.0,
                                  floor=500.0).bind(rng),
            high_tail_ms=5_000.0,
            low_tail_ms=12_000.0)


#: State -> dwell-time metric (docs/OBSERVABILITY.md).
_DWELL_METRIC = {
    RrcState.IDLE: "rrc.dwell_idle_ms",
    RrcState.LOW: "rrc.dwell_low_ms",
    RrcState.HIGH: "rrc.dwell_high_ms",
}


class RrcMachine:
    """Tracks the radio state from observed send instants.

    Besides the promotion counters, the machine accounts *dwell time*
    per state and the share of powered dwell that was pure tail
    (lingering after the last activity) -- the quantities the per-app
    energy modality joins against.  Dwell is attributed at the instant
    a demotion is *judged* (timers are lazy), but credited at the sim
    time the inactivity timer actually expired, so accounting is
    independent of how often callers poll.
    """

    def __init__(self, sim: Simulator, profile: RrcProfile,
                 obs=None):
        self.sim = sim
        self.profile = profile
        self.obs = obs
        self.state = RrcState.IDLE
        self._busy_until = 0.0   # promotion in progress until here
        self._last_activity = 0.0
        self._state_since = 0.0  # when the current state was entered
        self.promotions_full = 0
        self.promotions_partial = 0
        self.dwell = {RrcState.IDLE: 0.0, RrcState.LOW: 0.0,
                      RrcState.HIGH: 0.0}
        self.tail_ms = 0.0

    def _enter(self, state: str, at: float) -> None:
        elapsed = max(0.0, at - self._state_since)
        self.dwell[self.state] += elapsed
        if self.obs is not None and elapsed > 0:
            self.obs.inc(_DWELL_METRIC[self.state], elapsed)
        self.state = state
        self._state_since = max(at, self._state_since)

    def _credit_tail(self, ms: float) -> None:
        self.tail_ms += ms
        if self.obs is not None and ms > 0:
            self.obs.inc("rrc.tail_ms", ms)

    def _apply_timers(self) -> None:
        """Demote according to inactivity before judging a new send."""
        idle_for = self.sim.now - self._last_activity
        if self.state == RrcState.HIGH:
            if idle_for > self.profile.high_tail_ms:
                demoted_at = self._last_activity \
                    + self.profile.high_tail_ms
                self._credit_tail(self.profile.high_tail_ms)
                self._enter(RrcState.LOW, demoted_at)
                if idle_for > self.profile.high_tail_ms + \
                        self.profile.low_tail_ms:
                    self._credit_tail(self.profile.low_tail_ms)
                    self._enter(RrcState.IDLE,
                                demoted_at + self.profile.low_tail_ms)
        elif self.state == RrcState.LOW:
            if idle_for > self.profile.low_tail_ms:
                self._credit_tail(self.profile.low_tail_ms)
                self._enter(RrcState.IDLE,
                            self._last_activity
                            + self.profile.low_tail_ms)

    def send_delay_ms(self) -> float:
        """Extra delay the radio imposes on a packet sent now; also
        advances the machine (promotion + activity timestamps)."""
        self._apply_timers()
        now = self.sim.now
        if self.state == RrcState.IDLE:
            delay = self.profile.idle_to_high_ms.sample()
            self.promotions_full += 1
            self._enter(RrcState.HIGH, now)
            self._busy_until = now + delay
        elif self.state == RrcState.LOW:
            delay = self.profile.low_to_high_ms.sample()
            self.promotions_partial += 1
            self._enter(RrcState.HIGH, now)
            self._busy_until = now + delay
        else:
            # Already HIGH: packets queued behind an in-flight
            # promotion still wait for it.
            delay = max(0.0, self._busy_until - now)
        self._last_activity = max(now + delay, self._last_activity)
        return delay

    @property
    def current_state(self) -> str:
        self._apply_timers()
        return self.state


class RrcAwareLink:
    """Wraps an AccessLink so uplink sends pay RRC promotion delays.

    Drop-in for the `link` argument of :class:`AndroidDevice`: exposes
    ``up``/``down``/``network_type``/``operator`` like AccessLink, but
    ``up.send`` defers packets by the radio's promotion delay first.
    """

    def __init__(self, link: AccessLink, profile: RrcProfile,
                 obs=None):
        self.link = link
        self.machine = RrcMachine(link.sim, profile, obs=obs)
        self.down = link.down
        self.network_type = link.network_type
        self.operator = link.operator
        self.up = _RrcUplink(self)

    @property
    def sim(self):
        return self.link.sim


class _RrcUplink:
    def __init__(self, owner: RrcAwareLink):
        self._owner = owner

    def __getattr__(self, name):
        return getattr(self._owner.link.up, name)

    def send(self, payload, size_bytes: int,
             deliver: Callable[[object], None]) -> None:
        owner = self._owner
        delay = owner.machine.send_delay_ms()
        if delay <= 0:
            owner.link.up.send(payload, size_bytes, deliver)
            return
        timer = owner.sim.timeout(delay)
        timer.callbacks.append(
            lambda _evt: owner.link.up.send(payload, size_bytes,
                                            deliver))
