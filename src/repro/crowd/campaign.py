"""The synthetic crowdsourcing campaign driver.

Generates a :class:`~repro.core.records.MeasurementStore` with the
paper dataset's structure: per-device heavy-tailed activity, WiFi vs
cellular context switching, per-ISP DNS behaviour, per-app/per-domain
path latencies, and a 68/32 TCP/DNS split (3,576,931 TCP + 1,675,827
DNS = 5,252,758 records at full scale).

``scale`` linearly scales every device's measurement count so the whole
pipeline stays fast; population structure (devices, apps, countries) is
never scaled.

Determinism contract: every device's record stream is a pure function
of ``(config.seed, device_id)``.  Each device gets its own
:class:`random.Random` seeded from a string key (string seeding hashes
through SHA-512, so it is stable across processes and immune to
``PYTHONHASHSEED``), and destination IPs are derived from a CRC-32 of
the domain rather than Python's randomized ``hash()``.  Any partition
of the device list therefore yields byte-identical records no matter
how many workers generate it -- the property
:class:`~repro.crowd.sharding.ShardedCampaign` builds on.

The dataset is the regression test of any change here: the generator
may be made cheaper, but every ``random.Random`` stream must yield the
same draws in the same order, combined by the same float operations in
the same order.  A test shows that of a rewritten draw by running it
and the body it replaced on twin generators seeded alike and requiring
equal results *and* equal ``rng.getstate()`` afterwards.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.core.records import (
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)
from repro.crowd.appcatalog import AppCatalog, build_catalog
from repro.crowd.isps import IspProfile
from repro.crowd.population import CrowdDevice, Population
from repro.network.link import NetworkType
from repro.sim.distributions import Distribution, Exponential, LogNormal

_TCP_FRACTION = 3576931 / 5252758  # from section 4.2.1
_DURATION_MS = 232 * 24 * 3600 * 1000.0  # 16 May 2016 .. 3 Jan 2017


def stable_ip_for_domain(domain: str) -> str:
    """Deterministic pseudo-IP for a domain, stable across processes
    (CRC-32, not ``hash()``, which ``PYTHONHASHSEED`` randomizes)."""
    h = zlib.crc32(domain.encode("utf-8")) & 0xFFFFFFFF
    return "%d.%d.%d.%d" % (1 + (h >> 24) % 223, (h >> 16) & 0xFF,
                            (h >> 8) & 0xFF, h & 0xFF)


def device_stream_rng(seed: int, device_id: str) -> random.Random:
    """The RNG stream for one device.  Seeded from a string so CPython
    routes it through SHA-512 seeding -- identical in every process."""
    return random.Random("campaign:%d:records:%s" % (seed, device_id))


@dataclass
class CampaignConfig:
    scale: float = 0.1
    seed: int = 7
    n_longtail_apps: int = 6250
    # Occasional long-RTT events (congestion, weak signal): the source
    # of Figure 9(a)'s ~10 % of samples above 400 ms.
    tail_prob: float = 0.17
    tail_mean_ms: float = 340.0
    legacy_3g_split: float = 0.8   # of non-LTE cellular, 3G vs 2G
    measurement_noise_ms: float = 0.2  # MopEye's own accuracy (Table 2)


class _DeviceSampler:
    """All randomness for one device: an independent RNG plus
    distribution instances bound to it.  Keeping the caches per device
    (instead of per campaign) is what makes a device's stream
    independent of which other devices ran before it."""

    def __init__(self, campaign: "Campaign", device: CrowdDevice,
                 rng: random.Random):
        self.campaign = campaign
        self.config = campaign.config
        self.catalog = campaign.catalog
        self.device = device
        self.rng = rng
        self._dns_dist_cache: Dict[Tuple[str, str], Distribution] = {}
        self._access_dist_cache: Dict[Tuple[str, str, bool],
                                      Distribution] = {}
        self._tail = Exponential(self.config.tail_mean_ms).bind(rng)

    # -- cached distributions ------------------------------------------------
    def _dns_dist(self, profile: IspProfile, tech: str) -> Distribution:
        key = (profile.name, tech)
        dist = self._dns_dist_cache.get(key)
        if dist is None:
            if tech in (NetworkType.WIFI, NetworkType.LTE):
                dist = profile.lte_dns_distribution(self.rng)
            elif tech == NetworkType.UMTS:
                if profile.lte_share < 1.0:
                    # ISPs with known legacy networks (Cricket, U.S.
                    # Cellular) use their own 3G profile.
                    dist = profile.legacy_dns_distribution(self.rng)
                else:
                    dist = LogNormal(105.0, 0.55,
                                     shift=profile.dns_floor_ms
                                     ).bind(self.rng)
            else:  # GPRS / 2G
                dist = LogNormal(755.0, 0.45,
                                 shift=profile.dns_floor_ms
                                 ).bind(self.rng)
            self._dns_dist_cache[key] = dist
        return dist

    # Hostings with direct operator peering: traffic to these escapes
    # a congested LTE core (the 19 fast domains of Case 2's Jio
    # analysis are in-country CDN deployments).
    _PEERED_HOSTINGS = frozenset(["google", "facebook-cdn",
                                  "netflix-cdn"])

    def _access_dist(self, profile: IspProfile, tech: str,
                     peered: bool = False) -> Distribution:
        key = (profile.name, tech, peered)
        dist = self._access_dist_cache.get(key)
        if dist is None:
            if tech in (NetworkType.WIFI, NetworkType.LTE):
                if peered and profile.core_penalty_ms > 0:
                    # Peered CDN traffic bypasses the core bottleneck.
                    dist = LogNormal(profile.access_median_ms,
                                     profile.access_sigma
                                     ).bind(self.rng)
                else:
                    dist = profile.access_distribution(self.rng)
            elif tech == NetworkType.UMTS:
                dist = LogNormal(95.0, 0.5).bind(self.rng)
            else:
                dist = LogNormal(700.0, 0.45).bind(self.rng)
            self._access_dist_cache[key] = dist
        return dist

    # -- context sampling ---------------------------------------------------------
    def _sample_context(self) -> Tuple[IspProfile, str]:
        """Pick (profile, technology) for one measurement."""
        rng = self.rng
        device = self.device
        if rng.random() < device.wifi_share:
            return device.wifi, NetworkType.WIFI
        isp = device.cellular_isp
        lte_share = device.lte_share_of_cellular * isp.lte_share
        if rng.random() < lte_share:
            return isp, NetworkType.LTE
        if isp.lte_share < 1.0:
            # Mixed-technology ISPs' legacy networks are 3G-class.
            return isp, NetworkType.UMTS
        if rng.random() < self.config.legacy_3g_split:
            return isp, NetworkType.UMTS
        return isp, NetworkType.GPRS

    # -- record generation ------------------------------------------------------------
    def _tcp_record(self, profile: IspProfile, tech: str,
                    timestamp: float) -> MeasurementRecord:
        rng = self.rng
        device = self.device
        # App choice follows the global popularity law, the same for
        # every device (Figure 6(b)'s long tail depends on it).
        app = self.catalog.sample_app(rng)
        domain = app.sample_domain(rng)
        peered = domain.hosting in self._PEERED_HOSTINGS
        rtt = (self._access_dist(profile, tech, peered).sample()
               + rng.lognormvariate(domain.path_mu, domain.path_sigma))
        if rng.random() < self.config.tail_prob:
            rtt += self._tail.sample()
        rtt += rng.uniform(0, self.config.measurement_noise_ms)
        return MeasurementRecord(
            kind=MeasurementKind.TCP, rtt_ms=rtt,
            timestamp_ms=timestamp, app_package=app.package,
            dst_ip=self.campaign._ip_for_domain(domain.domain),
            dst_port=443 if rng.random() < 0.7 else 80,
            domain=domain.domain, network_type=tech,
            operator=profile.name, country=device.country,
            device_id=device.device_id,
            location=rng.choice(device.locations))

    def _dns_record(self, profile: IspProfile, tech: str,
                    timestamp: float) -> MeasurementRecord:
        rng = self.rng
        device = self.device
        rtt = self._dns_dist(profile, tech).sample()
        rtt += rng.uniform(0, self.config.measurement_noise_ms)
        resolver_ip = ("192.168.1.1" if tech == NetworkType.WIFI
                       else self.campaign._ip_for_domain(
                           "dns." + profile.name))
        return MeasurementRecord(
            kind=MeasurementKind.DNS, rtt_ms=rtt,
            timestamp_ms=timestamp, dst_ip=resolver_ip, dst_port=53,
            domain=None, network_type=tech, operator=profile.name,
            country=device.country, device_id=device.device_id,
            location=rng.choice(device.locations))

    def records(self) -> Iterator[MeasurementRecord]:
        rng = self.rng
        count = max(1, round(self.device.activity * self.config.scale))
        for _ in range(count):
            timestamp = rng.uniform(0, _DURATION_MS)
            profile, tech = self._sample_context()
            if rng.random() < _TCP_FRACTION:
                yield self._tcp_record(profile, tech, timestamp)
            else:
                yield self._dns_record(profile, tech, timestamp)


class Campaign:
    def __init__(self, population: Optional[Population] = None,
                 catalog: Optional[AppCatalog] = None,
                 config: Optional[CampaignConfig] = None):
        self.config = config or CampaignConfig()
        self.population = population or Population(
            seed=self.config.seed + 1)
        self.catalog = catalog or build_catalog(
            n_longtail=self.config.n_longtail_apps,
            seed=self.config.seed + 2)
        self._domain_ip_cache: Dict[str, str] = {}

    def _ip_for_domain(self, domain: str) -> str:
        ip = self._domain_ip_cache.get(domain)
        if ip is None:
            ip = stable_ip_for_domain(domain)
            self._domain_ip_cache[domain] = ip
        return ip

    # -- record generation ------------------------------------------------------------
    def device_records(self, device: CrowdDevice
                       ) -> Iterator[MeasurementRecord]:
        """One device's record stream -- a pure function of
        ``(config.seed, device.device_id)``, independent of every other
        device and of which process runs it."""
        rng = device_stream_rng(self.config.seed, device.device_id)
        return _DeviceSampler(self, device, rng).records()

    def iter_records(self) -> Iterator[MeasurementRecord]:
        """Stream the whole dataset in device order without a store."""
        for device in self.population.devices:
            yield from self.device_records(device)

    # -- driver ------------------------------------------------------------------------
    def run(self, store: Optional[MeasurementStore] = None
            ) -> MeasurementStore:
        store = store or MeasurementStore()
        for record in self.iter_records():
            store.add(record)
        return store
