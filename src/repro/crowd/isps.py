"""ISP catalog calibrated to the paper's Table 6 and Figures 10-11.

Each :class:`IspProfile` models one operator's network:

* ``dns`` -- the first-hop + resolver RTT distribution (what MopEye's
  DNS measurement sees).  Medians follow Table 6; the shapes follow
  Figure 11 (Singtel's sub-10 ms mass, Cricket's ~43 ms floor and large
  non-LTE share).
* ``access`` -- the radio access RTT component of app traffic.
* ``core_penalty_ms`` -- extra latency the operator's core network adds
  to *app* traffic but not to its local DNS (Jio's pathology in Case 2:
  app median 281 ms while DNS median is 59 ms).
* ``lte_share`` -- fraction of samples on real LTE vs. the operator's
  legacy network (Cricket 36 %, U.S. Cellular 55 % per §4.2.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.link import NetworkType
from repro.sim.distributions import (
    Distribution,
    LogNormal,
    Shifted,
)


@dataclass
class IspProfile:
    name: str
    country: str
    network_type: str = NetworkType.LTE
    dns_median_ms: float = 50.0
    dns_sigma: float = 0.55
    dns_floor_ms: float = 0.0
    access_median_ms: float = 38.0
    access_sigma: float = 0.45
    core_penalty_ms: float = 0.0
    lte_share: float = 1.0
    legacy_dns_median_ms: float = 110.0
    # Relative share of dataset samples (Table 6 "# RTT" column).
    weight: float = 1.0

    def lte_dns_distribution(self, rng: random.Random) -> Distribution:
        """DNS RTT on this operator's LTE; ``dns_median_ms`` is the
        distribution's total median (floor included)."""
        return LogNormal(max(1.0, self.dns_median_ms
                             - self.dns_floor_ms),
                         self.dns_sigma,
                         shift=self.dns_floor_ms).bind(rng)

    def legacy_dns_distribution(self, rng: random.Random) -> Distribution:
        """DNS RTT on this operator's pre-4G (3G-class) network."""
        return LogNormal(max(1.0, self.legacy_dns_median_ms
                             - self.dns_floor_ms),
                         0.55, shift=self.dns_floor_ms).bind(rng)

    def access_distribution(self, rng: random.Random) -> Distribution:
        base = LogNormal(self.access_median_ms, self.access_sigma)
        if self.core_penalty_ms > 0:
            return Shifted(base, self.core_penalty_ms).bind(rng)
        return base.bind(rng)


# Table 6: 15 LTE operators (median DNS RTT as reported).  Weights are
# the table's sample counts in thousands.  Fig 11 shapes: Singtel gets a
# small sigma + no floor (14.7 % of RTTs below 10 ms); Cricket and U.S.
# Cellular get a ~43 ms floor and large non-LTE shares.
CELLULAR_ISPS: List[IspProfile] = [
    IspProfile("Verizon", "USA", dns_median_ms=46, dns_sigma=0.50,
               dns_floor_ms=6, access_median_ms=38, weight=80.2),
    IspProfile("Jio 4G", "India", dns_median_ms=59, dns_sigma=0.50,
               dns_floor_ms=8, access_median_ms=48,
               core_penalty_ms=225.0, weight=52.4),
    IspProfile("AT&T", "USA", dns_median_ms=53, dns_sigma=0.50,
               dns_floor_ms=7, access_median_ms=40, weight=51.4),
    IspProfile("Singtel", "Singapore", dns_median_ms=27, dns_sigma=0.75,
               dns_floor_ms=0, access_median_ms=24, weight=34.6),
    IspProfile("Boost Mobile", "USA", dns_median_ms=50, dns_sigma=0.50,
               dns_floor_ms=7, access_median_ms=40, weight=21.9),
    IspProfile("Sprint", "USA", dns_median_ms=51, dns_sigma=0.50,
               dns_floor_ms=7, access_median_ms=41, weight=20.9),
    IspProfile("3", "HK (China)", dns_median_ms=53, dns_sigma=0.48,
               dns_floor_ms=8, access_median_ms=40, weight=14.4),
    IspProfile("MetroPCS", "USA", dns_median_ms=60, dns_sigma=0.50,
               dns_floor_ms=8, access_median_ms=45, weight=13.3),
    IspProfile("T-Mobile", "USA", dns_median_ms=45, dns_sigma=0.50,
               dns_floor_ms=6, access_median_ms=37, weight=9.1),
    IspProfile("CMHK", "HK (China)", dns_median_ms=50, dns_sigma=0.48,
               dns_floor_ms=7, access_median_ms=39, weight=5.8),
    IspProfile("Celcom", "Malaysia", dns_median_ms=56, dns_sigma=0.50,
               dns_floor_ms=8, access_median_ms=44, weight=4.1),
    IspProfile("CSL", "HK (China)", dns_median_ms=61, dns_sigma=0.48,
               dns_floor_ms=8, access_median_ms=46, weight=3.1),
    IspProfile("Cricket", "USA", dns_median_ms=88, dns_sigma=0.42,
               dns_floor_ms=43, access_median_ms=60,
               lte_share=0.36, legacy_dns_median_ms=100, weight=2.8),
    IspProfile("Maxis", "Malaysia", dns_median_ms=40, dns_sigma=0.50,
               dns_floor_ms=6, access_median_ms=34, weight=2.4),
    IspProfile("U.S. Cellular", "USA", dns_median_ms=70, dns_sigma=0.42,
               dns_floor_ms=43, access_median_ms=55,
               lte_share=0.55, legacy_dns_median_ms=95, weight=2.0),
]

# 3G / 2G legacy operators backing Figure 10(b)'s technology split.
LEGACY_3G = IspProfile("generic-3G", "various",
                       network_type=NetworkType.UMTS,
                       dns_median_ms=105, dns_sigma=0.55,
                       access_median_ms=95, weight=1.0)
LEGACY_2G = IspProfile("generic-2G", "various",
                       network_type=NetworkType.GPRS,
                       dns_median_ms=755, dns_sigma=0.45,
                       access_median_ms=700, weight=1.0)

# WiFi: the dataset's WiFi DNS median is 33 ms, app-RTT median 58 ms.
WIFI_PROFILE_BY_COUNTRY: Dict[str, IspProfile] = {}


def wifi_profile_for(country: str) -> IspProfile:
    if country not in WIFI_PROFILE_BY_COUNTRY:
        WIFI_PROFILE_BY_COUNTRY[country] = IspProfile(
            "wifi-%s" % country.lower().replace(" ", "-"), country,
            network_type=NetworkType.WIFI,
            dns_median_ms=33, dns_sigma=0.65, dns_floor_ms=1,
            access_median_ms=22, access_sigma=0.55)
    return WIFI_PROFILE_BY_COUNTRY[country]


def isp_by_name(name: str) -> Optional[IspProfile]:
    for isp in CELLULAR_ISPS + [LEGACY_3G, LEGACY_2G]:
        if isp.name == name:
            return isp
    return None


def isps_for_country(country: str) -> List[IspProfile]:
    matches = [isp for isp in CELLULAR_ISPS if isp.country == country]
    if matches:
        return matches
    # Countries outside the named 15 get a generic LTE operator.
    return [IspProfile("lte-%s" % country.lower().replace(" ", "-"),
                       country, dns_median_ms=52, dns_sigma=0.52,
                       dns_floor_ms=7, access_median_ms=42)]
