"""Device/user population matching the paper's coverage figures.

* 2,351 measuring devices from 114 countries (Figure 7's top-20 counts
  are reproduced exactly; the remaining users spread over a tail of
  94 countries).
* 922 distinct phone models across major manufacturers.
* Per-device activity follows a heavy-tailed law calibrated to
  Figure 6(a)'s buckets (104 devices above 10 K measurements, 575 in
  100-1 K, the rest below 100).
* Each device measures from a handful of geographic locations inside
  its country's bounding box (Figure 8: 6,987 distinct locations).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.crowd.isps import IspProfile, isps_for_country, wifi_profile_for

# Figure 7: top-20 user countries with exact counts.
COUNTRY_USERS: List[Tuple[str, int]] = [
    ("USA", 790), ("UK", 116), ("India", 70), ("Italy", 68),
    ("Malaysia", 43), ("Brazil", 41), ("Indonesia", 37),
    ("Germany", 31), ("Canada", 26), ("Mexico", 25),
    ("Philippines", 23), ("Australia", 22), ("HK (China)", 20),
    ("France", 19), ("Russia", 19), ("Thailand", 18), ("Greece", 16),
    ("Spain", 13), ("Poland", 13), ("Singapore", 13),
]

N_COUNTRIES = 114
N_DEVICES = 2351
N_PHONE_MODELS = 922

# Rough bounding boxes (lat_min, lat_max, lon_min, lon_max) for the
# Figure 8 scatter; tail countries get boxes scattered worldwide.
_COUNTRY_BOXES: Dict[str, Tuple[float, float, float, float]] = {
    "USA": (25, 48, -124, -67), "UK": (50, 58, -6, 2),
    "India": (8, 32, 69, 89), "Italy": (37, 46, 7, 18),
    "Malaysia": (1, 7, 100, 119), "Brazil": (-30, 0, -60, -35),
    "Indonesia": (-9, 5, 95, 140), "Germany": (47, 55, 6, 15),
    "Canada": (43, 56, -123, -60), "Mexico": (15, 32, -115, -87),
    "Philippines": (5, 19, 117, 126), "Australia": (-38, -12, 115, 153),
    "HK (China)": (22.1, 22.5, 113.8, 114.4), "France": (43, 51, -4, 8),
    "Russia": (43, 60, 30, 135), "Thailand": (6, 20, 98, 105),
    "Greece": (35, 41, 20, 28), "Spain": (36, 43, -9, 3),
    "Poland": (49, 55, 14, 24), "Singapore": (1.2, 1.5, 103.6, 104.0),
}

_MANUFACTURERS = ["Samsung", "HTC", "LG", "Motorola", "Huawei",
                  "XiaoMi", "Sony", "OnePlus", "Asus", "Lenovo"]

# Table 6's per-ISP sample counts cannot come from user counts alone:
# Singtel collected 34.6 K DNS samples from just 13 Singapore users, so
# some countries' users measured far more (and more on cellular) than
# average.  These factors reproduce Table 6's ranking.
_ACTIVITY_BOOST: Dict[str, float] = {
    "Singapore": 4.5, "HK (China)": 4.0, "Malaysia": 2.5,
    "India": 3.0, "USA": 1.2,
}
_WIFI_SHARE_MEAN: Dict[str, float] = {
    "Singapore": 0.35, "HK (China)": 0.45, "India": 0.45,
    "Malaysia": 0.5,
}


@dataclass
class CrowdDevice:
    device_id: str
    model: str
    country: str
    cellular_isp: IspProfile
    wifi: IspProfile
    activity: int                 # target measurement count (full scale)
    wifi_share: float             # fraction of samples taken on WiFi
    lte_share_of_cellular: float  # 4G share among cellular samples
    locations: List[Tuple[float, float]]


class Population:
    def __init__(self, seed: int = 42, n_devices: int = N_DEVICES):
        self.rng = random.Random(seed)
        self.n_devices = n_devices
        self.models = self._make_models()
        self.countries = self._make_country_assignment()
        self.devices: List[CrowdDevice] = []
        self._build_devices()

    # -- construction helpers ------------------------------------------------
    def _make_models(self) -> List[str]:
        models = []
        for i in range(N_PHONE_MODELS):
            manufacturer = _MANUFACTURERS[i % len(_MANUFACTURERS)]
            models.append("%s-%s%03d" % (manufacturer,
                                         manufacturer[:2].upper(), i))
        return models

    def _make_country_assignment(self) -> List[str]:
        """Per-device country list: top-20 exact, tail spread."""
        scale = self.n_devices / N_DEVICES
        assignment: List[str] = []
        for country, count in COUNTRY_USERS:
            assignment.extend([country] * max(1, round(count * scale)))
        tail_countries = ["country-%03d" % i
                          for i in range(N_COUNTRIES
                                         - len(COUNTRY_USERS))]
        i = 0
        while len(assignment) < self.n_devices:
            assignment.append(tail_countries[i % len(tail_countries)])
            i += 1
        self.rng.shuffle(assignment)
        return assignment[:self.n_devices]

    def _activity_count(self, country: str) -> int:
        """Heavy-tailed per-device measurement count (Figure 6(a))."""
        boost = _ACTIVITY_BOOST.get(country, 1.0)
        value = self.rng.lognormvariate(math.log(140.0 * boost), 2.5)
        return max(1, min(int(value), 120000))

    def _locations_for(self, country: str,
                       n: int) -> List[Tuple[float, float]]:
        box = _COUNTRY_BOXES.get(country)
        if box is None:
            # Tail countries: a deterministic pseudo-box anywhere
            # populated (-40..60 lat).  CRC-32, not hash():
            # PYTHONHASHSEED randomizes the latter across processes.
            h = zlib.crc32(country.encode("utf-8")) & 0xFFFF
            lat = -40 + (h % 100)
            lon = -180 + ((h >> 4) % 360)
            box = (lat, min(lat + 4, 60), lon, min(lon + 6, 180))
        lat_min, lat_max, lon_min, lon_max = box
        return [(self.rng.uniform(lat_min, lat_max),
                 self.rng.uniform(lon_min, lon_max)) for _ in range(n)]

    def _isp_allocator(self):
        """Deterministic largest-remainder ISP allocation per country,
        so every Table 6 operator is represented even in small-user
        countries (CSL has only a few of Hong Kong's 20 users)."""
        assigned: Dict[str, List[IspProfile]] = {}
        from collections import Counter
        country_totals = Counter(self.countries)
        for country, total in country_totals.items():
            isps = isps_for_country(country)
            weights = [isp.weight for isp in isps]
            weight_sum = sum(weights)
            quotas = [max(1, round(total * w / weight_sum))
                      for w in weights]
            plan: List[IspProfile] = []
            for isp, quota in zip(isps, quotas):
                plan.extend([isp] * quota)
            while len(plan) < total:
                plan.append(isps[0])
            self.rng.shuffle(plan)
            assigned[country] = plan[:total]
        return assigned

    def _build_devices(self) -> None:
        isp_plan = self._isp_allocator()
        cursors: Dict[str, int] = {}
        for index, country in enumerate(self.countries):
            cursor = cursors.get(country, 0)
            cursors[country] = cursor + 1
            cellular = isp_plan[country][cursor]
            activity = self._activity_count(country)
            n_locations = 1 + min(4, int(math.log10(activity + 1)))
            wifi_mean = _WIFI_SHARE_MEAN.get(country, 0.62)
            self.devices.append(CrowdDevice(
                device_id="device-%05d" % index,
                model=self.rng.choice(self.models),
                country=country,
                cellular_isp=cellular,
                wifi=wifi_profile_for(country),
                activity=activity,
                wifi_share=min(0.95, max(0.05,
                                         self.rng.gauss(wifi_mean,
                                                        0.18))),
                # Named LTE operators are nearly all-4G (their Table 6
                # medians match pure-LTE behaviour); generic tail
                # operators carry the dataset's 3G/2G mass.
                lte_share_of_cellular=(
                    min(1.0, max(0.8, self.rng.gauss(0.97, 0.03)))
                    if not cellular.name.startswith("lte-")
                    else min(1.0, max(0.3, self.rng.gauss(0.72,
                                                          0.10)))),
                locations=self._locations_for(country, n_locations)))
