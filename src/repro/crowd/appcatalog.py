"""App catalog calibrated to Table 5 and the Whatsapp case study.

An app's measured RTT decomposes as ``access + path``: the access
component comes from the device's current network (ISP profile), the
path component from where the app's servers sit.  Table 5's medians are
reproduced by giving each app's domains a hosting profile: Google and
Netflix terminate on edge CDNs a few ms past the access network, while
Whatsapp's 331 chat domains sit in SoftLayer data centres ~225 ms away
(Case 1), with only the mme/mmg/pps media domains on the Facebook CDN.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from repro.sim.distributions import LogNormal


def _cumulative(weights) -> Tuple[List[float], float]:
    """What ``random.choices`` builds from ``weights`` on every call,
    built once: one ``bisect(cum, rng.random() * total, 0, n - 1)`` is
    then ``rng.choices(population, weights, k=1)[0]`` draw for draw --
    on every Python version, whatever ``choices`` becomes."""
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    if not 0.0 < total < math.inf:
        raise ValueError("total of weights must be positive and finite")
    return cum_weights, total


@dataclass
class DomainProfile:
    """One server domain an app talks to."""

    domain: str
    path_median_ms: float
    path_sigma: float = 0.45
    weight: float = 1.0
    hosting: str = "generic"

    def __post_init__(self):
        if self.path_median_ms <= 0 or self.path_sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")
        #: ``rng.lognormvariate(path_mu, path_sigma)`` is the path draw.
        self.path_mu = math.log(self.path_median_ms)


@dataclass
class AppProfile:
    package: str
    name: str
    category: str
    domains: List[DomainProfile]
    weight: float  # share of dataset TCP measurements

    def __post_init__(self):
        self._cum_weights, self._total = _cumulative(
            d.weight for d in self.domains)
        self._hi = len(self.domains) - 1

    def sample_domain(self, rng: random.Random) -> DomainProfile:
        return self.domains[bisect(
            self._cum_weights, rng.random() * self._total, 0, self._hi)]


def _single(package, name, category, domain, path, weight,
            sigma=0.45, hosting="generic"):
    return AppProfile(package, name, category,
                      [DomainProfile(domain, path, sigma,
                                     hosting=hosting)], weight)


def _whatsapp_profile() -> AppProfile:
    """334 whatsapp.net domains: 3 on the Facebook CDN (media), 331 on
    SoftLayer (chat).  Media transfers dominate connection counts just
    enough to pull the app's overall median down to ~133 ms."""
    domains = [
        DomainProfile("mme.whatsapp.net", 32.0, weight=170.0,
                      hosting="facebook-cdn"),
        DomainProfile("mmg.whatsapp.net", 30.0, weight=160.0,
                      hosting="facebook-cdn"),
        DomainProfile("pps.whatsapp.net", 34.0, weight=100.0,
                      hosting="facebook-cdn"),
    ]
    for i in range(1, 332):
        domains.append(DomainProfile("e%d.whatsapp.net" % i,
                                     210.0, 0.35, weight=1.0,
                                     hosting="softlayer"))
    return AppProfile("com.whatsapp", "Whatsapp", "Communication",
                      domains, weight=32.4)


# Table 5's 16 representative apps.  Path medians are calibrated so
# that access(median ~28 ms across the population) + path reproduces
# the reported app medians; weights are the table's measurement counts
# in thousands.
def representative_apps() -> List[AppProfile]:
    return [
        AppProfile("com.facebook.katana", "Facebook", "Social", [
            DomainProfile("graph.facebook.com", 24.0, weight=40.0,
                          hosting="facebook-cdn"),
            DomainProfile("edge-mqtt.facebook.com", 28.0, weight=20.0,
                          hosting="facebook-cdn"),
            DomainProfile("scontent.xx.fbcdn.net", 26.0, weight=25.0,
                          hosting="facebook-cdn"),
        ], weight=215.8),
        _single("com.instagram.android", "Instagram", "Social",
                "i.instagram.com", 16.0, 38.6, hosting="facebook-cdn"),
        _single("com.sina.weibo", "Weibo", "Social",
                "api.weibo.cn", 10.0, 28.9),
        _single("com.twitter.android", "Twitter", "Social",
                "api.twitter.com", 21.0, 11.4),
        _single("com.tencent.mm", "WeChat", "Social",
                "szshort.weixin.qq.com", 5.0, 61.8),
        _single("com.facebook.orca", "Facebook Messenger",
                "Communication", "edge-chat.facebook.com", 10.0, 42.4,
                hosting="facebook-cdn"),
        _whatsapp_profile(),
        _single("com.skype.raider", "Skype", "Communication",
                "api.skype.com", 39.0, 16.3),
        _single("com.android.vending", "Google Play Store", "Google",
                "play.googleapis.com", 14.0, 100.1, hosting="google"),
        _single("com.google.android.gms", "Google Play services",
                "Google", "www.googleapis.com", 6.0, 60.8,
                hosting="google"),
        _single("com.google.android.googlequicksearchbox",
                "Google Search", "Google", "www.google.com", 12.0,
                35.9, hosting="google"),
        _single("com.google.android.apps.maps", "Google Map", "Google",
                "maps.googleapis.com", 6.5, 20.0, hosting="google"),
        _single("com.google.android.youtube", "YouTube", "Video",
                "youtubei.googleapis.com", 3.0, 99.9, hosting="google"),
        _single("com.netflix.mediaclient", "Netflix", "Video",
                "api-global.netflix.com", 3.5, 28.3,
                hosting="netflix-cdn"),
        _single("com.amazon.mShop.android.shopping", "Amazon",
                "Shopping", "www.amazon.com", 24.0, 18.3),
        _single("com.ebay.mobile", "Ebay", "Shopping",
                "api.ebay.com", 34.0, 16.1),
    ]


class AppCatalog:
    """All measured apps: 16 representative + a long tail (6,266 apps
    measured in total; 424 with >1K measurements).

    Cumulative weights are precomputed so per-record app sampling is
    O(log n) over the 6,266-app catalog.
    """

    def __init__(self, apps: Sequence[AppProfile]):
        self.apps = list(apps)
        self._cum_weights, self._total = _cumulative(
            a.weight for a in self.apps)
        self._hi = len(self.apps) - 1
        self._by_package = {a.package: a for a in self.apps}

    def __len__(self) -> int:
        return len(self.apps)

    def by_package(self, package: str) -> Optional[AppProfile]:
        return self._by_package.get(package)

    def sample_app(self, rng: random.Random) -> AppProfile:
        return self.apps[bisect(
            self._cum_weights, rng.random() * self._total, 0, self._hi)]


def build_catalog(n_longtail: int = 6250,
                  seed: int = 2016) -> AppCatalog:
    """The 16 representative apps plus ``n_longtail`` synthetic apps.

    Long-tail weights follow a Zipf law (matching Figure 6(b)'s shape),
    and path medians are drawn log-normally so that ~10 % of apps end
    up with overall medians above 200 ms (Figure 9(b))."""
    rng = random.Random(seed)
    apps = representative_apps()
    path_dist = LogNormal(26.0, 1.40).bind(rng)
    for i in range(n_longtail):
        # Per-app measurement counts in the wild follow a heavy-tailed
        # log-normal (calibrated to Figure 6(b)'s buckets: ~60 apps
        # above 10 K full-scale measurements, ~1.1 K in 100-1 K), and
        # the long tail carries ~75 % of TCP samples (Table 5's 16
        # apps sum to ~830 K of 3.58 M).  Weights are in thousands of
        # full-scale measurements, like the representative apps'.
        weight = min(math.exp(rng.gauss(math.log(0.0115), 2.79)),
                     250.0)
        path = min(path_dist.sample(), 900.0)
        apps.append(_single(
            "app.longtail.a%04d" % i, "LongTail %d" % i, "Other",
            "api.longtail%d.example" % i, max(1.0, path), weight,
            sigma=0.5))
    return AppCatalog(apps)
