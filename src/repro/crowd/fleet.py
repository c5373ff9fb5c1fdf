"""Mechanical mini-fleet: validate the statistical campaign.

The crowd layer synthesises measurements statistically (DESIGN.md's
substitution for Google Play).  This module closes the loop: it builds
*real* simulated phones -- each with an access link derived from the
same :class:`IspProfile`, real servers placed by the same
:class:`DomainProfile` path models, and a full MopEye relay -- runs app
workloads through the packet-level pipeline, and returns the resulting
measurement store.  A fleet's distributions should match what the
statistical campaign draws for the same profiles; the test suite
asserts that they do.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

from repro.core import MopEyeService
from repro.core.records import MeasurementStore
from repro.crowd.appcatalog import AppCatalog, build_catalog
from repro.crowd.isps import IspProfile
from repro.network import AccessLink, AppServer, DnsServer, DnsZone, Internet
from repro.network.link import NetworkType
from repro.phone import AndroidDevice, App
from repro.sim import Constant, LogNormal, Simulator


@dataclasses.dataclass
class FleetSpec:
    """One mechanical device: its network profile and workload."""

    device_id: str
    isp: IspProfile
    network_type: str = NetworkType.WIFI
    country: str = "unknown"
    connects: int = 30
    apps: int = 4
    seed: int = 0


class FleetRunner:
    """Builds and runs one world per spec, merging the stores."""

    def __init__(self, catalog: Optional[AppCatalog] = None,
                 seed: int = 99):
        self.catalog = catalog or build_catalog(n_longtail=0)
        self.seed = seed

    # -- world building -----------------------------------------------------
    def _link_for(self, sim: Simulator, spec: FleetSpec,
                  rng: random.Random) -> AccessLink:
        """Access link whose RTT distribution matches the profile's
        access component (one-way = access/2)."""
        isp = spec.isp
        # The access link carries only the radio/first-hop latency; a
        # congested core (Jio) sits *behind* the local DNS, so it is
        # modelled on the app servers' paths, not here.
        oneway = LogNormal(max(0.5, isp.access_median_ms / 2.0),
                           isp.access_sigma).bind(rng)
        return AccessLink(sim, up_latency=oneway, down_latency=oneway,
                          network_type=spec.network_type,
                          operator=isp.name, rng=rng)

    def _build_world(self, spec: FleetSpec):
        sim = Simulator()
        internet = Internet(sim)
        rng = random.Random(spec.seed)
        link = self._link_for(sim, spec, rng)
        device = AndroidDevice(sim, internet, link, sdk=23,
                               rng=random.Random(spec.seed + 1))
        device.model = spec.device_id
        # DNS server placed so the measured DNS RTT matches the
        # profile: total = link RTT + dns extra.
        dns_extra = max(0.5, spec.isp.dns_median_ms
                        - spec.isp.access_median_ms)
        zone = DnsZone()
        dns = DnsServer(sim, "8.8.8.8", zone,
                        processing_delay=Constant(0.2),
                        path_oneway=LogNormal(dns_extra / 2.0,
                                              0.3).bind(rng))
        internet.add_server(dns)
        # Servers for a handful of apps' domains, placed per their
        # path model (one-way = path/2).
        apps = self.catalog.apps[:spec.apps]
        endpoints: List[Tuple[object, str]] = []
        next_ip = [0]

        def fresh_ip() -> str:
            next_ip[0] += 1
            return "198.51.%d.%d" % (next_ip[0] // 250 + 1,
                                     next_ip[0] % 250 + 1)

        for app_profile in apps:
            domain = app_profile.domains[0]
            ip = fresh_ip()
            internet.add_server(AppServer(
                sim, [ip], name=domain.domain,
                path_oneway=LogNormal(
                    max(0.25, (domain.path_median_ms
                               + spec.isp.core_penalty_ms) / 2.0),
                    domain.path_sigma).bind(rng),
                accept_delay=Constant(0.05),
                rng=random.Random(spec.seed + 2)))
            zone.add(domain.domain, ip)
            endpoints.append((app_profile, domain.domain))
        return sim, device, endpoints

    # -- running -------------------------------------------------------------
    def run_device(self, spec: FleetSpec) -> MeasurementStore:
        sim, device, endpoints = self._build_world(spec)
        mopeye = MopEyeService(device)
        mopeye.start()
        rng = random.Random(spec.seed + 3)
        apps = {profile.package: App(device, profile.package)
                for profile, _domain in endpoints}

        def workload():
            for _ in range(spec.connects):
                profile, domain = rng.choice(endpoints)
                app = apps[profile.package]
                yield from app.resolve_and_request(
                    domain, 443, b"GET / HTTP/1.1\r\n\r\n")
                yield sim.timeout(rng.uniform(50.0, 400.0))

        process = sim.process(workload())
        sim.run(until=spec.connects * 30_000.0, stop_event=process)
        sim.run(until=sim.now + 5_000.0)
        # Tag records with the fleet identity.
        tagged = MeasurementStore()
        for record in mopeye.store:
            tagged.add(record._replace(
                device_id=spec.device_id, country=spec.country))
        return tagged

    def run(self, specs: List[FleetSpec]) -> MeasurementStore:
        merged = MeasurementStore()
        for spec in specs:
            merged.extend(self.run_device(spec))
        return merged


def default_fleet(isp: IspProfile, n_devices: int = 5,
                  network_type: str = NetworkType.WIFI,
                  connects: int = 25, seed: int = 7
                  ) -> List[FleetSpec]:
    return [FleetSpec(device_id="fleet-%02d" % index, isp=isp,
                      network_type=network_type, connects=connects,
                      seed=seed + index * 101)
            for index in range(n_devices)]
