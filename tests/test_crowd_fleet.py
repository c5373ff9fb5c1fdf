"""Fleet validation: the packet-level pipeline and the statistical
campaign agree for the same profiles.

This is the test that justifies DESIGN.md's substitution: the crowd
analyses run over statistically synthesised records, and here we show
that mechanically relaying real packets through MopEye on devices built
from the *same* ISP/domain profiles produces compatible distributions.
The devices are chaos worlds without faults (``conftest.fleet_store``).
"""

import statistics

import pytest

from repro.crowd.isps import isp_by_name, wifi_profile_for
from tests.conftest import fleet_store


@pytest.fixture(scope="module")
def wifi_fleet_store():
    return fleet_store(wifi_profile_for("USA"), devices=4, connects=20,
                       seed=7)


class TestFleetMechanics:
    def test_fleet_produces_tcp_and_dns(self, wifi_fleet_store):
        assert len(wifi_fleet_store.tcp()) >= 60
        assert len(wifi_fleet_store.dns()) >= 60

    def test_records_tagged_with_fleet_identity(self, wifi_fleet_store):
        devices = wifi_fleet_store.unique(lambda r: r.device_id)
        assert devices == {"chaos-wifi-usa-00", "chaos-wifi-usa-01",
                           "chaos-wifi-usa-02", "chaos-wifi-usa-03"}

    def test_apps_attributed(self, wifi_fleet_store):
        packages = wifi_fleet_store.tcp().unique(
            lambda r: r.app_package)
        assert None not in packages
        assert len(packages) >= 3

    def test_domains_learned_from_dns_relay(self, wifi_fleet_store):
        domains = wifi_fleet_store.tcp().unique(lambda r: r.domain)
        assert any(d for d in domains if d)


class TestFleetVsCampaign:
    def test_wifi_dns_median_matches_profile(self, wifi_fleet_store):
        """Mechanical DNS RTTs should track the profile's calibrated
        median (33 ms for WiFi) within simulation tolerance."""
        rtts = wifi_fleet_store.dns().rtts()
        measured = statistics.median(rtts)
        target = wifi_profile_for("USA").dns_median_ms
        assert 0.6 * target < measured < 1.6 * target

    def test_app_rtt_tracks_access_plus_path(self, wifi_fleet_store):
        """TCP medians ~ access + the measured apps' path medians."""
        from repro.crowd.appcatalog import build_catalog
        catalog = build_catalog(n_longtail=0)
        by_app = wifi_fleet_store.tcp().by_app()
        checked = 0
        for package, group in by_app.items():
            profile = catalog.by_package(package)
            if profile is None or len(group) < 10:
                continue
            expected = (wifi_profile_for("USA").access_median_ms
                        + profile.domains[0].path_median_ms)
            measured = statistics.median(group.rtts())
            assert 0.4 * expected < measured < 2.2 * expected, \
                "%s: %.1f vs expected %.1f" % (package, measured,
                                               expected)
            checked += 1
        assert checked >= 2

    def test_jio_core_penalty_visible_mechanically(self):
        """A mechanical Jio LTE fleet shows the Case-2 signature:
        slow app path, fast DNS."""
        store = fleet_store(isp_by_name("Jio 4G"), devices=2,
                            connects=15, seed=31)
        app_median = statistics.median(store.tcp().rtts())
        dns_median = statistics.median(store.dns().rtts())
        assert app_median > 2.5 * dns_median
        assert app_median > 200.0
