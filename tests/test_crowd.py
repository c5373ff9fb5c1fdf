"""Tests for the synthetic crowdsourcing layer."""

import random
from collections import Counter

import pytest

from repro.crowd import (
    CELLULAR_ISPS,
    Campaign,
    CampaignConfig,
    Population,
    build_catalog,
    isp_by_name,
    isps_for_country,
)
from repro.crowd.isps import wifi_profile_for
from repro.crowd.population import COUNTRY_USERS, N_DEVICES
from repro.network.link import NetworkType
from tests.conftest import CAMPAIGN_SCALE


class TestIsps:
    def test_table6_operators_present(self):
        names = {isp.name for isp in CELLULAR_ISPS}
        for expected in ("Verizon", "Jio 4G", "AT&T", "Singtel",
                        "Cricket", "U.S. Cellular", "Maxis"):
            assert expected in names
        assert len(CELLULAR_ISPS) == 15

    def test_jio_has_core_penalty_but_fast_dns(self):
        jio = isp_by_name("Jio 4G")
        assert jio.core_penalty_ms > 100
        assert jio.dns_median_ms < 70

    def test_cricket_mixed_technology(self):
        cricket = isp_by_name("Cricket")
        assert cricket.lte_share < 0.5
        assert cricket.dns_floor_ms >= 40

    def test_access_distribution_includes_core_penalty(self):
        rng = random.Random(0)
        jio = isp_by_name("Jio 4G")
        samples = [jio.access_distribution(rng).sample()
                   for _ in range(200)]
        assert min(samples) > jio.core_penalty_ms

    def test_country_fallback_generic_lte(self):
        isps = isps_for_country("Atlantis")
        assert len(isps) == 1
        assert isps[0].name.startswith("lte-")

    def test_wifi_profile_cached_per_country(self):
        a = wifi_profile_for("USA")
        b = wifi_profile_for("USA")
        assert a is b
        assert a.network_type == NetworkType.WIFI


class TestAppCatalog:
    def test_catalog_size(self):
        catalog = build_catalog(n_longtail=100)
        assert len(catalog) == 116

    def test_representative_apps_present(self):
        catalog = build_catalog(n_longtail=10)
        for package in ("com.whatsapp", "com.facebook.katana",
                        "com.google.android.youtube"):
            assert catalog.by_package(package) is not None

    def test_whatsapp_domain_structure(self):
        catalog = build_catalog(n_longtail=0)
        whatsapp = catalog.by_package("com.whatsapp")
        assert len(whatsapp.domains) == 334
        cdn = [d for d in whatsapp.domains
               if d.hosting == "facebook-cdn"]
        softlayer = [d for d in whatsapp.domains
                     if d.hosting == "softlayer"]
        assert len(cdn) == 3
        assert len(softlayer) == 331
        assert all(d.path_median_ms > 150 for d in softlayer)
        assert all(d.path_median_ms < 50 for d in cdn)

    def test_sampling_respects_weights(self):
        catalog = build_catalog(n_longtail=50, seed=1)
        rng = random.Random(2)
        picks = [catalog.sample_app(rng).package for _ in range(3000)]
        facebook_share = picks.count("com.facebook.katana") / 3000
        assert facebook_share > 0.02  # heavyweight app is common

    def test_deterministic_given_seed(self):
        a = build_catalog(n_longtail=30, seed=5)
        b = build_catalog(n_longtail=30, seed=5)
        assert [x.weight for x in a.apps] == [x.weight for x in b.apps]


class TestPopulation:
    def test_device_count(self):
        population = Population(seed=1)
        assert len(population.devices) == N_DEVICES

    def test_top_countries_match_figure7(self):
        population = Population(seed=1)
        counts = Counter(d.country for d in population.devices)
        for country, expected in COUNTRY_USERS[:5]:
            assert abs(counts[country] - expected) <= 1

    def test_many_countries(self):
        population = Population(seed=1)
        assert len({d.country for d in population.devices}) > 90

    def test_activity_heavy_tailed(self):
        population = Population(seed=1)
        activities = sorted(d.activity for d in population.devices)
        assert activities[0] < 100
        assert activities[-1] > 10000

    def test_locations_within_country_box(self):
        population = Population(seed=1)
        singapore = [d for d in population.devices
                     if d.country == "Singapore"]
        assert singapore
        for device in singapore:
            for lat, lon in device.locations:
                assert 1.0 < lat < 2.0
                assert 103.0 < lon < 104.5

    def test_devices_have_isp_and_wifi(self):
        population = Population(seed=1)
        device = population.devices[0]
        assert device.cellular_isp is not None
        assert device.wifi.network_type == NetworkType.WIFI


class TestCampaign:
    def test_store_has_both_kinds(self, campaign_store):
        assert len(campaign_store.tcp()) > 0
        assert len(campaign_store.dns()) > 0

    def test_tcp_fraction_near_paper(self, campaign_store):
        share = len(campaign_store.tcp()) / len(campaign_store)
        assert abs(share - 0.681) < 0.03

    def test_full_scale_volume_near_5m(self, campaign_store):
        estimated = len(campaign_store) / CAMPAIGN_SCALE
        assert 3e6 < estimated < 7e6

    def test_records_carry_context(self, campaign_store):
        record = next(iter(campaign_store))
        assert record.device_id.startswith("device-")
        assert record.country
        assert record.network_type in NetworkType.ALL
        assert record.location is not None

    def test_tcp_records_have_app_and_domain(self, campaign_store):
        record = next(iter(campaign_store.tcp()))
        assert record.app_package
        assert record.domain
        assert record.dst_port in (80, 443)

    def test_deterministic_given_seed(self):
        a = Campaign(config=CampaignConfig(scale=0.002, seed=9)).run()
        b = Campaign(config=CampaignConfig(scale=0.002, seed=9)).run()
        assert len(a) == len(b)
        assert a.rtts()[:100] == b.rtts()[:100]

    def test_jio_app_vs_dns_gap(self, campaign_store):
        from repro.analysis.stats import median
        jio = campaign_store.for_operator("Jio 4G")
        app_median = median(jio.tcp()
                            .for_network_type(NetworkType.LTE).rtts())
        dns_median = median(jio.dns()
                            .for_network_type(NetworkType.LTE).rtts())
        assert app_median > 3 * dns_median  # the Case-2 signature
