"""A day in the life: every subsystem working together.

One simulated phone runs MopEye while a browser, a messenger, a video
app and a speed-test generate traffic across several servers; the
uploader ships measurements to a collection backend; and the
diagnosis finds the deliberately-slow app in the rollups of the
collected records.
"""

import pytest

from repro.analysis.rules import Verdict
from repro.backend.detector import diagnose_app
from repro.backend.rollups import RollupStore
from repro.backend.server import BackendServer
from repro.core import MopEyeService
from repro.core.uploader import MeasurementUploader
from repro.phone import App, BatteryModel, SpeedtestApp
from repro.phone.apps import StreamingApp, WebBrowsingApp
from repro.sim import Constant


@pytest.fixture(scope="module")
def day():
    from tests.conftest import World
    world = World(seed=77)
    # Origins: fast CDN, normal API, far-away laggard.
    world.add_server("198.51.100.10", name="cdn",
                     domains=["cdn.day.test"],
                     path_oneway=Constant(1.0))
    world.add_server("198.51.100.11", name="api",
                     domains=["api.day.test"],
                     path_oneway=Constant(10.0))
    world.add_server("198.51.100.12", name="faraway",
                     domains=["far.day.test"],
                     path_oneway=Constant(120.0))
    collector = BackendServer(world.sim, ["198.51.100.200"],
                              name="collector")
    world.internet.add_server(collector)

    mopeye = MopEyeService(world.device)
    mopeye.start()
    uploader = MeasurementUploader(mopeye, "198.51.100.200",
                                   interval_ms=20_000.0, min_batch=5)
    uploader.start()

    browser = WebBrowsingApp(world.device, "com.android.chrome")
    messenger = App(world.device, "com.fast.messenger")
    laggard = App(world.device, "com.laggard.app")
    video = StreamingApp(world.device, "com.video.app")
    speed = SpeedtestApp(world.device, "com.speedtest")

    def scenario():
        # Morning: browse a few pages.
        pages = [[("198.51.100.10", 443), ("198.51.100.11", 443)]
                 for _ in range(6)]
        yield from browser.browse(pages, page_think_ms=400.0)
        # Messaging bursts against fast and slow backends.
        for _ in range(12):
            yield from messenger.resolve_and_request(
                "api.day.test", 443, b"msg\n")
            yield from laggard.resolve_and_request(
                "far.day.test", 443, b"sync\n")
            yield world.sim.timeout(700.0)
        # A short video session.
        yield from video.stream("198.51.100.10", 12_000.0,
                                chunk_bytes=60_000,
                                chunk_interval_ms=2_000.0)
        # One speed test.
        yield from speed.download("198.51.100.11", 300_000)
        # Idle tail so the uploader's timer fires again.
        yield world.sim.timeout(30_000.0)

    world.run_process(scenario(), until=3_600_000)
    world.run(until=60_000)
    world.mopeye = mopeye
    world.uploader = uploader
    world.collector = collector
    world.apps = dict(browser=browser, messenger=messenger,
                      laggard=laggard, video=video, speed=speed)
    return world


class TestDayInTheLife:
    def test_every_app_measured_and_attributed(self, day):
        by_app = day.mopeye.store.tcp().by_app()
        for package in ("com.android.chrome", "com.fast.messenger",
                        "com.laggard.app", "com.video.app",
                        "com.speedtest"):
            assert package in by_app, "missing %s" % package

    def test_dns_measured_with_domains(self, day):
        dns = day.mopeye.store.dns()
        assert len(dns) >= 20
        domains = dns.unique(lambda r: r.domain)
        assert "api.day.test" in domains
        assert "far.day.test" in domains

    def test_domain_attribution_on_tcp(self, day):
        laggard_records = day.mopeye.store.tcp().for_app(
            "com.laggard.app")
        assert all(r.domain == "far.day.test"
                   for r in laggard_records)

    def test_uploader_delivered_batches(self, day):
        assert day.uploader.batches >= 1
        assert len(day.collector.received) == day.uploader.uploaded
        assert day.uploader.uploaded > 10

    def test_diagnosis_finds_the_laggard(self, day):
        rollups = RollupStore()
        rollups.add_all(day.collector.received)
        finding = diagnose_app(rollups, "com.laggard.app",
                               min_samples=10)
        assert finding.verdict == Verdict.SERVER_SIDE
        fast = diagnose_app(rollups, "com.fast.messenger",
                            min_samples=10)
        assert fast.verdict == Verdict.HEALTHY

    def test_flows_track_video_volume(self, day):
        video_flows = [f for f in day.mopeye.flows
                       if f.app_package == "com.video.app"]
        assert video_flows
        assert sum(f.bytes_down for f in video_flows) >= 300_000

    def test_no_relay_leaks(self, day):
        """After the day, no connections linger and counters are
        consistent."""
        assert len(day.mopeye.clients) <= 1  # video may be in teardown
        obs = day.mopeye.obs
        assert obs.value("relay.parse_errors") == 0
        assert obs.value("relay.state_errors") == 0

    def test_battery_and_cpu_accounting_sane(self, day):
        elapsed = day.sim.now - day.mopeye.started_at
        cpu = day.mopeye.cpu_utilisation()
        assert 0 < cpu < 0.2
        report = BatteryModel(day.device).report(
            elapsed, cpu_prefixes=("mopeye",))
        assert 0 < report.total_mwh < 50

    def test_rtt_ordering_matches_topology(self, day):
        from repro.analysis.stats import median
        store = day.mopeye.store.tcp()
        cdn = median(store.filter(
            lambda r: r.dst_ip == "198.51.100.10").rtts())
        api = median(store.filter(
            lambda r: r.dst_ip == "198.51.100.11").rtts())
        far = median(store.filter(
            lambda r: r.dst_ip == "198.51.100.12").rtts())
        assert cdn < api < far
