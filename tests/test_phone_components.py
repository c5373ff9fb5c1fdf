"""Tests for PackageManager, DownloadManager, NIO, CPU meter, apps."""

import pytest

from repro.phone import (
    App,
    DownloadManager,
    PackageManager,
    Selector,
    SocketChannel,
    SpeedtestApp,
)
from repro.phone.apps import StreamingApp
from repro.phone.device import CpuMeter
from repro.phone.nio import OP_READ, OP_WRITE


class TestPackageManager:
    def test_install_allocates_distinct_uids(self, world):
        pm = world.device.packages
        uid_a = pm.install("com.app.a")
        uid_b = pm.install("com.app.b")
        assert uid_a != uid_b
        assert pm.name_for_uid(uid_a) == "com.app.a"
        assert pm.uid_for_name("com.app.b") == uid_b

    def test_reinstall_keeps_uid(self, world):
        pm = world.device.packages
        uid = pm.install("com.app.a")
        assert pm.install("com.app.a") == uid

    def test_unknown_uid_is_none(self, world):
        assert world.device.packages.name_for_uid(99999) is None


class TestDownloadManager:
    def test_dummy_download_generates_traffic(self, world):
        manager = DownloadManager(world.device)
        event = manager.enqueue("93.184.216.34")
        world.run(until=60000)
        assert event.triggered
        assert manager.requests == 1

    def test_downloads_provider_has_own_uid(self, world):
        manager = DownloadManager(world.device)
        assert manager.uid >= 10000
        assert world.device.packages.name_for_uid(manager.uid) == \
            "com.android.providers.downloads"

    def test_download_releases_blocked_tun_reader(self, world):
        """The section 3.1 stop mechanism end to end."""
        from repro.phone import VpnService
        vpn = VpnService(world.device, "com.mopeye")
        vpn.add_disallowed_application("com.mopeye")
        tun = vpn.new_builder().establish()
        tun.set_blocking_via_api(True)
        released = []

        def reader():
            yield tun.read()
            released.append(world.sim.now)

        world.sim.process(reader())
        world.run(until=1000)
        assert not released  # still blocked
        DownloadManager(world.device).enqueue("93.184.216.34")
        world.run(until=60000)
        assert released  # dummy packet went through the tunnel


class TestNio:
    def test_register_returns_key_after_cost(self, world):
        selector = Selector(world.device)
        channel = SocketChannel(world.device, 10001)

        def run():
            key = yield selector.register(channel, OP_READ,
                                          attachment="ctx")
            return key

        key = world.run_process(run())
        assert key.channel is channel
        assert key.attachment == "ctx"
        assert channel.selector is selector

    def test_select_returns_ready_on_data(self, world):
        selector = Selector(world.device)
        channel = SocketChannel(world.device, 10001)

        def run():
            yield selector.register(channel, OP_READ)
            yield channel.connect("93.184.216.34", 80)
            channel.write(b"ping\n")
            keys = yield selector.select_process()
            while not keys:  # wakeups may precede readiness
                keys = yield selector.select_process()
            return keys

        keys = world.run_process(run())
        assert keys[0].channel is channel
        assert channel.read_all() == b"ping\n"

    def test_wakeup_breaks_pending_select(self, world):
        selector = Selector(world.device)
        times = {}

        def waiter():
            keys = yield selector.select_process()
            times["woke"] = world.sim.now
            return keys

        def waker():
            yield world.sim.timeout(50.0)
            selector.wakeup()

        world.sim.process(waiter())
        world.sim.process(waker())
        world.run(until=10000)
        assert times["woke"] == pytest.approx(50.0)

    def test_write_requested_reports_ready(self, world):
        selector = Selector(world.device)
        channel = SocketChannel(world.device, 10001)

        def run():
            yield selector.register(channel, OP_WRITE)
            channel.request_write()
            keys = yield selector.select_process()
            return keys

        keys = world.run_process(run())
        assert keys and keys[0].channel is channel

    def test_close_deregisters(self, world):
        selector = Selector(world.device)
        channel = SocketChannel(world.device, 10001)

        def run():
            yield selector.register(channel, OP_READ)
            channel.close()
            return len(selector._keys)

        assert world.run_process(run()) == 0
        assert channel.selector is None


class TestCpuMeter:
    def test_charge_accumulates(self):
        meter = CpuMeter()
        meter.charge("a.x", 5.0)
        meter.charge("a.y", 3.0)
        meter.charge("b", 2.0)
        assert meter.total("a") == 8.0
        assert meter.total() == 10.0

    def test_utilisation(self):
        meter = CpuMeter()
        meter.charge("work", 25.0)
        assert meter.utilisation(100.0) == 0.25
        assert meter.utilisation(0.0) == 0.0


class TestAppWorkloads:
    def test_speedtest_ping(self, world):
        app = SpeedtestApp(world.device, "com.speed")

        def run():
            ms = yield from app.ping("93.184.216.34")
            return ms

        assert 0 < world.run_process(run()) < 500

    def test_speedtest_download_reports_mbps(self, world):
        app = SpeedtestApp(world.device, "com.speed")

        def run():
            mbps = yield from app.download("93.184.216.34", 400000)
            return mbps

        mbps = world.run_process(run())
        # 25 Mbps link: measured throughput within (0, 25].
        assert 1.0 < mbps <= 26.0

    def test_streaming_counts_chunks(self, world):
        app = StreamingApp(world.device, "com.video")

        def run():
            chunks = yield from app.stream("93.184.216.34", 10000.0,
                                           chunk_bytes=40000,
                                           chunk_interval_ms=1000.0)
            return chunks

        assert world.run_process(run(), until=120000) >= 5

    def test_connect_failure_counted(self, world):
        app = App(world.device, "com.failing")

        def run():
            result = yield from app.request("203.0.113.123", 80,
                                            b"x\n")
            return result

        assert world.run_process(run(), until=2e6) == b""
        assert app.failures == 1
