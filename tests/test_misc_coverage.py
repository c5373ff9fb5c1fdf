"""Remaining coverage: report rendering, uploader policy, SDK
boundaries, DNS pointer chains, sequence arithmetic properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import format_cdf_summary
from repro.netstack.dns import decode_name, encode_name
from repro.netstack.tcp_state import seq_add, seq_lt


class TestCdfSummary:
    def test_probe_percentages(self):
        xs = [10, 50, 100, 400]
        fractions = [0.25, 0.5, 0.75, 1.0]
        line = format_cdf_summary("WiFi", xs, fractions)
        assert "WiFi" in line
        assert "<50ms: 50%" in line
        assert "<400ms: 100%" in line

    def test_empty_series(self):
        line = format_cdf_summary("empty", [], [])
        assert "<50ms: 0%" in line


class TestUploaderPolicy:
    def test_wifi_only_defers_on_cellular(self):
        import random as _random
        from repro.core import MopEyeService
        from repro.core.uploader import MeasurementUploader
        from repro.network import Internet, lte_profile
        from repro.backend.server import BackendServer
        from repro.phone import AndroidDevice, App
        from repro.network import AppServer, DnsServer, DnsZone
        from repro.sim import Simulator

        sim = Simulator()
        internet = Internet(sim)
        link = lte_profile(sim, rng=_random.Random(1))  # cellular!
        device = AndroidDevice(sim, internet, link, sdk=23)
        internet.add_server(DnsServer(sim, "8.8.8.8", DnsZone()))
        internet.add_server(AppServer(sim, ["93.184.216.34"],
                                      name="srv"))
        collector = BackendServer(sim, ["198.51.100.200"])
        internet.add_server(collector)
        mopeye = MopEyeService(device)
        mopeye.start()
        uploader = MeasurementUploader(mopeye, "198.51.100.200",
                                       interval_ms=3000.0, min_batch=2,
                                       wifi_only=True)
        uploader.start()
        app = App(device, "com.app")

        def run():
            for _ in range(5):
                yield from app.request("93.184.216.34", 80, b"x\n")

        process = sim.process(run())
        sim.run(until=60_000, stop_event=process)
        sim.run(until=sim.now + 30_000)
        assert uploader.batches == 0
        assert uploader.deferred_cellular >= 1
        assert len(collector.received) == 0

    def test_wifi_only_disabled_uploads_on_cellular(self):
        import random as _random
        from repro.core import MopEyeService
        from repro.core.uploader import MeasurementUploader
        from repro.network import (
            AppServer,
            DnsServer,
            DnsZone,
            Internet,
            lte_profile,
        )
        from repro.backend.server import BackendServer
        from repro.phone import AndroidDevice, App
        from repro.sim import Simulator

        sim = Simulator()
        internet = Internet(sim)
        device = AndroidDevice(sim, internet,
                               lte_profile(sim,
                                           rng=_random.Random(2)),
                               sdk=23)
        internet.add_server(DnsServer(sim, "8.8.8.8", DnsZone()))
        internet.add_server(AppServer(sim, ["93.184.216.34"],
                                      name="srv"))
        collector = BackendServer(sim, ["198.51.100.200"])
        internet.add_server(collector)
        mopeye = MopEyeService(device)
        mopeye.start()
        uploader = MeasurementUploader(mopeye, "198.51.100.200",
                                       interval_ms=3000.0, min_batch=2,
                                       wifi_only=False)
        uploader.start()
        app = App(device, "com.app")

        def run():
            for _ in range(5):
                yield from app.request("93.184.216.34", 80, b"x\n")

        process = sim.process(run())
        sim.run(until=60_000, stop_event=process)
        sim.run(until=sim.now + 30_000)
        assert uploader.batches >= 1
        assert len(collector.received) > 0


class TestSdkBoundary:
    @pytest.mark.parametrize("sdk,expect_protect", [
        (20, True),   # below Android 5.0: per-socket protect
        (21, False),  # exactly 5.0: addDisallowedApplication
        (25, False),
    ])
    def test_auto_protect_mode_boundary(self, sdk, expect_protect):
        from tests.conftest import World
        from repro.core import MopEyeService
        from repro.phone import App
        world = World(sdk=sdk)
        world.add_server("93.184.216.34")
        mopeye = MopEyeService(world.device)
        mopeye.start()
        assert mopeye.per_socket_protect == expect_protect
        app = App(world.device, "com.app")
        assert world.run_process(
            app.request("93.184.216.34", 80, b"ok\n")) == b"ok\n"


class TestDnsPointerChains:
    def test_two_level_pointer_chain(self):
        # name1 = www.example.com; name2 = pointer -> offset of
        # "example.com"; name3 = pointer -> name2's pointer.
        base = encode_name("www.example.com")
        blob = bytearray(base)
        ptr_to_tail = len(blob)
        blob += b"\xC0\x04"          # -> example.com
        ptr_to_ptr = len(blob)
        blob += bytes([0x01, ord("a")]) + b"\xC0" + bytes([ptr_to_tail])
        name, _offset = decode_name(bytes(blob), ptr_to_ptr)
        assert name == "a.example.com"

    def test_reserved_label_type_rejected(self):
        from repro.netstack.dns import DNSError
        with pytest.raises(DNSError):
            decode_name(b"\x80abc", 0)


@given(base=st.integers(0, 2**32 - 1),
       delta=st.integers(0, 2**31 - 2))
@settings(max_examples=80)
def test_seq_add_then_lt_property(base, delta):
    ahead = seq_add(base, delta)
    if delta > 0:
        assert seq_lt(base, ahead)
        assert not seq_lt(ahead, base)
    else:
        assert ahead == base


@given(a=st.integers(0, 2**32 - 1), b=st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_seq_lt_antisymmetric(a, b):
    if a != b and abs(a - b) % (1 << 32) != (1 << 31):
        assert seq_lt(a, b) != seq_lt(b, a)
