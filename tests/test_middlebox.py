"""The middlebox subsystem end to end: split-connection interception
is port-selective down to the byte, DNS-over-TCP on an intercepted
port is refused loudly (never silently dropped), the divergence rule
closes the loop through the ground-truth ledger, and the imperfection
ablation is deterministic."""

import dataclasses
import os
import random
import tempfile
from collections import Counter

import pytest

from repro.backend.detector import ProxyDivergenceRule
from repro.core import MopEyeService
from repro.core.persist import record_to_line
from repro.core.records import FailureKind, MeasurementKind
from repro.faults import ChaosRunner, get_scenario, verify_scenario
from repro.faults.plan import FaultKind
from repro.middlebox import MiddleboxStats, TransparentProxy
from repro.middlebox.ablation import (
    ABLATED_KINDS,
    VARIANTS,
    run_imperfection_ablation,
)
from repro.network import (
    AccessLink,
    AppServer,
    DnsServer,
    DnsZone,
    Internet,
)
from repro.phone import AndroidDevice, App
from repro.phone.costmodel import DeviceCostModel
from repro.sim import Constant, Simulator
from repro.sim.distributions import Distribution

INTERCEPTED_PORT = 443
CLEAN_PORT = 8443
PAYLOAD = b"GET / HTTP/1.1\r\n\r\n"


class MiniWorld:
    """One device, two constant-latency origins, optionally a
    transparent proxy.  Everything is a `Constant` distribution and
    the workload runs on fixed absolute time slots, so a proxy-on and
    a proxy-off run stay aligned draw for draw -- any byte that
    differs between them was changed by the proxy itself."""

    def __init__(self, proxy_ports=None):
        self.sim = Simulator()
        self.internet = Internet(self.sim)
        link = AccessLink(self.sim, up_latency=Constant(5.0),
                          down_latency=Constant(5.0),
                          operator="MiniNet",
                          rng=random.Random(1))
        # Constant syscall/framework costs: the cost model normally
        # shares one rng stream, so timing-dependent draw *counts*
        # would shift every later value and defeat the byte-identity
        # comparison.
        costs = DeviceCostModel(random.Random(9))
        for name, value in list(vars(costs).items()):
            if isinstance(value, Distribution):
                setattr(costs, name, Constant(0.05))
        self.device = AndroidDevice(self.sim, self.internet, link,
                                    sdk=23, cost_model=costs,
                                    rng=random.Random(2))
        self.device.model = "mini-device"
        zone = DnsZone()
        dns = DnsServer(self.sim, "8.8.8.8", zone,
                        processing_delay=Constant(0.5),
                        path_oneway=Constant(2.0))
        self.internet.add_server(dns)
        for domain, ip in (("web.test", "198.51.100.10"),
                           ("alt.test", "198.51.100.11")):
            server = AppServer(self.sim, [ip], name=domain,
                               path_oneway=Constant(20.0),
                               accept_delay=Constant(0.05),
                               rng=random.Random(3))
            self.internet.add_server(server)
            zone.add(domain, ip)
        self.service = MopEyeService(self.device, app_rtt=True)
        self.proxy = None
        if proxy_ports is not None:
            self.proxy = TransparentProxy(
                self.sim, self.internet,
                intercept_ports=tuple(proxy_ports),
                rng=random.Random("mini-proxy"),
                obs=self.service.obs)
            self.proxy.enabled = True
        self.service.start()
        self.web = App(self.device, "web.app")
        self.alt = App(self.device, "alt.app")

    def run_slotted(self, rounds: int = 6) -> None:
        """web.test at t = k*2000, alt.test at t = k*2000 + 1000."""

        def at(when):
            if when > self.sim.now:
                yield self.sim.timeout(when - self.sim.now)

        def workload():
            for k in range(rounds):
                yield from at(2000.0 * k)
                yield from self.web.resolve_and_request(
                    "web.test", INTERCEPTED_PORT, PAYLOAD)
                yield from at(2000.0 * k + 1000.0)
                yield from self.alt.resolve_and_request(
                    "alt.test", CLEAN_PORT, PAYLOAD)

        self.sim.process(workload())
        self.sim.run(until=2000.0 * rounds + 5000.0)

    def lines(self, domain):
        return [record_to_line(r) for r in self.service.store
                if r.domain == domain]


@pytest.fixture
def proxy_result(chaos_world):
    return chaos_world("transparent_proxy")


@pytest.fixture
def clock_result(chaos_world):
    return chaos_world("noisy_clock")


class TestPortSelectivity:
    """Satellite (b): interception must not perturb one byte of the
    non-intercepted port's records."""

    @pytest.fixture(scope="class")
    def runs(self):
        off = MiniWorld(proxy_ports=None)
        off.run_slotted()
        on = MiniWorld(proxy_ports=(80, INTERCEPTED_PORT))
        on.run_slotted()
        return off, on

    def test_non_intercepted_port_is_byte_identical(self, runs):
        off, on = runs
        assert off.lines("alt.test")
        assert off.lines("alt.test") == on.lines("alt.test")

    def test_intercepted_port_diverges(self, runs):
        off, on = runs

        def syn_rtts(world):
            return [r.rtt_ms for r in world.service.store
                    if r.kind == MeasurementKind.TCP
                    and r.domain == "web.test" and r.failure is None]

        assert off.lines("web.test") != on.lines("web.test")
        # The proxy answers the SYN locally: the handshake RTT
        # collapses below the real path RTT...
        assert max(syn_rtts(on)) < min(syn_rtts(off))
        # ...while the app-layer RTT still spans the full path.
        app = [r.rtt_ms for r in on.service.store
               if r.kind == MeasurementKind.APP_RTT
               and r.domain == "web.test"]
        assert min(app) > max(syn_rtts(on))

    def test_interception_is_counted(self, runs):
        _off, on = runs
        stats = MiddleboxStats(on.service.obs)
        assert stats.intercepted_connects == 6
        assert stats.split_connections == 6
        assert stats.bytes_up > 0 and stats.bytes_down > 0

    def test_proxy_free_world_touches_no_mbox_counter(self, runs):
        off, _on = runs
        stats = MiddleboxStats(off.service.obs)
        assert stats.intercepted_connects == 0
        assert stats.split_connections == 0


class TestDnsOverTcp:
    """Satellite (c): an intercepted-port DNS-over-TCP connect is
    refused with a failure record -- never silently dropped."""

    def test_refused_with_failure_record(self):
        world = MiniWorld(proxy_ports=(53, INTERCEPTED_PORT))

        def workload():
            yield from world.web.resolve_and_request(
                "web.test", 53, PAYLOAD)

        world.sim.process(workload())
        world.sim.run(until=10000.0)
        assert MiddleboxStats(world.service.obs).dns_tcp_refused == 1
        refused = [r for r in world.service.store
                   if r.failure == FailureKind.REFUSED
                   and r.domain == "web.test"]
        assert len(refused) == 1
        assert world.web.failures == 1


class TestClosedLoop:
    def test_proxy_scenario_recall_and_precision(self, proxy_result):
        report = verify_scenario(proxy_result)
        assert report.recall_for(FaultKind.TRANSPARENT_PROXY) == 1.0
        assert report.precision == 1.0

    def test_online_rule_localises_the_proxied_operator(
            self, proxy_result):
        findings = ProxyDivergenceRule().evaluate(
            proxy_result.rollups, 1.0)
        assert [(f.rule, f.subject) for f in findings] \
            == [("proxy_divergence", "Ferrite Wifi")]

    def test_clock_scenario_recall_and_precision(self, clock_result):
        report = verify_scenario(clock_result)
        assert report.recall_for(FaultKind.NOISY_CLOCK) == 1.0
        assert report.precision == 1.0
        assert clock_result.stats["imperfect_quantised_samples"] > 0

    def test_rule_inert_without_a_proxy(self, clock_result):
        """APP_RTT records present, no proxy: quantisation moves both
        vantage points together, so the rule must stay silent."""
        kinds = Counter(r.kind for r in clock_result.iter_records())
        assert kinds[MeasurementKind.APP_RTT] > 0
        assert ProxyDivergenceRule().evaluate(
            clock_result.rollups, 1.0) == []

    def test_app_rtt_flows_to_rollups(self, proxy_result):
        kinds = Counter(r.kind for r in proxy_result.iter_records())
        assert kinds[MeasurementKind.APP_RTT] > 0
        for table in ("network", "app"):
            assert proxy_result.rollups.fold(
                table, kind=MeasurementKind.APP_RTT)


class TestDeterminism:
    def test_clean_operator_worlds_are_proxy_free_bitwise(
            self, proxy_result, tmp_path):
        """The proxy exists only in worlds whose operator matches the
        event scope: the clean operator's shards must equal a run
        with the proxy event deleted, byte for byte."""
        twin = dataclasses.replace(get_scenario("transparent_proxy"),
                                   events=())
        proxied = proxy_result
        bare = ChaosRunner(twin, seed=proxied.seed,
                           shard_dir=str(tmp_path)).run()

        def shard(result, index):
            with open(result.paths[index], "rb") as handle:
                return handle.read()

        # Devices 0-1 belong to the proxied operator, 2-3 to the
        # clean one (scenario.devices() order).
        for index in (2, 3):
            assert shard(proxied, index) == shard(bare, index)
        for index in (0, 1):
            assert shard(proxied, index) != shard(bare, index)


class TestAblation:
    @pytest.fixture(scope="class")
    def ablation(self, tmp_path_factory):
        """The report, run with the temp root pointed at an empty
        directory, and that directory."""
        root = tmp_path_factory.mktemp("ablation-tmp")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tempfile, "tempdir", str(root))
            report = run_imperfection_ablation("noisy_clock", seed=0)
        return report, root

    @pytest.fixture
    def report(self, ablation):
        return ablation[0]

    def test_variants_leave_no_shard_dir_behind(self, ablation):
        _report, root = ablation
        assert os.listdir(root) == []

    def test_deterministic(self, report):
        assert report == run_imperfection_ablation("noisy_clock",
                                                   seed=0)

    def test_baseline_has_zero_error(self, report):
        for kind in ABLATED_KINDS:
            assert report["deltas"]["none"][kind]["mean_abs_ms"] == 0.0

    def test_each_source_costs_accuracy(self, report):
        for variant in ("quantisation", "jitter", "both"):
            for kind in ABLATED_KINDS:
                delta = report["deltas"][variant][kind]
                assert delta["mean_abs_ms"] > 0.0, (variant, kind)
                assert delta["samples"] > 0

    def test_variants_align_record_for_record(self, report):
        censuses = [report["variants"][name]["samples"]
                    for name in VARIANTS]
        assert all(census == censuses[0] for census in censuses)
