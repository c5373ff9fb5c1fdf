"""One row per fault kind: where it applies, what it does, what proves it.

:data:`FAULT_SPECS` holds one :class:`FaultSpec` per ``FaultKind``, in
``FaultKind.ALL`` order.  The injection half of a row is the injector
components the kind ``needs``, the ``scope`` that picks its worlds and
the ``drive`` process that applies it; the verification half is the
``check`` that looks for its evidence, the findings it ``explains``
and the registry ``stats`` the chaos runner folds from each world
that installed it.  ``FaultInjector`` and ``verify_scenario`` loop over
the rows and name no kind.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import rules
from repro.analysis.rules import Verdict
from repro.backend.detector import (Diagnosis, diagnose_app,
                                    diagnose_operator)
from repro.backend.rollups import RollupStore
from repro.core.records import (FailureKind, MeasurementKind,
                                MeasurementRecord)
from repro.crowd.campaign import stable_ip_for_domain
from repro.faults.ledger import LedgerEntry
from repro.faults.plan import FaultEvent, FaultKind
from repro.faults.scenarios import Scenario
from repro.middlebox.imperfect import install_imperfect_clock
from repro.network.link import NetworkType
from repro.phone.download_manager import DownloadManager

#: The diagnosis's sample threshold, scaled for the preset worlds (a
#: few devices), not the paper's 200-sample crowd threshold.
MIN_SAMPLES = 12

#: Evidence may trail the fault window (a SYN sent just before the
#: window closes fails just after it).
_WINDOW_SLACK_MS = 2_000.0

#: Scope name -> ``(injector, event) -> applies``; ``None`` is every
#: world with the components.  Cluster scopes see only nodes the
#: cluster runs (a fail of node-01 is a no-op with one node, by design).
SCOPES: Dict[Optional[str], Callable[..., bool]] = {
    None: lambda i, e: True,
    "operator": lambda i, e: e.scope.get("operator") in (None, i.operator),
    "domain": lambda i, e: e.scope.get("domain") in i.servers,
    "active node": lambda i, e: i.cluster.is_active(
        str(e.scope.get("node"))),
    "standby node": lambda i, e: i.cluster.is_standby(
        str(e.scope.get("node"))),
}


# -- drivers -----------------------------------------------------------

def _until_start(injector, event: FaultEvent):
    if event.start_ms > injector.sim.now:
        yield injector.sim.timeout(event.start_ms - injector.sim.now)


def _switch(on: Callable, off: Optional[Callable] = None) -> Callable:
    """The driver most rows share: sleep to the start, ``on``, mark,
    sleep ``duration_ms`` (0 is the rest of the run), ``off`` with what
    ``on`` returned, mark.  Without ``off`` the effect is for good: no
    deactivation is marked, whatever the duration."""
    def drive(injector, event: FaultEvent):
        yield from _until_start(injector, event)
        undo = on(injector, event)
        injector.mark(event, "activations")
        if off is not None and event.duration_ms > 0:
            yield injector.sim.timeout(event.duration_ms)
            off(injector, event, undo)
            injector.mark(event, "deactivations")
    return drive


def _node(event: FaultEvent) -> str:
    return str(event.scope["node"])


def _mode(event, default: str) -> str:
    return str(event.params.get("mode", default))


def _num(event, name: str, default: float) -> float:
    return float(event.params.get(name, default))


def _rng(injector, event: FaultEvent, purpose: str):
    return injector.plan.rng(event.event_id,
                             purpose % injector.device_id)


def _burst_loss_on(i, e: FaultEvent) -> None:
    i.link.set_burst_loss(
        _num(e, "p_enter", 0.3), _num(e, "p_exit", 0.3),
        loss_good=_num(e, "loss_good", 0.0),
        loss_bad=_num(e, "loss_bad", 1.0),
        up_rng=_rng(i, e, "burst:%s:up"),
        down_rng=_rng(i, e, "burst:%s:down"))


def _coex_bulk_on(i, e: FaultEvent) -> List[bool]:
    """Self-inflicted contention (docs/MODALITIES.md): a latency spike
    models a bulk download's queueing, and the download app's own
    TPUT_* / ENERGY records mark the cause.  Returns the run flag."""
    i.link.set_latency_spike(_num(e, "extra_ms", 80.0))
    running = [True]
    domain = str(e.params.get("domain", "bulk.example"))
    server_ip = str(e.params.get("server_ip",
                                 stable_ip_for_domain(domain)))

    def transfer():
        manager = DownloadManager(i.service.device)
        rng = _rng(i, e, "bulk:%s")
        while running[0]:
            yield manager.enqueue(server_ip, port=443)
            yield i.sim.timeout(rng.uniform(80.0, 240.0))

    i.sim.process(transfer(), name="fault-bulk:%s" % e.event_id)
    return running


def _coex_bulk_off(i, e: FaultEvent, running: List[bool]) -> None:
    i.link.clear_latency_spike()
    running[0] = False


def _proxy(enabled: bool) -> Callable:
    """The chaos runner builds the proxy disabled, only in the worlds
    the event scopes; the kind flips its ``enabled`` flag."""
    def flip(i, e: FaultEvent, _undo=None) -> None:
        i.middlebox.enabled = enabled
    return flip


def _clock_on(i, e: FaultEvent):
    return install_imperfect_clock(
        i.service.device, quantum_ms=_num(e, "quantum_ms", 0.0),
        jitter_ms=_num(e, "jitter_ms", 0.0),
        rng=_rng(i, e, "clock:%s"), obs=i.obs)


def _drive_vpn_revoke(injector, event: FaultEvent):
    """Consent revoked: wait the service's teardown out, hold the VPN
    down for ``duration_ms``, restart -- the watchdog test's path."""
    yield from _until_start(injector, event)
    service = injector.service
    if not service.running:
        return
    service.vpn.revoke()
    injector.mark(event, "activations")
    stop = service.revoke_stop
    if stop is not None and not stop.triggered:
        yield stop
    if event.duration_ms > 0:
        yield injector.sim.timeout(event.duration_ms)
    if not service.running:
        service.start()
    injector.mark(event, "deactivations")


def _drive_handover(injector, event: FaultEvent):
    """A wifi<->cellular handover: a radio gap losing every packet,
    then the link is the other network type; after ``duration_ms`` the
    device hands back the same way."""
    yield from _until_start(injector, event)
    link, sim = injector.link, injector.sim
    original = link.network_type
    gap_ms = _num(event, "gap_ms", 150.0)

    def radio_gap():
        link.set_burst_loss(1.0, 0.0, loss_good=1.0, loss_bad=1.0)
        yield sim.timeout(gap_ms)
        link.clear_burst_loss()

    injector.mark(event, "activations")
    yield from radio_gap()
    link.network_type = str(event.params.get("to_type", NetworkType.LTE))
    if event.duration_ms > 0:
        yield sim.timeout(event.duration_ms)
        yield from radio_gap()
        link.network_type = original
        injector.mark(event, "deactivations")


# -- evidence ----------------------------------------------------------

@dataclass
class Evidence:
    """What one chaos run produced, as every row's ``check`` and
    ``explains`` read it."""
    scenario: Scenario
    rollups: RollupStore
    records: List[MeasurementRecord]
    stats: Dict[str, int]
    findings: List[Diagnosis]

    def stat(self, name: str, default: int = 0) -> int:
        return self.stats.get(name, default)

    def package(self, domain) -> Optional[str]:
        """The package of the scenario app served from ``domain``."""
        return {app.domain: app.package
                for app in self.scenario.apps}.get(domain)

    def peers(self, entry: LedgerEntry) -> int:
        """The scenario's events of the entry's kind (a cluster.*
        counter folds them all; an entry counts only its own)."""
        return sum(1 for e in self.scenario.events
                   if e.kind == entry.kind)

    def tcp_rtts(self, keep: Callable[[MeasurementRecord], bool]
                 ) -> List[float]:
        """Successful connect RTTs of the records ``keep`` admits."""
        return [r.rtt_ms for r in self.records
                if r.kind == MeasurementKind.TCP and r.failure is None
                and keep(r)]

    def failures_in_window(self, entry: LedgerEntry, kind: str,
                           failure: str, domain=None) -> int:
        end = _window_end(entry) + _WINDOW_SLACK_MS
        return sum(1 for r in self.records
                   if r.kind == kind and r.failure == failure
                   and (domain is None or r.domain == domain)
                   and entry.start_ms <= r.timestamp_ms <= end)

    def resynced(self) -> bool:
        """Every record the uploaders shipped was acknowledged."""
        return self.stat("uploader_records_acked") \
            == self.stat("store_records", -1)


def _window_end(entry: LedgerEntry) -> float:
    """The end of the fault window; duration 0 runs to the end."""
    return entry.end_ms if entry.end_ms > entry.start_ms \
        else float("inf")


# -- checks: (matched, what was seen) ----------------------------------

def _check_operator_flagged(ev: Evidence, entry: LedgerEntry):
    """Burst loss inflates connect RTT through SYN retransmission but
    not the surviving DNS samples (CORE); a spike inflates both
    (ACCESS)."""
    operator = entry.scope.get("operator")
    verdict = diagnose_operator(ev.rollups, operator,
                                MIN_SAMPLES).verdict
    return (verdict in (Verdict.ACCESS_NETWORK, Verdict.CORE_NETWORK),
            "operator %s diagnosed %s" % (operator, verdict))


def _check_server_outage(ev: Evidence, entry: LedgerEntry):
    domain, mode = entry.scope.get("domain"), _mode(entry, "refuse")
    if mode == "slow_accept":
        package = ev.package(domain)
        verdict = diagnose_app(ev.rollups, package, MIN_SAMPLES).verdict
        return (verdict == Verdict.SERVER_SIDE,
                "app %s diagnosed %s" % (package, verdict))
    failure = (FailureKind.REFUSED if mode == "refuse"
               else FailureKind.TIMEOUT)
    hits = ev.failures_in_window(entry, MeasurementKind.TCP, failure,
                                 domain=domain)
    return (hits > 0, "%d %s failure records for %s in window"
            % (hits, failure, domain))


def _check_dns_outage(ev: Evidence, entry: LedgerEntry):
    hits = ev.failures_in_window(entry, MeasurementKind.DNS,
                                 FailureKind.TIMEOUT)
    return hits > 0, "%d DNS timeout failure records in window" % hits


def _check_vpn_revoke(ev: Evidence, entry: LedgerEntry):
    """Revoked, running again, no sample starting inside the window
    (teardown slack on its leading edge) and samples after it."""
    revoked = ev.stat("vpn_revocations")
    recovered = ev.stat("service_running") \
        == ev.stat("workloads_completed")
    gap_lo = entry.start_ms + _WINDOW_SLACK_MS
    in_gap = sum(1 for r in ev.records
                 if gap_lo <= r.timestamp_ms <= entry.end_ms)
    after = sum(1 for r in ev.records if r.timestamp_ms > entry.end_ms)
    return (revoked >= entry.activations and recovered and in_gap == 0
            and after > 0,
            "revocations=%d recovered=%s gap_records=%d records_after=%d"
            % (revoked, recovered, in_gap, after))


def _check_backend_crash(ev: Evidence, entry: LedgerEntry):
    """Uploads disrupted and re-synced; every crash followed by a real
    WAL/segment recovery, and every world's recovered rollups equal to
    a store built from its own records."""
    crashes, recoveries = ev.stat("backend_crashes"), \
        ev.stat("backend_recoveries")
    disrupted = ev.stat("uploader_failures") \
        + ev.stat("uploader_ack_timeouts")
    resynced = ev.resynced()
    recovered = recoveries > 0 and ev.stat(
        "backend_rollup_matches_store", -1) == ev.stat("workloads_completed")
    return (crashes > 0 and disrupted > 0 and resynced and recovered,
            "crashes=%d recoveries=%d upload_disruptions=%d "
            "resynced=%s rollups_recovered=%s"
            % (crashes, recoveries, disrupted, resynced, recovered))


def _check_handover(ev: Evidence, entry: LedgerEntry):
    operator = entry.scope.get("operator")
    types = {r.network_type for r in ev.records if r.operator == operator}
    return (len(types) >= 2, "operator %s records carry network types %s"
            % (operator, sorted(types)))


def _cluster_check(ev: Evidence, entry: LedgerEntry, name: str,
                   extras: List[str], ok: bool = True,
                   resynced: bool = True):
    """``cluster_<name>`` observed once per injection per world, zero
    record loss, the merged rollup equal to a single-collector
    reference and (``resynced``) every shipped record acknowledged."""
    seen = ev.stat("cluster_" + name)
    expected = entry.activations * ev.peers(entry)
    worlds = ev.stat("workloads_completed")
    holds = [("zero_loss", ev.stat("cluster_zero_loss", -1) == worlds),
             ("merged_matches_reference",
              ev.stat("cluster_rollup_matches_reference", -1) == worlds)]
    if resynced:
        holds.append(("resynced", ev.resynced()))
    return (seen == expected and seen > 0 and ok
            and all(held for _, held in holds),
            " ".join(["%s=%d/%d" % (name, seen, expected)] + extras
                     + ["%s=%s" % pair for pair in holds]))


def _check_collector_fail(ev: Evidence, entry: LedgerEntry):
    return _cluster_check(ev, entry, "failovers", [
        "rehomed_uploaders=%d" % ev.stat("uploader_rehomes")])


def _check_net_partition(ev: Evidence, entry: LedgerEntry):
    """A partition is not a failure: observed and healed per the plan
    without a single failover."""
    heals = ev.stat("cluster_heals")
    healed = entry.deactivations * ev.peers(entry)
    no_failover = ev.stat("cluster_failovers") == 0
    return _cluster_check(
        ev, entry, "partitions",
        ["heals=%d/%d" % (heals, healed), "no_failover=%s" % no_failover],
        ok=heals == healed and no_failover)


def _check_node_join(ev: Evidence, entry: LedgerEntry):
    """The coordinator raises if a join moves a key the ring's
    minimal-movement bound forbids, so reaching here means it held."""
    return _cluster_check(ev, entry, "joins", [
        "keys_moved=%d" % ev.stat("cluster_keys_moved"),
        "dedup_handoffs=%d" % ev.stat("cluster_dedup_handoffs")],
        resynced=False)


def _check_coex_bulk(ev: Evidence, entry: LedgerEntry):
    """``rules.coexistence_verdict`` -- the predicate the online
    detector applies to rollups -- over the raw records."""
    operator = entry.scope.get("operator")
    bulk = sum(1 for r in ev.records
               if r.kind in (MeasurementKind.TPUT_UP,
                             MeasurementKind.TPUT_DOWN)
               and r.app_package == rules.COEX_BULK_PACKAGE)
    faulted = ev.tcp_rtts(lambda r: r.operator == operator)
    peers = ev.tcp_rtts(lambda r: r.operator != operator)
    if not faulted or not peers:
        return (False, "no TCP samples to compare (faulted=%d peer=%d)"
                % (len(faulted), len(peers)))
    median, peer_median = (statistics.median(faulted),
                           statistics.median(peers))
    return (rules.coexistence_verdict(median, peer_median, bulk),
            "operator %s median %.1f ms vs peers %.1f ms with %d bulk "
            "throughput samples" % (operator, median, peer_median, bulk))


def _check_transparent_proxy(ev: Evidence, entry: LedgerEntry):
    """``rules.proxy_divergence_verdict`` -- the predicate
    ProxyDivergenceRule applies online -- over the raw records."""
    operator = entry.scope.get("operator")
    syn = ev.tcp_rtts(lambda r: r.operator == operator)
    app = [r.rtt_ms for r in ev.records
           if r.kind == MeasurementKind.APP_RTT and r.operator == operator]
    if not syn or not app:
        return (False, "no RTT samples to compare (syn=%d app=%d)"
                % (len(syn), len(app)))
    syn_median, app_median = statistics.median(syn), statistics.median(app)
    return (rules.proxy_divergence_verdict(syn_median, app_median,
                                           len(app)),
            "operator %s syn median %.1f ms vs app-layer median %.1f ms "
            "over %d app samples"
            % (operator, syn_median, app_median, len(app)))


def _check_noisy_clock(ev: Evidence, entry: LedgerEntry):
    """Each configured source charged its counter; with quantisation
    alone every successful SYN RTT in the window is on the grid (both
    ends on it, so their difference is)."""
    quantum = _num(entry, "quantum_ms", 0.0)
    jitter = _num(entry, "jitter_ms", 0.0)
    quantised = ev.stat("imperfect_quantised_samples")
    jittered = ev.stat("imperfect_jitter_applied")
    ok = (quantum <= 0 or quantised > 0) and (jitter <= 0 or jittered > 0)
    on_grid = True
    if quantum > 0 and jitter <= 0:
        end = _window_end(entry)
        rtts = ev.tcp_rtts(lambda r: entry.start_ms <= r.timestamp_ms
                           <= end)
        on_grid = all(abs(rtt / quantum - round(rtt / quantum)) < 1e-9
                      for rtt in rtts)
        ok = ok and bool(rtts) and on_grid
    return (ok, "quantised_reads=%d jitter_applied=%d "
            "rtts_on_%.1fms_grid=%s" % (quantised, jittered, quantum,
                                        on_grid))


# -- explains: (finding kind, subject) pairs ---------------------------

def _own_operator(ev: Evidence, entry: LedgerEntry) -> List[tuple]:
    return [("operator", entry.scope.get("operator"))]


def _coex_explains(ev: Evidence, entry: LedgerEntry) -> List[tuple]:
    """Its operator, and the bulk app: the fault's own traffic."""
    return _own_operator(ev, entry) + [("app", rules.COEX_BULK_PACKAGE)]


def _proxy_explains(ev: Evidence, entry: LedgerEntry) -> List[tuple]:
    """The proxied operator's SYN median collapses to middlebox RTT:
    clean operators look inflated by contrast, and apps on ports it
    does not intercept look slow next to their proxied peers."""
    ports = {int(p) for p in entry.params.get("intercept_ports",
                                              (80, 443))}
    return (_own_operator(ev, entry)
            + [("operator", f.subject) for f in ev.findings
               if f.kind == "operator"]
            + [("app", app.package) for app in ev.scenario.apps
               if app.port not in ports])


# -- the rows ----------------------------------------------------------

def _counters(group: str, *names: str) -> Tuple[Tuple[str, str], ...]:
    """``(group_name, group.name)``: stat key and registry metric."""
    return tuple(("%s_%s" % (group, name), "%s.%s" % (group, name))
                 for name in names)


@dataclass
class FaultSpec:
    """One fault kind, said once."""
    kind: str
    #: Injector attributes that must not be None.
    needs: Tuple[str, ...]
    #: Key of :data:`SCOPES`.
    scope: Optional[str]
    #: ``(injector, event) -> generator``: the process that applies the
    #: event and marks the ledger through ``injector.mark``.
    drive: Callable
    #: ``(evidence, entry) -> (matched, text)``.
    check: Callable
    #: ``(evidence, entry) -> [(finding kind, subject)]``.
    explains: Callable = lambda ev, entry: ()
    #: ``(stat, registry metric)`` pairs.
    stats: Tuple[Tuple[str, str], ...] = ()

    def applies(self, injector, event: FaultEvent) -> bool:
        """Any ``device`` scope names this world's device (one check for
        every row), the components exist and the row's scope matches."""
        return event.scope.get("device") in (None, injector.device_id) \
            and all(getattr(injector, need) is not None
                    for need in self.needs) \
            and SCOPES[self.scope](injector, event)


FAULT_SPECS: Tuple[FaultSpec, ...] = (
    FaultSpec(FaultKind.BURST_LOSS, ("link",), "operator",
              _switch(_burst_loss_on,
                      lambda i, e, _: i.link.clear_burst_loss()),
              _check_operator_flagged, _own_operator),
    FaultSpec(FaultKind.LATENCY_SPIKE, ("link",), "operator",
              _switch(lambda i, e: i.link.set_latency_spike(
                  _num(e, "extra_ms", 100.0)),
                  lambda i, e, _: i.link.clear_latency_spike()),
              _check_operator_flagged, _own_operator),
    FaultSpec(FaultKind.SERVER_OUTAGE, (), "domain",
              _switch(lambda i, e: i.servers[e.scope["domain"]].set_outage(
                  _mode(e, "refuse"), slow_ms=_num(e, "slow_ms", 0.0)),
                  lambda i, e, _:
                  i.servers[e.scope["domain"]].clear_outage()),
              _check_server_outage,
              lambda ev, entry: [
                  ("app", ev.package(entry.scope.get("domain")))]),
    FaultSpec(FaultKind.DNS_OUTAGE, ("dns",), None,
              _switch(lambda i, e: i.dns.set_outage(_mode(e, "blackhole")),
                      lambda i, e, _: i.dns.clear_outage()),
              _check_dns_outage),
    FaultSpec(FaultKind.VPN_REVOKE, ("service",), "operator",
              _drive_vpn_revoke, _check_vpn_revoke),
    FaultSpec(FaultKind.BACKEND_CRASH, ("backend",), None,
              _switch(lambda i, e: i.backend.crash(_mode(e, "refuse")),
                      lambda i, e, _: i.backend.restart()),
              _check_backend_crash),
    FaultSpec(FaultKind.HANDOVER, ("link",), "operator",
              _drive_handover, _check_handover, _own_operator),
    FaultSpec(FaultKind.COLLECTOR_FAIL, ("cluster",), "active node",
              _switch(lambda i, e: i.cluster.fail_node(
                  _node(e), _mode(e, "refuse"))),
              _check_collector_fail),
    FaultSpec(FaultKind.NET_PARTITION, ("cluster",), "active node",
              _switch(lambda i, e: i.cluster.partition_node(
                  _node(e), _mode(e, "blackhole")),
                  lambda i, e, _: i.cluster.heal_node(_node(e))),
              _check_net_partition),
    FaultSpec(FaultKind.NODE_JOIN, ("cluster",), "standby node",
              _switch(lambda i, e: i.cluster.join_node(_node(e))),
              _check_node_join),
    FaultSpec(FaultKind.COEX_BULK, ("service", "link"), "operator",
              _switch(_coex_bulk_on, _coex_bulk_off),
              _check_coex_bulk, _coex_explains),
    FaultSpec(FaultKind.TRANSPARENT_PROXY, ("middlebox",), "operator",
              _switch(_proxy(True), _proxy(False)),
              _check_transparent_proxy, _proxy_explains,
              stats=_counters("mbox", "intercepted_connects",
                              "split_connections", "upstream_failures",
                              "dns_tcp_refused", "rewritten_bytes",
                              "bytes_up", "bytes_down")),
    FaultSpec(FaultKind.NOISY_CLOCK, ("service",), "operator",
              _switch(_clock_on, lambda i, e, clock: clock.uninstall()),
              _check_noisy_clock, _own_operator,
              stats=_counters("imperfect", "quantised_samples",
                              "jitter_applied")),
)

#: :data:`FAULT_SPECS` by kind.
SPEC_BY_KIND: Dict[str, FaultSpec] = {spec.kind: spec
                                      for spec in FAULT_SPECS}

__all__ = ["Evidence", "FAULT_SPECS", "FaultSpec", "SCOPES",
           "SPEC_BY_KIND"]
