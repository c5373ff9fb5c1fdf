"""MeasurementUploader: ships collected records to the backend.

The deployed MopEye uploaded crowdsourced measurements periodically;
uploading itself must not distort the measurements, so the uploader

* batches records and uploads only every ``interval_ms``;
* by default uploads only while the device is on WiFi (no cellular
  data cost for volunteers, and no radio-promotion interference);
* uses MopEye's own UID, whose traffic bypasses the tunnel via the
  section 3.5.2 exemption -- uploads never appear as app measurements.

Protocol v2 (see docs/BACKEND.md): every batch carries the device id
and a batch sequence number (``PUSH2 <nbytes> <seq> <device_id>``), so
the backend can deduplicate replays.  That makes three failure paths
safe to retry with the *same* payload and sequence number:

* connect failure -- nothing reached the backend;
* ACK timeout -- the payload or the ACK was lost; the backend may have
  ingested the batch, and the replay returns the cached ACK;
* ``BUSY <retry_ms>`` -- the backend shed the batch; the uploader backs
  off for the hinted time plus deterministic jitter.

Only after an ACK (full or short) is the in-flight batch discarded;
changed content always travels under a fresh sequence number, keeping
the (device_id, seq) -> payload mapping stable, which is what the
dedup cache's idempotency relies on.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.core.persist import encode_batch
from repro.core.records import MeasurementKind, MeasurementRecord
from repro.network.link import NetworkType
from repro.phone.ktcp import (
    ConnectionRefused,
    ConnectTimeout,
    NetworkUnreachable,
)
from repro.sim.kernel import Event


class MeasurementUploader:
    def __init__(self, service, collector_ip: str,
                 collector_port: int = 443,
                 interval_ms: float = 60_000.0,
                 min_batch: int = 10,
                 wifi_only: bool = True,
                 ack_timeout_ms: float = 10_000.0,
                 max_batch: Optional[int] = None,
                 isn_rng: Optional[random.Random] = None,
                 emit_aoi: bool = False):
        self.service = service
        self.device = service.device
        self.sim = service.sim
        self.collector_ip = collector_ip
        self.collector_port = collector_port
        self.interval_ms = interval_ms
        self.min_batch = min_batch
        self.wifi_only = wifi_only
        self.ack_timeout_ms = ack_timeout_ms
        #: Cap on records per batch (None = everything pending).
        self.max_batch = max_batch
        #: Age-of-information modality (docs/MODALITIES.md): when on,
        #: each ACK emits one AOI record per acknowledged measurement,
        #: carrying creation-to-ACK staleness in ``rtt_ms``.  Off by
        #: default -- ACK timing depends on the collector deployment
        #: (e.g. it varies with cluster node count), so worlds whose
        #: digests must be invariant to that leave it off.
        self.emit_aoi = emit_aoi
        self.obs = service.obs
        self.device_id = self.device.model
        self._cursor = 0           # store index of first un-uploaded
        self._seq = 0              # next batch sequence number
        # (seq, payload, count) retained verbatim across failed
        # attempts; cleared on any ACK.
        self._inflight: Optional[Tuple[int, bytes, int]] = None
        # The records behind the in-flight payload, kept so an ACK can
        # compute each one's staleness without re-parsing the payload.
        self._inflight_records: Optional[list] = None
        self._backoff_until = 0.0
        # Deterministic jitter stream, keyed on the device identity.
        self._rng = random.Random("uploader|%s" % self.device_id)
        # Optional dedicated ISN stream for upload sockets.  In cluster
        # worlds the number of upload connects varies with node count
        # (failover refusals, retries); drawing those ISNs from the
        # shared device stream would shift later measurement-side
        # draws and break the digest invariant across --nodes.
        self._isn_rng = isn_rng
        self.running = False
        self._thread: Optional[Event] = None
        self._flush_active = False

    # Registry-backed views of the upload counters.
    @property
    def uploaded(self) -> int:
        """Records acknowledged by the collector."""
        return int(self.obs.value("uploader.records_acked"))

    @property
    def batches(self) -> int:
        return int(self.obs.value("uploader.batches"))

    @property
    def failures(self) -> int:
        return int(self.obs.value("uploader.failures"))

    @property
    def short_acks(self) -> int:
        """Batches the collector part-ACKed."""
        return int(self.obs.value("uploader.short_acks"))

    @property
    def deferred_cellular(self) -> int:
        return int(self.obs.value("uploader.deferred_cellular"))

    @property
    def busy_backoffs(self) -> int:
        return int(self.obs.value("uploader.busy_backoffs"))

    @property
    def ack_timeouts(self) -> int:
        return int(self.obs.value("uploader.ack_timeouts"))

    @property
    def rehomes(self) -> int:
        """Times the home collector changed under this uploader."""
        return int(self.obs.value("uploader.rehomes"))

    def start(self) -> None:
        if self.running:
            raise RuntimeError("uploader already running")
        self.running = True
        self._thread = self.sim.process(self._run(), name="uploader")

    def stop(self) -> None:
        """Stop the periodic thread and flush what remains.

        Without the flush, records below ``min_batch`` at shutdown
        would be stranded forever (the volunteer uninstalls, the tail
        of their data never ships).  The flush ignores ``min_batch``
        but still honours ``wifi_only``: shutdown does not justify
        cellular spend."""
        self.running = False
        self._flush_active = True
        self.sim.process(self._final_flush(), name="uploader-flush")

    def rehome(self, collector_ip: str) -> None:
        """Point the uploader at a new home collector.

        The coordinator calls this when the device's placement changes
        (failover or rebalance).  The in-flight batch, if any, is NOT
        rebuilt: ``_next_batch`` returns it verbatim and the next
        attempt connects to the new address, so the batch travels
        under its original ``(device_id, seq)`` identity and the
        successor's (handed-off) dedup cache absorbs a replay of
        anything the dead node already ingested.  Re-homing to the
        *same* address is a pure ``kick()`` -- how a healed partition
        re-drives a stranded shutdown flush."""
        if collector_ip != self.collector_ip:
            self.collector_ip = collector_ip
            self.obs.inc("uploader.rehomes")
        self.kick()

    def kick(self) -> None:
        """Re-drive the shutdown flush if it gave up.

        ``_final_flush`` deliberately stops on no-progress (backend
        down); when the cluster re-homes or heals after that, the
        stranded tail must ship or the global-vs-single digest
        invariant breaks.  No-op while the periodic thread or a flush
        is still active -- they will pick the records up themselves."""
        if self.running or self._flush_active:
            return
        if self._inflight is None and not self._pending():
            return
        self._flush_active = True
        self.sim.process(self._final_flush(), name="uploader-kick")

    # -- internals -----------------------------------------------------------
    def _pending(self) -> list:
        return self.service.store.since(self._cursor)

    def _run(self):
        while self.running:
            yield self.sim.timeout(self.interval_ms)
            if not self.running:
                return
            if self.sim.now < self._backoff_until:
                continue
            if self._inflight is None and \
                    len(self._pending()) < self.min_batch:
                continue
            if self.wifi_only and \
                    self.device.link.network_type != NetworkType.WIFI:
                self.obs.inc("uploader.deferred_cellular")
                continue
            yield from self._upload()

    def _final_flush(self):
        try:
            if self.wifi_only and \
                    self.device.link.network_type != NetworkType.WIFI:
                self.obs.inc("uploader.deferred_cellular")
                return
            while self._inflight is not None or self._pending():
                before = self._cursor
                had_inflight = self._inflight is not None
                self.obs.inc("uploader.final_flush")
                yield from self._upload()
                if self._cursor == before and \
                        (had_inflight or self._inflight is not None):
                    # No progress (backend down or shedding): records
                    # stay in the store; a future start() or a cluster
                    # kick() retries them.
                    return
        finally:
            self._flush_active = False

    def _next_batch(self) -> Optional[Tuple[int, bytes, int]]:
        """The batch to send: the in-flight one verbatim, or a fresh
        payload under a fresh sequence number."""
        if self._inflight is not None:
            return self._inflight
        records = self._pending()
        if not records:
            return None
        if self.max_batch is not None:
            records = records[:self.max_batch]
        payload = encode_batch(records)
        self._inflight = (self._seq, payload, len(records))
        self._inflight_records = list(records)
        self._seq += 1
        return self._inflight

    def _emit_aoi(self, acked_records: list) -> None:
        """Record the age-of-information of just-ACKed measurements.

        Each acknowledged record contributes one AOI sample: the time
        between its creation and the collector's acknowledgement --
        the staleness the serving tier would observe had it been
        queried an instant before the upload landed.  AOI records
        themselves are skipped (they are created at ACK time, so their
        staleness is the *next* upload's latency, and recursing would
        keep the store from ever draining at shutdown).
        """
        now = self.sim.now
        link = self.device.link
        for record in acked_records:
            if record.kind == MeasurementKind.AOI:
                continue
            self.service.store.add(MeasurementRecord(
                kind=MeasurementKind.AOI,
                rtt_ms=max(0.0, now - record.timestamp_ms),
                timestamp_ms=now,
                app_package=record.app_package,
                network_type=link.network_type,
                operator=link.operator,
                device_id=self.device_id))
            self.obs.inc("uploader.aoi_records")

    def _upload(self):
        obs = self.obs
        batch = self._next_batch()
        if batch is None:
            return
        seq, payload, count = batch
        socket = self.device.create_tcp_socket(self.service.uid,
                                               isn_rng=self._isn_rng)
        span = obs.start_span("uploader.upload", records=count, seq=seq)
        started = self.sim.now
        try:
            yield socket.connect(self.collector_ip,
                                 self.collector_port)
        except (ConnectionRefused, ConnectTimeout,
                NetworkUnreachable) as exc:
            obs.inc("uploader.failures")
            obs.end_span(span, outcome=type(exc).__name__)
            return
        socket.send(b"PUSH2 %d %d %s\n" % (
            len(payload), seq, self.device_id.encode("utf-8")))
        socket.send(payload)
        # Nothing in the simulated stacks retransmits data, so a lost
        # payload or ACK would park this process forever; race the
        # recv against a deadline and retry idempotently.
        recv = socket.recv()
        deadline = self.sim.timeout(self.ack_timeout_ms)
        fired = yield self.sim.any_of([recv, deadline])
        if recv not in fired:
            socket.abort()
            obs.inc("uploader.ack_timeouts")
            obs.inc("uploader.failures")
            obs.end_span(span, outcome="ack_timeout")
            return
        response = fired[recv]
        socket.close()
        obs.observe("uploader.ack_latency_ms", self.sim.now - started)
        if response.startswith(b"ACK"):
            if self._inflight is None or self._inflight[0] != seq:
                # A concurrent attempt (periodic upload racing the
                # shutdown flush) already consumed this batch's ACK --
                # the collector deduplicated the replay, so counting
                # this one too would over-advance the cursor.
                obs.inc("uploader.stale_acks")
                obs.end_span(span, outcome="stale_ack")
                return
            try:
                acked = int(response.split()[1])
            except (IndexError, ValueError):
                acked = count
            # Advance only past what the collector acknowledged: a
            # short ACK leaves the unacked tail pending, so the next
            # interval retries it instead of silently dropping it.
            acked = max(0, min(acked, count))
            acked_records = (self._inflight_records or [])[:acked]
            self._cursor += acked
            self._inflight = None
            self._inflight_records = None
            obs.inc("uploader.records_acked", acked)
            obs.inc("uploader.batches")
            if acked < count:
                obs.inc("uploader.short_acks")
            if self.emit_aoi:
                self._emit_aoi(acked_records)
            obs.end_span(span, acked=acked)
        elif response.startswith(b"BUSY"):
            try:
                retry_ms = float(response.split()[1])
            except (IndexError, ValueError):
                retry_ms = self.interval_ms
            # Hinted wait plus up to 50% deterministic jitter, so a
            # fleet sharing one hint does not stampede back in step.
            self._backoff_until = self.sim.now + retry_ms * (
                1.0 + 0.5 * self._rng.random())
            obs.inc("uploader.busy_backoffs")
            obs.end_span(span, outcome="busy", retry_ms=retry_ms)
        else:
            obs.inc("uploader.failures")
            obs.end_span(span, outcome="bad_response")
