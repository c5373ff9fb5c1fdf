"""The collection server: upload protocol terminated onto the pipeline.

One header form is accepted -- anything else, the retired
``PUSH <nbytes>`` included, is a malformed header, counted and
answered ``ACK 0``:

*  ``PUSH2 <nbytes> <seq> <device_id>\\n`` + payload

and two responses exist:

*  ``ACK <count>\\n``   -- ``count`` is the number of records ingested
   from the *prefix* of the batch (ingestion stops at the first
   malformed line, so the uploader's cursor arithmetic is exact);
*  ``BUSY <retry_ms>\\n`` -- the batch was shed (rate limit or load);
   nothing was ingested; retry the same batch after the hint.

Uploads are idempotent: a replayed (device_id, seq) returns the
cached ACK without re-ingesting.

The ACK for an accepted batch is delayed by the pipeline's sim-time
ingest cost, so busy backends are slow backends, and the uploader's
``uploader.ack_latency_ms`` histogram sees real queueing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import Observability

from repro.backend.ingest import IngestLoadModel, IngestPipeline
from repro.backend.rollups import RollupStore
from repro.core.records import MeasurementStore
from repro.network.servers import AppServer, _ServerConnection


class BackendServer(AppServer):
    """An AppServer that terminates the upload protocol onto an
    :class:`IngestPipeline`."""

    def __init__(self, sim, ips, name: str = "collector",
                 obs: Optional[Observability] = None,
                 max_batch_records: Optional[int] = None,
                 load: Optional[IngestLoadModel] = None,
                 rate_capacity: float = 64.0,
                 rate_refill_per_min: float = 600.0,
                 data_dir: Optional[str] = None,
                 store_config=None,
                 node_id: Optional[str] = None,
                 **kwargs):
        super().__init__(sim, ips, name=name, **kwargs)
        # Per-instance scope by default: two collectors in one process
        # must not share counters (same rule as MopEyeService).
        self.obs = obs or Observability(sim=sim)
        #: Which cluster node this server is.  Falls back to ``name``
        #: for single-collector deployments; when given explicitly the
        #: id is stamped as a metric label so N nodes' ``backend.*`` /
        #: ``store.*`` snapshots never alias, and onto every failure
        #: record in :attr:`failure_log`.
        self.node_id = node_id or name
        if node_id is not None:
            self.obs.labels["node_id"] = node_id
        #: Crash/restart records, each tagged with the node identity.
        self.failure_log: list = []
        self.received = MeasurementStore()
        #: Durable storage.  ``data_dir`` builds a
        #: :class:`repro.store.StoreEngine` under that directory;
        #: without one the backend is RAM-only and a crash genuinely
        #: loses everything (no more pretending RAM is durable).
        self.store = None
        if data_dir is not None:
            from repro.store.engine import StoreEngine
            self.store = StoreEngine(data_dir, config=store_config,
                                     obs=self.obs)

        def _keep(records):
            # Read through self: a crash replaces the mirror.
            self.received.extend(records)

        self.pipeline = IngestPipeline(
            obs=self.obs, load=load, rate_capacity=rate_capacity,
            rate_refill_per_min=rate_refill_per_min,
            on_records=_keep, store=self.store)
        #: Server-side cap on records ACKed per batch (None = no cap);
        #: exercises the uploader's short-ACK retry tail.
        self.max_batch_records = max_batch_records
        self.crashes = 0
        self.recoveries = 0

    # -- fault hooks ---------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self.outage_mode is not None

    def crash(self, mode: str = "refuse") -> None:
        """The collector process dies: every live connection is gone
        (in-flight batches never get their ACK -- the uploader's
        ack-timeout + idempotent-replay path), and new SYNs are refused
        (process down, host up) or blackholed (host down) until
        restart().

        Volatile state dies with the process -- the rollup memtable,
        the dedup cache, the received-record mirror, token buckets and
        the load backlog are all genuinely cleared.  With a store
        engine attached, what survives is what the engine forced to
        disk (WAL frames + segments); without one, nothing survives,
        which is the honest semantics of a RAM-only collector."""
        self.set_outage(mode)
        self._connections.clear()
        self.crashes += 1
        self.failure_log.append({"node_id": self.node_id,
                                 "event": "crash", "mode": mode,
                                 "time_ms": self.sim.now})
        if self.store is not None:
            self.store.crash()
        self.received = MeasurementStore()
        self.pipeline.reset_volatile()

    def restart(self) -> None:
        """Bring the collector back.  With a store engine this is a
        real recovery: the memtable, dedup seeds and received records
        are rebuilt purely from the manifest + segments + WAL replay
        -- the in-memory state was discarded by crash()."""
        if self.store is not None:
            # WAL-tail records stream straight into the received
            # mirror; records already folded into a checkpoint or
            # segment exist only as aggregates and cannot be
            # re-materialised (recovery memory stays bounded by the
            # checkpoint interval, not the run length).
            self.store.recover(on_record=self.received.add)
            self.recoveries += 1
        self.failure_log.append({"node_id": self.node_id,
                                 "event": "restart",
                                 "time_ms": self.sim.now})
        self.clear_outage()

    @property
    def rollups(self) -> RollupStore:
        return self.pipeline.rollups

    # -- protocol ------------------------------------------------------

    def _on_request_bytes(self, key, conn: _ServerConnection,
                          data: bytes) -> None:
        buffer = conn.request
        buffer.extend(data)
        while True:
            if conn.upload_expected is None:
                newline = buffer.find(b"\n")
                if newline < 0:
                    return
                header = bytes(buffer[:newline])
                del buffer[:newline + 1]
                if not self._parse_header(key, conn, header):
                    continue
                continue
            if len(buffer) < conn.upload_expected:
                return
            payload = bytes(buffer[:conn.upload_expected])
            del buffer[:conn.upload_expected]
            conn.upload_expected = None
            self._handle_batch(key, conn, payload)

    def _parse_header(self, key, conn: _ServerConnection,
                      header: bytes) -> bool:
        """Sets ``conn.upload_expected`` (+ batch identity) on success;
        counts and ACK-0s malformed headers.  The byte count and the
        seq are ASCII digits and nothing else: ``int()`` would also
        take ``-5``, ``+5`` and ``1_0``, and a negative count cuts the
        next header and its payload into this batch."""
        try:
            tag, nbytes, seq, device = header.split(b" ", 3)
            if tag == b"PUSH2" and nbytes.isdigit() and seq.isdigit():
                conn.batch_device = device.decode("utf-8")
                conn.upload_expected = int(nbytes)
                conn.batch_seq = int(seq)
                return True
        except ValueError:      # too few fields, a device not UTF-8
            pass
        self.obs.inc("backend.malformed_headers")
        self._send_data(key, conn, b"ACK 0\n")
        return False

    def _handle_batch(self, key, conn: _ServerConnection,
                      payload: bytes) -> None:
        if self.max_batch_records is not None:
            payload = self._clip(payload, self.max_batch_records)
        outcome = self.pipeline.handle_batch(
            conn.batch_device, conn.batch_seq, payload,
            now_ms=self.sim.now)
        if outcome.status == "busy":
            self._send_data(key, conn,
                            b"BUSY %d\n" % max(1, round(outcome.retry_ms)))
            return
        reply = b"ACK %d\n" % outcome.acked
        if outcome.delay_ms > 0:
            # The ACK waits out the ingest cost in sim time.  If the
            # server crashes inside that window the ACK dies with the
            # process -- the batch was ingested but never acknowledged,
            # which is exactly the duplicate-replay case the dedup
            # cache exists for.
            delay = self.sim.timeout(outcome.delay_ms)

            def _ack_later(_evt, key=key, conn=conn, reply=reply):
                if not self.crashed:
                    self._send_data(key, conn, reply)

            delay.callbacks.append(_ack_later)
        else:
            self._send_data(key, conn, reply)

    @staticmethod
    def _clip(payload: bytes, max_records: int) -> bytes:
        lines = payload.split(b"\n")
        kept = [line for line in lines if line.strip()][:max_records]
        return b"\n".join(kept) + (b"\n" if kept else b"")
