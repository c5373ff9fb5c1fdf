"""One model of the store: ``StoreEngine`` held to a reference
``RollupStore`` over what was ACKed, every durable step a crash point.

:class:`Disk` wraps ``durable._step`` (the real step always runs) to
number the steps, raise in place of the k-th, and keep what a power
loss would leave.  A crash is ``engine.crash()``, the process's death,
or that and :meth:`Disk.lose_power`.  :class:`StoreMachine` samples
the store's operations and crashes at any step of the next one;
``TestEveryCrashPoint`` drives it through one fixed workload crashed
at every seam step in both modes.
"""

import bisect
import contextlib
import itertools
import json
import os
import shutil
import stat
import tempfile
import threading
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.backend.ingest import IngestPipeline
from repro.backend.rollups import DEFAULT_WINDOW_MS, TABLE_SPECS, RollupStore
from repro.core.persist import encode_batch
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.serve.engine import QueryEngine
from repro.store import StoreConfig, StoreEngine, durable
from repro.store.encoding import frame
from repro.store.engine import MANIFEST_NAME, QUARANTINE_DIR, SEGMENT_DIR
from tests.conftest import CLOSES_WHAT_IT_OPENS

pytestmark = CLOSES_WHAT_IT_OPENS

_REAL_STEP = durable._step
DAY_MS = 24 * 3600 * 1000.0


class _Crash(Exception):
    """The process dies in place of this durable step."""


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


class Disk:
    """Each file's bytes as of its last fsync and each directory's
    entries as of its last sync, under ``root``.  A file's identity is
    its inode's until the seam unlinks it, so a reused inode number is
    a new file."""

    def __init__(self, root):
        self.root, self.steps, self.crash_at = root, [], None
        self._next = itertools.count()
        self.settle()

    def step(self, obs, kind, path, call, *args):
        if len(self.steps) + 1 == self.crash_at:
            raise _Crash("%s %s" % (kind, path))
        if kind in ("rename", "remove") and os.path.exists(path):
            self._ids.pop(self._key(os.stat(path)), None)
        result = _REAL_STEP(obs, kind, path, call, *args)
        self.steps.append((kind, os.path.abspath(path), obs))
        if kind == "fsync":
            self._synced[self._id(os.fstat(args[0]))] = _read(path)
        elif kind == "dir_sync":
            self._entries[self._id(os.fstat(args[0]))] = self._list(path)
        return result

    @staticmethod
    def _key(info):
        return info.st_dev, info.st_ino

    def _id(self, info):
        return self._ids.setdefault(self._key(info), next(self._next))

    def _list(self, folder):
        return {name: (self._id(info), stat.S_ISDIR(info.st_mode))
                for name in os.listdir(folder)
                for info in [os.stat(os.path.join(folder, name))]}

    def _files(self):
        for folder, _dirs, names in os.walk(self.root):
            for path in (os.path.join(folder, name) for name in names):
                yield path, self._key(os.stat(path))

    def settle(self):
        """Take everything under ``root`` as durable as it stands."""
        self._ids = {}
        self._entries = {self._id(os.stat(folder)): self._list(folder)
                         for folder, _dirs, _names in os.walk(self.root)}
        self._synced = {self._ids[key]: _read(path)
                        for path, key in self._files()}

    def lose_power(self):
        """Only synced entries survive; a file keeps its fsynced bytes
        and the first half of what was appended after them (a torn
        write); a directory never synced comes back empty."""
        now = {self._ids[key]: _read(path) for path, key in self._files()
               if key in self._ids}

        def image(folder, ident):
            os.mkdir(folder)
            for name, (entry, is_dir) in self._entries.get(ident, {}).items():
                if is_dir:
                    image(os.path.join(folder, name), entry)
                    continue
                synced = self._synced.get(entry, b"")
                tail = now.get(entry, synced)
                tail = tail[len(synced):] if tail.startswith(synced) else b""
                with open(os.path.join(folder, name), "wb") as handle:
                    handle.write(synced + tail[:len(tail) // 2])

        root = self._id(os.stat(self.root))
        shutil.rmtree(self.root)
        image(self.root, root)
        self.settle()


@contextlib.contextmanager
def _hooked(disk):
    durable._step = disk.step
    try:
        yield disk
    finally:
        durable._step = _REAL_STEP


def _records(start, n, device="dev-up"):
    return [MeasurementRecord(
        kind="TCP", rtt_ms=12.0 + (i * 7) % 90, timestamp_ms=i * 9 * DAY_MS,
        app_package="com.app.%d" % (i % 3), app_uid=10001,
        dst_ip="203.0.113.1", dst_port=443, domain="d%d.example" % (i % 2),
        network_type="LTE" if i % 3 else "WIFI", operator="Op%d" % (i % 2),
        country="US", device_id=device) for i in range(start, start + n)]


def _store(records=(), segments=None):
    store = RollupStore()
    if segments is not None:
        store.merge(segments)
    store.add_all(records)
    return store


def _digest(engine):
    return (engine.materialize() if engine else RollupStore()).digest()


def _descriptors(root):
    """How many descriptors this process holds under ``root`` (an
    unlinked file's too): under ``segments/``, and elsewhere."""
    root, found = os.path.realpath(root) + os.sep, [0, 0]
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            target = os.readlink(os.path.join("/proc/self/fd", fd))
            if target.startswith(root):
                found[not target.startswith(root + SEGMENT_DIR)] += 1
    return tuple(found)


class StoreMachine(RuleBasedStateMachine):
    """The model is what was ACKed: the records the memtable holds,
    the rollups the segments hold (apart, as retention evicts windows
    from segments only) and the dedup table.  After a crash, recovery
    must come back to a state the operation in flight could have made
    durable -- one of ``allowed``'s digests, when they are known -- and
    the model adopts it."""

    CONFIG = dict(flush_threshold_records=10, checkpoint_interval_records=4,
                  retention_ms=2 * DEFAULT_WINDOW_MS)

    def __init__(self, config=None):
        super().__init__()
        self.config = config or self.CONFIG
        self.tmp = tempfile.mkdtemp(prefix="store-model-")
        os.mkdir(os.path.join(self.tmp, "store"))
        self.disk = Disk(os.path.join(self.tmp, "store"))
        self.obs = Observability()
        with _hooked(self.disk):
            self.engine = StoreEngine(self.disk.root, obs=self.obs,
                                      config=StoreConfig(**self.config))
        self.pipeline = IngestPipeline(obs=self.obs, store=self.engine,
                                       rate_capacity=1e9)
        self.queries = QueryEngine(self.engine, obs=self.obs)
        self.segments, self.memtable, self.acked = RollupStore(), [], {}
        self.payloads, self.views, self.taken = {}, [], 0
        #: ``(k, power)``: crash the next operation at its k-th step.
        self.armed = None
        #: After a crash, until recovered: the operation in flight.
        self.down = None
        self.allowed, self.quarantined = None, False
        #: Adopt each state without checking it (a replayed prefix).
        self.trusted = False

    def teardown(self):
        try:
            for view in self.views:
                view.close()
            self.engine.close()
            assert _descriptors(self.disk.root) == (0, 0)
        finally:
            shutil.rmtree(self.tmp)

    def _fresh(self, n, device):
        self.taken += n
        return _records(self.taken - n, n, device)

    def _adopt(self, kind, records=(), key=None, cutoff=None, done=True):
        """Move the model to the engine's state, which must be one the
        operation could have left, done or cut short: its first ``m``
        records taken (``m`` by the count the engine holds), the
        memtable's records the last of them, and, for a compaction,
        old windows evicted or not."""
        engine, records = self.engine, list(records)
        m = engine.memtable.records - self.segments.records - len(
            self.memtable) + sum(r.records for r in engine._live_readers())
        total = None if self.trusted else _digest(engine)
        held = self.memtable + records[:m]
        cut = len(held) - engine.memtable.records
        assert cut >= 0 and m in ([len(records)] if done else {
            0, len(records)} if kind == "upload" else range(
                len(records) + 1)), (kind, m)
        assert self.trusted or done or self.allowed is None \
            or total in self.allowed
        assert self.trusted or _store(held[cut:]).digest() \
            == engine.memtable.digest()
        for evict in [False] if cutoff is None else [True] if done \
                else [False, True]:
            segments = _store(held[:cut], self.segments)
            for spec in TABLE_SPECS if evict else ():
                rows = segments.tables[spec.name]
                for row in [row for row in rows if spec.windowed
                            and int(row[0]) < cutoff]:
                    del rows[row]
            if self.trusted \
                    or _store(held[cut:], segments).digest() == total:
                self.segments, self.memtable = segments, held[cut:]
                if key is not None and m:
                    self.acked[key] = m
                assert dict(engine.dedup) == self.acked
                return
        raise AssertionError("%s left a state the model does not allow"
                             % kind)

    def _crash(self, power, in_flight):
        self.engine.crash()
        self.pipeline.reset_volatile()
        if power:
            self.disk.lose_power()
        self.down = in_flight

    def _write(self, call, in_flight, adopt=None):
        """``call``, crashed at the armed step if any (after the call
        if it makes fewer); then the model moves on, by ``adopt`` or
        to ``in_flight`` done.  Returns the steps made."""
        armed, self.armed = self.armed, None
        threads, start = threading.active_count(), len(self.disk.steps)
        self.disk.crash_at = start + armed[0] if armed else None
        try:
            with _hooked(self.disk):
                call()
        except _Crash:
            pass
        else:
            (adopt or (lambda: self._adopt(*in_flight)))()
            in_flight = ("recover",)
        assert threading.active_count() == threads
        if armed:
            self._crash(armed[1], in_flight)
        return self.disk.steps[start:]

    def _recovered(self, in_flight):
        """The recovered state is a durable boundary of ``in_flight``;
        on disk are only what the manifest lists, the WAL generations
        above its watermark, and ``quarantine/`` once something was
        quarantined."""
        engine, root = self.engine, self.disk.root
        self._adopt(*in_flight, done=False)
        info = engine.last_recovery
        self.quarantined |= bool(info.segments_quarantined
                                 or info.checkpoints_quarantined)
        listed = {SEGMENT_DIR, *engine.checkpoint_names()} | {
            os.path.basename(path) for gen, _shard, path
            in engine._discover_wal_files() if gen > engine._covered_gen}
        listed |= {MANIFEST_NAME} & set(os.listdir(root))
        listed |= {QUARANTINE_DIR} if self.quarantined else set()
        assert set(os.listdir(root)) == listed
        assert set(os.listdir(os.path.join(root, SEGMENT_DIR))) \
            == set(engine.segment_names())

    @precondition(lambda self: self.down is None)
    @rule(n=st.integers(1, 4))
    def log_batch(self, n):
        records, key = self._fresh(n, "dev-up"), ("dev-up", len(self.payloads))
        payload = self.payloads[key] = encode_batch(records)
        writes = self.obs.value("store.flushes") \
            + self.obs.value("store.checkpoints")
        clean = self.armed is None
        steps = self._write(lambda: self.pipeline.handle_batch(
            *key, payload, 0.0), ("upload", records, key))
        if clean and writes == self.obs.value("store.flushes") \
                + self.obs.value("store.checkpoints"):
            # One seam step: the fsync of its WAL file.
            assert [step[:2] for step in steps] \
                == [("fsync", self.engine.wal.path)]

    @precondition(lambda self: self.down is None and self.acked)
    @rule(pick=st.integers(0, 255))
    def replay(self, pick):
        key = sorted(self.acked)[pick % len(self.acked)]
        start = len(self.disk.steps)
        with _hooked(self.disk):
            outcome = self.pipeline.handle_batch(*key, self.payloads[key],
                                                 0.0)
        assert outcome.duplicate and outcome.acked == self.acked[key]
        assert len(self.disk.steps) == start

    @precondition(lambda self: self.down is None)
    @rule(n=st.integers(1, 6))
    def append_records(self, n):
        records = self._fresh(n, "dev-load")
        self._write(lambda: self.engine.append_records(records),
                    ("load", records))

    @precondition(lambda self: self.down is None)
    @rule(name=st.sampled_from(["flush", "checkpoint"]))
    def flush_or_checkpoint(self, name):
        self._write(getattr(self.engine, name), (name,))

    @precondition(lambda self: self.down is None)
    @rule(force=st.booleans(), late=st.booleans())
    def compact(self, force, late):
        now = self.taken * 9 * DAY_MS if late else None
        cutoff = self.engine.rollup_config.window_of(
            now - self.config["retention_ms"]) if late else None
        self._write(lambda: self.engine.compact(now, force),
                    ("compact", (), None, cutoff))

    @precondition(lambda self: self.down is None)
    @rule(app=st.integers(0, 2), operator=st.integers(0, 1))
    def snapshot(self, app, operator):
        """A view stays open until the next but one, so it may pin
        segments compaction has retired; each panel equals its scan."""
        if len(self.views) == 2:
            self.views.pop(0).close()
        view = self.queries.snapshot()
        self.views.append(view)
        for panel, subject in ((view.app_panel, "com.app.%d" % app),
                               (view.network_panel, "Op%d" % operator)):
            assert json.dumps(panel(subject), sort_keys=True) \
                == json.dumps(panel(subject, scan=True), sort_keys=True)

    @precondition(lambda self: self.armed is None)
    @rule(k=st.one_of(st.integers(1, 3), st.integers(1, 12)),
          power=st.booleans())
    def arm_crash(self, k, power):
        self.armed = (k, power)

    @precondition(lambda self: self.down is not None)
    @rule()
    def recover(self):
        in_flight, self.down = self.down, None
        # Without a manifest, recovery moves every segment it finds
        # into quarantine/ (a .tmp it deletes).
        self.quarantined |= not os.path.exists(os.path.join(
            self.disk.root, MANIFEST_NAME)) and any(
                name.endswith(".seg") for name in os.listdir(
                    os.path.join(self.disk.root, SEGMENT_DIR)))
        self._write(self.engine.recover, in_flight,
                    lambda: self._recovered(in_flight))

    @invariant()
    def no_descriptor_outlives_its_holder(self):
        pinned = {id(reader._file) for reader in itertools.chain(
            self.engine._open.values(),
            *(view.readers for view in self.views))}
        assert _descriptors(self.disk.root) == (len(pinned),
                                                self.down is None)
        assert set(self.engine._open) <= set(self.engine.segment_names())

    @invariant()
    def each_seam_counter_is_its_step_count(self):
        kinds = Counter(kind for kind, _path, _obs in self.disk.steps)
        for kind, counter in durable._COUNTERS.items():
            assert self.obs.value(counter) == kinds[kind], kind


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None,
    derandomize=True)


# -- one fixed workload, crashed at every seam step --------------------

#: A flush at 40 records and a checkpoint every 16: the third upload
#: checkpoints; the load takes a checkpoint, a flush and its last one;
#: at the end the process dies with half a frame written, and
#: recovery cuts it.
CONFIG = dict(flush_threshold_records=40, checkpoint_interval_records=16)
WORKLOAD = [("log_batch", 6)] * 3 + [
    ("append_records", 30), ("flush_or_checkpoint", "flush"),
    ("compact", True, False), ("log_batch", 6),
    ("flush_or_checkpoint", "checkpoint"), ("log_batch", 6), ("tear",),
    ("recover",)]
#: The workload's seam steps by kind: a change to the durable sequence
#: of any operation is a named re-pin.
PINNED_STEPS = {"fsync": 26, "dir_sync": 21, "rename": 14, "remove": 10,
                "create": 6, "truncate": 1}


def _do(machine, op):
    name, *args = op
    if name != "tear":
        return getattr(machine, name)(*args)
    machine._crash(False, ("recover",))
    with open(machine.engine.wal_paths()[-1], "ab") as handle:
        handle.write(frame(b"never ACKed")[:12])


def _clean_run():
    """The workload uncrashed: its machine's steps and obs, the steps
    of each operation, and the digests of each one's durable
    boundaries: before it, after a flush or checkpoint in it, after
    it (while the store is up)."""
    machine, made, bounds, marks = StoreMachine(CONFIG), [], [], []
    for name in ("flush", "checkpoint"):
        def boundary(real=getattr(machine.engine, name)):
            result = real()
            marks.append(_digest(machine.engine))
            return result
        setattr(machine.engine, name, boundary)
    try:
        for op in WORKLOAD:
            start, before = len(machine.disk.steps), machine.down is None \
                and _digest(machine.engine)
            del marks[:]
            _do(machine, op)
            made.append(machine.disk.steps[start:])
            bounds.append({before, *marks, machine.down is None
                           and _digest(machine.engine)} - {False})
    finally:
        machine.teardown()
    return machine, made, bounds


def _crash_run(k, power, made, bounds):
    """The workload crashed in place of seam step ``k`` (past the last:
    at its end), then recovered under the machine's checks."""
    ends = list(itertools.accumulate(map(len, made)))
    at = bisect.bisect_left(ends, k)
    machine = StoreMachine(CONFIG)
    try:
        machine.trusted = True
        for op in WORKLOAD[:at]:
            _do(machine, op)
        machine.trusted = False
        machine.allowed = bounds[min(at, len(bounds) - 1)]
        if at < len(WORKLOAD):
            machine.armed = (k - ends[at] + len(made[at]), power)
            _do(machine, WORKLOAD[at])
            assert machine.down, "no crash: the step sequence is not fixed"
        else:
            machine._crash(power, ("recover",))
        machine.recover()
        machine.no_descriptor_outlives_its_holder()
        machine.each_seam_counter_is_its_step_count()
    finally:
        machine.teardown()


def _enumerate(power, first=False):
    """Every crash point of the workload in one mode: what failed."""
    try:
        _machine, made, bounds = _clean_run()
    except Exception as exc:
        return ["the workload: %r" % exc]
    found = []
    for k in range(1, sum(map(len, made)) + 2):
        try:
            _crash_run(k, power, made, bounds)
        except Exception as exc:
            found.append("step %d: %r" % (k, exc))
            if first:
                break
    return found


class TestEveryCrashPoint:
    """Whichever seam step the process dies or the power fails at,
    recovery comes back to a durable boundary of the operation in
    flight, and the machine's model and checks hold."""

    def test_the_workload_s_seam_steps_are_pinned(self):
        machine, made, _bounds = _clean_run()
        steps = [step for op in made for step in op]
        kinds = Counter(kind for kind, _path, _obs in steps)
        assert dict(kinds) == PINNED_STEPS
        assert set(kinds) == set(durable._COUNTERS) | {"fsync"}
        assert {obs for _kind, _path, obs in steps} == {machine.obs}
        for (name, *_args), op in zip(WORKLOAD, made):
            # A rename or a create is followed, within its call, by a
            # sync of its directory.
            for i, (kind, path, obs) in enumerate(op):
                assert kind not in ("rename", "create") or (
                    "dir_sync", os.path.dirname(path), obs) \
                    in op[i + 1:], (name, path)
        # Four uploads neither flush nor checkpoint: one step each,
        # the fsync of its WAL file (the machine's log_batch checks).
        assert [len(op) for op in made].count(1) == 4

    @pytest.mark.parametrize("power", [False, True],
                             ids=["process-crash", "power-loss"])
    def test_every_seam_step_recovers_a_durable_boundary(self, power):
        assert _enumerate(power) == []

    def test_a_lost_file_fsync_fails_the_power_loss_oracle(
            self, monkeypatch):
        def write_atomic(path, blob, obs=None):
            with open(path + durable.TMP, "wb") as handle:
                handle.write(blob)
            durable._step(obs, "rename", path, os.replace,
                          path + durable.TMP, path)
            durable.sync_dir(os.path.dirname(path), obs)
        monkeypatch.setattr(durable, "write_atomic", write_atomic)
        assert _enumerate(power=True, first=True)

    @pytest.mark.parametrize("case, k", [
        ("frame", 1), ("manifest", 9), ("generation", 3)])
    def test_a_power_loss_takes_back_nothing_recovery_served(
            self, tmp_path, case, k):
        """A dead process's write stays visible whether or not its sync
        returned -- a commit's fsync, the directory sync after a bulk
        load's manifest rename, or after a new WAL generation that the
        recovered engine then appends to -- so recovery syncs it."""
        root = str(tmp_path / "store")
        os.mkdir(root)
        with _hooked(Disk(root)) as disk:
            engine = StoreEngine(root, obs=Observability(), config=StoreConfig(
                flush_threshold_records=None))

            def upload(seq):
                engine.memtable.add_all(_records(3 * seq, 3))
                engine.log_batch("dev-up", seq, 3, _records(3 * seq, 3))
            if case == "generation":
                upload(0)
            disk.crash_at = len(disk.steps) + k
            with pytest.raises(_Crash):
                {"frame": lambda: upload(0), "generation": engine.checkpoint,
                 "manifest": lambda: engine.append_records(_records(0, 3))
                 }[case]()
            disk.crash_at, served = None, []
            for power in (False, True):
                engine.crash()
                if power:
                    disk.lose_power()
                engine.recover()
                if case == "generation" and not power:
                    upload(1)
                served.append((dict(engine.dedup), _digest(engine)))
            engine.close()
        assert served[1] == served[0] and served[0][1] != _digest(None)
