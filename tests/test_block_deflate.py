"""Segment and checkpoint blocks are deflated by one helper,
``repro.store.encoding.deflate_frames``: on the calling thread and,
from ``PARALLEL_DEFLATE_MIN_BYTES`` of payload on a process that may
use two CPUs, one helper thread beside it.

Held to the sequential deflate it replaced -- every block on its own,
in order, on the caller -- every writer (flush, compaction, bulk load,
checkpoint) must write the same bytes on either side of the cut-over;
a block the helper thread fails on must fail the writer with nothing
published; and no writer call may leave a thread behind."""

import os
import sys
import threading
import zlib
from itertools import islice

import pytest

from repro.backend.rollups import RollupStore
from repro.crowd import Campaign, CampaignConfig
from repro.store import StoreConfig, StoreEngine, encoding, segments
from repro.store.encoding import (PARALLEL_DEFLATE_MIN_BYTES,
                                  deflate_frames, frame)
from repro.store.segments import SegmentReader, merge_segments, \
    write_checkpoint, write_segment
from tests.conftest import CLOSES_WHAT_IT_OPENS, read_file, tree_bytes

pytestmark = CLOSES_WHAT_IT_OPENS


def _sequential(payloads, level):
    """The reference: each payload deflated on its own, in order, on
    the calling thread."""
    return [frame(zlib.compress(payload, level)) for payload in payloads]


@pytest.fixture(scope="module")
def records():
    return list(islice(Campaign(config=CampaignConfig(
        scale=0.002, seed=2016)).iter_records(), 3000))


@pytest.fixture()
def threads_kept():
    """Fails the test if a thread outlives it."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


#: How the helper is set: sequential always, threaded whenever there
#: are two blocks (on any host), or as the module ships.
_MODES = ("sequential", "threaded", "as-shipped")


@pytest.fixture(params=_MODES)
def mode(request, monkeypatch):
    if request.param == "sequential":
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: False)
    elif request.param == "threaded":
        monkeypatch.setattr(encoding, "PARALLEL_DEFLATE_MIN_BYTES", 0)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
    return request.param


class TestTheHelper:
    @pytest.mark.parametrize("level", [1, 9])
    @pytest.mark.parametrize("sizes", [
        [], [0], [5000], [0, 0, 0], [40000, 1, 0, 3, 20000],
        [9000] * 17, [70000, 10, 70000]])
    def test_frames_equal_the_sequential_deflate(self, mode, level,
                                                 sizes, threads_kept):
        payloads = [bytes((i * 7 + j) % 251 // 50 for j in range(size))
                    for i, size in enumerate(sizes)]
        assert deflate_frames(payloads, level) \
            == _sequential(payloads, level)

    def test_both_sides_of_the_cut_over(self, monkeypatch, threads_kept):
        """Below ``PARALLEL_DEFLATE_MIN_BYTES`` every block is deflated
        on the caller; from it, the helper takes blocks too -- on a
        process that may use a second CPU, and on no other."""
        compress = zlib.compress
        idents = []

        def counted(payload, level):
            idents.append(threading.get_ident())
            return compress(payload, level)

        monkeypatch.setattr(zlib, "compress", counted)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
        half = PARALLEL_DEFLATE_MIN_BYTES // 2
        below = [b"a" * half, b"b" * (PARALLEL_DEFLATE_MIN_BYTES
                                      - half - 1)]
        assert deflate_frames(below, 9) == _sequential(below, 9)
        assert set(idents) == {threading.get_ident()}

        # From the cut-over the helper starts; let it take a block.
        helper_in = threading.Event()

        def waited(payload, level):
            if threading.current_thread() is threading.main_thread():
                helper_in.wait(timeout=10)
            else:
                helper_in.set()
            return counted(payload, level)

        monkeypatch.setattr(zlib, "compress", waited)
        del idents[:]
        at = below + [b"c"]
        assert deflate_frames(at, 9) == _sequential(at, 9)
        assert len(set(idents)) == 2

        monkeypatch.setattr(zlib, "compress", counted)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: False)
        del idents[:]
        assert deflate_frames(at, 9) == _sequential(at, 9)
        assert set(idents) == {threading.get_ident()}

    def test_one_block_is_deflated_on_the_caller(self, monkeypatch,
                                                 threads_kept):
        big = [b"x" * (4 * PARALLEL_DEFLATE_MIN_BYTES)]
        expected = _sequential(big, 1)
        compress = zlib.compress
        idents = []

        def counted(payload, level):
            idents.append(threading.get_ident())
            return compress(payload, level)

        monkeypatch.setattr(zlib, "compress", counted)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
        assert deflate_frames(big, 1) == expected
        assert idents == [threading.get_ident()]

    def test_concurrent_callers_under_a_short_switch_interval(
            self, monkeypatch, threads_kept):
        """Four callers at once -- eight threads on however many CPUs,
        switching every microsecond: a block lost or kept at another's
        index would show as a frame out of place, one taken twice as a
        deflate too many."""
        payloads = [bytes([i % 7]) * (40 + i) for i in range(120)]
        expected = _sequential(payloads, 6)
        compress = zlib.compress
        deflated = []

        def counted(payload, level):
            deflated.append(payload)
            return compress(payload, level)

        monkeypatch.setattr(zlib, "compress", counted)
        monkeypatch.setattr(encoding, "PARALLEL_DEFLATE_MIN_BYTES", 0)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
        wrong = []

        def caller():
            for _ in range(15):
                if deflate_frames(payloads, 6) != expected:
                    wrong.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert wrong == []
        assert len(deflated) == 4 * 15 * len(payloads)

    def test_the_affinity_mask_decides(self):
        """A second CPU is one the process may be scheduled on, not
        one the host has."""
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity masks on this platform")
        assert encoding._may_use_two_cpus() \
            == (len(os.sched_getaffinity(0)) > 1)


def _fill(root, records):
    """An engine through every writer: three ``append_records`` calls
    (a flush every 900 records, a checkpoint ending each), a
    ``bulk_load``, a forced compaction and a last checkpoint.  Each
    call must leave the thread count as it found it.  Returns the
    files after each call, with their bytes."""
    with StoreEngine(root, config=StoreConfig(
            flush_threshold_records=900)) as engine:
        calls = [lambda: engine.append_records(records[:1000]),
                 lambda: engine.append_records(records[1000:2600]),
                 lambda: engine.bulk_load(_store(records[2600:])),
                 lambda: engine.append_records(records[2600:2700]),
                 lambda: engine.compact(force=True),
                 engine.checkpoint]
        trees = []
        for call in calls:
            before = threading.active_count()
            call()
            assert threading.active_count() == before
            trees.append(tree_bytes(root))
    return trees


def _store(records):
    store = RollupStore()
    store.add_all(records)
    return store


class TestEveryWriter:
    def test_an_engine_writes_the_sequential_bytes(self, tmp_path, mode,
                                                   records, monkeypatch):
        """Flushes, checkpoints, a bulk load and a compaction, under
        the helper as ``mode`` sets it, write every file the
        sequential deflate writes."""
        written = _fill(str(tmp_path / "helper"), records)
        monkeypatch.setattr(segments, "deflate_frames", _sequential)
        assert written == _fill(str(tmp_path / "reference"), records)
        names = {name for tree in written for name in tree}
        assert any(name.endswith(".seg") for name in names)
        assert any(name.endswith(".ckpt") for name in names)

    @pytest.mark.parametrize("n", [0, 40, 3000])
    def test_each_writer_alone(self, tmp_path, mode, records, n,
                               threads_kept):
        """``write_segment``, ``MergedSegments.write`` and
        ``write_checkpoint`` of stores on either side of the cut-over
        (40 records are a few KB of payload, 3,000 a few hundred)
        against the same writers over the sequential deflate."""
        store = _store(records[:n])
        halves = [_store(records[:n // 2]), _store(records[n // 2:n])]
        for i, half in enumerate(halves):
            write_segment(str(tmp_path / ("in-%d.seg" % i)), half, i + 1)
        readers = [SegmentReader(str(tmp_path / ("in-%d.seg" % i)))
                   for i in range(2)]
        try:
            merged = merge_segments(readers, store.config)

            def write_all(prefix):
                before = threading.active_count()
                write_segment(prefix + ".seg", store, 7)
                merged.write(prefix + ".merged.seg", 8)
                write_checkpoint(prefix + ".ckpt", store, 3)
                assert threading.active_count() == before

            write_all(str(tmp_path / "helper"))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(segments, "deflate_frames", _sequential)
                write_all(str(tmp_path / "reference"))
        finally:
            for reader in readers:
                reader.close()
        for suffix in (".seg", ".merged.seg", ".ckpt"):
            assert read_file(str(tmp_path / ("helper" + suffix))) \
                == read_file(str(tmp_path / ("reference" + suffix)))


class TestAFailedBlock:
    @pytest.mark.parametrize("writer", ["segment", "merged", "checkpoint"])
    def test_fails_the_writer_and_publishes_nothing(
            self, tmp_path, records, monkeypatch, writer, threads_kept):
        """The helper thread raises on the first block it takes (the
        caller waits for it to): the writer raises that error, after
        the helper is joined, and neither the file nor its ``.tmp`` is
        left behind."""
        store = _store(records[:2000])
        write_segment(str(tmp_path / "in.seg"), store, 1)
        with SegmentReader(str(tmp_path / "in.seg")) as reader:
            merged = merge_segments([reader], store.config)
        helper_failed = threading.Event()

        def failing(payload, level):
            if threading.current_thread() is not threading.main_thread():
                helper_failed.set()
                raise MemoryError("the helper's block")
            helper_failed.wait(timeout=10)
            return zlib.compress(payload, level)

        monkeypatch.setattr(encoding, "PARALLEL_DEFLATE_MIN_BYTES", 0)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
        monkeypatch.setattr(encoding, "zlib", _Zlib(failing))
        path = str(tmp_path / "out")
        write = {"segment": lambda: write_segment(path, store, 2),
                 "merged": lambda: merged.write(path, 2),
                 "checkpoint": lambda: write_checkpoint(path, store, 1)}
        with pytest.raises(MemoryError, match="the helper's block"):
            write[writer]()
        assert sorted(os.listdir(str(tmp_path))) == ["in.seg"]

    def test_the_callers_failure_stops_the_helper(self, monkeypatch,
                                                  threads_kept):
        """A block the caller fails on raises too, and the helper
        deflates no block it takes after that (it waits for the
        failure in the one it may have taken before)."""
        taken = []
        caller_failed = threading.Event()

        def failing(payload, level):
            taken.append(payload)
            if threading.current_thread() is threading.main_thread():
                caller_failed.set()
                raise ValueError("the caller's block")
            caller_failed.wait(timeout=10)
            return zlib.compress(payload, level)

        monkeypatch.setattr(encoding, "PARALLEL_DEFLATE_MIN_BYTES", 0)
        monkeypatch.setattr(encoding, "_may_use_two_cpus", lambda: True)
        monkeypatch.setattr(encoding, "zlib", _Zlib(failing))
        payloads = [bytes([i]) * 100 for i in range(64)]
        with pytest.raises(ValueError, match="the caller's block"):
            deflate_frames(payloads, 9)
        assert len(taken) <= 2


class _Zlib:
    """``zlib`` as ``encoding`` sees it, ``compress`` replaced."""

    def __init__(self, compress):
        self.compress = compress
        self.crc32 = zlib.crc32
