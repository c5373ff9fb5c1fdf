"""WAL-layer tests: CRC framing, group commit, the fsync cost model,
and literal crash semantics (nothing uncommitted survives; a torn
tail truncates at the last valid frame)."""

import os

import pytest

from repro.obs import Observability
from repro.store.encoding import (
    FRAME_CORRUPT,
    FRAME_END,
    FRAME_OK,
    FRAME_TORN,
    frame,
    read_frame,
)
from repro.store import StoreEngine, UnsupportedSchema, durable
from repro.store.wal import MAGIC, FsyncModel, WriteAheadLog, replay


class TestFraming:
    def test_frame_round_trip(self):
        data = frame(b"hello") + frame(b"") + frame(b"x" * 1000)
        payloads = []
        pos = 0
        while True:
            payload, pos, status = read_frame(data, pos)
            if status != FRAME_OK:
                break
            payloads.append(payload)
        assert status == FRAME_END
        assert payloads == [b"hello", b"", b"x" * 1000]

    def test_partial_header_is_torn(self):
        data = frame(b"ok") + b"\x05\x00"
        payload, pos, status = read_frame(data, len(frame(b"ok")))
        assert status == FRAME_TORN and payload == b""

    def test_partial_payload_is_torn(self):
        data = frame(b"hello")[:-2]
        _payload, _pos, status = read_frame(data, 0)
        assert status == FRAME_TORN

    def test_checksum_mismatch_is_corrupt(self):
        data = bytearray(frame(b"hello"))
        data[-1] ^= 0xFF
        _payload, _pos, status = read_frame(bytes(data), 0)
        assert status == FRAME_CORRUPT


class TestWriteAheadLog:
    def _wal(self, tmp_path, **kwargs):
        obs = Observability()
        return WriteAheadLog(str(tmp_path / "wal.log"), obs=obs,
                             **kwargs), obs

    def test_commit_makes_frames_replayable(self, tmp_path):
        wal, obs = self._wal(tmp_path)
        wal.append(b"one")
        wal.append(b"two")
        assert replay(wal.path).payloads == []
        cost = wal.commit()
        assert cost > 0
        result = replay(wal.path)
        assert result.payloads == [b"one", b"two"]
        assert not result.torn and not result.corrupt
        assert obs.value("store.wal_appends") == 2
        assert obs.value("store.wal_fsyncs") == 1

    def test_commit_with_nothing_pending_is_free(self, tmp_path):
        wal, obs = self._wal(tmp_path)
        assert wal.commit() == 0.0
        assert obs.value("store.wal_fsyncs") == 0

    def test_crash_drops_the_uncommitted_buffer(self, tmp_path):
        wal, _obs = self._wal(tmp_path)
        wal.append(b"durable")
        wal.commit()
        wal.append(b"volatile")
        wal.crash()
        result = replay(wal.path)
        assert result.payloads == [b"durable"]

    def test_fsync_cost_model_scales_with_bytes(self, tmp_path):
        model = FsyncModel(base_ms=5.0, per_kb_ms=1.0)
        assert model.cost_ms(0) == 5.0
        assert model.cost_ms(2048) == pytest.approx(7.0)
        wal, _obs = self._wal(tmp_path, fsync=model)
        wal.append(b"x" * 100)
        assert wal.commit() == pytest.approx(
            model.cost_ms(len(frame(b"x" * 100))))

    def test_torn_tail_stops_replay_at_last_valid_frame(self, tmp_path):
        wal, _obs = self._wal(tmp_path)
        wal.append(b"first")
        wal.append(b"second")
        wal.commit()
        with open(wal.path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal.path) - 3)
        result = replay(wal.path)
        assert result.payloads == [b"first"]
        assert result.torn and not result.corrupt
        assert result.valid_bytes == len(MAGIC) + len(frame(b"first"))

    def test_corrupt_frame_reported_not_replayed(self, tmp_path):
        wal, _obs = self._wal(tmp_path)
        wal.append(b"good")
        wal.append(b"evil")
        wal.commit()
        wal.close()
        with open(wal.path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        result = replay(wal.path)
        assert result.payloads == [b"good"]
        assert result.corrupt and not result.torn

    def test_truncate_to_cuts_the_tail(self, tmp_path):
        """Recovery's cut of a torn tail: the seam truncates the file
        at the last valid frame, and a log reopened on it appends
        after that frame."""
        wal, obs = self._wal(tmp_path)
        wal.append(b"keep")
        wal.commit()
        wal.append(b"cut")
        wal.commit()
        wal.close()
        keep_end = len(MAGIC) + len(frame(b"keep"))
        durable.truncate(wal.path, keep_end, obs)
        assert replay(wal.path).payloads == [b"keep"]
        assert os.path.getsize(wal.path) == keep_end
        assert obs.value("store.durable.truncates") == 1
        wal = WriteAheadLog(wal.path, obs=obs)
        wal.append(b"after")
        wal.commit()
        wal.close()
        assert replay(wal.path).payloads == [b"keep", b"after"]

    def test_truncate_below_magic_resets_the_log(self, tmp_path):
        """A WAL that lost even its header restarts as the bare magic
        when recovery finds it."""
        root = str(tmp_path / "store")
        StoreEngine(root).close()
        path = os.path.join(root, "wal.log")
        with open(path, "wb") as handle:
            handle.write(b"gone")
        engine = StoreEngine(root)
        assert engine.last_recovery.torn_tail
        engine.close()
        assert os.path.getsize(path) == len(MAGIC)
        assert replay(path).payloads == []

    def test_headerless_file_replays_as_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"not a wal")
        result = replay(str(path))
        assert result.payloads == [] and result.torn
        assert result.valid_bytes == 0

    @pytest.mark.parametrize("magic", [b"MOPWAL0\n", b"MOPWAL2\n"])
    def test_other_generations_magic_is_unsupported(self, tmp_path,
                                                    magic):
        """Sound frames under another generation's magic are not a log
        that lost its header: replay refuses them by name instead of
        answering "torn from byte 0" (which recovery acts on by
        resetting the file)."""
        wal, _obs = self._wal(tmp_path)
        wal.append(b"acked")
        wal.commit()
        wal.close()
        with open(wal.path, "r+b") as handle:
            handle.write(magic)
        data = open(wal.path, "rb").read()
        with pytest.raises(UnsupportedSchema) as refused:
            replay(wal.path)
        for told in (wal.path, repr(magic), repr(MAGIC)):
            assert told in str(refused.value)
        assert open(wal.path, "rb").read() == data

    @pytest.mark.parametrize("head", [
        b"", MAGIC[:5], b"MOPWAL2", b"MOPWAL2 frames", b"MOPSEG1\nrest"],
        ids=["empty", "magic-prefix", "no-newline", "not-a-magic",
             "another-files-magic"])
    def test_anything_else_without_the_magic_is_headerless(
            self, tmp_path, head):
        """Empty, a crash inside the header write, garbage: the log
        lost its header and restarts, as before."""
        path = tmp_path / "wal.log"
        path.write_bytes(head)
        result = replay(str(path))
        assert result.payloads == [] and result.valid_bytes == 0
        assert result.torn == bool(head)

    def test_missing_file_replays_empty(self, tmp_path):
        result = replay(str(tmp_path / "nope.log"))
        assert result.payloads == []
        assert not result.torn and not result.corrupt

    def test_reset_restarts_empty(self, tmp_path):
        """The log rewritten as its bare magic replays empty, and a
        log reopened on it takes new frames."""
        wal, obs = self._wal(tmp_path)
        wal.append(b"old")
        wal.commit()
        wal.close()
        durable.write_atomic(wal.path, MAGIC, obs)
        assert replay(wal.path).payloads == []
        wal = WriteAheadLog(wal.path, obs=obs)
        wal.append(b"new")
        wal.commit()
        wal.close()
        assert replay(wal.path).payloads == [b"new"]
