"""One oracle for every persisted form of the store.

``FORMAT_SPECS`` has one row per form of docs/STORAGE.md's "Formats"
table: the form's files in the sound store (:func:`sound`, written by
``StoreEngine``, whose flush is ``write_segment`` and whose checkpoint
is ``write_checkpoint``), its one reader, and for each class of damage
what that reader owes -- the data as written, the whole frames before
the damage, or the row's typed error naming the file -- and what
recovery then does to the file: leaves it as found, cuts it back to
its last whole frame, or moves it to ``quarantine/``.  :func:`check`
damages a copy of the store, runs the reader and recovery, and
recovers once more, which must find nothing left to do: any other
data served, error raised or file touched fails it.  Frames carry no
position, so a sound frame spliced elsewhere is no class here: it
replays by design.
"""

import functools
import json
import os
import struct
import tempfile
from typing import Callable, Dict, NamedTuple, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.rollups import RollupStore, UnsupportedSchema
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine, encoding, wal
from repro.store.engine import (_MANIFEST_FIELDS, MANIFEST_SCHEMA,
                                QUARANTINE_DIR)
from repro.store.segments import (SEGMENT_SCHEMA, SegmentCorruption,
                                  SegmentReader, merged_rollups,
                                  read_checkpoint)
from tests.conftest import (CLOSES_WHAT_IT_OPENS, log_records, read_file,
                            tree_bytes, write_file)
from tests.test_store_segments import _footer_edited

pytestmark = CLOSES_WHAT_IT_OPENS

#: The classes of damage: one bit flipped, a cut at a frame boundary,
#: a cut inside a frame, the schema one up or down, the magic changed,
#: one field dropped.
CLASSES = ("flip", "cut", "torn", "schema", "magic", "drop")

#: What a reader owes besides its typed error.
AS_WRITTEN = "the data as written"
PREFIX = "the whole frames before the damage"
#: What recovery does to the damaged file.
AS_FOUND, CUT_BACK, QUARANTINE = "as found", "cut back", "quarantine"


class Unchecked(NamedTuple):
    """A class the row cannot owe anything for, and why."""
    why: str


class FormatSpec(NamedTuple):
    form: str                   # the docs table's form cell
    reader: str                 # the docs table's reader cell
    files: Tuple[str, ...]      # the form's files in the sound store
    read: Callable              # its one reader; None: recovery's
    supported: object           # what UnsupportedSchema says it reads,
                                # when that is one thing
    owes: Dict[str, Tuple[object, str]]  # class -> (outcome, effect)
    frames: Callable            # file -> (body, frame ends, rebuild)
    edit: Callable              # (body, change) -> body, its JSON changed
    schema: Callable            # (body, schema) -> body stamped so
    others: tuple               # the schemas one down and one up
    magics: Tuple[Callable, ...]  # body -> body under another magic
    fields: Tuple[tuple, ...]   # what ``drop`` drops, as paths


# -- the sound store ---------------------------------------------------

DEVICE = "dev-1"
#: Batch ``seq`` holds ``BATCHES[seq]`` records: 0 goes to the
#: segment, 1 and 2 each end in a checkpoint, 3 and the dedup
#: handoff's empty batch 4 (ACKing 7) are the WAL tail.
BATCHES = (2, 1, 1, 1, 0)
ACKED = (2, 1, 1, 1, 7)
TAIL, TAIL_BATCHES = "wal-g000003-s00.log", 2
#: The segment, and the newer checkpoint: the older one is its
#: fallback.
SEGMENT, CHECKPOINT = "segments/seg-000001.seg", "ckpt-000002.ckpt"


def _records(seq):
    start = sum(BATCHES[:seq])
    return [MeasurementRecord(
        kind="TCP", rtt_ms=20.0 + i, timestamp_ms=i * 86_400_000.0,
        app_package="com.app.%d" % i, app_uid=10001,
        dst_ip="203.0.113.1", dst_port=443, domain=None,
        network_type="WIFI", operator="Op%d" % (i % 2), country="US",
        device_id=DEVICE) for i in range(start, start + BATCHES[seq])]


def served(rows, seeds=range(len(BATCHES))):
    """What recovery serves holding batches ``rows`` and the dedup
    entries of batches ``seeds``."""
    store = RollupStore()
    for seq in rows:
        store.add_all(_records(seq))
    return store.digest(), {(DEVICE, seq): ACKED[seq] for seq in seeds}


def _serving(engine):
    return engine.materialize().digest(), dict(engine.dedup)


@functools.lru_cache(maxsize=None)
def sound():
    """Every file of the sound store by path, after one restart."""
    with tempfile.TemporaryDirectory() as root:
        engine = StoreEngine(root, obs=Observability(), config=StoreConfig(
            flush_threshold_records=None))
        for seq, then in enumerate((engine.flush, engine.checkpoint,
                                    engine.checkpoint)):
            log_records(engine, _records(seq), first_seq=seq)
            then()
        log_records(engine, _records(3), first_seq=3)
        engine.log_batch(DEVICE, 4, ACKED[4], [], lines=[])
        engine.close()
        engine = StoreEngine(root, obs=Observability())
        assert _serving(engine) == served(range(len(BATCHES)))
        engine.close()
        files = tree_bytes(root)
    assert {TAIL, SEGMENT, CHECKPOINT, "ckpt-000001.ckpt"} <= set(files)
    return files


# -- the forms ---------------------------------------------------------

def _frame_ends(blob, start):
    """Where the frames from ``start`` on end, read by length alone."""
    ends = [start]
    while ends[-1] + 8 <= len(blob):
        end = ends[-1] + 8 + struct.unpack_from("<I", blob, ends[-1])[0]
        if end > len(blob):
            break
        ends.append(end)
    return ends


def _as_is(body):
    return body


def _dump(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _without(path):
    def drop(value):
        inner = value
        for step in path[:-1]:
            inner = inner[step]
        del inner[path[-1]]
        return value
    return drop


def _stamped(schema):
    return lambda value: dict(value, schema=schema)


def _manifest_edit(body, change):
    return _dump(change(json.loads(body))) + b"\n"


def _envelope_frames(blob):
    """The first tail frame's payload, its lines the frames; it goes
    back re-framed, its CRC valid."""
    first = _frame_ends(blob, len(wal.MAGIC))[1]
    payload = blob[len(wal.MAGIC) + 8:first]
    ends = [i for i, byte in enumerate(payload) if byte == 10]
    return payload, ends + [len(payload)], lambda body: (
        blob[:len(wal.MAGIC)] + encoding.frame(body) + blob[first:])


def _envelope_edit(body, change):
    head, newline, lines = body.partition(b"\n")
    return _dump(change(json.loads(head))) + newline + lines


def _read_segment(path):
    if path.endswith(".ckpt"):
        return read_checkpoint(path).digest()
    with SegmentReader(path) as reader:
        reader.verify()
        return merged_rollups([reader], reader.config).digest()


def _replay(path):
    return wal.replay(path).payloads


def _with_magic(magic):
    return lambda body: magic + body[len(magic):]


def _changed(edit, change):
    return lambda body: edit(body, change)


FORMAT_SPECS = (
    FormatSpec(
        form="manifest", reader="StoreEngine._load_manifest",
        files=("MANIFEST.json",), read=None, supported=MANIFEST_SCHEMA,
        owes={
            "flip": (Unchecked("no checksum: a flip that leaves valid "
                               "JSON is served"), AS_FOUND),
            # The one frame is the object; a cut at its end loses
            # only the newline.
            "cut": (AS_WRITTEN, AS_FOUND),
            "torn": (ValueError, AS_FOUND),
            "schema": (UnsupportedSchema, AS_FOUND),
            # Its magic is being a JSON object.
            "magic": (ValueError, AS_FOUND),
            "drop": (ValueError, AS_FOUND)},
        frames=lambda blob: (blob, [len(blob) - 1, len(blob)], _as_is),
        edit=_manifest_edit,
        schema=lambda body, schema: _manifest_edit(body, _stamped(schema)),
        others=(MANIFEST_SCHEMA - 1, MANIFEST_SCHEMA + 1),
        magics=tuple(_changed(_manifest_edit, change) for change in (
            lambda value: [value], lambda value: None, json.dumps)),
        fields=tuple((name,) for name in _MANIFEST_FIELDS)),
    FormatSpec(
        form="WAL file", reader="wal.replay", files=(TAIL,),
        read=_replay, supported=wal.MAGIC,
        owes={
            "flip": (PREFIX, CUT_BACK),
            "cut": (PREFIX, AS_FOUND),
            # A cut inside the magic restarts the file as a bare one.
            "torn": (PREFIX, CUT_BACK),
            # The magic's digit is the schema.
            "schema": (UnsupportedSchema, AS_FOUND),
            "magic": (PREFIX, CUT_BACK),
            "drop": (Unchecked("a frame is a length, a CRC and a "
                               "payload: no field to drop"), AS_FOUND)},
        frames=lambda blob: (blob, _frame_ends(blob, len(wal.MAGIC)),
                             _as_is),
        edit=None, schema=lambda body, magic: _with_magic(magic)(body),
        others=(b"MOPWAL0\n", b"MOPWAL2\n"),
        magics=(_with_magic(b"MOPSEG1\n"), _with_magic(b"MOPWAL1 "),
                _with_magic(bytes(8))),
        fields=()),
    FormatSpec(
        form="WAL envelope", reader="StoreEngine._decode_envelope",
        files=(TAIL,), read=None, supported=None,
        owes={
            "flip": (Unchecked("the frame's CRC is the envelope's "
                               "checksum: under a valid one a flip is "
                               "another sound envelope"), AS_FOUND),
            "cut": (UnsupportedSchema, AS_FOUND),
            # The last line cut short is no record.
            "torn": (ValueError, AS_FOUND),
            "schema": (Unchecked("no schema number: the header's kind "
                                 "and keys are its generation, the "
                                 "magic class"), AS_FOUND),
            "magic": (UnsupportedSchema, AS_FOUND),
            "drop": (UnsupportedSchema, AS_FOUND)},
        frames=_envelope_frames, edit=_envelope_edit, schema=None,
        others=(),
        magics=tuple(_changed(_envelope_edit, change) for change in (
            lambda head: dict(head, kind="bulk"),
            lambda head: dict(head, kind="snapshot"),
            lambda head: [head],
            lambda head: dict(head, n=head["n"] + 1),
            lambda head: dict(head, seq=str(head["seq"])),
            lambda head: dict(head, seq=head["seq"] + 0.5),
            lambda head: dict(head, device=[head["device"]]),
            lambda head: dict(head, lines=[])))
        + (lambda body: b"\xff\xfe" + body,),
        fields=tuple((name,) for name in ("acked", "device", "kind",
                                          "n", "seq"))),
    FormatSpec(
        form="segment", reader="SegmentReader",
        files=(SEGMENT, CHECKPOINT), read=_read_segment,
        supported=SEGMENT_SCHEMA,
        owes=dict({name: (SegmentCorruption, QUARANTINE)
                   for name in ("flip", "cut", "torn", "magic", "drop")},
                  schema=(UnsupportedSchema, AS_FOUND)),
        # Blocks and the footer are frames; the footer's offset and
        # the tail magic close the file.
        frames=lambda blob: (blob, _frame_ends(blob[:-16], 8)
                             + [len(blob) - 8, len(blob)], _as_is),
        edit=_footer_edited,
        schema=lambda body, schema: _footer_edited(body, _stamped(schema)),
        others=(SEGMENT_SCHEMA - 1, SEGMENT_SCHEMA + 1),
        magics=(_with_magic(b"MOPSEG2\n"),
                lambda body: body[:-8] + b"MOPSEGF2"),
        fields=tuple((name,) for name in (
            "seq", "config", "records", "failure_records", "windows",
            "tables"))
        + tuple(("tables", name) for name in RollupStore.TABLES)
        + (("tables", "app", "rows"), ("tables", "app", "blocks"))
        + tuple(("tables", "app", "blocks", 0, name)
                for name in ("offset", "length", "rows", "min", "max"))),
)
SPECS = {spec.form: spec for spec in FORMAT_SPECS}


# -- the oracle --------------------------------------------------------

def damage(spec, blob, cls, arg):
    """``blob``, a sound file of ``spec``'s form, damaged by class
    ``cls``; ``arg`` picks the instance: the bit flipped, where the
    cut falls, the schema stamped, which magic or field.  Returns the
    file and where in its body the damage starts."""
    body, ends, rebuild = spec.frames(blob)
    at = 0
    if cls == "flip":
        at, bit = divmod(arg, 8)
        # The magic's own bytes are the magic and schema classes'.
        assert at >= ends[0]
        body = body[:at] + bytes([body[at] ^ 1 << bit]) + body[at + 1:]
    elif cls in ("cut", "torn"):
        assert (arg in ends) == (cls == "cut") and arg < len(body)
        at, body = arg, body[:arg]
    elif cls == "schema":
        body = spec.schema(body, arg)
    elif cls == "magic":
        body = spec.magics[arg](body)
    else:
        body = spec.edit(body, _without(spec.fields[arg]))
    return rebuild(body), at


def _answer(call, *args):
    try:
        return call(*args), None
    except Exception as exc:          # the answer, judged below
        return None, exc


def _refused(exc, owed, path, spec, cls, arg):
    assert isinstance(exc, owed) and path in str(exc), repr(exc)
    if owed is UnsupportedSchema:
        assert spec.supported in (None, exc.args[2]), exc.args
        assert cls != "schema" or exc.args[1] == arg, exc.args


def check(spec, cls, arg, name=None, recover=True):
    """Hold ``spec``'s reader, and recovery unless ``recover`` is
    false, to what the row owes for its file ``name`` (its first)
    damaged by ``cls`` and ``arg``."""
    outcome, effect = spec.owes[cls]
    if isinstance(outcome, Unchecked):
        return
    name = name or spec.files[0]
    blob, at = damage(spec, sound()[name], cls, arg)
    body, ends, rebuild = spec.frames(sound()[name])
    # The frames before the damage are whole.
    whole = sum(end <= at for end in ends[1:])
    with tempfile.TemporaryDirectory() as root:
        for rel, data in sound().items():
            if recover or rel == name:
                os.makedirs(os.path.dirname(os.path.join(root, rel)),
                            exist_ok=True)
                write_file(os.path.join(root, rel),
                           blob if rel == name else data)
        path = os.path.join(root, name)
        before = tree_bytes(root)
        if spec.read is not None:
            data, exc = _answer(spec.read, path)
            if outcome is PREFIX:
                assert exc is None and data == [
                    body[start + 8:end]
                    for start, end in zip(ends, ends[1:])][:whole], exc
            else:
                _refused(exc, outcome, path, spec, cls, arg)
            if not recover:
                return
        obs = Observability()
        engine, exc = _answer(lambda: StoreEngine(root, obs=obs))
        if isinstance(outcome, type) and outcome is not SegmentCorruption:
            _refused(exc, outcome, path, spec, cls, arg)
            assert tree_bytes(root) == before
            assert not os.path.exists(os.path.join(root, QUARANTINE_DIR))
            return
        assert exc is None, repr(exc)
        try:
            info, serving = engine.last_recovery, _serving(engine)
        finally:
            engine.close()
        batches = len(BATCHES) - TAIL_BATCHES + (
            whole if outcome is PREFIX else TAIL_BATCHES)
        if effect is QUARANTINE:
            assert not os.path.exists(path)
            assert read_file(os.path.join(
                root, QUARANTINE_DIR, os.path.basename(name))) == blob
            assert os.path.basename(name).encode() \
                not in read_file(os.path.join(root, "MANIFEST.json"))
            quarantined = ("segments_quarantined", "checkpoints_quarantined")
            assert [getattr(info, count) for count in quarantined] \
                == [obs.value("store." + count) for count in quarantined] \
                == [name == SEGMENT, name != SEGMENT]
            assert serving == served(range(name == SEGMENT, batches))
        else:
            cut = effect is CUT_BACK and rebuild(body[:ends[whole]])
            assert read_file(path) == (cut or blob)
            assert serving == served(range(batches), range(batches))
            # A file cut back is reported, unless it was empty; a cut
            # is torn, and a flip past a frame's length is corrupt.
            reported = bool(cut and blob)
            assert (info.torn_tail or info.corrupt_frame) == reported
            assert obs.value("store.wal_torn_tails") == reported
            assert not (cls == "torn" and info.corrupt_frame)
            assert not (cls == "flip" and at >= ends[whole] + 4
                        and info.torn_tail)
        after = tree_bytes(root)
        again = StoreEngine(root, obs=Observability())
        try:
            info, serving_again = again.last_recovery, _serving(again)
        finally:
            again.close()
        assert serving_again == serving and tree_bytes(root) == after
        assert not (info.torn_tail or info.corrupt_frame
                    or info.segments_quarantined
                    or info.checkpoints_quarantined)


def _args(spec, cls, name):
    """Every instance of ``cls`` for ``spec``'s file ``name``, as a
    strategy."""
    body, ends, _rebuild = spec.frames(sound()[name])
    return {
        "flip": st.integers(8 * ends[0], 8 * len(body) - 1),
        "cut": st.sampled_from(ends[:-1]),
        "torn": st.integers(0, len(body) - 1).filter(
            lambda at: at not in ends),
        "schema": st.sampled_from(spec.others),
        "magic": st.integers(0, len(spec.magics) - 1),
        "drop": st.integers(0, len(spec.fields) - 1)}[cls]


OWED = [(spec, cls) for spec in FORMAT_SPECS for cls in CLASSES
        if not isinstance(spec.owes[cls][0], Unchecked)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_every_row_owes_its_answer_to_every_class(data):
    spec, cls = data.draw(st.sampled_from(OWED))
    name = data.draw(st.sampled_from(spec.files))
    check(spec, cls, data.draw(_args(spec, cls, name)), name)


@pytest.mark.parametrize("form", SPECS)
def test_every_cut_and_flip_of_one_file(form):
    """Every cut of the row's last file, and a bit flipped in every
    byte of it past the magic, judged by its reader; by recovery too
    where recovery is the reader, and else at every frame boundary and
    the first, middle and last byte of every frame."""
    spec = SPECS[form]
    name = spec.files[-1]
    body, ends, _rebuild = spec.frames(sound()[name])
    probes = {at for start, end in zip([0] + ends, ends)
              for at in (start, start + 1, (start + end) // 2, end - 1)}
    for at in range(len(body)):
        recover = spec.read is None or at in probes
        check(spec, "cut" if at in ends else "torn", at, name, recover)
        if at >= ends[0]:
            check(spec, "flip", 8 * at + at % 8, name, recover)


def test_a_wal_reader_blind_to_the_crc_fails_the_oracle(monkeypatch):
    """The oracle can fail: with the WAL's frame check skipping the
    CRC, a bit flipped in a payload is read as written."""
    def read_frame(data, pos):
        length = struct.unpack_from("<I", data, pos)[0] \
            if pos + 8 <= len(data) else 0
        payload = data[pos + 8:pos + 8 + length]
        if len(payload) == length:
            data = data[:pos] + encoding.frame(payload) \
                + data[pos + 8 + length:]
        return encoding.read_frame(data, pos)
    monkeypatch.setattr(wal, "read_frame", read_frame)
    with pytest.raises(AssertionError):
        check(SPECS["WAL file"], "flip", 8 * (len(wal.MAGIC) + 8))
