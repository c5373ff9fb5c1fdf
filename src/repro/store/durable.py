"""The one seam for every durable write under :mod:`repro.store`: no
other store module fsyncs, renames, truncates or removes a file, or
creates one the store keeps (docs/STORAGE.md, "Durability").

A rename or a create has its directory synced before the call
returns; :func:`sync`, the WAL commit, is one fsync and the only step
on an upload's ACK.  Recovery syncs what a dead process may have left
unsynced before it serves it (:func:`sync_file`, :func:`sync_dir`).
Every syscall goes through :func:`_step`, which counts it; tests hook
it to record the sequence or crash at the k-th.
``os.fsync`` is looked up at each call, never bound at import, so a
stand-in device that swaps it sees every one.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs import Observability

#: The suffix of a write in progress; recovery deletes any it finds.
TMP = ".tmp"

_COUNTERS = {"rename": "store.durable.renames",
             "create": "store.durable.creates",
             "dir_sync": "store.durable.dir_syncs",
             "truncate": "store.durable.truncates",
             "remove": "store.durable.removes"}

_Obs = Optional[Observability]


def _step(obs: _Obs, kind: str, path: str, call, *args):
    """``call(*args)``, one durable syscall on ``path``, counted."""
    result = call(*args)
    if obs is not None and kind in _COUNTERS:
        obs.inc(_COUNTERS[kind])
    return result


def sync_dir(path: str, obs: _Obs = None) -> None:
    """The entries of directory ``path`` durable as they stand."""
    fd = os.open(path or os.curdir, os.O_RDONLY)
    try:
        _step(obs, "dir_sync", path, os.fsync, fd)
    finally:
        os.close(fd)


def write_atomic(path: str, blob: bytes, obs: _Obs = None) -> None:
    with open(path + TMP, "wb") as handle:
        sync(handle, blob, obs)
    _step(obs, "rename", path, os.replace, path + TMP, path)
    sync_dir(os.path.dirname(path), obs)


def create(path: str, header: bytes, obs: _Obs = None):
    """``path`` holding ``header``, durable, left open to append."""
    handle = _step(obs, "create", path, open, path, "ab")
    try:
        sync(handle, header, obs)
        sync_dir(os.path.dirname(path), obs)
    except BaseException:
        handle.close()
        raise
    return handle


def sync(handle, blob: bytes, obs: _Obs = None) -> None:
    handle.write(blob)
    handle.flush()
    _step(obs, "fsync", handle.name, os.fsync, handle.fileno())


def sync_file(path: str, obs: _Obs = None) -> None:
    """The bytes at ``path`` durable as they stand: a file recovery
    replays may hold frames a dead process wrote whose fsync never
    returned, and an upload replayed from one is ACKed as a
    duplicate."""
    with open(path, "rb") as handle:
        _step(obs, "fsync", path, os.fsync, handle.fileno())


def truncate(path: str, size: int, obs: _Obs = None) -> None:
    with open(path, "r+b") as handle:
        _step(obs, "truncate", path, handle.truncate, size)
        _step(obs, "fsync", path, os.fsync, handle.fileno())


def move(source: str, target: str, obs: _Obs = None) -> None:
    _step(obs, "rename", target, os.replace, source, target)
    sync_dir(os.path.dirname(target), obs)
    sync_dir(os.path.dirname(source), obs)


def make_dir(path: str, obs: _Obs = None) -> None:
    path = os.path.abspath(path)
    if not os.path.isdir(path):
        make_dir(os.path.dirname(path), obs)
        _step(obs, "create", path, os.mkdir, path)
        sync_dir(os.path.dirname(path), obs)


def remove(path: str, obs: _Obs = None) -> None:
    # No directory sync, and a missing file counts as removed: an
    # unlink a power loss undoes brings back a .tmp, an unlisted
    # checkpoint or segment, or a covered WAL generation, and recovery
    # deletes each of those again.
    try:
        _step(obs, "remove", path, os.remove, path)
    except FileNotFoundError:
        pass
