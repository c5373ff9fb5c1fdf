"""The one seam for every durable write under :mod:`repro.store`: no
other store module fsyncs, renames, truncates or removes a file, or
creates one the store keeps (docs/STORAGE.md, "Durability").

A rename or a create has its directory synced before the call
returns; :func:`sync`, the WAL commit, is one fsync and the only step
on an upload's ACK.  Every syscall goes through :func:`_step`, which
counts it; tests hook it to record the sequence or crash at the k-th.
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


def _sync_dir(obs: _Obs, path: str) -> None:
    fd = os.open(path or os.curdir, os.O_RDONLY)
    try:
        _step(obs, "dir_sync", path, os.fsync, fd)
    finally:
        os.close(fd)


def write_atomic(path: str, blob: bytes, obs: _Obs = None) -> None:
    with open(path + TMP, "wb") as handle:
        sync(handle, blob, obs)
    _step(obs, "rename", path, os.replace, path + TMP, path)
    _sync_dir(obs, os.path.dirname(path))


def create(path: str, header: bytes, obs: _Obs = None):
    """``path`` holding ``header``, durable, left open to append."""
    handle = _step(obs, "create", path, open, path, "ab")
    try:
        sync(handle, header, obs)
        _sync_dir(obs, os.path.dirname(path))
    except BaseException:
        handle.close()
        raise
    return handle


def sync(handle, blob: bytes, obs: _Obs = None) -> None:
    handle.write(blob)
    handle.flush()
    _step(obs, "fsync", handle.name, os.fsync, handle.fileno())


def truncate(path: str, size: int, obs: _Obs = None) -> None:
    with open(path, "r+b") as handle:
        _step(obs, "truncate", path, handle.truncate, size)
        _step(obs, "fsync", path, os.fsync, handle.fileno())


def move(source: str, target: str, obs: _Obs = None) -> None:
    _step(obs, "rename", target, os.replace, source, target)
    _sync_dir(obs, os.path.dirname(target))
    _sync_dir(obs, os.path.dirname(source))


def make_dir(path: str, obs: _Obs = None) -> None:
    path = os.path.abspath(path)
    if not os.path.isdir(path):
        make_dir(os.path.dirname(path), obs)
        _step(obs, "create", path, os.mkdir, path)
        _sync_dir(obs, os.path.dirname(path))


def remove(path: str, obs: _Obs = None) -> None:
    # No directory sync, and a missing file counts as removed: an
    # unlink a power loss undoes brings back a .tmp, an unlisted
    # checkpoint or segment, or a covered WAL generation, and recovery
    # deletes each of those again.
    try:
        _step(obs, "remove", path, os.remove, path)
    except FileNotFoundError:
        pass
