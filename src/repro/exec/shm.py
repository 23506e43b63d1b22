"""Shared-memory message transport for the ``mp`` backend.

Messages are pickled with protocol 5 (:func:`encode_message` /
:func:`decode_message`).  Below :func:`min_shm_bytes` of array payload
the pickle rides the pipe in-band; above it every contiguous array buffer
is collected out-of-band and packed into *one* POSIX shared segment per
message, which the receiver maps and reconstructs the arrays over as
zero-copy views — the only copy is the sender's packing copy, the
isolation copy the ``threads`` backend's ``_isolate`` makes anyway.  A
segment costs a ``shm_open``, a map, an attach and an unlink whatever
its size, so it pays only for bulk moves (patch migration, trace
payloads): halo- and reduction-sized messages stay on the pipe.  Patch
storage itself is private to its rank — no process ever attaches
another's patches.

Lifetime discipline (one creator, exactly one consumer per segment): the
sender unmaps right after packing; the receiver unlinks the name as soon
as it has mapped it, so the kernel frees the pages when the
reconstructed arrays die (they keep the mapping alive: ndarray ->
memoryview -> mmap).  Descriptors are closed once mapped.  No helper
process tracks segments: their names do.

A segment whose consumer never comes is found by name: the ranks of one
world name theirs under one prefix, ``repro-<launcher pid>-<world>-``
(the ``names`` iterator the encoders take), and a segment encoded
without names is ``repro-<pid>-u<n>``.  :func:`sweep` unlinks what
is left under it when the world is torn down; :func:`sweep_orphans`,
run before every world starts, unlinks the segments of launchers whose
pid no longer exists — the backstop for a killed launcher.  Hence
``/dev/shm`` must not be shared with another pid namespace (a container
run with ``--ipc=host``): its live launchers would look dead.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import pickle
from typing import Any, Iterator

import _posixshmem

#: In-band fallback threshold: messages whose out-of-band buffer payload
#: totals fewer bytes than this ride the pipe as a plain pickle.  The
#: one-way hop between two forked ranks (2-core host, microseconds):
#:
#: =======  =======  =======
#: bytes    in-band  segment
#: =======  =======  =======
#: 64 KiB        84      124
#: 128 KiB      135      185
#: 192 KiB      693      245
#: 256 KiB    1 035      432
#: 1 MiB      3 838    1 129
#: =======  =======  =======
#:
#: In-band loses once its copies outgrow the allocator's heap (fresh
#: ``mmap`` pages), as under the earlier queue transport: it stays.
DEFAULT_MIN_SHM_BYTES = 256 * 1024


def min_shm_bytes() -> int:
    """Shared-segment threshold (``REPRO_SHM_MIN_BYTES`` overrides)."""
    raw = os.environ.get("REPRO_SHM_MIN_BYTES", "").strip()
    try:
        return int(raw) if raw else DEFAULT_MIN_SHM_BYTES
    except ValueError:
        return DEFAULT_MIN_SHM_BYTES


def segment_names(prefix: str) -> Iterator[str]:
    """``<prefix>0``, ``<prefix>1``, ... — the names one creator gives its
    segments so that :func:`sweep` can find the ones nobody consumed."""
    return (f"{prefix}{n}" for n in itertools.count())


#: numbers the segments this process creates without names
_UNNAMED = itertools.count()


def _create(size: int, names: Iterator[str] | None) -> tuple[str, mmap.mmap]:
    """A new segment of ``size`` bytes: its name and a mapping of it."""
    name = (next(names) if names is not None
            else f"repro-{os.getpid()}-u{next(_UNNAMED)}")
    fd = _posixshmem.shm_open("/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR,
                              mode=0o600)
    try:
        os.ftruncate(fd, size)
        return name, mmap.mmap(fd, size)
    except BaseException:
        _unlink(name)
        raise
    finally:
        os.close(fd)  # the mapping holds its own reference


def _attach(name: str) -> mmap.mmap:
    """Map segment ``name`` and unlink it (the mapping keeps the pages)."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
        _unlink(name)


def _unlink(name: str) -> None:
    """Unlink segment ``name`` if it still exists."""
    with contextlib.suppress(OSError):
        _posixshmem.shm_unlink("/" + name)


def _listing() -> list[str]:
    """Segment names (none where shared memory is not a directory)."""
    return os.listdir("/dev/shm") if os.path.isdir("/dev/shm") else []


def sweep(prefix: str) -> None:
    """Unlink every segment named under ``prefix``."""
    for name in _listing():
        if name.startswith(prefix):
            _unlink(name)


def sweep_orphans() -> None:
    """Unlink the segments (``repro-<pid>-...``) of launchers that no
    longer exist, killed before their own :func:`sweep` ran."""
    for name in _listing():
        pid = name.split("-")[1] if name.startswith("repro-") else ""
        if pid.isdigit():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                _unlink(name)
            except PermissionError:  # another user's live process
                pass


# ---------------------------------------------------------------- blobs
def encode_blob(data: bytes, min_bytes: int | None = None,
                names: Iterator[str] | None = None) -> Any:
    """``("blob", data)`` or, above the shm threshold,
    ``("blob-shm", name, nbytes)`` with the bytes spooled into a shared
    segment.

    Used for opaque payloads that must not clog a report pipe: a
    worker's drained trace/metrics/profile pickle can run to megabytes.
    The receiver owns (and unlinks) the segment.
    """
    limit = min_shm_bytes() if min_bytes is None else min_bytes
    if len(data) < limit:
        return ("blob", data)
    name, seg = _create(len(data), names)
    seg[:] = data
    seg.close()
    return ("blob-shm", name, len(data))


def decode_blob(envelope: Any) -> bytes:
    """Reverse of :func:`encode_blob`; unlinks the segment if any."""
    if envelope[0] == "blob":
        return envelope[1]
    _, name, nbytes = envelope
    with _attach(name) as seg:
        return seg[:nbytes]


# ---------------------------------------------------------------- messages
def encode_message(obj: Any, names: Iterator[str] | None = None
                   ) -> tuple[Any, int]:
    """``(envelope, nbytes)`` for one cross-process message; a segment, if
    one is needed, takes the next of ``names`` (default:
    ``repro-<pid>-u<n>``).

    The envelope is either ``("pickle", blob)`` or ``("shm", pickle5,
    segment_name, [(offset, nbytes), ...])``.  ``nbytes`` counts the
    full payload (pickle stream + array buffers) and feeds the machine
    model's alpha-beta cost, mirroring ``_isolate`` on the threads path.
    """
    buffers: list[pickle.PickleBuffer] = []
    try:
        data = pickle.dumps(obj, protocol=5,
                            buffer_callback=buffers.append)
        views = [b.raw() for b in buffers]
    except (pickle.PicklingError, BufferError):
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return ("pickle", blob), len(blob)
    total = sum(v.nbytes for v in views)
    if not views or total < min_shm_bytes():
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return ("pickle", blob), len(blob)
    name, seg = _create(total, names)
    layout: list[tuple[int, int]] = []
    pos = 0
    for view in views:
        nb = view.nbytes
        seg[pos:pos + nb] = view
        layout.append((pos, nb))
        pos += nb
    for b in buffers:
        b.release()
    seg.close()  # the receiver owns (and unlinks) the segment from here
    return ("shm", data, name, layout), len(data) + total


def discard_message(envelope: Any) -> None:
    """Free an envelope that will never be decoded (a dropped send)."""
    if envelope and envelope[0] == "shm":
        _unlink(envelope[2])


def decode_message(envelope: Any) -> Any:
    """Reverse of :func:`encode_message` (zero-copy for the shm form)."""
    kind = envelope[0]
    if kind == "pickle":
        return pickle.loads(envelope[1])
    _, data, name, layout = envelope
    base = memoryview(_attach(name))  # the arrays keep the mapping alive
    bufs = [base[pos:pos + nb] for pos, nb in layout]
    return pickle.loads(data, buffers=bufs)
