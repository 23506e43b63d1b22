"""Shared-memory message transport for the ``mp`` backend.

Messages are pickled with protocol 5 (:func:`encode_message` /
:func:`decode_message`).  Below :func:`min_shm_bytes` of array payload
the pickle rides the pipe in-band; above it every contiguous array buffer
is collected out-of-band and packed into *one* POSIX shared segment per
message, which the receiver maps and reconstructs the arrays over as
zero-copy views — the only copy is the sender's packing copy, the
isolation copy the ``threads`` backend's ``_isolate`` makes anyway.  A
segment costs a create, a map, two resource-tracker messages, an attach
and an unlink whatever its size, so it pays only for bulk moves (patch
migration, trace payloads): halo- and reduction-sized messages stay on
the pipe.  Patch storage itself is private to its rank — no process ever
attaches another's patches.

Lifetime discipline (one creator, exactly one consumer per segment): the
sender closes its mapping right after packing; the receiver unlinks the
name immediately after attaching, so the kernel frees the pages as soon
as the reconstructed arrays die.  The attached mapping itself is kept
alive by the arrays' buffer chain (ndarray -> memoryview -> mmap); the
now-redundant segment file descriptor is closed eagerly (mmap holds its
own dup) so a long run cannot exhaust fds.

A segment whose consumer never comes — the receiver was killed, the world
aborted with the message in flight — is found by name: the ranks of one
world name their segments under one prefix (the ``names`` iterator the
encoders take) and :func:`sweep` unlinks whatever is left under it when
the world is torn down, while the launching process is still alive.  The
``multiprocessing`` resource tracker (started *before* the fork, so every
worker shares it) remains the backstop for a killed parent.
"""

from __future__ import annotations

import itertools
import os
import pickle
from multiprocessing import shared_memory
from typing import Any, Iterator

#: In-band fallback threshold: messages whose out-of-band buffer payload
#: totals fewer bytes than this ride the pipe as a plain pickle.  It is the
#: measured crossover of the one-way hop between two forked processes
#: (2-core host, in-band / segment, microseconds):
#:
#: ======  =======  =======
#: bytes   in-band  segment
#: ======  =======  =======
#: 16 KiB       87      241
#: 64 KiB      121      285
#: 256 KiB     587      496
#: 1 MiB     2 063    1 147
#: 4 MiB     9 808    3 580
#: ======  =======  =======
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


def _create(size: int, names: Iterator[str] | None
            ) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(
        name=next(names) if names is not None else None, create=True,
        size=size)


def _unlink(name: str) -> None:
    """Unlink segment ``name`` if it still exists."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return
    seg.close()
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):
        pass


def sweep(prefix: str) -> None:
    """Unlink every segment named under ``prefix`` (a no-op where shared
    memory is not a directory to list)."""
    try:
        left = [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except OSError:
        return
    for name in left:
        _unlink(name)


def _detach(seg: shared_memory.SharedMemory) -> None:
    """Hand the segment's mapping over to its exported buffers.

    After this the ``SharedMemory`` object is inert: its fd is closed
    (``mmap`` dups the descriptor at map time, so the object's own fd is
    pure overhead — and would otherwise leak per message) and its
    ``close``/``__del__`` become no-ops, because a mapping exported to
    NumPy views cannot be closed explicitly (BufferError) and the
    attempt would print "Exception ignored" noise at gc time.  The mmap
    itself stays alive exactly as long as the views' buffer chain does.
    """
    fd = getattr(seg, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:
            pass
        seg._fd = -1
    seg._buf = None
    seg._mmap = None


# ---------------------------------------------------------------- blobs
def encode_blob(data: bytes, min_bytes: int | None = None,
                names: Iterator[str] | None = None) -> Any:
    """``("blob", data)`` or, above the shm threshold,
    ``("blob-shm", name, nbytes)`` with the bytes spooled into a shared
    segment.

    Used for opaque payloads that must not clog the result queue — a
    worker's drained trace/metrics/profile pickle can run to megabytes,
    and a pipe-bound ``Queue`` would serialize the whole teardown on it.
    The receiver owns (and unlinks) the segment.
    """
    limit = min_shm_bytes() if min_bytes is None else min_bytes
    if len(data) < limit:
        return ("blob", data)
    seg = _create(len(data), names)
    seg.buf[:len(data)] = data
    name = seg.name
    seg.close()
    return ("blob-shm", name, len(data))


def decode_blob(envelope: Any) -> bytes:
    """Reverse of :func:`encode_blob`; unlinks the segment if any."""
    if envelope[0] == "blob":
        return envelope[1]
    _, name, nbytes = envelope
    seg = shared_memory.SharedMemory(name=name)
    try:
        data = bytes(seg.buf[:nbytes])
    finally:
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
        seg.close()
    return data


# ---------------------------------------------------------------- messages
def encode_message(obj: Any, names: Iterator[str] | None = None
                   ) -> tuple[Any, int]:
    """``(envelope, nbytes)`` for one cross-process message; a segment, if
    one is needed, takes the next of ``names`` (default: a random name).

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
    seg = _create(total, names)
    layout: list[tuple[int, int]] = []
    pos = 0
    for view in views:
        nb = view.nbytes
        seg.buf[pos:pos + nb] = view
        layout.append((pos, nb))
        pos += nb
    name = seg.name
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
    seg = shared_memory.SharedMemory(name=name)
    try:
        seg.unlink()  # pages live until the mapping (the arrays) dies
    except (FileNotFoundError, OSError):
        pass
    base = seg.buf
    _detach(seg)
    bufs = [base[pos:pos + nb] for pos, nb in layout]
    return pickle.loads(data, buffers=bufs)
