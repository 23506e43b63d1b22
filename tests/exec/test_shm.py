"""Shared-memory plumbing: message encode/decode either side of the
threshold, world-scoped segment names and the sweep."""

import os

import numpy as np
import pytest

from repro.exec import shm

#: float64 counts one element under / at the segment threshold
BELOW = shm.min_shm_bytes() // 8 - 1
AT = shm.min_shm_bytes() // 8


# ---------------------------------------------------------------- messages
def test_small_message_stays_in_band():
    env, nbytes = shm.encode_message({"x": 1, "arr": np.arange(4.0)})
    assert env[0] == "pickle"
    assert nbytes == len(env[1])
    out = shm.decode_message(env)
    assert out["x"] == 1
    np.testing.assert_array_equal(out["arr"], np.arange(4.0))


def test_just_below_the_threshold_rides_the_pipe():
    """A halo row (tens of KB) is far below it; so is anything up to the
    last byte under the threshold."""
    for n in (10 * 1024 // 8, BELOW):
        env, nbytes = shm.encode_message(np.arange(float(n)))
        assert env[0] == "pickle"
        assert nbytes == len(env[1]) >= 8 * n
        np.testing.assert_array_equal(shm.decode_message(env),
                                      np.arange(float(n)))


def test_at_the_threshold_rides_shared_memory():
    payload = {"a": np.arange(float(AT // 2)), "b": np.ones(AT - AT // 2)}
    env, nbytes = shm.encode_message(payload)
    assert env[0] == "shm"
    assert nbytes >= 8 * AT  # buffers + pickle stream
    out = shm.decode_message(env)
    np.testing.assert_array_equal(out["a"], payload["a"])
    np.testing.assert_array_equal(out["b"], payload["b"])
    # decoded arrays are views over one mapping; writing one must not
    # corrupt the other (layout offsets are disjoint)
    out["a"][:] = 0.0
    np.testing.assert_array_equal(out["b"], payload["b"])


def test_threshold_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "10")
    assert shm.min_shm_bytes() == 10
    env, _ = shm.encode_message(np.arange(4.0))  # 32 bytes > 10
    assert env[0] == "shm"
    np.testing.assert_array_equal(shm.decode_message(env), np.arange(4.0))
    monkeypatch.setenv("REPRO_SHM_MIN_BYTES", "not-a-number")
    assert shm.min_shm_bytes() == shm.DEFAULT_MIN_SHM_BYTES


def test_discard_frees_an_unconsumed_segment():
    from multiprocessing import shared_memory

    env, _ = shm.encode_message(np.arange(float(AT)))
    assert env[0] == "shm"
    shm.discard_message(env)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=env[2])
    shm.discard_message(env)  # already gone: silent
    shm.discard_message(("pickle", b"x"))  # in-band: nothing to free


# ------------------------------------------------------ names and the sweep
def test_named_segments_are_swept_by_prefix():
    """Segments take the creator's names; ``sweep`` unlinks what is left
    under a prefix and nothing else."""
    prefix = f"repro-test-{os.getpid()}-"
    mine, other = shm.segment_names(prefix + "0-"), shm.segment_names(
        f"repro-test-other-{os.getpid()}-")
    before = set(os.listdir("/dev/shm"))
    try:
        env, _ = shm.encode_message(np.arange(float(AT)), mine)
        blob = shm.encode_blob(b"x" * 64, min_bytes=16, names=mine)
        kept, _ = shm.encode_message(np.arange(float(AT)), other)
        assert (env[2], blob[1]) == (prefix + "0-0", prefix + "0-1")
        assert set(os.listdir("/dev/shm")) - before == {
            env[2], blob[1], kept[2]}
        shm.sweep(prefix)
        assert set(os.listdir("/dev/shm")) - before == {kept[2]}
        shm.sweep(prefix)  # nothing left: silent
    finally:
        shm.discard_message(kept)
    assert set(os.listdir("/dev/shm")) == before
