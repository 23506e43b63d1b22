"""Deterministic, seeded fault injection — off by default.

Chaos testing for the toolkit's long parallel runs: a single module flag
(``faults.on``, mirroring :mod:`repro.obs.trace`) guards every hook, so
the disabled cost on the hot paths (MPI sends, CCA port calls) is one
module-attribute read.  When armed via :func:`configure`, a
:class:`FaultPlan` describes exactly which failures to inject:

* **rank-kill at step k** — the driver step-loop hook
  (:meth:`repro.resilience.hooks.CheckpointHook.after_step`) calls
  :func:`step_hook`, which raises :class:`~repro.errors.InjectedFault`
  on the configured ``(rank, step)``;
* **message drop / delay** — :meth:`repro.mpi.comm.Comm.send` consults
  :func:`on_send`; drops are counted and the message silently discarded,
  delays inflate the virtual-time flight cost;
* **exception injection in a named component method** — the port
  interception seam (:mod:`repro.cca.portproxy`) calls
  :func:`on_port_call` before each method of the port the plan targets
  (:func:`wraps_label`); it raises on the configured N-th call.

Every decision is a pure function of ``(seed, event identity, event
counter)``, so the same plan against the same program injects the same
faults — a prerequisite for the checkpoint/restart determinism proof.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field

from repro.errors import InjectedFault
from repro.util import arming as _arming

#: Master switch.  Hot paths read this module attribute directly
#: (``if faults.on:``); it is True exactly while a plan is configured.
on: bool = False

_lock = threading.Lock()


@dataclass
class FaultPlan:
    """What to inject.  All fields default to "nothing"."""

    #: kill this global rank ... (-1 = no rank-kill)
    kill_rank: int = -1
    #: ... when its driver completes this step (0 = no rank-kill)
    kill_step: int = 0
    #: fire the rank-kill at most this many times (survives restarts of
    #: the same process, so a supervised re-run is not re-killed forever)
    kill_max_fires: int = 1
    #: probability that any one send is dropped (0.0 = never)
    drop_prob: float = 0.0
    #: cap on total dropped messages (bounded chaos; 0 = unlimited)
    drop_max: int = 0
    #: virtual seconds added to a delayed message's flight time
    delay_seconds: float = 0.0
    #: probability that any one send is delayed
    delay_prob: float = 0.0
    #: inject into this port call: ``"Provider:port.method"`` (the
    #: port span naming convention), "" = no method injection
    inject_method: str = ""
    #: raise on the N-th matching call (1-based)
    inject_call: int = 1
    #: fire the method injection at most this many times
    inject_max_fires: int = 1
    #: decision seed — same seed, same program, same faults
    seed: int = 1234


@dataclass
class _Counters:
    """Mutable bookkeeping for one armed plan."""

    kills: int = 0
    drops: int = 0
    delays: int = 0
    method_calls: dict[str, int] = field(default_factory=dict)
    method_fires: int = 0
    send_serial: dict[tuple[int, int], int] = field(default_factory=dict)


_plan: FaultPlan | None = None
_counters = _Counters()


def configure(plan: FaultPlan) -> None:
    """Arm the fault plan (sets the module flag)."""
    global on, _plan, _counters
    with _lock:
        _plan = plan
        _counters = _Counters()
        on = True
    _arming.bump()


def deactivate() -> None:
    """Disarm fault injection (hot paths go back to one flag check)."""
    global on, _plan
    with _lock:
        on = False
        _plan = None
    _arming.bump()


def plan() -> FaultPlan | None:
    """The armed plan, or None."""
    return _plan


def injected_counts() -> dict[str, int]:
    """How many faults actually fired (for runner metrics)."""
    with _lock:
        return {
            "kills": _counters.kills,
            "drops": _counters.drops,
            "delays": _counters.delays,
            "method_exceptions": _counters.method_fires,
        }


def snapshot_counts() -> dict:
    """Absolute counter snapshot, for cross-process merging.

    The ``mp`` backend captures one in the parent at fork time (the
    baseline) and one in each worker at exit; :func:`merge_counts` folds
    the per-worker deltas back into the parent so a supervised retry
    sees e.g. ``kills`` already at ``kill_max_fires``.
    """
    with _lock:
        return {
            "kills": _counters.kills,
            "drops": _counters.drops,
            "delays": _counters.delays,
            "method_fires": _counters.method_fires,
            "method_calls": dict(_counters.method_calls),
            "send_serial": dict(_counters.send_serial),
        }


def merge_counts(baseline: dict, snapshots: list[dict]) -> None:
    """Fold worker snapshots into this process's counters.

    Workers inherit ``baseline`` at fork, so each scalar merges as the
    sum of per-worker deltas above it (every injected fault fired in
    exactly one process).  ``send_serial`` merges per channel by max: a
    channel's sender lives in exactly one worker.
    """
    with _lock:
        for attr in ("kills", "drops", "delays", "method_fires"):
            total = getattr(_counters, attr)
            for snap in snapshots:
                total += max(0, snap.get(attr, 0) - baseline.get(attr, 0))
            setattr(_counters, attr, total)
        base_calls = baseline.get("method_calls", {})
        for snap in snapshots:
            for key, n in snap.get("method_calls", {}).items():
                delta = max(0, n - base_calls.get(key, 0))
                _counters.method_calls[key] = (
                    _counters.method_calls.get(key, 0) + delta)
        for snap in snapshots:
            for channel, n in snap.get("send_serial", {}).items():
                _counters.send_serial[channel] = max(
                    _counters.send_serial.get(channel, 0), n)


def _decide(prob: float, *key) -> bool:
    """Seeded deterministic Bernoulli draw for one event identity."""
    if prob <= 0.0:
        return False
    if prob >= 1.0:
        return True
    p = _plan
    digest = zlib.crc32(repr((p.seed if p else 0,) + key).encode("utf-8"))
    return (digest / 0xFFFFFFFF) < prob


# -- hook: driver step loop ---------------------------------------------------
def step_hook(rank: int, step: int) -> None:
    """Raise InjectedFault when ``rank`` completes the configured step.

    Callers guard with ``if faults.on`` themselves (hot-path contract).
    """
    p = _plan
    if p is None or p.kill_step <= 0 or rank != p.kill_rank \
            or step != p.kill_step:
        return
    with _lock:
        if _counters.kills >= p.kill_max_fires:
            return
        _counters.kills += 1
    raise InjectedFault(
        f"injected rank-kill: rank {rank} at step {step}")


# -- hook: MPI send path ------------------------------------------------------
#: sentinel returned by :func:`on_send` when the message must be dropped
DROP = object()


def on_send(src: int, dest: int, tag: int) -> object | float:
    """Fate of one send: :data:`DROP`, a delay in virtual seconds, or 0.0.

    The decision is keyed on the per-channel send ordinal so it is
    independent of wall-clock timing and thread interleaving.
    """
    p = _plan
    if p is None:
        return 0.0
    with _lock:
        serial = _counters.send_serial.get((src, dest), 0) + 1
        _counters.send_serial[(src, dest)] = serial
    if p.drop_prob > 0.0 and _decide(p.drop_prob, "drop", src, dest, tag,
                                     serial):
        with _lock:
            if not p.drop_max or _counters.drops < p.drop_max:
                _counters.drops += 1
                return DROP
    if p.delay_prob > 0.0 and p.delay_seconds > 0.0 and _decide(
            p.delay_prob, "delay", src, dest, tag, serial):
        with _lock:
            _counters.delays += 1
        return p.delay_seconds
    return 0.0


# -- hook: CCA port-call path -------------------------------------------------
def wraps_label(label: str) -> bool:
    """Does the armed plan target a method of the port ``label``?"""
    p = _plan
    return (p is not None and bool(p.inject_method)
            and p.inject_method.rsplit(".", 1)[0] == label)


def on_port_call(key: str) -> None:
    """Count one port-method call; raise on the configured N-th one."""
    p = _plan
    if p is None or key != p.inject_method:
        return
    with _lock:
        n = _counters.method_calls.get(key, 0) + 1
        _counters.method_calls[key] = n
        if n != p.inject_call or _counters.method_fires >= p.inject_max_fires:
            return
        _counters.method_fires += 1
    raise InjectedFault(
        f"injected exception in port call {key} (call #{n})")
