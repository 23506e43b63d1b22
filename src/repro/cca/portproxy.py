"""Transparent port proxy: the one place port calls are observed.

Four instruments want to see a call through a uses port: the tracer
(:mod:`repro.obs.trace`), a profiler registered on the framework
(:class:`repro.cca.profiling.Profiler`), the race sanitizer
(:mod:`repro.mpi.sanitizer`) and fault injection
(:mod:`repro.resilience.faults`).  :func:`intercept` decides which of
them apply to one connection and returns either the provider's own port
object (nothing armed — the paper's "one virtual hop") or a single
:class:`PortProxy` running all of them; a proxy never wraps a proxy.
:class:`~repro.cca.services.Services` binds that answer on its
``ports`` namespace until the wiring or an instrument's armed state
changes (:mod:`repro.util.arming`).

A proxied method call runs its hooks in this order, outermost first:

1. ``recorder.begin(key)`` / ``recorder.end(key, token)`` — the
   profiler's CPU self-time has to include everything the call costs,
   the other instruments' bookkeeping too;
2. the trace span ``"provider:port.method"`` (category ``"port"``, only
   while tracing is on) — it brackets the hooks below, so a detected
   race or an injected fault is raised *inside* the span of the call it
   belongs to;
3. ``sanitizer.record_write`` keyed by the provider port's identity —
   before anything can abort the call, so a call that is about to fail
   still counts as a touch of a shared instance;
4. ``faults.on_port_call`` — last, because the injected exception stands
   in for the target method raising;
5. the target method.

Each wrapped method is built on first access and cached on the proxy,
so ``port.method is port.method`` and a repeated lookup costs one
instance-dict hit.
"""

from __future__ import annotations

from typing import Any

from repro.cca.port import Port
from repro.errors import CCAError
from repro.mpi import sanitizer as _tsan
from repro.obs import trace as _trace
from repro.resilience import faults as _faults


def intercept(target: Port, label: str, recorder: Any | None = None) -> Port:
    """What a uses port connected to ``target`` binds to right now.

    ``label`` is ``"provider:provides_port"``; ``recorder`` is the
    framework's registered profiler (duck-typed ``begin(key) -> token``
    / ``end(key, token)``) or ``None``.
    """
    sanitize = _tsan.on
    inject = _faults.on and _faults.wraps_label(label)
    if recorder is None and not (_trace.on or sanitize or inject):
        return target
    return PortProxy(target, label, recorder, sanitize, inject)


class PortProxy(Port):
    """Forwarding wrapper around a provides-port object.

    Non-callable attributes are read from and written to the target;
    callables are wrapped in the hook chain the module docstring gives.
    """

    def __init__(self, target: Port, label: str,
                 recorder: Any | None = None, sanitize: bool = False,
                 inject: bool = False) -> None:
        # bypass our own __setattr__/__getattr__ plumbing
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_chain",
                           (label, recorder, sanitize, inject))

    @classmethod
    def port_type(cls):  # pragma: no cover - proxies are created wired
        raise CCAError("proxy has no static port type")

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_target")
        value = getattr(target, name)
        if not callable(value):
            return value
        label, recorder, sanitize, inject = \
            object.__getattribute__(self, "_chain")
        key = f"{label}.{name}"
        before = []
        if sanitize:
            before.append((_tsan.record_write,
                           f"port {key}() [instance id 0x{id(target):x}]"))
        if inject:
            before.append((_faults.on_port_call, key))

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            token = recorder.begin(key) if recorder is not None else None
            try:
                with (_trace.Span(key, "port", {}) if _trace.on
                      else _trace.NULL_SPAN):
                    for hook, arg in before:
                        hook(arg)
                    return value(*args, **kwargs)
            finally:
                if recorder is not None:
                    recorder.end(key, token)

        object.__setattr__(self, name, wrapped)
        return wrapped

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)
        # a wrapper cached for the old value would shadow the new one
        object.__getattribute__(self, "__dict__").pop(name, None)
