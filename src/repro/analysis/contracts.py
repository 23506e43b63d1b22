"""The RA41x assembly contract pass: manifests vs actual assemblies.

Where the RA40x drift pass (:mod:`repro.analysis.manifest`) keeps the
committed manifests honest against the component *source*, this pass
turns them around and validates *assemblies* — rc-scripts, built
frameworks, and ``repro.serve`` job submissions — against the declared
contracts, the way the Cactus Configuration Language vets a parameter
file before a single step runs:

* ``RA411`` — parameter name the instance's class never declared
  (with a did-you-mean suggestion when one is close).
* ``RA412`` — value outside the declared ``min``/``max`` range.
* ``RA413`` — value not among the declared ``choices``.
* ``RA414`` — value of the wrong type for the declaration.
* ``RA415`` — a ``required: true`` parameter never set.
* ``RA416`` — (warning) parameter set on an instance whose class never
  reads it, while another instance in the same assembly would.
* ``RA417`` — a manifest-required uses port left unconnected on an
  instance the ``go`` directive reaches.
* ``RA418`` — a connection pairing incompatible manifest port types
  (catches what RA006 cannot when sandbox introspection fails).
* ``RA419`` — a serve job requesting an execution backend the
  :mod:`repro.exec` registry does not know (with a did-you-mean
  suggestion from the registry itself).

Everything here is manifest-driven and static: no component is
instantiated, so the pass is cheap enough to run inline on every
``serve`` submission (:func:`check_job` / :func:`coerce_job_params` are
the admission-control entry points used by
:meth:`repro.serve.service.SimulationService.submit`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.findings import Finding, finding
from repro.analysis.manifest import (ComponentManifest, coerce_value,
                                     load_manifests, value_type_ok)
from repro.cca.script import _parse_value, parse_script_tolerant


# --------------------------------------------------------------------------
# the assembly model both entry points reduce to
# --------------------------------------------------------------------------
@dataclass
class AssemblyModel:
    """The contract-relevant facts of one assembly."""

    path: str = "<assembly>"
    #: instance -> class name (first instantiate wins, as in RA003)
    instances: dict[str, str] = field(default_factory=dict)
    #: (instance, key, parsed value, line or None)
    parameters: list[tuple[str, str, Any, int | None]] = \
        field(default_factory=list)
    #: (user, uses_port, provider, provides_port, line or None)
    connections: list[tuple[str, str, str, str, int | None]] = \
        field(default_factory=list)
    #: go targets; empty = library assembly, RA417 is skipped
    go_targets: list[str] = field(default_factory=list)
    #: instances to treat as go-reachable even without a go directive
    #: (built frameworks carry no schedule, so everything counts)
    assume_reachable: bool = False
    #: rc syntax errors, surfaced only by :func:`check_job`
    syntax_errors: list[tuple[int, str]] = field(default_factory=list)

    def reachable(self) -> set[str]:
        """Instances the schedule can touch: BFS over uses->provider
        edges from every ``go`` target."""
        if self.assume_reachable:
            return set(self.instances)
        edges: dict[str, set[str]] = {}
        for user, _up, provider, _pp, _line in self.connections:
            edges.setdefault(user, set()).add(provider)
        seen: set[str] = set()
        frontier = [t for t in self.go_targets if t in self.instances]
        while frontier:
            inst = frontier.pop()
            if inst in seen:
                continue
            seen.add(inst)
            frontier.extend(edges.get(inst, ()))
        return seen


def model_from_script(text: str, path: str = "<script>") -> AssemblyModel:
    """Reduce an rc-script to its :class:`AssemblyModel` (tolerant: bad
    lines are recorded, good ones still contribute)."""
    directives, errors = parse_script_tolerant(text)
    model = AssemblyModel(path=path, syntax_errors=list(errors))
    for d in directives:
        if d.verb == "instantiate":
            model.instances.setdefault(d.args[1], d.args[0])
        elif d.verb == "parameter":
            model.parameters.append(
                (d.args[0], d.args[1], _parse_value(list(d.args[2:])),
                 d.line_no))
        elif d.verb == "connect":
            model.connections.append(
                (d.args[0], d.args[1], d.args[2], d.args[3], d.line_no))
        elif d.verb == "go":
            model.go_targets.append(d.args[0])
    return model


def model_from_framework(fw, path: str = "<assembly>") -> AssemblyModel:
    """Reduce a built :class:`~repro.cca.framework.Framework`.

    Built assemblies carry no ``go`` schedule (the builder returns
    before running), so every instance is treated as reachable — the
    shipped builders wire everything they instantiate.
    """
    model = AssemblyModel(path=path, assume_reachable=True)
    for name in fw.instance_names():
        model.instances[name] = type(fw.get_component(name)).__name__
        for key, value in sorted(fw.services_of(name).parameters.items()):
            model.parameters.append((name, key, value, None))
    for (user, uport), (provider, pport) in sorted(fw.connections().items()):
        model.connections.append((user, uport, provider, pport, None))
    return model


# --------------------------------------------------------------------------
# the checks
# --------------------------------------------------------------------------
def _check_value(manifest: ComponentManifest, instance: str, key: str,
                 value: Any, *, path: str, line: int | None,
                 declared_elsewhere: Mapping[str, list[tuple[str, str]]],
                 ) -> list[Finding]:
    """RA411-RA414 + RA416 for one ``parameter`` setting."""
    cname = manifest.class_name
    spec = manifest.param(key)
    if spec is None:
        if manifest.open_parameters:
            return []
        near = difflib.get_close_matches(key, manifest.param_names(),
                                         n=1, cutoff=0.6)
        if near:
            return [finding(
                "RA411",
                f"{instance} ({cname}) has no parameter {key!r} — did "
                f"you mean {near[0]!r}?",
                path=path, line=line, context=f"{instance}.{key}")]
        owners = [(i, c) for i, c in declared_elsewhere.get(key, [])
                  if i != instance]
        if owners:
            inst2, cls2 = owners[0]
            return [finding(
                "RA416",
                f"parameter {key!r} set on {instance} ({cname}), whose "
                f"class never reads it — {inst2} ({cls2}) declares it; "
                f"the setting is silently ignored",
                path=path, line=line, context=f"{instance}.{key}")]
        return [finding(
            "RA411",
            f"{instance} ({cname}) has no parameter {key!r} (declares: "
            f"{', '.join(manifest.param_names()) or '<none>'})",
            path=path, line=line, context=f"{instance}.{key}")]
    if not value_type_ok(spec.type, value):
        return [finding(
            "RA414",
            f"{instance}.{key} = {value!r}: declared type is "
            f"{spec.type!r}, got {type(value).__name__}",
            path=path, line=line, context=f"{instance}.{key}")]
    out: list[Finding] = []
    v = coerce_value(spec.type, value)
    if spec.choices is not None and v not in spec.choices and \
            str(v) not in {str(c) for c in spec.choices}:
        out.append(finding(
            "RA413",
            f"{instance}.{key} = {v!r} is not one of the declared "
            f"choices {spec.choices}",
            path=path, line=line, context=f"{instance}.{key}"))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if spec.min is not None and v < spec.min:
            out.append(finding(
                "RA412",
                f"{instance}.{key} = {v!r} is below the declared "
                f"minimum {spec.min!r}",
                path=path, line=line, context=f"{instance}.{key}"))
        if spec.max is not None and v > spec.max:
            out.append(finding(
                "RA412",
                f"{instance}.{key} = {v!r} is above the declared "
                f"maximum {spec.max!r}",
                path=path, line=line, context=f"{instance}.{key}"))
    return out


def check_model(model: AssemblyModel,
                manifests: Mapping[str, ComponentManifest] | None = None,
                *, standalone: bool = False) -> list[Finding]:
    """Run RA411-RA418 over one :class:`AssemblyModel`.

    Instances whose class has no manifest are skipped — the drift pass
    (RA406) is what forces shipped components to have one; ad-hoc test
    components simply opt out of contract checking.  ``standalone``
    (no wiring pass runs alongside) adds what that pass would report:
    syntax errors (RA001) and connections to ports no manifest declares
    (RA005).
    """
    manifests = manifests if manifests is not None else load_manifests()
    out: list[Finding] = []
    if standalone:
        for line_no, message in model.syntax_errors:
            out.append(finding("RA001", message, path=model.path,
                               line=line_no))

    def manifest_of(instance: str) -> ComponentManifest | None:
        cls = model.instances.get(instance)
        return manifests.get(cls) if cls is not None else None

    # which instances' classes declare each parameter name (for RA416)
    declared_elsewhere: dict[str, list[tuple[str, str]]] = {}
    for instance, cls in model.instances.items():
        m = manifests.get(cls)
        if m is None:
            continue
        for p in m.parameters:
            declared_elsewhere.setdefault(p.name, []).append(
                (instance, cls))

    set_keys: dict[str, set[str]] = {i: set() for i in model.instances}
    for instance, key, value, line in model.parameters:
        set_keys.setdefault(instance, set()).add(key)
        m = manifest_of(instance)
        if m is None:
            continue
        out.extend(_check_value(m, instance, key, value, path=model.path,
                                line=line,
                                declared_elsewhere=declared_elsewhere))

    # RA415: required parameters never set
    for instance, cls in model.instances.items():
        m = manifests.get(cls)
        if m is None:
            continue
        for p in m.parameters:
            if p.required and p.name not in set_keys.get(instance, ()):
                out.append(finding(
                    "RA415",
                    f"{instance} ({cls}) requires parameter "
                    f"{p.name!r} but the assembly never sets it",
                    path=model.path, context=f"{instance}.{p.name}"))

    # RA418: manifest port-type pairing on every connection
    connected: set[tuple[str, str]] = set()
    for user, uport, provider, pport, line in model.connections:
        connected.add((user, uport))
        um, pm = manifest_of(user), manifest_of(provider)
        uspec = um.uses_port(uport) if um is not None else None
        pspec = pm.provides_port(pport) if pm is not None else None
        if standalone:
            for m, inst, port, spec, kind in (
                    (um, user, uport, uspec, "uses"),
                    (pm, provider, pport, pspec, "provides")):
                if m is not None and spec is None:
                    out.append(finding(
                        "RA005",
                        f"{inst} ({m.class_name}) has no {kind} port "
                        f"{port!r}",
                        path=model.path, line=line,
                        context=f"{inst}.{port}"))
        if uspec is not None and pspec is not None and \
                uspec.type != pspec.type:
            out.append(finding(
                "RA418",
                f"connect {user}.{uport} [{uspec.type}] -> "
                f"{provider}.{pport} [{pspec.type}]: manifest port "
                f"types are incompatible",
                path=model.path, line=line,
                context=f"{user}.{uport}"))

    # RA417: required uses ports of go-reachable instances
    if model.go_targets or model.assume_reachable:
        for instance in sorted(model.reachable()):
            m = manifest_of(instance)
            if m is None:
                continue
            for p in m.uses:
                if p.required and (instance, p.name) not in connected:
                    out.append(finding(
                        "RA417",
                        f"{instance} ({m.class_name}) is go-reachable "
                        f"but its required uses port {p.name!r} "
                        f"[{p.type}] is unconnected",
                        path=model.path,
                        context=f"{instance}.{p.name}"))
    return out


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------
def analyze_script_contracts(
        text: str, path: str = "<script>",
        manifests: Mapping[str, ComponentManifest] | None = None,
        *, standalone: bool = False) -> list[Finding]:
    """RA41x over an rc-script (``standalone`` only when asked — the
    wiring pass already owns RA001 / RA005 in the combined CLI run)."""
    return check_model(model_from_script(text, path), manifests,
                       standalone=standalone)


def analyze_script_file_contracts(
        path: str,
        manifests: Mapping[str, ComponentManifest] | None = None,
        ) -> list[Finding]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [finding("RA001", f"cannot read {path!r}: {exc}",
                        path=path)]
    return analyze_script_contracts(text, path, manifests)


def analyze_framework_contracts(
        fw, path: str = "<assembly>",
        manifests: Mapping[str, ComponentManifest] | None = None,
        ) -> list[Finding]:
    """RA41x over a built framework (builder-produced assemblies)."""
    return check_model(model_from_framework(fw, path), manifests)


def analyze_assembly_contracts(name: str) -> list[Finding]:
    """RA41x over a shipped builder assembly by name."""
    from repro.analysis.wiring import _builders
    from repro.cca.framework import Framework

    builders = _builders()
    if name not in builders:
        return [finding(
            "RA002",
            f"unknown assembly {name!r} (have: "
            f"{', '.join(sorted(builders))})", path=name)]
    fw = Framework()
    builders[name](fw)
    return analyze_framework_contracts(fw, path=f"<assembly:{name}>")


# --------------------------------------------------------------------------
# serve admission control
# --------------------------------------------------------------------------
def _override_findings(model: AssemblyModel,
                       manifests: Mapping[str, ComponentManifest],
                       params: Mapping[str, Any],
                       path: str) -> list[Finding]:
    out: list[Finding] = []
    declared_elsewhere: dict[str, list[tuple[str, str]]] = {}
    for instance, cls in model.instances.items():
        m = manifests.get(cls)
        if m is None:
            continue
        for p in m.parameters:
            declared_elsewhere.setdefault(p.name, []).append(
                (instance, cls))
    for dotted, value in sorted(params.items()):
        instance, _, key = dotted.partition(".")
        cls = model.instances.get(instance)
        if cls is None:
            near = difflib.get_close_matches(
                instance, list(model.instances), n=1, cutoff=0.6)
            hint = f" — did you mean {near[0]!r}?" if near else ""
            out.append(finding(
                "RA411",
                f"override {dotted!r} targets an instance the script "
                f"never instantiates{hint}",
                path=path, context=dotted))
            continue
        m = manifests.get(cls)
        if m is None:
            continue
        out.extend(_check_value(m, instance, key, value, path=path,
                                line=None,
                                declared_elsewhere=declared_elsewhere))
    return out


def check_backend(backend: str, path: str = "<job>") -> list[Finding]:
    """RA419: the job's execution backend must exist in the
    :mod:`repro.exec` registry.  The finding's message is the registry's
    own error — including its did-you-mean suggestion (``"mp2"`` ->
    ``did you mean 'mp'?``) and the list of registered names."""
    if not backend:
        return []
    from repro.errors import MPIError
    from repro.exec import resolve_name
    try:
        resolve_name(backend)
    except MPIError as exc:
        return [finding("RA419", str(exc), path=path,
                        context=f"backend={backend}")]
    return []


def check_job(script: str, params: Mapping[str, Any] | None = None,
              *, manifests: Mapping[str, ComponentManifest] | None = None,
              path: str = "<job>", backend: str = "") -> list[Finding]:
    """The serve admission gate: RA41x over (script + overrides).

    Override keys count as "set" for the RA415 required-parameter check.
    Syntax errors and unknown port names are included (such a script
    must be rejected at submit, not discovered by a worker).  ``backend``
    (the job's execution-backend request, "" = service default) is
    validated against the :mod:`repro.exec` registry (RA419).
    """
    manifests = manifests if manifests is not None else load_manifests()
    model = model_from_script(script, path)
    out = _check_job_model(model, manifests, dict(params or {}), path)
    out.extend(check_backend(backend, path))
    return out


def _check_job_model(model: AssemblyModel,
                     manifests: Mapping[str, ComponentManifest],
                     params: Mapping[str, Any],
                     path: str) -> list[Finding]:
    # script-side checks, with override keys satisfying RA415
    override_keys: dict[str, set[str]] = {}
    for dotted in params:
        instance, _, key = dotted.partition(".")
        override_keys.setdefault(instance, set()).add(key)
    base = check_model(model, manifests, standalone=True)
    kept: list[Finding] = []
    for f in base:
        if f.code == "RA415" and f.context:
            instance, _, key = f.context.partition(".")
            if key in override_keys.get(instance, ()):
                continue  # satisfied by an override
        kept.append(f)
    kept.extend(_override_findings(model, manifests, params, path))
    return kept


def coerce_job_params(script: str, params: Mapping[str, Any] | None,
                      manifests: Mapping[str, ComponentManifest] | None
                      = None) -> dict[str, Any]:
    """Override values coerced to their declared types.

    ``{"Initializer.T0": "1100"}`` becomes ``1100.0`` when the manifest
    declares T0 a float — so string-typed CLI overrides key the result
    cache identically to their numeric form.  Values that do not fit
    the declared type (or target undeclared parameters) pass through
    unchanged; :func:`check_job` is where they are rejected.
    """
    manifests = manifests if manifests is not None else load_manifests()
    model = model_from_script(script)
    out: dict[str, Any] = {}
    for dotted, value in (params or {}).items():
        instance, _, key = dotted.partition(".")
        m = manifests.get(model.instances.get(instance, ""))
        spec = m.param(key) if m is not None else None
        if spec is not None and value_type_ok(spec.type, value):
            out[dotted] = coerce_value(spec.type, value)
        else:
            out[dotted] = value
    return out


__all__ = [
    "AssemblyModel", "model_from_script", "model_from_framework",
    "check_model", "analyze_script_contracts",
    "analyze_script_file_contracts", "analyze_framework_contracts",
    "analyze_assembly_contracts", "check_job", "coerce_job_params",
]
