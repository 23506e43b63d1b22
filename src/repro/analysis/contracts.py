"""The assembly pass: wiring and contract checks over one model.

The paper's framework refuses bad compositions before the simulation
runs.  A component class declares its rc-script parameters once, in
``PARAMS`` (:class:`repro.cca.component.Param`), and its ports in
``set_services`` (``register_uses_port(..., optional=True)`` marks a
port it runs without).  As in the Cactus Configuration Language, the
declaration is the source: this pass reads it and validates
*assemblies* — rc-scripts, built frameworks, and ``repro.serve`` job
submissions — without ever calling ``go``.

An rc-script or a built framework is reduced to one
:class:`AssemblyModel`; each class to one :class:`ComponentManifest`,
its ``PARAMS`` plus the port tables one sandbox ``set_services``
registered (harvested once per class per process, no source parsed).
:func:`check_model` walks the model against the contracts:

* ``RA001``–``RA014`` — wiring: syntax errors, unknown classes,
  instances and ports, ``port_type`` mismatches, duplicate connections,
  use-before-instantiate and go-before-connect ordering, ``go`` targets
  without a go port, uses ports left unconnected (an error unless
  registered ``optional``), port-graph cycles, classes whose sandbox
  ``set_services`` raised.  Findings carry the rc-script line number.
* ``RA411`` — parameter name the instance's class never declared
  (with a did-you-mean suggestion when one is close).
* ``RA412`` — value outside the declared ``min``/``max`` range.
* ``RA413`` — value not among the declared ``choices``.
* ``RA414`` — value of the wrong type for the declaration.
* ``RA415`` — a ``required`` parameter never set.
* ``RA416`` — (warning) parameter set on an instance whose class never
  reads it, while another instance in the same assembly would.
* ``RA419`` — a serve job requesting an execution backend the
  :mod:`repro.exec` registry does not know (with a did-you-mean
  suggestion from the registry itself).

The pass is cheap enough to run inline on every ``serve`` submission
(:func:`check_job` / :func:`coerce_job_params` are the admission-control
entry points used by
:meth:`repro.serve.service.SimulationService.submit`).  Classes without
``PARAMS`` (ad-hoc components) get the wiring checks only.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence, Type

from repro.analysis.findings import Finding, Severity, finding
from repro.cca.component import Component, Param, declared_params
from repro.cca.framework import Framework
from repro.cca.script import _parse_value, parse_script_tolerant
from repro.cca.services import Services

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})


# --------------------------------------------------------------------------
# the declared contract of one component class
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ComponentManifest:
    """The declared contract of one component class (shared through the
    per-class cache: never mutated)."""

    class_name: str
    provides: dict[str, str] = field(default_factory=dict)  # name -> type
    uses: dict[str, str] = field(default_factory=dict)      # name -> type
    #: uses ports registered ``optional=True`` (run without a connection)
    optional: frozenset[str] = frozenset()
    #: provides ports whose object has a ``go()`` method
    go_ports: frozenset[str] = frozenset()
    #: ``PARAMS`` by name; None = undeclared, no parameter is checked
    parameters: dict[str, Param] | None = None
    #: reads parameters under computed keys (``OPEN_PARAMETERS``) — the
    #: contract pass accepts any parameter name.
    open_parameters: bool = False
    #: why the sandbox ``set_services`` raised (RA014); ports unknown
    error: str | None = None

    def param(self, name: str) -> Param | None:
        return (self.parameters or {}).get(name)


def default_classes() -> list[Type[Component]]:
    """The stock registry: every shipped component plus the three
    application drivers (what a default CCAFFEINE repository would hold).
    """
    from repro.apps.ignition0d import Ignition0DDriver
    from repro.apps.reaction_diffusion import ReactionDiffusionDriver
    from repro.apps.shock_interface import ShockInterfaceDriver
    from repro.components import ALL_COMPONENTS

    return list(ALL_COMPONENTS) + [
        Ignition0DDriver, ReactionDiffusionDriver, ShockInterfaceDriver]


def sandbox_services(cls: Type[Component]) -> Services:
    """The :class:`~repro.cca.services.Services` an instance of ``cls``
    registered its ports on, in a throwaway framework.

    Raises whatever the component's ``__init__``/``set_services`` raises.
    """
    fw = Framework()
    fw.registry.register(cls)
    fw.instantiate(cls.__name__, "__sandbox__")
    return fw.services_of("__sandbox__")


def manifest_from(cls: type, services: Services) -> ComponentManifest:
    """``cls``'s contract from its ``PARAMS`` and the port tables one of
    its instances registered on ``services``."""
    return ComponentManifest(
        class_name=cls.__name__,
        provides=services.provides_table(),
        uses=services.uses_table(),
        optional=frozenset(services.optional),
        go_ports=frozenset(
            name for name, (port, _ptype) in services.provides.items()
            if callable(getattr(port, "go", None))),
        parameters=declared_params(cls),
        open_parameters=cls.OPEN_PARAMETERS)


@functools.cache
def class_manifest(cls: type) -> ComponentManifest:
    """``cls``'s contract, its ports harvested by one sandbox
    ``set_services`` (cached per class, a failed harvest too: by the CCA
    contract ``set_services`` registers ports and starts no work)."""
    try:
        return manifest_from(cls, sandbox_services(cls))
    except Exception as exc:  # noqa: BLE001 - reported as RA014
        return ComponentManifest(
            class_name=cls.__name__,
            error=f"{type(exc).__name__}: {exc}")


class _Repository(Mapping[str, ComponentManifest]):
    """Class name -> contract; a class is harvested on its first lookup
    (so an analysis only runs ``set_services`` of the classes its
    assembly names)."""

    def __init__(self, classes: Sequence[type]) -> None:
        self._classes = {cls.__name__: cls for cls in classes}

    def __getitem__(self, name: str) -> ComponentManifest:
        return class_manifest(self._classes[name])

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


@functools.cache
def load_manifests() -> Mapping[str, ComponentManifest]:
    """The contracts of the stock repository (:func:`default_classes`),
    keyed by the class names rc-scripts use."""
    return _Repository(default_classes())


def manifests_of(classes: Sequence[type] | None
                 ) -> Mapping[str, ComponentManifest]:
    """The contracts of a class repository (None = the stock one), each
    harvested on first lookup and then cached for the process."""
    if classes is None:
        return load_manifests()
    return _Repository(classes)


# --------------------------------------------------------------------------
# value typing
# --------------------------------------------------------------------------
def value_type_ok(ptype: str, value: Any) -> bool:
    """Does ``value`` (an rc-parsed or override scalar) fit ``ptype``?

    ``str`` and ``any`` accept every scalar (components coerce with
    ``str()``); ``float`` accepts ints; ``bool`` accepts 0/1 and the
    usual true/false spellings.
    """
    if ptype in ("any", "str"):
        return isinstance(value, (bool, int, float, str))
    if ptype == "bool":
        if isinstance(value, bool):
            return True
        if isinstance(value, int):
            return value in (0, 1)
        if isinstance(value, str):
            return value.strip().lower() in (_TRUE_STRINGS | _FALSE_STRINGS)
        return False
    if isinstance(value, bool):
        return False  # True is not an acceptable int/float
    if ptype == "float":
        return isinstance(value, (int, float))
    if ptype == "int":
        return isinstance(value, int)
    return True


def coerce_value(ptype: str, value: Any) -> Any:
    """``value`` as the declared type (assumes :func:`value_type_ok`).

    This is what makes a ``"1100"`` string override on a float
    parameter key the cache identically to ``1100.0``.
    """
    if not value_type_ok(ptype, value):
        return value
    if ptype == "float":
        return float(value)
    if ptype == "int":
        return int(value)
    if ptype == "bool":
        if isinstance(value, str):
            return value.strip().lower() in _TRUE_STRINGS
        return bool(value)
    if ptype == "str":
        return str(value)
    return value


# --------------------------------------------------------------------------
# the assembly model every entry point reduces to
# --------------------------------------------------------------------------
@dataclass
class AssemblyModel:
    """The directives of one assembly, each with its rc-script line
    (None for built frameworks and serve overrides)."""

    path: str = "<assembly>"
    #: (class name, instance, line) per instantiate, in script order
    instantiations: list[tuple[str, str, int | None]] = \
        field(default_factory=list)
    #: (class name, line) per ``repository get-global``
    repositories: list[tuple[str, int]] = field(default_factory=list)
    #: (instance, key, parsed value, line)
    parameters: list[tuple[str, str, Any, int | None]] = \
        field(default_factory=list)
    #: (user, uses_port, provider, provides_port, line)
    connections: list[tuple[str, str, str, str, int | None]] = \
        field(default_factory=list)
    #: (instance, port, line) per ``go`` directive
    gos: list[tuple[str, str, int]] = field(default_factory=list)
    syntax_errors: list[tuple[int, str]] = field(default_factory=list)
    #: class name -> contract: the repository a script is checked
    #: against, or the classes a built framework instantiated
    classes: Mapping[str, ComponentManifest] = field(default_factory=dict)

    @property
    def instances(self) -> dict[str, str]:
        """instance -> class name (first instantiate wins, as in RA003)"""
        out: dict[str, str] = {}
        for class_name, inst, _line in self.instantiations:
            out.setdefault(inst, class_name)
        return out

    def reachable(self) -> set[str]:
        """Instances the schedule can touch: BFS over uses->provider
        edges from every ``go`` target."""
        edges: dict[str, set[str]] = {}
        for user, _up, provider, _pp, _line in self.connections:
            edges.setdefault(user, set()).add(provider)
        seen: set[str] = set()
        frontier = [inst for inst, _port, _line in self.gos]
        while frontier:
            inst = frontier.pop()
            if inst in seen:
                continue
            seen.add(inst)
            frontier.extend(edges.get(inst, ()))
        return seen


def model_from_script(text: str, path: str = "<script>",
                      manifests: Mapping[str, ComponentManifest] | None
                      = None) -> AssemblyModel:
    """Reduce an rc-script to its :class:`AssemblyModel`, checked against
    the class repository ``manifests`` (None = the stock one).  Tolerant:
    bad lines are recorded, good ones still contribute."""
    directives, errors = parse_script_tolerant(text)
    model = AssemblyModel(path=path, syntax_errors=list(errors),
                          classes=manifests if manifests is not None
                          else load_manifests())
    for d in directives:
        if d.verb == "repository":
            model.repositories.append((d.args[1], d.line_no))
        elif d.verb == "instantiate":
            model.instantiations.append((d.args[0], d.args[1], d.line_no))
        elif d.verb == "parameter":
            model.parameters.append(
                (d.args[0], d.args[1], _parse_value(list(d.args[2:])),
                 d.line_no))
        elif d.verb == "connect":
            model.connections.append((*d.args, d.line_no))
        elif d.verb == "go":
            port = d.args[1] if len(d.args) == 2 else "go"
            model.gos.append((d.args[0], port, d.line_no))
    return model


def model_from_framework(fw: Framework,
                         path: str = "<assembly>") -> AssemblyModel:
    """Reduce a built (not yet run) :class:`Framework`.  Each instance
    is checked against its own class's declaration, whatever its name,
    with the ports its live ``set_services`` registered."""
    classes: dict[str, ComponentManifest] = {}
    model = AssemblyModel(path=path, classes=classes)
    for name in fw.instance_names():
        cls = type(fw.get_component(name))
        services = fw.services_of(name)
        model.instantiations.append((cls.__name__, name, None))
        if cls.__name__ not in classes:
            classes[cls.__name__] = manifest_from(cls, services)
        for key, value in sorted(services.parameters.items()):
            model.parameters.append((name, key, value, None))
    for (user, uport), (provider, pport) in sorted(fw.connections().items()):
        model.connections.append((user, uport, provider, pport, None))
    return model


# --------------------------------------------------------------------------
# the checks
# --------------------------------------------------------------------------
def _find_cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Cycles in the user -> provider digraph (one per SCC, plus
    self-loops), via iterative DFS back-edge detection."""
    cycles: list[list[str]] = []
    color: dict[str, int] = {}
    stack_path: list[str] = []

    def dfs(start: str) -> None:
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        color[start] = 1
        stack_path.append(start)
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    stack_path.append(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    break
                if color.get(nxt) == 1:  # back edge: a cycle
                    i = stack_path.index(nxt)
                    cycles.append(stack_path[i:] + [nxt])
            else:
                color[node] = 2
                stack_path.pop()
                stack.pop()

    for node in sorted(edges):
        if color.get(node, 0) == 0:
            dfs(node)
    return cycles


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
        names = sorted(manifest.parameters or ())
        near = difflib.get_close_matches(key, names, n=1, cutoff=0.6)
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
            f"{', '.join(names) or '<none>'})",
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
            f"choices {list(spec.choices)}",
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


def check_model(model: AssemblyModel) -> list[Finding]:
    """Run RA001-RA014 and RA411-RA416 over one :class:`AssemblyModel`,
    against the class contracts it carries.  Instances whose class
    declares no ``PARAMS`` get no parameter checks.
    """
    classes = model.classes
    path = model.path
    out = [finding("RA001", message, path=path, line=line_no)
           for line_no, message in model.syntax_errors]

    def report(code: str, message: str, line: int | None = None,
               context: str | None = None) -> None:
        out.append(finding(code, message, path=path, line=line,
                           context=context))

    instances = model.instances
    first: dict[str, int | None] = {}  # instance -> first instantiate line
    for class_name, line in model.repositories:
        if class_name not in classes:
            report("RA002", f"repository get-global {class_name}: class "
                   f"not in the repository", line, class_name)
    for class_name, inst, line in model.instantiations:
        if class_name not in classes:
            report("RA002", f"instantiate {class_name}: class not in the "
                   f"repository", line, class_name)
        if inst in first:
            report("RA003", f"instance name {inst!r} already used on "
                   f"line {first[inst]}", line, inst)
        else:
            first[inst] = line

    def contract(inst: str) -> ComponentManifest | None:
        m = classes.get(instances.get(inst, ""))
        return None if m is None or m.error else m

    def before(at: int | None, line: int | None) -> bool:
        return at is None or line is None or at < line

    def known(name: str, verb: str, line: int | None) -> bool:
        """Instantiated before ``line``?  Reports RA004/RA007 if not."""
        if name in first and before(first[name], line):
            return True
        if name in first:
            report("RA007", f"{verb} references {name!r} before its "
                   f"instantiate on line {first[name]}", line, name)
        else:
            so_far = sorted(i for i, at in first.items() if before(at, line))
            report("RA004", f"{verb} references unknown instance "
                   f"{name!r} (instantiated so far: {so_far or '-'})",
                   line, name)
        return False

    failed: set[str] = set()
    for inst, class_name in instances.items():
        m = classes.get(class_name)
        if m is not None and m.error and class_name not in failed:
            failed.add(class_name)
            report("RA014", f"could not introspect {class_name}: sandbox "
                   f"set_services raised {m.error}", first[inst],
                   class_name)

    # RA411-RA416: parameter settings against the declarations
    def declared(inst: str) -> dict[str, Param] | None:
        m = contract(inst)
        return m.parameters if m is not None else None

    declared_elsewhere: dict[str, list[tuple[str, str]]] = {}
    for inst, class_name in instances.items():
        for name in sorted(declared(inst) or ()):
            declared_elsewhere.setdefault(name, []).append(
                (inst, class_name))
    set_keys: dict[str, set[str]] = {}
    for inst, key, value, line in model.parameters:
        known(inst, "parameter", line)
        set_keys.setdefault(inst, set()).add(key)
        if declared(inst) is not None:
            out.extend(_check_value(contract(inst), inst, key, value,
                                    path=path, line=line,
                                    declared_elsewhere=declared_elsewhere))
    for inst, class_name in instances.items():
        params = declared(inst) or {}
        for name in sorted(params):
            if params[name].required and name not in set_keys.get(inst, ()):
                report("RA415", f"{inst} ({class_name}) requires parameter "
                       f"{name!r} but the assembly never sets it",
                       context=f"{inst}.{name}")

    # RA005/RA006/RA008: each connection, in script order
    connected: dict[tuple[str, str], tuple[str, str]] = {}
    for user, uport, provider, pport, line in model.connections:
        ok_user = known(user, "connect", line)
        ok_prov = known(provider, "connect", line)
        um = contract(user) if ok_user else None
        pm = contract(provider) if ok_prov else None
        if um is not None and uport not in um.uses:
            report("RA005", f"{user} ({um.class_name}) has no uses port "
                   f"{uport!r} (declares: {sorted(um.uses) or '-'})",
                   line, user)
        if pm is not None and pport not in pm.provides:
            report("RA005", f"{provider} ({pm.class_name}) has no provides "
                   f"port {pport!r} (exports: "
                   f"{sorted(pm.provides) or '-'})", line, provider)
        utype = um.uses.get(uport) if um is not None else None
        ptype = pm.provides.get(pport) if pm is not None else None
        if utype is not None and ptype is not None and utype != ptype:
            report("RA006", f"type mismatch connecting {user}.{uport} "
                   f"[{utype}] to {provider}.{pport} [{ptype}]", line, user)
        if not ok_user:
            continue
        if (user, uport) in connected:
            prev_provider, prev_pport = connected[(user, uport)]
            report("RA008", f"{user}.{uport} is already connected to "
                   f"{prev_provider}.{prev_pport}", line, user)
        else:
            connected[(user, uport)] = (provider, pport)

    # RA009/RA010: the go schedule
    for inst, port, line in model.gos:
        m = contract(inst) if known(inst, "go", line) else None
        if m is None:
            continue
        if port not in m.provides:
            report("RA010", f"go {inst}: {m.class_name} provides no "
                   f"{port!r} port", line, inst)
        elif port not in m.go_ports:
            report("RA010", f"go {inst}: {inst}.{port} "
                   f"[{m.provides[port]}] has no go() method", line, inst)
    if model.gos:
        first_go = min(line for _inst, _port, line in model.gos)
        late = [c[4] for c in model.connections if c[4] > first_go]
        if late:
            report("RA009", f"go on line {first_go} runs before "
                   f"{len(late)} connect directive(s) (first on line "
                   f"{late[0]}) — wiring after go never took effect",
                   first_go)

    # RA011/RA012/RA013: the finished port graph
    for inst in sorted(instances):
        m = contract(inst)
        if m is None:
            continue
        for port in sorted(m.uses):
            if (inst, port) in connected:
                continue
            ptype = m.uses[port]
            if port in m.optional:
                report("RA012", f"{inst}.{port} [{ptype}] is not connected "
                       "(registered optional=True)",
                       first[inst], inst)
            else:
                report("RA011", f"{inst}.{port} [{ptype}] is never "
                       f"connected but {m.class_name} does not register "
                       f"it optional — this assembly raises "
                       f"PortNotConnectedError at run time",
                       first[inst], inst)
    edges: dict[str, set[str]] = {}
    for (user, _uport), (provider, _pport) in connected.items():
        edges.setdefault(user, set()).add(provider)
    for cycle in _find_cycles(edges):
        report("RA013", f"port graph cycle: {' -> '.join(cycle)} — call "
               f"chains through these uses ports can recurse",
               context=cycle[0])
    return out


def analyze_script(text: str,
                   classes: Sequence[Type[Component]] | None = None,
                   path: str = "<script>") -> list[Finding]:
    """Statically validate an rc-script against a class repository
    (None = the stock one).  Never executes a ``go`` port."""
    return check_model(model_from_script(text, path, manifests_of(classes)))


#: name -> zero-argument builder for the three paper assemblies.
def _builders():
    from repro.apps.ignition0d import build_ignition0d
    from repro.apps.reaction_diffusion import build_reaction_diffusion
    from repro.apps.shock_interface import build_shock_interface

    return {
        "ignition0d": build_ignition0d,
        "reaction_diffusion": build_reaction_diffusion,
        "shock_interface": build_shock_interface,
    }


def assembly_names() -> list[str]:
    return sorted(_builders())


def analyze_assembly(name: str) -> list[Finding]:
    """Build one of the paper assemblies (wiring only — ``go`` is never
    invoked) and check it."""
    builders = _builders()
    if name not in builders:
        return [finding(
            "RA002",
            f"unknown assembly {name!r} (have: "
            f"{', '.join(sorted(builders))})", path=name)]
    fw = Framework()
    builders[name](fw)
    return check_model(model_from_framework(fw, path=f"<assembly:{name}>"))


# --------------------------------------------------------------------------
# serve admission control
# --------------------------------------------------------------------------
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


def _job_model(script: str | AssemblyModel, path: str,
               manifests: Mapping[str, ComponentManifest] | None
               ) -> AssemblyModel:
    if isinstance(script, AssemblyModel):
        return script
    return model_from_script(script, path, manifests)


def check_job(script: str | AssemblyModel,
              params: Mapping[str, Any] | None = None,
              *, manifests: Mapping[str, ComponentManifest] | None = None,
              path: str = "<job>", backend: str = "") -> list[Finding]:
    """The serve admission gate: the whole model check over (script +
    overrides), at warning severity and above.  ``script`` may be given
    as its already-built model (which is not modified).

    Each override is checked as one more ``parameter`` setting, so it
    counts as "set" for RA415; one on an instance the script never
    instantiates is an RA411.  ``backend`` (the job's execution-backend
    request, "" = service default) is validated against the
    :mod:`repro.exec` registry (RA419).
    """
    model = _job_model(script, path, manifests)
    path = model.path
    instances = model.instances
    settings = list(model.parameters)
    out: list[Finding] = []
    for dotted, value in sorted((params or {}).items()):
        instance, _, key = dotted.partition(".")
        if instance in instances:
            settings.append((instance, key, value, None))
            continue
        near = difflib.get_close_matches(instance, list(instances),
                                         n=1, cutoff=0.6)
        hint = f" — did you mean {near[0]!r}?" if near else ""
        out.append(finding(
            "RA411",
            f"override {dotted!r} targets an instance the script never "
            f"instantiates{hint}",
            path=path, context=dotted))
    kept = [f for f in check_model(replace(model, parameters=settings))
            if f.severity >= Severity.WARNING]
    return kept + out + check_backend(backend, path)


def coerce_job_params(script: str | AssemblyModel,
                      params: Mapping[str, Any] | None,
                      manifests: Mapping[str, ComponentManifest] | None
                      = None) -> dict[str, Any]:
    """Override values coerced to their declared types.

    ``{"Initializer.T0": "1100"}`` becomes ``1100.0`` when the class
    declares T0 a float — so string-typed CLI overrides key the result
    cache identically to their numeric form.  Values that do not fit
    the declared type (or target undeclared parameters) pass through
    unchanged; :func:`check_job` is where they are rejected.
    """
    model = _job_model(script, "<script>", manifests)
    instances = model.instances
    out: dict[str, Any] = {}
    for dotted, value in (params or {}).items():
        instance, _, key = dotted.partition(".")
        m = model.classes.get(instances.get(instance, ""))
        spec = m.param(key) if m is not None else None
        if spec is not None and value_type_ok(spec.type, value):
            out[dotted] = coerce_value(spec.type, value)
        else:
            out[dotted] = value
    return out


__all__ = [
    "ComponentManifest", "default_classes", "sandbox_services",
    "class_manifest", "load_manifests", "manifests_of", "value_type_ok",
    "coerce_value", "AssemblyModel", "model_from_script",
    "model_from_framework", "check_model", "analyze_script",
    "assembly_names", "analyze_assembly", "check_backend", "check_job",
    "coerce_job_params",
]
