"""Assembly/wiring analyzer: validate compositions without running them.

The paper's framework refuses bad compositions before the simulation
runs; our reproduction previously discovered wiring mistakes only at
``go`` time.  This pass closes that gap two ways:

* :func:`analyze_script` parses a CCAFFEINE rc-script into its port
  graph (never calling ``go``), *sandbox-instantiates* each referenced
  component class in a throwaway :class:`~repro.cca.framework.Framework`
  to harvest its declared provides/uses tables, and then checks every
  directive: unknown classes/instances/ports, ``port_type`` mismatches,
  duplicate connections, use-before-instantiate and go-before-connect
  ordering, unconnected uses ports that the component's source fetches
  unguarded, and cycles in the port graph.  Findings carry the
  rc-script line number from :attr:`repro.cca.script.Directive.line_no`.
* :func:`analyze_framework` applies the end-state checks (dangling uses
  ports, cycles) to an already-built framework — the path used for the
  programmatic ``apps/assemblies`` builders via :func:`analyze_assembly`.

Sandbox instantiation runs only ``__init__`` and ``set_services`` — by
the CCA contract these register ports and must not start work, so the
harvest is safe and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Type

from repro.analysis.findings import Finding, finding
from repro.analysis.lifecycle import class_fetch_profile
from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.script import Directive, parse_script_tolerant
from repro.cca.services import Services


@dataclass
class PortTable:
    """The harvested provides/uses declaration of one component class."""

    class_name: str
    provides: dict[str, str] = field(default_factory=dict)  # name -> type
    uses: dict[str, str] = field(default_factory=dict)      # name -> type
    go_ports: set[str] = field(default_factory=set)
    #: uses-port name -> True when every get_port of it is guarded
    fetch_guarded: dict[str, bool] = field(default_factory=dict)


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


def harvest_port_table(cls: Type[Component]) -> PortTable:
    """Sandbox-instantiate ``cls`` and snapshot its declared ports.

    Raises whatever the component's ``__init__``/``set_services`` raises;
    callers turn that into an ``RA014`` finding.
    """
    services = sandbox_services(cls)
    table = PortTable(
        class_name=cls.__name__,
        provides=services.provides_table(),
        uses=services.uses_table(),
        fetch_guarded=class_fetch_profile(cls),
    )
    for name, (port, _ptype) in services.provides.items():
        if callable(getattr(port, "go", None)):
            table.go_ports.add(name)
    return table


class _Tables:
    """Lazy per-class harvest cache shared across one analysis."""

    def __init__(self, classes: Iterable[Type[Component]],
                 path: str) -> None:
        self.classes = {cls.__name__: cls for cls in classes}
        self.path = path
        self._cache: dict[str, PortTable | None] = {}
        self.findings: list[Finding] = []

    def __contains__(self, class_name: str) -> bool:
        return class_name in self.classes

    def get(self, class_name: str,
            line: int | None = None) -> PortTable | None:
        """The class's table, or None if unknown/uninstantiable."""
        if class_name not in self.classes:
            return None
        if class_name not in self._cache:
            try:
                self._cache[class_name] = harvest_port_table(
                    self.classes[class_name])
            except Exception as exc:  # noqa: BLE001 - report, keep going
                self._cache[class_name] = None
                self.findings.append(finding(
                    "RA014",
                    f"could not introspect {class_name}: sandbox "
                    f"set_services raised {type(exc).__name__}: {exc}",
                    path=self.path, line=line, context=class_name))
        return self._cache[class_name]


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


def _end_state_checks(
        path: str,
        instances: dict[str, PortTable | None],
        connections: dict[tuple[str, str], tuple[str, str]],
        lines: dict[str, int] | None = None) -> list[Finding]:
    """Dangling-uses and cycle checks on a finished port graph."""
    out: list[Finding] = []
    lines = lines or {}
    for inst in sorted(instances):
        table = instances[inst]
        if table is None:
            continue
        for port_name in sorted(table.uses):
            if (inst, port_name) in connections:
                continue
            guarded = table.fetch_guarded.get(port_name)
            where = lines.get(inst)
            if guarded is False:
                out.append(finding(
                    "RA011",
                    f"{inst}.{port_name} "
                    f"[{table.uses[port_name]}] is never connected but "
                    f"{table.class_name} fetches it with an unguarded "
                    f"get_port — this assembly raises "
                    f"PortNotConnectedError at run time",
                    path=path, line=where, context=inst))
            else:
                why = ("fetched only behind a not-connected guard"
                       if guarded else "never fetched in the class source")
                out.append(finding(
                    "RA012",
                    f"{inst}.{port_name} [{table.uses[port_name]}] is "
                    f"not connected ({why})",
                    path=path, line=where, context=inst))
    edges: dict[str, set[str]] = {}
    for (user, _uport), (provider, _pport) in connections.items():
        edges.setdefault(user, set()).add(provider)
    for cycle in _find_cycles(edges):
        out.append(finding(
            "RA013",
            f"port graph cycle: {' -> '.join(cycle)} — call chains "
            f"through these uses ports can recurse",
            path=path, context=cycle[0]))
    return out


def analyze_script(text: str,
                   classes: Sequence[Type[Component]] | None = None,
                   path: str = "<script>") -> list[Finding]:
    """Statically validate an rc-script against a component repository.

    Never executes a ``go`` port; the heaviest thing this does is run
    each referenced class's ``set_services`` in a sandbox framework.
    """
    out: list[Finding] = []
    directives, errors = parse_script_tolerant(text)
    for line_no, message in errors:
        out.append(finding("RA001", message, path=path, line=line_no))

    tables = _Tables(classes if classes is not None else default_classes(),
                     path)
    instantiated: dict[str, str] = {}        # instance -> class name
    instance_line: dict[str, int] = {}
    all_instantiations = {d.args[1]: d.line_no for d in directives
                          if d.verb == "instantiate"}
    connections: dict[tuple[str, str], tuple[str, str]] = {}
    go_lines: list[int] = []

    def check_instance(name: str, d: Directive) -> bool:
        """Known at this point in the script?  Emits RA004/RA007."""
        if name in instantiated:
            return True
        later = all_instantiations.get(name)
        if later is not None and later > d.line_no:
            out.append(finding(
                "RA007",
                f"{d.verb} references {name!r} before its instantiate "
                f"on line {later}",
                path=path, line=d.line_no, context=name))
        else:
            out.append(finding(
                "RA004",
                f"{d.verb} references unknown instance {name!r} "
                f"(instantiated so far: {sorted(instantiated) or '-'})",
                path=path, line=d.line_no, context=name))
        return False

    for d in directives:
        if d.verb == "repository":
            if d.args[1] not in tables:
                out.append(finding(
                    "RA002",
                    f"repository get-global {d.args[1]}: class not in "
                    f"the repository",
                    path=path, line=d.line_no, context=d.args[1]))
        elif d.verb == "instantiate":
            class_name, inst = d.args
            if class_name not in tables:
                out.append(finding(
                    "RA002",
                    f"instantiate {class_name}: class not in the "
                    f"repository",
                    path=path, line=d.line_no, context=class_name))
            if inst in instantiated:
                out.append(finding(
                    "RA003",
                    f"instance name {inst!r} already used on line "
                    f"{instance_line[inst]}",
                    path=path, line=d.line_no, context=inst))
            else:
                instantiated[inst] = class_name
                instance_line[inst] = d.line_no
        elif d.verb == "parameter":
            check_instance(d.args[0], d)
        elif d.verb == "connect":
            user, uport, provider, pport = d.args
            ok_user = check_instance(user, d)
            ok_prov = check_instance(provider, d)
            u_table = tables.get(instantiated[user], d.line_no) \
                if ok_user else None
            p_table = tables.get(instantiated[provider], d.line_no) \
                if ok_prov else None
            utype = ptype = None
            if u_table is not None:
                if uport not in u_table.uses:
                    out.append(finding(
                        "RA005",
                        f"{user} ({u_table.class_name}) has no uses "
                        f"port {uport!r} (declares: "
                        f"{sorted(u_table.uses) or '-'})",
                        path=path, line=d.line_no, context=user))
                else:
                    utype = u_table.uses[uport]
            if p_table is not None:
                if pport not in p_table.provides:
                    out.append(finding(
                        "RA005",
                        f"{provider} ({p_table.class_name}) has no "
                        f"provides port {pport!r} (exports: "
                        f"{sorted(p_table.provides) or '-'})",
                        path=path, line=d.line_no, context=provider))
                else:
                    ptype = p_table.provides[pport]
            if utype is not None and ptype is not None and utype != ptype:
                out.append(finding(
                    "RA006",
                    f"type mismatch connecting {user}.{uport} [{utype}] "
                    f"to {provider}.{pport} [{ptype}]",
                    path=path, line=d.line_no, context=user))
            if ok_user:
                if (user, uport) in connections:
                    prev_prov, prev_pport = connections[(user, uport)]
                    out.append(finding(
                        "RA008",
                        f"{user}.{uport} is already connected to "
                        f"{prev_prov}.{prev_pport}",
                        path=path, line=d.line_no, context=user))
                else:
                    connections[(user, uport)] = (provider, pport)
        elif d.verb == "go":
            inst = d.args[0]
            go_lines.append(d.line_no)
            if not check_instance(inst, d):
                continue
            table = tables.get(instantiated[inst], d.line_no)
            if table is None:
                continue
            port = d.args[1] if len(d.args) == 2 else "go"
            if port not in table.provides:
                out.append(finding(
                    "RA010",
                    f"go {inst}: {table.class_name} provides no "
                    f"{port!r} port",
                    path=path, line=d.line_no, context=inst))
            elif port not in table.go_ports:
                out.append(finding(
                    "RA010",
                    f"go {inst}: {inst}.{port} "
                    f"[{table.provides[port]}] has no go() method",
                    path=path, line=d.line_no, context=inst))

    # go-before-connect: wiring after a go directive never affected it
    if go_lines:
        first_go = min(go_lines)
        late = [d for d in directives
                if d.verb == "connect" and d.line_no > first_go]
        if late:
            out.append(finding(
                "RA009",
                f"go on line {first_go} runs before "
                f"{len(late)} connect directive(s) (first on line "
                f"{late[0].line_no}) — wiring after go never took effect",
                path=path, line=first_go))

    instances = {inst: tables.get(cls)
                 for inst, cls in instantiated.items()}
    out.extend(_end_state_checks(path, instances, connections,
                                 instance_line))
    out.extend(tables.findings)
    return out


def analyze_framework(fw: Framework,
                      path: str = "<assembly>") -> list[Finding]:
    """End-state checks over an already-built (not yet run) framework."""
    instances: dict[str, PortTable | None] = {}
    for inst in fw.instance_names():
        services = fw.services_of(inst)
        cls = type(fw.get_component(inst))
        instances[inst] = PortTable(
            class_name=cls.__name__,
            provides=services.provides_table(),
            uses=services.uses_table(),
            fetch_guarded=class_fetch_profile(cls),
        )
    return _end_state_checks(path, instances, fw.connections())


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
    invoked) and run the end-state checks on it."""
    builders = _builders()
    if name not in builders:
        raise KeyError(
            f"unknown assembly {name!r}; have {sorted(builders)}")
    fw = Framework()
    builders[name](fw)
    return analyze_framework(fw, path=f"<assembly:{name}>")
