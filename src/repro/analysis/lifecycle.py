"""Component lifecycle linter: an ``ast`` pass over component source.

CCAFFEINE's contract is that a component declares its ports in
``setServices`` and only calls through names it declared.  This pass
checks that contract without importing or executing anything.  A
*fetch* is a read of a bound port, ``<x>.ports.<name>``, or a
``get_port("<name>")`` call:

* ``RA101`` — a fetch of a name never passed to ``register_uses_port``
  in the same scope.
* ``RA102`` — ``register_uses_port`` / ``add_provides_port`` called
  outside a ``set_services`` method (ports must exist before wiring).
* ``RA104`` — registration/use *drift*: the fetched name is a near
  miss of a registered name (``"mish"`` vs ``"mesh"``).
* ``RA105`` — a uses port registered but never fetched.
* ``RA106`` — a non-literal port name (not statically checkable).

Scoping rules: a class with a ``set_services`` method is a *component
class* and its fetches resolve against its own registrations; classes
without one (the little port-implementation helpers that close over
``owner.services``) resolve against the union of the file's component
registrations.  A fetch wrapped in ``try/except
PortNotConnectedError`` (or guarded by ``is_connected``) is *guarded* —
the port is optional by design, and its class registers it
``optional=True``.
"""

from __future__ import annotations

import ast
import difflib
import inspect
import textwrap
from dataclasses import dataclass, field

from repro.analysis.findings import Finding, finding, unparseable

#: exception names accepted as a fetch guard in ``except`` clauses.
_GUARD_EXCEPTIONS = {
    "PortNotConnectedError", "CCAError", "ReproError", "Exception",
}


@dataclass
class Fetch:
    """One fetch: a ``<x>.ports.<name>`` read or ``get_port`` call."""

    name: str
    line: int
    guarded: bool


@dataclass
class ClassScan:
    """Port traffic of one class."""

    name: str
    line: int
    has_set_services: bool = False
    uses: dict[str, int] = field(default_factory=dict)       # name -> line
    provides: dict[str, int] = field(default_factory=dict)   # name -> line
    fetches: list[Fetch] = field(default_factory=list)
    #: (kind, name, line, method) registrations outside set_services
    stray_registrations: list[tuple[str, str, int, str]] = \
        field(default_factory=list)
    nonliteral_fetches: list[int] = field(default_factory=list)


@dataclass
class FileScan:
    """Everything the linter learned about one source file."""

    path: str
    classes: list[ClassScan] = field(default_factory=list)

    def component_classes(self) -> list[ClassScan]:
        return [c for c in self.classes if c.has_set_services]

    def union_uses(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.component_classes():
            out.update(c.uses)
        return out

    def union_fetches(self) -> list[Fetch]:
        return [f for c in self.classes for f in c.fetches]


def _str_arg(call: ast.Call, pos: int, kw: str) -> str | None:
    """The string literal at positional ``pos`` or keyword ``kw``."""
    node: ast.expr | None = None
    if len(call.args) > pos:
        node = call.args[pos]
    else:
        for k in call.keywords:
            if k.arg == kw:
                node = k.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _method_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _catches_guard(handler: ast.ExceptHandler) -> bool:
    """Does this except clause catch a port-not-connected style error?"""
    t = handler.type
    if t is None:  # bare except
        return True
    names = []
    targets = t.elts if isinstance(t, ast.Tuple) else [t]
    for node in targets:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return bool(_GUARD_EXCEPTIONS & set(names))


def _is_connected_names(test: ast.expr) -> set[str]:
    """Port literals appearing in ``is_connected("x")`` calls in a test."""
    out: set[str] = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and \
                _method_name(node) == "is_connected":
            name = _str_arg(node, 0, "port_name")
            if name:
                out.add(name)
    return out


class _ClassVisitor:
    """Walks one class body tracking guard context."""

    def __init__(self, scan: ClassScan) -> None:
        self.scan = scan

    def walk_class(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "set_services":
                    self.scan.has_set_services = True
                self._walk(stmt, method=stmt.name, guarded=False,
                           in_set_services=(stmt.name == "set_services"),
                           guarded_names=frozenset())

    # -- recursive statement walk ------------------------------------------
    def _walk(self, node: ast.AST, *, method: str, guarded: bool,
              in_set_services: bool, guarded_names: frozenset[str]) -> None:
        if isinstance(node, ast.Try):
            has_guard = any(_catches_guard(h) for h in node.handlers)
            for stmt in node.body:
                self._walk(stmt, method=method,
                           guarded=guarded or has_guard,
                           in_set_services=in_set_services,
                           guarded_names=guarded_names)
            for part in node.handlers + node.orelse + node.finalbody:
                self._walk(part, method=method, guarded=guarded,
                           in_set_services=in_set_services,
                           guarded_names=guarded_names)
            return
        if isinstance(node, ast.If):
            cond_names = _is_connected_names(node.test)
            for stmt in node.body:
                self._walk(stmt, method=method, guarded=guarded,
                           in_set_services=in_set_services,
                           guarded_names=guarded_names | cond_names)
            for stmt in node.orelse:
                self._walk(stmt, method=method, guarded=guarded,
                           in_set_services=in_set_services,
                           guarded_names=guarded_names)
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes are scanned as their own scope
        if isinstance(node, ast.Call):
            self._record_call(node, method=method, guarded=guarded,
                              in_set_services=in_set_services,
                              guarded_names=guarded_names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "ports":
            self.scan.fetches.append(Fetch(
                node.attr, node.lineno,
                guarded or node.attr in guarded_names))
        for child in ast.iter_child_nodes(node):
            self._walk(child, method=method, guarded=guarded,
                       in_set_services=in_set_services,
                       guarded_names=guarded_names)

    def _record_call(self, call: ast.Call, *, method: str, guarded: bool,
                     in_set_services: bool,
                     guarded_names: frozenset[str]) -> None:
        kind = _method_name(call)
        scan = self.scan
        if kind == "register_uses_port":
            name = _str_arg(call, 0, "port_name")
            if name is not None:
                scan.uses.setdefault(name, call.lineno)
                if not in_set_services:
                    scan.stray_registrations.append(
                        (kind, name, call.lineno, method))
        elif kind == "add_provides_port":
            name = _str_arg(call, 1, "port_name")
            if name is not None:
                scan.provides.setdefault(name, call.lineno)
                if not in_set_services:
                    scan.stray_registrations.append(
                        (kind, name, call.lineno, method))
        elif kind == "get_port":
            name = _str_arg(call, 0, "port_name")
            if name is None:
                scan.nonliteral_fetches.append(call.lineno)
            else:
                scan.fetches.append(Fetch(
                    name, call.lineno,
                    guarded or name in guarded_names))


def scan_source(text: str, path: str = "<source>") -> FileScan:
    """Parse ``text`` and collect per-class port traffic."""
    return scan_tree(ast.parse(text, filename=path), path)


def scan_tree(tree: ast.Module, path: str = "<source>") -> FileScan:
    """Collect per-class port traffic from a parsed file."""
    scan = FileScan(path=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            cscan = ClassScan(name=node.name, line=node.lineno)
            _ClassVisitor(cscan).walk_class(node)
            scan.classes.append(cscan)
    return scan


def analyze_source(text: str, path: str = "<source>") -> list[Finding]:
    """Run the lifecycle lint over one Python source text."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [unparseable(exc, path)]
    return analyze_tree(tree, path)


def analyze_tree(tree: ast.Module, path: str = "<source>") -> list[Finding]:
    """Run the lifecycle lint over one parsed Python file."""
    scan = scan_tree(tree, path)
    out: list[Finding] = []
    union_uses = scan.union_uses()
    fetched_names = {f.name for f in scan.union_fetches()}

    for cls in scan.classes:
        # RA102: registrations outside set_services
        for kind, name, line, method in cls.stray_registrations:
            out.append(finding(
                "RA102",
                f"{cls.name}.{method} calls {kind}({name!r}) outside "
                f"set_services — ports must be declared at instantiation",
                path=path, line=line, context=cls.name))
        # RA106: dynamic port names
        for line in cls.nonliteral_fetches:
            out.append(finding(
                "RA106",
                f"{cls.name}: get_port with a non-literal port name "
                f"cannot be statically checked",
                path=path, line=line, context=cls.name))
        # RA101/RA104: fetches against the visible registrations.  A
        # component class sees its own table; helper port classes see the
        # union of the file's component tables.
        if cls.has_set_services:
            visible = cls.uses
        elif scan.component_classes():
            visible = union_uses
        else:
            visible = None  # nothing registered in this file: unresolvable
        if visible is not None:
            for fetch in cls.fetches:
                if fetch.name in visible:
                    continue
                near = difflib.get_close_matches(
                    fetch.name, visible, n=1, cutoff=0.6)
                if near:
                    out.append(finding(
                        "RA104",
                        f"{cls.name}: fetch of {fetch.name!r} does not "
                        f"match any registered uses port — did you mean "
                        f"{near[0]!r}?",
                        path=path, line=fetch.line, context=cls.name))
                else:
                    out.append(finding(
                        "RA101",
                        f"{cls.name}: fetch of {fetch.name!r} but no "
                        f"register_uses_port({fetch.name!r}) "
                        f"(registered: {sorted(visible) or '-'})",
                        path=path, line=fetch.line, context=cls.name))
        # RA105: registered but never fetched anywhere in the file
        if cls.has_set_services:
            for name, line in cls.uses.items():
                if name not in fetched_names:
                    out.append(finding(
                        "RA105",
                        f"{cls.name}: uses port {name!r} is registered "
                        f"but never fetched",
                        path=path, line=line, context=cls.name))
    return out


def analyze_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_source(fh.read(), path)


def class_fetch_profile(cls: type) -> dict[str, bool]:
    """``{port_name: all_fetches_guarded}`` for a component class.

    The oracle that holds each class's ``optional=True`` registrations
    to its source: a uses port fetched unguarded somewhere is required.
    Fetches in same-module helper classes (the port implementations that
    close over ``owner.services``) are attributed to the component too —
    conservative in the right direction.  Returns ``{}`` when the source
    is unavailable (dynamically created classes).
    """
    try:
        module = inspect.getmodule(cls)
        text = inspect.getsource(module) if module else \
            textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return {}
    try:
        scan = scan_source(text, getattr(module, "__file__", "<class>")
                           or "<class>")
    except SyntaxError:  # pragma: no cover - module already imported
        return {}
    own = next((c for c in scan.classes if c.name == cls.__name__), None)
    if own is None:
        return {}
    fetches = list(own.fetches)
    for helper in scan.classes:
        if helper is own or helper.has_set_services:
            continue
        fetches.extend(f for f in helper.fetches if f.name in own.uses)
    profile: dict[str, bool] = {}
    for f in fetches:
        profile[f.name] = profile.get(f.name, True) and f.guarded
    return profile
