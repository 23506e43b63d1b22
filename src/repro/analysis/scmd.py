"""SCMD analysis: shared state and races across rank-threads.

:func:`repro.mpi.launcher.mpirun` runs the P "processors" of an SCMD job
as rank-threads inside one Python process.  Real MPI ranks get private
address spaces for free; our rank-threads do **not** — any module-level
mutable object or mutated class attribute is silently shared across
ranks, the exact hazard the paper's per-process frameworks avoid.  This
AST pass parses each file once, builds one model of its shared objects
(:func:`shared_bindings`) and reports two families of findings from it
without importing anything.

Shared state — where the shared objects are bound:

* ``RA201`` — module-level mutable bound to a non-constant-style name.
* ``RA202`` — mutable class attribute (shared by every instance on every
  rank-thread).
* ``RA204`` — module-level mutable bound to a CONSTANT_STYLE name
  (read-only by convention; reported as info so reviewers see it).

Races — how rank-executed (``go``/``run``/``step``-style) methods touch
them, with a happens-before approximation tuned to the SCMD model:

* All P rank-threads execute the same component code, so a write that is
  **not** guarded by a rank test executes on every rank-thread.  Inside
  one address space, barriers and collectives do **not** help such a
  write: every rank writes the same shared object between the same pair
  of collectives, i.e. concurrently.  Only a rank guard
  (``if comm.rank == 0:``) serializes it — followed by a collective to
  publish the result.
* A *rank-guarded* write is ordered, but other ranks only observe it
  after an ordering collective; a guarded write with no subsequent
  collective in the same method is a stale-read hazard.
* A collective inside a rank-dependent branch is executed by a subset of
  ranks — the others never arrive, and the rendezvous in
  ``repro.mpi.comm`` deadlocks (then times out).

A write is caught in every spelling: direct assignment, subscript
stores, augmented assignment (``Cls.cache += ...``, ``self.tallies[k] +=
1`` on a class-level dict), global rebinding, and mutating method calls
(``Cls.seen.add(...)``, ``self.history.append(...)``,
``__class__.cfg.update(...)``).  Each is keyed by the object it writes:
``Owner.attr`` for a class attribute (the class that holds it, not the
class whose method writes it) and ``module:name`` for a module global.
Patch arrays are tracked through the GrACE/Hierarchy accessor surface
(``dobj.array(p)`` writes inside loops over ``.patches``).

* ``RA301`` (error) — unguarded write to a shared object in rank code:
  every rank-thread races on one object; no collective orders it.
* ``RA302`` (error) — reduction/accumulation (``+=``, ``.append``,
  ``.update`` …) into a shared object outside a collective; use
  ``comm.allreduce``/``comm.reduce`` instead.
* ``RA303`` (warning) — rank-guarded shared write never published by a
  later collective in the same method (stale reads on other ranks).
* ``RA304`` (warning) — patch-array write inside a loop over *all*
  patches with no owner guard; iterate ``owned_patches()`` or test
  ``patch.owner == rank``.
* ``RA305`` (error) — collective call inside a rank-dependent branch:
  only a subset of ranks arrives, so the rendezvous hangs.
* ``RA306`` (error) — rc-script ``parameter`` directive after ``go``:
  connect-time configuration mutated after the run started (the
  assembly pass's RA009 covers late ``connect``; this covers late
  ``parameter``).
* ``RA307`` (warning) — the same shared object is written through two
  or more instances reachable from the script's ``go`` targets.
* ``RA308`` (info) — rank code reads a shared mutable; benign until
  someone writes it, so it is surfaced for review only.

Allowlist: intentionally shared singletons — loggers, the tracing
module, metric registries — are exempt by name
(:data:`DEFAULT_ALLOWLIST`), and any flagged statement can carry the
pragma comment ``# scmd: shared`` to opt in deliberately (document why
next to it).  The pragma matches anywhere on any line the statement
spans (so multi-line literals and lines with trailing commentary after
the pragma opt out too), with flexible spacing (``#scmd:shared`` works).
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import re
from dataclasses import dataclass, field
from typing import Sequence, Type

from repro.analysis.contracts import AssemblyModel, default_classes
from repro.analysis.findings import Finding, finding, unparseable
from repro.cca.component import Component

#: names whose module-level bindings are deliberately process-wide —
#: the obs registry/tracer and logging singletons the subsystems share.
DEFAULT_ALLOWLIST = frozenset({
    "_log", "log", "logger", "_logger",
    "_trace", "trace",
    "registry", "_registry", "_REGISTRY", "REGISTRY",
    "__all__", "__path__",
})

#: the pragma that marks a statement as intentionally shared (canonical
#: spelling; matching is done by :data:`_PRAGMA_RE` so spacing varies).
PRAGMA = "# scmd: shared"

#: tolerant pragma matcher: optional space after ``#`` and around the
#: colon, and anything may follow (a why-comment on the same line).
_PRAGMA_RE = re.compile(r"#\s*scmd\s*:\s*shared\b")

#: rank-executed entry points whose writes to shared state race.
STEP_METHODS = frozenset({
    "go", "run", "step", "advance", "integrate", "apply", "exchange",
    "regrid", "initialize",
})

_CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

#: constructor names producing mutable containers.
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
    "zeros", "ones", "empty", "full", "array", "arange", "linspace",
    "zeros_like", "ones_like", "empty_like", "full_like",
})

#: method calls that mutate their receiver.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse", "fill",
})

#: accumulate-style mutators: their use on a shared object is a
#: hand-rolled reduction (RA302) rather than a plain racy store (RA301).
_ACCUMULATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
})

#: rendezvous operations in :class:`repro.mpi.comm.Comm` — every rank
#: must arrive, and arrival orders the participants' clocks.
COLLECTIVES = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "alltoall", "scatter",
})

#: accessor method names that hand back owner-filtered patch sequences —
#: loops over these need no explicit owner guard.
_OWNED_ITERATORS = frozenset({"owned_patches"})


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name in _MUTABLE_CALLS
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        # [0] * n style preallocation
        return _is_mutable_value(node.left) or _is_mutable_value(node.right)
    return False


def _assign_names(node: ast.stmt) -> list[tuple[str, ast.expr | None]]:
    """(name, value) pairs for plain-name assignments in a statement."""
    if isinstance(node, ast.Assign):
        return [(t.id, node.value) for t in node.targets
                if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [(node.target.id, node.value)]
    return []


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _targets(node: ast.stmt) -> list[ast.expr]:
    """The store targets of an assignment statement (none otherwise)."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


@dataclass
class _Ctx:
    path: str
    lines: list[str]
    allowlist: frozenset[str]

    def pragma(self, node: ast.AST | int) -> bool:
        """True when the pragma appears on *any* line the statement
        spans — a multi-line literal can carry it on its closing brace
        just as well as on the opening line."""
        if isinstance(node, int):
            first = last = node
        else:
            first = getattr(node, "lineno", 0)
            last = getattr(node, "end_lineno", None) or first
        for lineno in range(first, last + 1):
            if 1 <= lineno <= len(self.lines) and \
                    _PRAGMA_RE.search(self.lines[lineno - 1]):
                return True
        return False


@dataclass
class _SharedModel:
    """Shared-object universe of one source file."""

    #: names module globals in write keys (``module:name``)
    module: str
    #: every mutable binding as ``(class or None, name, statement)``, the
    #: module's own first, then each class body's
    bindings: list[tuple[str | None, str, ast.stmt]] = \
        field(default_factory=list)
    module_mutables: set[str] = field(default_factory=set)
    #: class name -> its mutable class attributes (every class has a key)
    class_mutables: dict[str, set[str]] = field(default_factory=dict)


def shared_bindings(tree: ast.Module, module: str) -> _SharedModel:
    """The file's shared objects: module-level mutables and mutable class
    attributes, one walk over the tree."""
    model = _SharedModel(module)
    for node in tree.body:
        for name, value in _assign_names(node):
            if value is not None and _is_mutable_value(value):
                model.bindings.append((None, name, node))
                model.module_mutables.add(name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs = model.class_mutables.setdefault(node.name, set())
        for stmt in node.body:
            for name, value in _assign_names(stmt):
                if value is not None and _is_mutable_value(value):
                    model.bindings.append((node.name, name, stmt))
                    attrs.add(name)
    return model


def _binding_findings(ctx: _Ctx, model: _SharedModel) -> list[Finding]:
    """RA201/RA202/RA204: where the shared objects are bound."""
    out: list[Finding] = []
    for owner, name, stmt in model.bindings:
        if name in ctx.allowlist or ctx.pragma(stmt):
            continue
        if owner is not None:
            out.append(finding(
                "RA202",
                f"{owner}.{name} is a mutable class attribute — one "
                f"object shared by every instance on every rank-thread; "
                f"initialise it in __init__ or set_services",
                path=ctx.path, line=stmt.lineno, context=owner))
        elif _CONSTANT_NAME.match(name):
            out.append(finding(
                "RA204",
                f"module-level mutable {name!r} is shared across SCMD "
                f"rank-threads (constant-style name: treated as "
                f"read-only)",
                path=ctx.path, line=stmt.lineno, context=name))
        else:
            out.append(finding(
                "RA201",
                f"module-level mutable {name!r} is shared across SCMD "
                f"rank-threads; make it per-instance, rename it "
                f"CONSTANT_STYLE, or mark it '{PRAGMA}'",
                path=ctx.path, line=stmt.lineno, context=name))
    return out


def _mentions_rank(expr: ast.AST) -> bool:
    """Does the expression read a rank id (``comm.rank``, ``self.rank()``,
    a bare ``rank`` local)?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Name) and node.id == "rank":
            return True
    return False


def _is_owner_guard(test: ast.expr) -> bool:
    """``p.owner == rank`` style test (any compare touching ``.owner``)."""
    return any(isinstance(n, ast.Attribute) and n.attr == "owner"
               for n in ast.walk(test))


def _is_collective_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr in COLLECTIVES


class _MethodScanner:
    """One rank-executed method: write/read sets vs. ordering points."""

    def __init__(self, ctx: _Ctx, model: _SharedModel, class_name: str,
                 method: ast.FunctionDef) -> None:
        self.ctx = ctx
        self.model = model
        self.class_name = class_name
        self.method = method
        self.own = model.class_mutables.get(class_name, set())
        self.out: list[Finding] = []
        #: keys of every shared object the method writes (RA307)
        self.writes: set[str] = set()
        self.globals_declared: set[str] = set()
        # ``self.attr = ...`` plain stores shadow the class attribute with
        # an instance attribute — after one, ``self.attr`` is private.
        self.shadowed: set[str] = set()
        #: linenos of collectives executed by *all* ranks (unguarded)
        self.uniform_collectives: list[int] = []
        #: (lineno, key) of rank-guarded shared writes, for RA303
        self.guarded_writes: list[tuple[int, str]] = []
        for node in ast.walk(method):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in _targets(node):
                    if isinstance(t, ast.Attribute) and _is_self(t.value):
                        self.shadowed.add(t.attr)

    # -- what a statement writes -------------------------------------------
    def _shared(self, expr: ast.expr) -> tuple[str, str] | None:
        """``(key, name)`` when ``expr`` denotes a shared object: a
        module-level mutable, or a class attribute reached through its
        class (``Cls.x``, ``self.__class__.x``, or ``self.x`` for an
        unshadowed mutable of the method's own class)."""
        if isinstance(expr, ast.Name):
            if expr.id in self.model.module_mutables:
                return f"{self.model.module}:{expr.id}", expr.id
            return None
        if not isinstance(expr, ast.Attribute):
            return None
        base = expr.value
        if isinstance(base, ast.Name) and \
                base.id in self.model.class_mutables:
            owner = base.id
        elif isinstance(base, ast.Attribute) and base.attr == "__class__":
            owner = self.class_name
        elif _is_self(base) and expr.attr in self.own and \
                expr.attr not in self.shadowed:
            owner = self.class_name
        else:
            return None
        return f"{owner}.{expr.attr}", expr.attr

    def _classify_write(self, node: ast.stmt
                        ) -> list[tuple[str, str, bool]]:
        """``(key, name, is_accumulation)`` for each shared object one
        assignment statement writes."""
        accum = isinstance(node, ast.AugAssign)
        out = []
        for t in _targets(node):
            if isinstance(t, ast.Name):
                hit = None
                if t.id in self.globals_declared:
                    hit = f"{self.model.module}:{t.id}", t.id
            elif isinstance(t, ast.Subscript):
                hit = self._shared(t.value)
            else:
                hit = self._shared(t)
            if hit is not None:
                out.append((*hit, accum))
        return out

    # -- emit helpers ------------------------------------------------------
    def flag(self, code: str, node: ast.AST, message: str) -> None:
        if self.ctx.pragma(node):
            return
        self.out.append(finding(
            code, message, path=self.ctx.path, line=node.lineno,
            context=self.class_name))

    # -- walk --------------------------------------------------------------
    def scan(self) -> list[Finding]:
        self._scan_block(self.method.body, rank_guarded=False,
                         patch_var=None, owner_ok=False)
        self._check_unpublished()
        return self.out

    def _scan_block(self, stmts: Sequence[ast.stmt], *, rank_guarded: bool,
                    patch_var: str | None, owner_ok: bool) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, rank_guarded=rank_guarded,
                            patch_var=patch_var, owner_ok=owner_ok)

    def _scan_stmt(self, stmt: ast.stmt, *, rank_guarded: bool,
                   patch_var: str | None, owner_ok: bool) -> None:
        if isinstance(stmt, ast.If):
            # The owner-guard test comes first: `p.owner == rank` mentions
            # rank too, but it is the sanctioned RA304 fix, not a
            # rank-subset branch.
            if patch_var is not None and _is_owner_guard(stmt.test):
                self._scan_block(stmt.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=True)
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            elif _mentions_rank(stmt.test):
                self._flag_collectives_in_branch(stmt)
                self._scan_block(stmt.body, rank_guarded=True,
                                 patch_var=patch_var, owner_ok=owner_ok)
                self._scan_block(stmt.orelse, rank_guarded=True,
                                 patch_var=patch_var, owner_ok=owner_ok)
            else:
                self._scan_block(stmt.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            self._scan_expr_parts(stmt.test, rank_guarded)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            pv, po = patch_var, owner_ok
            it = stmt.iter
            if isinstance(it, ast.Attribute) and it.attr == "patches" and \
                    isinstance(stmt.target, ast.Name):
                pv, po = stmt.target.id, False
            elif isinstance(it, ast.Call) and \
                    isinstance(it.func, ast.Attribute) and \
                    it.func.attr in _OWNED_ITERATORS and \
                    isinstance(stmt.target, ast.Name):
                pv, po = stmt.target.id, True
            self._scan_block(stmt.body, rank_guarded=rank_guarded,
                             patch_var=pv, owner_ok=po)
            self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                             patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, (ast.While, ast.With, ast.AsyncWith)):
            body = stmt.body
            self._scan_block(body, rank_guarded=rank_guarded,
                             patch_var=patch_var, owner_ok=owner_ok)
            if isinstance(stmt, ast.While):
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                self._scan_block(block, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            for handler in stmt.handlers:
                self._scan_block(handler.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are not rank-path statements

        # -- leaf statement: shared writes, patch writes, collectives ------
        written: set[str] = set()
        for key, name, accum in self._classify_write(stmt):
            written.add(name)
            self._record_write(stmt, key, name, accum, rank_guarded)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATING_METHODS:
                hit = self._shared(node.func.value)
                if hit is not None:
                    key, name = hit
                    meth = node.func.attr
                    written.add(name)
                    self._record_write(
                        node, key, name, meth in _ACCUMULATORS,
                        rank_guarded, spelled=f".{meth}()")
            if _is_collective_call(node) and not rank_guarded:
                self.uniform_collectives.append(node.lineno)
        self._check_patch_write(stmt, patch_var, owner_ok)
        self._check_shared_reads(stmt, written)

    def _scan_expr_parts(self, expr: ast.expr, rank_guarded: bool) -> None:
        # a collective used *inside* a rank test is itself rank-dependent
        # only for the branch body; the test runs on every rank.
        for node in ast.walk(expr):
            if _is_collective_call(node) and not rank_guarded:
                self.uniform_collectives.append(node.lineno)

    # -- checks ------------------------------------------------------------
    def _record_write(self, node: ast.AST, key: str, name: str,
                      accum: bool, rank_guarded: bool,
                      spelled: str = "") -> None:
        if name in self.ctx.allowlist:
            return
        self.writes.add(key)
        where = f"{self.class_name}.{self.method.name}"
        if rank_guarded:
            self.guarded_writes.append((node.lineno, key))
            return
        if accum:
            self.flag(
                "RA302", node,
                f"{where} accumulates into shared {key!r}{spelled} on "
                f"every rank-thread — a hand-rolled reduction outside a "
                f"collective; use comm.allreduce/comm.reduce, or guard "
                f"with a rank test and publish via bcast")
        else:
            self.flag(
                "RA301", node,
                f"{where} writes shared {key!r} from every rank-thread "
                f"with no ordering — barriers cannot serialize identical "
                f"writes; guard with a rank test or make it per-rank "
                f"state (or mark '{PRAGMA}')")

    def _flag_collectives_in_branch(self, stmt: ast.If) -> None:
        for block in (stmt.body, stmt.orelse):
            for inner in block:
                for node in ast.walk(inner):
                    if _is_collective_call(node):
                        assert isinstance(node, ast.Call)
                        assert isinstance(node.func, ast.Attribute)
                        self.flag(
                            "RA305", node,
                            f"collective {node.func.attr}() inside a "
                            f"rank-dependent branch of "
                            f"{self.class_name}.{self.method.name} — "
                            f"ranks not taking this branch never arrive "
                            f"and the rendezvous deadlocks; hoist the "
                            f"collective out of the rank test")

    def _check_unpublished(self) -> None:
        for lineno, key in self.guarded_writes:
            if any(c > lineno for c in self.uniform_collectives):
                continue
            if self.ctx.pragma(lineno):
                continue
            self.out.append(finding(
                "RA303",
                f"{self.class_name}.{self.method.name} writes shared "
                f"{key!r} under a rank guard but no collective follows "
                f"in this method — other ranks can read the stale value; "
                f"publish with bcast/allreduce or a barrier",
                path=self.ctx.path, line=lineno,
                context=self.class_name))

    def _check_patch_write(self, stmt: ast.stmt, patch_var: str | None,
                           owner_ok: bool) -> None:
        if patch_var is None or owner_ok:
            return
        for t in _targets(stmt):
            if not isinstance(t, ast.Subscript):
                continue
            base = t.value
            # dobj.array(p)[...] = ...  — writing through the accessor
            if isinstance(base, ast.Call) and \
                    isinstance(base.func, ast.Attribute) and \
                    base.func.attr == "array" and \
                    any(isinstance(a, ast.Name) and a.id == patch_var
                        for a in base.args):
                self.flag(
                    "RA304", stmt,
                    f"{self.class_name}.{self.method.name} writes a "
                    f"patch array inside a loop over *all* patches with "
                    f"no owner guard — every rank writes every patch; "
                    f"iterate owned_patches() or test "
                    f"{patch_var}.owner == rank first")

    def _check_shared_reads(self, stmt: ast.stmt,
                            written: set[str]) -> None:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Name) and
                    isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name not in self.model.module_mutables or \
                    name in written or \
                    name in self.ctx.allowlist or \
                    _CONSTANT_NAME.match(name):
                continue
            self.flag(
                "RA308", node,
                f"{self.class_name}.{self.method.name} reads shared "
                f"module-level {name!r} in rank code — benign until "
                f"some rank writes it; consider making it per-instance")
            return  # one note per statement is enough


def _scanners(tree: ast.Module, ctx: _Ctx, model: _SharedModel):
    """One :class:`_MethodScanner` per rank-executed method, scanned."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and method.name in STEP_METHODS:
                scanner = _MethodScanner(ctx, model, node.name, method)
                scanner.scan()
                yield scanner


def analyze_tree(tree: ast.Module, text: str, path: str = "<source>",
                 allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                 ) -> list[Finding]:
    """Both SCMD families over one parsed Python file."""
    ctx = _Ctx(path=path, lines=text.splitlines(), allowlist=allowlist)
    model = shared_bindings(tree, pathlib.Path(path).stem)
    out = _binding_findings(ctx, model)
    for scanner in _scanners(tree, ctx, model):
        out.extend(scanner.out)
    return out


def analyze_source(text: str, path: str = "<source>",
                   allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                   ) -> list[Finding]:
    """Run the SCMD pass over one Python source text."""
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [unparseable(exc, path)]
    return analyze_tree(tree, text, path, allowlist)


def analyze_file(path: str,
                 allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                 ) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_source(fh.read(), path, allowlist)


# ---------------------------------------------------------------- rc-scripts
def _class_write_keys(cls: Type[Component]) -> set[str]:
    """Keys of the shared objects ``cls``'s rank-executed methods write,
    as the race scan records them (``Owner.attr`` / ``module:name``)."""
    module = inspect.getmodule(cls)
    try:
        text = inspect.getsource(module)
        tree = ast.parse(text)
    except (OSError, TypeError, SyntaxError):
        return set()
    ctx = _Ctx(path="<class>", lines=text.splitlines(),
               allowlist=DEFAULT_ALLOWLIST)
    model = shared_bindings(tree, module.__name__)
    keys: set[str] = set()
    for scanner in _scanners(tree, ctx, model):
        if scanner.class_name == cls.__name__:
            keys |= scanner.writes
    return keys


def analyze_script(model: AssemblyModel,
                   classes: Sequence[Type[Component]] | None = None,
                   ) -> list[Finding]:
    """Happens-before checks over an rc-script's assembly model.

    ``RA306``: ``parameter`` after the first ``go`` mutates connect-time
    configuration the running assembly already consumed.  ``RA307``: the
    same shared object is written by two or more instances reachable
    from the union of all ``go`` targets — in SCMD mode those instances
    run on every rank-thread, so the writes race through two proxies.
    """
    out: list[Finding] = []
    path = model.path
    if model.gos:
        first_go = min(line for _inst, _port, line in model.gos)
        for inst, key, value, line in model.parameters:
            if line is not None and line > first_go:
                out.append(finding(
                    "RA306",
                    f"parameter {inst} {key} {value} on line {line} "
                    f"runs after go (line {first_go}) — connect-time "
                    f"configuration mutated once ranks are stepping",
                    path=path, line=line, context=inst))

    # -- RA307: shared write keys reachable through >= 2 instances --------
    registry = {cls.__name__: cls
                for cls in (classes if classes is not None
                            else default_classes())}
    instances = model.instances
    writers: dict[str, list[str]] = {}
    for inst in sorted(model.reachable()):
        cls = registry.get(instances.get(inst, ""))
        if cls is None:
            continue
        for key in _class_write_keys(cls):
            writers.setdefault(key, []).append(inst)
    for key in sorted(writers):
        insts = writers[key]
        if len(insts) < 2:
            continue
        out.append(finding(
            "RA307",
            f"shared object {key} is written through "
            f"{len(insts)} go-reachable instances "
            f"({', '.join(insts)}) — one object, many writers, no "
            f"ordering between their step methods",
            path=path, context=insts[0]))
    return out
