"""Framework of the domain-specific static analyzer.

Dependency-free (stdlib ``ast`` + ``tokenize``) machinery shared by the
rule pack in :mod:`repro.analysis.static.rules`:

* :class:`Rule` — base class; concrete rules declare an ``id``, a scope
  (directory names and/or path suffixes), and a ``check`` over one
  parsed file.  The :func:`register` decorator adds them to the global
  :data:`REGISTRY`.
* :class:`FileContext` — one parsed source file with an AST parent map,
  enclosing-scope lookup, and the comment-derived pragma state: ``#
  repro: disable=R1,R3 - reason`` suppresses those rules on its line
  (a standalone pragma comment suppresses the next line), and ``#
  repro: hot-loop`` on a ``def`` line marks a time-step-loop function
  for rule R3.
* :class:`Baseline` — the reviewed grandfather list.  Keys are
  ``rule:path:scope`` (line-number free, so unrelated edits do not
  invalidate them); every entry carries a one-line justification.
* :class:`Project` — the whole-program index built over every file of
  one run: a cross-module call graph (imports, ``self.`` methods,
  constructor-typed attributes), a rank-taint lattice (values derived
  from ``comm.rank`` / ``my_rank`` propagate through assignments,
  returns and call arguments to a fixpoint), blocking-call propagation
  for the async-hygiene rule, and request-return tracking so R1 can
  follow an isend result across function boundaries.
* :func:`check_paths` — run the (selected) rules over files/trees and
  fold pragma and baseline suppression into a :class:`Report`.  The
  :class:`Project` is always built over *all* given files, so an
  optional ``select`` set (the ``--diff`` changed-files mode) narrows
  reporting without weakening interprocedural reasoning.

The rules are deliberately *approximate* — sound enough to catch the
bug classes that matter here, simple enough to audit.  When a rule is
wrong about a specific site, the pragma records the human judgement in
the source; when a finding is known and accepted, the baseline records
it with a justification.  Neither mechanism is silent.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePath

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "FunctionInfo",
    "Project",
    "REGISTRY",
    "Report",
    "Rule",
    "check_paths",
    "normalize_path",
    "register",
]

_PRAGMA_RE = re.compile(r"#\s*repro:\s*(.+)")


def normalize_path(path: str | Path) -> str:
    """Stable, repo-relative form of a path for baseline keys.

    Starts at the first ``repro`` path component when present (so
    ``/home/x/repo/src/repro/parallel/halo.py`` and a checkout elsewhere
    produce the same key); otherwise the path is used as given.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return PurePath(path).as_posix()


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    scope: str
    message: str

    @property
    def key(self) -> str:
        """Line-number-free identity used for baseline matching."""
        return f"{self.rule}:{normalize_path(self.path)}:{self.scope}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.scope}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "message": self.message,
            "key": self.key,
        }


class FileContext:
    """One parsed file plus the lookups every rule needs."""

    def __init__(self, path: str | Path, source: str):
        self.path = Path(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: line -> head line of the innermost statement spanning it, so a
        #: pragma on a continuation line of a multi-line statement also
        #: governs the line findings anchor to (the statement head).
        self._stmt_head: dict[int, int] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None)
            if end is None or end <= node.lineno:
                continue
            for row in range(node.lineno, end + 1):
                # Innermost statement wins: of all statements spanning a
                # row, the one starting latest starts closest to it.
                if node.lineno > self._stmt_head.get(row, 0):
                    self._stmt_head[row] = node.lineno
        #: line -> rule ids suppressed on that line.
        self.disabled: dict[int, set[str]] = {}
        #: ``def`` lines carrying the ``# repro: hot-loop`` marker.
        self.hot_lines: set[int] = set()
        self._scan_pragmas()
        #: Back-reference to the run's whole-program index; set by
        #: :func:`check_paths` before any rule runs.
        self.project: "Project | None" = None

    def _scan_pragmas(self) -> None:
        lines = self.source.splitlines()
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except (tokenize.TokenError, IndentationError):
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _PRAGMA_RE.match(tok.string)
            if not m:
                continue
            body = m.group(1).strip()
            row = tok.start[0]
            before = lines[row - 1][: tok.start[1]] if row <= len(lines) else ""
            # A standalone pragma comment governs the next line; an
            # inline one governs its own.  Either way, a target inside a
            # multi-line statement also governs the statement head —
            # findings anchor there, not at the continuation line.
            targets = [row + 1] if not before.strip() else [row]
            for t in list(targets):
                head = self._stmt_head.get(t)
                if head is not None and head not in targets:
                    targets.append(head)
            if body.startswith("disable="):
                spec = body[len("disable="):].split()[0]
                rules = {r.strip() for r in spec.split(",") if r.strip()}
                for t in targets:
                    self.disabled.setdefault(t, set()).update(rules)
            elif body.startswith("hot-loop"):
                for t in targets:
                    self.hot_lines.add(t)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def scope_of(self, node: ast.AST) -> str:
        """Dotted enclosing function/class name, or ``<module>``."""
        names: list[str] = []
        current: ast.AST | None = self.parents.get(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(names)) if names else "<module>"

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        current: ast.AST | None = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.disabled.get(finding.line, set())


class Rule:
    """Base class for one analyzer rule.

    ``scope_dirs`` restricts the rule to files whose *directory* path
    contains one of the names (the basename is excluded, so a file
    merely called ``parallel.py`` is not in scope); ``scope_suffixes``
    admits specific files (e.g. ``solver/solver.py``) regardless of
    directory scope.  Empty scope means every file.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    scope_dirs: tuple[str, ...] = ()
    scope_suffixes: tuple[str, ...] = ()

    def applies_to(self, path: str | Path) -> bool:
        if not self.scope_dirs and not self.scope_suffixes:
            return True
        p = PurePath(path)
        if any(part in self.scope_dirs for part in p.parts[:-1]):
            return True
        posix = p.as_posix()
        return any(posix.endswith(suffix) for suffix in self.scope_suffixes)

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=str(ctx.path),
            line=getattr(node, "lineno", 0),
            scope=ctx.scope_of(node),
            message=message,
        )


def attr_chain(node: ast.AST) -> str | None:
    """Dotted source text of a Name/Attribute chain (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_function_body(node: ast.AST):
    """Walk a function's own statements, excluding nested def/lambda bodies.

    Nested functions and lambdas are separate execution units — code in
    them runs when *they* are called, so their calls must not count as
    facts (blocking, collective, taint) of the enclosing function.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(sub))


#: Communicator/halo attribute names that are collective (every rank
#: must reach them, same order): the VirtualComm collectives plus the
#: HaloExchanger seams.  ``wait`` on a single request is per-rank and
#: deliberately excluded — which is why the exchanger's completion of a
#: posted round is named ``complete``.
COLLECTIVE_ATTRS = frozenset({
    "allreduce", "gather", "barrier",
    "assemble", "post", "complete",
    "exchange",
})

#: Attribute chains / names that block the calling thread (R9's direct
#: deny-list).  Receiver-independent method names are matched on the
#: final attribute.
_BLOCKING_CHAINS = {
    "time.sleep": "time.sleep() stalls the thread",
    "np.load": "np.load() is sync disk I/O",
    "np.save": "np.save() is sync disk I/O",
    "np.savez": "np.savez() is sync disk I/O",
    "np.savez_compressed": "np.savez_compressed() is sync disk I/O",
    "numpy.load": "numpy.load() is sync disk I/O",
    "numpy.save": "numpy.save() is sync disk I/O",
    "numpy.savez": "numpy.savez() is sync disk I/O",
    "numpy.savez_compressed": "numpy.savez_compressed() is sync disk I/O",
    "os.replace": "os.replace() is sync file-system I/O",
    "os.rename": "os.rename() is sync file-system I/O",
    "os.fdopen": "os.fdopen() opens a sync file handle",
    "tempfile.mkstemp": "tempfile.mkstemp() is sync file-system I/O",
}
_BLOCKING_METHOD_ATTRS = {
    "read_text": ".read_text() is sync file I/O",
    "write_text": ".write_text() is sync file I/O",
    "read_bytes": ".read_bytes() is sync file I/O",
    "write_bytes": ".write_bytes() is sync file I/O",
    "open": ".open() is sync file I/O",
}
_BLOCKING_CHAIN_PREFIXES = ("subprocess.", "shutil.")

#: Wrappers whose callable/argument subtrees run OFF the event loop —
#: calls underneath them are exempt from R9 and from blocking
#: propagation.
_DEFER_ATTRS = ("to_thread", "run_in_executor")


def blocking_call_reason(call: ast.Call) -> str | None:
    """Why this call blocks the calling thread, or None if it doesn't."""
    chain = attr_chain(call.func)
    if chain is not None:
        if chain in _BLOCKING_CHAINS:
            return _BLOCKING_CHAINS[chain]
        if chain.startswith(_BLOCKING_CHAIN_PREFIXES):
            return f"{chain}() is a sync subprocess/file operation"
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        return "open() is sync file I/O"
    if isinstance(call.func, ast.Attribute):
        reason = _BLOCKING_METHOD_ATTRS.get(call.func.attr)
        if reason is not None:
            return reason
    return None


@dataclass
class FunctionInfo:
    """One function (or module body) in the whole-program index."""

    qualname: str
    module: str
    name: str
    node: ast.AST
    ctx: FileContext
    class_qual: str | None = None
    is_async: bool = False
    is_method: bool = False
    params: list[str] = field(default_factory=list)
    #: (call node, resolved callee qualnames, runs-off-thread flag)
    calls: list[tuple[ast.Call, tuple[str, ...], bool]] = field(
        default_factory=list
    )
    #: why the function blocks the calling thread (None = it doesn't);
    #: transitive through resolved *sync* callees.
    blocking_reason: str | None = None
    #: a collective every rank must reach is (transitively) issued here.
    collective_via: str | None = None
    #: the function (transitively) returns an isend/irecv request.
    returns_request: bool = False
    #: the return value derives from comm.rank / my_rank.
    returns_rank: bool = False
    #: parameters that receive rank-derived arguments at some call site.
    tainted_params: set[str] = field(default_factory=set)
    #: local names holding rank-derived values (final fixpoint state).
    local_taint: set[str] = field(default_factory=set)

    @property
    def short(self) -> str:
        if self.class_qual:
            return f"{self.class_qual.rsplit('.', 1)[-1]}.{self.name}"
        return self.name


@dataclass
class _ClassInfo:
    qualname: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    #: self.<attr> whose value is constructed from a project class.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleSymbols:
    name: str
    ctx: FileContext
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # name -> qualname


def _module_name(path: str | Path) -> str:
    norm = normalize_path(path)
    if norm.endswith(".py"):
        norm = norm[:-3]
    parts = [p for p in norm.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


_MAX_FIXPOINT_ITER = 12


class Project:
    """Whole-program index: call graph, rank taint, blocking, requests.

    Built once per :func:`check_paths` run over every parsed file; rules
    reach it through ``ctx.project``.  All resolution is best-effort —
    an unresolved call simply contributes no interprocedural fact, which
    keeps every propagated property an *under*-approximation (no fact is
    invented, so escalating a finding on one never fabricates a bug).
    """

    def __init__(self, contexts: list[FileContext]):
        self.contexts = list(contexts)
        self.modules: dict[str, _ModuleSymbols] = {}
        self._suffix_modules: dict[str, str | None] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassInfo] = {}
        self._info_by_node: dict[int, FunctionInfo] = {}
        self._call_targets: dict[int, tuple[str, ...]] = {}
        self.module_body: dict[str, FunctionInfo] = {}  # module -> body info
        # The AST never changes after parse, so the (expensive) per-
        # function body walk and the taint-relevant site lists are
        # computed once and reused across every fixpoint iteration.
        self._body_cache: dict[int, list[ast.AST]] = {}
        self._taint_sites: dict[
            int, tuple[list[tuple[list[ast.expr], ast.expr]], list[ast.Return]]
        ] = {}
        self._build_symbols()
        self._build_attr_types()
        self._build_calls()
        self._propagate()

    # -- lookups -------------------------------------------------------------

    def enclosing_info(self, ctx: FileContext, node: ast.AST) -> FunctionInfo | None:
        """The function (or module body) whose code contains ``node``."""
        func = ctx.enclosing_function(node)
        if func is not None:
            return self._info_by_node.get(id(func))
        return self.module_body.get(_module_name(ctx.path))

    def call_targets(self, call: ast.Call) -> tuple[str, ...]:
        return self._call_targets.get(id(call), ())

    # -- pass A: modules, functions, classes ---------------------------------

    def _build_symbols(self) -> None:
        for ctx in self.contexts:
            mod = _ModuleSymbols(name=_module_name(ctx.path), ctx=ctx)
            self.modules[mod.name] = mod
            self._register_suffixes(mod.name)
            for stmt in ctx.tree.body:
                self._collect_import(mod, stmt)
            # Top-level functions and classes with one level of methods;
            # nested defs get infos too (keyed by node) but only
            # top-level names are resolvable.
            for stmt in ctx.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = self._add_function(ctx, mod, stmt, class_qual=None)
                    mod.functions[stmt.name] = info.qualname
                elif isinstance(stmt, ast.ClassDef):
                    cls = _ClassInfo(
                        qualname=f"{mod.name}.{stmt.name}",
                        name=stmt.name, node=stmt, ctx=ctx,
                    )
                    self.classes[cls.qualname] = cls
                    mod.classes[stmt.name] = cls.qualname
                    for sub in stmt.body:
                        if isinstance(
                            sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            info = self._add_function(
                                ctx, mod, sub, class_qual=cls.qualname
                            )
                            cls.methods[sub.name] = info.qualname
            body_info = FunctionInfo(
                qualname=f"{mod.name}.<module>", module=mod.name,
                name="<module>", node=ctx.tree, ctx=ctx,
            )
            self.module_body[mod.name] = body_info
            self._info_by_node[id(ctx.tree)] = body_info

    def _register_suffixes(self, name: str) -> None:
        parts = name.split(".")
        for i in range(1, min(len(parts), 4)):
            suffix = ".".join(parts[-i:])
            if suffix == name:
                continue
            if suffix in self._suffix_modules and \
                    self._suffix_modules[suffix] != name:
                self._suffix_modules[suffix] = None  # ambiguous
            else:
                self._suffix_modules[suffix] = name

    def _add_function(
        self,
        ctx: FileContext,
        mod: _ModuleSymbols,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_qual: str | None,
    ) -> FunctionInfo:
        scope = f"{class_qual}.{node.name}" if class_qual \
            else f"{mod.name}.{node.name}"
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args)]
        info = FunctionInfo(
            qualname=scope, module=mod.name, name=node.name, node=node,
            ctx=ctx, class_qual=class_qual,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            is_method=class_qual is not None, params=params,
        )
        self.functions[scope] = info
        self._info_by_node[id(node)] = info
        return info

    def _collect_import(self, mod: _ModuleSymbols, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                pkg_parts = mod.name.split(".")[:-1]
                drop = stmt.level - 1
                if drop:
                    pkg_parts = pkg_parts[:-drop] if drop <= len(pkg_parts) \
                        else []
                pkg = ".".join(pkg_parts)
                base = f"{pkg}.{stmt.module}" if stmt.module else pkg
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name

    # -- pass B: constructor-typed self attributes ---------------------------

    def _build_attr_types(self) -> None:
        for cls in self.classes.values():
            mod = self.modules[_module_name(cls.ctx.path)]
            for node in ast.walk(cls.node):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                ):
                    continue
                attr = node.targets[0].attr
                for expr in self._constructor_candidates(node.value):
                    target = self._resolve_constructor(mod, expr)
                    if target is not None:
                        cls.attr_types.setdefault(attr, target)
                        break

    def _constructor_candidates(self, expr: ast.expr):
        """The expression plus IfExp arms / BoolOp operands within it."""
        yield expr
        if isinstance(expr, ast.IfExp):
            yield from self._constructor_candidates(expr.body)
            yield from self._constructor_candidates(expr.orelse)
        elif isinstance(expr, ast.BoolOp):
            for value in expr.values:
                yield from self._constructor_candidates(value)

    def _resolve_constructor(
        self, mod: _ModuleSymbols, expr: ast.expr
    ) -> str | None:
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)):
            return None
        name = expr.func.id
        if name in mod.classes:
            return mod.classes[name]
        dotted = mod.imports.get(name)
        if dotted is not None:
            # Resolve to the class itself — not through _resolve_dotted,
            # which maps classes to their __init__ and so loses classes
            # that rely on the implicit object.__init__.
            parts = dotted.split(".")
            for i in range(len(parts) - 1, 0, -1):
                mname = ".".join(parts[:i])
                resolved_mod = mname if mname in self.modules else \
                    self._suffix_modules.get(mname)
                if not resolved_mod:
                    continue
                target = self.modules[resolved_mod]
                rest = parts[i:]
                if len(rest) == 1 and rest[0] in target.classes:
                    return target.classes[rest[0]]
                break
        return None

    # -- pass C: call sites + direct facts -----------------------------------

    def _build_calls(self) -> None:
        infos = list(self.functions.values()) + list(self.module_body.values())
        for info in infos:
            for node in walk_function_body(info.node):
                if not isinstance(node, ast.Call):
                    continue
                targets = self._resolve_call(info, node)
                deferred = self._is_deferred(info, node)
                info.calls.append((node, targets, deferred))
                self._call_targets[id(node)] = targets
                if deferred:
                    continue
                if info.blocking_reason is None:
                    info.blocking_reason = blocking_call_reason(node)
                if (
                    info.collective_via is None
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in COLLECTIVE_ATTRS
                ):
                    info.collective_via = f".{node.func.attr}()"

    def _is_deferred(self, info: FunctionInfo, node: ast.Call) -> bool:
        current: ast.AST | None = info.ctx.parent(node)
        while current is not None and current is not info.node:
            if isinstance(current, ast.Call):
                chain = attr_chain(current.func)
                if chain is not None and \
                        chain.rsplit(".", 1)[-1] in _DEFER_ATTRS:
                    return True
            current = info.ctx.parent(current)
        return False

    def _resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> tuple[str, ...]:
        mod = self.modules.get(info.module)
        if mod is None:
            return ()
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(mod, func.id)
        chain = attr_chain(func)
        if chain is None:
            return ()
        parts = chain.split(".")
        if parts[0] == "self" and info.class_qual is not None:
            cls = self.classes.get(info.class_qual)
            if cls is None:
                return ()
            if len(parts) == 2:
                qual = cls.methods.get(parts[1])
                return (qual,) if qual else ()
            if len(parts) == 3:
                target_cls = self.classes.get(cls.attr_types.get(parts[1], ""))
                if target_cls is not None:
                    qual = target_cls.methods.get(parts[2])
                    return (qual,) if qual else ()
            return ()
        dotted = chain
        if parts[0] in mod.imports:
            rest = parts[1:]
            dotted = mod.imports[parts[0]]
            if rest:
                dotted = f"{dotted}.{'.'.join(rest)}"
        return self._resolve_dotted(dotted)

    def _resolve_name(self, mod: _ModuleSymbols, name: str) -> tuple[str, ...]:
        if name in mod.functions:
            return (mod.functions[name],)
        if name in mod.classes:
            return self._class_init(mod.classes[name])
        dotted = mod.imports.get(name)
        if dotted is not None:
            return self._resolve_dotted(dotted)
        return ()

    def _class_init(self, class_qual: str) -> tuple[str, ...]:
        cls = self.classes.get(class_qual)
        if cls is None:
            return ()
        qual = cls.methods.get("__init__")
        return (qual,) if qual else ()

    def _resolve_dotted(self, dotted: str) -> tuple[str, ...]:
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mname = ".".join(parts[:i])
            resolved_mod = mname if mname in self.modules else \
                self._suffix_modules.get(mname)
            if not resolved_mod:
                continue
            mod = self.modules[resolved_mod]
            rest = parts[i:]
            if len(rest) == 1:
                if rest[0] in mod.functions:
                    return (mod.functions[rest[0]],)
                if rest[0] in mod.classes:
                    return self._class_init(mod.classes[rest[0]])
            elif len(rest) == 2:
                class_qual = mod.classes.get(rest[0])
                if class_qual is not None:
                    cls = self.classes[class_qual]
                    qual = cls.methods.get(rest[1])
                    if qual:
                        return (qual,)
            return ()
        # Bare name: maybe a module-less function suffix ("helper.f"
        # resolved above); give up.
        return ()

    # -- fixpoint: taint, blocking, collectives, requests --------------------

    def _propagate(self) -> None:
        infos = list(self.functions.values()) + list(self.module_body.values())
        for _ in range(_MAX_FIXPOINT_ITER):
            changed = False
            for info in infos:
                changed |= self._update_function(info)
            if not changed:
                break
        # Final local-taint state for branch-condition queries (R6).
        for info in infos:
            info.local_taint = self._function_taint(info)[0]

    def _update_function(self, info: FunctionInfo) -> bool:
        changed = False
        tainted, returns_rank = self._function_taint(info)
        info.local_taint = tainted
        if returns_rank and not info.returns_rank:
            info.returns_rank = True
            changed = True
        if not info.returns_request and self._returns_request(info):
            info.returns_request = True
            changed = True
        for call, targets, deferred in info.calls:
            for qual in targets:
                callee = self.functions.get(qual)
                if callee is None:
                    continue
                # Rank taint flows into callee parameters.
                offset = 1 if callee.is_method else 0
                for i, arg in enumerate(call.args):
                    j = i + offset
                    if j < len(callee.params) and self._expr_tainted(
                        arg, tainted, info
                    ):
                        if callee.params[j] not in callee.tainted_params:
                            callee.tainted_params.add(callee.params[j])
                            changed = True
                for kw in call.keywords:
                    if (
                        kw.arg
                        and kw.arg in callee.params
                        and self._expr_tainted(kw.value, tainted, info)
                        and kw.arg not in callee.tainted_params
                    ):
                        callee.tainted_params.add(kw.arg)
                        changed = True
                if deferred:
                    continue
                # Blocking flows through *sync* callees only (an awaited
                # async callee yields the loop instead of blocking it).
                if (
                    info.blocking_reason is None
                    and not callee.is_async
                    and callee.blocking_reason is not None
                ):
                    info.blocking_reason = (
                        f"calls {callee.short}() which blocks: "
                        f"{callee.blocking_reason}"
                    )
                    changed = True
                if info.collective_via is None and callee.collective_via:
                    info.collective_via = (
                        f"calls {callee.short}() which issues "
                        f"{callee.collective_via}"
                    )
                    changed = True
        return changed

    def _body_nodes(self, info: FunctionInfo) -> list[ast.AST]:
        cached = self._body_cache.get(id(info.node))
        if cached is None:
            cached = list(walk_function_body(info.node))
            self._body_cache[id(info.node)] = cached
        return cached

    def _body_taint_sites(
        self, info: FunctionInfo
    ) -> tuple[list[tuple[list[ast.expr], ast.expr]], list[ast.Return]]:
        cached = self._taint_sites.get(id(info.node))
        if cached is not None:
            return cached
        assigns: list[tuple[list[ast.expr], ast.expr]] = []
        returns: list[ast.Return] = []
        for node in self._body_nodes(info):
            if isinstance(node, ast.Assign):
                assigns.append((node.targets, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigns.append(([node.target], node.value))
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
                assigns.append(([node.target], node.value))
            elif isinstance(node, ast.For):
                assigns.append(([node.target], node.iter))
            elif isinstance(node, ast.Return) and node.value is not None:
                returns.append(node)
        self._taint_sites[id(info.node)] = (assigns, returns)
        return assigns, returns

    def _returns_request(self, info: FunctionInfo) -> bool:
        request_names: set[str] = set()
        for node in self._body_nodes(info):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_request_expr(node.value)
            ):
                request_names.add(node.targets[0].id)
        for node in self._body_nodes(info):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if self._is_request_expr(node.value):
                return True
            if isinstance(node.value, ast.Name) and \
                    node.value.id in request_names:
                return True
        return False

    def _is_request_expr(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        if isinstance(expr.func, ast.Attribute) and \
                expr.func.attr in ("isend", "irecv"):
            return True
        return any(
            self.functions[q].returns_request
            for q in self._call_targets.get(id(expr), ())
            if q in self.functions
        )

    # -- rank taint ----------------------------------------------------------

    def _function_taint(self, info: FunctionInfo) -> tuple[set[str], bool]:
        tainted = set(info.tainted_params)
        assigns, returns = self._body_taint_sites(info)
        for _ in range(_MAX_FIXPOINT_ITER):
            changed = False
            for targets, value in assigns:
                if not self._expr_tainted(value, tainted, info):
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and sub.id not in tainted:
                            tainted.add(sub.id)
                            changed = True
            if not changed:
                break
        returns_rank = any(
            self._expr_tainted(node.value, tainted, info) for node in returns
        )
        return tainted, returns_rank

    def _expr_tainted(
        self, node: ast.expr, tainted: set[str], info: FunctionInfo
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted or node.id == "my_rank"
        if isinstance(node, ast.Attribute):
            if node.attr in ("rank", "my_rank"):
                return True
            return self._expr_tainted(node.value, tainted, info)
        if isinstance(node, ast.Subscript):
            return self._expr_tainted(node.value, tainted, info) or \
                self._expr_tainted(node.slice, tainted, info)
        if isinstance(node, ast.Call):
            for qual in self._call_targets.get(id(node), ()):
                callee = self.functions.get(qual)
                if callee is not None and callee.returns_rank:
                    return True
            if isinstance(node.func, ast.Attribute):
                # a method of a rank-derived object, or a rank-keyed
                # lookup (assignment.get(rank)), yields rank-derived data
                if self._expr_tainted(node.func.value, tainted, info):
                    return True
                if node.func.attr in ("get", "pop", "index") and any(
                    self._expr_tainted(a, tainted, info) for a in node.args
                ):
                    return True
            return False
        if isinstance(node, ast.BoolOp):
            return any(self._expr_tainted(v, tainted, info)
                       for v in node.values)
        if isinstance(node, ast.BinOp):
            return self._expr_tainted(node.left, tainted, info) or \
                self._expr_tainted(node.right, tainted, info)
        if isinstance(node, ast.UnaryOp):
            return self._expr_tainted(node.operand, tainted, info)
        if isinstance(node, ast.Compare):
            return self._expr_tainted(node.left, tainted, info) or any(
                self._expr_tainted(c, tainted, info) for c in node.comparators
            )
        if isinstance(node, ast.IfExp):
            return self._expr_tainted(node.body, tainted, info) or \
                self._expr_tainted(node.orelse, tainted, info)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._expr_tainted(e, tainted, info) for e in node.elts)
        if isinstance(node, ast.Starred):
            return self._expr_tainted(node.value, tainted, info)
        if isinstance(node, ast.JoinedStr):
            return any(
                isinstance(v, ast.FormattedValue)
                and self._expr_tainted(v.value, tainted, info)
                for v in node.values
            )
        return False

    def expr_is_rank_tainted(
        self, ctx: FileContext, node: ast.expr
    ) -> bool:
        """Is this expression rank-derived in its enclosing function?"""
        info = self.enclosing_info(ctx, node)
        if info is None:
            return False
        return self._expr_tainted(node, info.local_taint, info)


#: All registered rules by id.
REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to :data:`REGISTRY`."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule
    return cls


class Baseline:
    """The reviewed list of grandfathered findings.

    JSON format::

        {"version": 1,
         "entries": [{"key": "R5:repro/campaign/workers.py:WorkerPool._execute",
                      "justification": "one line on why this is deliberate"}]}

    Matching is by :attr:`Finding.key`; entries without a justification
    are rejected so the file stays a record of decisions, not a dump.
    """

    FILENAME = ".repro-analysis-baseline.json"

    def __init__(self, entries: dict[str, str] | None = None):
        self.entries: dict[str, str] = dict(entries or {})

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        data = json.loads(Path(path).read_text())
        entries: dict[str, str] = {}
        for entry in data.get("entries", []):
            key = entry.get("key")
            justification = entry.get("justification", "").strip()
            if not key or not justification:
                raise ValueError(
                    f"baseline entry {entry!r} needs both a key and a "
                    f"non-empty justification"
                )
            entries[key] = justification
        return cls(entries)

    @classmethod
    def discover(cls, start: str | Path) -> "Baseline | None":
        """Find and load the nearest baseline file at or above ``start``."""
        current = Path(start).resolve()
        if current.is_file():
            current = current.parent
        for directory in [current, *current.parents]:
            candidate = directory / cls.FILENAME
            if candidate.is_file():
                return cls.load(candidate)
        return None

    def matches(self, finding: Finding) -> bool:
        return finding.key in self.entries


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _iter_py_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def check_paths(
    paths: list[str | Path],
    baseline: Baseline | None = None,
    rule_ids: list[str] | None = None,
    select: set[str | Path] | None = None,
) -> Report:
    """Run the rule pack over files/directories and build a report.

    ``rule_ids`` restricts to a subset of the registry (unknown ids
    raise).  ``select``, when given, restricts *reporting* to those
    files (the ``--diff`` changed-files mode) — the whole-program
    :class:`Project` is still built over every file under ``paths`` so
    interprocedural facts stay complete.  Pragma- and baseline-
    suppressed findings are counted but excluded from
    ``report.findings``; files that fail to parse produce a
    non-suppressible ``parse`` finding rather than aborting the run.
    """
    # Ensure the built-in rule pack is registered even if the caller
    # imported only this module.
    from . import rules as _rules  # noqa: F401

    if rule_ids is None:
        selected = list(REGISTRY.values())
    else:
        unknown = [r for r in rule_ids if r not in REGISTRY]
        if unknown:
            raise ValueError(
                f"unknown rule id(s) {unknown}; known: {sorted(REGISTRY)}"
            )
        selected = [REGISTRY[r] for r in rule_ids]

    selected_paths: set[str] | None = None
    if select is not None:
        selected_paths = {Path(p).resolve().as_posix() for p in select}

    def _is_selected(path: str | Path) -> bool:
        if selected_paths is None:
            return True
        return Path(path).resolve().as_posix() in selected_paths

    report = Report()
    contexts: list[FileContext] = []
    for path in _iter_py_files(paths):
        try:
            contexts.append(FileContext(path, path.read_text()))
        except SyntaxError as exc:
            if _is_selected(path):
                report.files_checked += 1
                report.findings.append(
                    Finding(
                        rule="parse",
                        path=str(path),
                        line=exc.lineno or 0,
                        scope="<module>",
                        message=f"file does not parse: {exc.msg}",
                    )
                )

    project = Project(contexts)
    for ctx in contexts:
        ctx.project = project

    for ctx in contexts:
        if not _is_selected(ctx.path):
            continue
        applicable = [r for r in selected if r.applies_to(ctx.path)]
        if not applicable:
            continue
        report.files_checked += 1
        for rule in applicable:
            for finding in rule.check(ctx):
                if ctx.is_suppressed(finding):
                    report.suppressed += 1
                elif baseline is not None and baseline.matches(finding):
                    report.baselined += 1
                else:
                    report.findings.append(finding)

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
