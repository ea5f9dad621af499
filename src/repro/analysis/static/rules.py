"""The rule pack: this codebase's SPMD and numerical invariants.

Each rule encodes a discipline the paper's production runs depended on
(see the rationale strings, surfaced by ``python -m repro.analysis
explain RULE``).  Rules are heuristic by design — they over-approximate
where the alternative is missing a real bug, and every false positive
has a recorded escape hatch (pragma or baseline entry).
"""

from __future__ import annotations

import ast

from .core import (
    COLLECTIVE_ATTRS,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    blocking_call_reason,
    register,
    walk_function_body,
)

__all__ = [
    "AsyncHygieneRule",
    "BroadExceptRule",
    "DeterminismRule",
    "HotLoopAllocRule",
    "LeakedRequestRule",
    "MagicTagRule",
    "SPMDDivergenceRule",
    "StateLifecycleRule",
]


def _attr_chain(node: ast.AST) -> str | None:
    """Dotted source text of a Name/Attribute chain (``np.random.rand``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _contains_wait_site(node: ast.AST, name: str) -> bool:
    """Does the subtree call ``name.wait(...)``?"""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "wait"
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == name
        ):
            return True
    return False


@register
class LeakedRequestRule(Rule):
    """R1: every isend/irecv request must reach a wait on all paths."""

    id = "R1"
    title = "leaked non-blocking request"
    rationale = (
        "An irecv whose request is never waited silently drops a halo "
        "contribution — the mass-matrix or force assembly is then wrong "
        "on exactly one slice boundary, which surfaces only as a flaky "
        "bit-identity failure.  An unwaited isend is legal-looking code "
        "that deadlocks on a real MPI once payloads cross the rendezvous "
        "threshold.  The rule flags requests whose result is discarded, "
        "never used, or waited only on some control-flow paths — "
        "including requests that cross function boundaries: a helper "
        "that *returns* an isend result makes its callers responsible "
        "(a discarded call to it is a leak), and a request stashed on "
        "``self`` must be waited somewhere in its class.  Handles that "
        "escape into containers or other objects are assumed managed "
        "by their new owner."
    )
    scope_dirs = ("parallel", "solver")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            how = self._request_source(ctx, node)
            if how is None:
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.Expr):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"result of {how} is discarded — the request can "
                        f"never reach a wait",
                    )
                )
                continue
            if (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                found = self._check_named(
                    ctx, node, parent, parent.targets[0].id, how
                )
                if found is not None:
                    findings.append(found)
                continue
            stashed = self._self_stash_attr(ctx, node, parent)
            if stashed is not None and not self._class_waits_attr(
                ctx, node, stashed
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"request from {how} is stashed on self.{stashed} "
                        f"but no method of the class ever waits "
                        f"self.{stashed}",
                    )
                )
            # Any other context (call argument, list element, non-self
            # attribute store, tuple unpack) hands the request to other
            # code; the new owner is responsible.
        return findings

    def _request_source(self, ctx: FileContext, node: ast.Call) -> str | None:
        """How this call produces a request, or None if it doesn't.

        Either the isend/irecv primitive itself, or (via the project
        call graph) a helper that transitively returns a request.
        """
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("isend", "irecv"):
            return f"{node.func.attr}()"
        if ctx.project is not None:
            for qual in ctx.project.call_targets(node):
                info = ctx.project.functions.get(qual)
                if info is not None and info.returns_request:
                    return f"{info.short}() (returns an isend/irecv request)"
        return None

    def _self_stash_attr(
        self, ctx: FileContext, node: ast.Call, parent: ast.AST | None
    ) -> str | None:
        """The ``self.<attr>`` a request lands on, or None.

        Covers ``self.req = isend(...)`` and
        ``self.pending.append(isend(...))``.
        """
        if (
            isinstance(parent, ast.Assign)
            and len(parent.targets) == 1
            and isinstance(parent.targets[0], ast.Attribute)
            and isinstance(parent.targets[0].value, ast.Name)
            and parent.targets[0].value.id == "self"
        ):
            return parent.targets[0].attr
        if (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "append"
            and isinstance(parent.func.value, ast.Attribute)
            and isinstance(parent.func.value.value, ast.Name)
            and parent.func.value.value.id == "self"
        ):
            return parent.func.value.attr
        return None

    def _class_waits_attr(
        self, ctx: FileContext, node: ast.AST, attr: str
    ) -> bool:
        """Does the enclosing class wait ``self.<attr>`` anywhere?"""
        cls: ast.AST | None = ctx.parent(node)
        while cls is not None and not isinstance(cls, ast.ClassDef):
            cls = ctx.parent(cls)
        if cls is None:
            return False

        def _mentions_self_attr(tree: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Attribute)
                and sub.attr == attr
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                for sub in ast.walk(tree)
            )

        for sub in ast.walk(cls):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if "wait" not in name:
                    continue
                if isinstance(func, ast.Attribute) and \
                        _mentions_self_attr(func.value):
                    return True  # self.attr.wait() / self.attr[x].wait()
                if any(_mentions_self_attr(arg) for arg in sub.args):
                    return True  # waitall(self.attr)-style
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                # for r in self.attr: ... r.wait() ...
                if _mentions_self_attr(sub.iter) and any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "wait"
                    for stmt in sub.body
                    for inner in ast.walk(stmt)
                ):
                    return True
        return False

    def _check_named(
        self,
        ctx: FileContext,
        call: ast.Call,
        assign: ast.Assign,
        name: str,
        how: str,
    ) -> Finding | None:
        scope: ast.AST = ctx.enclosing_function(call) or ctx.tree
        used = False
        for sub in ast.walk(scope):
            if not (
                isinstance(sub, ast.Name)
                and sub.id == name
                and isinstance(sub.ctx, ast.Load)
            ):
                continue
            used = True
            sub_parent = ctx.parent(sub)
            is_wait = (
                isinstance(sub_parent, ast.Attribute)
                and sub_parent.attr == "wait"
                and isinstance(ctx.parent(sub_parent), ast.Call)
            )
            if not is_wait:
                # Escapes: appended to a pending list, passed to
                # waitall/complete, returned — assume managed.
                return None
        if not used:
            return self.finding(
                ctx,
                call,
                f"request {name!r} from {how} is never waited on",
            )
        if self._covered_after(ctx, assign, name):
            return None
        return self.finding(
            ctx,
            call,
            f"request {name!r} from {how} is not waited on "
            f"all control-flow paths",
        )

    def _covered_after(
        self, ctx: FileContext, stmt: ast.stmt, name: str
    ) -> bool:
        """Is a wait guaranteed on every path after ``stmt``?

        Climbs enclosing blocks: statements following ``stmt`` in its
        block must cover, or fall-through continues into the parent
        block.  Loops never guarantee execution of their body.
        """
        current: ast.stmt = stmt
        while True:
            parent = ctx.parent(current)
            if parent is None:
                return False
            block: list[ast.stmt] | None = None
            for _field, value in ast.iter_fields(parent):
                if isinstance(value, list) and current in value:
                    block = value
                    break
            if block is None:
                return False
            rest = block[block.index(current) + 1 :]
            if self._seq_covers(rest, name):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if not isinstance(parent, ast.stmt):
                return False
            current = parent

    def _seq_covers(self, stmts: list[ast.stmt], name: str) -> bool:
        return any(self._stmt_covers(s, name) for s in stmts)

    def _stmt_covers(self, stmt: ast.stmt, name: str) -> bool:
        if isinstance(stmt, ast.Raise):
            return True
        if isinstance(stmt, ast.If):
            return bool(
                stmt.orelse
                and self._seq_covers(stmt.body, name)
                and self._seq_covers(stmt.orelse, name)
            )
        if isinstance(stmt, ast.Try):
            return self._seq_covers(stmt.body, name) or self._seq_covers(
                stmt.finalbody, name
            )
        if isinstance(stmt, ast.With):
            return self._seq_covers(stmt.body, name)
        if isinstance(stmt, (ast.For, ast.While)):
            return False  # the body may execute zero times
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return False
        return _contains_wait_site(stmt, name)


@register
class MagicTagRule(Rule):
    """R2: comm tags come from parallel/tags.py, and channels don't collide."""

    id = "R2"
    title = "magic message tag"
    rationale = (
        "Tag values are the wire-level namespace of the halo protocol: a "
        "literal 2000 at one call site and a literal 2000 at another are "
        "an invisible coupling, and two channels closer than one region "
        "block silently cross-match messages.  All tags must be named "
        "constants from repro/parallel/tags.py (or region_tag() over "
        "them); the rule additionally re-derives the registry from that "
        "file's AST and rejects bases closer than TAG_BLOCK."
    )
    scope_dirs = ("parallel", "solver")

    #: positional index of the ``tag`` parameter per comm method.
    TAG_ARG_INDEX = {"send": 2, "isend": 2, "recv": 1, "irecv": 1}

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.path.name == "tags.py":
            return self._check_registry(ctx)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.TAG_ARG_INDEX
            ):
                continue
            tag_expr: ast.expr | None = None
            for kw in node.keywords:
                if kw.arg == "tag":
                    tag_expr = kw.value
            if tag_expr is None:
                index = self.TAG_ARG_INDEX[node.func.attr]
                if len(node.args) > index:
                    tag_expr = node.args[index]
            if tag_expr is None:
                continue
            for sub in ast.walk(tag_expr):
                if (
                    isinstance(sub, ast.Constant)
                    and isinstance(sub.value, int)
                    and not isinstance(sub.value, bool)
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"magic tag literal {sub.value} in "
                            f"{node.func.attr}() — use a constant from "
                            f"parallel/tags.py",
                        )
                    )
                    break
        return findings

    def _check_registry(self, ctx: FileContext) -> list[Finding]:
        """Re-derive the tag registry and verify channel separation."""
        consts: dict[str, tuple[int, ast.stmt]] = {}
        for stmt in ctx.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, int)
                and not isinstance(stmt.value.value, bool)
            ):
                consts[stmt.targets[0].id] = (stmt.value.value, stmt)
        block = consts.get("TAG_BLOCK", (1000, None))[0]
        bases = sorted(
            ((v, name, stmt) for name, (v, stmt) in consts.items()
             if name != "TAG_BLOCK"),
        )
        findings: list[Finding] = []
        for (va, na, _sa), (vb, nb, sb) in zip(bases, bases[1:]):
            if vb - va < block:
                findings.append(
                    self.finding(
                        ctx,
                        sb,
                        f"tag channels {na}={va} and {nb}={vb} are closer "
                        f"than TAG_BLOCK={block}: region offsets would "
                        f"collide in tag space",
                    )
                )
        return findings


@register
class HotLoopAllocRule(Rule):
    """R3: no array allocation inside time-step-loop functions."""

    id = "R3"
    title = "allocation in time-step loop"
    rationale = (
        "The paper's kernels run ~50000 times per simulation; a fresh "
        "np.zeros/np.empty/np.concatenate per call turns into allocator "
        "traffic and page faults that dominate at scale, and a dtype-"
        "less np.empty silently defaults to float64 on one platform and "
        "whatever numpy decides on another.  Functions on the time-step "
        "path carry a `# repro: hot-loop` marker on their def line (the "
        "rule insists every compute_forces* kernel entry point does); "
        "inside them, array allocation and list-append accumulation are "
        "flagged — preallocate in __init__ and fill in place.  The same "
        "goes for the temporaries a contraction or ufunc call returns: "
        "np.einsum/matmul/multiply/add/subtract without out= and "
        "np.stack allocate their result on every call, which is how an "
        "allocation-free kernel silently regresses."
    )
    scope_dirs = ("kernels",)
    scope_suffixes = ("solver/solver.py",)

    ALLOC_ATTRS = ("zeros", "empty", "concatenate", "stack")
    #: Calls that allocate their result unless handed ``out=``.
    OUT_ATTRS = ("einsum", "matmul", "multiply", "add", "subtract")
    GATHER_ATTRS = ("concatenate", "stack", "array")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        in_kernels = "kernels" in ctx.path.parts[:-1]
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            hot = func.lineno in ctx.hot_lines
            if in_kernels and func.name.startswith("compute_forces") and not hot:
                findings.append(
                    self.finding(
                        ctx,
                        func,
                        f"kernel entry point {func.name}() must carry a "
                        f"`# repro: hot-loop` marker on its def line",
                    )
                )
            if hot:
                findings.extend(self._check_hot(ctx, func))
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and _attr_chain(node.func) in ("np.empty", "numpy.empty")
                and len(node.args) < 2
                and not any(kw.arg == "dtype" for kw in node.keywords)
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "np.empty() without an explicit dtype — the field "
                        "precision must be stated, not defaulted",
                    )
                )
        return findings

    def _check_hot(self, ctx: FileContext, func: ast.AST) -> list[Finding]:
        findings: list[Finding] = []
        list_names: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.List)
                and not node.value.elts
            ):
                list_names.add(node.targets[0].id)
        gathered: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _attr_chain(node.func) in {
                f"np.{a}" for a in self.GATHER_ATTRS
            }:
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            gathered.add(sub.id)
        name = getattr(func, "name", "<lambda>")
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func) or ""
            module, _, attr = chain.rpartition(".")
            if module not in ("np", "numpy"):
                attr = None
            if attr in self.ALLOC_ATTRS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{chain}() allocates inside time-step-loop "
                        f"function {name}() — preallocate and fill in "
                        f"place",
                    )
                )
            elif attr in self.OUT_ATTRS and not any(
                kw.arg == "out" for kw in node.keywords
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{chain}() without out= allocates its result "
                        f"inside time-step-loop function {name}() — write "
                        f"into a preallocated work array",
                    )
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in list_names
                and node.func.value.id in gathered
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"list-append accumulation into an array inside "
                        f"time-step-loop function {name}()",
                    )
                )
        return findings


@register
class DeterminismRule(Rule):
    """R4: no unseeded randomness or wall-clock reads in deterministic paths."""

    id = "R4"
    title = "non-determinism in deterministic path"
    rationale = (
        "Bit-identity between the blocking and overlapped schedules — "
        "and between a run and its restart — is a load-bearing test "
        "oracle here, as it was for the paper's validation.  Global-"
        "state RNG (np.random.rand, random.random) and wall-clock reads "
        "(time.time, datetime.now) make results depend on call order "
        "and machine time.  Mesh, model, kernel, and solver code must "
        "use an explicitly seeded np.random.default_rng(seed) and take "
        "clocks as injected parameters.  The serving tier is in scope "
        "too: its content-addressed cache keys must never fold in "
        "wall-clock or RNG state (latency timing uses the monotonic "
        "time.perf_counter, which is allowed)."
    )
    scope_dirs = ("mesh", "kernels", "solver", "model", "service")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            if chain.startswith(("np.random.", "numpy.random.")):
                leaf = chain.rsplit(".", 1)[1]
                seeded = leaf == "default_rng" and (node.args or node.keywords)
                if not seeded:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{chain}() in a deterministic path — use a "
                            f"seeded np.random.default_rng(seed)",
                        )
                    )
            elif chain.startswith("random."):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"stdlib {chain}() uses global RNG state — use a "
                        f"seeded np.random.default_rng(seed)",
                    )
                )
            elif chain in ("time.time", "datetime.now", "datetime.utcnow",
                           "datetime.datetime.now", "datetime.datetime.utcnow"):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock read {chain}() in a deterministic "
                        f"path — inject timestamps from the caller",
                    )
                )
        return findings


@register
class BroadExceptRule(Rule):
    """R5: no broad except that swallows the typed error hierarchy."""

    id = "R5"
    title = "broad exception swallowed"
    rationale = (
        "The parallel/campaign/chaos layers communicate failure through "
        "a typed hierarchy (RankFailedError, NumericalHealthError, "
        "CheckpointCorruptionError, ConfigError) that retry policies "
        "and drills dispatch on.  A bare `except:` or an `except "
        "Exception:` that does not re-raise collapses that hierarchy — "
        "a genuine rank death gets retried like a transient, or a "
        "corrupted checkpoint gets reported as success.  Handlers must "
        "catch typed errors, or re-raise (possibly wrapped) what they "
        "catch.  The service HTTP boundary is in scope: it maps *typed* "
        "failures to status codes and lets unexpected bugs surface "
        "instead of turning them all into opaque 500s."
    )
    scope_dirs = ("parallel", "campaign", "chaos", "service")

    BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "bare `except:` swallows the typed error "
                        "hierarchy (and KeyboardInterrupt)",
                    )
                )
                continue
            names = self._type_names(node.type)
            broad = [n for n in names if n in self.BROAD]
            if not broad:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue  # re-raised (possibly wrapped): hierarchy intact
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"`except {broad[0]}` without re-raise swallows the "
                    f"typed error hierarchy",
                )
            )
        return findings

    def _type_names(self, node: ast.expr) -> list[str]:
        if isinstance(node, ast.Tuple):
            names: list[str] = []
            for elt in node.elts:
                names.extend(self._type_names(elt))
            return names
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return []


@register
class SPMDDivergenceRule(Rule):
    """R6: no collective reachable only under a rank-dependent branch."""

    id = "R6"
    title = "rank-divergent collective"
    rationale = (
        "SPMD discipline is the whole contract of the paper's 62K-rank "
        "runs: every rank must issue the same collectives and halo "
        "posts in the same order.  A barrier/allreduce/gather (or a "
        "halo assemble/post/complete) guarded by a condition derived "
        "from comm.rank executes on some ranks and not others — the ranks "
        "that reach it wait forever for the ones that never will.  The "
        "comm sanitizer can only catch this at runtime on the path it "
        "happens to execute; this rule follows the rank-taint lattice "
        "(comm.rank through assignments, returns and call arguments, "
        "project-wide) and flags any collective — direct, or reached "
        "through a called function — lexically under a rank-tainted "
        "if/while.  Rank-dependent work is fine; rank-dependent "
        "*communication schedules* are not."
    )
    scope_dirs = ("parallel", "solver")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._collective_reason(ctx, node)
            if what is None:
                continue
            guard = self._rank_guard(ctx, node)
            if guard is None:
                continue
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"collective {what} is reachable only under a rank-"
                    f"dependent branch (condition at line {guard.lineno}) "
                    f"— ranks diverge and the collective deadlocks; issue "
                    f"it unconditionally or make the condition "
                    f"rank-uniform",
                )
            )
        return findings

    def _collective_reason(
        self, ctx: FileContext, node: ast.Call
    ) -> str | None:
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in COLLECTIVE_ATTRS:
            return f".{node.func.attr}()"
        if ctx.project is not None:
            for qual in ctx.project.call_targets(node):
                info = ctx.project.functions.get(qual)
                if info is not None and info.collective_via:
                    return f"{info.short}() [{info.collective_via}]"
        return None

    def _rank_guard(self, ctx: FileContext, node: ast.AST) -> ast.stmt | None:
        """The innermost rank-tainted if/while governing ``node``."""
        if ctx.project is None:
            return None
        child: ast.AST = node
        current = ctx.parent(node)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            if (
                isinstance(current, (ast.If, ast.While))
                and child is not current.test
                and ctx.project.expr_is_rank_tainted(ctx, current.test)
            ):
                return current
            child = current
            current = ctx.parent(current)
        return None


@register
class StateLifecycleRule(ProjectRule):
    """R7: every dynamic state array survives checkpoint AND remap."""

    id = "R7"
    title = "state array missing from checkpoint/remap lifecycle"
    rationale = (
        "The paper's production runs restarted from disk across "
        "reservation windows, so checkpoint save/load and the shrink "
        "remap must capture the *complete* dynamic state — a field "
        "that is integrated every step but missing from one of those "
        "three surfaces restarts as zeros and corrupts the physics "
        "silently (no crash, wrong seismograms).  The rule re-derives "
        "the state registry from the source of truth: the ndarray "
        "fields of solver/fields.py dataclasses, the attenuation "
        "memory arrays mutated by AttenuationState's update methods, "
        "and the receiver recording buffers — then verifies each name "
        "is referenced by checkpoint.py's save functions, its "
        "load/read functions, and resilience/remap.py.  Adding a field "
        "without threading it through restart is a blocking finding, "
        "not a code review hope."
    )
    scope_suffixes = (
        "solver/fields.py", "solver/checkpoint.py", "resilience/remap.py",
    )

    def check_project(self, project) -> list[Finding]:
        fields_ctx = project.context_for_suffix("solver/fields.py")
        if fields_ctx is None:
            return []
        registry = self._state_registry(project, fields_ctx)
        if not registry:
            return []
        surfaces = self._surfaces(project)
        findings: list[Finding] = []
        for name, origin in registry:
            for tag, sctx, nodes, verb in surfaces:
                if any(self._covers(n, name) for n in nodes):
                    continue
                anchor = nodes[0] if nodes else sctx.tree
                findings.append(
                    Finding(
                        rule=self.id,
                        path=str(sctx.path),
                        line=getattr(anchor, "lineno", 1),
                        scope=f"{name}:{tag}",
                        message=(
                            f"dynamic state array {name!r} (declared in "
                            f"{origin}) is never {verb} — a restart "
                            f"would silently reset it"
                        ),
                    )
                )
        return findings

    def _surfaces(self, project):
        surfaces = []
        ckpt = project.context_for_suffix("solver/checkpoint.py")
        if ckpt is not None:
            defs = [
                n for n in ast.walk(ckpt.tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            surfaces.append((
                "save", ckpt, [n for n in defs if "save" in n.name],
                "captured by a checkpoint save function",
            ))
            surfaces.append((
                "load", ckpt,
                [n for n in defs
                 if "load" in n.name or n.name.startswith("read")],
                "restored by a checkpoint load function",
            ))
        remap = project.context_for_suffix("resilience/remap.py")
        if remap is not None:
            surfaces.append((
                "remap", remap, [remap.tree],
                "redistributed by the shrink remap",
            ))
        return surfaces

    def _state_registry(
        self, project, fields_ctx: FileContext
    ) -> list[tuple[str, str]]:
        registry: list[tuple[str, str]] = []
        for stmt in fields_ctx.tree.body:
            if not (isinstance(stmt, ast.ClassDef)
                    and stmt.name.endswith("Field")):
                continue
            for sub in stmt.body:
                if (
                    isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Name)
                    and self._is_ndarray_annotation(sub.annotation)
                ):
                    registry.append((sub.target.id, "solver/fields.py"))
        atten = project.context_for_suffix("solver/attenuation.py")
        if atten is not None:
            for name in sorted(self._mutated_state_attrs(atten)):
                registry.append((name, "solver/attenuation.py"))
        receivers = project.context_for_suffix("solver/receivers.py")
        if receivers is not None and any(
            isinstance(n, ast.ClassDef) and "ReceiverSet" in n.name
            for n in ast.walk(receivers.tree)
        ):
            for name in ("seis_data", "seis_step", "seis_n_steps"):
                registry.append((name, "solver/receivers.py"))
        return registry

    def _is_ndarray_annotation(self, annotation: ast.expr) -> bool:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Attribute) and sub.attr == "ndarray":
                return True
            if isinstance(sub, ast.Name) and sub.id == "ndarray":
                return True
            if isinstance(sub, ast.Constant) and \
                    isinstance(sub.value, str) and "ndarray" in sub.value:
                return True
        return False

    def _mutated_state_attrs(self, atten: FileContext) -> set[str]:
        """self.<attr> arrays an Attenuation class mutates outside init."""
        names: set[str] = set()
        for cls in ast.walk(atten.tree):
            if not (isinstance(cls, ast.ClassDef)
                    and "Attenuation" in cls.name):
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    target: ast.expr | None = None
                    if isinstance(node, ast.AugAssign):
                        target = node.target
                    elif isinstance(node, ast.Assign) and \
                            len(node.targets) == 1:
                        target = node.targets[0]
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
        return names

    def _covers(self, node: ast.AST, name: str) -> bool:
        """Does this subtree reference the state array ``name``?

        Matches the exact string, the f-string prefix form
        (``f"{name}_{code}"`` leaves a ``"name_"`` constant), or an
        attribute access ``.name``.
        """
        prefixed = name + "_"
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value == name or sub.value == prefixed:
                    return True
            elif isinstance(sub, ast.Attribute) and sub.attr == name:
                return True
        return False


@register
class AsyncHygieneRule(Rule):
    """R9: no blocking calls on the event loop thread."""

    id = "R9"
    title = "blocking call in async def"
    rationale = (
        "The service's event loop multiplexes every client connection "
        "on one thread; a single sync disk read (np.load of a cached "
        "run, a manifest scan, a WorkerPool.run) inside an `async def` "
        "freezes ALL in-flight requests for its duration — the "
        "single-flight coalescing and p99 latency story collapse, and "
        "under load the health checks time out.  The rule deny-lists "
        "direct blocking primitives (time.sleep, open/np.load/np.save*, "
        "Path read/write helpers, subprocess) inside async defs in "
        "service/, and follows the project call graph through *sync* "
        "callees so a blocking store.load two hops away is still "
        "caught.  Calls routed through asyncio.to_thread or "
        "run_in_executor run off-loop and are exempt — that is the "
        "fix, not an escape hatch."
    )
    scope_dirs = ("service",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_deferred(ctx, node, func):
                    continue
                reason = self._blocking_reason(ctx, node)
                if reason is None:
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"blocking call on the event loop in async "
                        f"{func.name}(): {reason}; route it through "
                        f"asyncio.to_thread or run_in_executor",
                    )
                )
        return findings

    def _blocking_reason(self, ctx: FileContext, node: ast.Call) -> str | None:
        reason = blocking_call_reason(node)
        if reason is not None:
            return reason
        if ctx.project is None:
            return None
        for qual in ctx.project.call_targets(node):
            info = ctx.project.functions.get(qual)
            if info is not None and not info.is_async and \
                    info.blocking_reason:
                return f"{info.short}() blocks ({info.blocking_reason})"
        return None

    def _is_deferred(
        self, ctx: FileContext, node: ast.Call, boundary: ast.AST
    ) -> bool:
        from .core import attr_chain, _DEFER_ATTRS

        current = ctx.parent(node)
        while current is not None and current is not boundary:
            if isinstance(current, ast.Call):
                chain = attr_chain(current.func)
                if chain is not None and \
                        chain.rsplit(".", 1)[-1] in _DEFER_ATTRS:
                    return True
            current = ctx.parent(current)
        return False
