"""Per-module dataflow IR, extracted once per file from the stdlib AST.

The IR is deliberately *plain data* (nested dicts/lists of scalars) so a
module's extraction result can be serialized to JSON and cached by file
content hash — re-linting an unchanged file never re-parses it.  Nothing
in here consults the manifest: extraction must stay configuration-free
or the cache would silently go stale when ``manifest.cfg`` changes.

Shape (see ``IR_VERSION`` for the schema revision):

``ModuleIR`` ::

    {"version": int, "path": str, "module": str,
     "imports": {alias: [module, name-or-None]},
     "functions": [FunctionIR, ...]}

``FunctionIR`` ::

    {"qual": "repro.net.fleet::FleetRunner._serve_tds",
     "module": str, "path": str, "cls": str|None, "name": str,
     "kind": "function"|"method"|"static"|"class",
     "params": [str], "kwonly": [str], "ln": int, "is_async": bool,
     "steps": [Step, ...],          # linear, source order
     "awaits": [[step_index, ln]],  # every await point, in order
     "accesses": [Access, ...]}     # shared-state touches (PL008)

``Step`` is one of::

    ["assign", [target, ...], Expr, ln]   # x = ..., for-targets, with-as
    ["aug",    [target],      Expr, ln]   # x += ...
    ["ret",    Expr, ln]                  # return ...
    ["expr",   Expr, ln]                  # bare expression statement

and ``Expr`` is an atom tree::

    {"k": "name",  "id": str, "ln": int}
    {"k": "attr",  "attr": str, "dotted": str|None, "base": Expr|None, "ln": int}
    {"k": "call",  "name": str|None, "dotted": str|None, "args": [Expr],
     "kw": [[str|None, Expr]], "ln": int, "awaited": bool, "bare": bool}
    {"k": "const", "ln": int}
    {"k": "many",  "parts": [Expr], "ln": int}   # everything else, flattened

Control flow is linearized (branch bodies concatenate in source order);
the dataflow pass in :mod:`~tools.privacy_lint.analysis.program` runs a
few passes over the step list so loop-carried flows converge.  This is a
path-insensitive over/under-approximation — exactly the trade the rest
of privacy-lint already makes: deterministic, fast, and reviewable.
"""

from __future__ import annotations

import ast
from typing import Any, Optional

#: bump whenever the IR shape or extraction semantics change — the cache
#: keys on (IR_VERSION, file content hash), so stale entries self-expire.
IR_VERSION = 1

Expr = dict[str, Any]
Step = list[Any]
ModuleIR = dict[str, Any]
FunctionIR = dict[str, Any]


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative POSIX path.

    ``src/repro/net/server.py`` -> ``repro.net.server``;
    ``tools/privacy_lint/cli.py`` -> ``tools.privacy_lint.cli``;
    ``pkg/__init__.py`` -> ``pkg``.  Files outside any package root still
    get a stable dotted name derived from their path.
    """
    name = path
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.startswith("src/"):
        name = name[len("src/") :]
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def dotted_of(node: ast.expr) -> Optional[str]:
    """``a.b.c`` when *node* is a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _self_root(dotted: Optional[str]) -> Optional[str]:
    """``self.X`` prefix of a dotted chain (shared-state root), if any."""
    if dotted is None:
        return None
    parts = dotted.split(".")
    if len(parts) >= 2 and parts[0] in ("self", "cls"):
        return f"{parts[0]}.{parts[1]}"
    if len(parts) >= 1 and parts[0].isupper():  # module-level REGISTRY etc.
        return parts[0]
    return None


class _FunctionExtractor:
    """Builds one FunctionIR by walking a function body."""

    def __init__(
        self,
        module: str,
        path: str,
        scope: list[str],
        cls: Optional[str],
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        sink: list[FunctionIR],
    ) -> None:
        self.module = module
        self.path = path
        self.cls = cls
        self.node = node
        self.sink = sink
        self.qual = f"{module}::{'.'.join(scope)}"
        self.steps: list[Step] = []
        self.awaits: list[list[int]] = []
        self.accesses: list[dict[str, Any]] = []
        self._locks: list[str] = []
        self._scope = scope

    # ------------------------------------------------------------------ #
    def extract(self) -> FunctionIR:
        for stmt in self.node.body:
            self._stmt(stmt)
        args = self.node.args
        params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        kind = "method" if self.cls is not None else "function"
        for decorator in self.node.decorator_list:
            name = dotted_of(decorator)
            terminal = name.rsplit(".", 1)[-1] if name else None
            if terminal == "staticmethod":
                kind = "static"
            elif terminal == "classmethod":
                kind = "class"
        return {
            "qual": self.qual,
            "module": self.module,
            "path": self.path,
            "cls": self.cls,
            "name": self.node.name,
            "kind": kind,
            "params": params,
            "kwonly": [a.arg for a in args.kwonlyargs],
            "ln": self.node.lineno,
            "is_async": isinstance(self.node, ast.AsyncFunctionDef),
            "steps": self.steps,
            "awaits": self.awaits,
            "accesses": self.accesses,
        }

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _emit(self, step: Step) -> None:
        self.steps.append(step)

    @property
    def _idx(self) -> int:
        return len(self.steps)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets: list[str] = []
            for target in stmt.targets:
                targets.extend(self._targets(target))
            self._emit(["assign", targets, self._expr(stmt.value), stmt.lineno])
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._emit(
                    ["assign", self._targets(stmt.target),
                     self._expr(stmt.value), stmt.lineno]
                )
        elif isinstance(stmt, ast.AugAssign):
            self._emit(
                ["aug", self._targets(stmt.target),
                 self._expr(stmt.value), stmt.lineno]
            )
        elif isinstance(stmt, ast.Return):
            value = stmt.value if stmt.value is not None else ast.Constant(None)
            if not hasattr(value, "lineno"):
                value = ast.copy_location(value, stmt)
            self._emit(["ret", self._expr(value), stmt.lineno])
        elif isinstance(stmt, ast.Expr):
            expr = self._expr(stmt.value, bare=True)
            self._emit(["expr", expr, stmt.lineno])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.AsyncFor):
                self.awaits.append([self._idx, stmt.lineno])
            self._emit(
                ["assign", self._targets(stmt.target),
                 self._expr(stmt.iter), stmt.lineno]
            )
            for child in stmt.body:
                self._stmt(child)
            for child in stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, ast.While):
            self._emit(["expr", self._expr(stmt.test), stmt.lineno])
            for child in stmt.body:
                self._stmt(child)
            for child in stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, ast.If):
            self._emit(["expr", self._expr(stmt.test), stmt.lineno])
            for child in stmt.body:
                self._stmt(child)
            for child in stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body:
                self._stmt(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._stmt(child)
            for child in stmt.orelse:
                self._stmt(child)
            for child in stmt.finalbody:
                self._stmt(child)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._emit(["expr", self._expr(stmt.exc), stmt.lineno])
        elif isinstance(stmt, ast.Assert):
            self._emit(["expr", self._expr(stmt.test), stmt.lineno])
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for name in self._targets(target):
                    root = _self_root(name)
                    if root is not None:
                        self._access(root, "write", None, stmt.lineno)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionExtractor(
                self.module, self.path, self._scope + [stmt.name],
                self.cls, stmt, self.sink,
            ).collect()
        elif isinstance(stmt, ast.ClassDef):
            # Classes nested inside functions are rare; extract their
            # methods under the outer scope so nothing is silently lost.
            for child in stmt.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _FunctionExtractor(
                        self.module, self.path,
                        self._scope + [stmt.name, child.name],
                        stmt.name, child, self.sink,
                    ).collect()
        # Import/Pass/Break/Continue/Global/Nonlocal: no dataflow.

    def collect(self) -> None:
        self.sink.append(self.extract())

    def _with(self, stmt: ast.With | ast.AsyncWith) -> None:
        held: list[str] = []
        for item in stmt.items:
            ctx = item.context_expr
            dotted = dotted_of(ctx)
            terminal = dotted.rsplit(".", 1)[-1] if dotted else None
            if terminal is None and isinstance(ctx, ast.Call):
                name = dotted_of(ctx.func)
                terminal = name.rsplit(".", 1)[-1] if name else None
            if isinstance(stmt, ast.AsyncWith):
                self.awaits.append([self._idx, stmt.lineno])
            if item.optional_vars is not None:
                self._emit(
                    ["assign", self._targets(item.optional_vars),
                     self._expr(ctx), stmt.lineno]
                )
            else:
                self._emit(["expr", self._expr(ctx), stmt.lineno])
            if terminal is not None:
                held.append(terminal)
        self._locks.extend(held)
        try:
            for child in stmt.body:
                self._stmt(child)
        finally:
            del self._locks[len(self._locks) - len(held) :]

    # ------------------------------------------------------------------ #
    # targets and accesses
    # ------------------------------------------------------------------ #
    def _targets(self, node: ast.expr) -> list[str]:
        """Flatten an assignment target into dotted names (best effort)."""
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            dotted = dotted_of(node)
            if dotted is not None:
                root = _self_root(dotted)
                if root is not None:
                    self._access(root, "write", None, node.lineno)
                return [dotted]
            return []
        if isinstance(node, ast.Subscript):
            dotted = dotted_of(node.value)
            if dotted is not None:
                root = _self_root(dotted)
                if root is not None:
                    self._access(root, "write", None, node.lineno)
                return [dotted]
            return []
        if isinstance(node, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in node.elts:
                names.extend(self._targets(element))
            return names
        if isinstance(node, ast.Starred):
            return self._targets(node.value)
        return []

    def _access(
        self, obj: str, mode: str, meth: Optional[str], ln: int
    ) -> None:
        self.accesses.append(
            {"i": self._idx, "obj": obj, "mode": mode, "meth": meth,
             "ln": ln, "locks": list(self._locks)}
        )

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def _expr(self, node: ast.expr, *, bare: bool = False) -> Expr:
        ln = getattr(node, "lineno", self.node.lineno)
        if isinstance(node, ast.Await):
            self.awaits.append([self._idx, ln])
            inner = self._expr(node.value, bare=bare)
            if inner.get("k") == "call":
                inner["awaited"] = True
            return inner
        if isinstance(node, ast.Name):
            return {"k": "name", "id": node.id, "ln": ln}
        if isinstance(node, ast.Attribute):
            dotted = dotted_of(node)
            root = _self_root(dotted)
            if root is not None:
                self._access(root, "read", None, ln)
            base = None
            if not isinstance(node.value, ast.Name) or dotted is None:
                base = self._expr(node.value)
            return {"k": "attr", "attr": node.attr, "dotted": dotted,
                    "base": base, "ln": ln}
        if isinstance(node, ast.Call):
            dotted = dotted_of(node.func)
            name: Optional[str] = None
            if dotted is not None:
                name = dotted.rsplit(".", 1)[-1]
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            root = _self_root(dotted)
            if root is not None and dotted is not None and dotted.count(".") >= 2:
                # self.X.method(...) — a potential shared-state mutation.
                self._access(root, "call", name, ln)
            args = [self._expr(a.value if isinstance(a, ast.Starred) else a)
                    for a in node.args]
            kw: list[list[Any]] = [
                [k.arg, self._expr(k.value)] for k in node.keywords
            ]
            call: Expr = {"k": "call", "name": name, "dotted": dotted,
                          "args": args, "kw": kw, "ln": ln,
                          "awaited": False, "bare": bare}
            if dotted is None:
                # The callee is itself an expression (call-on-call,
                # subscripted callable, ...): keep it as a data part so
                # taint through e.g. ``self._cipher().encrypt`` survives.
                call["fexpr"] = self._expr(node.func)
            return call
        if isinstance(node, ast.Constant):
            return {"k": "const", "ln": ln}
        if isinstance(node, ast.IfExp):
            # The ternary's *value* is one of the branches; the test only
            # decides which (implicit flow, outside taint scope).  Keep
            # the test as a guard so calls inside it are still scanned.
            return {
                "k": "many",
                "parts": [self._expr(node.body), self._expr(node.orelse)],
                "guards": [self._expr(node.test)],
                "ln": ln,
            }
        # Everything else flattens to its child expressions.
        parts: list[Expr] = []
        guards: list[Expr] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                parts.append(self._expr(child))
            elif isinstance(child, ast.comprehension):
                parts.append(self._expr(child.iter))
                for test in child.ifs:
                    guards.append(self._expr(test))
        many: Expr = {"k": "many", "parts": parts, "ln": ln}
        if guards:
            many["guards"] = guards
        return many


def _resolve_relative(module: str, path: str, level: int, target: str | None) -> str:
    """Resolve a ``from ..x import y`` module reference to a dotted name.

    The importing module's package is the module itself for a package
    ``__init__.py`` and its parent otherwise; each additional level strips
    one more component.
    """
    parts = module.split(".")
    package = parts if path.endswith("/__init__.py") else parts[:-1]
    drop = level - 1
    if drop > 0:
        package = package[:-drop] if drop < len(package) else []
    if target:
        package = package + target.split(".")
    return ".".join(package)


def extract_module(path: str, source: str) -> ModuleIR:
    """Parse *source* and extract the serializable module IR.

    *path* must be the repo-relative POSIX path (it determines the dotted
    module name used for cross-module resolution).  Raises ``SyntaxError``
    for unparseable source, like the rest of the engine.
    """
    tree = ast.parse(source, filename=path)
    module = module_name_for_path(path)
    imports: dict[str, list[Optional[str]]] = {}
    functions: list[FunctionIR] = []

    def walk_body(body: list[ast.stmt], scope: list[str], cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[bound] = [target, None]
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    base = _resolve_relative(module, path, stmt.level, stmt.module)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    imports[bound] = [base, alias.name]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionExtractor(
                    module, path, scope + [stmt.name], cls, stmt, functions
                ).collect()
            elif isinstance(stmt, ast.ClassDef):
                walk_body(stmt.body, scope + [stmt.name], stmt.name)
            elif isinstance(stmt, (ast.If, ast.Try)):
                # TYPE_CHECKING guards / optional-dependency fallbacks.
                walk_body(stmt.body, scope, cls)
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        walk_body(handler.body, scope, cls)
                    walk_body(stmt.orelse, scope, cls)
                    walk_body(stmt.finalbody, scope, cls)
                else:
                    walk_body(stmt.orelse, scope, cls)

    walk_body(tree.body, [], None)
    return {
        "version": IR_VERSION,
        "path": path,
        "module": module,
        "imports": imports,
        "functions": functions,
    }
