"""PL004 — the LoadQ accounting choke point.

LoadQ counts *every* byte a TDS downloads or uploads (EXPERIMENTS.md), and
the repo keeps the invariant ``stats.bytes_processed == trace.total_bytes``
by forcing all charging through ``ProtocolDriver.account()``.  PR 1 fixed
three transfer sites that silently bypassed it; this rule makes the bug
class impossible to reintroduce.

Mechanics: within ``protocol``-role modules, any function whose body
(nested handlers included) calls a *transfer* endpoint — the SSI methods
that move covering-result/partial/result bytes — must also call an
*accounting* method (``account`` itself, or a helper the manifest names
as wrapping it).  Both sets come from the manifest.  Transfer calls at module scope are always
flagged: there is no enclosing function to account for them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.privacy_lint.diagnostics import Finding
from tools.privacy_lint.rules.context import ModuleContext, terminal_name

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


class AccountingChokePoint:
    code = "PL004"
    name = "accounting-choke-point"
    rationale = "every TDS transfer must be charged to LoadQ via account()"

    def __init__(self, context: ModuleContext) -> None:
        self.context = context

    def run(self) -> Iterator[Finding]:
        if self.context.role != "protocol":
            return
        transfer = self.context.manifest.transfer_methods
        account = self.context.manifest.account_methods
        if not transfer:
            return
        # Outermost functions own their nested handlers: a transfer inside
        # a closure is charged by the function that defines it.
        tree = self.context.tree
        module_body = getattr(tree, "body", [])
        outer_functions: list[ast.AST] = []
        module_level: list[ast.stmt] = []
        for stmt in module_body:
            if isinstance(stmt, _FUNCTION_NODES):
                outer_functions.append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCTION_NODES):
                        outer_functions.append(item)
                    else:
                        module_level.append(item)
            else:
                module_level.append(stmt)

        for function in outer_functions:
            transfers: list[ast.Call] = []
            accounts = False
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = terminal_name(node.func)
                    if name in transfer and isinstance(node.func, ast.Attribute):
                        transfers.append(node)
                    elif name in account:
                        accounts = True
            if transfers and not accounts:
                for call in transfers:
                    yield self._finding(call, f"in {function.name}()")

        for stmt in module_level:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = terminal_name(node.func)
                    if name in transfer and isinstance(node.func, ast.Attribute):
                        yield self._finding(node, "at module scope")

    def _finding(self, call: ast.Call, where: str) -> Finding:
        name = terminal_name(call.func)
        return Finding(
            path=self.context.path,
            line=call.lineno,
            col=call.col_offset + 1,
            rule=self.code,
            message=(
                f"transfer call {name}() {where} bypasses the LoadQ choke "
                "point — charge it via ProtocolDriver.account() so "
                "stats.bytes_processed == trace.total_bytes() holds"
            ),
            source_line=self.context.line_text(call.lineno),
        )
