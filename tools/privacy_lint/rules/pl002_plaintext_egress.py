"""PL002 — plaintext egress into SSI-bound containers.

Every byte the SSI stores must be ciphertext or paper-sanctioned cleartext
(§3.2: the SIZE clause; signed credentials).  This rule taints the
arguments of SSI-bound sinks — the ``EncryptedTuple`` /
``EncryptedTupleBlock`` constructors and the ``submit_*`` /
``store_result_rows`` transfer methods, the block path every contribution
takes and the ``submit_partition_result`` one every partial and result
row takes back included — and flags *syntactic* evidence of plaintext
flowing in:

* producer calls: ``encode`` / ``encode_tuple_frame`` / ``encode_partial_frame``
  / ``decode`` / ``decrypt`` / ``decrypt_many`` / ``to_portable`` — all yield
  cleartext bytes or structures;
* the plaintext constructor ``TupleContent(...)``;
* identifiers whose name admits plaintext (``*plain*``, ``*cleartext*``,
  ``*decrypted*``, ``*decoded*``);
* string/bytes literals (a constant payload is by definition not
  ciphertext under a fresh key).

Subtrees inside sanitizer calls (``encrypt*``, ``hash_bucket``) are
pruned first, so ``encrypt_many(tag_plaintexts)`` is fine while a bare
``tag_plaintexts`` is not.  This is a lexical approximation of taint
tracking — cheap, deterministic, and in practice what a reviewer greps
for.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.privacy_lint.diagnostics import Finding
from tools.privacy_lint.rules.context import ModuleContext, terminal_name

_SINK_CONSTRUCTORS = {"EncryptedTuple", "EncryptedTupleBlock"}
_SINK_METHODS = {
    "submit_tuples",
    "submit_tuple_block",
    "submit_tuples_batch",
    "submit_block",
    "submit_partition_result",
    "submit_partials",
    "store_result_rows",
}

_PLAINTEXT_PRODUCERS = {
    "encode",
    "encode_tuple_frame",
    "encode_partial_frame",
    "decode",
    "decrypt",
    "decrypt_many",
    "to_portable",
}
_PLAINTEXT_CONSTRUCTORS = {"TupleContent"}
_PLAINTEXT_NAME_MARKERS = ("plain", "cleartext", "decrypted", "decoded")
_SANITIZER_PREFIXES = ("encrypt",)
_SANITIZERS = {"hash_bucket"}


def _is_sanitizer(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = terminal_name(node.func)
    if name is None:
        return False
    return name.startswith(_SANITIZER_PREFIXES) or name in _SANITIZERS


def _plaintext_evidence(node: ast.AST) -> tuple[ast.AST, str] | None:
    """First plaintext marker in *node*'s subtree, pruning sanitizer calls."""
    if _is_sanitizer(node):
        return None
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in _PLAINTEXT_PRODUCERS:
            return node, f"plaintext-producing call {name}()"
        if name in _PLAINTEXT_CONSTRUCTORS:
            return node, f"plaintext constructor {name}()"
    if isinstance(node, ast.Name):
        lowered = node.id.lower()
        for marker in _PLAINTEXT_NAME_MARKERS:
            if marker in lowered:
                return node, f"plaintext-named value {node.id!r}"
    if isinstance(node, ast.Attribute):
        lowered = node.attr.lower()
        for marker in _PLAINTEXT_NAME_MARKERS:
            if marker in lowered:
                return node, f"plaintext-named value {node.attr!r}"
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
        return node, "constant payload (not ciphertext)"
    for child in ast.iter_child_nodes(node):
        evidence = _plaintext_evidence(child)
        if evidence is not None:
            return evidence
    return None


class PlaintextEgress:
    code = "PL002"
    name = "plaintext-egress"
    rationale = "SSI-bound payloads must be ciphertext (§3.2)"

    def __init__(self, context: ModuleContext) -> None:
        self.context = context

    def run(self) -> Iterator[Finding]:
        for node in ast.walk(self.context.tree):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name in _SINK_CONSTRUCTORS:
                yield from self._check_args(node, name, node.args, node.keywords)
            elif name in _SINK_METHODS and isinstance(node.func, ast.Attribute):
                # First positional arg of the transfer methods is the
                # query id (opaque); the payload-carrying args follow.
                yield from self._check_args(
                    node, name, node.args[1:], node.keywords
                )

    def _check_args(
        self,
        call: ast.Call,
        sink: str,
        args: list[ast.expr],
        keywords: list[ast.keyword],
    ) -> Iterator[Finding]:
        candidates: list[ast.expr] = list(args)
        candidates.extend(kw.value for kw in keywords)
        for expr in candidates:
            evidence = _plaintext_evidence(expr)
            if evidence is None:
                continue
            marker, description = evidence
            line = getattr(marker, "lineno", call.lineno)
            col = getattr(marker, "col_offset", call.col_offset) + 1
            yield Finding(
                path=self.context.path,
                line=line,
                col=col,
                rule=self.code,
                message=(
                    f"{description} flows into SSI-bound {sink} — everything "
                    "the SSI stores must be ciphertext (§3.2); encrypt first"
                ),
                source_line=self.context.line_text(line),
            )
