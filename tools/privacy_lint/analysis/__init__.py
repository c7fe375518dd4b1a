"""Whole-program analysis layer for privacy-lint (PL007/PL008).

PR 2's rules are per-file, syntactic AST checks; the shapes the codebase
has since grown — packed buffers flowing ``tds/node.py`` ->
``net/batch.py`` -> ``net/server.py``, spawn-based fleet shards, a
concurrent asyncio dispatcher — leak *through function calls*, which a
single-file rule cannot see.  This package adds the missing layer:

* :mod:`~tools.privacy_lint.analysis.ir` — a serializable per-module IR
  (imports, functions, assignment/return/call steps, await and
  shared-state access traces) extracted once per file from the stdlib
  AST.  Extraction depends only on the file's bytes, so the result is
  cacheable by content hash.
* :mod:`~tools.privacy_lint.analysis.cache` — the on-disk IR cache that
  keeps full-repo runs fast in CI (cold builds every module; warm runs
  deserialize).
* :mod:`~tools.privacy_lint.analysis.program` — whole-program linking:
  module-qualified function/method resolution, the call graph, and a
  summary-based interprocedural dataflow engine (taint for PL007,
  may-block for PL008).  Summaries compose over the call graph to a
  fixpoint, so the analysis stays linear-ish in program size instead of
  exponential in path count.
"""

from tools.privacy_lint.analysis.cache import IRCache
from tools.privacy_lint.analysis.ir import IR_VERSION, extract_module
from tools.privacy_lint.analysis.program import Program

__all__ = ["IR_VERSION", "IRCache", "Program", "extract_module"]
