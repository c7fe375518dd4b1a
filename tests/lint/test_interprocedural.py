"""PL007/PL008 end-to-end: fixture packs, pragma placement, and the
acceptance-injection proof.

The injection tests lint the *real* repository with one hypothetical
module planted via ``lint_paths(..., overrides=...)``: a tds-role helper
chain that routes a decrypted statement to the SSI's
``store_result_rows``.  PL007 must catch it, the syntactic rules must
not (that gap is the whole point of the interprocedural layer), and the
same flow wrapped in ``encrypt_rows`` must pass.
"""

from pathlib import Path

from tools.privacy_lint.baseline import Baseline
from tools.privacy_lint.engine import lint_paths
from tools.privacy_lint.manifest import Manifest

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

LEAK_PIPELINE = "tests/lint/fixtures/pl007_leak/pipeline.py"


def fixture_manifest() -> Manifest:
    return Manifest.load(FIXTURES / "manifest.cfg")


def lint_fixture_paths(paths, **kwargs):
    return lint_paths(paths, fixture_manifest(), root=REPO_ROOT, **kwargs)


# --------------------------------------------------------------------- #
# PL007 fixture pack
# --------------------------------------------------------------------- #
def test_pl007_flags_taint_through_helpers():
    report = lint_fixture_paths(["tests/lint/fixtures/pl007_leak"])
    assert [f.rule for f in report.findings] == ["PL007"]
    finding = report.findings[0]
    # primary at the sink call, source recorded as a related location
    assert (finding.path, finding.line) == (LEAK_PIPELINE, 17)
    assert "read_secret" in finding.message
    assert "ssi-role" in finding.message
    assert (LEAK_PIPELINE, 9) in {(p, ln) for p, ln, _ in finding.related}


def test_pl007_sanitized_by_encrypt_is_clean():
    report = lint_fixture_paths(["tests/lint/fixtures/pl007_sealed"])
    assert report.findings == []
    assert report.errors == []


# --------------------------------------------------------------------- #
# PL008 fixture pack
# --------------------------------------------------------------------- #
def test_pl008_flags_all_three_bug_classes():
    report = lint_fixture_paths(["tests/lint/fixtures/pl008_bad_async.py"])
    by_line = {f.line: f.message for f in report.findings}
    assert all(f.rule == "PL008" for f in report.findings)
    assert "mutated after an await" in by_line[28]  # self._busy write
    assert "blocking call time.sleep()" in by_line[31]  # via _grind()
    assert "never awaited" in by_line[34]  # work() dropped
    assert "create_task" in by_line[37]  # task handle discarded
    assert set(by_line) == {28, 31, 34, 37}


def test_pl008_transitive_blocking_reports_the_leaf():
    report = lint_fixture_paths(["tests/lint/fixtures/pl008_bad_async.py"])
    blocking = [f for f in report.findings if f.line == 31]
    notes = {note for _p, _ln, note in blocking[0].related}
    assert any("blocks here: time.sleep()" in note for note in notes)


def test_pl008_good_fixture_is_clean():
    report = lint_fixture_paths(["tests/lint/fixtures/pl008_good_async.py"])
    assert report.findings == []


# --------------------------------------------------------------------- #
# pragma placement: source line OR sink line silences PL007
# --------------------------------------------------------------------- #
def _leak_pipeline_with_pragma(line: int) -> dict[str, str]:
    source = (REPO_ROOT / LEAK_PIPELINE).read_text(encoding="utf-8")
    lines = source.splitlines()
    lines[line - 1] += "  # privacy-lint: disable=PL007  fixture test"
    return {LEAK_PIPELINE: "\n".join(lines) + "\n"}


def test_pragma_at_sink_line_suppresses_interprocedural_finding():
    report = lint_fixture_paths(
        ["tests/lint/fixtures/pl007_leak"],
        overrides=_leak_pipeline_with_pragma(17),
    )
    assert report.findings == []
    assert report.pragma_suppressed == 1


def test_pragma_at_source_line_suppresses_interprocedural_finding():
    report = lint_fixture_paths(
        ["tests/lint/fixtures/pl007_leak"],
        overrides=_leak_pipeline_with_pragma(9),
    )
    assert report.findings == []
    assert report.pragma_suppressed == 1


# --------------------------------------------------------------------- #
# acceptance injection against the real repository
# --------------------------------------------------------------------- #
INJECTED = "src/repro/tds/debug_dump.py"

LEAK = '''\
"""Planted for the acceptance test: never ship anything shaped like this."""
from repro.net.server import SSIDispatcher
from repro.tds.node import TrustedDataServer


def _relay(dispatcher, query_id, rows):
    dispatcher.store_result_rows(query_id, rows)


def _project(statement):
    return [statement.table]


def debug_dump(dispatcher, tds, envelope):
    statement = tds.open_query(envelope)
    rows = _project(statement)
    _relay(dispatcher, envelope.query_id, rows)
'''

SEALED = LEAK.replace(
    "rows = _project(statement)", "rows = encrypt_rows(_project(statement))"
)


def _lint_repo(overrides):
    return lint_paths(
        ["src/repro"],
        Manifest.load(None),
        baseline=Baseline.load(REPO_ROOT / "tools/privacy_lint/baseline.txt"),
        root=REPO_ROOT,
        overrides=overrides,
    )


def test_injected_cross_function_leak_is_caught_and_syntactics_miss_it():
    report = _lint_repo({INJECTED: LEAK})
    injected = [f for f in report.findings if f.path == INJECTED]
    assert {f.rule for f in injected} == {"PL007"}, [f.render() for f in report.findings]
    finding = next(f for f in injected if f.rule == "PL007")
    # the sink is the SSI's store; the source is open_query's plaintext
    assert "store_result_rows" in finding.message
    assert "open_query" in finding.message
    hop_notes = " ".join(note for _p, _ln, note in finding.related)
    assert "_project" in hop_notes or "_relay" in hop_notes


def test_injected_leak_passes_once_encrypted():
    report = _lint_repo({INJECTED: SEALED})
    assert [f for f in report.findings if f.rule == "PL007"] == []


# The client's RPC methods are class attributes derived from the op
# table (``submit_tuples = _proxy(ops.SUBMIT_TUPLES)``), not ``def``s the
# call graph can see — a call through one must still resolve to the
# ssi-role facade method it mirrors and count as an SSI-visible sink.
PROXY_LEAK = '''\
"""Planted for the acceptance test: never ship anything shaped like this."""
from repro.net.client import TDSClient


async def contribute_in_the_clear(client: TDSClient, tds, envelope):
    statement = tds.open_query(envelope)
    await client.submit_tuples(envelope.query_id, [statement.table])
'''


def test_leak_through_a_table_derived_client_proxy_is_caught():
    report = _lint_repo({INJECTED: PROXY_LEAK})
    injected = [f for f in report.findings if f.path == INJECTED]
    assert {f.rule for f in injected} == {"PL007"}, [f.render() for f in report.findings]
    assert "submit_tuples" in injected[0].message
    assert "open_query" in injected[0].message
    sealed = PROXY_LEAK.replace("[statement.table]", "[encrypt_row(statement.table)]")
    assert _lint_repo({INJECTED: sealed}).findings == []
